//! Dynamic word-length chunking (paper §III-B, Fig. 6).
//!
//! The CAM word is physically four 256-bit chunks. Adjacent chunks are
//! joined by transmission gates (full CMOS pass gates, chosen over single
//! NMOS/PMOS switches so the match-line voltage is forwarded without
//! degradation). Enabling 1–4 chunks selects a word — and therefore hash —
//! length of 256/512/768/1024 bits. Disabled chunks are neither precharged
//! nor searched, which is where the variable-hash-length energy saving
//! comes from.

use crate::error::CamError;
use crate::Result;

/// Bits per physical chunk.
pub const CHUNK_BITS: usize = 256;

/// Maximum number of chunks per word.
pub const MAX_CHUNKS: usize = 4;

/// Number of enabled 256-bit chunks (1–4).
///
/// # Example
///
/// ```
/// use deepcam_cam::ChunkConfig;
///
/// let c = ChunkConfig::for_hash_len(768)?;
/// assert_eq!(c.enabled(), 3);
/// assert_eq!(c.word_bits(), 768);
/// # Ok::<(), deepcam_cam::CamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkConfig {
    enabled: usize,
}

impl ChunkConfig {
    /// Enables `enabled` chunks.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::InvalidConfig`] unless `1 <= enabled <= 4`.
    pub fn new(enabled: usize) -> Result<Self> {
        if !(1..=MAX_CHUNKS).contains(&enabled) {
            return Err(CamError::InvalidConfig(format!(
                "chunk count must be 1..={MAX_CHUNKS}, got {enabled}"
            )));
        }
        Ok(ChunkConfig { enabled })
    }

    /// Smallest chunk configuration whose word holds `hash_len` bits.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::InvalidConfig`] when `hash_len` is zero, not a
    /// multiple of 256, or above 1024 — the paper's hardware only supports
    /// the four discrete widths.
    pub fn for_hash_len(hash_len: usize) -> Result<Self> {
        if hash_len == 0
            || !hash_len.is_multiple_of(CHUNK_BITS)
            || hash_len > CHUNK_BITS * MAX_CHUNKS
        {
            return Err(CamError::InvalidConfig(format!(
                "hash length {hash_len} not in {{256, 512, 768, 1024}}"
            )));
        }
        ChunkConfig::new(hash_len / CHUNK_BITS)
    }

    /// Number of enabled chunks.
    pub fn enabled(&self) -> usize {
        self.enabled
    }

    /// Active word length in bits.
    pub fn word_bits(&self) -> usize {
        self.enabled * CHUNK_BITS
    }

    /// Number of closed transmission-gate boundaries per row (one between
    /// each pair of adjacent enabled chunks).
    pub fn active_gates(&self) -> usize {
        self.enabled - 1
    }

    /// Fraction of the physical word that is active (drives the energy
    /// saving of variable hash lengths).
    pub fn active_fraction(&self) -> f64 {
        self.enabled as f64 / MAX_CHUNKS as f64
    }

    /// All valid configurations, smallest first.
    pub fn all() -> [ChunkConfig; MAX_CHUNKS] {
        [
            ChunkConfig { enabled: 1 },
            ChunkConfig { enabled: 2 },
            ChunkConfig { enabled: 3 },
            ChunkConfig { enabled: 4 },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_hash_len_selects_chunks() {
        assert_eq!(ChunkConfig::for_hash_len(256).unwrap().enabled(), 1);
        assert_eq!(ChunkConfig::for_hash_len(512).unwrap().enabled(), 2);
        assert_eq!(ChunkConfig::for_hash_len(768).unwrap().enabled(), 3);
        assert_eq!(ChunkConfig::for_hash_len(1024).unwrap().enabled(), 4);
    }

    #[test]
    fn rejects_unsupported_lengths() {
        for bad in [0usize, 100, 255, 300, 1025, 2048] {
            assert!(ChunkConfig::for_hash_len(bad).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn new_bounds() {
        assert!(ChunkConfig::new(0).is_err());
        assert!(ChunkConfig::new(5).is_err());
        assert!(ChunkConfig::new(4).is_ok());
    }

    #[test]
    fn gates_and_fraction() {
        let c = ChunkConfig::new(3).unwrap();
        assert_eq!(c.active_gates(), 2);
        assert!((c.active_fraction() - 0.75).abs() < 1e-12);
        assert_eq!(ChunkConfig::new(1).unwrap().active_gates(), 0);
    }

    #[test]
    fn all_is_ordered() {
        let all = ChunkConfig::all();
        for (i, c) in all.iter().enumerate() {
            assert_eq!(c.enabled(), i + 1);
        }
    }
}
