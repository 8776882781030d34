//! CAM array configuration.

use crate::chunk::ChunkConfig;
use crate::error::CamError;
use crate::sense::SenseModel;
use crate::Result;

/// Row counts evaluated in the paper (Fig. 8 / Fig. 9).
pub const SUPPORTED_ROW_SIZES: [usize; 4] = [64, 128, 256, 512];

/// Word lengths (columns) supported by the four-chunk word (Fig. 8).
pub const SUPPORTED_COL_SIZES: [usize; 4] = [256, 512, 768, 1024];

/// Configuration of one dynamic-size CAM array.
///
/// # Example
///
/// ```
/// use deepcam_cam::CamConfig;
///
/// let cfg = CamConfig::new(64, 512)?;
/// assert_eq!(cfg.rows, 64);
/// assert_eq!(cfg.word_bits(), 512);
/// # Ok::<(), deepcam_cam::CamError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CamConfig {
    /// Number of rows (stored contexts searched in parallel).
    pub rows: usize,
    /// Chunk configuration selecting the active word length.
    pub chunks: ChunkConfig,
    /// Sense-amplifier model used to read Hamming distances.
    pub sense: SenseModel,
    /// Clock frequency in Hz (the paper evaluates at 300 MHz).
    pub clock_hz: f64,
}

impl CamConfig {
    /// Creates a configuration with the default sense model and the
    /// paper's 300 MHz clock.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::InvalidConfig`] when `rows` is not one of
    /// {64,128,256,512} or `word_bits` is not one of {256,512,768,1024}.
    pub fn new(rows: usize, word_bits: usize) -> Result<Self> {
        if !SUPPORTED_ROW_SIZES.contains(&rows) {
            return Err(CamError::InvalidConfig(format!(
                "row count {rows} not in {SUPPORTED_ROW_SIZES:?}"
            )));
        }
        Ok(CamConfig {
            rows,
            chunks: ChunkConfig::for_hash_len(word_bits)?,
            sense: SenseModel::default(),
            clock_hz: 300e6,
        })
    }

    /// Builder-style sense-model override.
    pub fn with_sense(mut self, sense: SenseModel) -> Self {
        self.sense = sense;
        self
    }

    /// Active word length in bits.
    pub fn word_bits(&self) -> usize {
        self.chunks.word_bits()
    }

    /// Duration of one clock cycle in seconds.
    pub fn cycle_time_s(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Reconfigures the active word length (the transmission-gate enable
    /// signals — this is cheap at runtime, which is the whole point of the
    /// dynamic design).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChunkConfig::for_hash_len`].
    pub fn set_word_bits(&mut self, word_bits: usize) -> Result<()> {
        self.chunks = ChunkConfig::for_hash_len(word_bits)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs() {
        for &r in &SUPPORTED_ROW_SIZES {
            for &c in &SUPPORTED_COL_SIZES {
                let cfg = CamConfig::new(r, c).unwrap();
                assert_eq!(cfg.rows, r);
                assert_eq!(cfg.word_bits(), c);
            }
        }
    }

    #[test]
    fn invalid_rows_rejected() {
        assert!(CamConfig::new(63, 256).is_err());
        assert!(CamConfig::new(1024, 256).is_err());
    }

    #[test]
    fn reconfigure_word_length() {
        let mut cfg = CamConfig::new(64, 256).unwrap();
        cfg.set_word_bits(1024).unwrap();
        assert_eq!(cfg.word_bits(), 1024);
        assert!(cfg.set_word_bits(257).is_err());
        // Failed reconfiguration leaves the config unchanged.
        assert_eq!(cfg.word_bits(), 1024);
    }

    #[test]
    fn clock_default_is_300mhz() {
        let cfg = CamConfig::new(64, 256).unwrap();
        assert!((cfg.clock_hz - 300e6).abs() < 1.0);
        assert!((cfg.cycle_time_s() - 3.333e-9).abs() < 1e-11);
    }
}
