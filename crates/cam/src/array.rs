//! Functional CAM array simulator.
//!
//! Storage is a [`PackedHashes`] slab plus an occupancy bitmap rather
//! than a `Vec<Option<BitVec>>`: every stored word lives in one
//! contiguous row-major allocation, searched one row at a time by the
//! portable XOR+popcount kernel `deepcam_hash::packed::hamming_words`
//! (the inference engine's weight tiles use the same slab layout, walked
//! by the blocked `hamming_tile_into`), instead of a pointer chase
//! through per-row heap vectors. The
//! occupancy bitmap doubles as an EIE-style skip index: a search walks
//! it word by word, skipping 64 rows per all-zero word without touching
//! the slab (the software twin of keeping empty match lines unsensed).
//! The [`BitVec`] API is kept for construction and tests.

use deepcam_hash::{low_mask, BitVec, PackedHashes};
use serde::{Deserialize, Serialize};

use crate::config::CamConfig;
use crate::error::CamError;
use crate::Result;

/// The result of one row's match-line evaluation during a search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SearchHit {
    /// Row index.
    pub row: usize,
    /// True Hamming distance between the key and the stored word.
    pub hamming: usize,
    /// Distance as reported by the configured sense amplifier (equals
    /// `hamming` under [`crate::SenseModel::Exact`]).
    pub sensed: usize,
}

/// A dynamic-size CAM array: `rows` words of the configured active word
/// length, searched in parallel.
///
/// The array is *functional*: it returns exact (or sense-amp-quantized)
/// Hamming distances. Energy and latency are accounted separately via
/// [`crate::CamCostModel`], keeping behaviour and cost models independent
/// — the same split EvaCAM makes between functional and circuit level.
///
/// # Example
///
/// ```
/// use deepcam_cam::{CamArray, CamConfig};
/// use deepcam_hash::BitVec;
///
/// let mut cam = CamArray::new(CamConfig::new(64, 256)?);
/// let word = BitVec::from_bools(&[true; 256]);
/// cam.write_row(3, word.clone())?;
/// let hits = cam.search(&word)?;
/// assert_eq!(hits.len(), 1); // only occupied rows respond
/// assert_eq!(hits[0].row, 3);
/// assert_eq!(hits[0].hamming, 0);
/// # Ok::<(), deepcam_cam::CamError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CamArray {
    config: CamConfig,
    /// All row words in one contiguous slab (stale garbage may remain in
    /// unoccupied rows; `occupied` is the source of truth).
    packed: PackedHashes,
    /// Occupancy bitmap, one bit per row (bit set = row holds a word).
    occupied: Vec<u64>,
}

impl CamArray {
    /// Creates an empty array.
    pub fn new(config: CamConfig) -> Self {
        let packed = PackedHashes::zeroed(config.word_bits(), config.rows);
        let occupied = vec![0u64; config.rows.div_ceil(64)];
        CamArray {
            config,
            packed,
            occupied,
        }
    }

    /// The array configuration.
    pub fn config(&self) -> &CamConfig {
        &self.config
    }

    /// Number of rows currently holding a word.
    pub fn occupied_rows(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Row utilization in `[0, 1]` — the quantity plotted in Fig. 9.
    pub fn utilization(&self) -> f64 {
        self.occupied_rows() as f64 / self.config.rows.max(1) as f64
    }

    /// Writes a word into row `row`.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::RowOutOfRange`] or
    /// [`CamError::WordLengthMismatch`] (the word must exactly fill the
    /// active word length).
    pub fn write_row(&mut self, row: usize, word: BitVec) -> Result<()> {
        if row >= self.config.rows {
            return Err(CamError::RowOutOfRange {
                row,
                rows: self.config.rows,
            });
        }
        if word.len() != self.config.word_bits() {
            return Err(CamError::WordLengthMismatch {
                expected: self.config.word_bits(),
                actual: word.len(),
            });
        }
        self.packed
            .set_row(row, &word)
            .expect("row and width validated above");
        self.occupied[row / 64] |= 1 << (row % 64);
        Ok(())
    }

    /// Clears every row (a new tile is about to be loaded).
    ///
    /// Only the occupancy bitmap is reset; stale slab words are never
    /// read because searches filter on occupancy.
    pub fn clear(&mut self) {
        for w in &mut self.occupied {
            *w = 0;
        }
    }

    /// Loads a batch of words into rows `0..words.len()`, clearing the
    /// array first. This is the "tile load" operation of the scheduler.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::CapacityExceeded`] when more words than rows
    /// are offered, or a word-length error from [`CamArray::write_row`].
    pub fn load(&mut self, words: &[BitVec]) -> Result<()> {
        if words.len() > self.config.rows {
            return Err(CamError::CapacityExceeded {
                offered: words.len(),
                rows: self.config.rows,
            });
        }
        self.clear();
        for (i, w) in words.iter().enumerate() {
            self.write_row(i, w.clone())?;
        }
        Ok(())
    }

    /// Reconfigures the active word length, clearing all rows (stored
    /// words are only meaningful at the width they were written).
    ///
    /// # Errors
    ///
    /// Same conditions as [`CamConfig::set_word_bits`].
    pub fn set_word_bits(&mut self, word_bits: usize) -> Result<()> {
        self.config.set_word_bits(word_bits)?;
        // The slab stride depends on the word width — reallocate it.
        self.packed = PackedHashes::zeroed(word_bits, self.config.rows);
        self.clear();
        Ok(())
    }

    /// Searches the key against all occupied rows *in parallel* (O(1)
    /// array time), returning one hit per occupied row in row order.
    ///
    /// # Errors
    ///
    /// Returns [`CamError::WordLengthMismatch`] when the key width differs
    /// from the active word length.
    pub fn search(&self, key: &BitVec) -> Result<Vec<SearchHit>> {
        if key.len() != self.config.word_bits() {
            return Err(CamError::WordLengthMismatch {
                expected: self.config.word_bits(),
                actual: key.len(),
            });
        }
        Ok(self.search_rows(key))
    }

    /// Match-line evaluation for every row (key width already validated),
    /// in row order.
    ///
    /// The occupancy bitmap drives an EIE-style zero-run skip: the scan
    /// walks one bitmap word (64 rows) at a time and an all-zero word is
    /// skipped without touching the slab at all. Fully-occupied spans
    /// take one linear [`PackedHashes::hamming_range_into`] pass —
    /// mirroring how every match line evaluates simultaneously in the
    /// real array — and partially-occupied spans visit only the set bits
    /// through [`PackedHashes::hamming_row`], so stale slab rows are
    /// never read (empty rows keep their match lines silent).
    fn search_rows(&self, key: &BitVec) -> Vec<SearchHit> {
        let (rows, word_bits) = (self.config.rows, self.config.word_bits());
        let key_words = key.words();
        let mut hits = Vec::with_capacity(self.occupied_rows());
        let push = |hits: &mut Vec<SearchHit>, row: usize, d: u32| {
            let hamming = d as usize;
            hits.push(SearchHit {
                row,
                hamming,
                sensed: self.config.sense.read(hamming, word_bits),
            });
        };
        let mut dists = [0u32; 64];
        for (wi, &occupied) in self.occupied.iter().enumerate() {
            let base = wi * 64;
            let span_hi = rows.min(base + 64) - base;
            let span_mask = low_mask(span_hi);
            let masked = occupied & span_mask;
            if masked == 0 {
                // Zero run: 64 rows skipped with one bitmap-word load.
                continue;
            }
            if masked == span_mask {
                // Dense span: one contiguous range pass over the slab.
                let (rlo, rhi) = (base, base + span_hi);
                let span = &mut dists[..rhi - rlo];
                self.packed.hamming_range_into(key_words, rlo, rhi, span);
                for (off, &d) in span.iter().enumerate() {
                    push(&mut hits, rlo + off, d);
                }
            } else {
                // Sparse span: visit set bits only, in ascending row
                // order (clearing the lowest set bit each step).
                let mut m = masked;
                while m != 0 {
                    let row = base + m.trailing_zeros() as usize;
                    m &= m - 1;
                    push(&mut hits, row, self.packed.hamming_row(row, key_words));
                }
            }
        }
        hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sense::SenseModel;
    use deepcam_tensor::rng::seeded_rng;
    use rand::RngExt;

    fn random_word(bits: usize, rng: &mut impl rand::Rng) -> BitVec {
        let mut w = BitVec::zeros(bits);
        for i in 0..bits {
            if rng.random::<bool>() {
                w.set(i, true);
            }
        }
        w
    }

    #[test]
    fn empty_array_returns_no_hits() {
        let cam = CamArray::new(CamConfig::new(64, 256).unwrap());
        let hits = cam.search(&BitVec::zeros(256)).unwrap();
        assert!(hits.is_empty());
        assert_eq!(cam.utilization(), 0.0);
    }

    #[test]
    fn search_matches_reference_popcount() {
        let mut rng = seeded_rng(1);
        let mut cam = CamArray::new(CamConfig::new(64, 512).unwrap());
        let words: Vec<BitVec> = (0..64).map(|_| random_word(512, &mut rng)).collect();
        cam.load(&words).unwrap();
        let key = random_word(512, &mut rng);
        let hits = cam.search(&key).unwrap();
        assert_eq!(hits.len(), 64);
        for hit in hits {
            let expected = words[hit.row].hamming(&key).unwrap();
            assert_eq!(hit.hamming, expected);
            assert_eq!(hit.sensed, expected); // Exact sense model
        }
    }

    #[test]
    fn clocked_sense_quantizes() {
        let mut rng = seeded_rng(2);
        let cfg = CamConfig::new(64, 256)
            .unwrap()
            .with_sense(SenseModel::Clocked { levels: 8 });
        let mut cam = CamArray::new(cfg);
        let words: Vec<BitVec> = (0..16).map(|_| random_word(256, &mut rng)).collect();
        cam.load(&words).unwrap();
        let key = random_word(256, &mut rng);
        let hits = cam.search(&key).unwrap();
        // Coarse sensing rarely matches everywhere; true values stay exact.
        assert!(hits.iter().any(|h| h.sensed != h.hamming));
        for hit in hits {
            assert_eq!(hit.hamming, words[hit.row].hamming(&key).unwrap());
        }
    }

    #[test]
    fn occupancy_skip_paths_agree_with_reference() {
        // 256 rows = 4 bitmap words, one per skip path: word 0 dense
        // (range-kernel pass), word 1 all-empty (zero-run skip), word 2
        // sparse (per-set-bit visits), word 3 sparse again.
        let mut rng = seeded_rng(9);
        let mut cam = CamArray::new(CamConfig::new(256, 256).unwrap());
        let mut stored: Vec<Option<BitVec>> = vec![None; 256];
        let mut occupy = |cam: &mut CamArray, stored: &mut Vec<Option<BitVec>>, row: usize| {
            let w = random_word(256, &mut rng);
            cam.write_row(row, w.clone()).unwrap();
            stored[row] = Some(w);
        };
        for row in 0..64 {
            occupy(&mut cam, &mut stored, row);
        }
        for row in [128, 131, 160, 190, 191] {
            occupy(&mut cam, &mut stored, row);
        }
        for row in 200..220 {
            occupy(&mut cam, &mut stored, row);
        }
        let key = BitVec::from_bools(&[true; 256]);
        let expected: Vec<(usize, usize)> = stored
            .iter()
            .enumerate()
            .filter_map(|(row, w)| w.as_ref().map(|w| (row, w.hamming(&key).unwrap())))
            .collect();
        let hits = cam.search(&key).unwrap();
        let got: Vec<(usize, usize)> = hits.iter().map(|h| (h.row, h.hamming)).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn load_validates_capacity() {
        let mut cam = CamArray::new(CamConfig::new(64, 256).unwrap());
        let words: Vec<BitVec> = (0..65).map(|_| BitVec::zeros(256)).collect();
        assert!(matches!(
            cam.load(&words),
            Err(CamError::CapacityExceeded { offered: 65, .. })
        ));
    }

    #[test]
    fn partial_load_utilization() {
        // The paper's weight-stationary example: 6 kernels in a 64-row CAM
        // → 9.4% utilization.
        let mut cam = CamArray::new(CamConfig::new(64, 256).unwrap());
        let words: Vec<BitVec> = (0..6).map(|_| BitVec::zeros(256)).collect();
        cam.load(&words).unwrap();
        assert_eq!(cam.occupied_rows(), 6);
        assert!((cam.utilization() - 6.0 / 64.0).abs() < 1e-9);
    }

    #[test]
    fn write_row_validates() {
        let mut cam = CamArray::new(CamConfig::new(64, 256).unwrap());
        assert!(cam.write_row(64, BitVec::zeros(256)).is_err());
        assert!(cam.write_row(0, BitVec::zeros(255)).is_err());
    }

    #[test]
    fn key_width_validated() {
        let cam = CamArray::new(CamConfig::new(64, 512).unwrap());
        assert!(cam.search(&BitVec::zeros(256)).is_err());
    }

    #[test]
    fn reconfigure_clears_rows() {
        let mut cam = CamArray::new(CamConfig::new(64, 256).unwrap());
        cam.write_row(0, BitVec::zeros(256)).unwrap();
        cam.set_word_bits(512).unwrap();
        assert_eq!(cam.occupied_rows(), 0);
        assert_eq!(cam.config().word_bits(), 512);
        // Old-width writes now fail.
        assert!(cam.write_row(0, BitVec::zeros(256)).is_err());
    }

    #[test]
    fn load_replaces_previous_tile() {
        let mut cam = CamArray::new(CamConfig::new(64, 256).unwrap());
        cam.load(&vec![BitVec::zeros(256); 10]).unwrap();
        cam.load(&vec![BitVec::zeros(256); 3]).unwrap();
        assert_eq!(cam.occupied_rows(), 3);
    }
}
