//! Packed hash tiles — the contiguous storage layout of the hot path.
//!
//! A [`PackedHashes`] tile holds every hash of one CAM tile (all M kernel
//! contexts of a layer, or all rows of a [`CamArray`]) in **one**
//! row-major `Vec<u64>` slab with a fixed words-per-row stride:
//!
//! ```text
//! row 0: | w0 | w1 | w2 | w3 |      ← k bits in ⌈k/64⌉ words,
//! row 1: | w0 | w1 | w2 | w3 |        trailing bits of the last
//! ...                                  word always zero
//! row M: | w0 | w1 | w2 | w3 |
//! ```
//!
//! Compared to a `Vec<BitVec>` (one heap allocation per row, a length
//! field re-checked per comparison), the slab gives the Hamming
//! microkernel [`PackedHashes::hamming_into`] a single linear pass over
//! contiguous memory, one portable XOR + popcount per word
//! ([`hamming_words`]), with no per-row `Option`, no per-call length
//! `Result`, and no tail masking in the loop — the
//! *masked tail word is handled once at build time* by the
//! trailing-zero invariant every [`BitVec`] builder upholds.
//!
//! This is the software twin of the data-layout argument in
//! "Full-Stack Optimization for CAM-Only DNN Inference": packing and
//! placement, not the match primitive, decide throughput.
//!
//! [`CamArray`]: https://docs.rs/deepcam-cam

use crate::bitvec::BitVec;
use crate::error::HashError;
use crate::Result;

const WORD_BITS: usize = 64;

/// Queries per register-resident run of [`PackedHashes::hamming_tile_into`].
const TILE_QUERIES: usize = 64;

/// A dense tile of equal-width hashes in one contiguous row-major slab.
///
/// # Example
///
/// ```
/// use deepcam_hash::{BitVec, PackedHashes};
///
/// let rows = vec![
///     BitVec::from_bools(&[true; 100]),
///     BitVec::from_bools(&[false; 100]),
/// ];
/// let tile = PackedHashes::from_bitvecs(100, &rows)?;
/// let query = BitVec::from_bools(&[true; 100]);
/// let mut dists = vec![0u32; tile.rows()];
/// tile.hamming_into(query.words(), &mut dists);
/// assert_eq!(dists, [0, 100]);
/// # Ok::<(), deepcam_hash::HashError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedHashes {
    bits: usize,
    words_per_row: usize,
    rows: usize,
    /// Row-major `[rows * words_per_row]`; trailing bits of each row's
    /// last word are zero (the build-time tail mask).
    slab: Vec<u64>,
}

impl PackedHashes {
    /// Creates an empty tile for `bits`-wide hashes.
    pub fn new(bits: usize) -> Self {
        PackedHashes {
            bits,
            words_per_row: bits.div_ceil(WORD_BITS),
            rows: 0,
            slab: Vec::new(),
        }
    }

    /// Creates an all-zero tile with `rows` pre-allocated rows (used by
    /// fixed-geometry consumers like the CAM array, which overwrite rows
    /// in place).
    pub fn zeroed(bits: usize, rows: usize) -> Self {
        let words_per_row = bits.div_ceil(WORD_BITS);
        PackedHashes {
            bits,
            words_per_row,
            rows,
            slab: vec![0; rows * words_per_row],
        }
    }

    /// Packs a slice of equal-width [`BitVec`]s into one tile.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::LengthMismatch`] when any row's width differs
    /// from `bits` — the single up-front check that replaces the
    /// per-comparison length `Result` of the `BitVec` path.
    pub fn from_bitvecs(bits: usize, rows: &[BitVec]) -> Result<Self> {
        let mut tile = PackedHashes::new(bits);
        tile.slab.reserve(rows.len() * tile.words_per_row);
        for row in rows {
            tile.push(row)?;
        }
        Ok(tile)
    }

    /// Takes a row-major slab of `bits`-wide rows, `bits.div_ceil(64)`
    /// words each, as the tile.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::InvalidConfig`] when `bits` is zero, the slab
    /// is not a whole number of rows, or a row sets a bit past `bits` in
    /// its last word (the tile keeps those zero).
    pub fn from_words(bits: usize, slab: Vec<u64>) -> Result<Self> {
        let words_per_row = bits.div_ceil(WORD_BITS);
        if words_per_row == 0 || !slab.len().is_multiple_of(words_per_row) {
            return Err(HashError::InvalidConfig(format!(
                "{} words are not whole rows of {bits} bits",
                slab.len()
            )));
        }
        let mask = crate::bitvec::tail_garbage_mask(bits);
        if let Some(row) = slab
            .chunks_exact(words_per_row)
            .position(|row| row[words_per_row - 1] & mask != 0)
        {
            return Err(HashError::InvalidConfig(format!(
                "row {row} has bits set past its width of {bits}"
            )));
        }
        Ok(PackedHashes {
            bits,
            words_per_row,
            rows: slab.len() / words_per_row,
            slab,
        })
    }

    /// Appends one hash row.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::LengthMismatch`] when the row width differs
    /// from the tile width.
    pub fn push(&mut self, row: &BitVec) -> Result<()> {
        if row.len() != self.bits {
            return Err(HashError::LengthMismatch {
                lhs: self.bits,
                rhs: row.len(),
            });
        }
        self.slab.extend_from_slice(row.words());
        self.rows += 1;
        Ok(())
    }

    /// Overwrites row `row` in place.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::LengthMismatch`] on a width mismatch, or
    /// [`HashError::InvalidConfig`] when `row` is out of range.
    pub fn set_row(&mut self, row: usize, word: &BitVec) -> Result<()> {
        if word.len() != self.bits {
            return Err(HashError::LengthMismatch {
                lhs: self.bits,
                rhs: word.len(),
            });
        }
        if row >= self.rows {
            return Err(HashError::InvalidConfig(format!(
                "row {row} out of range {}",
                self.rows
            )));
        }
        let start = row * self.words_per_row;
        self.slab[start..start + self.words_per_row].copy_from_slice(word.words());
        Ok(())
    }

    /// Hash width in bits.
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Words per row (the fixed stride of the slab).
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Returns `true` when the tile holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The packed words of row `row`.
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn row_words(&self, row: usize) -> &[u64] {
        assert!(row < self.rows, "row {row} out of range {}", self.rows);
        &self.slab[row * self.words_per_row..(row + 1) * self.words_per_row]
    }

    /// Reconstructs row `row` as a [`BitVec`] (construction/test API; the
    /// hot path never calls this).
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range.
    pub fn row_bitvec(&self, row: usize) -> BitVec {
        let words = self.row_words(row);
        let mut v = BitVec::zeros(self.bits);
        for (i, &w) in words.iter().enumerate() {
            for b in 0..WORD_BITS {
                let bit = i * WORD_BITS + b;
                if bit >= self.bits {
                    break;
                }
                if (w >> b) & 1 == 1 {
                    v.set(bit, true);
                }
            }
        }
        v
    }

    /// The Hamming microkernel: fills `out[i]` with the distance between
    /// `query_words` and row `i`, for every row, in one pass over the
    /// contiguous slab.
    ///
    /// `query_words` must obey the [`BitVec`] trailing-zero invariant
    /// (every builder in this crate does), so no tail mask is applied in
    /// the loop. Each row is one [`hamming_words`] call, the crate's one
    /// XOR + popcount kernel.
    ///
    /// # Panics
    ///
    /// Panics when `query_words` is not exactly `words_per_row` long or
    /// `out` is not exactly `rows` long.
    #[inline]
    // analyze: alloc-free
    pub fn hamming_into(&self, query_words: &[u64], out: &mut [u32]) {
        assert_eq!(
            query_words.len(),
            self.words_per_row,
            "query width must match the tile stride"
        );
        assert_eq!(out.len(), self.rows, "output slot per row");
        let wpr = self.words_per_row;
        if wpr == 0 {
            // Zero-width rows: every distance is zero by definition.
            out.fill(0);
            return;
        }
        for (row_words, o) in self.slab.chunks_exact(wpr).zip(out.iter_mut()) {
            *o = hamming_words(row_words, query_words);
        }
    }

    /// The blocked Hamming tile: the distance of each of `nq` queries
    /// against every row, into `out[row * nq + q]`.
    ///
    /// `queries` is **word-major**: word `w` of query `q` sits at
    /// `queries[w * nq + q]`, so each row word is broadcast against a
    /// contiguous run of query words and one pass over the slab serves
    /// every query (the CAM's one-search-per-query, turned sideways).
    /// Queries must obey the [`BitVec`] trailing-zero invariant, as for
    /// [`PackedHashes::hamming_into`]. The loop is portable: under the
    /// workspace's `target-cpu=native` LLVM vectorizes the query run
    /// (`vpopcntq` on AVX-512 hosts), and every distance is the exact
    /// integer [`hamming_words`] gives, whatever the variant.
    ///
    /// # Panics
    ///
    /// Panics when `queries` is not `words_per_row * nq` words or `out`
    /// is not `rows * nq` long.
    // analyze: alloc-free
    pub fn hamming_tile_into(&self, queries: &[u64], nq: usize, out: &mut [u32]) {
        let wpr = self.words_per_row;
        assert_eq!(queries.len(), wpr * nq, "queries must be wpr × nq words");
        assert_eq!(out.len(), self.rows * nq, "output slot per (row, query)");
        out.fill(0);
        if wpr == 0 || nq == 0 {
            return;
        }
        // Full runs of `TILE_QUERIES` queries keep their distances in
        // registers across the row's words (a fixed-length `u64` run is
        // what LLVM keeps in vector registers); the remainder accumulates
        // in `out`.
        let full = nq / TILE_QUERIES * TILE_QUERIES;
        for (row_words, dists) in self.slab.chunks_exact(wpr).zip(out.chunks_exact_mut(nq)) {
            let (runs, tail) = dists.split_at_mut(full);
            for (b, run) in runs.chunks_exact_mut(TILE_QUERIES).enumerate() {
                let mut acc = [0u64; TILE_QUERIES];
                for (&kw, q) in row_words.iter().zip(queries.chunks_exact(nq)) {
                    let q = &q[b * TILE_QUERIES..(b + 1) * TILE_QUERIES];
                    for (a, &qw) in acc.iter_mut().zip(q) {
                        *a += u64::from((qw ^ kw).count_ones());
                    }
                }
                for (d, a) in run.iter_mut().zip(acc) {
                    *d = a as u32;
                }
            }
            for (&kw, q) in row_words.iter().zip(queries.chunks_exact(nq)) {
                for (d, &qw) in tail.iter_mut().zip(&q[full..]) {
                    *d += (qw ^ kw).count_ones();
                }
            }
        }
    }

    /// Hamming distance between row `row` and `query_words`, through the
    /// same [`hamming_words`] kernel as [`PackedHashes::hamming_into`] (the
    /// single-row primitive of the occupancy-skip CAM scan, which visits
    /// occupied rows one at a time).
    ///
    /// # Panics
    ///
    /// Panics when `row` is out of range or `query_words` is not exactly
    /// `words_per_row` long.
    #[inline]
    // analyze: alloc-free
    pub fn hamming_row(&self, row: usize, query_words: &[u64]) -> u32 {
        assert_eq!(
            query_words.len(),
            self.words_per_row,
            "query width must match the tile stride"
        );
        hamming_words(self.row_words(row), query_words)
    }
}

impl serde::bin::BinCodec for PackedHashes {
    fn encode(&self, w: &mut serde::bin::Writer) {
        w.put_usize(self.bits);
        w.put_usize(self.rows);
        // words_per_row is derived from bits; the slab length is derived
        // from both — neither is encoded, so a decoded tile can never be
        // internally inconsistent.
        for &word in &self.slab {
            w.put_u64(word);
        }
    }

    fn decode(r: &mut serde::bin::Reader<'_>) -> serde::bin::BinResult<Self> {
        let bits = r.get_usize()?;
        let rows = r.get_usize()?;
        if bits == 0 {
            return Err(serde::bin::BinError::Invalid(
                "packed tile width must be > 0".into(),
            ));
        }
        let words_per_row = bits.div_ceil(WORD_BITS);
        let total = rows
            .checked_mul(words_per_row)
            .ok_or_else(|| serde::bin::BinError::Invalid("packed tile size overflow".into()))?;
        let mut slab = Vec::with_capacity(total.min(r.remaining() / 8));
        for _ in 0..total {
            slab.push(r.get_u64()?);
        }
        // Re-assert the trailing-zero invariant every builder upholds:
        // the Hamming microkernel skips tail masking because of it.
        let mask = crate::bitvec::tail_garbage_mask(bits);
        if mask != 0 {
            for row in 0..rows {
                if slab[row * words_per_row + words_per_row - 1] & mask != 0 {
                    return Err(serde::bin::BinError::Invalid(format!(
                        "packed tile row {row} has non-zero bits past width {bits}"
                    )));
                }
            }
        }
        Ok(PackedHashes {
            bits,
            words_per_row,
            rows,
            slab,
        })
    }
}

/// XOR + popcount over two equal-length word slices — the one Hamming
/// kernel of [`PackedHashes`]' row searches, and the oracle
/// [`PackedHashes::hamming_tile_into`] is tested against.
///
/// `u64::count_ones` compiles to the hardware `popcnt` instruction under
/// the workspace's `target-cpu=native`, and LLVM vectorizes the `u64`
/// sum (`vpopcntq` on AVX-512 hosts), so the loop needs no unrolling by
/// hand. Shared with any caller that already holds packed words (e.g.
/// scratch query buffers built by
/// [`pack_signs_into`](crate::bitvec::pack_signs_into)). The length
/// contract is checked **once here, outside the word loop** — a
/// `debug_assert!` would silently truncate to the shorter slice in
/// release builds, reporting a plausible-but-wrong distance.
///
/// # Panics
///
/// Panics when `a` and `b` differ in length.
#[inline]
pub fn hamming_words(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(
        a.len(),
        b.len(),
        "hamming_words requires equal-length slices"
    );
    // Summed in `u64`, the lane width LLVM vectorizes best; the total
    // fits `u32` for any row shorter than 2^26 words.
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum::<u64>() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patterned(bits: usize, step: usize) -> BitVec {
        let bools: Vec<bool> = (0..bits).map(|i| i % step == 0).collect();
        BitVec::from_bools(&bools)
    }

    #[test]
    fn layout_is_row_major_with_fixed_stride() {
        let rows = vec![patterned(100, 3), patterned(100, 5), patterned(100, 7)];
        let tile = PackedHashes::from_bitvecs(100, &rows).unwrap();
        assert_eq!(tile.rows(), 3);
        assert_eq!(tile.bits(), 100);
        assert_eq!(tile.words_per_row(), 2);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(tile.row_words(i), row.words());
            assert_eq!(tile.row_bitvec(i), *row);
        }
    }

    #[test]
    fn hamming_into_matches_bitvec_reference() {
        for bits in [1usize, 63, 64, 65, 100, 256, 300, 512, 1024] {
            let rows: Vec<BitVec> = (2..9).map(|s| patterned(bits, s)).collect();
            let tile = PackedHashes::from_bitvecs(bits, &rows).unwrap();
            let query = patterned(bits, 4);
            let mut dists = vec![0u32; tile.rows()];
            tile.hamming_into(query.words(), &mut dists);
            for (row, &d) in rows.iter().zip(dists.iter()) {
                assert_eq!(d as usize, row.hamming(&query).unwrap(), "bits {bits}");
            }
        }
    }

    #[test]
    fn from_words_takes_whole_rows_with_zero_tails_only() {
        let rows = vec![patterned(70, 3), patterned(70, 5)];
        let mut slab: Vec<u64> = rows.iter().flat_map(|r| r.words().to_vec()).collect();
        let tile = PackedHashes::from_words(70, slab.clone()).unwrap();
        assert_eq!(tile, PackedHashes::from_bitvecs(70, &rows).unwrap());
        slab[3] |= 1 << 6;
        assert!(PackedHashes::from_words(70, slab).is_err());
        assert!(PackedHashes::from_words(70, vec![0; 3]).is_err());
        assert!(PackedHashes::from_words(0, Vec::new()).is_err());
    }

    #[test]
    fn push_rejects_width_mismatch() {
        let mut tile = PackedHashes::new(128);
        assert!(tile.push(&BitVec::zeros(127)).is_err());
        assert!(tile.push(&BitVec::zeros(128)).is_ok());
        assert_eq!(tile.rows(), 1);
    }

    #[test]
    fn set_row_overwrites_in_place() {
        let mut tile = PackedHashes::zeroed(70, 4);
        assert_eq!(tile.rows(), 4);
        let word = patterned(70, 2);
        tile.set_row(2, &word).unwrap();
        assert_eq!(tile.row_bitvec(2), word);
        assert_eq!(tile.row_bitvec(1), BitVec::zeros(70));
        assert!(tile.set_row(4, &word).is_err());
        assert!(tile.set_row(0, &BitVec::zeros(71)).is_err());
    }

    #[test]
    fn scratch_query_needs_no_tail_mask() {
        // A query packed by pack_signs_into compares equal to the BitVec
        // path even at non-word-multiple widths, because both uphold the
        // trailing-zero invariant.
        let bits = 70usize;
        let vals: Vec<f32> = (0..bits).map(|i| (i as f32) - 35.5).collect();
        let mut scratch = vec![u64::MAX; bits.div_ceil(64)];
        crate::bitvec::pack_signs_into(&vals, &mut scratch);
        let rows = vec![patterned(bits, 3), patterned(bits, 2)];
        let tile = PackedHashes::from_bitvecs(bits, &rows).unwrap();
        let mut dists = vec![0u32; 2];
        tile.hamming_into(&scratch, &mut dists);
        let query = BitVec::from_signs(&vals);
        for (row, &d) in rows.iter().zip(dists.iter()) {
            assert_eq!(d as usize, row.hamming(&query).unwrap());
        }
    }

    #[test]
    fn hamming_words_unrolled_equals_scalar() {
        for len in [0usize, 1, 3, 4, 5, 7, 8, 16, 17] {
            let a: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9))
                .collect();
            let b: Vec<u64> = (0..len as u64)
                .map(|i| i.wrapping_mul(0x85EB_CA6B))
                .collect();
            let scalar: u32 = a.iter().zip(&b).map(|(x, y)| (x ^ y).count_ones()).sum();
            assert_eq!(hamming_words(&a, &b), scalar, "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn hamming_words_rejects_length_mismatch() {
        // A release-build contract, not a debug_assert: truncating to the
        // shorter slice would report a plausible-but-wrong distance.
        hamming_words(&[0u64; 4], &[0u64; 3]);
    }

    #[test]
    fn hamming_row_matches_range_kernel() {
        let bits = 300;
        let rows: Vec<BitVec> = (2..9).map(|s| patterned(bits, s)).collect();
        let tile = PackedHashes::from_bitvecs(bits, &rows).unwrap();
        let query = patterned(bits, 4);
        let mut dists = vec![0u32; tile.rows()];
        tile.hamming_into(query.words(), &mut dists);
        for (row, &want) in dists.iter().enumerate() {
            assert_eq!(tile.hamming_row(row, query.words()), want, "row {row}");
        }
    }

    #[test]
    fn empty_tile() {
        let tile = PackedHashes::new(256);
        assert!(tile.is_empty());
        let mut out = vec![];
        tile.hamming_into(&[0u64; 4], &mut out);
    }
}
