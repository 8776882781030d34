//! Packed bit vectors with fast Hamming distance.
//!
//! A [`BitVec`] is the software representation of one CAM word: the k-bit
//! hashed binary datum of a context. Hamming distance — the quantity the
//! FeFET CAM senses in O(1) on its match lines — is XOR + popcount here.

use crate::error::HashError;
use crate::Result;

const WORD_BITS: usize = 64;

/// Mask with the low `n` bits set (`n` saturates at 64).
///
/// **The** masked-tail primitive of the workspace: every place that
/// needs "the valid bits of a partially-filled word" — prefix Hamming,
/// prefix truncation, the packed-tile decode revalidation
/// ([`crate::PackedHashes`]), the CAM occupancy-range masking — derives
/// its mask from this one function, so a future width bug cannot
/// diverge between the scalar and SIMD paths. (The SIMD kernels
/// themselves need no tail mask at all: they rely on the trailing-zero
/// invariant every builder here upholds.)
#[inline]
pub const fn low_mask(n: usize) -> u64 {
    if n >= WORD_BITS {
        !0u64
    } else {
        (1u64 << n) - 1
    }
}

/// Mask of the *invalid* trailing bits of the last word of a
/// `bits`-wide row: zero when the width fills its words exactly. The
/// complement view of [`low_mask`] used to **check** the trailing-zero
/// invariant (`word & tail_garbage_mask(bits) == 0`).
#[inline]
pub const fn tail_garbage_mask(bits: usize) -> u64 {
    let rem = bits % WORD_BITS;
    if rem == 0 {
        0
    } else {
        !low_mask(rem)
    }
}

/// A fixed-length packed bit vector.
///
/// # Example
///
/// ```
/// use deepcam_hash::BitVec;
///
/// let a = BitVec::from_bools(&[true, false, true, true]);
/// let b = BitVec::from_bools(&[true, true, true, false]);
/// assert_eq!(a.hamming(&b)?, 2);
/// # Ok::<(), deepcam_hash::HashError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

impl BitVec {
    /// Creates an all-zero bit vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Builds a bit vector from booleans.
    ///
    /// Whole 64-bit words are assembled at a time — no per-bit bounds
    /// checks — because this sits on the context-generation path for
    /// every stored hash. A proptest pins word-wise packing against the
    /// per-bit [`BitVec::set`] reference.
    pub fn from_bools(bits: &[bool]) -> Self {
        Self::pack_words(bits, |chunk| {
            let mut word = 0u64;
            for (b, &bit) in chunk.iter().enumerate() {
                word |= u64::from(bit) << b;
            }
            word
        })
    }

    /// Builds a bit vector from the signs of `values`: bit `i` is 1 when
    /// `values[i] >= 0`.
    ///
    /// This is the `sign(·)` step of the paper's `hash(x) = sign(xC)`;
    /// zero maps to 1, the convention used throughout the reproduction.
    /// Like [`BitVec::from_bools`], it packs whole words at a time.
    pub fn from_signs(values: &[f32]) -> Self {
        Self::pack_words(values, sign_word)
    }

    /// Builds a bit vector by mapping each ≤64-element input chunk to one
    /// packed word (low bits first; the final chunk may be short and its
    /// word must leave the unused high bits zero — every builder upholds
    /// the trailing-zero invariant [`PackedHashes`](crate::PackedHashes)
    /// and `hamming` rely on).
    fn pack_words<T>(items: &[T], word_of: impl Fn(&[T]) -> u64) -> Self {
        let words = items.chunks(WORD_BITS).map(word_of).collect();
        BitVec {
            len: items.len(),
            words,
        }
    }

    /// Length in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector has zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let (w, b) = (i / WORD_BITS, i % WORD_BITS);
        if value {
            self.words[w] |= 1 << b;
        } else {
            self.words[w] &= !(1 << b);
        }
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The underlying 64-bit words (low bits first; trailing bits of the
    /// last word are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Hamming distance between two equal-length vectors.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::LengthMismatch`] when the lengths differ.
    pub fn hamming(&self, other: &BitVec) -> Result<usize> {
        if self.len != other.len {
            return Err(HashError::LengthMismatch {
                lhs: self.len,
                rhs: other.len,
            });
        }
        Ok(self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum())
    }

    /// Hamming distance over only the first `k` bits of both vectors.
    ///
    /// Supports the *variable hash length* strategy: a context hashed once
    /// at the maximum width can be compared at any shorter width by
    /// truncation, exactly like disabling CAM chunks via transmission
    /// gates.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::InvalidHashLength`] if `k` exceeds either
    /// vector.
    pub fn hamming_prefix(&self, other: &BitVec, k: usize) -> Result<usize> {
        if k > self.len || k > other.len {
            return Err(HashError::InvalidHashLength {
                requested: k,
                max: self.len.min(other.len),
            });
        }
        let full_words = k / WORD_BITS;
        let mut dist: usize = self
            .words
            .iter()
            .zip(other.words.iter())
            .take(full_words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        let rem = k % WORD_BITS;
        if rem > 0 {
            let mask = low_mask(rem);
            dist +=
                ((self.words[full_words] ^ other.words[full_words]) & mask).count_ones() as usize;
        }
        Ok(dist)
    }

    /// Returns a new vector holding the first `k` bits.
    ///
    /// # Errors
    ///
    /// Returns [`HashError::InvalidHashLength`] if `k > len`.
    pub fn prefix(&self, k: usize) -> Result<BitVec> {
        if k > self.len {
            return Err(HashError::InvalidHashLength {
                requested: k,
                max: self.len,
            });
        }
        let mut out = BitVec::zeros(k);
        let full_words = k / WORD_BITS;
        out.words[..full_words].copy_from_slice(&self.words[..full_words]);
        let rem = k % WORD_BITS;
        if rem > 0 {
            out.words[full_words] = self.words[full_words] & low_mask(rem);
        }
        Ok(out)
    }

    /// Iterates over the bits as booleans.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Flips bit `i` in place (used by fault-injection tests).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) {
        let cur = self.get(i);
        self.set(i, !cur);
    }
}

/// Packs one ≤64-element chunk of floats into a sign word (bit `b` set
/// when `chunk[b] >= 0.0`, matching [`BitVec::from_signs`]).
///
/// Full 64-element chunks take a two-stage path built for the
/// vectorizer: the comparisons are materialized as 0/1 bytes (a SIMD
/// compare), then each 8-byte group is collapsed to 8 bits with one
/// multiply — `M = 0x0102_0408_1020_4080` places byte `j`'s LSB at bit
/// `56 + j`, and since `8j − 7i = c` has at most one solution per `c`
/// over `0..8`², every product bit position receives at most one
/// contribution, so no carries can corrupt the top byte. The serial
/// shift-or loop (kept for tails) has a 64-deep OR dependency chain;
/// this path replaces it with ~5 ops per 8 elements.
pub(crate) fn sign_word(chunk: &[f32]) -> u64 {
    if let Ok(chunk) = <&[f32; 64]>::try_from(chunk) {
        let mut bytes = [0u8; 64];
        for (d, &x) in bytes.iter_mut().zip(chunk) {
            *d = u8::from(x >= 0.0);
        }
        return collapse_bytes(&bytes);
    }
    let mut word = 0u64;
    for (b, &x) in chunk.iter().enumerate() {
        word |= u64::from(x >= 0.0) << b;
    }
    word
}

/// Collapses 64 0/1 bytes into a word (bit `b` = `bytes[b]`), one
/// multiply per 8-byte group: the second stage of [`sign_word`]'s full
/// path.
fn collapse_bytes(bytes: &[u8; 64]) -> u64 {
    const MAGIC: u64 = 0x0102_0408_1020_4080;
    let mut word = 0u64;
    for (g, group) in bytes.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(group.try_into().expect("8-byte group"));
        word |= (lanes.wrapping_mul(MAGIC) >> 56) << (8 * g);
    }
    word
}

/// Packs the signs of `values` directly into a caller-provided word
/// buffer — the allocation-free twin of [`BitVec::from_signs`], for
/// building query hashes in reusable scratch (the engine's own hot loop
/// packs in its projection tiles' epilogue).
///
/// `out` must hold exactly `values.len().div_ceil(64)` words; unused high
/// bits of the final word are written zero, so the buffer satisfies the
/// same trailing-zero invariant as a [`BitVec`] and can be compared
/// against packed storage without tail masking.
///
/// Bit set exactly when `x >= 0.0`, so NaN packs 0 and `-0.0` packs 1.
///
/// # Panics
///
/// Panics when `out` has the wrong length.
// analyze: alloc-free
pub fn pack_signs_into(values: &[f32], out: &mut [u64]) {
    assert_eq!(
        out.len(),
        values.len().div_ceil(WORD_BITS),
        "sign word buffer must match the value count"
    );
    for (w, chunk) in out.iter_mut().zip(values.chunks(WORD_BITS)) {
        *w = sign_word(chunk);
    }
}

/// Packs the signs of `values` into `signs` exactly as
/// [`pack_signs_into`] does, and flags in `uncertain` every lane whose
/// sign the caller's error bound does not prove: bit `j` is clear
/// exactly when `values[j].abs() > scale * bounds[j]`, the product
/// rounded to `f32`. The compare is ordered, so a NaN value, a NaN bound
/// and an infinite value against an infinite bound all flag — the check
/// fails closed. Returns the number of flagged lanes.
///
/// Both word buffers follow [`pack_signs_into`]'s length contract and
/// trailing-zero invariant. This is the portable oracle of the certified
/// sign pack: the engine packs the same words in its projection tiles'
/// epilogue (`deepcam_tensor::ops::project::Signs`), which is tested
/// against it.
///
/// # Panics
///
/// Panics when `bounds` is not as long as `values`, or a word buffer has
/// the wrong length.
// analyze: alloc-free
pub fn certify_signs_into(
    values: &[f32],
    bounds: &[f32],
    scale: f32,
    signs: &mut [u64],
    uncertain: &mut [u64],
) -> usize {
    assert_eq!(bounds.len(), values.len(), "one bound per value");
    let words = values.len().div_ceil(WORD_BITS);
    assert_eq!(
        signs.len(),
        words,
        "sign word buffer must match the value count"
    );
    assert_eq!(
        uncertain.len(),
        words,
        "uncertain word buffer must match the value count"
    );
    certify_sign_words(values, bounds, scale, signs, uncertain);
    uncertain.iter().map(|w| w.count_ones() as usize).sum()
}

/// The word loop of [`certify_signs_into`]: one bit per value, set by
/// the plain comparisons, so the oracle shares no packing trick with the
/// kernels it checks.
// analyze: alloc-free
fn certify_sign_words(
    values: &[f32],
    bounds: &[f32],
    scale: f32,
    signs: &mut [u64],
    uncertain: &mut [u64],
) {
    signs.fill(0);
    uncertain.fill(0);
    for (i, (&x, &c)) in values.iter().zip(bounds).enumerate() {
        let sure = x.abs() > scale * c;
        signs[i / WORD_BITS] |= u64::from(x >= 0.0) << (i % WORD_BITS);
        uncertain[i / WORD_BITS] |= u64::from(!sure) << (i % WORD_BITS);
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_len() {
        let v = BitVec::zeros(100);
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 0);
        assert!(!v.is_empty());
        assert!(BitVec::zeros(0).is_empty());
    }

    #[test]
    fn set_get_round_trip() {
        let mut v = BitVec::zeros(130);
        v.set(0, true);
        v.set(64, true);
        v.set(129, true);
        assert!(v.get(0) && v.get(64) && v.get(129));
        assert!(!v.get(1) && !v.get(63) && !v.get(128));
        assert_eq!(v.count_ones(), 3);
        v.set(64, false);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn from_signs_convention() {
        let v = BitVec::from_signs(&[1.0, -0.5, 0.0, -0.0]);
        // Zero (and negative zero, which is >= 0.0 in IEEE comparison)
        // maps to 1.
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(v.get(2));
        assert!(v.get(3));
    }

    #[test]
    fn hamming_basic() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.hamming(&b).unwrap(), 2);
        assert_eq!(a.hamming(&a).unwrap(), 0);
    }

    #[test]
    fn hamming_across_word_boundary() {
        let mut a = BitVec::zeros(200);
        let mut b = BitVec::zeros(200);
        for i in (0..200).step_by(7) {
            a.set(i, true);
        }
        for i in (0..200).step_by(13) {
            b.set(i, true);
        }
        // Reference via per-bit comparison.
        let expected = (0..200).filter(|&i| a.get(i) != b.get(i)).count();
        assert_eq!(a.hamming(&b).unwrap(), expected);
    }

    #[test]
    fn hamming_rejects_length_mismatch() {
        let a = BitVec::zeros(8);
        let b = BitVec::zeros(9);
        assert!(matches!(
            a.hamming(&b),
            Err(HashError::LengthMismatch { lhs: 8, rhs: 9 })
        ));
    }

    #[test]
    fn hamming_prefix_equals_truncated() {
        let mut a = BitVec::zeros(300);
        let mut b = BitVec::zeros(300);
        for i in (1..300).step_by(3) {
            a.set(i, true);
        }
        for i in (1..300).step_by(5) {
            b.set(i, true);
        }
        for &k in &[0usize, 1, 63, 64, 65, 128, 256, 300] {
            let fast = a.hamming_prefix(&b, k).unwrap();
            let slow = a.prefix(k).unwrap().hamming(&b.prefix(k).unwrap()).unwrap();
            assert_eq!(fast, slow, "k={k}");
        }
    }

    #[test]
    fn prefix_bounds_checked() {
        let a = BitVec::zeros(10);
        assert!(a.prefix(11).is_err());
        assert!(a.hamming_prefix(&a, 11).is_err());
    }

    #[test]
    fn flip_toggles() {
        let mut v = BitVec::zeros(4);
        v.flip(2);
        assert!(v.get(2));
        v.flip(2);
        assert!(!v.get(2));
    }

    #[test]
    fn from_iterator() {
        let v: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(v.count_ones(), 5);
    }

    /// Per-bit reference builder: what `from_bools` did before word-wise
    /// packing. The fast builders must agree with it exactly.
    fn from_bools_bitwise(bits: &[bool]) -> BitVec {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    #[test]
    fn wordwise_builders_match_bitwise_at_word_boundaries() {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 256] {
            let bools: Vec<bool> = (0..len).map(|i| (i * 7 + 3) % 5 < 2).collect();
            assert_eq!(
                BitVec::from_bools(&bools),
                from_bools_bitwise(&bools),
                "len {len}"
            );
            let vals: Vec<f32> = (0..len)
                .map(|i| (i as f32 - len as f32 / 2.0) * 0.3)
                .collect();
            let signs: Vec<bool> = vals.iter().map(|&x| x >= 0.0).collect();
            assert_eq!(
                BitVec::from_signs(&vals),
                from_bools_bitwise(&signs),
                "len {len}"
            );
        }
    }

    #[test]
    fn pack_signs_into_matches_from_signs() {
        for len in [1usize, 5, 64, 100, 192, 200] {
            let vals: Vec<f32> = (0..len).map(|i| ((i * 13) % 7) as f32 - 3.0).collect();
            let reference = BitVec::from_signs(&vals);
            let mut words = vec![0xFFFF_FFFF_FFFF_FFFFu64; len.div_ceil(WORD_BITS)];
            pack_signs_into(&vals, &mut words);
            assert_eq!(words.as_slice(), reference.words(), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "sign word buffer")]
    fn pack_signs_into_rejects_wrong_buffer() {
        let mut words = vec![0u64; 1];
        pack_signs_into(&[1.0; 65], &mut words);
    }

    #[test]
    fn mask_helpers_partition_the_word() {
        for bits in [0usize, 1, 5, 63, 64, 65, 127, 128, 200, 256] {
            let rem = bits % WORD_BITS;
            // low_mask of the remainder and the garbage mask partition
            // the 64-bit word exactly (garbage is empty at multiples).
            if rem == 0 {
                assert_eq!(tail_garbage_mask(bits), 0, "bits {bits}");
            } else {
                assert_eq!(
                    low_mask(rem) ^ tail_garbage_mask(bits),
                    !0u64,
                    "bits {bits}"
                );
                assert_eq!(low_mask(rem) & tail_garbage_mask(bits), 0, "bits {bits}");
                assert_eq!(low_mask(rem).count_ones() as usize, rem, "bits {bits}");
            }
        }
        // Saturation: 64 (and beyond) keeps every bit.
        assert_eq!(low_mask(64), !0u64);
        assert_eq!(low_mask(200), !0u64);
        assert_eq!(low_mask(0), 0);
    }

    #[test]
    fn builders_leave_trailing_bits_zero() {
        // The trailing-zero invariant is what lets hamming and the packed
        // microkernels skip tail masking.
        let v = BitVec::from_bools(&[true; 70]);
        assert_eq!(v.words()[1] >> 6, 0);
        let s = BitVec::from_signs(&[1.0f32; 70]);
        assert_eq!(s.words()[1] >> 6, 0);
    }
}
