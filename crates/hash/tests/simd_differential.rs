//! Differential suite for the packed Hamming kernels and the sign pack:
//! every search entry of `PackedHashes` (`hamming_into`, `hamming_row`,
//! the blocked `hamming_tile_into`)
//! and `hamming_words` must equal the bit-by-bit `BitVec::hamming`
//! oracle, and the sign pack one `x >= 0.0` per value, on every width —
//! explicit boundary widths around the word and the 256-bit chunk, plus
//! randomized property-based sweeps.
//!
//! The kernels are portable loops that LLVM vectorizes under the
//! workspace's `target-cpu=native`, so this is where the vectorized code
//! meets the scalar definition. A disagreement on any input is a
//! correctness bug, never a tolerance question — popcounts are exact
//! integers and a sign is one exact comparison.

use deepcam_hash::bitvec::pack_signs_into;
use deepcam_hash::packed::hamming_words;
use deepcam_hash::{BitVec, PackedHashes};
use proptest::prelude::*;

/// The boundary widths (in bits) the suite must cover: 1, the word edges
/// (63/64/65), the edges of the kernel's 4-word (256-bit chunk) unroll
/// (255/256/257), and the full four-chunk CAM width.
const BOUNDARY_BITS: [usize; 9] = [1, 63, 64, 65, 255, 256, 257, 512, 1024];

/// Deterministic splittable word pattern (no RNG needed for the
/// fixed-width sweeps).
fn mixed_word(seed: u64, i: u64) -> u64 {
    (seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15)).rotate_left((i % 63) as u32)
}

fn patterned_bitvec(bits: usize, seed: u64) -> BitVec {
    let bools: Vec<bool> = (0..bits)
        .map(|i| mixed_word(seed, (i / 64) as u64) >> (i % 64) & 1 == 1)
        .collect();
    BitVec::from_bools(&bools)
}

/// Runs every row-search entry of `tile` against `query` and checks each
/// distance against `BitVec::hamming`. `what` labels a failure.
fn check_searches(rows: &[BitVec], query: &BitVec, what: &str) {
    let bits = query.len();
    let tile = PackedHashes::from_bitvecs(bits, rows).expect("equal widths");
    let want: Vec<u32> = rows
        .iter()
        .map(|row| row.hamming(query).expect("equal widths") as u32)
        .collect();
    // Pre-filled so every slot must be written.
    let mut full = vec![u32::MAX; rows.len()];
    tile.hamming_into(query.words(), &mut full);
    assert_eq!(full, want, "{what}: hamming_into");
    for (r, &w) in want.iter().enumerate() {
        assert_eq!(
            tile.hamming_row(r, query.words()),
            w,
            "{what}: hamming_row {r}"
        );
        assert_eq!(
            hamming_words(tile.row_words(r), query.words()),
            w,
            "{what}: hamming_words {r}"
        );
    }
}

#[test]
fn boundary_widths_match_bitvec() {
    for &bits in &BOUNDARY_BITS {
        let rows: Vec<BitVec> = (0..17).map(|r| patterned_bitvec(bits, r as u64)).collect();
        let query = patterned_bitvec(bits, 777);
        check_searches(&rows, &query, &format!("bits {bits}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_rows_match_bitvec(
        bits in 1usize..700,
        rows in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let words: Vec<BitVec> = (0..rows)
            .map(|r| patterned_bitvec(bits, seed.wrapping_add(r as u64)))
            .collect();
        let query = patterned_bitvec(bits, seed ^ 0xABCD);
        check_searches(&words, &query, &format!("bits {bits} rows {rows} seed {seed}"));
    }
}

#[test]
fn zero_width_rows_have_zero_distance() {
    // A tile of zero-width rows holds no words; every distance is zero
    // by definition, and no entry may divide the slab by its stride.
    let tile = PackedHashes::zeroed(0, 3);
    let mut out = [7u32; 3];
    tile.hamming_into(&[], &mut out);
    assert_eq!(out, [0, 0, 0]);
    for row in 0..3 {
        assert_eq!(tile.hamming_row(row, &[]), 0, "row {row}");
    }
}

/// Bit patterns whose sign the pack must get exactly right: ±0.0, quiet
/// and signalling NaN payloads of both signs, ±inf, the smallest and
/// largest subnormals of both signs, and the smallest normals.
const SIGN_SPECIALS: [u32; 14] = [
    0x0000_0000,
    0x8000_0000,
    0x7fc0_0000,
    0xffc0_0000,
    0x7f80_0001,
    0xff80_0001,
    0x7fff_ffff,
    0x7f80_0000,
    0xff80_0000,
    0x0000_0001,
    0x8000_0001,
    0x007f_ffff,
    0x807f_ffff,
    0x8080_0000,
];

/// The sign-pack oracle: one `x >= 0.0` per value, set bit by bit.
fn signs_bitwise(values: &[f32]) -> Vec<u64> {
    let mut words = vec![0u64; values.len().div_ceil(64)];
    for (i, &x) in values.iter().enumerate() {
        words[i / 64] |= u64::from(x >= 0.0) << (i % 64);
    }
    words
}

/// Packs `values` (into a buffer pre-filled with ones, so every word
/// must be written) and checks it against the bitwise oracle. The pack
/// is the one portable kernel on every variant, so it runs once.
fn check_pack(values: &[f32], what: &str) {
    let want = signs_bitwise(values);
    let mut got = vec![!0u64; want.len()];
    pack_signs_into(values, &mut got);
    assert_eq!(got, want, "{what}");
}

#[test]
fn every_detected_variant_packs_signs_like_the_comparison() {
    // Boundary widths: arbitrary bit patterns (NaNs and subnormals
    // included) with a special value in about every third slot.
    for &bits in &BOUNDARY_BITS {
        let values: Vec<f32> = (0..bits as u64)
            .map(|i| {
                let w = mixed_word(bits as u64, i);
                if w.is_multiple_of(3) {
                    f32::from_bits(SIGN_SPECIALS[(w >> 8) as usize % SIGN_SPECIALS.len()])
                } else {
                    f32::from_bits(w as u32)
                }
            })
            .collect();
        check_pack(&values, &format!("bits {bits}"));
    }
    // Every special value in every lane of a full word and of a tail,
    // among neighbours that pack the opposite bit.
    for &special in &SIGN_SPECIALS {
        let x = f32::from_bits(special);
        for len in [64usize, 65] {
            for lane in 0..len {
                let mut values = vec![if x >= 0.0 { -1.0f32 } else { 1.0 }; len];
                values[lane] = x;
                check_pack(&values, &format!("{special:#010x} at {lane}/{len}"));
            }
        }
    }
}

/// The Hamming tile's geometry sweep: query counts around one and a full
/// 64-query run, kernel counts around the 8-row and 64-row edges, and
/// the hash widths of the paper's plans plus odd word counts.
const TILE_QUERY_COUNTS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 63, 64];
const TILE_KERNEL_COUNTS: [usize; 7] = [1, 7, 8, 9, 63, 64, 65];
const TILE_BITS: [usize; 7] = [64, 192, 256, 448, 512, 768, 1024];

#[test]
fn hamming_tile_matches_hamming_words() {
    for &bits in &TILE_BITS {
        for &kernels in &TILE_KERNEL_COUNTS {
            let rows: Vec<BitVec> = (0..kernels)
                .map(|r| patterned_bitvec(bits, 1000 + r as u64))
                .collect();
            let tile = PackedHashes::from_bitvecs(bits, &rows).expect("equal widths");
            let wpr = tile.words_per_row();
            for &nq in &TILE_QUERY_COUNTS {
                let queries: Vec<BitVec> = (0..nq)
                    .map(|q| patterned_bitvec(bits, 5000 + q as u64))
                    .collect();
                // Word-major: word `w` of query `q` at `w * nq + q`.
                let mut word_major = vec![0u64; wpr * nq];
                for (q, query) in queries.iter().enumerate() {
                    for (w, &word) in query.words().iter().enumerate() {
                        word_major[w * nq + q] = word;
                    }
                }
                // Pre-filled so every slot must be written.
                let mut got = vec![u32::MAX; kernels * nq];
                tile.hamming_tile_into(&word_major, nq, &mut got);
                for (r, row) in rows.iter().enumerate() {
                    for (q, query) in queries.iter().enumerate() {
                        let want = hamming_words(row.words(), query.words());
                        assert_eq!(
                            want as usize,
                            row.hamming(query).expect("equal widths"),
                            "bits {bits} (kernel {r}, query {q})"
                        );
                        assert_eq!(
                            got[r * nq + q],
                            want,
                            "bits {bits} kernels {kernels} queries {nq} (kernel {r}, query {q})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn hamming_words_length_contract_is_checked_in_release() {
    let caught = std::panic::catch_unwind(|| hamming_words(&[0u64; 3], &[0u64; 4]));
    assert!(
        caught.is_err(),
        "mismatched lengths must panic, not truncate"
    );
}
