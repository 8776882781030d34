//! Per-width scalar-vs-SIMD differential suite: every kernel variant the
//! host detects must be **bitwise equal** to the scalar oracle
//! (`hamming_words`, one `x >= 0.0` per value for the sign pack, and
//! one `|x| > scale · bound` more for the certify pack) on
//! every width — explicit boundary widths around the word, lane and
//! Harley–Seal group sizes, plus randomized property-based sweeps.
//!
//! These tests gate the SIMD wave: a variant that disagrees with scalar
//! on any input is a correctness bug, never a tolerance question —
//! popcounts are exact integers and a sign is one exact comparison.

use deepcam_hash::bitvec::{certify_signs_into, pack_signs_into};
use deepcam_hash::packed::hamming_words;
use deepcam_hash::simd::{
    active, detected, force_variant, hamming_pair_with, hamming_range_with, Variant,
};
use deepcam_hash::{BitVec, PackedHashes};
use proptest::prelude::*;

/// The boundary widths (in bits) the suite must cover: 1, the word edges
/// (63/64/65), the AVX2 lane and Harley–Seal group edges (255/256/257),
/// and the full four-chunk CAM width.
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

#[test]
fn every_detected_variant_matches_scalar_on_boundary_widths() {
    for &bits in &BOUNDARY_BITS {
        let rows: Vec<BitVec> = (0..17).map(|r| patterned_bitvec(bits, r as u64)).collect();
        let tile = PackedHashes::from_bitvecs(bits, &rows).expect("equal widths");
        let query = patterned_bitvec(bits, 777);
        let wpr = tile.words_per_row();
        let slab: Vec<u64> = (0..tile.rows())
            .flat_map(|r| tile.row_words(r).iter().copied())
            .collect();

        // Scalar oracle, three independent routes that must agree: the
        // BitVec reference, hamming_words, and the scalar range kernel.
        let mut want = vec![0u32; tile.rows()];
        hamming_range_with(Variant::Scalar, &slab, wpr, query.words(), &mut want);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(
                want[r] as usize,
                row.hamming(&query).unwrap(),
                "bits {bits} row {r}"
            );
            assert_eq!(want[r], hamming_words(tile.row_words(r), query.words()));
        }

        for &v in detected() {
            let mut got = vec![0u32; tile.rows()];
            hamming_range_with(v, &slab, wpr, query.words(), &mut got);
            assert_eq!(got, want, "bits {bits} variant {}", v.name());
            for (r, &w) in want.iter().enumerate() {
                assert_eq!(
                    hamming_pair_with(v, tile.row_words(r), query.words()),
                    w,
                    "bits {bits} variant {} row {r}",
                    v.name()
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_rows_match_scalar_on_every_variant(
        bits in 1usize..700,
        rows in 1usize..12,
        seed in 0u64..10_000,
    ) {
        let words: Vec<BitVec> = (0..rows)
            .map(|r| patterned_bitvec(bits, seed.wrapping_add(r as u64)))
            .collect();
        let tile = PackedHashes::from_bitvecs(bits, &words).unwrap();
        let query = patterned_bitvec(bits, seed ^ 0xABCD);
        let mut want = vec![0u32; rows];
        tile.hamming_into(query.words(), &mut want);
        // The dispatched pass must agree with the BitVec reference…
        for (row, w) in words.iter().enumerate() {
            prop_assert_eq!(want[row] as usize, w.hamming(&query).unwrap());
        }
        // …and every detected variant must agree bitwise with scalar.
        for &v in detected() {
            for (row, w) in words.iter().enumerate() {
                let got = hamming_pair_with(v, tile.row_words(row), query.words());
                prop_assert_eq!(got, want[row], "variant {} row {} ({:?})", v.name(), row, w.len());
            }
        }
    }
}

#[test]
fn forced_variants_drive_the_public_kernel() {
    // force_variant repoints the dispatched entry points themselves; the
    // results must be identical for every detected variant (flipping the
    // active variant mid-run is benign by the bit-exactness contract).
    let bits = 511;
    let rows: Vec<BitVec> = (0..9)
        .map(|r| patterned_bitvec(bits, 40 + r as u64))
        .collect();
    let tile = PackedHashes::from_bitvecs(bits, &rows).unwrap();
    let query = patterned_bitvec(bits, 99);
    let mut want = vec![0u32; rows.len()];
    let initial = force_variant(Variant::Scalar).expect("scalar always detected");
    tile.hamming_into(query.words(), &mut want);
    for &v in detected() {
        force_variant(v).expect("detected variant");
        let mut got = vec![0u32; rows.len()];
        tile.hamming_into(query.words(), &mut got);
        assert_eq!(got, want, "variant {}", v.name());
        for (row, &w) in want.iter().enumerate() {
            assert_eq!(tile.hamming_row(row, query.words()), w);
        }
    }
    let _ = force_variant(initial);
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

/// Packs `values` on every detected variant (each pinned in turn, into a
/// buffer pre-filled with ones so every word must be written) and checks
/// each against the bitwise oracle.
fn check_pack_on_every_variant(values: &[f32], what: &str) {
    let want = signs_bitwise(values);
    for &v in detected() {
        force_variant(v).expect("detected variant");
        let mut got = vec![!0u64; want.len()];
        pack_signs_into(values, &mut got);
        assert_eq!(got, want, "{what} variant {}", v.name());
    }
}

#[test]
fn every_detected_variant_packs_signs_like_the_comparison() {
    let initial = active();
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
        check_pack_on_every_variant(&values, &format!("bits {bits}"));
    }
    // Every special value in every lane of a full word and of a tail,
    // among neighbours that pack the opposite bit.
    for &special in &SIGN_SPECIALS {
        let x = f32::from_bits(special);
        for len in [64usize, 65] {
            for lane in 0..len {
                let mut values = vec![if x >= 0.0 { -1.0f32 } else { 1.0 }; len];
                values[lane] = x;
                check_pack_on_every_variant(&values, &format!("{special:#010x} at {lane}/{len}"));
            }
        }
    }
    let _ = force_variant(initial);
}

/// The certify-pack oracle: per value, the sign bit `x >= 0.0` and the
/// uncertain bit `!(|x| > scale · bound)`, set bit by bit.
fn certify_bitwise(values: &[f32], bounds: &[f32], scale: f32) -> (Vec<u64>, Vec<u64>) {
    let words = values.len().div_ceil(64);
    let (mut signs, mut uncertain) = (vec![0u64; words], vec![0u64; words]);
    for (i, (&x, &c)) in values.iter().zip(bounds).enumerate() {
        signs[i / 64] |= u64::from(x >= 0.0) << (i % 64);
        let sure = x.abs() > scale * c;
        uncertain[i / 64] |= u64::from(!sure) << (i % 64);
    }
    (signs, uncertain)
}

#[test]
fn every_detected_variant_certifies_signs_like_the_comparison() {
    let initial = active();
    // Values near the bound on both sides, every special among them;
    // bounds that are ordinary, zero, subnormal, infinite or NaN; and
    // scales that make the products ordinary, overflow or vanish.
    let bound_specials = [0.0f32, 1e-40, f32::INFINITY, f32::NAN, f32::MAX];
    for &bits in &BOUNDARY_BITS {
        let values: Vec<f32> = (0..bits as u64)
            .map(|i| {
                let w = mixed_word(bits as u64 + 17, i);
                match w % 4 {
                    0 => f32::from_bits(SIGN_SPECIALS[(w >> 8) as usize % SIGN_SPECIALS.len()]),
                    1 => f32::from_bits(w as u32),
                    // Within a few ulps of the ±1e-3 bound below.
                    _ => {
                        f32::from_bits(1e-3f32.to_bits() - 4 + (w >> 8) as u32 % 9)
                            * if w & 0x100_0000 == 0 { 1.0 } else { -1.0 }
                    }
                }
            })
            .collect();
        let bounds: Vec<f32> = (0..bits as u64)
            .map(|i| {
                let w = mixed_word(bits as u64 + 99, i);
                if w.is_multiple_of(5) {
                    bound_specials[(w >> 8) as usize % bound_specials.len()]
                } else {
                    2.0
                }
            })
            .collect();
        for scale in [5e-4f32, 0.0, 1e-30, 1e30, f32::INFINITY] {
            let (want_signs, want_uncertain) = certify_bitwise(&values, &bounds, scale);
            let flagged: usize = want_uncertain.iter().map(|w| w.count_ones() as usize).sum();
            for &v in detected() {
                force_variant(v).expect("detected variant");
                // Pre-filled with ones so every word must be written.
                let mut signs = vec![!0u64; want_signs.len()];
                let mut uncertain = vec![!0u64; want_signs.len()];
                let got = certify_signs_into(&values, &bounds, scale, &mut signs, &mut uncertain);
                let what = format!("bits {bits} scale {scale} variant {}", v.name());
                assert_eq!(signs, want_signs, "signs: {what}");
                assert_eq!(uncertain, want_uncertain, "uncertain: {what}");
                assert_eq!(got, flagged, "flagged count: {what}");
            }
        }
    }
    let _ = force_variant(initial);
}

/// The Hamming tile's geometry sweep: query counts around one and a full
/// 64-query run, kernel counts around the 8-row and 64-row edges, and
/// the hash widths of the paper's plans plus odd word counts.
const TILE_QUERY_COUNTS: [usize; 9] = [1, 2, 3, 4, 5, 6, 7, 63, 64];
const TILE_KERNEL_COUNTS: [usize; 7] = [1, 7, 8, 9, 63, 64, 65];
const TILE_BITS: [usize; 7] = [64, 192, 256, 448, 512, 768, 1024];

#[test]
fn every_detected_variant_runs_the_hamming_tile_like_hamming_words() {
    let initial = active();
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
                for &v in detected() {
                    force_variant(v).expect("detected variant");
                    // Pre-filled so every slot must be written.
                    let mut got = vec![u32::MAX; kernels * nq];
                    tile.hamming_tile_into(&word_major, nq, &mut got);
                    for (r, row) in rows.iter().enumerate() {
                        for (q, query) in queries.iter().enumerate() {
                            assert_eq!(
                                got[r * nq + q],
                                hamming_words(row.words(), query.words()),
                                "bits {bits} kernels {kernels} queries {nq} variant {} \
                                 (kernel {r}, query {q})",
                                v.name()
                            );
                        }
                    }
                }
            }
        }
    }
    let _ = force_variant(initial);
}

#[test]
fn hamming_words_length_contract_is_checked_in_release() {
    let caught = std::panic::catch_unwind(|| hamming_words(&[0u64; 3], &[0u64; 4]));
    assert!(
        caught.is_err(),
        "mismatched lengths must panic, not truncate"
    );
}
