//! One hasher for weights and activations: `CompiledTile::compile` hashes
//! every kernel through the certified panel tile the engine hashes
//! activations with, and its tile must be the one the scalar oracle,
//! `ContextGenerator::weight_contexts` in `deepcam-hash`, builds: the
//! same sign words, norm bits and encoded bytes. Run on every detected
//! kernel variant; CI also runs it on a baseline x86-64 build.

use std::sync::{Mutex, MutexGuard};

use deepcam_core::simd::{active, detected, force_variant};
use deepcam_core::{CompiledModel, CompiledTile, EngineConfig, HashPlan};
use deepcam_hash::bitvec::tail_garbage_mask;
use deepcam_hash::{BitVec, ContextGenerator, PackedHashes, ProjectionMatrix};
use deepcam_models::scaled::{scaled_lenet5, scaled_resnet18, scaled_vgg11};
use deepcam_models::{Block, Cnn, ResBlock};
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{Shape, Tensor};
use serde::bin::{BinCodec, Writer};

/// Held while a test pins a kernel variant: the pin is process-wide.
static PINNED: Mutex<()> = Mutex::new(());

fn pin() -> MutexGuard<'static, ()> {
    PINNED.lock().unwrap_or_else(|e| e.into_inner())
}

/// The tile `weight_contexts` builds for `weight` under `tile`'s name,
/// index, width and seed.
fn oracle(tile: &CompiledTile, weight: &Tensor) -> CompiledTile {
    let set = ContextGenerator::new(tile.n, tile.k, tile.seed)
        .unwrap()
        .weight_contexts(weight)
        .unwrap();
    let rows: Vec<BitVec> = set.iter().map(|c| c.bits.clone()).collect();
    CompiledTile {
        layer_idx: tile.layer_idx,
        name: tile.name.clone(),
        n: set.source_dim,
        k: set.hash_len,
        seed: tile.seed,
        packed: PackedHashes::from_bitvecs(set.hash_len, &rows).unwrap(),
        norms: set.iter().map(|c| c.norm).collect(),
    }
}

fn encoded(tile: &CompiledTile) -> Vec<u8> {
    let mut w = Writer::new();
    tile.encode(&mut w);
    w.into_bytes()
}

fn assert_matches_oracle(tile: &CompiledTile, weight: &Tensor, what: &str) {
    let want = oracle(tile, weight);
    assert_eq!(tile.kernels(), want.kernels(), "{what}: kernels");
    let tail = tail_garbage_mask(tile.k);
    for row in 0..want.kernels() {
        let words = tile.packed.row_words(row);
        assert_eq!(words, want.packed.row_words(row), "{what}: kernel {row}");
        assert_eq!(words.last().unwrap() & tail, 0, "{what}: kernel {row} tail");
    }
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&tile.norms), bits(&want.norms), "{what}: norms");
    assert_eq!(encoded(tile), encoded(&want), "{what}: encoded bytes");
}

/// The dot layers' weights in traversal order (residual bodies before
/// their shortcuts), as compile numbers them.
fn dot_weights(model: &Cnn) -> Vec<&Tensor> {
    fn walk<'m>(blocks: &'m [Block], out: &mut Vec<&'m Tensor>) {
        for block in blocks {
            match block {
                Block::Conv(c) => out.push(&c.weight.value),
                Block::Linear(l) => out.push(&l.weight.value),
                Block::Residual(ResBlock { body, shortcut, .. }) => {
                    walk(body, out);
                    walk(shortcut.as_deref().unwrap_or(&[]), out);
                }
                _ => {}
            }
        }
    }
    let mut out = Vec::new();
    walk(&model.blocks, &mut out);
    out
}

#[test]
fn compiled_tiles_of_every_zoo_layer_match_the_scalar_oracle() {
    let models = [
        scaled_lenet5(&mut seeded_rng(1), 10),
        scaled_vgg11(&mut seeded_rng(2), 8, 10),
        scaled_resnet18(&mut seeded_rng(3), 4, 10),
    ];
    for model in &models {
        let weights = dot_weights(model);
        for k in [256, 512, 768, 1024] {
            let cfg = EngineConfig {
                plan: HashPlan::Uniform(k),
                ..EngineConfig::default()
            };
            let compiled = CompiledModel::compile(model, cfg).unwrap();
            let tiles = compiled.tiles();
            assert_eq!(tiles.len(), weights.len(), "{}", model.name);
            for (tile, weight) in tiles.into_iter().zip(&weights) {
                let what = format!("{} {} k {k}", model.name, tile.name);
                assert_matches_oracle(tile, weight, &what);
            }
        }
    }
}

/// Kernels of width `n`, hashed to `k` bits through the projection of
/// `seed`, whose rows take the certificate's every exit: all-zero and
/// `±0.0` rows, one NaN, one `±∞`, subnormals, norms near `1e-30` and
/// `1e30` (outside `[2⁻⁴⁰, 2⁴⁰]`, so every lane is recomputed exactly),
/// and, when `n > 1`, a row whose first two taps cancel exactly in one
/// column, where the fused chain leaves the first product's rounding
/// error and the exact chain `+0.0`; between them Gaussian rows that the
/// bound certifies.
fn adversarial_kernels(n: usize, k: usize, seed: u64) -> Tensor {
    let gaussian = |seed: u64| -> Vec<f32> {
        deepcam_tensor::init::normal(&mut seeded_rng(seed), Shape::new(&[n]), 0.0, 0.3).into_vec()
    };
    let scaled = |s: f32| gaussian(7).iter().map(|v| v * s).collect::<Vec<f32>>();
    let with = |at: usize, v: f32| {
        let mut row = gaussian(8);
        row[at % n] = v;
        row
    };
    let mut rows: Vec<Vec<f32>> = vec![
        gaussian(1),
        vec![0.0; n],
        (0..n)
            .map(|i| if i % 3 == 0 { -0.0 } else { 0.0 })
            .collect(),
        with(n / 2, f32::NAN),
        with(n / 3, f32::INFINITY),
        with(n - 1, f32::NEG_INFINITY),
        (0..n)
            .map(|i| if i % 2 == 0 { 1e-40 } else { -3e-41 })
            .collect(),
        scaled(1e-30 / (0.3 * (n as f32).sqrt())),
        scaled(1e30 / (0.3 * (n as f32).sqrt())),
        gaussian(2),
    ];
    if n > 1 {
        // Column j's product fl(r₁·r₀) rounds down, so the fused chain
        // fma(−r₀, r₁, fl(r₁·r₀)) is negative (sign bit 0) where the
        // exact one cancels to +0.0 (sign bit 1): only the fix-up packs
        // the oracle's bit.
        let r = ProjectionMatrix::generate(n, k, seed);
        let (r0, r1) = (r.row(0), r.row(1));
        let j = (0..k)
            .find(|&j| f64::from(r1[j] * r0[j]) < f64::from(r1[j]) * f64::from(r0[j]))
            .expect("a product that rounds down");
        let mut cancel = vec![0.0; n];
        (cancel[0], cancel[1]) = (r1[j], -r0[j]);
        rows.push(cancel);
    }
    let m = rows.len();
    Tensor::from_vec(rows.concat(), Shape::new(&[m, n])).unwrap()
}

#[test]
fn adversarial_kernels_match_the_scalar_oracle_on_every_variant() {
    let _pin = pin();
    let initial = active();
    // n = 1 (one tap), a conv patch width and a wide one; k = 70 ends in
    // a six-bit word whose tail must stay zero.
    let cases = [(1, 256), (27, 256), (27, 70), (200, 1024), (200, 70)];
    for &v in detected() {
        force_variant(v).expect("detected variant");
        for (n, k) in cases {
            let seed = 11 + n as u64;
            let weight = adversarial_kernels(n, k, seed);
            let tile = CompiledTile::compile("adversarial", 0, k, seed, &weight).unwrap();
            let what = format!("{} n {n} k {k}", v.name());
            assert_matches_oracle(&tile, &weight, &what);
        }
    }
    let _ = force_variant(initial);
}
