//! Cross-crate property-based tests (proptest) on the reproduction's
//! core invariants.

use deepcam::accel::{DeepCamEngine, EngineConfig, HashPlan};
use deepcam::cam::{CamArray, CamConfig, SenseModel};
use deepcam::hash::geometric::{CosineMode, NormMode};
use deepcam::hash::{context::approx_dot, BitVec, ContextGenerator, Minifloat8};
use deepcam::models::{Block, Cnn};
use deepcam::tensor::layer::{Conv2d, Flatten, Linear, ReLU};
use deepcam::tensor::ops::conv::{col2im, im2col, im2col_sharded, Conv2dConfig};
use deepcam::tensor::ops::project::{
    project_patches_approx_into, PatchSource, ProjPanels, ProjectScratch,
};
use deepcam::tensor::pool::Parallelism;
use deepcam::tensor::simd::{active, detected, force_variant};
use deepcam::tensor::{Shape, Tensor};
use proptest::prelude::*;

fn bits_strategy(len: usize) -> impl Strategy<Value = BitVec> {
    proptest::collection::vec(any::<bool>(), len).prop_map(|v| BitVec::from_bools(&v))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hamming_is_a_metric(a in bits_strategy(256), b in bits_strategy(256), c in bits_strategy(256)) {
        let ab = a.hamming(&b).unwrap();
        let ba = b.hamming(&a).unwrap();
        prop_assert_eq!(ab, ba); // symmetry
        prop_assert_eq!(a.hamming(&a).unwrap(), 0); // identity
        let ac = a.hamming(&c).unwrap();
        let cb = c.hamming(&b).unwrap();
        prop_assert!(ab <= ac + cb); // triangle inequality
    }

    #[test]
    fn hamming_prefix_consistent_with_truncation(
        a in bits_strategy(300),
        b in bits_strategy(300),
        k in 0usize..=300,
    ) {
        let fast = a.hamming_prefix(&b, k).unwrap();
        let slow = a.prefix(k).unwrap().hamming(&b.prefix(k).unwrap()).unwrap();
        prop_assert_eq!(fast, slow);
    }

    #[test]
    fn minifloat_quantization_properties(x in -600.0f32..600.0) {
        let q = Minifloat8::quantize(x);
        // Idempotent.
        prop_assert_eq!(Minifloat8::quantize(q), q);
        // Bounded.
        prop_assert!(q.abs() <= Minifloat8::MAX);
        // Sign-preserving (zero may absorb tiny values).
        if q != 0.0 {
            prop_assert_eq!(q.signum(), x.signum());
        }
        // Relative error bound for normal-range magnitudes.
        if x.abs() >= 0.016 && x.abs() <= Minifloat8::MAX {
            prop_assert!((q - x).abs() <= x.abs() / 16.0 + 1e-6,
                "quantizing {} gave {}", x, q);
        }
    }

    #[test]
    fn minifloat_encoding_is_monotone(a in 0.0f32..500.0, b in 0.0f32..500.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Minifloat8::quantize(lo) <= Minifloat8::quantize(hi));
    }

    #[test]
    fn self_dot_recovers_squared_norm(
        v in proptest::collection::vec(-3.0f32..3.0, 16),
        seed in 0u64..50,
    ) {
        let generator = ContextGenerator::new(16, 256, seed).unwrap();
        let ctx = generator.context_for(&v).unwrap();
        let d = approx_dot(&ctx, &ctx, 256, CosineMode::Exact, NormMode::Fp32).unwrap();
        let norm2: f32 = v.iter().map(|x| x * x).sum();
        // θ = 0 for identical hashes, so the dot is exactly ‖v‖².
        prop_assert!((d - norm2).abs() <= norm2 * 1e-3 + 1e-4);
    }

    #[test]
    fn cam_search_equals_reference_popcount(
        words in proptest::collection::vec(bits_strategy(256), 1..32),
        key in bits_strategy(256),
    ) {
        let mut cam = CamArray::new(CamConfig::new(64, 256).unwrap());
        cam.load(&words).unwrap();
        let hits = cam.search(&key).unwrap();
        prop_assert_eq!(hits.len(), words.len());
        for hit in hits {
            prop_assert_eq!(hit.hamming, words[hit.row].hamming(&key).unwrap());
        }
    }

    #[test]
    fn clocked_sense_monotone_and_exact_at_zero(levels in 2usize..128) {
        let sense = SenseModel::Clocked { levels };
        prop_assert_eq!(sense.read(0, 512), 0);
        let mut prev = 0usize;
        for hd in 0..=512 {
            let r = sense.read(hd, 512);
            prop_assert!(r >= prev);
            prop_assert!(r <= 512);
            prev = r;
        }
    }

    #[test]
    fn im2col_col2im_adjoint(
        h in 3usize..8,
        w in 3usize..8,
        c in 1usize..3,
        kernel in 1usize..4,
        pad in 0usize..2,
        stride in 1usize..3,
        seed in 0u64..100,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let cfg = Conv2dConfig::new(c, 1, kernel).with_padding(pad).with_stride(stride);
        let mut rng = deepcam::tensor::rng::seeded_rng(seed);
        let x = deepcam::tensor::init::normal(&mut rng, Shape::new(&[1, c, h, w]), 0.0, 1.0);
        let cols = im2col(&x, &cfg).unwrap();
        let y = deepcam::tensor::init::normal(&mut rng, cols.shape().clone(), 0.0, 1.0);
        // <im2col(x), y> == <x, col2im(y)>.
        let lhs = cols.dot(&y).unwrap();
        let folded = col2im(&y, 1, c, h, w, &cfg).unwrap();
        let rhs = x.dot(&folded).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-2 * lhs.abs().max(1.0));
    }

    #[test]
    fn sharded_im2col_bit_identical_for_random_geometry(
        h in 3usize..9,
        w in 3usize..9,
        c in 1usize..4,
        kernel in 1usize..4,
        pad in 0usize..3,
        stride in 1usize..4,
        n in 1usize..3,
        workers in 1usize..9,
        seed in 0u64..200,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let cfg = Conv2dConfig::new(c, 1, kernel).with_padding(pad).with_stride(stride);
        let mut rng = deepcam::tensor::rng::seeded_rng(seed);
        let x = deepcam::tensor::init::normal(&mut rng, Shape::new(&[n, c, h, w]), 0.0, 1.0);
        let serial = im2col(&x, &cfg).unwrap();
        let sharded = im2col_sharded(&x, &cfg, workers).unwrap();
        // The reference datapath's patch matrix: sharding must not move
        // a single element.
        prop_assert_eq!(serial.shape(), sharded.shape());
        prop_assert_eq!(serial.data(), sharded.data());
    }

    #[test]
    fn dense_gemm_bit_identical_to_zero_skip_kernel(
        m in 1usize..10,
        k in 1usize..12,
        n in 1usize..70,
        seed in 0u64..500,
    ) {
        // Random shapes deliberately straddle the kernel's 4-row blocks
        // and 32-column register tiles (n < 70 exercises 0, 1 and 2 full
        // tiles plus every tail width). Finite inputs → the dense kernel
        // must agree with the historical zero-skip kernel bit for bit,
        // on every dispatched column-tile path.
        let mut rng = deepcam::tensor::rng::seeded_rng(seed);
        let a = deepcam::tensor::init::normal(&mut rng, Shape::new(&[m, k]), 0.0, 1.0);
        let b = deepcam::tensor::init::normal(&mut rng, Shape::new(&[k, n]), 0.0, 1.0);
        let mut dense = vec![0.0f32; m * n];
        let mut skip = vec![0.0f32; m * n];
        deepcam::tensor::matmul_dense_into(a.data(), m, k, b.data(), n, &mut dense);
        deepcam::tensor::matmul_into(a.data(), m, k, b.data(), n, &mut skip);
        for (d, s) in dense.iter().zip(skip.iter()) {
            prop_assert_eq!(d.to_bits(), s.to_bits());
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in proptest::collection::vec(-2.0f32..2.0, 6),
        b in proptest::collection::vec(-2.0f32..2.0, 6),
        c in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        let a = Tensor::from_vec(a, Shape::new(&[2, 3])).unwrap();
        let b = Tensor::from_vec(b, Shape::new(&[3, 2])).unwrap();
        let c = Tensor::from_vec(c, Shape::new(&[3, 2])).unwrap();
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        for (l, r) in lhs.data().iter().zip(rhs.data().iter()) {
            prop_assert!((l - r).abs() < 1e-4);
        }
    }

    #[test]
    fn projection_hash_scale_invariant(
        v in proptest::collection::vec(-4.0f32..4.0, 8),
        scale in 0.01f32..50.0,
        seed in 0u64..20,
    ) {
        prop_assume!(v.iter().any(|&x| x != 0.0));
        let generator = ContextGenerator::new(8, 128, seed).unwrap();
        let base = generator.context_for(&v).unwrap();
        let scaled: Vec<f32> = v.iter().map(|x| x * scale).collect();
        let s = generator.context_for(&scaled).unwrap();
        prop_assert_eq!(base.bits, s.bits); // direction unchanged
        prop_assert!((s.norm - base.norm * scale).abs() <= base.norm * scale * 1e-3 + 1e-5);
    }
}

/// A minimal two-dot-layer CNN (8×8 mono input, 4 classes) — big enough
/// to exercise both the conv and linear engine paths, small enough to
/// compile and evaluate inside a property test case.
fn tiny_cnn(seed: u64) -> Cnn {
    let mut rng = deepcam::tensor::rng::seeded_rng(seed);
    let blocks = vec![
        Block::Conv(Conv2d::new(
            &mut rng,
            Conv2dConfig::new(1, 2, 3).with_padding(1),
        )),
        Block::Relu(ReLU::new()),
        Block::Flatten(Flatten::new()),
        Block::Linear(Linear::new(&mut rng, 2 * 8 * 8, 4)),
    ];
    Cnn::new("TinyCnn", blocks, 4)
}

proptest! {
    // Each case compiles and evaluates an engine; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn worker_count_never_changes_evaluate_accuracy(
        workers in 1usize..9,
        batch_size in 1usize..8,
        n_images in 1usize..9,
        model_seed in 0u64..20,
        data_seed in 0u64..50,
    ) {
        let model = tiny_cnn(model_seed);
        let engine = DeepCamEngine::compile(
            &model,
            EngineConfig {
                plan: HashPlan::Uniform(256),
                parallelism: Parallelism::Serial,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let mut rng = deepcam::tensor::rng::seeded_rng(data_seed);
        let x = deepcam::tensor::init::normal(
            &mut rng, Shape::new(&[n_images, 1, 8, 8]), 0.0, 1.0);
        let labels: Vec<usize> = (0..n_images).map(|i| (i * 7 + data_seed as usize) % 4).collect();
        let reference = engine.evaluate(&x, &labels, batch_size).unwrap();
        let parallel = engine
            .evaluate_with(&x, &labels, batch_size, Parallelism::Fixed(workers))
            .unwrap();
        // Exact equality — thread count must never move accuracy, even
        // with remainder mini-batches.
        prop_assert_eq!(reference, parallel);
    }
}

/// An NCHW input where each entry is kept with probability `density`
/// (a tenth of the kept ones subnormal) and the rest are `+0.0`/`-0.0`.
fn sparse_activation(shape: &[usize], density: f32, seed: u64) -> Tensor {
    use rand::RngExt;
    let mut rng = deepcam::tensor::rng::seeded_rng(seed);
    let mut x = deepcam::tensor::init::normal(&mut rng, Shape::new(shape), 0.0, 1.0);
    for v in x.data_mut() {
        let keep = rng.random::<f32>() < density;
        *v = match (keep, rng.random::<u8>() % 10) {
            (false, r) if r < 5 => -0.0,
            (false, _) => 0.0,
            (true, 0) => v.signum() * 1.0e-40,
            (true, _) => *v,
        };
    }
    x
}

/// Runs the implicit-im2col projection over `src` in `block`-row blocks
/// and checks every row against the materialised oracle (im2col rows,
/// `matmul_dense_into`, and the historical per-row norm expression): the
/// norm bitwise, `exact_element` on every lane bitwise, and each fused
/// value within `2·γ_n·‖x‖·‖R[:, j]‖` of the exact one.
fn check_projection(
    src: &PatchSource<'_>,
    patches: &[f32],
    proj: &[f32],
    k: usize,
    block: usize,
) -> Result<(), TestCaseError> {
    let (rows, n) = (src.len(), src.width());
    let mut want = vec![0.0f32; rows * k];
    deepcam::tensor::matmul_dense_into(patches, rows, n, proj, k, &mut want);
    let norm64 = |v: &mut dyn Iterator<Item = f32>| -> f64 {
        v.map(|x| f64::from(x).powi(2)).sum::<f64>().sqrt()
    };
    let col_norms: Vec<f64> = (0..k)
        .map(|j| norm64(&mut proj[j..].iter().step_by(k).copied()))
        .collect();
    let nu = n as f64 * f64::from(f32::EPSILON) / 2.0;
    let gamma = nu / (1.0 - nu);
    let panels = ProjPanels::pack(proj, n, k);
    let mut scratch = ProjectScratch::new(block, src);
    let mut out = vec![f32::NAN; block * k];
    let mut norms = vec![f32::NAN; block];
    let mut start = 0;
    while start < rows {
        let here = block.min(rows - start);
        project_patches_approx_into(
            src,
            start,
            here,
            &panels,
            &mut scratch,
            &mut out,
            &mut norms,
        );
        for r in 0..here {
            let g = start + r;
            let patch = &patches[g * n..(g + 1) * n];
            let norm = patch.iter().map(|&v| v * v).sum::<f32>().sqrt();
            prop_assert_eq!(norms[r].to_bits(), norm.to_bits(), "norm of row {}", g);
            let x_norm = norm64(&mut patch.iter().copied());
            for (j, &c_norm) in col_norms.iter().enumerate() {
                let exact = want[g * k + j];
                prop_assert_eq!(
                    scratch.exact_element(src, r, &panels, j).to_bits(),
                    exact.to_bits(),
                    "exact element {} of row {}",
                    j,
                    g
                );
                let gap = (f64::from(out[r * k + j]) - f64::from(exact)).abs();
                prop_assert!(
                    gap <= 2.0 * gamma * x_norm * c_norm,
                    "fused element {} of row {} is {} from the exact one",
                    j,
                    g,
                    gap
                );
            }
        }
        start += here;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn implicit_sparse_projection_matches_im2col_dense_gemm(
        kernel_i in 0usize..4,
        stride in 1usize..3,
        pad in 0usize..3,
        c in 1usize..4,
        h in 1usize..10,
        w in 1usize..10,
        images in 1usize..3,
        density_i in 0usize..4,
        k_i in 0usize..7,
        // Blocks of 1-3 and 5-7 rows end in rows that walk alone.
        block in prop_oneof![1usize..4, 5usize..8, 1usize..70],
        seed in 0u64..1000,
    ) {
        // Index 3 is the LeNet-style unpadded 5×5 window.
        let kernel = [1usize, 3, 5, 5][kernel_i];
        let pad = if kernel_i == 3 { 0 } else { pad };
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let density = [0.0f32, 0.1, 0.5, 1.0][density_i];
        // 64, 70 and 96 give no, a masked and a half-tile column tail.
        let k = [256usize, 512, 768, 1024, 64, 70, 96][k_i];
        let cfg = Conv2dConfig::new(c, 4, kernel).with_stride(stride).with_padding(pad);
        let x = sparse_activation(&[images, c, h, w], density, seed);
        let n = cfg.patch_len();
        let proj = deepcam::tensor::init::normal(
            &mut deepcam::tensor::rng::seeded_rng(seed ^ 0x5eed), Shape::new(&[n, k]), 0.0, 1.0);
        let patches = im2col(&x, &cfg).unwrap();
        let src = PatchSource::conv(&x, &cfg).unwrap();
        // Row r keeps only the columns c with c % 4 == r % 4.
        let disjoint: Vec<f32> = patches.data().iter().enumerate()
            .map(|(i, &v)| if i % n % 4 == i / n % 4 { v } else { 0.0 })
            .collect();
        // Every detected kernel variant, each pinned in turn, must hit
        // the oracle; the ambient variant is restored even on failure.
        let initial = active();
        let result = detected().iter().try_for_each(|&v| {
            force_variant(v).expect("detected variant");
            check_projection(&src, patches.data(), proj.data(), k, block)
                // The same rows, materialised, take the row-source path.
                .and_then(|()| check_projection(
                    &PatchSource::rows(patches.data(), n), patches.data(), proj.data(), k, block))
                // Any four consecutive rows non-zero in disjoint columns.
                .and_then(|()| check_projection(
                    &PatchSource::rows(&disjoint, n), &disjoint, proj.data(), k, block))
                .map_err(|e| TestCaseError::fail(format!("variant {}: {e}", v.name())))
        });
        force_variant(initial).expect("restore the ambient variant");
        result?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cover_weighted_count_equals_the_im2col_nonzero_count(
        kernel in 1usize..6,
        stride in 1usize..4,
        pad in 0usize..4,
        c in 1usize..4,
        h in 1usize..10,
        w in 1usize..10,
        images in 1usize..3,
        density_i in 0usize..4,
        seed in 0u64..1000,
    ) {
        prop_assume!(h + 2 * pad >= kernel && w + 2 * pad >= kernel);
        let density = [0.0f32, 0.1, 0.5, 1.0][density_i];
        let cfg = Conv2dConfig::new(c, 2, kernel).with_stride(stride).with_padding(pad);
        let x = sparse_activation(&[images, c, h, w], density, seed);
        let patches = im2col(&x, &cfg).unwrap();
        let want = patches.data().iter().filter(|&&v| v != 0.0).count();
        prop_assert_eq!(PatchSource::conv(&x, &cfg).unwrap().nonzero(), want);
        let rows = PatchSource::rows(patches.data(), cfg.patch_len());
        prop_assert_eq!(rows.nonzero(), want);
    }
}

#[test]
fn all_zero_patches_get_a_positive_zero_norm() {
    // `Sum` for f32 folds from -0.0, so a norm over an *empty* non-zero
    // support would be -0.0 and could flip output bits downstream. The
    // projection must give +0.0, as the full-patch expression does.
    assert_eq!(
        std::iter::empty::<f32>().sum::<f32>().to_bits(),
        (-0.0f32).to_bits()
    );
    let cfg = Conv2dConfig::new(2, 4, 3).with_padding(1);
    let x = sparse_activation(&[1, 2, 5, 5], 0.0, 7);
    assert!(x.data().iter().any(|v| v.is_sign_negative()));
    let proj = deepcam::tensor::init::normal(
        &mut deepcam::tensor::rng::seeded_rng(1),
        Shape::new(&[18, 256]),
        0.0,
        1.0,
    );
    let src = PatchSource::conv(&x, &cfg).unwrap();
    let mut scratch = ProjectScratch::new(25, &src);
    let (mut out, mut norms) = (vec![f32::NAN; 25 * 256], vec![f32::NAN; 25]);
    project_patches_approx_into(
        &src,
        0,
        25,
        &ProjPanels::pack(proj.data(), 18, 256),
        &mut scratch,
        &mut out,
        &mut norms,
    );
    assert!(norms.iter().chain(&out).all(|v| v.to_bits() == 0));
}
