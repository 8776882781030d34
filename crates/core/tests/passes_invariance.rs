//! The pass pipeline's one contract, checked exhaustively: every pass —
//! and every *ordered subset* of the default pass list — leaves the
//! logits bitwise identical to the unpassed model, across random zoo
//! models, per-layer hash plans and seeds.
//!
//! Mapping attaches scheduling metadata; it may not perturb a single
//! output bit.

use deepcam_core::passes::{self, Pass};
use deepcam_core::{CompiledModel, DeepCamEngine, EngineConfig, HashPlan, MappingConfig};
use deepcam_models::Cnn;
use deepcam_tensor::rng::seeded_rng;
use deepcam_tensor::{init, Shape, Tensor};
use proptest::prelude::*;

fn model_for(sel: usize) -> Cnn {
    let mut rng = seeded_rng(31 + sel as u64);
    match sel {
        0 => deepcam_models::scaled::scaled_lenet5(&mut rng, 10),
        1 => deepcam_models::scaled::scaled_vgg11(&mut rng, 4, 10),
        _ => deepcam_models::scaled::scaled_resnet18(&mut rng, 4, 10),
    }
}

fn batch_for(model: &Cnn, n: usize, seed: u64) -> Tensor {
    let (c, h, w) = model.input.expect("scaled models declare their input");
    let mut rng = seeded_rng(seed);
    init::normal(&mut rng, Shape::new(&[n, c, h, w]), 0.0, 1.0)
}

/// Every ordered subset of the one-pass default list (the empty subset
/// is the baseline itself and serves as a sanity anchor).
fn pass_subsets() -> Vec<Vec<Pass>> {
    vec![vec![], vec![Pass::MapArrays(MappingConfig::default())]]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn every_pass_subset_is_output_invariant(
        model_sel in 0usize..3,
        width_bits in any::<u64>(),
        seed in 0u64..1000,
    ) {
        let model = model_for(model_sel);
        let layers = model.dot_layer_count();
        // Derive a random-but-reproducible per-layer plan from the
        // width bits (2 bits of selector per layer).
        let widths: Vec<usize> = (0..layers)
            .map(|i| [256usize, 512, 768, 1024][((width_bits >> (2 * (i % 32))) & 3) as usize])
            .collect();
        let cfg = EngineConfig {
            plan: HashPlan::PerLayer(widths),
            seed,
            ..EngineConfig::default()
        };
        let compiled = CompiledModel::compile(&model, cfg).expect("compiles");
        let x = batch_for(&model, 2, seed ^ 0x55AA);
        let baseline = DeepCamEngine::from_compiled(compiled.clone())
            .expect("builds runtime")
            .infer(&x)
            .expect("baseline inference");
        for subset in pass_subsets() {
            let names: Vec<&str> = subset.iter().map(|p| p.name()).collect();
            let mut passed = compiled.clone();
            passes::apply(&mut passed, &subset).expect("passes apply");
            let out = DeepCamEngine::from_compiled(passed)
                .expect("builds passed runtime")
                .infer(&x)
                .expect("passed inference");
            prop_assert_eq!(
                baseline.data(),
                out.data(),
                "pass subset {:?} changed the logits",
                names
            );
        }
    }
}
