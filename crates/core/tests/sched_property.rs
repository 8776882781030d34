//! Property-based tests of the scheduler over randomized layer shapes.

use deepcam_core::sched::{CamScheduler, CycleModel};
use deepcam_core::{Dataflow, DotIr, DotKind, HashPlan, LayerIr};
use deepcam_models::DotLayer;
use proptest::prelude::*;

fn layer_strategy() -> impl Strategy<Value = DotLayer> {
    (1usize..2000, 1usize..600, 1usize..5000).prop_map(|(p, m, n)| DotLayer {
        name: "rand".into(),
        p,
        m,
        n,
        input_elems: n.max(p), // plausible unique input count
    })
}

/// An IR of `len` identical linear layers (the plan checks read only
/// the layer count and names).
fn linear_ir(len: usize) -> LayerIr {
    LayerIr {
        model_name: "Linear".into(),
        workload: "Linear".into(),
        preamble: Vec::new(),
        dots: (0..len)
            .map(|index| DotIr {
                index,
                kind: DotKind::Linear,
                shape: DotLayer {
                    name: format!("fc{}", index + 1),
                    p: 1,
                    m: 4,
                    n: 8,
                    input_elems: 8,
                },
                peripherals: Vec::new(),
            })
            .collect(),
    }
}

fn k_strategy() -> impl Strategy<Value = usize> {
    prop_oneof![Just(256usize), Just(512), Just(768), Just(1024)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn search_count_formula(layer in layer_strategy(), k in k_strategy(), rows_sel in 0usize..4) {
        let rows = [64usize, 128, 256, 512][rows_sel];
        for dataflow in Dataflow::both() {
            let sched = CamScheduler::new(rows, dataflow).unwrap();
            let perf = sched.layer_perf(&layer, k, false).unwrap();
            let (stored, streamed) = match dataflow {
                Dataflow::WeightStationary => (layer.m, layer.p),
                Dataflow::ActivationStationary => (layer.p, layer.m),
            };
            prop_assert_eq!(perf.searches, (stored.div_ceil(rows).max(1) * streamed) as u64);
            prop_assert!(perf.utilization > 0.0 && perf.utilization <= 1.0);
            prop_assert!(perf.cycles > 0);
        }
    }

    #[test]
    fn energy_components_positive_and_monotone_in_k(layer in layer_strategy()) {
        let sched = CamScheduler::new(64, Dataflow::ActivationStationary).unwrap();
        let mut prev_total = 0.0f64;
        for k in [256usize, 512, 768, 1024] {
            let perf = sched.layer_perf(&layer, k, false).unwrap();
            let e = &perf.energy;
            prop_assert!(e.cam_search > 0.0);
            prop_assert!(e.cam_write > 0.0);
            prop_assert!(e.postproc > 0.0);
            prop_assert!(e.ctxgen > 0.0);
            let total = e.total();
            prop_assert!(total > prev_total, "k={} total {} !> {}", k, total, prev_total);
            prev_total = total;
        }
    }

    #[test]
    fn cycle_models_ordered(layer in layer_strategy(), k in k_strategy()) {
        let base = CamScheduler::new(128, Dataflow::ActivationStationary).unwrap();
        let pipe = base.clone().layer_perf(&layer, k, false).unwrap().cycles;
        let seq = base
            .clone()
            .with_cycle_model(CycleModel::Sequential)
            .layer_perf(&layer, k, false)
            .unwrap()
            .cycles;
        let search = base
            .with_cycle_model(CycleModel::SearchOnly)
            .layer_perf(&layer, k, false)
            .unwrap()
            .cycles;
        prop_assert!(search <= pipe);
        prop_assert!(pipe <= seq);
    }

    #[test]
    fn more_rows_never_increase_searches(layer in layer_strategy(), k in k_strategy()) {
        let mut prev = u64::MAX;
        for rows in [64usize, 128, 256, 512] {
            let sched = CamScheduler::new(rows, Dataflow::ActivationStationary).unwrap();
            let perf = sched.layer_perf(&layer, k, true).unwrap();
            prop_assert!(perf.searches <= prev);
            prev = perf.searches;
        }
    }

    #[test]
    fn first_layer_never_pays_ctxgen(layer in layer_strategy(), k in k_strategy()) {
        let sched = CamScheduler::new(64, Dataflow::WeightStationary).unwrap();
        let first = sched.layer_perf(&layer, k, true).unwrap();
        prop_assert_eq!(first.energy.ctxgen, 0.0);
    }

    #[test]
    fn plan_validation_consistent(len in 1usize..30) {
        let plan = HashPlan::PerLayer(vec![256; len]);
        let binding = plan.bind(&linear_ir(len)).unwrap();
        prop_assert_eq!(binding.ks().to_vec(), vec![256; len]);
        prop_assert!(plan.bind(&linear_ir(len + 1)).is_err());
        prop_assert!(plan.bind(&linear_ir(len - 1)).is_err());
    }
}
