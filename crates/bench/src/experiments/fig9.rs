//! Fig. 9 — inference computation cycles and hardware utilization:
//! DeepCAM (WS/AS, row sizes 64–512) vs Eyeriss vs Skylake CPU, on all
//! four Table I workloads.

use deepcam_baselines::{Eyeriss, SkylakeCpu};
use deepcam_core::sched::{CamScheduler, CycleModel};
use deepcam_core::{Dataflow, HashPlan, LayerIr};
use deepcam_models::{zoo, ModelSpec};

/// One DeepCAM configuration's result for a workload.
#[derive(Debug, Clone, PartialEq)]
pub struct DeepCamPoint {
    /// Dataflow label (`WS`/`AS`).
    pub dataflow: String,
    /// CAM rows.
    pub rows: usize,
    /// Inference cycles under the honest pipelined model (CAM, context
    /// generator and post-processing overlap; slowest stage binds).
    pub cycles: u64,
    /// Inference cycles counting only O(1) CAM searches — the paper's
    /// implicit accounting.
    pub search_only_cycles: u64,
    /// Mean CAM utilization.
    pub utilization: f64,
    /// Speedup over Eyeriss (pipelined cycles ratio).
    pub speedup_vs_eyeriss: f64,
    /// Speedup over Eyeriss under search-only accounting.
    pub search_only_speedup_vs_eyeriss: f64,
    /// Speedup over the CPU (pipelined cycles ratio).
    pub speedup_vs_cpu: f64,
}

/// All Fig. 9 numbers for one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Workload label.
    pub workload: String,
    /// Eyeriss cycles.
    pub eyeriss_cycles: u64,
    /// Eyeriss PE utilization.
    pub eyeriss_utilization: f64,
    /// CPU cycles.
    pub cpu_cycles: u64,
    /// DeepCAM points (WS/AS × row sizes).
    pub deepcam: Vec<DeepCamPoint>,
}

/// Row sizes swept (matching the paper).
pub const ROW_SIZES: [usize; 4] = [64, 128, 256, 512];

/// Runs Fig. 9 for one model spec. The spec is lowered once through the
/// shared pipeline IR; every simulator consumes the same [`LayerIr`].
pub fn run_workload(spec: &ModelSpec) -> Fig9Row {
    let ir = LayerIr::from_spec(spec);
    let eyeriss = Eyeriss::paper_config().run_ir(&ir);
    let cpu = SkylakeCpu::paper_config().run_ir(&ir);
    let plan = HashPlan::variable_for_dims(&ir.patch_lens());
    let binding = plan.bind(&ir).expect("plan matches spec");
    let mut points = Vec::new();
    for dataflow in Dataflow::both() {
        for &rows in &ROW_SIZES {
            let sched = CamScheduler::new(rows, dataflow).expect("supported rows");
            let perf = sched
                .run_ir(&ir, &binding, plan.label())
                .expect("plan matches spec");
            let search_only = sched
                .clone()
                .with_cycle_model(CycleModel::SearchOnly)
                .run_ir(&ir, &binding, plan.label())
                .expect("plan matches spec");
            points.push(DeepCamPoint {
                dataflow: dataflow.label().to_string(),
                rows,
                cycles: perf.total_cycles,
                search_only_cycles: search_only.total_cycles,
                utilization: perf.mean_utilization(),
                speedup_vs_eyeriss: eyeriss.total_cycles as f64 / perf.total_cycles.max(1) as f64,
                search_only_speedup_vs_eyeriss: eyeriss.total_cycles as f64
                    / search_only.total_cycles.max(1) as f64,
                speedup_vs_cpu: cpu.total_cycles as f64 / perf.total_cycles.max(1) as f64,
            });
        }
    }
    Fig9Row {
        workload: spec.workload(),
        eyeriss_cycles: eyeriss.total_cycles,
        eyeriss_utilization: eyeriss.mean_utilization(),
        cpu_cycles: cpu.total_cycles,
        deepcam: points,
    }
}

/// Runs Fig. 9 for all four workloads.
pub fn run() -> Vec<Fig9Row> {
    zoo::all_workloads().iter().map(run_workload).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet_row_shapes_hold() {
        let row = run_workload(&zoo::lenet5());
        // DeepCAM beats both baselines on cycles in AS mode.
        let as64 = row
            .deepcam
            .iter()
            .find(|p| p.dataflow == "AS" && p.rows == 64)
            .expect("AS/64 point exists");
        assert!(as64.speedup_vs_eyeriss > 1.0, "{}", as64.speedup_vs_eyeriss);
        assert!(as64.speedup_vs_cpu > 1.0);
        // AS utilization beats WS for conv-dominated models.
        let ws64 = row
            .deepcam
            .iter()
            .find(|p| p.dataflow == "WS" && p.rows == 64)
            .expect("WS/64 point exists");
        assert!(as64.utilization > ws64.utilization);
        assert!(as64.cycles < ws64.cycles);
    }

    #[test]
    fn more_rows_increase_resnet_speedup_search_only() {
        // The paper reports ResNet18 speedup growing ~8x from 64 to 512
        // rows. On the published CIFAR-shape topology the deep stages have
        // P ≤ 64 output positions, so rows beyond P are unusable and the
        // scaling saturates — we assert meaningful but sub-8x growth (the
        // full 8x needs ImageNet-sized feature maps; see
        // `zoo::resnet18_imagenet`).
        let row = run_workload(&zoo::resnet18());
        let s = |rows: usize| {
            row.deepcam
                .iter()
                .find(|p| p.dataflow == "AS" && p.rows == rows)
                .expect("point exists")
                .search_only_speedup_vs_eyeriss
        };
        assert!(
            s(512) > 1.3 * s(64),
            "search-only speedup should scale with rows: {} vs {}",
            s(512),
            s(64)
        );
        // The pipelined model must not regress with more rows.
        let p = |rows: usize| {
            row.deepcam
                .iter()
                .find(|q| q.dataflow == "AS" && q.rows == rows)
                .expect("point exists")
                .speedup_vs_eyeriss
        };
        assert!(p(512) >= p(64) * 0.95);
    }

    #[test]
    fn cpu_is_slowest_everywhere() {
        for row in run() {
            assert!(row.cpu_cycles > row.eyeriss_cycles, "{}", row.workload);
        }
    }
}
