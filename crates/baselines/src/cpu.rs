//! Intel Skylake AVX-512 VNNI throughput model.
//!
//! The paper's second baseline is a Skylake-class CPU with the AVX-512
//! vector neural-network instructions. One `vpdpbusd` performs 64 INT8
//! multiply-accumulates; Skylake-SP issues two such FMAs per cycle on
//! ports 0+5, giving a 128 MAC/cycle peak. Real GEMM kernels reach a
//! fraction of that peak (loads, edge handling, pointer chasing), modelled
//! by a single efficiency factor, plus a fixed per-layer software
//! overhead (loop setup, im2col, cache warmup).

use deepcam_core::LayerIr;
use deepcam_models::{DotLayer, ModelSpec};

use crate::report::{BaselineReport, LayerCost};

/// Skylake AVX-512 VNNI CPU model.
#[derive(Debug, Clone, PartialEq)]
pub struct SkylakeCpu {
    /// Peak INT8 MACs per cycle (2 ports × 64 MACs).
    pub peak_macs_per_cycle: f64,
    /// Sustained fraction of peak for conv/GEMM kernels.
    pub efficiency: f64,
    /// Fixed per-layer overhead cycles (dispatch, im2col, edge code).
    pub layer_overhead_cycles: u64,
    /// Core clock in Hz.
    pub clock_hz: f64,
    /// Package energy per cycle (used only for rough energy estimates —
    /// the paper compares CPUs on cycles, calling them "energy-hungry"
    /// without quoting numbers).
    pub energy_per_cycle: f64,
}

impl SkylakeCpu {
    /// The paper's configuration: Skylake with AVX-512 VNNI.
    pub fn paper_config() -> Self {
        SkylakeCpu {
            peak_macs_per_cycle: 128.0,
            efficiency: 0.35,
            layer_overhead_cycles: 2_000,
            clock_hz: 2.1e9,
            // ~20 W core at 2.1 GHz ≈ 9.5 nJ/cycle.
            energy_per_cycle: 9.5e-9,
        }
    }

    /// Cycles for one dot-product layer.
    pub fn layer_cost(&self, layer: &DotLayer) -> LayerCost {
        let sustained = self.peak_macs_per_cycle * self.efficiency;
        let cycles = (layer.macs() as f64 / sustained).ceil() as u64 + self.layer_overhead_cycles;
        LayerCost {
            name: layer.name.clone(),
            cycles,
            energy_j: cycles as f64 * self.energy_per_cycle,
            utilization: self.efficiency,
        }
    }

    /// Runs a whole model spec (lowered through the shared pipeline IR).
    pub fn run(&self, model: &ModelSpec) -> BaselineReport {
        self.run_ir(&LayerIr::from_spec(model))
    }

    /// Runs a lowered model — the same [`LayerIr`] the DeepCAM engine,
    /// scheduler and auto-tuner consume.
    pub fn run_ir(&self, ir: &LayerIr) -> BaselineReport {
        let layers = ir.dots.iter().map(|d| self.layer_cost(&d.shape)).collect();
        BaselineReport::from_layers("Skylake AVX-512", ir.workload.clone(), layers)
    }
}

impl Default for SkylakeCpu {
    fn default() -> Self {
        SkylakeCpu::paper_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eyeriss::Eyeriss;
    use deepcam_models::zoo;

    #[test]
    fn throughput_arithmetic() {
        let cpu = SkylakeCpu::paper_config();
        let layer = DotLayer {
            name: "x".into(),
            p: 1000,
            m: 64,
            n: 576,
            input_elems: 64 * 32 * 32,
        };
        let c = cpu.layer_cost(&layer);
        let expected = (layer.macs() as f64 / (128.0 * 0.35)).ceil() as u64 + 2_000;
        assert_eq!(c.cycles, expected);
    }

    #[test]
    fn overhead_dominates_tiny_layers() {
        let cpu = SkylakeCpu::paper_config();
        let tiny = DotLayer {
            name: "fc".into(),
            p: 1,
            m: 10,
            n: 84,
            input_elems: 84,
        };
        let c = cpu.layer_cost(&tiny);
        assert!(c.cycles >= 2_000 && c.cycles < 2_100);
    }

    #[test]
    fn cpu_slower_than_eyeriss_per_inference() {
        // 168 dedicated PEs at full INT8 utilization beat 44.8 effective
        // CPU MACs/cycle — the premise of the paper's Fig. 9.
        let cpu = SkylakeCpu::paper_config().run(&zoo::vgg16());
        let eye = Eyeriss::paper_config().run(&zoo::vgg16());
        assert!(
            cpu.total_cycles > eye.total_cycles,
            "cpu {} vs eyeriss {}",
            cpu.total_cycles,
            eye.total_cycles
        );
    }

    #[test]
    fn scales_with_model() {
        let cpu = SkylakeCpu::paper_config();
        let a = cpu.run(&zoo::lenet5()).total_cycles;
        let b = cpu.run(&zoo::resnet18()).total_cycles;
        assert!(b > 100 * a);
    }
}
