//! SCALE-Sim-style model of the Eyeriss systolic array.
//!
//! The paper's baseline: Eyeriss with a 14×12 processing-element array and
//! an INT8 datapath, cycle counts extracted with a modified SCALE-Sim.
//! This module reproduces SCALE-Sim's first-order weight-stationary
//! arithmetic:
//!
//! * the im2col view of a conv layer is a `[P, n] × [n, M]` GEMM;
//! * the array holds an `S_r×S_c` tile of the `n×M` weight matrix, so the
//!   GEMM needs `ceil(n/S_r)·ceil(M/S_c)` folds;
//! * each fold costs an array fill (`S_r` cycles), a stream of all `P`
//!   input vectors, and a drain (`S_c − 1` cycles);
//! * layers whose operand footprint exceeds the on-chip SRAM stall on
//!   DRAM at a configurable bandwidth, as in SCALE-Sim's memory model.
//!
//! Energy follows the Eyeriss paper's hierarchy ratios (§I of DeepCAM:
//! SRAM ≈ 6× and DRAM ≈ 200× the cost of a MAC): every MAC pays the ALU,
//! an RF access and its share of NoC traffic; SRAM is touched once per
//! operand use distance; DRAM once per unique operand byte.

use deepcam_core::LayerIr;
use deepcam_models::{DotLayer, ModelSpec};

use crate::report::{BaselineReport, LayerCost};

/// Eyeriss configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Eyeriss {
    /// PE array rows (mapped along the patch dimension `n`).
    pub rows: usize,
    /// PE array columns (mapped along the kernel dimension `M`).
    pub cols: usize,
    /// Clock frequency in Hz.
    pub clock_hz: f64,
    /// On-chip SRAM bytes (Eyeriss: 108 kB).
    pub sram_bytes: usize,
    /// DRAM bandwidth in bytes/cycle for the stall model.
    pub dram_bytes_per_cycle: f64,
    /// Energy of one INT8 MAC (ALU only), joules.
    pub mac_energy: f64,
    /// Register-file access energy per MAC, joules.
    pub rf_energy: f64,
    /// Array NoC energy per MAC, joules.
    pub noc_energy: f64,
    /// SRAM access energy per byte, joules.
    pub sram_energy_per_byte: f64,
    /// DRAM access energy per byte, joules.
    pub dram_energy_per_byte: f64,
}

impl Eyeriss {
    /// The paper's configuration: 14×12 PEs, INT8, 200 MHz core clock
    /// (original Eyeriss), 108 kB SRAM.
    ///
    /// Energy constants are 45 nm estimates chosen to honour the paper's
    /// quoted hierarchy: `sram ≈ 6×` and `dram ≈ 200×` the dot-product
    /// (MAC) energy.
    pub fn paper_config() -> Self {
        let mac = 0.9e-12; // 0.9 pJ INT8 MAC + control at 45 nm
        Eyeriss {
            rows: 14,
            cols: 12,
            clock_hz: 200e6,
            sram_bytes: 108 * 1024,
            dram_bytes_per_cycle: 16.0,
            mac_energy: mac,
            rf_energy: 0.9e-12,  // local scratchpad read+write per MAC
            noc_energy: 0.4e-12, // inter-PE forwarding per MAC
            sram_energy_per_byte: 6.0 * mac,
            dram_energy_per_byte: 200.0 * mac,
        }
    }

    /// Cycles, energy and utilization of one dot-product layer.
    pub fn layer_cost(&self, layer: &DotLayer) -> LayerCost {
        let fold_r = layer.n.div_ceil(self.rows);
        let fold_c = layer.m.div_ceil(self.cols);
        let folds = (fold_r * fold_c) as u64;
        // Per fold: fill the weight tile, stream all P activations, drain.
        let per_fold = (self.rows + layer.p + self.cols - 1) as u64;
        let compute_cycles = folds * per_fold;

        // Utilization: mapped PEs averaged over folds. Edge folds map
        // fewer rows/cols.
        let full_r = layer.n / self.rows;
        let rem_r = layer.n % self.rows;
        let full_c = layer.m / self.cols;
        let rem_c = layer.m % self.cols;
        let mut mapped = 0f64;
        for fr in 0..fold_r {
            let r_used = if fr < full_r { self.rows } else { rem_r };
            for fc in 0..fold_c {
                let c_used = if fc < full_c { self.cols } else { rem_c };
                mapped += (r_used * c_used) as f64;
            }
        }
        let utilization = mapped / (folds as f64 * (self.rows * self.cols) as f64);

        // Memory traffic (INT8 = 1 byte/operand). DRAM is charged per
        // *unique* operand byte — im2col duplication is served on-chip —
        // with a spill factor when the working set exceeds the SRAM
        // (operands then stream from DRAM more than once, capped at 2 by
        // double buffering, matching SCALE-Sim's first-order estimate).
        let weight_bytes = (layer.n * layer.m) as f64;
        let act_bytes = layer.input_elems as f64;
        let out_bytes = (layer.m * layer.p) as f64;
        let unique_bytes = weight_bytes + act_bytes + out_bytes;
        let spill = if unique_bytes > self.sram_bytes as f64 {
            2.0
        } else {
            1.0
        };
        let dram_bytes = unique_bytes * spill;
        let dram_cycles = (dram_bytes / self.dram_bytes_per_cycle) as u64;
        // Compute and DRAM overlap under double buffering; the layer is
        // bound by the slower of the two.
        let cycles = compute_cycles.max(dram_cycles);

        let macs = layer.macs() as f64;
        // SRAM is touched once per activation broadcast (one read serves a
        // full PE column) and once per partial-sum spill (one write per PE
        // row of accumulation).
        let sram_bytes_touched = macs / self.cols as f64 + macs / self.rows as f64;
        let energy = macs * (self.mac_energy + self.rf_energy + self.noc_energy)
            + sram_bytes_touched * self.sram_energy_per_byte
            + dram_bytes * self.dram_energy_per_byte;

        LayerCost {
            name: layer.name.clone(),
            cycles,
            energy_j: energy,
            utilization,
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
        BaselineReport::from_layers("Eyeriss 14x12 INT8", ir.workload.clone(), layers)
    }
}

impl Default for Eyeriss {
    fn default() -> Self {
        Eyeriss::paper_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_models::zoo;

    #[test]
    fn lenet_cycles_plausible() {
        let e = Eyeriss::paper_config();
        let r = e.run(&zoo::lenet5());
        // First-order systolic arithmetic puts LeNet in the 10⁴–10⁵ range.
        assert!(
            r.total_cycles > 5_000 && r.total_cycles < 500_000,
            "cycles {}",
            r.total_cycles
        );
    }

    #[test]
    fn bigger_models_cost_more() {
        let e = Eyeriss::paper_config();
        let lenet = e.run(&zoo::lenet5());
        let vgg = e.run(&zoo::vgg11());
        let resnet = e.run(&zoo::resnet18());
        assert!(vgg.total_cycles > 50 * lenet.total_cycles);
        assert!(resnet.total_cycles > vgg.total_cycles);
        assert!(resnet.total_energy_j > vgg.total_energy_j);
    }

    #[test]
    fn utilization_bounds() {
        let e = Eyeriss::paper_config();
        for model in zoo::all_workloads() {
            let r = e.run(&model);
            let u = r.mean_utilization();
            assert!(u > 0.0 && u <= 1.0, "{}: {u}", model.name);
        }
    }

    #[test]
    fn perfect_fit_layer_has_full_utilization() {
        let e = Eyeriss::paper_config();
        let layer = DotLayer {
            name: "fit".into(),
            p: 100,
            m: 12,
            n: 14,
            input_elems: 14 * 100,
        };
        let c = e.layer_cost(&layer);
        assert!((c.utilization - 1.0).abs() < 1e-9);
        // One fold of compute; this tiny layer is DRAM-bound, so cycles are
        // at least the compute floor.
        assert!(c.cycles >= (14 + 100 + 11) as u64);
        assert!(c.cycles < 1_000);
    }

    #[test]
    fn small_layer_underutilizes() {
        // LeNet conv1: n=25, M=6 on 14x12 → util well below 1.
        let e = Eyeriss::paper_config();
        let layer = DotLayer {
            name: "conv1".into(),
            p: 784,
            m: 6,
            n: 25,
            input_elems: 32 * 32,
        };
        let c = e.layer_cost(&layer);
        assert!(c.utilization < 0.5, "util {}", c.utilization);
    }

    #[test]
    fn energy_per_mac_in_expected_band() {
        // Effective energy/MAC (incl. memory) should be a few pJ — the
        // published Eyeriss ballpark.
        let e = Eyeriss::paper_config();
        let model = zoo::vgg11();
        let r = e.run(&model);
        let per_mac = r.total_energy_j / model.total_macs() as f64;
        // Published Eyeriss system efficiency is ~10-17 pJ/MAC (65 nm);
        // our 45 nm batch-1 model with DRAM weight traffic lands slightly
        // above the core-only figure.
        assert!(
            per_mac > 1e-12 && per_mac < 30e-12,
            "effective {per_mac} J/MAC"
        );
    }

    #[test]
    fn dram_bound_layer_stalls() {
        let e = Eyeriss::paper_config();
        // Huge FC layer: working set >> SRAM.
        let layer = DotLayer {
            name: "fc".into(),
            p: 1,
            m: 4096,
            n: 25088,
            input_elems: 25088,
        };
        let c = e.layer_cost(&layer);
        // Must be DRAM-bound: cycles ≈ bytes/bandwidth > pure compute.
        let folds = (25088usize.div_ceil(14) * 4096usize.div_ceil(12)) as u64;
        let compute = folds * (14 + 1 + 11) as u64;
        assert!(c.cycles >= compute);
    }
}
