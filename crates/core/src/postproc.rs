//! Post-processing & transformation module cost model (paper Fig. 7).
//!
//! After the CAM reports Hamming distances, each dot-product still needs:
//! angle scaling (`θ = π·HD/k`, one multiply), the piecewise cosine of
//! eq. 5 (one multiply-add plus a range compare), and the final multiply
//! by the two 8-bit minifloat norms (two multiplies) — about five simple
//! ALU operations per dot-product. The module also executes the CNN's
//! peripheral operations (ReLU, pooling, batch-norm, bias, residual adds)
//! digitally.
//!
//! Constants are 45 nm / 300 MHz estimates for 16-bit datapath operators
//! (the precision of the norm product), the technology corner the paper
//! synthesizes with Synopsys DC/PrimeTime.

use deepcam_models::{LayerSpec, PoolKind};

/// Cycle/energy model of the digital post-processing unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PostProcCostModel {
    /// ALU operations needed per approximate dot-product (angle + cosine
    /// + norm multiplies).
    pub ops_per_dot: f64,
    /// Parallel ALU lanes. The paper sizes the unit to keep pace with the
    /// CAM's parallel row readout, so the default is generous.
    pub lanes: usize,
    /// Energy of one 16-bit ALU operation (multiply-add class), joules.
    pub op_energy: f64,
    /// Energy of one element-wise operation (ReLU compare, pool compare,
    /// BN normalize step), joules.
    pub eltwise_energy: f64,
    /// Element-wise operations processed per cycle.
    pub eltwise_lanes: usize,
}

impl Default for PostProcCostModel {
    fn default() -> Self {
        PostProcCostModel {
            ops_per_dot: 5.0,
            lanes: 128,
            op_energy: 0.1e-12,       // 0.1 pJ per 16-bit mult-add at 45 nm
            eltwise_energy: 0.02e-12, // comparisons / shifts are cheaper
            eltwise_lanes: 64,
        }
    }
}

/// Cost of a batch of work on the post-processing unit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PostProcCost {
    /// Cycles at the unit's clock.
    pub cycles: u64,
    /// Dynamic energy in joules.
    pub energy_j: f64,
}

impl PostProcCostModel {
    /// Cost of reconstructing `dots` approximate dot-products.
    pub fn dot_cost(&self, dots: u64) -> PostProcCost {
        let ops = dots as f64 * self.ops_per_dot;
        PostProcCost {
            cycles: (ops / self.lanes as f64).ceil() as u64,
            energy_j: ops * self.op_energy,
        }
    }

    /// Cost of the peripheral (non-dot) operations of one layer spec.
    /// Dot-product layers cost nothing here — they are accounted via
    /// [`PostProcCostModel::dot_cost`].
    pub fn peripheral_cost(&self, layer: &LayerSpec) -> PostProcCost {
        let ops = match layer {
            LayerSpec::Pool(p) => {
                // Max: one compare per window element; Avg: one add per
                // element plus a scale per output.
                match p.kind {
                    PoolKind::Max => p.ops() as f64,
                    PoolKind::Avg => p.ops() as f64 + p.out_elements() as f64,
                }
            }
            LayerSpec::BatchNorm { elements } => 2.0 * *elements as f64, // scale + shift
            LayerSpec::Activation { elements } => *elements as f64,
            LayerSpec::EltwiseAdd { elements } => *elements as f64,
            LayerSpec::Conv(_) | LayerSpec::Linear(_) => 0.0,
        };
        PostProcCost {
            cycles: (ops / self.eltwise_lanes as f64).ceil() as u64,
            energy_j: ops * self.eltwise_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_models::PoolSpec;

    #[test]
    fn dot_cost_scales() {
        let m = PostProcCostModel::default();
        let one = m.dot_cost(1_000);
        let ten = m.dot_cost(10_000);
        assert!((ten.energy_j / one.energy_j - 10.0).abs() < 1e-9);
        assert!(ten.cycles >= 9 * one.cycles);
    }

    #[test]
    fn zero_dots_zero_cost() {
        let m = PostProcCostModel::default();
        let c = m.dot_cost(0);
        assert_eq!(c.cycles, 0);
        assert_eq!(c.energy_j, 0.0);
    }

    #[test]
    fn peripheral_pool_cost() {
        let m = PostProcCostModel::default();
        let pool = LayerSpec::Pool(PoolSpec {
            kind: PoolKind::Max,
            kernel: 2,
            channels: 16,
            in_h: 10,
            in_w: 10,
        });
        let c = m.peripheral_cost(&pool);
        assert!(c.cycles > 0);
        // 16*25 outputs × 4 compares = 1600 ops.
        assert!((c.energy_j - 1600.0 * m.eltwise_energy).abs() < 1e-18);
    }

    #[test]
    fn conv_is_free_here() {
        let m = PostProcCostModel::default();
        let conv = LayerSpec::Activation { elements: 0 };
        assert_eq!(m.peripheral_cost(&conv).cycles, 0);
    }

    #[test]
    fn per_dot_energy_magnitude() {
        // ~5 ops × 0.1 pJ = 0.5 pJ per dot-product — small next to a CAM
        // search but non-negligible over millions of dots.
        let m = PostProcCostModel::default();
        let c = m.dot_cost(1);
        assert!((c.energy_j - 0.5e-12).abs() < 1e-15);
    }
}
