//! Online activation context generator cost model (paper §III-C, Fig. 7).
//!
//! Between CNN layers the intermediate activations must be turned into
//! contexts for the next layer. Shipping them back to software would cost
//! communication energy and latency, so DeepCAM does it on-chip:
//!
//! * **L2 norm**: an adder tree squares-and-sums the patch, then a
//!   non-restoring digital square-root produces the 8-bit minifloat norm;
//! * **hash**: an NVM (FeFET) crossbar stores the projection matrix `C`
//!   as synaptic weights; a patch is applied on the rows and each column's
//!   analog sum is reduced to its *sign bit* by a simple sense amplifier —
//!   the high-resolution ADCs of conventional analog PIM are not needed,
//!   which is where this unit saves its energy.
//!
//! A physical crossbar has bounded dimensions, so large patches tile over
//! the crossbar in both directions; cycles scale with
//! `ceil(n/rows)·ceil(k/cols)`. This tiling is what makes context
//! generation a first-order cost for the wide layers of VGG/ResNet.

/// Cost model for the on-chip context generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CtxGenCostModel {
    /// Physical crossbar rows (input dimension per tile). Patches longer
    /// than this tile serially over the rows.
    pub xbar_rows: usize,
    /// Physical crossbar columns. The transformation module instantiates
    /// the full maximum hash width (1024 columns) so all hash bits of a
    /// row-tile evaluate in parallel; columns only matter for energy.
    pub xbar_cols: usize,
    /// Cycles per crossbar tile evaluation (drive + settle + sense).
    pub xbar_cycles: u64,
    /// Energy per active crossbar cell per evaluation, joules.
    pub cell_energy: f64,
    /// Energy of one sign sense-amplifier decision, joules.
    pub sense_energy: f64,
    /// Adder-tree lanes for the norm computation.
    pub adder_lanes: usize,
    /// Energy per add/square operation, joules.
    pub add_energy: f64,
    /// Cycles for the digital square root (non-restoring, 16-bit).
    pub sqrt_cycles: u64,
    /// Energy of one square-root evaluation, joules.
    pub sqrt_energy: f64,
}

impl Default for CtxGenCostModel {
    fn default() -> Self {
        CtxGenCostModel {
            xbar_rows: 128,
            xbar_cols: 1024,
            xbar_cycles: 2,
            cell_energy: 0.2e-15, // 0.2 fJ per FeFET cell read
            sense_energy: 5.0e-15,
            adder_lanes: 32,
            add_energy: 0.05e-12,
            sqrt_cycles: 16,
            sqrt_energy: 0.5e-12,
        }
    }
}

/// Cost of context-generating one layer's activations.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CtxGenCost {
    /// Cycles (patches pipeline; norm and hash proceed in parallel, the
    /// slower unit dominates).
    pub cycles: u64,
    /// Dynamic energy in joules.
    pub energy_j: f64,
}

impl CtxGenCostModel {
    /// Cost of generating `patches` activation contexts of dimensionality
    /// `n` hashed to `k` bits.
    ///
    /// The norm unit and the crossbar run concurrently per patch; patches
    /// pipeline through, so layer cycles are
    /// `patches × max(norm_II, hash_II)`.
    pub fn layer_cost(&self, patches: usize, n: usize, k: usize) -> CtxGenCost {
        if patches == 0 || n == 0 || k == 0 {
            return CtxGenCost::default();
        }
        // Norm: n squares+adds through `adder_lanes` lanes, then sqrt
        // (pipelined, so the initiation interval is the tree stream time;
        // sqrt latency hides after the first patch).
        let norm_ii = (n as f64 / self.adder_lanes as f64).ceil() as u64;
        // Hash: row-tile the n×k projection over the physical crossbar;
        // all k columns evaluate in parallel (the module provisions the
        // full 1024-column width; see the field docs).
        let tiles_r = n.div_ceil(self.xbar_rows) as u64;
        let hash_ii = tiles_r * self.xbar_cycles;
        let cycles = patches as u64 * norm_ii.max(hash_ii) + self.sqrt_cycles;

        let norm_energy = patches as f64 * (n as f64 * self.add_energy + self.sqrt_energy);
        // Active cells: the full n×k projection is evaluated regardless of
        // tiling; sense amps fire once per hash bit.
        let hash_energy =
            patches as f64 * ((n * k) as f64 * self.cell_energy + k as f64 * self.sense_energy);
        CtxGenCost {
            cycles,
            energy_j: norm_energy + hash_energy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_work_zero_cost() {
        let m = CtxGenCostModel::default();
        assert_eq!(m.layer_cost(0, 100, 256).cycles, 0);
        assert_eq!(m.layer_cost(10, 0, 256).energy_j, 0.0);
    }

    #[test]
    fn small_patch_single_tile() {
        let m = CtxGenCostModel::default();
        // n=25 ≤ 128 rows → one row tile × 2 cycles; norm II =
        // ceil(25/32) = 1 → hash-bound at 2 cycles per patch.
        let c = m.layer_cost(100, 25, 256);
        assert_eq!(c.cycles, 100 * 2 + 16);
    }

    #[test]
    fn wide_patch_tiles_with_rows() {
        let m = CtxGenCostModel::default();
        let narrow = m.layer_cost(16, 576, 512);
        let wide = m.layer_cost(16, 4608, 1024);
        // 8×-longer patches → 8× the row tiles (hash width is parallel).
        assert!(
            wide.cycles > 5 * narrow.cycles,
            "wide {} vs narrow {}",
            wide.cycles,
            narrow.cycles
        );
    }

    #[test]
    fn energy_scales_with_bits() {
        let m = CtxGenCostModel::default();
        let short = m.layer_cost(10, 100, 256).energy_j;
        let long = m.layer_cost(10, 100, 1024).energy_j;
        // The norm unit's cost is k-independent, so the ratio is below
        // the pure 4x of the crossbar but still well above 2x.
        assert!(long / short > 2.0, "{}", long / short);
    }

    #[test]
    fn variable_hash_length_saves_ctxgen_energy() {
        // The same layer at k=256 vs k=1024 — the VHL saving applies to
        // the hashing crossbar too, not only the CAM.
        let m = CtxGenCostModel::default();
        let vhl = m.layer_cost(256, 576, 256);
        let max = m.layer_cost(256, 576, 1024);
        assert!(max.energy_j > 2.0 * vhl.energy_j);
        // Cycles are k-independent (all columns evaluate in parallel);
        // only energy rewards the shorter hash.
        assert_eq!(max.cycles, vhl.cycles);
    }

    #[test]
    fn norm_bound_when_hash_is_tiny() {
        let m = CtxGenCostModel {
            adder_lanes: 1, // cripple the adder tree
            ..CtxGenCostModel::default()
        };
        let c = m.layer_cost(10, 512, 256);
        // Norm II = 512 > hash II = 4×2 → norm-bound: 10×512 + sqrt.
        assert_eq!(c.cycles, 10 * 512 + 16);
    }
}
