//! Analog processing-in-memory comparators (Table II).
//!
//! Table II of the paper compares DeepCAM against two *algebraic* analog
//! PIM engines on VGG11/CIFAR10:
//!
//! | Work | Device | Energy/inf (µJ) | Cycles/inf (×10⁵) |
//! |---|---|---|---|
//! | NeuroSim (Peng et al.) | RRAM | 34.98 | 5.74 |
//! | Valavi et al. | SRAM (charge domain) | 3.55 | 2.56 |
//! | DeepCAM (VHL) | FeFET | 0.488 | 2.652 |
//!
//! NeuroSim and the Valavi chip are closed tooling/silicon, so this
//! module models each as (energy-per-MAC, MACs-per-cycle) constants
//! **anchored to the published VGG11 row** and applies them to arbitrary
//! model specs. The anchoring is exact by construction for VGG11 — that
//! is the point of a comparator row — while other workloads extrapolate
//! linearly in MACs, which is how analog-macro papers scale their own
//! projections.

use deepcam_core::LayerIr;
use deepcam_models::{DotLayer, ModelSpec};

use crate::report::{BaselineReport, LayerCost};

/// VGG11 (CIFAR10) MAC count used for anchoring, matching
/// `deepcam_models::zoo::vgg11()`.
const VGG11_MACS: f64 = 153.2e6;

/// Which published PIM engine to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimTechnology {
    /// RRAM crossbar macro benchmarked with DNN+NeuroSim (IEDM 2019).
    NeuroSimRram,
    /// 64-tile SRAM charge-domain compute CNN accelerator (JSSC 2019).
    ValaviSram,
}

impl PimTechnology {
    /// Display name matching Table II.
    pub fn name(&self) -> &'static str {
        match self {
            PimTechnology::NeuroSimRram => "NeuroSim (RRAM)",
            PimTechnology::ValaviSram => "Valavi et al. (SRAM)",
        }
    }

    /// Dot-product mode — both comparators are algebraic engines.
    pub fn dot_product_mode(&self) -> &'static str {
        "Algebraic"
    }

    /// Published VGG11/CIFAR10 anchor: `(energy µJ, cycles ×10⁵)`.
    pub fn vgg11_anchor(&self) -> (f64, f64) {
        match self {
            PimTechnology::NeuroSimRram => (34.98, 5.74),
            PimTechnology::ValaviSram => (3.55, 2.56),
        }
    }
}

/// An analog PIM engine as an anchored analytical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogPim {
    /// Which published engine this instance models.
    pub technology: PimTechnology,
    /// Energy per MAC in joules (derived from the anchor).
    pub energy_per_mac: f64,
    /// Effective MAC throughput per cycle (derived from the anchor).
    pub macs_per_cycle: f64,
}

impl AnalogPim {
    /// Creates the model for a published engine.
    pub fn new(technology: PimTechnology) -> Self {
        let (uj, cycles_1e5) = technology.vgg11_anchor();
        AnalogPim {
            technology,
            energy_per_mac: uj * 1e-6 / VGG11_MACS,
            macs_per_cycle: VGG11_MACS / (cycles_1e5 * 1e5),
        }
    }

    /// Cost of one dot-product layer.
    pub fn layer_cost(&self, layer: &DotLayer) -> LayerCost {
        let macs = layer.macs() as f64;
        LayerCost {
            name: layer.name.clone(),
            cycles: (macs / self.macs_per_cycle).ceil() as u64,
            energy_j: macs * self.energy_per_mac,
            utilization: 1.0,
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
        BaselineReport::from_layers(self.technology.name(), ir.workload.clone(), layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepcam_models::zoo;

    #[test]
    fn anchors_reproduce_table2_for_vgg11() {
        let vgg = zoo::vgg11();
        for (tech, uj, cyc) in [
            (PimTechnology::NeuroSimRram, 34.98, 5.74e5),
            (PimTechnology::ValaviSram, 3.55, 2.56e5),
        ] {
            let r = AnalogPim::new(tech).run(&vgg);
            assert!(
                (r.energy_uj() - uj).abs() / uj < 0.03,
                "{}: energy {} vs anchor {uj}",
                tech.name(),
                r.energy_uj()
            );
            assert!(
                (r.total_cycles as f64 - cyc).abs() / cyc < 0.03,
                "{}: cycles {} vs anchor {cyc}",
                tech.name(),
                r.total_cycles
            );
        }
    }

    #[test]
    fn sram_beats_rram_energy() {
        let vgg = zoo::vgg11();
        let rram = AnalogPim::new(PimTechnology::NeuroSimRram).run(&vgg);
        let sram = AnalogPim::new(PimTechnology::ValaviSram).run(&vgg);
        assert!(sram.total_energy_j < rram.total_energy_j);
        assert!(sram.total_cycles < rram.total_cycles);
    }

    #[test]
    fn extrapolates_linearly_in_macs() {
        let pim = AnalogPim::new(PimTechnology::ValaviSram);
        let small = pim.run(&zoo::lenet5());
        let big = pim.run(&zoo::vgg16());
        let mac_ratio = zoo::vgg16().total_macs() as f64 / zoo::lenet5().total_macs() as f64;
        let e_ratio = big.total_energy_j / small.total_energy_j;
        assert!((e_ratio / mac_ratio - 1.0).abs() < 0.01);
    }

    #[test]
    fn both_are_algebraic_engines() {
        assert_eq!(PimTechnology::NeuroSimRram.dot_product_mode(), "Algebraic");
        assert_eq!(PimTechnology::ValaviSram.dot_product_mode(), "Algebraic");
    }
}
