//! Common report types shared by all baseline simulators.

/// Cost of one layer on a baseline accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerCost {
    /// Layer name.
    pub name: String,
    /// Compute cycles.
    pub cycles: u64,
    /// Dynamic energy in joules.
    pub energy_j: f64,
    /// Processing-element utilization in `[0, 1]` (1.0 when the notion
    /// does not apply).
    pub utilization: f64,
}

/// Whole-model inference cost on a baseline accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Accelerator name.
    pub accelerator: String,
    /// Workload label (e.g. `"LeNet5 MNIST"`).
    pub workload: String,
    /// Per-layer breakdown for the dot-product layers.
    pub layers: Vec<LayerCost>,
    /// Total inference cycles.
    pub total_cycles: u64,
    /// Total dynamic energy per inference in joules.
    pub total_energy_j: f64,
}

impl BaselineReport {
    /// Builds a report from per-layer costs.
    pub fn from_layers(
        accelerator: impl Into<String>,
        workload: impl Into<String>,
        layers: Vec<LayerCost>,
    ) -> Self {
        let total_cycles = layers.iter().map(|l| l.cycles).sum();
        let total_energy_j = layers.iter().map(|l| l.energy_j).sum();
        BaselineReport {
            accelerator: accelerator.into(),
            workload: workload.into(),
            layers,
            total_cycles,
            total_energy_j,
        }
    }

    /// Cycle-weighted mean utilization.
    pub fn mean_utilization(&self) -> f64 {
        let total: u64 = self.layers.iter().map(|l| l.cycles).sum();
        if total == 0 {
            return 0.0;
        }
        self.layers
            .iter()
            .map(|l| l.utilization * l.cycles as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Energy in microjoules (the unit of Table II).
    pub fn energy_uj(&self) -> f64 {
        self.total_energy_j * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(name: &str, cycles: u64, energy: f64, util: f64) -> LayerCost {
        LayerCost {
            name: name.into(),
            cycles,
            energy_j: energy,
            utilization: util,
        }
    }

    #[test]
    fn totals_sum_layers() {
        let r = BaselineReport::from_layers(
            "X",
            "W",
            vec![layer("a", 10, 1e-9, 0.5), layer("b", 30, 3e-9, 1.0)],
        );
        assert_eq!(r.total_cycles, 40);
        assert!((r.total_energy_j - 4e-9).abs() < 1e-15);
    }

    #[test]
    fn utilization_is_cycle_weighted() {
        let r = BaselineReport::from_layers(
            "X",
            "W",
            vec![layer("a", 10, 0.0, 0.5), layer("b", 30, 0.0, 1.0)],
        );
        assert!((r.mean_utilization() - 0.875).abs() < 1e-9);
    }

    #[test]
    fn empty_report() {
        let r = BaselineReport::from_layers("X", "W", vec![]);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.mean_utilization(), 0.0);
    }

    #[test]
    fn energy_unit_conversion() {
        let r = BaselineReport::from_layers("X", "W", vec![layer("a", 1, 2.5e-6, 1.0)]);
        assert!((r.energy_uj() - 2.5).abs() < 1e-9);
    }
}
