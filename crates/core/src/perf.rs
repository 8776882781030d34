//! Performance reports for the DeepCAM accelerator.

/// Energy broken down by architectural component, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// CAM search operations.
    pub cam_search: f64,
    /// CAM row writes (tile loads).
    pub cam_write: f64,
    /// Post-processing (cosine, norm multiply, peripheral ops).
    pub postproc: f64,
    /// Online activation context generation (norm unit + crossbar hash).
    pub ctxgen: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.cam_search + self.cam_write + self.postproc + self.ctxgen
    }

    /// Component-wise accumulation.
    pub fn accumulate(&mut self, other: &EnergyBreakdown) {
        self.cam_search += other.cam_search;
        self.cam_write += other.cam_write;
        self.postproc += other.postproc;
        self.ctxgen += other.ctxgen;
    }
}

/// Per-layer performance of the accelerator.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPerf {
    /// Layer name.
    pub name: String,
    /// Hash length used for this layer.
    pub hash_len: usize,
    /// CAM tile loads.
    pub tile_loads: u64,
    /// CAM search operations.
    pub searches: u64,
    /// Total cycles attributed to the layer.
    pub cycles: u64,
    /// CAM row utilization in `[0, 1]`.
    pub utilization: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

/// Whole-model performance report.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Configuration label, e.g. `"DeepCAM-AS rows=64 variable"`.
    pub config: String,
    /// Workload label.
    pub workload: String,
    /// Per-dot-layer breakdown.
    pub layers: Vec<LayerPerf>,
    /// Total inference cycles.
    pub total_cycles: u64,
    /// Total dynamic energy in joules.
    pub total_energy_j: f64,
    /// Total energy breakdown.
    pub energy: EnergyBreakdown,
}

impl PerfReport {
    /// Builds a report from per-layer results.
    pub fn from_layers(
        config: impl Into<String>,
        workload: impl Into<String>,
        layers: Vec<LayerPerf>,
    ) -> Self {
        let total_cycles = layers.iter().map(|l| l.cycles).sum();
        let mut energy = EnergyBreakdown::default();
        for l in &layers {
            energy.accumulate(&l.energy);
        }
        PerfReport {
            config: config.into(),
            workload: workload.into(),
            layers,
            total_cycles,
            total_energy_j: energy.total(),
            energy,
        }
    }

    /// Cycle-weighted mean CAM utilization (the Fig. 9 metric).
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

    /// Energy in microjoules (Table II unit).
    pub fn energy_uj(&self) -> f64 {
        self.total_energy_j * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cycles: u64, util: f64, search: f64) -> LayerPerf {
        LayerPerf {
            name: "l".into(),
            hash_len: 256,
            tile_loads: 1,
            searches: 10,
            cycles,
            utilization: util,
            energy: EnergyBreakdown {
                cam_search: search,
                cam_write: 0.0,
                postproc: 0.0,
                ctxgen: 0.0,
            },
        }
    }

    #[test]
    fn totals() {
        let r = PerfReport::from_layers("c", "w", vec![layer(10, 1.0, 1e-9), layer(20, 0.5, 2e-9)]);
        assert_eq!(r.total_cycles, 30);
        assert!((r.total_energy_j - 3e-9).abs() < 1e-15);
        assert!((r.mean_utilization() - (10.0 + 10.0) / 30.0).abs() < 1e-9);
    }

    #[test]
    fn breakdown_accumulates() {
        let mut a = EnergyBreakdown {
            cam_search: 1.0,
            cam_write: 2.0,
            postproc: 3.0,
            ctxgen: 4.0,
        };
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.total(), 20.0);
    }

    #[test]
    fn empty_report() {
        let r = PerfReport::from_layers("c", "w", vec![]);
        assert_eq!(r.total_cycles, 0);
        assert_eq!(r.mean_utilization(), 0.0);
    }
}
