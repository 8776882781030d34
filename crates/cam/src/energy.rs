//! EvaCAM-style analytical energy and latency model.
//!
//! The paper extracts FeFET CAM search energy and area from EvaCAM (Liu
//! et al., DATE 2022) for row sizes {64,128,256,512} and column sizes
//! {256,512,768,1024} (Fig. 8). EvaCAM itself is closed simulation
//! tooling, so this module substitutes an analytical model with the same
//! structure — per-bit array terms plus per-row/per-column peripheral
//! terms — calibrated to published FeFET TCAM figures:
//!
//! * FeFET TCAM search ≈ 1 fJ/bit/search and ~2.4× lower search energy
//!   than CMOS (Yin et al., IEEE TED 2020; paper §II-A);
//! * sense-amplifier + match-line peripheral ≈ tens of fJ per row;
//! * FeFET program (write) pulses ≈ 10 fJ/bit.
//!
//! Absolute joules are approximate by design; what the experiments rely
//! on is the *scaling*: energy linear in active bits (rows × enabled
//! chunks × 256) with a peripheral floor — this is what makes variable
//! hash lengths profitable (Fig. 10).

use crate::config::CamConfig;

/// Energy and latency of one CAM operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchCost {
    /// Dynamic energy in joules.
    pub energy_j: f64,
    /// Latency in clock cycles.
    pub cycles: u64,
}

/// Per-operation cost model for a CAM configuration.
///
/// # Example
///
/// ```
/// use deepcam_cam::{CamConfig, CamCostModel};
///
/// let model = CamCostModel::default();
/// let small = model.search_cost(&CamConfig::new(64, 256)?);
/// let large = model.search_cost(&CamConfig::new(512, 1024)?);
/// assert!(large.energy_j > small.energy_j * 20.0); // ~32x more bits
/// assert_eq!(small.cycles, large.cycles);          // O(1) search time
/// # Ok::<(), deepcam_cam::CamError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CamCostModel {
    /// Search energy per active cell (search-line toggle + cell
    /// evaluation), joules/bit.
    pub search_energy_per_bit: f64,
    /// Match-line precharge energy per active cell, joules/bit.
    pub precharge_energy_per_bit: f64,
    /// Clocked self-referenced sense amplifier energy per row per search.
    pub sense_amp_energy_per_row: f64,
    /// Energy of one closed transmission gate per row per search.
    pub gate_energy: f64,
    /// Search-line driver energy per active column per search.
    pub driver_energy_per_col: f64,
    /// Fixed per-search control/decode energy.
    pub fixed_search_energy: f64,
    /// FeFET program energy per bit written.
    pub write_energy_per_bit: f64,
    /// Fixed per-row-write control energy.
    pub fixed_write_energy: f64,
    /// Search latency in cycles: precharge + sense window + readout.
    pub search_cycles: u64,
    /// Cycles to program one row.
    pub write_cycles_per_row: u64,
}

impl Default for CamCostModel {
    fn default() -> Self {
        CamCostModel {
            search_energy_per_bit: 1.0e-15,    // 1.0 fJ/bit
            precharge_energy_per_bit: 0.4e-15, // 0.4 fJ/bit
            sense_amp_energy_per_row: 15.0e-15,
            gate_energy: 2.0e-15,
            driver_energy_per_col: 5.0e-15,
            fixed_search_energy: 0.5e-12, // 0.5 pJ
            write_energy_per_bit: 10.0e-15,
            fixed_write_energy: 0.1e-12,
            search_cycles: 4, // precharge(1) + sense(2) + readout(1)
            write_cycles_per_row: 2,
        }
    }
}

impl CamCostModel {
    /// Cost of one parallel search over the whole array.
    ///
    /// Energy scales with *active* bits only: disabled chunks are neither
    /// precharged nor driven. Latency is constant — the O(1) property.
    pub fn search_cost(&self, cfg: &CamConfig) -> SearchCost {
        self.search_cost_with_rows(cfg, cfg.rows)
    }

    /// Cost of one parallel search when only `active_rows` rows hold
    /// valid contexts — unoccupied rows are neither precharged nor
    /// sensed, so a partially-filled tile searches cheaper.
    ///
    /// # Panics
    ///
    /// Panics if `active_rows > cfg.rows`.
    pub fn search_cost_with_rows(&self, cfg: &CamConfig, active_rows: usize) -> SearchCost {
        assert!(
            active_rows <= cfg.rows,
            "active rows {active_rows} exceed array height {}",
            cfg.rows
        );
        let rows = active_rows as f64;
        let cols = cfg.word_bits() as f64;
        let bits = rows * cols;
        let energy = bits * (self.search_energy_per_bit + self.precharge_energy_per_bit)
            + rows * self.sense_amp_energy_per_row
            + rows * cfg.chunks.active_gates() as f64 * self.gate_energy
            + cols * self.driver_energy_per_col
            + self.fixed_search_energy;
        SearchCost {
            energy_j: energy,
            cycles: self.search_cycles,
        }
    }

    /// Cost of writing `rows_written` rows (a tile load).
    pub fn write_cost(&self, cfg: &CamConfig, rows_written: usize) -> SearchCost {
        let bits = rows_written as f64 * cfg.word_bits() as f64;
        SearchCost {
            energy_j: bits * self.write_energy_per_bit
                + rows_written as f64 * self.fixed_write_energy,
            cycles: self.write_cycles_per_row * rows_written as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(rows: usize, cols: usize) -> CamConfig {
        CamConfig::new(rows, cols).unwrap()
    }

    #[test]
    fn search_energy_scales_with_bits() {
        let m = CamCostModel::default();
        let e64 = m.search_cost(&cfg(64, 256)).energy_j;
        let e128 = m.search_cost(&cfg(128, 256)).energy_j;
        let e512w = m.search_cost(&cfg(64, 512)).energy_j;
        // Doubling rows slightly more than doubles the array term but the
        // fixed term damps it; ratio must be in (1.5, 2.2).
        assert!(e128 / e64 > 1.5 && e128 / e64 < 2.2, "ratio {}", e128 / e64);
        assert!(e512w > e64 * 1.5);
    }

    #[test]
    fn variable_hash_length_saves_energy() {
        // The crux of Fig. 10: 256-bit search must cost much less than
        // 1024-bit search on the same rows.
        let m = CamCostModel::default();
        let short = m.search_cost(&cfg(64, 256)).energy_j;
        let long = m.search_cost(&cfg(64, 1024)).energy_j;
        assert!(
            long / short > 2.5,
            "1024-bit should cost >2.5x a 256-bit search, got {}",
            long / short
        );
    }

    #[test]
    fn latency_is_constant_in_size() {
        let m = CamCostModel::default();
        assert_eq!(
            m.search_cost(&cfg(64, 256)).cycles,
            m.search_cost(&cfg(512, 1024)).cycles
        );
    }

    #[test]
    fn write_cost_scales_with_rows() {
        let m = CamCostModel::default();
        let c = cfg(64, 256);
        let one = m.write_cost(&c, 1);
        let ten = m.write_cost(&c, 10);
        assert!((ten.energy_j / one.energy_j - 10.0).abs() < 1e-6);
        assert_eq!(ten.cycles, 10 * one.cycles);
        assert_eq!(m.write_cost(&c, 0).cycles, 0);
    }

    #[test]
    fn energy_magnitudes_plausible() {
        // 64x256 search should land in the tens of picojoules — the scale
        // EvaCAM reports for FeFET arrays of this size.
        let m = CamCostModel::default();
        let e = m.search_cost(&cfg(64, 256)).energy_j;
        assert!(e > 1e-12 && e < 1e-10, "implausible search energy {e}");
    }
}
