//! Array area model (the second half of Fig. 8).
//!
//! Constants follow the paper's technology assumptions: 45 nm logic with a
//! 2T-2FeFET CAM cell that is ~7.5× smaller than the 16T CMOS TCAM cell
//! (Yin et al., cited in §II-A). The *physical* array always instantiates
//! all four chunks — variable hash length is a runtime power optimization,
//! not an area one — so area depends on the full 1024-bit word plus
//! peripherals.

use crate::chunk::{CHUNK_BITS, MAX_CHUNKS};
use crate::config::CamConfig;

/// Analytical area model, all values in µm² (45 nm).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaModel {
    /// One 2T-2FeFET ternary cell.
    pub cell_um2: f64,
    /// Clocked self-referenced sense amplifier, one per row.
    pub sense_amp_um2: f64,
    /// Match-line precharge + row control, one per row.
    pub row_periphery_um2: f64,
    /// Search-line driver, one per column.
    pub col_driver_um2: f64,
    /// Transmission-gate pair per row per chunk boundary.
    pub gate_um2: f64,
    /// Fixed decode/control block.
    pub fixed_um2: f64,
}

impl Default for AreaModel {
    fn default() -> Self {
        AreaModel {
            // 16T CMOS TCAM ≈ 5.3 µm² at 45 nm; ÷7.5 ≈ 0.7 µm².
            cell_um2: 0.7,
            sense_amp_um2: 8.0,
            row_periphery_um2: 3.0,
            col_driver_um2: 1.5,
            gate_um2: 0.9,
            fixed_um2: 500.0,
        }
    }
}

impl AreaModel {
    /// Total silicon area of the physical array in µm².
    ///
    /// Uses the *physical* word length (4 × 256 bits) regardless of how
    /// many chunks the configuration currently enables.
    pub fn array_area_um2(&self, cfg: &CamConfig) -> f64 {
        let rows = cfg.rows as f64;
        let physical_cols = (CHUNK_BITS * MAX_CHUNKS) as f64;
        rows * physical_cols * self.cell_um2
            + rows * (self.sense_amp_um2 + self.row_periphery_um2)
            + rows * (MAX_CHUNKS - 1) as f64 * self.gate_um2
            + physical_cols * self.col_driver_um2
            + self.fixed_um2
    }

    /// Area in mm², the unit Fig. 8 uses.
    pub fn array_area_mm2(&self, cfg: &CamConfig) -> f64 {
        self.array_area_um2(cfg) / 1e6
    }

    /// Area of a hypothetical fixed-width array with `cols` columns (used
    /// by the Fig. 8 sweep, which treats each row×col point as its own
    /// design).
    pub fn fixed_array_area_um2(&self, rows: usize, cols: usize) -> f64 {
        let chunk_boundaries = (cols / CHUNK_BITS).saturating_sub(1) as f64;
        rows as f64 * cols as f64 * self.cell_um2
            + rows as f64 * (self.sense_amp_um2 + self.row_periphery_um2)
            + rows as f64 * chunk_boundaries * self.gate_um2
            + cols as f64 * self.col_driver_um2
            + self.fixed_um2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_scales_with_rows() {
        let m = AreaModel::default();
        let a64 = m.array_area_um2(&CamConfig::new(64, 256).unwrap());
        let a512 = m.array_area_um2(&CamConfig::new(512, 256).unwrap());
        let ratio = a512 / a64;
        assert!(ratio > 6.0 && ratio < 8.5, "ratio {ratio}");
    }

    #[test]
    fn area_independent_of_enabled_chunks() {
        // Chunk-disable saves power, not silicon.
        let m = AreaModel::default();
        let a = m.array_area_um2(&CamConfig::new(64, 256).unwrap());
        let b = m.array_area_um2(&CamConfig::new(64, 1024).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn fixed_array_area_scales_with_cols() {
        let m = AreaModel::default();
        let narrow = m.fixed_array_area_um2(64, 256);
        let wide = m.fixed_array_area_um2(64, 1024);
        assert!(wide / narrow > 3.0, "ratio {}", wide / narrow);
    }

    #[test]
    fn mm2_conversion() {
        let m = AreaModel::default();
        let cfg = CamConfig::new(64, 256).unwrap();
        assert!((m.array_area_mm2(&cfg) * 1e6 - m.array_area_um2(&cfg)).abs() < 1e-9);
    }

    #[test]
    fn plausible_magnitude() {
        // A 512x1024 FeFET array should be well under 1 mm².
        let m = AreaModel::default();
        let a = m.array_area_mm2(&CamConfig::new(512, 1024).unwrap());
        assert!(a > 0.01 && a < 1.0, "area {a} mm²");
    }
}
