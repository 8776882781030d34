//! # deepcam-bench
//!
//! The evaluation harness of the DeepCAM reproduction: one experiment
//! module per table/figure of the paper, each exposing a pure function
//! that computes the figure's rows, plus thin `src/bin/*` binaries that
//! print them. The `perf`, `compiler` and `serve_throughput` binaries
//! time the engine, the compiler and the serving stack.
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Fig. 2 (approx vs algebraic dot-product) | [`experiments::fig2`] | `fig2_dot_product` |
//! | Fig. 5 (accuracy vs hash length) | [`experiments::fig5`] | `fig5_accuracy` |
//! | Fig. 8 (CAM overhead sweep) | [`experiments::fig8`] | `fig8_cam_overhead` |
//! | Fig. 9 (cycles + utilization) | [`experiments::fig9`] | `fig9_cycles` |
//! | Fig. 10 (normalized energy) | [`experiments::fig10`] | `fig10_energy` |
//! | Table I (setup) | [`experiments::table1`] | `table1_setup` |
//! | Table II (PIM comparison) | [`experiments::table2`] | `table2_pim_comparison` |

// Machine-checked by deepcam-analyze (lint A2): this crate holds no
// unsafe code, and the compiler now enforces that it never grows any.
#![forbid(unsafe_code)]

pub mod experiments;
pub mod guard;
pub mod table;

pub use table::TableWriter;
