//! The benchmark harness: regenerates every figure and table of the ESP
//! paper's evaluation (§5–§6).
//!
//! The `repro` binary (`cargo run --release -p esp-bench --bin repro --
//! all`) prints each figure in the same rows/series layout the paper
//! uses; `repro bench` times the simulator itself and is the one writer
//! of `BENCH_repro.json`. `repro explain <benchmark>` prints the
//! baseline-vs-ESP CPI-stack delta (see [`explain`]), and `--trace
//! <path>` exposes the `esp-obs` observability layer, one CPI stack per
//! run line (glossary and trace schema in `docs/OBSERVABILITY.md`).
//!
//! Figures are regenerated at a configurable instruction scale (default
//! 400 000 per benchmark; see `DESIGN.md` on scaling) with per-(profile,
//! configuration) run caching, since many figures share the same
//! baseline runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod explain;
pub mod figures;
pub mod golden;
pub mod runner;
pub mod source;

pub use runner::{ConfigKey, FigureReport, PhaseSeconds, Runner};
pub use source::WorkloadSpec;
