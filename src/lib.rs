//! # Event Sneak Peek (ESP) — a reproduction of the ISCA 2015 paper
//!
//! *"Accelerating Asynchronous Programs through Event Sneak Peek"*,
//! G. Chadha, S. Mahlke, S. Narayanasamy, ISCA 2015.
//!
//! This crate is the facade over the workspace: it re-exports the public
//! API of every subsystem so downstream users can depend on a single
//! crate. See `DESIGN.md` for the system inventory and `EXPERIMENTS.md`
//! for the paper-vs-measured record.
//!
//! # Quickstart
//!
//! ```
//! use event_sneak_peek::prelude::*;
//!
//! // A small scaled-down "amazon" browsing session.
//! let workload = BenchmarkProfile::amazon().scaled(400_000).build(42).materialise();
//! // Baseline with next-line prefetching, then ESP on top.
//! let base = Simulator::new(SimConfig::next_line()).run(&workload);
//! let esp = Simulator::new(SimConfig::esp_nl()).run(&workload);
//! assert!(esp.total_cycles < base.total_cycles);
//! ```
//!
//! # Layout
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`types`] | `esp-types` | Addresses, cycles, ids, deterministic RNG |
//! | [`trace`] | `esp-trace` | Micro-ops, event records, streams, the packed arena |
//! | [`workload`] | `esp-workload` | Synthetic async-program generator, the 7 profiles |
//! | [`mem`] | `esp-mem` | Caches, prefetchers, cachelets |
//! | [`branch`] | `esp-branch` | Pentium-M-style predictor + ESP contexts |
//! | [`lists`] | `esp-lists` | I/D/B prediction lists with compressed encodings |
//! | [`uarch`] | `esp-uarch` | Interval timing model + runahead |
//! | [`core`] | `esp-core` | The ESP architecture and the [`prelude::Simulator`] facade |
//! | [`learn`] | `esp-learn` | Learned fast-forward models for the sampled mode |
//! | [`stats`] | `esp-stats` | Counters, metrics, report tables |
//! | [`obs`] | `esp-obs` | CPI-stack stall attribution, probes, JSONL tracing |
//! | [`energy`] | `esp-energy` | Energy and area models |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use esp_branch as branch;
pub use esp_core as core;
pub use esp_energy as energy;
pub use esp_learn as learn;
pub use esp_lists as lists;
pub use esp_mem as mem;
pub use esp_obs as obs;
pub use esp_stats as stats;
pub use esp_trace as trace;
pub use esp_types as types;
pub use esp_uarch as uarch;
pub use esp_workload as workload;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use esp_core::{EspFeatures, RunReport, SimConfig, SimMode, Simulator};
    pub use esp_obs::{CpiObserver, CpiStack};
    pub use esp_trace::{PackedWorkload, Workload};
    pub use esp_types::{Addr, Cycle, EventId, EventKindId, LineAddr};
    pub use esp_uarch::MachineConfig;
    pub use esp_workload::{BenchmarkProfile, GeneratedWorkload};
}
