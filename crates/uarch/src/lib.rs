//! Interval-style out-of-order timing model with runahead execution.
//!
//! This crate is the CPU-core substrate of the ESP reproduction: an
//! interval simulation (the same abstraction level as the SniperSim
//! infrastructure the paper modified, §5) of the paper's 4-wide,
//! 96-entry-ROB baseline core (Fig. 7).
//!
//! Instructions are processed in retire order. Each charges a base issue
//! cost (pipeline width plus a dispatch-inefficiency adder that stands in
//! for dependence chains and LSQ pressure), and the model adds *exposed*
//! stall cycles for the three penalty sources the paper's evaluation is
//! about:
//!
//! * instruction-fetch misses (fully exposed: the front end starves),
//! * data misses (L2 hits partially hidden by out-of-order execution;
//!   last-level-cache misses fully exposed unless they overlap a prior
//!   outstanding miss within a ROB's worth of instructions — the MLP
//!   rule),
//! * branch mispredictions (15-cycle pipeline restart).
//!
//! A stalled LLC miss is returned to the caller as a [`Stall`] *window*:
//! the cycles the core would otherwise idle. The driver (the `esp-core`
//! crate) spends those windows on ESP pre-execution; this crate's own
//! [`Engine::run_runahead_cursor`] spends them on classic runahead execution —
//! pre-executing the *same* event past the blocking load, warming the
//! data (and incidentally instruction) caches and the branch predictor,
//! skipping loads whose addresses chase in-flight data, and stalling (in
//! the window) on instruction-cache misses, which is why runahead cannot
//! fix the front end (§1, §6.1).
//!
//! [`PerfectFlags`] short-circuits any subset of {L1-I, L1-D, branch
//! predictor} to ideal, which is how Fig. 3's potential study is run.
//!
//! # Examples
//!
//! ```
//! use esp_uarch::{Engine, EngineConfig};
//! use esp_trace::Instr;
//! use esp_types::Addr;
//!
//! let mut e = Engine::new(EngineConfig::baseline());
//! let out = e.step(&Instr::load(Addr::new(0x100), Addr::new(0x8_0000), false));
//! assert!(out.stall.is_some()); // cold LLC miss: a pre-execution window
//! assert!(e.now().as_u64() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod engine;
mod kernel;
mod perfect;
mod runahead;

pub use config::{EngineConfig, MachineConfig, TimingParams};
pub use engine::{
    CycleBreakdown, Engine, EngineStats, Stall, StallKind, StepOutcome, WarmStats,
    WarmTee,
};
pub use kernel::KernelParams;
pub use perfect::PerfectFlags;
pub use runahead::RunaheadOutcome;
