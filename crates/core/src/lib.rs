//! The Event Sneak Peek (ESP) architecture — the primary contribution of
//! the ISCA 2015 paper, plus the simulator facade that drives it.
//!
//! ESP exploits a structural property of asynchronous programs: events
//! wait in a queue before they execute. By exposing that queue to the
//! processor, a core that would otherwise idle on a last-level-cache miss
//! can *jump ahead* and speculatively pre-execute the next one or two
//! queued events, recording what they touch. When those events later run
//! for real, the recordings drive timely instruction/data prefetches and
//! just-in-time branch-predictor training.
//!
//! This crate implements the whole mechanism:
//!
//! * the hardware event queue view and ESP-1/ESP-2 execution contexts
//!   with re-entrant pre-execution,
//! * the way-partitioned cachelets (from `esp-mem`) and prediction lists
//!   (from `esp-lists`) wired into the window-spending state machine,
//! * the normal-mode replay path (190-instruction prefetch lead,
//!   30-branch predictor training lead, looper-prologue head start),
//! * the event-completion context shift, including list promotion,
//!   cachelet way rotation, and the order-misprediction discard,
//! * the design-space variants of Figs. 10–12 ([`EspFeatures`],
//!   [`SimConfig`]) — naive ESP, list subsets, branch-context policies,
//!   ideal ESP — and the Fig. 13 depth probe with working-set tracking,
//! * the Fig. 8 hardware area inventory ([`area_table`]).
//!
//! # Examples
//!
//! ```
//! use esp_core::{SimConfig, Simulator};
//! use esp_workload::BenchmarkProfile;
//!
//! let w = BenchmarkProfile::amazon().scaled(60_000).build(7).materialise();
//! let nl = Simulator::new(SimConfig::next_line()).run(&w);
//! let esp = Simulator::new(SimConfig::esp_nl()).run(&w);
//! assert!(esp.busy_cycles() <= nl.busy_cycles());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod config;
mod esp_state;
mod lineset;
mod replay;
mod report;
mod sampling;
mod side_cache;
mod simulator;
mod working_set;

pub use area::{area_table, total_added_bytes, AreaRow};
pub use config::{EspFeatures, SimConfig, SimMode};
pub use esp_state::EspRunStats;
pub use lineset::LineSet;
pub use replay::{ReplayLists, ReplayStats};
pub use report::RunReport;
pub use esp_learn::{LearnParams, LearnedStats, ModelKind};
pub use sampling::{SampleParams, SampledRun, SamplingEstimate};
pub use simulator::{SideEffectLog, Simulator};
pub use working_set::{percentile, WorkingSetReport};
