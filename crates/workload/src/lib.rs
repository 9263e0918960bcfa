//! Synthetic asynchronous-program workloads for the ESP simulator.
//!
//! The paper drives its simulator with instruction traces of Chromium's
//! renderer process captured while browsing seven real Web 2.0 sites
//! (Fig. 6). Those traces are not available, so this crate generates
//! workloads with the same *statistical anatomy*:
//!
//! * a large generated **code image** (functions → basic blocks →
//!   instruction slots) whose footprint far exceeds the L1-I and rivals
//!   the L2, reproducing the high instruction-miss rates of §2.3;
//! * **events**: each dynamic event walks the code image from its
//!   handler's entry point — calls, loops, biased conditional branches,
//!   and indirect dispatch sites — for a heavy-tailed number of
//!   instructions whose *mean matches the paper's Fig. 6 ratio* of
//!   instructions to events for that benchmark;
//! * a **data model** with hot stack, L2-sized globals, per-kind
//!   structures, per-event cold heaps, and streaming accesses, giving the
//!   paper's moderate data-miss rates and something for the stride/DCU
//!   prefetchers to chew on;
//! * **determinism**: an event's instruction stream is a pure function of
//!   its seed, so a speculative pre-execution re-derives exactly what the
//!   real execution will do — except for a configurable ~2 % of events
//!   that diverge part-way (§5's "remaining events failed when they
//!   veered off the correct non-speculative path"), and a smaller
//!   fraction posted out of predicted order (§4.5);
//! * a bursty **arrival schedule** so the software event queue usually
//!   holds pending events for ESP to peek at, with occasional idle gaps.
//!
//! The seven benchmark profiles ([`BenchmarkProfile::all`]) are
//! parameterised to land in the paper's reported baseline bands
//! (L1-I MPKI ≈ 17–24 with next-line prefetching off, L1-D miss
//! ≈ 3–5 %, branch misprediction ≈ 10 %).
//!
//! # Examples
//!
//! ```
//! use esp_workload::BenchmarkProfile;
//! use esp_trace::Workload;
//!
//! let w = BenchmarkProfile::amazon().scaled(100_000).build(7);
//! assert!(!w.events().is_empty());
//! let mut stream = w.actual_stream(w.events()[0].id);
//! assert!(stream.next().is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
mod code;
mod generated;
mod params;
mod profiles;
mod schedule;
mod walk;

pub use code::{Block, CodeImage, Function, Terminator};
pub use generated::GeneratedWorkload;
pub use params::WorkloadParams;
pub use profiles::BenchmarkProfile;
pub use schedule::{EventDetail, Schedule};
pub use walk::EventWalk;
