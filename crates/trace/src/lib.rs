//! Micro-op and event-trace model for the ESP simulator.
//!
//! The ESP study (ISCA 2015) is trace driven: the authors recorded
//! instruction traces of Chromium's renderer process, one trace per
//! JavaScript event, plus a second *speculative* trace per event recorded in
//! a forked-off renderer (the stream an ESP pre-execution would see). This
//! crate defines the vocabulary those traces are expressed in:
//!
//! * [`Instr`] / [`InstrKind`] — one dynamic micro-op: ALU, load, store, or
//!   one of the branch flavours, with resolved addresses and outcomes.
//! * [`EventRecord`] — static metadata for one dynamic event: handler entry
//!   point, argument-object address, posting time, and the
//!   order-misprediction flag of §4.5 of the paper.
//! * [`Workload`] — a full program: an ordered schedule of events, each of
//!   which can be opened as an *actual* stream (normal execution) or a
//!   *speculative* stream (what a pre-execution would observe, which may
//!   diverge). A stream is any iterator of [`Instr`]s.
//! * [`PackedTrace`] / [`TraceArena`] / [`PackedWorkload`] — the
//!   decode-once, replay-many form and the only one the simulator runs:
//!   instruction streams materialised once into compact struct-of-arrays
//!   storage ([`PackedWorkload::pack`] for any [`Workload`]) and replayed
//!   by allocation-free, resumable cursors that decode raw steps
//!   ([`RawStep`]; [`RawStep::to_instr`] is the one way back to an
//!   [`Instr`]), shared across simulator configurations (see
//!   `docs/PERFORMANCE.md`). Resumability is
//!   load-bearing: ESP pre-execution is re-entrant (§3.4), so the
//!   simulator suspends and resumes these cursors as the processor
//!   bounces between normal and ESP modes.
//! * [`espt`] — the versioned on-disk interchange form of a packed
//!   workload (`.espt` files) and the only trace file format: export a
//!   materialised trace once, import and replay it byte-identically
//!   without the generator (see `docs/TRACE_FORMAT.md`).
//!
//! # Examples
//!
//! ```
//! use esp_trace::{Instr, PackedTrace};
//! use esp_types::Addr;
//!
//! let trace = vec![
//!     Instr::alu(Addr::new(0x100)),
//!     Instr::load(Addr::new(0x104), Addr::new(0x8000), false),
//!     Instr::cond_branch(Addr::new(0x108), true, Addr::new(0x100)),
//! ];
//! let packed: PackedTrace = trace.iter().copied().collect();
//! let mut cursor = packed.cursor();
//! assert_eq!(cursor.next_raw().map(|step| step.to_instr()), Some(trace[0]));
//! assert_eq!(cursor.position(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod espt;
mod instr;
mod packed;
mod record;
mod workload;

pub use instr::{Instr, InstrKind, INSTR_BYTES};
pub use packed::{
    kindbits, EventCursor, PackedCursor, PackedEvent, PackedTrace, PackedWorkload, RawStep,
    RawTraceError, SidecarKey, TraceArena, WarmSink,
};
pub use record::EventRecord;
pub use workload::Workload;
