//! The workload abstraction: a program as instruction streams.

use crate::{EventRecord, Instr};
use esp_types::EventId;

/// A complete asynchronous program: an ordered schedule of events, each of
/// which can be opened for normal execution or for speculative
/// pre-execution.
///
/// The two stream methods model the paper's methodology (§5): the *actual*
/// stream is what the event does when it really runs; the *speculative*
/// stream is what a forked-off pre-execution observes. For most events they
/// are identical (the paper measured > 99 % match); a workload may inject
/// divergence to model inter-event dependences.
///
/// The simulator does not read a `Workload` directly: it runs the packed
/// form, [`crate::PackedWorkload`], which [`crate::PackedWorkload::pack`]
/// builds from any workload by draining each stream once. A stream is
/// therefore any iterator of instructions; the simulator's resumable
/// cursors are the packed form's business.
///
/// Workloads are `Sync`: one workload is shared by reference across the
/// matrix workers. Implementations are immutable once built, so this is
/// free.
pub trait Workload: Sync {
    /// The events of the program in execution order.
    fn events(&self) -> &[EventRecord];

    /// Opens the authoritative instruction stream of event `id`; it ends
    /// when the event's handler returns to the looper.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `id` is out of range.
    fn actual_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_>;

    /// Opens the stream a speculative pre-execution of event `id` would
    /// observe. May diverge from [`Workload::actual_stream`] part-way
    /// through.
    fn speculative_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_>;

    /// Total dynamic instructions across all events (sum of `approx_len`
    /// unless an implementation knows better).
    fn approx_total_instructions(&self) -> u64 {
        self.events().iter().map(|e| e.approx_len).sum()
    }
}
