//! Resumable event instruction streams and the workload abstraction.

use crate::{EventRecord, Instr};
use esp_types::EventId;

/// A resumable cursor over one event's dynamic instruction stream.
///
/// The simulator never holds whole traces in memory; it pulls instructions
/// one at a time. Cursors must be *suspendable*: ESP pre-execution runs a
/// future event's stream for a while, gets switched away (miss resolved, or
/// a deeper jump), and later resumes **exactly where it left off** (§3.4,
/// "Persisting Event Execution Contexts"). Implementations therefore carry
/// all generator state internally.
///
/// Streams are `Send`, so a cursor can be built on one thread and used
/// on another. Every implementation is plain owned data, so this costs
/// nothing.
pub trait EventStream: Send {
    /// Produces the next instruction, or `None` when the event's handler
    /// returns to the looper.
    fn next_instr(&mut self) -> Option<Instr>;

    /// The number of instructions produced so far (the "instruction count
    /// from the beginning of the event" that list entries timestamp).
    fn executed(&self) -> u64;
}

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
/// builds from any workload by draining each stream once.
///
/// Workloads are `Sync`: one workload is shared by reference across the
/// matrix workers. Implementations are immutable once built, so this is
/// free.
pub trait Workload: Sync {
    /// The events of the program in execution order.
    fn events(&self) -> &[EventRecord];

    /// Opens the authoritative instruction stream of event `id`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `id` is out of range.
    fn actual_stream(&self, id: EventId) -> Box<dyn EventStream + '_>;

    /// Opens the stream a speculative pre-execution of event `id` would
    /// observe. May diverge from [`Workload::actual_stream`] part-way
    /// through.
    fn speculative_stream(&self, id: EventId) -> Box<dyn EventStream + '_>;

    /// Total dynamic instructions across all events (sum of `approx_len`
    /// unless an implementation knows better).
    fn approx_total_instructions(&self) -> u64 {
        self.events().iter().map(|e| e.approx_len).sum()
    }
}

/// An [`EventStream`] that replays a pre-recorded vector of instructions.
///
/// The workhorse of unit tests, and the replay side of [`record_stream`].
///
/// # Examples
///
/// ```
/// use esp_trace::{EventStream, Instr, VecEventStream};
/// use esp_types::Addr;
///
/// let mut s = VecEventStream::new(vec![Instr::alu(Addr::new(0))]);
/// assert_eq!(s.next_instr(), Some(Instr::alu(Addr::new(0))));
/// assert_eq!(s.next_instr(), None);
/// assert_eq!(s.executed(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VecEventStream {
    instrs: Vec<Instr>,
    pos: usize,
}

impl VecEventStream {
    /// Creates a stream replaying `instrs` front to back.
    pub fn new(instrs: Vec<Instr>) -> Self {
        VecEventStream { instrs, pos: 0 }
    }

    /// Returns the instructions not yet produced.
    pub fn remaining(&self) -> &[Instr] {
        &self.instrs[self.pos..]
    }
}

impl EventStream for VecEventStream {
    fn next_instr(&mut self) -> Option<Instr> {
        let i = self.instrs.get(self.pos).copied()?;
        self.pos += 1;
        Some(i)
    }

    fn executed(&self) -> u64 {
        self.pos as u64
    }
}

impl FromIterator<Instr> for VecEventStream {
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        VecEventStream::new(iter.into_iter().collect())
    }
}

/// Drains `stream` to completion (or `limit` instructions, whichever comes
/// first) and returns the instructions it produced.
///
/// # Examples
///
/// ```
/// use esp_trace::{record_stream, Instr, VecEventStream};
/// use esp_types::Addr;
///
/// let mut s = VecEventStream::new(vec![Instr::alu(Addr::new(0)); 10]);
/// let got = record_stream(&mut s, 3);
/// assert_eq!(got.len(), 3);
/// ```
pub fn record_stream(stream: &mut dyn EventStream, limit: usize) -> Vec<Instr> {
    let mut out = Vec::new();
    while out.len() < limit {
        match stream.next_instr() {
            Some(i) => out.push(i),
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::Addr;

    fn sample() -> Vec<Instr> {
        (0..5).map(|i| Instr::alu(Addr::new(i * 4))).collect()
    }

    #[test]
    fn vec_stream_replays_in_order() {
        let v = sample();
        let mut s = VecEventStream::new(v.clone());
        let got = record_stream(&mut s, usize::MAX);
        assert_eq!(got, v);
        assert_eq!(s.executed(), 5);
        assert!(s.next_instr().is_none());
        assert_eq!(s.executed(), 5);
    }

    #[test]
    fn record_stream_respects_limit() {
        let mut s = VecEventStream::new(sample());
        assert_eq!(record_stream(&mut s, 2).len(), 2);
        assert_eq!(s.remaining().len(), 3);
    }

    #[test]
    fn from_iterator() {
        let s: VecEventStream = sample().into_iter().collect();
        assert_eq!(s.remaining().len(), 5);
    }

    #[test]
    fn executed_counts_incrementally() {
        let mut s = VecEventStream::new(sample());
        assert_eq!(s.executed(), 0);
        s.next_instr();
        assert_eq!(s.executed(), 1);
        s.next_instr();
        s.next_instr();
        assert_eq!(s.executed(), 3);
    }
}
