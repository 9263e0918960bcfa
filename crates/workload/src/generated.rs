//! The generated workload: schedule + code image + stream factory.

use crate::code::CodeImage;
use crate::schedule::Schedule;
use crate::walk::EventWalk;
use crate::WorkloadParams;
use esp_trace::{EventRecord, Instr, Workload};
use esp_types::{Addr, EventId};

/// A fully generated asynchronous program, ready to simulate.
///
/// Implements [`Workload`]: the simulator iterates
/// [`GeneratedWorkload::events`] in order and opens actual or speculative
/// streams per event. Streams regenerate deterministically from per-event
/// seeds, so opening the same stream twice yields identical instructions
/// without storing any trace.
///
/// # Examples
///
/// ```
/// use esp_workload::{GeneratedWorkload, WorkloadParams};
/// use esp_trace::Workload;
///
/// let mut p = WorkloadParams::web_default();
/// p.target_instructions = 50_000;
/// let w = GeneratedWorkload::generate(p, 9);
/// let first = w.events()[0];
/// let mut s = w.actual_stream(first.id);
/// assert!(s.next().is_some());
/// ```
#[derive(Clone, Debug)]
pub struct GeneratedWorkload {
    params: WorkloadParams,
    image: CodeImage,
    schedule: Schedule,
    records: Vec<EventRecord>,
}

impl GeneratedWorkload {
    /// Generates a workload from parameters and a seed.
    ///
    /// # Panics
    ///
    /// Panics if `params` fails [`WorkloadParams::validate`].
    pub fn generate(params: WorkloadParams, seed: u64) -> Self {
        params.validate().expect("invalid workload parameters");
        let image = CodeImage::build(&params, seed);
        let schedule = Schedule::build(&params, seed);
        let records = schedule
            .details()
            .iter()
            .enumerate()
            .map(|(i, d)| EventRecord {
                id: EventId::new(d.index),
                kind: d.kind,
                handler_pc: image.function(image.handler_of_kind(d.kind)).entry,
                arg_addr: Addr::new(0x4000_0000 + d.index * params.heap_per_event),
                approx_len: d.len,
                post_time: schedule.post_time(i),
                order_mispredicted: d.order_mispredicted,
            })
            .collect();
        GeneratedWorkload { params, image, schedule, records }
    }

    /// The generator parameters.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// The generated code image.
    pub fn image(&self) -> &CodeImage {
        &self.image
    }

    /// The event schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    fn open(&self, id: EventId, speculative: bool) -> EventWalk<'_> {
        let detail = &self.schedule.details()[id.index() as usize];
        EventWalk::new(&self.image, &self.params, detail, speculative)
    }

    /// Opens the actual stream as a concrete type (avoids boxing in hot
    /// paths; the [`Workload`] impl boxes for object safety).
    pub fn walk_actual(&self, id: EventId) -> EventWalk<'_> {
        self.open(id, false)
    }
}

impl Workload for GeneratedWorkload {
    fn events(&self) -> &[EventRecord] {
        &self.records
    }

    fn actual_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
        Box::new(self.open(id, false))
    }

    fn speculative_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
        Box::new(self.open(id, true))
    }

    fn approx_total_instructions(&self) -> u64 {
        self.schedule.total_instructions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> GeneratedWorkload {
        let mut p = WorkloadParams::web_default();
        p.target_instructions = 60_000;
        p.mean_event_len = 5_000;
        GeneratedWorkload::generate(p, 77)
    }

    #[test]
    fn records_match_schedule() {
        let w = small();
        assert_eq!(w.events().len(), w.schedule().len());
        for (i, r) in w.events().iter().enumerate() {
            let d = &w.schedule().details()[i];
            assert_eq!(r.id.index(), d.index);
            assert_eq!(r.kind, d.kind);
            assert_eq!(r.approx_len, d.len);
        }
        assert_eq!(w.approx_total_instructions(), w.schedule().total_instructions());
    }

    #[test]
    fn streams_regenerate_identically() {
        let w = small();
        let id = w.events()[1].id;
        assert!(w.actual_stream(id).take(3000).eq(w.actual_stream(id).take(3000)));
    }

    #[test]
    fn handler_pcs_are_function_entries() {
        let w = small();
        for r in w.events() {
            let h = w.image().handler_of_kind(r.kind);
            assert_eq!(w.image().function(h).entry, r.handler_pc);
        }
    }

    #[test]
    fn speculative_matches_for_non_diverging_events() {
        let w = small();
        for r in w.events().iter().take(6) {
            let d = &w.schedule().details()[r.id.index() as usize];
            let a: Vec<_> = w.actual_stream(r.id).take(2000).collect();
            let s: Vec<_> = w.speculative_stream(r.id).take(2000).collect();
            match d.diverge_at {
                None => assert_eq!(a, s),
                Some(at) => {
                    let at = at as usize;
                    if at < a.len() {
                        assert_eq!(a[..at], s[..at]);
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.events(), b.events());
    }
}
