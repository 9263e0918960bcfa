//! Intra-run event-level parallelism: optimistic chunk simulation with a
//! deterministic input-order merge.
//!
//! A single simulation is a serial fold over its event sequence — event
//! `k+1` starts from the micro-architectural state event `k` left behind.
//! This module parallelises that fold anyway, without giving up
//! byte-identical output, by exploiting the same property the paper
//! measures for ESP itself: consecutive events of an asynchronous program
//! are overwhelmingly independent (§5 reports > 99 % of pre-executed
//! events match their real execution).
//!
//! The scheme, end to end:
//!
//! 1. **Partition** — the event sequence is split into contiguous chunks
//!    of roughly equal instruction weight ([`esp_par::partition_weighted`]),
//!    one per worker thread.
//! 2. **Warm** — each worker (except chunk 0, which simply starts from
//!    reset) *predicts* its chunk's entry state by functionally warming
//!    over every earlier event: the same stat-free cache/predictor/
//!    prefetcher updates the sampling mode uses for fast-forwarding,
//!    followed by [`esp_uarch::Engine::resync_chunk_entry`] to align the
//!    clock with the chunk's first post time.
//! 3. **Simulate optimistically** — the worker runs its chunk in full
//!    detail from the predicted state via `Simulator::run_events_range`,
//!    recording window/event probe records and its counter deltas.
//! 4. **Merge deterministically** — chunks are folded back *in input
//!    order*. Chunk `k` is accepted only if the authoritative state left
//!    by chunks `0..k` is *behaviourally equal* to the worker's predicted
//!    entry state ([`esp_uarch::Engine::boundary_matches`]: caches
//!    compared by recency rank, settled fill times canonicalised,
//!    predictor tables and prefetchers exact) with no replay lists
//!    pending. Equality is checked *modulo a uniform clock shift*: on the
//!    shipped bursty schedules the core is almost always backlogged, so
//!    the authoritative clock sits some `Δ ≥ 0` cycles past the chunk's
//!    first post time. Every timing rule in the engine is
//!    shift-invariant provided no event in the chunk idled on an
//!    absolute post time (chunks that idled mid-chunk under `Δ > 0` are
//!    rejected), so an accepted chunk's recorded output is translated
//!    `Δ` cycles forward — spans, windows, the exit clock, and in-flight
//!    fill times ([`esp_uarch::Engine::shift_chunk_exit`]) — and is then
//!    *exactly* what the serial path would have produced. A conflicting
//!    chunk is **repaired**: re-simulated serially from the
//!    authoritative state. Either way the merged result is the serial
//!    one; acceptance only decides whether the worker's output could be
//!    reused.
//!
//! Because repair is always available, determinism never depends on the
//! conflict rate: [`Simulator::run_intra`] returns byte-identical
//! [`RunReport`]s (and probe streams — see below) at any thread count,
//! which the `intra_determinism` integration test asserts across the full
//! profile × mode matrix. ESP configurations conflict by construction —
//! speculative ESP state is created inside timing-driven stall windows
//! that functional warming cannot predict — so their chunks always
//! repair; the mode is profitable for Baseline/Runahead-style configs and
//! still merely correct for ESP.
//!
//! **Probe semantics.** Intra-run mode delivers [`Probe::on_window`],
//! [`Probe::on_event`] (in input order) and one final [`Probe::on_run`],
//! exactly as the serial path does; per-instruction `on_step`/`on_stall`
//! callbacks are not delivered (workers record at window/event
//! granularity). JSONL tracing and CPI-conservation observers are built
//! on the delivered subset, so their output is unchanged.

use crate::lineset::LineSet;
use crate::replay::ReplayStats;
use crate::report::RunReport;
use crate::sampling::{add_engine, add_esp, add_replay, add_stack};
use crate::simulator::{Exact, LiveState, Simulator};
use crate::EspRunStats;
use esp_branch::PredictorContext;
use esp_energy::{ActivityCounts, EnergyModel};
use esp_mem::HierarchySnapshot;
use esp_obs::{CpiStack, EventSpan, NullProbe, Probe, RunSummary, WindowRecord};
use esp_stats::CacheStats;
use esp_trace::{PackedWorkload, Workload};
use esp_types::Cycle;
use esp_uarch::{BoundaryView, CycleBreakdown, EngineStats};
use std::ops::Range;

/// Below this many events per requested chunk the run falls back to the
/// serial path: chunk overheads (functional warming is linear in the
/// prefix) would dominate, and tiny runs are fast anyway.
const MIN_EVENTS_PER_CHUNK: usize = 4;

/// How one intra-parallel run went: chunk accounting and conflict causes.
#[derive(Clone, Debug, Default)]
pub struct IntraStats {
    /// Worker threads requested.
    pub threads: usize,
    /// Chunks the event sequence was split into (1 on serial fallback).
    pub chunks: usize,
    /// Chunks whose optimistic simulation was accepted at merge (chunk 0
    /// always is — it starts from the authoritative reset state).
    pub accepted: usize,
    /// Chunks re-simulated serially from the authoritative predecessor
    /// state.
    pub repaired: usize,
    /// Events in the run.
    pub events: usize,
    /// True when the run was too small (or `threads <= 1`) and the serial
    /// path ran instead.
    pub serial_fallback: bool,
    /// Why chunks conflicted: `(reason, count)`, first occurrence first.
    pub conflicts: Vec<(&'static str, u64)>,
}

impl IntraStats {
    /// Fraction of speculative chunks (all but chunk 0) that conflicted
    /// and took the repair path. 0 for serial fallbacks.
    pub fn conflict_rate(&self) -> f64 {
        if self.chunks <= 1 {
            0.0
        } else {
            self.repaired as f64 / (self.chunks - 1) as f64
        }
    }

    fn note_conflict(&mut self, reason: &'static str) {
        self.repaired += 1;
        match self.conflicts.iter_mut().find(|(r, _)| *r == reason) {
            Some((_, n)) => *n += 1,
            None => self.conflicts.push((reason, 1)),
        }
    }
}

/// An intra-parallel run: the (serial-identical) report plus the
/// parallelism accounting.
#[derive(Clone, Debug)]
pub struct IntraRun {
    /// The run report — byte-identical to [`Simulator::run`]'s.
    pub report: RunReport,
    /// Chunk/conflict accounting for this run.
    pub stats: IntraStats,
}

/// A window or event record in emission order. Workers buffer these; the
/// merge replays them into the caller's probe once the chunk is ordered.
#[derive(Clone, Copy, Debug)]
enum Item {
    Window(WindowRecord),
    Event(EventSpan),
}

/// Buffers the ordered window/event stream of one chunk.
#[derive(Default)]
struct RecordingProbe {
    items: Vec<Item>,
}

impl Probe for RecordingProbe {
    fn on_window(&mut self, window: &WindowRecord) {
        self.items.push(Item::Window(*window));
    }

    fn on_event(&mut self, span: &EventSpan) {
        self.items.push(Item::Event(*span));
    }
}

/// Every counter a chunk's contribution to the report is computed from,
/// sampled at the chunk's entry and exit.
#[derive(Clone)]
struct CounterSnapshot {
    stack: CpiStack,
    engine: EngineStats,
    replay: ReplayStats,
    mem: HierarchySnapshot,
    /// ESP-context branch totals `(predicted, mispredicted)`.
    esp_bp: (u64, u64),
    esp: Option<EspRunStats>,
}

fn snapshot(live: &LiveState<'_>) -> CounterSnapshot {
    let b1 = live.engine.bp().stats(PredictorContext::Esp1);
    let b2 = live.engine.bp().stats(PredictorContext::Esp2);
    CounterSnapshot {
        stack: *live.engine.cpi_stack(),
        engine: *live.engine.stats(),
        replay: live.replay.stats(),
        mem: live.engine.mem().snapshot(),
        esp_bp: (b1.total() + b2.total(), b1.mispredicted + b2.mispredicted),
        esp: live.esp.as_ref().map(|e| e.stats().clone()),
    }
}

fn add_cache(into: &mut CacheStats, a: &CacheStats, b: &CacheStats) {
    into.hits += a.hits - b.hits;
    into.misses += a.misses - b.misses;
    into.partial_hits += a.partial_hits - b.partial_hits;
    into.prefetch_fills += a.prefetch_fills - b.prefetch_fills;
    into.prefetch_useful += a.prefetch_useful - b.prefetch_useful;
}

/// Input-order totals of every per-chunk counter delta. Because the
/// deltas of accepted chunks equal what the serial run would have charged
/// over the same events (behavioural boundary equality) and repaired
/// chunks *are* the serial run over their events, these totals equal the
/// serial run's final counters exactly.
#[derive(Default)]
struct Totals {
    stack: CpiStack,
    engine: EngineStats,
    replay: ReplayStats,
    mem: HierarchySnapshot,
    esp: EspRunStats,
    esp_branches: u64,
    esp_mispredicts: u64,
}

impl Totals {
    fn accumulate(&mut self, before: &CounterSnapshot, after: &CounterSnapshot) {
        add_stack(&mut self.stack, &after.stack.since(&before.stack));
        add_engine(&mut self.engine, &after.engine, &before.engine);
        add_replay(&mut self.replay, &after.replay, &before.replay);
        add_cache(&mut self.mem.l1i, &after.mem.l1i, &before.mem.l1i);
        add_cache(&mut self.mem.l1d, &after.mem.l1d, &before.mem.l1d);
        add_cache(&mut self.mem.l2, &after.mem.l2, &before.mem.l2);
        self.esp_branches += after.esp_bp.0 - before.esp_bp.0;
        self.esp_mispredicts += after.esp_bp.1 - before.esp_bp.1;
        if let (Some(a), Some(b)) = (after.esp.as_ref(), before.esp.as_ref()) {
            add_esp(&mut self.esp, a, b);
        }
    }
}

/// What one worker produced for its chunk.
enum ChunkSim<'w> {
    /// The chunk was simulated (from reset for chunk 0, from a
    /// warm-predicted entry state otherwise).
    Done {
        /// The predicted entry state the merge must validate
        /// (`None` only for chunk 0, which needs no validation).
        entry: Option<Box<BoundaryView>>,
        before: Box<CounterSnapshot>,
        after: Box<CounterSnapshot>,
        live: Box<LiveState<'w>>,
        items: Vec<Item>,
    },
    /// The worker could not predict a usable entry state; the merge
    /// re-simulates the chunk from the authoritative state.
    Incomparable(&'static str),
}

impl Simulator {
    /// [`Simulator::run`] with intra-run event-level parallelism: the
    /// event sequence is chunked across up to `threads` workers,
    /// simulated optimistically, and merged deterministically (module
    /// docs). The returned report is byte-identical to the serial one at
    /// every thread count; `threads <= 1` or a small run takes the serial
    /// path outright.
    pub fn run_intra(&self, workload: &PackedWorkload, threads: usize) -> IntraRun {
        self.run_intra_probed(workload, threads, &mut NullProbe)
    }

    /// [`Simulator::run_intra`] with an observability probe. The probe
    /// receives window and event records in input order plus the final
    /// run summary — the same stream the serial path emits — but no
    /// per-instruction `on_step`/`on_stall` callbacks (see module docs).
    pub fn run_intra_probed<P: Probe>(
        &self,
        workload: &PackedWorkload,
        threads: usize,
        probe: &mut P,
    ) -> IntraRun {
        let events = workload.events();
        let n = events.len();
        if threads <= 1 || n < threads * MIN_EVENTS_PER_CHUNK {
            let report = self.run_probed(workload, probe);
            return IntraRun {
                report,
                stats: IntraStats {
                    threads,
                    chunks: 1,
                    accepted: 1,
                    events: n,
                    serial_fallback: true,
                    ..IntraStats::default()
                },
            };
        }
        let n_looper = self.config().looper_instrs as u64;
        let weights: Vec<u64> = events.iter().map(|e| e.approx_len + n_looper).collect();
        let plan = esp_par::partition_weighted(&weights, threads);
        let sims = esp_par::parallel_map(threads, &plan, |k, range| {
            self.simulate_chunk(workload, k, range.clone())
        });
        self.merge_chunks(workload, &plan, sims, threads, probe)
    }

    /// One worker's job: predict the chunk's entry state by functional
    /// warming (chunk 0 starts from reset), then simulate the chunk in
    /// full detail, buffering probe records and counter snapshots.
    fn simulate_chunk<'w>(
        &self,
        workload: &'w PackedWorkload,
        k: usize,
        range: Range<usize>,
    ) -> ChunkSim<'w> {
        let mut live = self.new_live(workload, Exact);
        let mut entry = None;
        if k > 0 {
            if live.esp.is_some() {
                // ESP speculative state is created inside timing-driven
                // stall windows; a functional warm cannot predict it, so
                // the merge would always repair. Skip the wasted work.
                return ChunkSim::Incomparable("esp-speculative-state");
            }
            let ref_at = workload.events()[range.start].post_time;
            if !self.warm_to_chunk(workload, &mut live, range.start, ref_at) {
                return ChunkSim::Incomparable("entry-clock-overrun");
            }
            entry = Some(Box::new(live.engine.boundary_view()));
        }
        let before = Box::new(snapshot(&live));
        let mut rec = RecordingProbe::default();
        let mut iws = LineSet::new();
        let mut dws = LineSet::new();
        self.run_events_range(workload, &mut live, range, &mut rec, &mut iws, &mut dws);
        let after = Box::new(snapshot(&live));
        ChunkSim::Done { entry, before, after, live: Box::new(live), items: rec.items }
    }

    /// Functionally warms `live` over events `0..start` — the sampling
    /// mode's stat-free fast-forward recipe, whole-run scale — and
    /// resyncs the clock to the chunk's first post time `ref_at`. Returns
    /// false when the warm clock overran `ref_at` (the chunk cannot be
    /// compared and must be repaired).
    fn warm_to_chunk<'w>(
        &self,
        workload: &'w PackedWorkload,
        live: &mut LiveState<'w>,
        start: usize,
        ref_at: Cycle,
    ) -> bool {
        let events = workload.events();
        let line_bytes = self.config().engine.machine.hierarchy.l1i.line_bytes;
        let n_looper = self.config().looper_instrs as u64;
        let ideal = self.config().esp_features().is_some_and(|f| f.ideal);
        for (idx, record) in events.iter().enumerate().take(start) {
            live.engine.idle_until(record.post_time);
            // Arm (with no lists — non-ESP) so the replay PIR evolves as
            // it does on the serial path.
            live.replay.arm(None, ideal, &mut live.engine);
            for i in 0..n_looper {
                live.engine.warm_step(&Simulator::looper_instr(idx, i));
            }
            let mut stream = workload.arena().event(record.id.index() as usize).actual_cursor();
            let walked = stream.warm_region(u64::MAX, line_bytes, &mut live.engine);
            live.engine.warm_retire(walked);
        }
        live.engine.resync_chunk_entry(ref_at)
    }

    /// The deterministic input-order merge: folds chunk results into the
    /// authoritative state, accepting behaviourally-matching chunks and
    /// repairing the rest, while replaying probe records in order.
    fn merge_chunks<'w, P: Probe>(
        &self,
        workload: &'w PackedWorkload,
        plan: &[Range<usize>],
        sims: Vec<ChunkSim<'w>>,
        threads: usize,
        probe: &mut P,
    ) -> IntraRun {
        let events = workload.events();
        let mut stats = IntraStats {
            threads,
            chunks: plan.len(),
            events: events.len(),
            ..IntraStats::default()
        };
        let mut totals = Totals::default();
        let mut iws = LineSet::new();
        let mut dws = LineSet::new();

        let mut sims = sims.into_iter();
        let ChunkSim::Done { before, after, live, items, .. } =
            sims.next().expect("plan has at least one chunk")
        else {
            unreachable!("chunk 0 always simulates from reset")
        };
        totals.accumulate(&before, &after);
        replay_items(&items, None, probe);
        stats.accepted += 1;
        let mut auth = *live;

        for (i, sim) in sims.enumerate() {
            let range = plan[i + 1].clone();
            let ref_at = events[range.start].post_time;
            let auth_now = auth.engine.now();
            // The serial path would start this chunk's first event at
            // max(auth_now, ref_at): idling forward when the queue
            // drained (idle_gap), or already `shift` cycles past the
            // worker's assumed entry clock when the core is backlogged.
            let (shift, idle_gap) = if auth_now.is_after(ref_at) {
                (auth_now - ref_at, 0)
            } else {
                (0, ref_at - auth_now)
            };
            let verdict = match sim {
                ChunkSim::Incomparable(reason) => Err(reason),
                ChunkSim::Done { entry, before, after, live, items } => {
                    let entry = entry.expect("non-zero chunks always carry an entry view");
                    if auth.pending_lists.is_some() {
                        Err("pending-replay-lists")
                    } else if shift > 0 && chunk_idled(&items) {
                        // The worker waited on an absolute post time
                        // mid-chunk; its timeline is not shift-invariant.
                        Err("intra-chunk idle")
                    } else {
                        match auth.engine.boundary_matches(&entry, ref_at + shift) {
                            Ok(()) => Ok((before, after, live, items)),
                            Err(reason) => Err(reason),
                        }
                    }
                }
            };
            match verdict {
                Ok((before, after, mut live, items)) => {
                    // Translate the worker's chunk `shift` cycles forward
                    // onto the serial timeline, and re-anchor the first
                    // span to the predecessor's end (adding the idle gap
                    // the serial path would have charged waiting for
                    // `ref_at`). Exactly one of shift/idle_gap is
                    // non-zero.
                    totals.accumulate(&before, &after);
                    totals.stack.idle += idle_gap;
                    live.engine.shift_chunk_exit(shift);
                    replay_items(&items, Some(Patch { shift, start: auth_now, idle_gap }), probe);
                    auth = *live;
                    stats.accepted += 1;
                }
                Err(reason) => {
                    stats.note_conflict(reason);
                    let before = snapshot(&auth);
                    let mut rec = RecordingProbe::default();
                    self.run_events_range(
                        workload, &mut auth, range, &mut rec, &mut iws, &mut dws,
                    );
                    let after = snapshot(&auth);
                    totals.accumulate(&before, &after);
                    replay_items(&rec.items, None, probe);
                }
            }
        }

        let report = self.assemble_intra_report(&mut auth, &totals, events.len() as u64);
        debug_assert_eq!(
            report.total_cycles,
            auth.engine.now().as_u64(),
            "merged stack must conserve the authoritative clock"
        );
        probe.on_run(&RunSummary {
            total_cycles: report.total_cycles,
            events: report.events_run,
            retired: report.engine.retired,
            stack: report.cpi_stack,
            l1i: totals.mem.l1i,
            l1d: totals.mem.l1d,
            l2: totals.mem.l2,
            branches: report.engine.branches,
            mispredicts: report.engine.mispredicts,
            esp_branches: totals.esp_branches,
            esp_mispredicts: totals.esp_mispredicts,
        });
        IntraRun { report, stats }
    }

    /// Assembles the run report from the merged totals — the same
    /// derivation as the serial `assemble_report`, fed by summed chunk
    /// deltas instead of one engine's absolute counters.
    fn assemble_intra_report(
        &self,
        auth: &mut LiveState<'_>,
        totals: &Totals,
        events_run: u64,
    ) -> RunReport {
        let mut report = RunReport {
            total_cycles: totals.stack.total(),
            breakdown: CycleBreakdown::from_stack(&totals.stack),
            cpi_stack: totals.stack,
            engine: totals.engine,
            esp: totals.esp.clone(),
            replay: totals.replay,
            events_run,
            ..RunReport::default()
        };
        let measure = self
            .config()
            .esp_features()
            .is_some_and(|f| f.measure_working_sets);
        if measure {
            if let Some(esp) = auth.esp.as_mut() {
                report.working_sets = Some(esp.take_working_sets());
            }
        }
        let spec = report.esp.spec_instrs() + report.engine.runahead_instrs;
        report.activity = ActivityCounts {
            cycles: report.busy_cycles(),
            normal_instrs: report.engine.retired,
            spec_instrs: spec,
            mispredicts: report.engine.mispredicts,
        };
        report.energy = EnergyModel::mcpat_32nm().report(&report.activity);
        report
    }
}

/// Whether any event in the chunk idled waiting for its post time —
/// the one behaviour that is not invariant under a clock shift.
fn chunk_idled(items: &[Item]) -> bool {
    items
        .iter()
        .any(|item| matches!(item, Item::Event(span) if span.stack.idle > 0))
}

/// The accepted-chunk translation onto the serial timeline.
struct Patch {
    /// Uniform forward shift of every recorded time (backlogged entry).
    shift: u64,
    /// The authoritative predecessor's end — where the serial path
    /// starts the chunk's first span.
    start: Cycle,
    /// Idle cycles the serial path charges the first event waiting for
    /// its post time (drained-queue entry).
    idle_gap: u64,
}

/// Replays a chunk's buffered records into the caller's probe. For an
/// accepted chunk (`patch` set), every record is shifted onto the serial
/// timeline and the first event span is re-anchored to the authoritative
/// predecessor's end time with the idle gap added — the records the
/// serial path would have emitted.
fn replay_items<P: Probe>(items: &[Item], patch: Option<Patch>, probe: &mut P) {
    let Some(patch) = patch else {
        for item in items {
            match item {
                Item::Window(w) => probe.on_window(w),
                Item::Event(span) => probe.on_event(span),
            }
        }
        return;
    };
    let mut first = true;
    for item in items {
        match item {
            Item::Window(w) => {
                let mut w = *w;
                w.at += patch.shift;
                probe.on_window(&w);
            }
            Item::Event(span) => {
                let mut s = *span;
                s.start += patch.shift;
                s.end += patch.shift;
                if first {
                    first = false;
                    s.start = patch.start;
                    s.stack.idle += patch.idle_gap;
                }
                probe.on_event(&s);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use esp_obs::CpiObserver;
    use esp_workload::BenchmarkProfile;

    fn workload() -> PackedWorkload {
        BenchmarkProfile::amazon().scaled(120_000).build(42).materialise()
    }

    #[test]
    fn serial_fallback_is_the_serial_run() {
        let w = workload();
        let sim = Simulator::new(SimConfig::base());
        let serial = sim.run(&w);
        let intra = sim.run_intra(&w, 1);
        assert!(intra.stats.serial_fallback);
        assert_eq!(format!("{serial:?}"), format!("{:?}", intra.report));
    }

    #[test]
    fn base_chunks_merge_to_serial_bytes() {
        let w = workload();
        let sim = Simulator::new(SimConfig::base());
        let serial = sim.run(&w);
        for threads in [2, 4] {
            let intra = sim.run_intra(&w, threads);
            assert!(!intra.stats.serial_fallback);
            assert_eq!(intra.stats.chunks, threads);
            assert_eq!(intra.stats.accepted + intra.stats.repaired, threads);
            assert_eq!(
                format!("{serial:?}"),
                format!("{:?}", intra.report),
                "threads={threads}"
            );
        }
    }

    /// The genuine accept path: on this profile the merge accepts
    /// speculative chunks (entry predictions validate, possibly modulo a
    /// clock shift), so byte-identity here exercises the
    /// translate-and-reuse machinery rather than the repair fallback.
    #[test]
    fn accepted_speculative_chunks_match_serial_bytes() {
        let w = BenchmarkProfile::bing().scaled(120_000).build(42).materialise();
        let sim = Simulator::new(SimConfig::base());
        let serial = sim.run(&w);
        let intra = sim.run_intra(&w, 4);
        assert!(
            intra.stats.accepted >= 2,
            "expected speculative-chunk acceptance, got {:?}",
            intra.stats
        );
        assert_eq!(format!("{serial:?}"), format!("{:?}", intra.report));
    }

    /// The forced-conflict repair path: ESP configurations can never be
    /// boundary-compared (speculative state is born inside timing-driven
    /// stall windows), so every chunk but the first must conflict, take
    /// the repair path, and still merge to the serial bytes.
    #[test]
    fn forced_conflict_repairs_to_serial_bytes() {
        let w = workload();
        let sim = Simulator::new(SimConfig::esp_nl());
        let serial = sim.run(&w);
        let intra = sim.run_intra(&w, 4);
        assert!(!intra.stats.serial_fallback);
        assert_eq!(intra.stats.accepted, 1, "only chunk 0 can be accepted under ESP");
        assert_eq!(intra.stats.repaired, intra.stats.chunks - 1);
        assert!(intra
            .stats
            .conflicts
            .iter()
            .any(|&(r, n)| r == "esp-speculative-state" && n as usize == intra.stats.repaired));
        assert!((intra.stats.conflict_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(format!("{serial:?}"), format!("{:?}", intra.report));
    }

    #[test]
    fn probe_stream_matches_serial() {
        let w = workload();
        for cfg in [SimConfig::base(), SimConfig::runahead(), SimConfig::esp_nl()] {
            let sim = Simulator::new(cfg);
            let mut serial = CpiObserver::default();
            sim.run_probed(&w, &mut serial);
            let mut intra = CpiObserver::default();
            sim.run_intra_probed(&w, 3, &mut intra);
            assert_eq!(serial.events, intra.events);
            assert_eq!(serial.windows, intra.windows);
            assert_eq!(serial.offered_cycles, intra.offered_cycles);
            assert_eq!(serial.utilized_cycles, intra.utilized_cycles);
            assert_eq!(serial.run, intra.run);
        }
    }
}
