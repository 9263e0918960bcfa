//! The top-level simulation driver.

use crate::config::{SimConfig, SimMode};
use crate::esp_state::EspState;
use crate::lineset::LineSet;
use crate::replay::{ReplayLists, ReplayState};
use crate::report::RunReport;
use esp_branch::{BpOp, BranchConfig, BranchPredictor, ContextPolicy, PredictorContext};
use esp_energy::{ActivityCounts, EnergyModel};
use esp_mem::prefetch::DcuNextLine;
use esp_mem::{HierarchySnapshot, MemOp};
use esp_obs::{CycleClass, EventSpan, NullProbe, Probe, RunSummary, WindowRecord, WindowSpender};
use esp_stats::BranchStats;
use esp_trace::kindbits::{TAG_ALU, TAG_COND, TAG_LOAD, TAG_MASK, TAG_STORE};
use esp_trace::{
    EventCursor, Instr, PackedWorkload, RawStep, SidecarKey, WarmSink, Workload, INSTR_BYTES,
};
use esp_types::{Addr, LineAddr, TapeWriter};
use esp_uarch::{Engine, KernelParams, StallKind};

/// Code region of the synthetic looper (event-queue management): a small
/// hot loop executed between events.
const LOOPER_PC_BASE: u64 = 0x0040_0000;
/// Data region of the looper's queue structures.
const LOOPER_QUEUE_BASE: u64 = 0x0060_0000;

/// Every externally observable side effect a run applied to its memory
/// hierarchy and branch predictor, captured at the component boundary.
///
/// Produced by [`Simulator::run_logged`]. The `esp-check` oracle replays
/// `mem_ops` and `bp_ops` against fresh components of the same
/// configuration and asserts each recorded outcome and the final
/// [`HierarchySnapshot`] / per-context [`BranchStats`] reproduce exactly
/// — a differential check that the interval engine drives its
/// components only through their public entry points and that those
/// components are deterministic functions of their call sequence.
#[derive(Clone, Debug)]
pub struct SideEffectLog {
    /// Every memory-hierarchy mutation, in program order.
    pub mem_ops: Vec<MemOp>,
    /// Per-level counters at end of run.
    pub mem_snapshot: HierarchySnapshot,
    /// Every branch-predictor mutation, in program order.
    pub bp_ops: Vec<BpOp>,
    /// Per-context prediction statistics at end of run.
    pub bp_stats: [(PredictorContext, BranchStats); 3],
}

/// The complete mutable state of one in-progress simulation: the interval
/// engine plus the mode-specific speculation state that travels with it
/// between events, and the run's grain schedule.
pub(crate) struct LiveState<'w, G = Exact> {
    /// The interval core: clock, caches, predictor, prefetchers, stack.
    pub engine: Engine,
    /// ESP contexts and list state (ESP modes only).
    pub esp: Option<EspState<'w>>,
    /// The normal-mode list replay cursor.
    pub replay: ReplayState,
    /// Lists promoted at the last event completion, to arm on the next.
    pub pending_lists: Option<ReplayLists>,
    /// Which instructions are simulated in detail and which are warmed.
    pub grains: G,
}

/// How a run divides its instructions into detailed and functionally
/// warmed grains — the one thing exact, sampled and learned runs of
/// [`Simulator::run_events`] do differently. The driver is
/// monomorphised over the policy.
///
/// The defaults are exact mode's, [`Exact`]: every grain detailed, no
/// grain clock to keep, so every hook compiles away and the driver is
/// the plain exact loop. Sampled and learned runs use the grain clock of
/// the `sampling` module, `SampleCtl`.
pub(crate) trait GrainPolicy {
    /// Whether the run is inside a functionally warmed grain.
    #[inline(always)]
    fn warming(&self) -> bool {
        false
    }

    /// The most plain ALUs one detailed batch may retire (batches must
    /// stay strictly inside the current grain).
    #[inline(always)]
    fn batch_cap(&self) -> u64 {
        u64::MAX
    }

    /// An event begins.
    #[inline(always)]
    fn note_event(&mut self) {}

    /// A looper instruction was functionally warmed.
    #[inline(always)]
    fn note_warm_looper(&mut self, _instr: &Instr) {}

    /// One instruction retired, detailed or warmed.
    #[inline(always)]
    fn after_instr(
        &mut self,
        _engine: &mut Engine,
        _replay: &ReplayState,
        _esp: &Option<EspState<'_>>,
    ) {
    }

    /// A batch of `n` plain ALUs retired in detail, strictly inside the
    /// current grain.
    #[inline(always)]
    fn detailed_bulk(&mut self, _n: u64) {}

    /// Warms (or, in learned mode, may fast-forward) `stream` up to the
    /// next grain boundary; returns whether the event's stream ended.
    fn warm_grain(
        &mut self,
        _stream: &mut EventCursor<'_>,
        _line_bytes: u64,
        _engine: &mut Engine,
        _replay: &ReplayState,
        _esp: &Option<EspState<'_>>,
    ) -> bool {
        unreachable!("an exact run never warms")
    }

    /// An event ended (its ESP completion done, its span not yet
    /// emitted).
    #[inline(always)]
    fn end_event(&mut self, _engine: &mut Engine) {}
}

/// The exact-mode grain policy: every instruction in detail.
pub(crate) struct Exact;

impl GrainPolicy for Exact {}

/// What one [`Simulator::detailed_step`] retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Stepped {
    /// A batch of this many plain ALUs on the current fetch line.
    Batch(u64),
    /// One instruction through the fused kernel.
    One,
    /// Nothing: the event's stream had ended.
    End,
}

/// The per-event state of a detailed kernel loop, carried from one
/// [`Simulator::detailed_step`] to the next.
struct DetailedLoop<'k> {
    kp: &'k KernelParams,
    /// Whether working sets are measured.
    measure: bool,
    /// Branches retired so far in the event (the B-list replay clock).
    branches: u64,
    /// The fetch line last inserted into the instruction working set.
    iws_line: u64,
    /// Pre-execution windows the event has opened.
    windows: u64,
}

impl<'k> DetailedLoop<'k> {
    fn new(kp: &'k KernelParams, measure: bool) -> Self {
        DetailedLoop { kp, measure, branches: 0, iws_line: u64::MAX, windows: 0 }
    }
}

/// The ESP simulator: one machine configuration, runnable over any
/// [`PackedWorkload`] (pack a hand-built [`Workload`] with
/// [`PackedWorkload::pack`]; generated workloads materialise).
///
/// # Examples
///
/// ```
/// use esp_core::{SimConfig, Simulator};
/// use esp_workload::BenchmarkProfile;
///
/// let w = BenchmarkProfile::pixlr().scaled(30_000).build(1).materialise();
/// let report = Simulator::new(SimConfig::base()).run(&w);
/// assert!(report.engine.retired > 30_000);
/// ```
#[derive(Clone, Debug)]
pub struct Simulator {
    config: SimConfig,
}

impl Simulator {
    /// Creates a simulator.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`SimConfig::validate`].
    pub fn new(config: SimConfig) -> Self {
        config.validate().expect("invalid simulation configuration");
        Simulator { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The `i`-th instruction of the looper prologue executed before
    /// event `idx`: queue-management loads over a hot structure plus ALU
    /// work, all in one small code region (§3.6 observes ~70 such
    /// instructions). Generated in place — no per-event buffer.
    #[inline]
    pub(crate) fn looper_instr(idx: usize, i: u64) -> Instr {
        let pc = Addr::new(LOOPER_PC_BASE + (i % 32) * 4);
        if i % 4 == 1 {
            Instr::load(pc, Addr::new(LOOPER_QUEUE_BASE + ((idx as u64 + i) % 16) * 64), false)
        } else {
            Instr::alu(pc)
        }
    }

    /// Makes `engine` replay the DCU trigger bits of `workload` instead
    /// of running the tracker, when that is possible: the DCU is on and
    /// the L1-D is not perfect (a perfect L1-D feeds the DCU nothing).
    /// The bits are built on first use per workload, line size and looper
    /// length, then shared by every configuration that asks (see
    /// [`dcu_trigger_words`]).
    ///
    /// Called only for runs that feed the DCU every retired data access
    /// in order, from the first: exact runs and plain sampled runs, not
    /// learned ones.
    pub(crate) fn attach_dcu_triggers(&self, workload: &PackedWorkload, engine: &mut Engine) {
        let e = &self.config.engine;
        if !e.nl_data || e.perfect.l1d {
            return;
        }
        let line_bytes = e.machine.hierarchy.l1i.line_bytes;
        let looper_instrs = self.config.looper_instrs;
        let key = SidecarKey::DcuTriggers { line_bytes, looper_instrs };
        engine.replay_dcu(
            workload.sidecar(key, |p| dcu_trigger_words(p, line_bytes, looper_instrs)),
        );
    }

    /// Makes `engine` replay the branch outcomes of `workload` instead of
    /// running the predictor, when that is possible: the mode is the
    /// baseline or data-only runahead and prediction is not perfect. The
    /// outcomes are built on first use per workload, predictor table
    /// sizes and looper length, then shared by every configuration that
    /// asks (see [`branch_outcome_words`]).
    ///
    /// Only in those modes do the retired normal-context branches alone
    /// reach the predictor: ESP pre-execution trains it (naive ESP even
    /// in the normal context), full runahead's episodes train its tables,
    /// and a data-only runahead episode predicts nothing, so its
    /// checkpoint and restore change nothing. Called only for runs that
    /// retire or warm every branch in order, from the first, and that
    /// record no op log for the `esp-check` oracle: exact and plain
    /// sampled runs, not learned or logged ones.
    pub(crate) fn attach_branch_outcomes(&self, workload: &PackedWorkload, engine: &mut Engine) {
        let e = &self.config.engine;
        let normal_only =
            matches!(self.config.mode, SimMode::Baseline | SimMode::Runahead { data_only: true });
        if !normal_only || e.perfect.branch {
            return;
        }
        let b = &e.machine.branch;
        let looper_instrs = self.config.looper_instrs;
        let tables = [
            b.global_entries,
            b.local_entries,
            b.loop_entries,
            b.btb_entries,
            b.ibtb_entries,
            b.ras_entries,
        ]
        .map(|n| n as u64);
        let key = SidecarKey::BranchOutcomes { tables, looper_instrs };
        engine.replay_branches(
            workload.sidecar(key, |p| branch_outcome_words(p, b, looper_instrs)),
        );
    }

    /// Runs the workload to completion and reports.
    pub fn run(&self, workload: &PackedWorkload) -> RunReport {
        self.run_probed(workload, &mut NullProbe)
    }

    /// [`Simulator::run`] with an observability probe (see `esp-obs`).
    ///
    /// The probe sees every stall charge, every spent pre-execution
    /// window, one [`EventSpan`] per event (whose stack tiles the run:
    /// span stacks sum to the total CPI stack), and a final
    /// [`RunSummary`]. Statically dispatched: `run` is this method
    /// monomorphized over the no-op probe, at identical speed.
    pub fn run_probed<P: Probe>(&self, workload: &PackedWorkload, probe: &mut P) -> RunReport {
        self.run_inner(workload, probe, false).0
    }

    /// [`Simulator::run_probed`] with component side-effect recording: on
    /// top of the report, returns the [`SideEffectLog`] of every memory
    /// and branch-predictor mutation the run performed, for differential
    /// replay by `esp-check`.
    pub fn run_logged<P: Probe>(
        &self,
        workload: &PackedWorkload,
        probe: &mut P,
    ) -> (RunReport, SideEffectLog) {
        let (report, log) = self.run_inner(workload, probe, true);
        (report, log.expect("recording was requested"))
    }

    /// Builds the initial [`LiveState`] of a run over `workload`: a fresh
    /// engine plus the mode's speculation state, leads configured, on the
    /// grain schedule `grains`.
    pub(crate) fn new_live<'w, G>(&self, workload: &'w PackedWorkload, grains: G) -> LiveState<'w, G> {
        let engine = Engine::new(self.config.engine.clone());
        let esp: Option<EspState<'w>> = match &self.config.mode {
            SimMode::Esp(f) => Some(EspState::new(*f, workload)),
            _ => None,
        };
        let mut replay = ReplayState::default();
        if let Some(f) = self.config.esp_features() {
            replay.set_leads(f.prefetch_lead_instrs, f.bp_train_lead_branches);
        }
        LiveState { engine, esp, replay, pending_lists: None, grains }
    }

    fn run_inner<P: Probe>(
        &self,
        workload: &PackedWorkload,
        probe: &mut P,
        record: bool,
    ) -> (RunReport, Option<SideEffectLog>) {
        let mut live = self.new_live(workload, Exact);
        self.attach_dcu_triggers(workload, &mut live.engine);
        if record {
            live.engine.mem_mut().set_recording(true);
            live.engine.bp_mut().set_recording(true);
        } else {
            // The oracle replays a logged run's predictor ops, so only an
            // unlogged run may replay outcomes instead.
            self.attach_branch_outcomes(workload, &mut live.engine);
        }
        let LiveState { mut engine, esp, replay, .. } = self.run_events(workload, live, probe);
        let log = record.then(|| SideEffectLog {
            mem_ops: engine.mem_mut().take_ops(),
            mem_snapshot: engine.mem().snapshot(),
            bp_ops: engine.bp_mut().take_ops(),
            bp_stats: engine.bp().stats_all(),
        });
        let report = self.assemble_report(&engine, esp, &replay, workload.events().len() as u64);
        probe.on_run(&run_summary(&report, &engine));
        (report, log)
    }

    /// Runs every event of `workload` on `live` and returns the final
    /// state — the one per-event loop of every run, exact, sampled or
    /// learned, monomorphised over the run's grain policy `G`. Per event:
    /// idle until it is posted, arm replay (or, in a warmed grain, apply
    /// the pending lists as warm state), run the looper prologue and the
    /// event body, complete the ESP context shift, and emit the span.
    ///
    /// Emits window and event records to `probe` (no `on_run`; drivers
    /// summarise once at end of run).
    ///
    /// # Panics
    ///
    /// Panics if an attached DCU trigger or branch outcome sidecar was
    /// not consumed exactly: the run retired a different stream from the
    /// one the sidecar was built from.
    ///
    /// This and [`Simulator::run_event_kernel`] are always inlined, so
    /// each grain policy's whole event loop is one function. Left to its
    /// own heuristics LLVM outlines the sampled kernel, and perfbench's
    /// `sampled-matrix` then runs about 4% slower.
    #[inline(always)]
    pub(crate) fn run_events<'w, P: Probe, G: GrainPolicy>(
        &self,
        workload: &'w PackedWorkload,
        mut live: LiveState<'w, G>,
        probe: &mut P,
    ) -> LiveState<'w, G> {
        let measure = self
            .config
            .esp_features()
            .is_some_and(|f| f.measure_working_sets);
        let ideal = self.config.esp_features().is_some_and(|f| f.ideal);
        // Lower the configuration once: the event loop runs the fused
        // kernel over this flat parameter block.
        let kernel_params = live.engine.lower_kernel();
        let n_looper = self.config.looper_instrs as u64;
        // Reused across events: cleared in O(1), allocation kept.
        let mut iws = LineSet::new();
        let mut dws = LineSet::new();
        let LiveState { engine, esp, replay, pending_lists, grains } = &mut live;

        for (idx, record) in workload.events().iter().enumerate() {
            grains.note_event();
            let span_start = engine.now();
            let stack_before = *engine.cpi_stack();
            let retired_before = engine.stats().retired;

            // The looper cannot dequeue an event before it is posted.
            engine.idle_until(record.post_time);

            // Arm replay with whatever the event's pre-execution gathered
            // and use the looper prologue as the prefetch head start. An
            // event opening in a warmed grain gets the lists as instant
            // warm state instead.
            if grains.warming() {
                if let Some(lists) = pending_lists.take() {
                    Self::warm_apply_lists(engine, &lists);
                }
                replay.arm(None, ideal, engine);
            } else {
                replay.arm(pending_lists.take(), ideal, engine);
            }
            for i in 0..n_looper {
                let instr = Self::looper_instr(idx, i);
                if grains.warming() {
                    engine.warm_step(&instr);
                    grains.note_warm_looper(&instr);
                } else {
                    replay.tick(engine, 0, 0);
                    let rs = RawStep::from_instr(&instr);
                    engine.step_raw(&kernel_params, rs.kind, rs.pc, rs.op, probe);
                }
                grains.after_instr(engine, replay, esp);
            }

            let stream = workload.arena().event(record.id.index() as usize).actual_cursor();
            let span_windows = self.run_event_kernel(
                stream,
                idx,
                engine,
                esp,
                replay,
                grains,
                probe,
                measure,
                &kernel_params,
                &mut iws,
                &mut dws,
            );

            if let Some(esp) = esp.as_mut() {
                if measure {
                    esp.record_normal_working_set(iws.len(), dws.len());
                }
                *pending_lists = esp.on_event_complete(idx + 1);
                engine.bp_mut().promote_event();
            }
            grains.end_event(engine);

            probe.on_event(&EventSpan {
                idx: idx as u64,
                start: span_start,
                end: engine.now(),
                retired: engine.stats().retired - retired_before,
                windows: span_windows,
                stack: engine.cpi_stack().since(&stack_before),
            });
        }
        let engine = &live.engine;
        assert_ne!(engine.dcu_replay_finished(), Some(false), "DCU replay out of step with the run");
        assert_ne!(
            engine.branch_replay_finished(),
            Some(false),
            "branch outcome replay out of step with the run"
        );
        live
    }

    /// The per-instruction loop of one event: detailed grains run
    /// [`Simulator::detailed_step`], with plain-ALU batches clipped by
    /// the grain policy to stay strictly inside the current grain (so the
    /// grain clock sees the same boundary crossings as stepping one by
    /// one); warmed grains run the policy's bulk walk. Returns the number
    /// of pre-execution windows the event opened.
    ///
    /// The cursor is taken by value so its state stays in locals.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    pub(crate) fn run_event_kernel<P: Probe, G: GrainPolicy>(
        &self,
        mut stream: EventCursor<'_>,
        idx: usize,
        engine: &mut Engine,
        esp: &mut Option<EspState<'_>>,
        replay: &mut ReplayState,
        grains: &mut G,
        probe: &mut P,
        measure: bool,
        kp: &KernelParams,
        iws: &mut LineSet,
        dws: &mut LineSet,
    ) -> u64 {
        iws.clear();
        dws.clear();
        let mut lp = DetailedLoop::new(kp, measure);
        loop {
            if grains.warming() {
                if grains.warm_grain(&mut stream, kp.line_bytes, engine, replay, esp) {
                    break;
                }
                continue;
            }
            let cap = grains.batch_cap();
            match self.detailed_step(&mut stream, cap, &mut lp, idx, engine, esp, replay, probe, iws, dws) {
                Stepped::Batch(n) => grains.detailed_bulk(n),
                Stepped::One => grains.after_instr(engine, replay, esp),
                Stepped::End => break,
            }
        }
        lp.windows
    }

    /// One step of the detailed kernel over a packed event — the single
    /// step body of every run's event loop. Decodes the
    /// next instruction raw and tests its kind once:
    ///
    /// * a plain ALU (kind byte exactly `TAG_ALU`) on the current fetch
    ///   line, with replay drained, retires together with the plain ALUs
    ///   after it on that line, at most `batch_cap` instructions in all
    ///   (0 disables batching): no fetch, branch, data or replay work
    ///   exists for them, so their base cycles are charged in one
    ///   accumulation. Replay must be drained because its prefetch timing
    ///   depends on the per-instruction clock.
    /// * anything else runs the fused kernel ([`Engine::step_raw`]) and
    ///   spends a stall window it exposes.
    ///
    /// Replay ticks only while lists are pending; the fetch line enters
    /// the instruction working set only when it changes (the set is the
    /// same as with per-instruction inserts).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn detailed_step<P: Probe>(
        &self,
        stream: &mut EventCursor<'_>,
        batch_cap: u64,
        lp: &mut DetailedLoop<'_>,
        idx: usize,
        engine: &mut Engine,
        esp: &mut Option<EspState<'_>>,
        replay: &mut ReplayState,
        probe: &mut P,
        iws: &mut LineSet,
        dws: &mut LineSet,
    ) -> Stepped {
        let kp = lp.kp;
        if !replay.drained() {
            replay.tick(engine, stream.executed(), lp.branches);
        }
        let Some(rs) = stream.next_raw() else {
            return Stepped::End;
        };
        let line = rs.pc >> kp.line_shift;
        if lp.measure && line != lp.iws_line {
            iws.insert(line);
            lp.iws_line = line;
        }
        if rs.kind == TAG_ALU && batch_cap > 0 && replay.drained() && engine.on_fetch_line(line) {
            // The rest of the line, this instruction included.
            let room = (((line + 1) << kp.line_shift) - rs.pc) / INSTR_BYTES;
            let more = stream.plain_run((room.min(batch_cap) - 1) as usize);
            stream.skip_plain(more);
            let n = 1 + more as u64;
            engine.charge_plain_alus(n, probe);
            return Stepped::Batch(n);
        }
        let tag = rs.kind & TAG_MASK;
        if lp.measure && (tag == TAG_LOAD || tag == TAG_STORE) {
            dws.insert(rs.op >> kp.line_shift);
        }
        let out = engine.step_raw(kp, rs.kind, rs.pc, rs.op, probe);
        lp.branches += u64::from(tag >= TAG_COND);
        if let Some(stall) = out.stall {
            // Runahead forks a copy; the loop's own cursor never escapes.
            let at = stream.clone();
            self.spend_stall(stall, &at, idx, engine, esp, probe, &mut lp.windows);
        }
        Stepped::One
    }

    /// Spends one exposed LLC-miss stall window according to the mode.
    /// Runahead pre-executes a copy of `stream`, the event's cursor just
    /// past the blocking load.
    #[allow(clippy::too_many_arguments)]
    #[inline]
    pub(crate) fn spend_stall<P: Probe>(
        &self,
        stall: esp_uarch::Stall,
        stream: &EventCursor<'_>,
        idx: usize,
        engine: &mut Engine,
        esp: &mut Option<EspState<'_>>,
        probe: &mut P,
        span_windows: &mut u64,
    ) {
        match &self.config.mode {
            SimMode::Baseline => {}
            SimMode::Runahead { data_only } => {
                if stall.kind == StallKind::DataLlcMiss {
                    *span_windows += 1;
                    let ra = engine.run_runahead_cursor(
                        stream.clone(),
                        stall.start,
                        stall.cycles,
                        *data_only,
                    );
                    probe.on_window(&WindowRecord {
                        at: stall.start,
                        stall_class: CycleClass::DcacheLlc,
                        offered_cycles: stall.cycles,
                        utilized_cycles: ra.utilized_cycles,
                        instrs: ra.instrs,
                        spender: WindowSpender::Runahead,
                    });
                }
            }
            SimMode::Esp(_) => {
                let esp = esp.as_mut().expect("ESP mode without ESP state");
                *span_windows += 1;
                esp.spend_window_probed(engine, stall, idx, probe);
            }
        }
    }

    fn assemble_report(
        &self,
        engine: &Engine,
        esp: Option<EspState<'_>>,
        replay: &ReplayState,
        events_run: u64,
    ) -> RunReport {
        let report = RunReport {
            total_cycles: engine.now().as_u64(),
            breakdown: engine.breakdown(),
            cpi_stack: *engine.cpi_stack(),
            engine: *engine.stats(),
            esp: esp.as_ref().map(|e| e.stats().clone()).unwrap_or_default(),
            events_run,
            replay: replay.stats(),
            ..RunReport::default()
        };
        self.finish_report(report, esp)
    }

    /// The tail of every report, exact or extrapolated: the ESP working
    /// sets when the configuration measures them, then the activity
    /// counts and energy that follow from the report's counters.
    pub(crate) fn finish_report(
        &self,
        mut report: RunReport,
        esp: Option<EspState<'_>>,
    ) -> RunReport {
        if self.config.esp_features().is_some_and(|f| f.measure_working_sets) {
            report.working_sets = esp.map(|mut e| e.take_working_sets());
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

/// The end-of-run summary a probe receives: `report`'s totals, plus the
/// hierarchy's counters and the ESP contexts' branch counts from the
/// run's final `engine`.
pub(crate) fn run_summary(report: &RunReport, engine: &Engine) -> RunSummary {
    let mem = engine.mem().snapshot();
    let b1 = engine.bp().stats(PredictorContext::Esp1);
    let b2 = engine.bp().stats(PredictorContext::Esp2);
    RunSummary {
        total_cycles: report.total_cycles,
        events: report.events_run,
        retired: report.engine.retired,
        stack: report.cpi_stack,
        l1i: mem.l1i,
        l1d: mem.l1d,
        l2: mem.l2,
        branches: report.engine.branches,
        mispredicts: report.engine.mispredicts,
        esp_branches: b1.total() + b2.total(),
        esp_mispredicts: b1.mispredicted + b2.mispredicted,
    }
}

/// Builds the DCU trigger words of `packed` for `line_bytes` and
/// `looper_instrs`, a 1-bit tape set where the tracker prefetched: the
/// tracker run once over the data line stream every exact or plain
/// sampled run retires,
/// which does not depend on the machine configuration. Per event, in
/// order: the looper prologue's loads, then the event's loads and
/// stores. Runahead episodes and ESP pre-execution access the hierarchy
/// directly and never reach the DCU, so they are not in the stream.
pub(crate) fn dcu_trigger_words(
    packed: &PackedWorkload,
    line_bytes: u64,
    looper_instrs: u32,
) -> Vec<u64> {
    /// Runs the walk's data lines through the tracker onto the tape.
    struct DataLines {
        shift: u32,
        dcu: DcuNextLine,
        triggers: TapeWriter<1>,
    }
    impl DataLines {
        #[inline(always)]
        fn push(&mut self, addr: u64) {
            let fired = self.dcu.on_access(LineAddr::new(addr >> self.shift)).is_some();
            self.triggers.push(u64::from(fired));
        }
    }
    impl WarmSink for DataLines {
        #[inline(always)]
        fn warm_fetch_line(&mut self, _line: u64) {}
        #[inline(always)]
        fn warm_load(&mut self, _pc: u64, addr: u64) {
            self.push(addr);
        }
        #[inline(always)]
        fn warm_store(&mut self, addr: u64) {
            self.push(addr);
        }
        #[inline(always)]
        fn warm_branch(&mut self, _instr: &Instr) {}
    }
    let mut lines = DataLines {
        shift: line_bytes.trailing_zeros(),
        dcu: DcuNextLine::new(),
        triggers: TapeWriter::new(),
    };
    for (idx, record) in packed.events().iter().enumerate() {
        for i in 0..u64::from(looper_instrs) {
            if let Some(addr) = Simulator::looper_instr(idx, i).mem_addr() {
                lines.push(addr.as_u64());
            }
        }
        let mut cursor = packed.arena().event(record.id.index() as usize).actual_cursor();
        cursor.skip_region_observed(u64::MAX, line_bytes, &mut lines);
    }
    lines.triggers.finish()
}

/// Builds the branch outcome words of `packed` for a predictor sized by
/// `config`, a 2-bit tape of `Prediction::code`s: the predictor run once
/// over the branch stream every exact or plain sampled run retires,
/// which does not depend on the rest of the machine configuration. Per
/// event, in order: the looper prologue's branches (it has none today),
/// then the event's branches. The normal context uses the same tables
/// and path register under every context policy, so one policy serves
/// all.
pub(crate) fn branch_outcome_words(
    packed: &PackedWorkload,
    config: &BranchConfig,
    looper_instrs: u32,
) -> Vec<u64> {
    let mut bp = BranchPredictor::new(config.clone(), ContextPolicy::SeparatePir);
    let mut outcomes = TapeWriter::<2>::new();
    for (idx, record) in packed.events().iter().enumerate() {
        for i in 0..u64::from(looper_instrs) {
            let instr = Simulator::looper_instr(idx, i);
            if instr.is_branch() {
                outcomes.push(bp.warm_update(&instr).code());
            }
        }
        let mut cursor = packed.arena().event(record.id.index() as usize).actual_cursor();
        while let Some(step) = cursor.next_raw() {
            if step.kind & TAG_MASK >= TAG_COND {
                outcomes.push(bp.warm_update(&step.to_instr()).code());
            }
        }
    }
    outcomes.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::sampling::{SampleCtl, SampleParams};
    use esp_uarch::PerfectFlags;
    use esp_workload::BenchmarkProfile;

    fn workload() -> PackedWorkload {
        BenchmarkProfile::amazon().scaled(120_000).build(42).materialise()
    }

    #[test]
    fn baseline_run_completes_and_counts() {
        let w = workload();
        let r = Simulator::new(SimConfig::base()).run(&w);
        assert_eq!(r.events_run, w.events().len() as u64);
        // Retired = workload instructions + looper prologues.
        let expected = w.approx_total_instructions() + 70 * r.events_run;
        assert_eq!(r.engine.retired, expected);
        assert!(r.total_cycles > 0);
        assert!(r.ipc() > 0.1 && r.ipc() < 4.0, "ipc={}", r.ipc());
    }

    #[test]
    fn runs_are_deterministic() {
        let w = workload();
        let a = Simulator::new(SimConfig::esp_nl()).run(&w);
        let b = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.engine, b.engine);
        assert_eq!(a.esp, b.esp);
    }

    #[test]
    fn perfect_all_is_fastest() {
        let w = workload();
        let base = Simulator::new(SimConfig::base()).run(&w);
        let perfect = Simulator::new(SimConfig::perfect(PerfectFlags::all())).run(&w);
        let esp = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert!(perfect.busy_cycles() < base.busy_cycles());
        assert!(perfect.busy_cycles() < esp.busy_cycles());
    }

    #[test]
    fn next_line_beats_base() {
        let w = workload();
        let base = Simulator::new(SimConfig::base()).run(&w);
        let nl = Simulator::new(SimConfig::next_line()).run(&w);
        assert!(
            nl.busy_cycles() < base.busy_cycles(),
            "NL {} !< base {}",
            nl.busy_cycles(),
            base.busy_cycles()
        );
    }

    #[test]
    fn esp_beats_next_line() {
        let w = workload();
        let nl = Simulator::new(SimConfig::next_line()).run(&w);
        let esp = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert!(
            esp.busy_cycles() < nl.busy_cycles(),
            "ESP+NL {} !< NL {}",
            esp.busy_cycles(),
            nl.busy_cycles()
        );
        assert!(esp.esp.spec_instrs() > 0, "ESP must actually pre-execute");
        assert!(esp.l1i_mpki() < nl.l1i_mpki(), "ESP must cut I-MPKI");
    }

    #[test]
    fn runahead_helps_data_but_less_than_esp() {
        let w = workload();
        let base = Simulator::new(SimConfig::base()).run(&w);
        let ra = Simulator::new(SimConfig::runahead()).run(&w);
        assert!(ra.busy_cycles() < base.busy_cycles());
        assert!(ra.engine.runahead_instrs > 0);
        assert!(ra.l1d_miss_rate_pct() < base.l1d_miss_rate_pct());
    }

    #[test]
    fn blist_improves_branch_prediction() {
        let w = workload();
        let without = Simulator::new(SimConfig::esp_bp_separate_context()).run(&w);
        let with = Simulator::new(SimConfig::esp_nl()).run(&w);
        assert!(
            with.mispredict_rate_pct() < without.mispredict_rate_pct(),
            "B-list {} !< no-B-list {}",
            with.mispredict_rate_pct(),
            without.mispredict_rate_pct()
        );
    }

    /// Whole runs with the DCU decisions replayed from trigger bits (what
    /// [`Simulator::run`] does) report exactly what the live tracker
    /// reports, on every family and every kind of next-line run: plain,
    /// data-only, and under ESP pre-execution.
    #[test]
    fn trigger_replay_matches_the_live_dcu_tracker() {
        for profile in BenchmarkProfile::all_families() {
            let w = profile.scaled(20_000).build(5).materialise();
            let configs = [
                ("NL-D", SimConfig::nl_d_only()),
                ("ESP-D + NL-D", SimConfig::esp_d_nl_d()),
                ("NL", SimConfig::next_line()),
            ];
            for (name, cfg) in configs {
                assert!(cfg.engine.nl_data && !cfg.engine.perfect.l1d, "DCU off: nothing replayed");
                let sim = Simulator::new(cfg);
                let replayed = sim.run(&w);
                let live = sim.run_events(&w, sim.new_live(&w, Exact), &mut NullProbe);
                assert_eq!(live.engine.dcu_replay_finished(), None, "the live tracker must run");
                let LiveState { engine, esp, replay, .. } = live;
                let tracked = sim.assemble_report(&engine, esp, &replay, w.events().len() as u64);
                assert_eq!(
                    format!("{replayed:?}"),
                    format!("{tracked:?}"),
                    "{} / {name}: trigger replay and live tracker disagree",
                    profile.name()
                );
            }
        }
    }

    /// Whole runs with the branch outcomes replayed from the sidecar
    /// (what [`Simulator::run`] and [`Simulator::run_sampled`] do for the
    /// nine configurations whose predictor sees only retired
    /// normal-context branches) report exactly what a live predictor
    /// reports, exact and plain sampled, on every family. Every other
    /// mode keeps the live predictor.
    #[test]
    fn outcome_replay_matches_the_live_predictor() {
        let params = SampleParams::new(250, 6);
        let configs = [
            ("Base", SimConfig::base()),
            ("NL", SimConfig::next_line()),
            ("NL + S", SimConfig::next_line_stride()),
            ("NL-I", SimConfig::nl_i_only()),
            ("NL-D", SimConfig::nl_d_only()),
            ("Runahead-D", SimConfig::runahead_d()),
            ("Runahead-D + NL-D", SimConfig::runahead_d_nl_d()),
            ("Perfect L1-I", SimConfig::perfect(PerfectFlags::perfect_l1i())),
            ("Perfect L1-D", SimConfig::perfect(PerfectFlags::perfect_l1d())),
        ];
        let outcomes = |k: &SidecarKey| matches!(k, SidecarKey::BranchOutcomes { .. });
        for profile in BenchmarkProfile::all_families() {
            let w = profile.scaled(20_000).build(5).materialise();
            let events = w.events().len();
            for (name, cfg) in &configs {
                let sim = Simulator::new(cfg.clone());
                let replayed = sim.run(&w);
                let mut live = sim.new_live(&w, Exact);
                sim.attach_dcu_triggers(&w, &mut live.engine);
                let live = sim.run_events(&w, live, &mut NullProbe);
                assert_eq!(live.engine.branch_replay_finished(), None, "the predictor must run");
                let LiveState { engine, esp, replay, .. } = live;
                let tracked = sim.assemble_report(&engine, esp, &replay, events as u64);
                assert_eq!(
                    format!("{replayed:?}"),
                    format!("{tracked:?}"),
                    "{} / {name}: exact outcome replay and live predictor disagree",
                    profile.name()
                );

                let replayed = sim.run_sampled(&w, params);
                assert!(!replayed.estimate.exact_fallback, "{name}: the run must sample");
                let mut live = sim.new_live(&w, SampleCtl::new(params, None));
                sim.attach_dcu_triggers(&w, &mut live.engine);
                let tracked = sim.run_sampled_live(&w, live, &mut NullProbe);
                assert_eq!(
                    format!("{:?} {:?}", replayed.report, replayed.estimate),
                    format!("{:?} {:?}", tracked.report, tracked.estimate),
                    "{} / {name}: sampled outcome replay and live predictor disagree",
                    profile.name()
                );
            }
            // The nine share one sidecar: 2 bits per branch, plus the
            // count word.
            let built = w.sidecar_footprint(outcomes).0;
            assert!(built > 8 && built < 8 + w.approx_total_instructions() / 4, "{built} bytes");
        }
        let w = BenchmarkProfile::amazon().scaled(20_000).build(5).materialise();
        for cfg in [
            SimConfig::runahead(),
            SimConfig::esp_nl(),
            SimConfig::naive_esp(),
            SimConfig::perfect(PerfectFlags::perfect_branch()),
        ] {
            let sim = Simulator::new(cfg);
            let mut live = sim.new_live(&w, Exact);
            sim.attach_branch_outcomes(&w, &mut live.engine);
            assert_eq!(live.engine.branch_replay_finished(), None, "{:?}", sim.config().mode);
        }
        assert_eq!(w.sidecar_footprint(outcomes).0, 0, "no sidecar for the other modes");
    }

    #[test]
    fn working_sets_are_collected_in_probe_mode() {
        let w = BenchmarkProfile::pixlr().scaled(60_000).build(3).materialise();
        let r = Simulator::new(SimConfig::esp_depth_probe()).run(&w);
        let ws = r.working_sets.expect("probe mode must collect samples");
        assert!(!ws.normal_i.is_empty());
        assert!(!ws.by_depth_i[0].is_empty());
        // ESP-1 working sets are an order of magnitude below normal ones.
        let max_normal = *ws.normal_i.iter().max().unwrap();
        let max_esp1 = ws.by_depth_i[0].iter().max().copied().unwrap_or(0);
        assert!(max_esp1 <= max_normal, "esp1 {max_esp1} > normal {max_normal}");
    }
}
