//! SMARTS-style systematic sampling: detailed grains + functional warming.
//!
//! [`Simulator::run_sampled`] splits a run into fixed-size instruction
//! *grains* and simulates only a periodic sample of them in full detail.
//! With period `P`, grain `g` is:
//!
//! * `g % P == 0` — **detailed warmup**: simulated in full detail but not
//!   measured, absorbing the cold-start ("non-sampling") bias left by the
//!   preceding functional warming;
//! * `g % P == 1` — **measured**: simulated in full detail; its
//!   per-instruction cycle deltas become one sample of the estimator;
//! * otherwise — **functional warming**: a fast-forward that performs every
//!   architectural-state update of detailed execution (cache tags and LRU,
//!   prefetcher training, branch-predictor tables/PIR/RAS, ESP context
//!   rotation) while charging no stall cycles and touching no statistics,
//!   via the warm entry points of `esp-uarch`/`esp-mem`/`esp-branch`.
//!
//! Grains are instruction-aligned, not event-aligned: a grain boundary can
//! fall mid-event, and the per-event loop switches between detailed
//! stepping and warming at that exact instruction. Every measured grain is
//! therefore preceded by one full grain of detailed warmup, regardless of
//! how event lengths compare to the grain size.
//!
//! Whole-run counters are then extrapolated from the measured grains by
//! the combined ratio estimator of `esp-stats`, with a per-metric standard
//! error and 95% confidence half-width reported alongside the
//! [`RunReport`]. Exact, sampled and learned runs share one per-event
//! driver, `Simulator::run_events`, which also checks the replayed
//! sidecars at the end of the run; this module supplies its grain policy,
//! the grain clock `SampleCtl`. Under the exact policy every
//! grain is detailed and the grain hooks compile away.
//!
//! # Learned fast-forwarding
//!
//! Functional warming is only ~1.5–2.5× cheaper than detailed
//! simulation here, so the warm walk caps plain sampling at ~1.4×.
//! [`Simulator::run_sampled_learned`] raises that ceiling: an
//! `esp-learn` controller summarises every warm *stretch* (the
//! `period − 2` warm grains between a measured grain and the next
//! detailed-warmup grain) into a feature vector, trains an online model
//! predicting the next measured grain's per-instruction cycle metrics,
//! and — once trained and in bounds — *skips* the engine-warming walk
//! for the stretch interior. Skipped grains advance the cursor with a
//! decode-free fast-forward
//! ([`esp_trace::EventCursor::skip_region_observed`], which reports only
//! the memory footprint) so retirement and the grain clock stay exact
//! while the walk costs a small fraction of functional warming.
//! The last `warm_suffix_grains` grains of every stretch are always
//! fully warmed to rebuild short-term cache/predictor state, and the
//! suffix is also the only region features are extracted from (in
//! training and skipping modes alike, so the model never sees a
//! train/predict feature skew). Predicted-vs-actual
//! residuals gate the whole thing: a breach falls back to full warming,
//! repeated breaches disable skipping, and a run whose ladder bottoms
//! out is re-executed with plain warming. The residual series also
//! widens the reported confidence intervals
//! (`esp_stats::ResidualAccum::inflate`).
//!
//! See `docs/PERFORMANCE.md` ("Sampling", "Learned fast-forwarding")
//! for the estimator derivation, warming rules, and measured error
//! tables.

use crate::esp_state::{EspRunStats, EspState};
use crate::replay::{ReplayLists, ReplayState, ReplayStats};
use crate::report::RunReport;
use crate::simulator::{run_summary, GrainPolicy, LiveState, Simulator};
use esp_learn::{FastForward, LearnParams, LearnedStats};
use esp_obs::{CpiStack, NullProbe, Probe};
use esp_stats::{ratio_estimate, RatioEstimate};
use esp_trace::{EventCursor, Instr, PackedWorkload, Workload};
use esp_types::{Error, Result};
use esp_uarch::{Engine, WarmTee};

/// Sampling-mode parameters: grain size and sampling period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleParams {
    /// Instructions per grain.
    pub grain_instrs: u64,
    /// Sampling period in grains: out of every `period` grains, one is
    /// detailed warmup, one is measured, and `period - 2` are
    /// functionally warmed. Must be at least 3.
    pub period: u64,
}

impl Default for SampleParams {
    fn default() -> Self {
        SampleParams { grain_instrs: 2_000, period: 20 }
    }
}

impl SampleParams {
    /// Builds parameters, validating them — the one owner of their
    /// ranges, which front ends report as errors.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `grain_instrs` is 0 or
    /// `period < 3` (a period below 3 has no warming grains — use exact
    /// mode instead).
    ///
    /// # Examples
    ///
    /// ```
    /// use esp_core::SampleParams;
    ///
    /// assert_eq!(SampleParams::try_new(2_000, 20), Ok(SampleParams::default()));
    /// assert!(SampleParams::try_new(0, 20).is_err());
    /// assert!(SampleParams::try_new(2_000, 2).is_err());
    /// ```
    pub fn try_new(grain_instrs: u64, period: u64) -> Result<Self> {
        if grain_instrs == 0 {
            return Err(Error::invalid_config("grain_instrs must be positive"));
        }
        if period < 3 {
            return Err(Error::invalid_config(
                "period must be >= 3 (warmup + measured + warming)",
            ));
        }
        Ok(SampleParams { grain_instrs, period })
    }

    /// [`SampleParams::try_new`] for parameters known to be valid.
    ///
    /// # Panics
    ///
    /// Panics with `try_new`'s message if the parameters are invalid: a
    /// programmer error, since front ends validate with `try_new`.
    pub fn new(grain_instrs: u64, period: u64) -> Self {
        Self::try_new(grain_instrs, period).unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Accuracy metadata of one sampled run: grain counts and per-metric
/// ratio estimates with confidence intervals.
#[derive(Clone, Debug, Default)]
pub struct SamplingEstimate {
    /// Grains the run was split into.
    pub grains_total: u64,
    /// Grains simulated in detail *and* measured.
    pub grains_measured: u64,
    /// Instructions retired inside measured grains.
    pub measured_instrs: u64,
    /// Instructions retired over the whole run (exact — warming counts
    /// retirement precisely).
    pub total_instrs: u64,
    /// Busy cycles per instruction, with standard error and 95% CI.
    pub cpi: RatioEstimate,
    /// Exposed instruction-fetch stall cycles per instruction.
    pub icache_cpi: RatioEstimate,
    /// Exposed data stall cycles per instruction.
    pub dcache_cpi: RatioEstimate,
    /// Branch penalty cycles per instruction.
    pub branch_cpi: RatioEstimate,
    /// True when the workload was too small to sample and the run fell
    /// back to exact simulation (the report is then exact, error 0).
    pub exact_fallback: bool,
}

/// A sampled run: the extrapolated report plus its error estimate.
#[derive(Clone, Debug)]
pub struct SampledRun {
    /// The extrapolated whole-run report. `total_cycles` carries the
    /// estimated *busy* cycles (idle is not extrapolated: the sampled
    /// clock is approximate between samples, and every figure of merit
    /// uses [`RunReport::busy_cycles`]).
    pub report: RunReport,
    /// Grain counts and confidence intervals.
    pub estimate: SamplingEstimate,
    /// Learned fast-forward accounting — `Some` only for
    /// [`Simulator::run_sampled_learned`] runs (skip/warm grain counts,
    /// prequential residuals, fallback ladder state, model confidence).
    pub learned: Option<LearnedStats>,
}

/// What a grain's position in the period means for execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GrainKind {
    /// Detailed, unmeasured: absorbs warming bias before a measurement.
    DetailedWarmup,
    /// Detailed and measured.
    Measured,
    /// Functionally warmed.
    Warm,
}

fn kind_of(grain_idx: u64, period: u64) -> GrainKind {
    match grain_idx % period {
        0 => GrainKind::DetailedWarmup,
        1 => GrainKind::Measured,
        _ => GrainKind::Warm,
    }
}

/// One measured grain's per-cycle-class deltas.
#[derive(Clone, Copy, Debug, Default)]
struct GrainSample {
    instrs: u64,
    busy: u64,
    icache: u64,
    dcache: u64,
    br_mis: u64,
    br_fetch: u64,
}

/// Snapshot of everything a measured grain's delta is computed from.
struct MeasureSnapshot {
    stack: CpiStack,
    engine: esp_uarch::EngineStats,
    replay: ReplayStats,
    esp: Option<EspRunStats>,
}

/// Measured-grain totals for every extrapolated counter.
#[derive(Default)]
struct MeasuredTotals {
    stack: CpiStack,
    engine: esp_uarch::EngineStats,
    replay: ReplayStats,
    esp: EspRunStats,
}

fn add_stack(into: &mut CpiStack, d: &CpiStack) {
    into.base += d.base;
    into.icache_l2 += d.icache_l2;
    into.icache_llc += d.icache_llc;
    into.dcache_l2 += d.dcache_l2;
    into.dcache_llc += d.dcache_llc;
    into.branch_mispredict += d.branch_mispredict;
    into.branch_misfetch += d.branch_misfetch;
    into.idle += d.idle;
    into.pre_exec_overlap += d.pre_exec_overlap;
}

fn add_engine(
    into: &mut esp_uarch::EngineStats,
    a: &esp_uarch::EngineStats,
    b: &esp_uarch::EngineStats,
) {
    into.retired += a.retired - b.retired;
    into.l1i_accesses += a.l1i_accesses - b.l1i_accesses;
    into.l1i_misses += a.l1i_misses - b.l1i_misses;
    into.l1d_accesses += a.l1d_accesses - b.l1d_accesses;
    into.l1d_misses += a.l1d_misses - b.l1d_misses;
    into.branches += a.branches - b.branches;
    into.mispredicts += a.mispredicts - b.mispredicts;
    into.misfetches += a.misfetches - b.misfetches;
    into.runahead_instrs += a.runahead_instrs - b.runahead_instrs;
}

fn add_replay(into: &mut ReplayStats, a: &ReplayStats, b: &ReplayStats) {
    into.iprefetches += a.iprefetches - b.iprefetches;
    into.dprefetches += a.dprefetches - b.dprefetches;
    into.btrains += a.btrains - b.btrains;
}

fn add_esp(into: &mut EspRunStats, a: &EspRunStats, b: &EspRunStats) {
    into.windows += a.windows - b.windows;
    into.wasted_window_cycles += a.wasted_window_cycles - b.wasted_window_cycles;
    into.events_started += a.events_started - b.events_started;
    into.lists_discarded += a.lists_discarded - b.lists_discarded;
    into.blocked_switches += a.blocked_switches - b.blocked_switches;
    if into.instrs_by_depth.len() < a.instrs_by_depth.len() {
        into.instrs_by_depth.resize(a.instrs_by_depth.len(), 0);
    }
    for (i, v) in a.instrs_by_depth.iter().enumerate() {
        into.instrs_by_depth[i] += v - b.instrs_by_depth.get(i).copied().unwrap_or(0);
    }
}

/// Integer extrapolation `x * total / measured` without overflow.
fn scaled(x: u64, total: u64, measured: u64) -> u64 {
    if measured == 0 {
        return 0;
    }
    (x as u128 * total as u128 / measured as u128) as u64
}

/// The grain clock: tracks where the run is in the sampling schedule,
/// collects measured-grain samples, and drives the coarse warm clock.
pub(crate) struct SampleCtl {
    grain_instrs: u64,
    period: u64,
    grain_idx: u64,
    grain_acc: u64,
    open: Option<MeasureSnapshot>,
    samples: Vec<GrainSample>,
    totals: MeasuredTotals,
    measured_busy: u64,
    measured_instrs: u64,
    /// Warmed instructions not yet converted into a clock advance.
    warm_pending: u64,
    /// Sub-cycle residue of the warm clock, in milli-cycles.
    warm_millis: u64,
    /// The learned fast-forward controller (learned mode only).
    learn: Option<Box<FastForward>>,
    /// Instructions fast-forwarded (feature-only walk) in the current
    /// warm grain.
    learn_skip_acc: u64,
    /// Instructions fully warmed in the current warm grain.
    learn_warm_acc: u64,
}

impl SampleCtl {
    pub(crate) fn new(params: SampleParams, learn: Option<Box<FastForward>>) -> Self {
        SampleCtl {
            grain_instrs: params.grain_instrs,
            period: params.period,
            grain_idx: 0,
            grain_acc: 0,
            open: None,
            samples: Vec::new(),
            totals: MeasuredTotals::default(),
            measured_busy: 0,
            measured_instrs: 0,
            warm_pending: 0,
            warm_millis: 0,
            learn,
            learn_skip_acc: 0,
            learn_warm_acc: 0,
        }
    }

    /// Whether the current warm grain's engine warming should be
    /// skipped: the controller must be in its skip phase and the grain
    /// must sit in the stretch *interior* — at least
    /// `warm_suffix_grains` before the next detailed-warmup grain, so
    /// every measurement is preceded by freshly warmed state.
    fn skip_now(&self) -> bool {
        let Some(l) = self.learn.as_ref() else { return false };
        if !l.skip_interior() {
            return false;
        }
        let pos = self.grain_idx % self.period;
        pos >= 2 && pos + l.params().warm_suffix_grains < self.period
    }

    /// Whether the current warm grain sits in the stretch *suffix* — the
    /// last `warm_suffix_grains` warm grains before the next detailed-
    /// warmup grain. The suffix is always fully engine-warmed, and it is
    /// the only region features are extracted from, in training and
    /// skipping modes alike: skipped interiors are fast-forwarded with no
    /// feature observer at all
    /// ([`esp_trace::EventCursor::skip_region_observed`]), so collecting
    /// training features from interiors would feed the model a view
    /// prediction-time stretches never see.
    fn in_learn_suffix(&self) -> bool {
        let Some(l) = self.learn.as_ref() else { return false };
        let pos = self.grain_idx % self.period;
        pos + l.params().warm_suffix_grains >= self.period
    }

    /// Credits a bulk warm walk of `n` instructions to the learned
    /// accounting and, inside a stretch's suffix, to the feature
    /// extractor.
    fn note_learn_walk(&mut self, n: u64, skipped: bool) {
        let collect = self.in_learn_suffix();
        let Some(l) = self.learn.as_mut() else { return };
        if collect && l.in_stretch() {
            l.extractor_mut().add_instrs(n);
        }
        if skipped {
            self.learn_skip_acc += n;
        } else {
            self.learn_warm_acc += n;
        }
    }

    /// Flushes the per-grain skip/warm instruction accumulators into
    /// the controller as one completed warm grain. Returns whether the
    /// grain was skipped.
    fn flush_learn_grain(&mut self) -> bool {
        let (skip, warm) = (self.learn_skip_acc, self.learn_warm_acc);
        self.learn_skip_acc = 0;
        self.learn_warm_acc = 0;
        let Some(l) = self.learn.as_mut() else { return false };
        if skip > 0 {
            // The grain's few engine-warmed instructions (the looper
            // prologue) ride along: the skip decision is per grain.
            l.note_grain(skip + warm, true);
            true
        } else {
            if warm > 0 {
                l.note_grain(warm, false);
            }
            false
        }
    }

    /// Reinstalls the skipped region's distinct-line footprint
    /// (collected by the observed skip walk's memory-touch hooks) as
    /// stat-free warm fills — a coarse reconstruction of the cache-state
    /// delta the skipped walk never applied, run once when skipping ends
    /// so the warm suffix and the detailed-warmup grain start from
    /// approximately-warm state instead of a stale one.
    fn reinstall_footprint(&mut self, engine: &mut Engine) {
        let Some(l) = self.learn.as_mut() else { return };
        let now = engine.now();
        let fp = l.footprint();
        for line in fp.i_lines() {
            engine.mem_mut().warm_prefetch_instr(esp_types::LineAddr::new(line), now);
        }
        for line in fp.d_lines() {
            engine.mem_mut().warm_prefetch_data(esp_types::LineAddr::new(line), now);
        }
        l.footprint_mut().clear();
    }

    fn kind(&self) -> GrainKind {
        kind_of(self.grain_idx, self.period)
    }

    /// Instructions left in the current grain.
    fn until_boundary(&self) -> u64 {
        self.grain_instrs - self.grain_acc
    }

    /// Advances the grain clock by `n` functionally-warmed instructions
    /// in one step. `n` must not overshoot the grain boundary (callers
    /// bound their warm walks by [`SampleCtl::until_boundary`]).
    fn warm_bulk(
        &mut self,
        n: u64,
        engine: &mut Engine,
        replay: &ReplayState,
        esp: &Option<EspState<'_>>,
    ) {
        debug_assert!(n <= self.until_boundary());
        self.warm_pending += n;
        self.grain_acc += n;
        if self.grain_acc >= self.grain_instrs {
            self.grain_acc = 0;
            self.cross_boundary(engine, replay, esp);
        }
    }

    /// The grain-boundary transition: flushes/closes the grain that just
    /// ended and opens a measurement snapshot when one begins.
    fn cross_boundary(
        &mut self,
        engine: &mut Engine,
        replay: &ReplayState,
        esp: &Option<EspState<'_>>,
    ) {
        let old = self.kind();
        self.grain_idx += 1;
        let new = self.kind();
        if old == GrainKind::Warm {
            // Every completed warm grain settles its skip/warm
            // accounting, including Warm → Warm crossings below; when a
            // skipped region ends (the warm suffix or the next detailed-
            // warmup grain begins), its collected footprint is replayed
            // into the caches first.
            let ended_skipped = self.flush_learn_grain();
            if ended_skipped && !self.skip_now() {
                self.reinstall_footprint(engine);
            }
        }
        if old == new {
            return;
        }
        if old == GrainKind::Warm {
            self.flush_warm(engine);
            if new == GrainKind::DetailedWarmup {
                if let Some(l) = self.learn.as_mut() {
                    // Stretch over: issue the blind prediction for the
                    // measured grain one grain ahead.
                    l.end_stretch();
                }
            }
        }
        if old == GrainKind::Measured {
            self.close_sample(engine, replay, esp);
        }
        if new == GrainKind::Warm {
            if let Some(l) = self.learn.as_mut() {
                l.begin_stretch(replay.pending_entries());
            }
        }
        if new == GrainKind::Measured {
            self.open = Some(MeasureSnapshot {
                stack: *engine.cpi_stack(),
                engine: *engine.stats(),
                replay: replay.stats(),
                esp: esp.as_ref().map(|e| e.stats().clone()),
            });
        }
    }

    /// Converts pending warmed instructions into a coarse clock advance
    /// at the cumulative measured busy-CPI, charged as idle so the
    /// stack's conservation invariant (`total() == now()`) holds.
    fn flush_warm(&mut self, engine: &mut Engine) {
        if self.warm_pending == 0 {
            return;
        }
        let cpi_millis = self
            .measured_busy
            .saturating_mul(1000)
            .checked_div(self.measured_instrs)
            .unwrap_or(1000);
        self.warm_millis += self.warm_pending * cpi_millis;
        self.warm_pending = 0;
        engine.warm_advance(self.warm_millis / 1000);
        self.warm_millis %= 1000;
    }

    fn close_sample(
        &mut self,
        engine: &Engine,
        replay: &ReplayState,
        esp: &Option<EspState<'_>>,
    ) {
        let Some(snap) = self.open.take() else { return };
        let d_stack = engine.cpi_stack().since(&snap.stack);
        let instrs = engine.stats().retired - snap.engine.retired;
        let busy = d_stack.total() - d_stack.idle;
        self.samples.push(GrainSample {
            instrs,
            busy,
            icache: d_stack.icache_l2 + d_stack.icache_llc,
            dcache: d_stack.dcache_l2 + d_stack.dcache_llc,
            br_mis: d_stack.branch_mispredict,
            br_fetch: d_stack.branch_misfetch,
        });
        if let Some(l) = self.learn.as_mut() {
            if instrs > 0 {
                let n = instrs as f64;
                l.observe_measured([
                    busy as f64 / n,
                    (d_stack.icache_l2 + d_stack.icache_llc) as f64 / n,
                    (d_stack.dcache_l2 + d_stack.dcache_llc) as f64 / n,
                    (d_stack.branch_mispredict + d_stack.branch_misfetch) as f64 / n,
                ]);
            }
        }
        add_stack(&mut self.totals.stack, &d_stack);
        add_engine(&mut self.totals.engine, engine.stats(), &snap.engine);
        add_replay(&mut self.totals.replay, &replay.stats(), &snap.replay);
        if let (Some(esp), Some(before)) = (esp.as_ref(), snap.esp.as_ref()) {
            add_esp(&mut self.totals.esp, esp.stats(), before);
        }
        self.measured_busy += busy;
        self.measured_instrs += instrs;
    }

    /// Closes any trailing open sample and flushes the warm clock.
    fn finish(&mut self, engine: &mut Engine, replay: &ReplayState, esp: &Option<EspState<'_>>) {
        self.flush_warm(engine);
        self.close_sample(engine, replay, esp);
    }
}

impl GrainPolicy for SampleCtl {
    #[inline(always)]
    fn warming(&self) -> bool {
        self.kind() == GrainKind::Warm
    }

    #[inline(always)]
    fn batch_cap(&self) -> u64 {
        self.until_boundary().saturating_sub(1)
    }

    /// Notes an event boundary (feature context; ignored outside warm
    /// stretches).
    fn note_event(&mut self) {
        if let Some(l) = self.learn.as_mut() {
            l.note_event();
        }
    }

    /// Defers the warmed looper instruction's clock advance to the next
    /// [`SampleCtl::flush_warm`] and, in the suffix grains of learned
    /// runs, feeds it to the feature extractor (the looper is always
    /// engine-warmed).
    fn note_warm_looper(&mut self, instr: &Instr) {
        self.warm_pending += 1;
        let collect = self.in_learn_suffix();
        let Some(l) = self.learn.as_mut() else { return };
        if collect && l.in_stretch() {
            l.extractor_mut().note_step(instr);
        }
        self.learn_warm_acc += 1;
    }

    /// Advances the grain clock by one retired instruction and performs
    /// the kind transition when a grain boundary is crossed.
    #[inline(always)]
    fn after_instr(
        &mut self,
        engine: &mut Engine,
        replay: &ReplayState,
        esp: &Option<EspState<'_>>,
    ) {
        self.grain_acc += 1;
        if self.grain_acc < self.grain_instrs {
            return;
        }
        self.grain_acc = 0;
        self.cross_boundary(engine, replay, esp);
    }

    /// Equivalent to `n` calls of [`GrainPolicy::after_instr`] that each
    /// return early: the batch stays strictly inside the grain.
    #[inline(always)]
    fn detailed_bulk(&mut self, n: u64) {
        debug_assert!(n < self.until_boundary());
        self.grain_acc += n;
    }

    /// Fast-forwards in bulk, straight off the packed arrays, up to the
    /// next grain boundary or end of event. In learned mode the walk
    /// depends on the grain: a decode-free cursor advance that only
    /// collects the footprint (skipped interior), engine + extractor tee
    /// (stretch suffix), or plain engine warming (everything else).
    ///
    /// Inlined so the event loop's cursor never has its address taken
    /// and stays in registers through the detailed grains.
    #[inline(always)]
    fn warm_grain(
        &mut self,
        stream: &mut EventCursor<'_>,
        line_bytes: u64,
        engine: &mut Engine,
        replay: &ReplayState,
        esp: &Option<EspState<'_>>,
    ) -> bool {
        let want = self.until_boundary();
        let skipped = self.skip_now();
        let collect = self.in_learn_suffix();
        let walked = if skipped {
            let l = self.learn.as_mut().expect("skipping requires a controller");
            stream.skip_region_observed(want, line_bytes, l.footprint_mut())
        } else {
            match self.learn.as_mut() {
                Some(l) if collect && l.in_stretch() => {
                    let mut tee = WarmTee::new(engine, l.extractor_mut());
                    stream.warm_region(want, line_bytes, &mut tee)
                }
                _ => stream.warm_region(want, line_bytes, engine),
            }
        };
        self.note_learn_walk(walked, skipped);
        engine.warm_retire(walked);
        self.warm_bulk(walked, engine, replay, esp);
        walked < want
    }

    /// Keeps the coarse clock caught up before the next event's
    /// post-time idling.
    fn end_event(&mut self, engine: &mut Engine) {
        self.flush_warm(engine);
    }
}

impl Simulator {
    /// Runs the workload in sampling mode: detailed simulation of a
    /// periodic sample of instruction grains, functional warming in
    /// between, and a whole-run report extrapolated from the measured
    /// grains (see the module docs). Falls back to exact simulation for
    /// workloads too small to hold two sampling periods.
    pub fn run_sampled(&self, workload: &PackedWorkload, params: SampleParams) -> SampledRun {
        self.run_sampled_probed(workload, params, &mut NullProbe)
    }

    /// [`Simulator::run_sampled`] with an observability probe. The probe
    /// sees the detailed grains only — stall charges, windows, and one
    /// [`EventSpan`](esp_obs::EventSpan) per event — plus a final
    /// [`RunSummary`](esp_obs::RunSummary) carrying the extrapolated totals.
    pub fn run_sampled_probed<P: Probe>(
        &self,
        workload: &PackedWorkload,
        params: SampleParams,
        probe: &mut P,
    ) -> SampledRun {
        // The fields are public: hold them to `new`'s ranges.
        let params = SampleParams::new(params.grain_instrs, params.period);
        if let Some(run) = self.sampled_exact_fallback(workload, params, probe) {
            return run;
        }
        self.run_sampled_inner(workload, params, probe, None)
    }

    /// Runs the workload in *learned* sampling mode: like
    /// [`Simulator::run_sampled`], but an `esp-learn` predictor replaces
    /// most of the functional-warming walk once its residuals are in
    /// bounds (see the module docs). Falls back to exact simulation for
    /// tiny workloads, to full warming on residual breaches, and — when
    /// the fallback ladder bottoms out after skipping already happened —
    /// re-executes the run with plain warming so the returned report is
    /// clean (`LearnedStats::rerun_full`).
    ///
    /// # Panics
    ///
    /// Panics if `params` or `learn` are invalid
    /// ([`LearnParams::validate`] — CLI front ends validate first).
    pub fn run_sampled_learned(
        &self,
        workload: &PackedWorkload,
        params: SampleParams,
        learn: LearnParams,
    ) -> SampledRun {
        self.run_sampled_learned_probed(workload, params, learn, &mut NullProbe)
    }

    /// [`Simulator::run_sampled_learned`] with an observability probe.
    /// The probe sees the learned attempt; in the rare rerun-with-plain-
    /// warming case the rerun is unprobed (its detailed grains repeat
    /// what the probe already saw, minus the skip bias).
    pub fn run_sampled_learned_probed<P: Probe>(
        &self,
        workload: &PackedWorkload,
        params: SampleParams,
        learn: LearnParams,
        probe: &mut P,
    ) -> SampledRun {
        // The fields are public: hold them to `new`'s ranges.
        let params = SampleParams::new(params.grain_instrs, params.period);
        if let Err(e) = learn.validate() {
            panic!("invalid learned-mode parameters: {e}");
        }
        if let Some(mut run) = self.sampled_exact_fallback(workload, params, probe) {
            run.learned = Some(LearnedStats::empty(learn.model));
            return run;
        }
        let run = self.run_sampled_inner(workload, params, probe, Some(learn));
        let stats = run.learned.expect("learned run carries stats");
        if stats.disabled && stats.skipped_instrs > 0 {
            // Last rung of the ladder: the model kept breaching its bound
            // after skipping had already touched warm state. Discard the
            // tainted estimate and redo the run with plain warming.
            let mut clean = self.run_sampled_inner(workload, params, &mut NullProbe, None);
            clean.learned = Some(LearnedStats { rerun_full: true, ..stats });
            return clean;
        }
        run
    }

    /// The shared too-small-to-sample escape: `Some(exact run)` when the
    /// workload cannot hold two sampling periods.
    fn sampled_exact_fallback<P: Probe>(
        &self,
        workload: &PackedWorkload,
        params: SampleParams,
        probe: &mut P,
    ) -> Option<SampledRun> {
        let events = workload.events();
        let n_looper = self.config().looper_instrs as u64;
        // Saturating: an imported trace's length hint may be as large as
        // `u64::MAX`.
        let approx_total = workload
            .approx_total_instructions()
            .saturating_add(n_looper.saturating_mul(events.len() as u64));
        let grains_total = approx_total.div_ceil(params.grain_instrs.max(1));
        if grains_total >= params.period * 2 {
            return None;
        }
        // Too small for two periods: sampling would measure nearly
        // everything anyway. Run exact and report zero error.
        let report = self.run_probed(workload, probe);
        let instrs = report.engine.retired;
        let stack = report.cpi_stack;
        let one = |y: u64| ratio_estimate(&[(instrs, y)]);
        let estimate = SamplingEstimate {
            grains_total,
            grains_measured: grains_total,
            measured_instrs: instrs,
            total_instrs: instrs,
            cpi: one(report.busy_cycles()),
            icache_cpi: one(stack.icache_l2 + stack.icache_llc),
            dcache_cpi: one(stack.dcache_l2 + stack.dcache_llc),
            branch_cpi: one(stack.branch_mispredict + stack.branch_misfetch),
            exact_fallback: true,
        };
        Some(SampledRun { report, estimate, learned: None })
    }

    fn run_sampled_inner<P: Probe>(
        &self,
        workload: &PackedWorkload,
        params: SampleParams,
        probe: &mut P,
        learn: Option<LearnParams>,
    ) -> SampledRun {
        let line_bytes = self.config().engine.machine.hierarchy.l1i.line_bytes;
        let ff = learn
            .map(|lp| Box::new(FastForward::new(lp, line_bytes).expect("params pre-validated")));
        let mut live = self.new_live(workload, SampleCtl::new(params, ff));
        // Skipped stretches feed the DCU and the predictor nothing, so
        // only plain sampling retires the streams the sidecars were built
        // from.
        if learn.is_none() {
            self.attach_dcu_triggers(workload, &mut live.engine);
            self.attach_branch_outcomes(workload, &mut live.engine);
        }
        self.run_sampled_live(workload, live, probe)
    }

    /// Runs a sampled run's prepared `live` state (fresh, on its grain
    /// clock, sidecars attached as the run allows) over `workload` and
    /// extrapolates the report and estimate.
    pub(crate) fn run_sampled_live<'w, P: Probe>(
        &self,
        workload: &'w PackedWorkload,
        live: LiveState<'w, SampleCtl>,
        probe: &mut P,
    ) -> SampledRun {
        let LiveState { mut engine, esp, replay, grains: mut ctl, .. } =
            self.run_events(workload, live, probe);
        ctl.finish(&mut engine, &replay, &esp);

        let total_instrs = engine.stats().retired;
        let measured_instrs = ctl.measured_instrs;
        let events_run = workload.events().len() as u64;
        let report =
            self.extrapolate_report(esp, &ctl.totals, total_instrs, measured_instrs, events_run);
        let samples = &ctl.samples;
        let mut estimate = SamplingEstimate {
            grains_total: ctl.grain_idx + 1,
            grains_measured: samples.len() as u64,
            measured_instrs,
            total_instrs,
            cpi: ratio_estimate(
                &samples.iter().map(|s| (s.instrs, s.busy)).collect::<Vec<_>>(),
            ),
            icache_cpi: ratio_estimate(
                &samples.iter().map(|s| (s.instrs, s.icache)).collect::<Vec<_>>(),
            ),
            dcache_cpi: ratio_estimate(
                &samples.iter().map(|s| (s.instrs, s.dcache)).collect::<Vec<_>>(),
            ),
            branch_cpi: ratio_estimate(
                &samples
                    .iter()
                    .map(|s| (s.instrs, s.br_mis + s.br_fetch))
                    .collect::<Vec<_>>(),
            ),
            exact_fallback: false,
        };
        let learned = ctl.learn.as_ref().map(|l| {
            // The estimator's intervals assume measured grains are
            // preceded by faithful warming; skipping traded some of that
            // for model predictions, so the prediction noise widens the
            // intervals (never narrows them).
            let r = l.residuals();
            estimate.cpi = r[0].inflate(estimate.cpi);
            estimate.icache_cpi = r[1].inflate(estimate.icache_cpi);
            estimate.dcache_cpi = r[2].inflate(estimate.dcache_cpi);
            estimate.branch_cpi = r[3].inflate(estimate.branch_cpi);
            l.stats()
        });
        probe.on_run(&run_summary(&report, &engine));
        SampledRun { report, estimate, learned }
    }

    /// Replays pending prediction lists into warmed state: every listed
    /// line becomes an instant stat-free fill, every replayable branch a
    /// predictor training — what the timed replay of a detailed event
    /// would eventually have installed.
    pub(crate) fn warm_apply_lists(engine: &mut Engine, lists: &ReplayLists) {
        let now = engine.now();
        for rec in &lists.ilist {
            for line in rec.lines() {
                engine.mem_mut().warm_prefetch_instr(line, now);
            }
        }
        for rec in &lists.dlist {
            for line in rec.lines() {
                engine.mem_mut().warm_prefetch_data(line, now);
            }
        }
        engine.bp_mut().begin_replay();
        for rec in &lists.blist {
            if let Some(instr) = rec.to_instr() {
                engine.bp_mut().train_ahead(&instr);
            }
        }
    }

    /// Assembles the extrapolated whole-run report: every measured-grain
    /// counter is scaled by `total_instrs / measured_instrs` — the
    /// combined ratio estimator, unbiased under systematic sampling.
    /// Retirement is exact (warming counts it precisely).
    fn extrapolate_report(
        &self,
        esp: Option<EspState<'_>>,
        totals: &MeasuredTotals,
        total_instrs: u64,
        measured_instrs: u64,
        events_run: u64,
    ) -> RunReport {
        let s = |x: u64| scaled(x, total_instrs, measured_instrs);
        let stack = CpiStack {
            base: s(totals.stack.base),
            icache_l2: s(totals.stack.icache_l2),
            icache_llc: s(totals.stack.icache_llc),
            dcache_l2: s(totals.stack.dcache_l2),
            dcache_llc: s(totals.stack.dcache_llc),
            branch_mispredict: s(totals.stack.branch_mispredict),
            branch_misfetch: s(totals.stack.branch_misfetch),
            // Idle is not extrapolated: the inter-sample clock is
            // approximate, and busy cycles are the figure of merit.
            idle: 0,
            pre_exec_overlap: s(totals.stack.pre_exec_overlap),
        };
        let engine_stats = esp_uarch::EngineStats {
            retired: total_instrs,
            l1i_accesses: s(totals.engine.l1i_accesses),
            l1i_misses: s(totals.engine.l1i_misses),
            l1d_accesses: s(totals.engine.l1d_accesses),
            l1d_misses: s(totals.engine.l1d_misses),
            branches: s(totals.engine.branches),
            mispredicts: s(totals.engine.mispredicts),
            misfetches: s(totals.engine.misfetches),
            runahead_instrs: s(totals.engine.runahead_instrs),
        };
        let esp_stats = EspRunStats {
            windows: s(totals.esp.windows),
            wasted_window_cycles: s(totals.esp.wasted_window_cycles),
            instrs_by_depth: totals.esp.instrs_by_depth.iter().map(|&v| s(v)).collect(),
            events_started: s(totals.esp.events_started),
            lists_discarded: s(totals.esp.lists_discarded),
            blocked_switches: s(totals.esp.blocked_switches),
        };
        let replay_stats = ReplayStats {
            iprefetches: s(totals.replay.iprefetches),
            dprefetches: s(totals.replay.dprefetches),
            btrains: s(totals.replay.btrains),
        };
        let report = RunReport {
            total_cycles: stack.total(),
            breakdown: esp_uarch::CycleBreakdown::from_stack(&stack),
            cpi_stack: stack,
            engine: engine_stats,
            esp: esp_stats,
            replay: replay_stats,
            events_run,
            ..RunReport::default()
        };
        self.finish_report(report, esp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use esp_workload::BenchmarkProfile;

    fn pct_err(sampled: f64, exact: f64) -> f64 {
        if exact == 0.0 {
            return 0.0;
        }
        100.0 * (sampled - exact).abs() / exact
    }

    #[test]
    fn sampled_cpi_tracks_exact_for_base_and_esp() {
        let w = BenchmarkProfile::amazon().scaled(600_000).build(42).materialise();
        for cfg in [SimConfig::base(), SimConfig::esp_nl(), SimConfig::runahead()] {
            let sim = Simulator::new(cfg);
            let exact = sim.run(&w);
            let sampled = sim.run_sampled(&w, SampleParams::default());
            assert!(!sampled.estimate.exact_fallback);
            assert!(sampled.estimate.grains_measured >= 2);
            let exact_cpi = exact.busy_cycles() as f64 / exact.engine.retired as f64;
            let got_cpi =
                sampled.report.busy_cycles() as f64 / sampled.report.engine.retired as f64;
            let err = pct_err(got_cpi, exact_cpi);
            assert!(err < 8.0, "cpi error {err:.2}% (exact {exact_cpi:.4}, sampled {got_cpi:.4})");
            // Retirement is tracked exactly through warming.
            assert_eq!(sampled.report.engine.retired, exact.engine.retired);
            assert_eq!(sampled.report.events_run, exact.events_run);
        }
    }

    #[test]
    fn sampled_run_is_deterministic() {
        let w = BenchmarkProfile::pixlr().scaled(120_000).build(7).materialise();
        let sim = Simulator::new(SimConfig::esp_nl());
        let a = sim.run_sampled(&w, SampleParams::default());
        let b = sim.run_sampled(&w, SampleParams::default());
        assert_eq!(a.report.total_cycles, b.report.total_cycles);
        assert_eq!(a.report.engine, b.report.engine);
        assert_eq!(a.estimate.measured_instrs, b.estimate.measured_instrs);
        assert_eq!(a.estimate.cpi, b.estimate.cpi);
    }

    #[test]
    fn tiny_workload_falls_back_to_exact() {
        let w = BenchmarkProfile::amazon().scaled(5_000).build(42).materialise();
        let sim = Simulator::new(SimConfig::base());
        let exact = sim.run(&w);
        let sampled = sim.run_sampled(&w, SampleParams::new(10_000, 20));
        assert!(sampled.estimate.exact_fallback);
        assert_eq!(sampled.report.total_cycles, exact.total_cycles);
        assert_eq!(sampled.report.engine, exact.engine);
        assert_eq!(sampled.estimate.cpi.se, 0.0);
    }

    #[test]
    fn estimate_reports_confidence_interval() {
        let w = BenchmarkProfile::gmaps().scaled(200_000).build(42).materialise();
        let sim = Simulator::new(SimConfig::base());
        let sampled = sim.run_sampled(&w, SampleParams::default());
        let est = &sampled.estimate;
        assert!(est.grains_measured >= 2, "measured {}", est.grains_measured);
        assert!(est.cpi.ratio > 0.0);
        assert!(est.cpi.ci95 >= 0.0);
        assert_eq!(est.cpi.n, est.grains_measured);
        assert!(est.measured_instrs < est.total_instrs);
    }

    #[test]
    #[should_panic(expected = "period must be >= 3")]
    fn short_period_is_rejected() {
        SampleParams::new(1_000, 2);
    }

    #[test]
    fn learned_cpi_tracks_exact_and_actually_skips() {
        let w = BenchmarkProfile::amazon().scaled(600_000).build(42).materialise();
        for cfg in [SimConfig::base(), SimConfig::esp_nl()] {
            let sim = Simulator::new(cfg);
            let exact = sim.run(&w);
            let run =
                sim.run_sampled_learned(&w, SampleParams::default(), LearnParams::default());
            let stats = run.learned.expect("learned run reports stats");
            assert!(!run.estimate.exact_fallback);
            assert!(!stats.rerun_full, "stable workload must not bottom out");
            assert!(
                stats.skipped_instrs > 0 && stats.skip_fraction() > 0.3,
                "skipping must be non-vacuous (skip fraction {:.2})",
                stats.skip_fraction()
            );
            assert!(stats.predictions > 0);
            let exact_cpi = exact.busy_cycles() as f64 / exact.engine.retired as f64;
            let got_cpi = run.report.busy_cycles() as f64 / run.report.engine.retired as f64;
            let err = pct_err(got_cpi, exact_cpi);
            assert!(err < 8.0, "cpi error {err:.2}% (exact {exact_cpi:.4}, got {got_cpi:.4})");
            // Retirement stays exact: the skip walk still counts every
            // instruction.
            assert_eq!(run.report.engine.retired, exact.engine.retired);
        }
    }

    #[test]
    fn learned_run_is_deterministic() {
        let w = BenchmarkProfile::pixlr().scaled(300_000).build(7).materialise();
        let sim = Simulator::new(SimConfig::esp_nl());
        let a = sim.run_sampled_learned(&w, SampleParams::default(), LearnParams::default());
        let b = sim.run_sampled_learned(&w, SampleParams::default(), LearnParams::default());
        assert_eq!(a.report.total_cycles, b.report.total_cycles);
        assert_eq!(a.report.engine, b.report.engine);
        assert_eq!(a.estimate.cpi, b.estimate.cpi);
        assert_eq!(a.learned, b.learned);
    }

    #[test]
    fn learned_tiny_workload_reports_empty_stats() {
        let w = BenchmarkProfile::amazon().scaled(5_000).build(42).materialise();
        let sim = Simulator::new(SimConfig::base());
        let run = sim.run_sampled_learned(&w, SampleParams::new(10_000, 20), LearnParams::default());
        assert!(run.estimate.exact_fallback);
        let stats = run.learned.expect("fallback still tags the run as learned");
        assert_eq!(stats, esp_learn::LearnedStats::empty(esp_learn::ModelKind::Ridge));
    }

    #[test]
    fn learned_ladder_bottom_reruns_with_plain_warming() {
        let w = BenchmarkProfile::amazon().scaled(600_000).build(42).materialise();
        let sim = Simulator::new(SimConfig::base());
        // amazon/base at this scale predicts well enough up front to pass
        // the skip-entry gate, then drifts past the bias threshold later
        // in the run; with a single allowed fallback the first breach
        // bottoms the ladder out and the run must be redone with plain
        // warming.
        let learn = LearnParams { max_fallbacks: 1, ..LearnParams::default() };
        let run = sim.run_sampled_learned(&w, SampleParams::default(), learn);
        let stats = run.learned.expect("learned stats");
        assert!(stats.skipped_instrs > 0, "run must actually have skipped before breaching");
        assert!(stats.disabled && stats.fallbacks >= 1);
        assert!(stats.rerun_full, "tainted run must be redone");
        // The delivered report is then exactly the plain sampled one.
        let plain = sim.run_sampled(&w, SampleParams::default());
        assert_eq!(run.report.total_cycles, plain.report.total_cycles);
        assert_eq!(run.report.engine, plain.report.engine);
        assert_eq!(run.estimate.cpi, plain.estimate.cpi);
    }

    #[test]
    fn learned_intervals_never_narrower_than_plain() {
        let w = BenchmarkProfile::amazon().scaled(600_000).build(42).materialise();
        let sim = Simulator::new(SimConfig::base());
        let run =
            sim.run_sampled_learned(&w, SampleParams::default(), LearnParams::default());
        let stats = run.learned.unwrap();
        if stats.predictions > 0 && !stats.rerun_full {
            // Same samples, inflated se: the learned interval dominates
            // what the same estimator would report uninflated.
            assert!(run.estimate.cpi.se > 0.0);
            assert!(run.estimate.cpi.ci95 >= 1.96 * run.estimate.cpi.se - 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "--learn-train must be at least 1")]
    fn learned_invalid_params_panic_with_cli_message() {
        let w = BenchmarkProfile::amazon().scaled(10_000).build(42).materialise();
        let sim = Simulator::new(SimConfig::base());
        let learn = LearnParams { train_stretches: 0, ..LearnParams::default() };
        let _ = sim.run_sampled_learned(&w, SampleParams::default(), learn);
    }
}
