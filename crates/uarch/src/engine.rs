//! The interval-model execution engine.

use crate::EngineConfig;
use esp_branch::{BranchPredictor, Prediction, SpeculativeCheckpoint};
use esp_mem::prefetch::{DcuNextLine, NextLineInstr, StridePrefetcher};
use esp_mem::{MemoryHierarchy, Port};
use esp_obs::{CpiStack, CycleClass, NullProbe, Probe, StepRecord};
use esp_trace::{Instr, InstrKind, RawStep};
use esp_types::{Cycle, LineAddr, TapeReader};

/// Which kind of last-level-cache miss opened a stall window.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallKind {
    /// An instruction fetch missed the LLC.
    InstrLlcMiss,
    /// A demand load missed the LLC (and did not overlap a prior miss).
    DataLlcMiss,
}

/// An exposed LLC-miss stall: idle cycles a pre-execution scheme may use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stall {
    /// What missed.
    pub kind: StallKind,
    /// The cycle the stall began.
    pub start: Cycle,
    /// Exposed (idle) cycles.
    pub cycles: u64,
}

/// What happened while retiring one instruction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StepOutcome {
    /// An LLC-miss stall window, if one was exposed.
    pub stall: Option<Stall>,
    /// The fetch missed (or partially hit) the L1-I.
    pub l1i_miss: bool,
    /// The data access missed (or partially hit) the L1-D.
    pub l1d_miss: bool,
    /// The branch mispredicted.
    pub mispredict: bool,
}

impl Default for Stall {
    fn default() -> Self {
        Stall { kind: StallKind::DataLlcMiss, start: Cycle::ZERO, cycles: 0 }
    }
}

/// Where the cycles went — the coarse breakdown behind every figure.
///
/// Derived from the engine's fine-grained [`CpiStack`] by folding the
/// L2/LLC and mispredict/misfetch pairs together; see
/// [`Engine::cpi_stack`] for the unfolded version.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Issue-width and dispatch-inefficiency cycles.
    pub base: u64,
    /// Exposed instruction-fetch stall cycles.
    pub icache: u64,
    /// Exposed data-access stall cycles.
    pub dcache: u64,
    /// Branch misprediction penalties.
    pub branch: u64,
    /// Cycles with an empty event queue.
    pub idle: u64,
}

impl CycleBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> u64 {
        self.base + self.icache + self.dcache + self.branch + self.idle
    }

    /// Folds a fine-grained stack into the coarse categories.
    pub fn from_stack(s: &CpiStack) -> CycleBreakdown {
        CycleBreakdown {
            base: s.base,
            icache: s.icache_l2 + s.icache_llc,
            dcache: s.dcache_l2 + s.dcache_llc,
            branch: s.branch_mispredict + s.branch_misfetch,
            idle: s.idle,
        }
    }
}

/// Normal-mode demand counters (kept separate from the raw cache
/// statistics so runahead/ESP activity never distorts the reported
/// rates).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Instructions retired in normal mode.
    pub retired: u64,
    /// L1-I demand lookups (one per fetched line transition).
    pub l1i_accesses: u64,
    /// L1-I demand misses (including in-flight partial hits).
    pub l1i_misses: u64,
    /// L1-D demand lookups (loads and stores).
    pub l1d_accesses: u64,
    /// L1-D demand misses (including in-flight partial hits).
    pub l1d_misses: u64,
    /// Branches retired in normal mode.
    pub branches: u64,
    /// Branches mispredicted in normal mode.
    pub mispredicts: u64,
    /// Direct-target BTB misfetches (cheap decode re-steers; not counted
    /// in the misprediction rate).
    pub misfetches: u64,
    /// Instructions pre-executed in runahead mode.
    pub runahead_instrs: u64,
}

/// The interval-model core: memory hierarchy, branch predictor,
/// prefetchers, and the cycle-accounting state machine.
///
/// Drive it by calling [`Engine::step_raw`] once per retiring
/// instruction of the normal-mode stream, with parameters lowered once by
/// [`Engine::lower_kernel`] ([`Engine::step`] is the one-off convenience
/// form over an `Instr`). `step_raw` and [`Engine::charge_plain_alus`]
/// are the only ways a normal-mode instruction retires. The engine
/// charges all cycles itself; the returned [`StepOutcome::stall`] tells
/// the caller how large the just-charged idle window was, so a
/// pre-execution scheme can spend it.
#[derive(Clone, Debug)]
pub struct Engine {
    pub(crate) cfg: EngineConfig,
    pub(crate) mem: MemoryHierarchy,
    pub(crate) bp: BranchPredictor,
    pub(crate) nl_i: NextLineInstr,
    pub(crate) dcu: DcuNextLine,
    /// Precomputed DCU decisions played back in place of `dcu`, one
    /// trigger bit per data access (see [`Engine::replay_dcu`]).
    dcu_replay: Option<TapeReader<1>>,
    /// Precomputed branch outcomes played back in place of `bp`, one
    /// [`Prediction::code`] per branch (see [`Engine::replay_branches`]).
    branch_replay: Option<TapeReader<2>>,
    pub(crate) stride: StridePrefetcher,
    pub(crate) now: Cycle,
    pub(crate) millis: u64,
    pub(crate) base_millis_per_instr: u64,
    pub(crate) last_fetch_line: Option<LineAddr>,
    pub(crate) last_data_llc_miss_at: Option<u64>,
    pub(crate) stack: CpiStack,
    pub(crate) stats: EngineStats,
    warm: WarmStats,
    /// Scratch storage for runahead's predictor checkpoint, reused by
    /// every episode after the first (see
    /// [`Engine::run_runahead_cursor`]); holds no state between episodes.
    pub(crate) runahead_checkpoint: Option<SpeculativeCheckpoint>,
}

/// Auxiliary event counts accumulated by the functional-warming paths,
/// mirroring [`EngineStats`]'s counting rules (fetch-line dedup,
/// perfect-flag gating) but kept separate so detailed-grain measurements
/// stay unpolluted. No report reads them: they exist so a test can hold
/// two warming paths to the same work, access for access and outcome for
/// outcome (`tests/warm_equivalence.rs` compares the bulk warm walk with
/// per-instruction [`Engine::warm_step`]). Under branch outcome replay
/// ([`Engine::replay_branches`]) the warm outcome counts come from the
/// replayed outcomes, which equal the predictor's.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WarmStats {
    /// L1-I lookups (one per fetched line transition).
    pub l1i_accesses: u64,
    /// L1-I misses.
    pub l1i_misses: u64,
    /// L1-D lookups (loads and stores).
    pub l1d_accesses: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// Branches warmed.
    pub branches: u64,
    /// Branches whose warm prediction was a full mispredict.
    pub mispredicts: u64,
    /// Branches whose warm prediction was a decode re-steer.
    pub misfetches: u64,
}

impl Engine {
    /// Builds an engine with cold caches.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`EngineConfig::validate`].
    pub fn new(cfg: EngineConfig) -> Self {
        cfg.validate().expect("invalid engine configuration");
        let mem = MemoryHierarchy::new(cfg.machine.hierarchy.clone());
        let bp = BranchPredictor::new(cfg.machine.branch.clone(), cfg.bp_policy);
        let base_millis_per_instr = 1000 / cfg.machine.width as u64 + cfg.timing.issue_extra_millis;
        Engine {
            mem,
            bp,
            nl_i: NextLineInstr::new(),
            dcu: DcuNextLine::new(),
            dcu_replay: None,
            branch_replay: None,
            stride: StridePrefetcher::new(256),
            now: Cycle::ZERO,
            millis: 0,
            base_millis_per_instr,
            last_fetch_line: None,
            last_data_llc_miss_at: None,
            stack: CpiStack::default(),
            stats: EngineStats::default(),
            warm: WarmStats::default(),
            runahead_checkpoint: None,
            cfg,
        }
    }

    /// The configuration this engine runs.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Base issue cost of one instruction in thousandths of a cycle:
    /// `1000 / width` plus the dispatch-inefficiency adder. Normal mode,
    /// runahead and ESP pre-execution all charge it.
    pub fn base_millis_per_instr(&self) -> u64 {
        self.base_millis_per_instr
    }

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The coarse cycle breakdown so far (derived from the CPI stack).
    pub fn breakdown(&self) -> CycleBreakdown {
        CycleBreakdown::from_stack(&self.stack)
    }

    /// The fine-grained CPI stack so far. Its classes partition the
    /// engine's charged cycles: `cpi_stack().total() == now()`.
    pub fn cpi_stack(&self) -> &CpiStack {
        &self.stack
    }

    /// Records `cycles` of already-charged stall time as covered by
    /// useful pre-execution (the `pre_exec_overlap` memo; called by the
    /// ESP window spender and the runahead driver).
    pub fn note_pre_exec_overlap(&mut self, cycles: u64) {
        self.stack.pre_exec_overlap += cycles;
    }

    /// Normal-mode demand counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The memory hierarchy (for list-driven prefetches and probes).
    pub fn mem(&self) -> &MemoryHierarchy {
        &self.mem
    }

    /// Mutable access to the memory hierarchy.
    pub fn mem_mut(&mut self) -> &mut MemoryHierarchy {
        &mut self.mem
    }

    /// The branch predictor.
    pub fn bp(&self) -> &BranchPredictor {
        &self.bp
    }

    /// Mutable access to the branch predictor (ESP-mode predictions and
    /// B-list replay training).
    pub fn bp_mut(&mut self) -> &mut BranchPredictor {
        &mut self.bp
    }

    /// Idles the core until `t` (empty event queue).
    pub fn idle_until(&mut self, t: Cycle) {
        if t.is_after(self.now) {
            self.stack.charge(CycleClass::Idle, t - self.now);
            self.now = t;
        }
    }

    /// Makes the DCU next-line prefetcher play back `triggers` (a 1-bit
    /// [`esp_types::TapeWriter`] tape, set where the tracker prefetched)
    /// instead of running its tracker: one bit test per data access
    /// instead of a tracker search.
    ///
    /// Byte-identical only when the engine then feeds the DCU exactly the
    /// data line stream the bits were built from, from its first access
    /// on: every load and store it steps or warms, in order, and nothing
    /// else. Runs that skip accesses (learned fast-forwarding) must keep
    /// the live tracker.
    ///
    /// # Panics
    ///
    /// Panics if `triggers` is malformed, or if the engine has already
    /// retired an instruction.
    pub fn replay_dcu(&mut self, triggers: std::sync::Arc<[u64]>) {
        assert_eq!(self.stats.retired, 0, "DCU replay must start with the stream");
        self.dcu_replay = Some(TapeReader::new(triggers));
    }

    /// Whether a DCU replay is attached and has consumed exactly its
    /// whole stream; `None` when the live tracker runs.
    pub fn dcu_replay_finished(&self) -> Option<bool> {
        self.dcu_replay.as_ref().map(TapeReader::is_finished)
    }

    /// The DCU's decision for a data access to `line`: replayed when
    /// triggers are attached, from the live tracker otherwise.
    #[inline(always)]
    pub(crate) fn dcu_access(&mut self, line: LineAddr) -> Option<LineAddr> {
        match &mut self.dcu_replay {
            Some(r) => (r.next_code() != 0).then(|| line.next()),
            None => self.dcu.on_access(line),
        }
    }

    /// Makes the engine play back the branch outcomes `outcomes` (a 2-bit
    /// [`esp_types::TapeWriter`] tape of [`Prediction::code`]s) instead
    /// of running the predictor for retired normal-context branches: one
    /// shift and mask per branch instead of a table walk, and the
    /// predictor's tables stay untouched.
    ///
    /// Byte-identical only when the outcomes were built by a predictor of
    /// this engine's table sizes over exactly the branch stream the engine
    /// then retires or warms, from its first branch on, and when nothing
    /// else trains or reads the predictor: no runahead episode that
    /// predicts, no ESP pre-execution, no skipped stretch, no op-log
    /// replay.
    ///
    /// # Panics
    ///
    /// Panics if `outcomes` is malformed, or if the engine has already
    /// retired an instruction.
    pub fn replay_branches(&mut self, outcomes: std::sync::Arc<[u64]>) {
        assert_eq!(self.stats.retired, 0, "branch outcome replay must start with the stream");
        self.branch_replay = Some(TapeReader::new(outcomes));
    }

    /// Whether a branch outcome replay is attached and has consumed
    /// exactly its whole stream; `None` when the predictor runs.
    pub fn branch_replay_finished(&self) -> Option<bool> {
        self.branch_replay.as_ref().map(TapeReader::is_finished)
    }

    /// The replayed outcome of the next retired normal-context branch
    /// when outcomes are attached; `None` when the predictor runs.
    #[inline(always)]
    pub(crate) fn replayed_outcome(&mut self) -> Option<Prediction> {
        self.branch_replay.as_mut().map(|r| Prediction::from_code(r.next_code()))
    }

    /// Charges a retired branch's `outcome`: its penalty cycles, CPI
    /// class and counters.
    #[inline(always)]
    pub(crate) fn charge_branch<P: Probe>(
        &mut self,
        outcome: Prediction,
        rec: &mut StepRecord,
        out: &mut StepOutcome,
        probe: &mut P,
    ) {
        let penalty = self.bp.penalty_of(outcome);
        self.now += penalty;
        rec.branch_penalty = penalty;
        match outcome {
            Prediction::Mispredict => {
                self.stack.charge(CycleClass::BranchMispredict, penalty);
                probe.on_stall(CycleClass::BranchMispredict, penalty, self.now);
                self.stats.mispredicts += 1;
                out.mispredict = true;
                rec.mispredict = true;
            }
            Prediction::Misfetch => {
                self.stack.charge(CycleClass::BranchMisfetch, penalty);
                probe.on_stall(CycleClass::BranchMisfetch, penalty, self.now);
                self.stats.misfetches += 1;
                rec.misfetch = true;
            }
            Prediction::Correct => {}
        }
    }

    /// Records `instrs` runahead pre-executed instructions (called by the
    /// runahead driver; exposed for the energy model).
    pub(crate) fn note_runahead_instrs(&mut self, instrs: u64) {
        self.stats.runahead_instrs += instrs;
    }

    pub(crate) fn charge_base(&mut self) {
        self.millis += self.base_millis_per_instr;
        let whole = self.millis / 1000;
        self.millis %= 1000;
        self.now += whole;
        self.stack.charge(CycleClass::Base, whole);
    }

    /// Retires one normal-mode instruction, charging all cycles: the
    /// instruction's packed form ([`RawStep::from_instr`]) through
    /// [`Engine::step_raw`] under freshly lowered parameters. Drivers
    /// that retire many instructions lower once and call `step_raw`.
    pub fn step(&mut self, instr: &Instr) -> StepOutcome {
        let kp = self.lower_kernel();
        let rs = RawStep::from_instr(instr);
        self.step_raw(&kp, rs.kind, rs.pc, rs.op, &mut NullProbe)
    }

    // ---- functional warming ---------------------------------------------
    //
    // The sampling mode's fast-forward (see `esp-core`): between detailed
    // grains the engine keeps every architectural structure trained —
    // cache tags/LRU, prefetcher state, branch-predictor tables — while
    // charging no stall cycles and recording no statistics other than the
    // retired-instruction count. The warm paths mirror `step_raw`'s
    // update decisions exactly (fetch-line dedup, perfect flags,
    // miss-triggered NL-I, every-access DCU, load-only stride) with
    // instant fills in place of timed ones.

    /// Warms the fetch path for instruction line `line`.
    #[inline(always)]
    fn warm_fetch(&mut self, line: LineAddr) {
        if self.last_fetch_line == Some(line) {
            return;
        }
        self.last_fetch_line = Some(line);
        if self.cfg.perfect.l1i {
            return;
        }
        self.warm.l1i_accesses += 1;
        let missed = self.mem.warm(Port::Instr, line, self.now);
        if missed {
            self.warm.l1i_misses += 1;
        }
        if self.cfg.nl_instr && missed {
            if let Some(p) = self.nl_i.on_fetch(line) {
                self.mem.warm_prefetch_instr(p, self.now);
            }
        }
    }

    /// Warms the data path for a load at `pc` of `addr`.
    #[inline(always)]
    fn warm_load(&mut self, pc: esp_types::Addr, addr: esp_types::Addr) {
        let line_bytes = self.cfg.machine.hierarchy.l1i.line_bytes;
        let line = addr.line(line_bytes);
        self.warm.l1d_accesses += 1;
        if self.mem.warm(Port::Data, line, self.now) {
            self.warm.l1d_misses += 1;
        }
        if self.cfg.nl_data {
            if let Some(p) = self.dcu_access(line) {
                self.mem.warm_prefetch_data(p, self.now);
            }
        }
        if self.cfg.stride {
            if let Some(p) = self.stride.on_load(pc, addr, line_bytes) {
                self.mem.warm_prefetch_data(p, self.now);
            }
        }
    }

    /// Warms the data path for a store of `addr`.
    #[inline(always)]
    fn warm_store(&mut self, addr: esp_types::Addr) {
        let line_bytes = self.cfg.machine.hierarchy.l1i.line_bytes;
        let line = addr.line(line_bytes);
        self.warm.l1d_accesses += 1;
        if self.mem.warm(Port::Data, line, self.now) {
            self.warm.l1d_misses += 1;
        }
        if self.cfg.nl_data {
            if let Some(p) = self.dcu_access(line) {
                self.mem.warm_prefetch_data(p, self.now);
            }
        }
    }

    /// Functionally warms one instruction: all the state updates of
    /// [`Engine::step`], no cycle charges, no statistics beyond
    /// `retired`. Used for streams the packed warm walk cannot cover
    /// (the looper prologue, unpacked workloads).
    pub fn warm_step(&mut self, instr: &Instr) {
        let line_bytes = self.cfg.machine.hierarchy.l1i.line_bytes;
        self.warm_fetch(instr.pc.line(line_bytes));
        if instr.is_branch() {
            self.warm_branch_instr(instr);
        }
        match instr.kind {
            InstrKind::Load { addr, .. } if !self.cfg.perfect.l1d => {
                self.warm_load(instr.pc, addr)
            }
            InstrKind::Store { addr } if !self.cfg.perfect.l1d => self.warm_store(addr),
            _ => {}
        }
        self.stats.retired += 1;
    }

    /// Warms the branch predictor for one branch, counting the outcome
    /// (under outcome replay: consumes and counts the replayed outcome).
    #[inline(always)]
    fn warm_branch_instr(&mut self, instr: &Instr) {
        self.warm.branches += 1;
        if self.cfg.perfect.branch {
            return;
        }
        let outcome = self.replayed_outcome().unwrap_or_else(|| self.bp.warm_update(instr));
        match outcome {
            Prediction::Mispredict => self.warm.mispredicts += 1,
            Prediction::Misfetch => self.warm.misfetches += 1,
            Prediction::Correct => {}
        }
    }

    /// Auxiliary event counts of the warming paths so far.
    pub fn warm_stats(&self) -> &WarmStats {
        &self.warm
    }

    /// Credits `instrs` warm-walked instructions to the retired count
    /// (the packed warm walk feeds state through the [`esp_trace::WarmSink`]
    /// impl and reports its instruction total once, in bulk).
    pub fn warm_retire(&mut self, instrs: u64) {
        self.stats.retired += instrs;
    }

    /// Advances the clock over a warmed (unmeasured) region, charging the
    /// cycles as [`CycleClass::Idle`] so the stack's conservation
    /// invariant (`cpi_stack().total() == now()`) holds and the
    /// busy-cycle figure of merit stays a function of detailed grains
    /// only.
    pub fn warm_advance(&mut self, cycles: u64) {
        self.now += cycles;
        self.stack.charge(CycleClass::Idle, cycles);
    }
}

impl Engine {
    /// Retired-distance to the last data LLC miss in canonical form:
    /// `Some(d)` only while `d` is inside the ROB window. Beyond that
    /// the overlap rule can never fire again, so the raw value is
    /// behaviourally dead.
    fn canonical_llc_miss_dist(&self) -> Option<u64> {
        self.last_data_llc_miss_at
            .map(|at| self.stats.retired - at)
            .filter(|&d| d < u64::from(self.cfg.machine.rob_entries))
    }

    /// The first component in which `self` and `other` hold different
    /// behavioural state at cycle `at`, or `None` when they would
    /// respond identically to any future input: the retired count, the
    /// sub-cycle residue, the fetch line, the LLC-miss overlap window,
    /// the three prefetchers, the branch predictor, and every cache
    /// level. Statistics and charged cycles are not compared; caches
    /// compare by behavioural equivalence at `at` (recency rank order,
    /// in-flight fills — see [`esp_mem::SetAssocCache::same_state`]),
    /// the predictor by [`esp_branch::BranchPredictor::same_state`].
    pub fn state_difference(&self, other: &Engine, at: Cycle) -> Option<&'static str> {
        if self.stats.retired != other.stats.retired {
            return Some("retired-instruction count");
        }
        if self.millis != other.millis {
            return Some("sub-cycle residue");
        }
        if self.last_fetch_line != other.last_fetch_line {
            return Some("fetch-line dedup state");
        }
        if self.canonical_llc_miss_dist() != other.canonical_llc_miss_dist() {
            return Some("LLC-miss overlap window");
        }
        if !self.nl_i.same_state(&other.nl_i) {
            return Some("next-line instruction prefetcher");
        }
        if !self.dcu.same_state(&other.dcu) {
            return Some("DCU data prefetcher");
        }
        if !self.stride.same_state(&other.stride) {
            return Some("stride prefetcher");
        }
        if !self.bp.same_state(&other.bp) {
            return Some("branch predictor");
        }
        if !self.mem.same_state(&other.mem, at) {
            return Some("cache hierarchy");
        }
        None
    }
}

impl esp_trace::WarmSink for Engine {
    #[inline(always)]
    fn warm_fetch_line(&mut self, line: u64) {
        self.warm_fetch(LineAddr::new(line));
    }

    #[inline(always)]
    fn warm_load(&mut self, pc: u64, addr: u64) {
        if !self.cfg.perfect.l1d {
            Engine::warm_load(self, esp_types::Addr::new(pc), esp_types::Addr::new(addr));
        }
    }

    #[inline(always)]
    fn warm_store(&mut self, addr: u64) {
        if !self.cfg.perfect.l1d {
            Engine::warm_store(self, esp_types::Addr::new(addr));
        }
    }

    #[inline(always)]
    fn warm_branch(&mut self, instr: &Instr) {
        self.warm_branch_instr(instr);
    }
}

/// A functional-warming tee: forwards every [`esp_trace::WarmSink`]
/// callback to the engine *and* to a second sink. The learned sampling
/// mode tees its feature extractor next to the engine during fully
/// warmed grains, so the extractor observes exactly the callback
/// sequence it would see alone during skipped grains — no train/predict
/// feature skew.
pub struct WarmTee<'a, S: esp_trace::WarmSink> {
    engine: &'a mut Engine,
    extra: &'a mut S,
}

impl<'a, S: esp_trace::WarmSink> WarmTee<'a, S> {
    /// Tees `extra` next to `engine`.
    pub fn new(engine: &'a mut Engine, extra: &'a mut S) -> Self {
        WarmTee { engine, extra }
    }
}

impl<S: esp_trace::WarmSink> esp_trace::WarmSink for WarmTee<'_, S> {
    #[inline]
    fn warm_fetch_line(&mut self, line: u64) {
        esp_trace::WarmSink::warm_fetch_line(self.engine, line);
        self.extra.warm_fetch_line(line);
    }

    #[inline]
    fn warm_load(&mut self, pc: u64, addr: u64) {
        esp_trace::WarmSink::warm_load(self.engine, pc, addr);
        self.extra.warm_load(pc, addr);
    }

    #[inline]
    fn warm_store(&mut self, addr: u64) {
        esp_trace::WarmSink::warm_store(self.engine, addr);
        self.extra.warm_store(addr);
    }

    #[inline]
    fn warm_branch(&mut self, instr: &Instr) {
        esp_trace::WarmSink::warm_branch(self.engine, instr);
        self.extra.warm_branch(instr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PerfectFlags;
    use esp_types::Addr;

    fn alu_at(pc: u64) -> Instr {
        Instr::alu(Addr::new(pc))
    }

    #[test]
    fn base_cost_accounting() {
        let mut e = Engine::new(EngineConfig {
            perfect: PerfectFlags::all(),
            ..EngineConfig::baseline()
        });
        // 4-wide + 500 extra milli-cycles = 750 millicycles per instr.
        for i in 0..1000u64 {
            e.step(&alu_at(0x1000 + i * 4));
        }
        assert_eq!(e.now().as_u64(), 750);
        assert_eq!(e.breakdown().base, 750);
        assert_eq!(e.stats().retired, 1000);
    }

    #[test]
    fn cold_fetch_charges_and_reports_stall() {
        let mut e = Engine::new(EngineConfig::baseline());
        let out = e.step(&alu_at(0x40_0000));
        assert!(out.l1i_miss);
        let stall = out.stall.expect("cold fetch is an LLC miss");
        assert_eq!(stall.kind, StallKind::InstrLlcMiss);
        assert_eq!(stall.cycles, 99); // 101 total minus 2-cycle hit
        assert_eq!(e.breakdown().icache, 99);
        // Same line again: no new fetch charge.
        let out2 = e.step(&alu_at(0x40_0004));
        assert!(!out2.l1i_miss);
        assert_eq!(e.breakdown().icache, 99);
    }

    #[test]
    fn data_llc_misses_overlap_within_rob() {
        let mut e = Engine::new(EngineConfig::baseline());
        // Two cold loads close together: the second overlaps the first.
        let l1 = Instr::load(Addr::new(0x1000), Addr::new(0x10_0000), false);
        let l2 = Instr::load(Addr::new(0x1004), Addr::new(0x20_0000), false);
        let o1 = e.step(&l1);
        assert!(o1.stall.is_some());
        let d_before = e.breakdown().dcache;
        let o2 = e.step(&l2);
        assert!(o2.stall.is_none(), "overlapped miss exposes no stall");
        assert_eq!(e.breakdown().dcache, d_before);
    }

    #[test]
    fn distant_data_misses_both_stall() {
        let mut e = Engine::new(EngineConfig::baseline());
        e.step(&Instr::load(Addr::new(0x1000), Addr::new(0x10_0000), false));
        // Retire a ROB's worth of ALU work in between.
        for i in 0..100u64 {
            e.step(&alu_at(0x1000 + i * 4));
        }
        let out = e.step(&Instr::load(Addr::new(0x2000), Addr::new(0x20_0000), false));
        assert!(out.stall.is_some());
    }

    #[test]
    fn l2_hit_data_charge_is_partial() {
        let mut e = Engine::new(EngineConfig::baseline());
        let addr = Addr::new(0x30_0000);
        e.step(&Instr::load(Addr::new(0x1000), addr, false));
        // Evict from L1-D with two conflicting lines (2-way, 256 sets).
        let conflict1 = Addr::new(0x30_0000 + 256 * 64);
        let conflict2 = Addr::new(0x30_0000 + 512 * 64);
        for _ in 0..2 {
            e.step(&Instr::load(Addr::new(0x1010), conflict1, false));
            e.step(&Instr::load(Addr::new(0x1014), conflict2, false));
        }
        e.idle_until(Cycle::new(10_000));
        let d_before = e.breakdown().dcache;
        let out = e.step(&Instr::load(Addr::new(0x1004), addr, false));
        assert!(out.l1d_miss);
        assert!(out.stall.is_none());
        // Exposed charge: (2 + 21 - 2) * 60% = 12 cycles.
        assert_eq!(e.breakdown().dcache - d_before, 12);
    }

    #[test]
    fn mispredict_penalty_charged() {
        let mut e = Engine::new(EngineConfig::baseline());
        // Warm the fetch path first to isolate the branch charge.
        e.step(&alu_at(0x1000));
        let b_before = e.breakdown().branch;
        // A cold *forward taken* branch defeats BTFN static prediction:
        // full misprediction penalty.
        e.step(&Instr::cond_branch(Addr::new(0x1004), true, Addr::new(0x2000)));
        assert_eq!(e.breakdown().branch - b_before, 15);
        assert_eq!(e.stats().mispredicts, 1);
        assert_eq!(e.stats().branches, 1);
        // A cold *backward taken* branch is BTFN-correct in direction but
        // misses the BTB: only the decode re-steer penalty.
        let b_before = e.breakdown().branch;
        e.step(&Instr::cond_branch(Addr::new(0x1008), true, Addr::new(0x1000)));
        assert_eq!(e.breakdown().branch - b_before, 6);
        assert_eq!(e.stats().misfetches, 1);
        assert_eq!(e.stats().mispredicts, 1);
    }

    #[test]
    fn perfect_flags_remove_charges() {
        let mut e = Engine::new(EngineConfig {
            perfect: PerfectFlags::all(),
            ..EngineConfig::baseline()
        });
        e.step(&Instr::load(Addr::new(0x40_0000), Addr::new(0x9_0000), false));
        e.step(&Instr::cond_branch(Addr::new(0x40_0004), true, Addr::new(0x10)));
        assert_eq!(e.breakdown().icache, 0);
        assert_eq!(e.breakdown().dcache, 0);
        assert_eq!(e.breakdown().branch, 0);
        assert_eq!(e.stats().mispredicts, 0);
        assert_eq!(e.stats().l1i_accesses, 0, "perfect L1-I skips demand counting");
    }

    #[test]
    fn next_line_instr_prefetch_helps_sequential_fetch() {
        let run = |nl: bool| {
            let mut cfg = EngineConfig::baseline();
            cfg.nl_instr = nl;
            let mut e = Engine::new(cfg);
            // March straight through 64 lines of code.
            for i in 0..(64 * 16) {
                e.step(&alu_at(0x40_0000 + i * 4));
            }
            e.breakdown().icache
        };
        let without = run(false);
        let with = run(true);
        // Miss-triggered one-block-lookahead roughly halves sequential
        // miss cost (prefetched lines don't themselves trigger).
        assert!(
            with < without * 3 / 4,
            "next-line should cut sequential fetch stalls: {with} vs {without}"
        );
    }

    #[test]
    fn stride_prefetch_helps_strided_loads() {
        let run = |stride: bool| {
            let mut cfg = EngineConfig::baseline();
            cfg.stride = stride;
            let mut e = Engine::new(cfg);
            for i in 0..256u64 {
                e.step(&Instr::load(Addr::new(0x1000), Addr::new(0x10_0000 + i * 256), false));
                // Space the loads beyond the ROB window so misses do not
                // just overlap away.
                for j in 0..100 {
                    e.step(&alu_at(0x2000 + j * 4));
                }
            }
            e.breakdown().dcache
        };
        let without = run(false);
        let with = run(true);
        assert!(with < without, "stride prefetching should help: {with} vs {without}");
    }

    #[test]
    fn idle_accounting() {
        let mut e = Engine::new(EngineConfig::baseline());
        e.idle_until(Cycle::new(500));
        assert_eq!(e.breakdown().idle, 500);
        // Idling backwards is a no-op.
        e.idle_until(Cycle::new(100));
        assert_eq!(e.now().as_u64(), 500);
    }

    #[test]
    fn warm_step_trains_state_without_cycles_or_stats() {
        let mut e = Engine::new(EngineConfig::baseline());
        e.warm_step(&Instr::load(Addr::new(0x40_0000), Addr::new(0x9_0000), false));
        assert_eq!(e.now().as_u64(), 0);
        assert_eq!(e.cpi_stack().total(), 0);
        assert_eq!(e.stats().l1i_accesses, 0);
        assert_eq!(e.stats().l1d_accesses, 0);
        assert_eq!(e.stats().retired, 1);
        // The warmed data line hits in a detailed step (fetch stays on
        // the warmed line, so only the data path is exercised).
        let out = e.step(&Instr::load(Addr::new(0x40_0004), Addr::new(0x9_0000), false));
        assert!(out.stall.is_none());
        assert!(!out.l1d_miss);
        // Leave the warmed code line and come back: it hits too.
        e.step(&alu_at(0x50_0000));
        let out = e.step(&alu_at(0x40_0008));
        assert!(!out.l1i_miss);
    }

    #[test]
    fn warm_sink_walk_matches_warm_step() {
        use esp_trace::PackedTrace;
        // Warming via the packed walk and via per-instruction warm_step
        // must leave identical cache/predictor state.
        let instrs = vec![
            Instr::alu(Addr::new(0x40_0000)),
            Instr::load(Addr::new(0x40_0004), Addr::new(0x9_0000), false),
            Instr::store(Addr::new(0x40_0008), Addr::new(0xa_0040)),
            Instr::cond_branch(Addr::new(0x40_000c), true, Addr::new(0x40_0000)),
        ];
        let packed = PackedTrace::from_instrs(&instrs);
        let mut walked = Engine::new(EngineConfig::next_line());
        let line_bytes = walked.config().machine.hierarchy.l1i.line_bytes;
        let n = packed.cursor().warm_walk_bounded(u64::MAX, line_bytes, &mut walked);
        walked.warm_retire(n);
        let mut stepped = Engine::new(EngineConfig::next_line());
        for i in &instrs {
            stepped.warm_step(i);
        }
        assert_eq!(walked.stats().retired, stepped.stats().retired);
        assert_eq!(walked.mem().snapshot(), stepped.mem().snapshot());
        assert!(walked.mem().l1(Port::Data).probe(Addr::new(0x9_0000).line(line_bytes)));
        assert!(walked.mem().l1(Port::Instr).probe(Addr::new(0x40_0000).line(line_bytes)));
    }

    #[test]
    fn warm_advance_charges_idle() {
        let mut e = Engine::new(EngineConfig::baseline());
        e.warm_advance(123);
        assert_eq!(e.now().as_u64(), 123);
        assert_eq!(e.breakdown().idle, 123);
        assert_eq!(e.cpi_stack().total(), 123);
    }

    #[test]
    fn breakdown_total_matches_now() {
        let mut e = Engine::new(EngineConfig::next_line());
        let mut pc = 0x40_0000u64;
        for i in 0..5000u64 {
            let instr = match i % 7 {
                0 => Instr::load(Addr::new(pc), Addr::new(0x10_0000 + i * 64), false),
                3 => Instr::store(Addr::new(pc), Addr::new(0x20_0000 + i * 8)),
                5 => Instr::cond_branch(Addr::new(pc), i % 2 == 0, Addr::new(0x40_0000)),
                _ => alu_at(pc),
            };
            if let Some(t) = instr.branch_taken().filter(|&t| t).and(instr.branch_target()) {
                pc = t.as_u64();
            } else {
                pc += 4;
            }
            e.step(&instr);
        }
        // now == total breakdown minus the sub-cycle residue.
        let total = e.breakdown().total();
        assert_eq!(e.now().as_u64(), total);
    }
}
