//! Per-configuration specialised simulation kernels.
//!
//! The generic [`Engine::step_probed`] path decodes a 32-byte
//! [`Instr`], matches on its kind enum, and re-reads configuration
//! fields (line size, hit latencies, perfect/prefetcher flags) on every
//! retired instruction. For a matrix run that is pure overhead: the
//! configuration is fixed for the whole simulation, and packed workloads
//! already hold the stream as raw kind bytes and operand words.
//!
//! This module *lowers* the active configuration once per run into
//!
//! * [`KernelParams`] — the config-dependent constants of the hot loop,
//!   flattened (line shift instead of line bytes, hit latencies, ROB
//!   size, exposure percentage, perfect/NL flags), and
//! * [`KindTable`] — a flat 8-entry function table indexed by the packed
//!   kind tag. Each entry is the kind-specific half of a step
//!   (branch-predict or data-access), monomorphised over the
//!   configuration axes that matter for it (perfect-L1D, DCU next-line,
//!   stride), so e.g. a Base-config load never tests the stride flag and
//!   a perfect-branch config never touches the predictor.
//!
//! [`Engine::step_raw`] then fuses decode → fetch → predict → access →
//! charge into one pass over the raw step: the shared prefix (base
//! charge + fetch-line dedup + L1-I access) runs inline, the kind
//! dispatch is one indexed call through the table, and no `Instr` is
//! materialised except for branches (the predictor trains on full
//! instructions). The call sequence into the memory hierarchy, branch
//! predictor, CPI stack, and probe is *identical* to `step_probed` —
//! byte-identical reports are asserted by the `packed_equivalence` suite
//! in `esp-bench` and the exhaustive dispatch test in this crate.
//!
//! [`Engine::charge_plain_alus`] is the grain-batch half: runs of plain
//! ALU instructions on an already-fetched line charge base cycles in one
//! accumulation instead of one division per instruction (callers size
//! the run with `PackedCursor::plain_alu_run`).
//!
//! The branch handlers build their `Instr` with `RawStep::to_instr` from
//! the kind the table dispatched on, a constant in each handler, and call
//! the force-inlined `BranchPredictor::predict_and_update`, so both
//! matches on the kind fold away; the memory handlers reach
//! the hierarchy's inlined L1 lookup through one call.

// Every kind handler shares one flat fn-pointer signature (the table's
// whole point); the raw step's fields arrive unpacked, so the arity is
// fixed by the dispatch ABI, not by any one handler's needs.
#![allow(clippy::too_many_arguments)]

use crate::engine::{Stall, StallKind, StepOutcome};
use crate::Engine;
use esp_branch::{Prediction, PredictorContext};
use esp_obs::{CycleClass, Probe, StepRecord};
use esp_trace::kindbits::{TAG_CALL, TAG_COND, TAG_IND_BRANCH, TAG_IND_CALL, TAG_MASK, TAG_RET};
use esp_trace::{Instr, RawStep};
use esp_types::{Addr, LineAddr};

/// Config-dependent constants of the fused hot loop, resolved once at
/// run start by [`Engine::lower_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Cache line size in bytes (the L1-I's; `step_probed` uses it for
    /// both instruction and data lines).
    pub line_bytes: u64,
    /// `line_bytes.trailing_zeros()`: lines are computed by shift.
    pub line_shift: u32,
    /// L1-I hit latency (subtracted from fetch latency for exposure).
    pub l1i_hit: u64,
    /// L1-D hit latency.
    pub l1d_hit: u64,
    /// Percentage of the L2-hit data latency the core exposes.
    pub data_exposed_pct: u64,
    /// ROB entries — the LLC-miss overlap window, in instructions.
    pub rob_entries: u64,
    /// Perfect instruction cache: the fetch path is skipped.
    pub perfect_l1i: bool,
    /// Perfect data cache: load/store handlers are no-ops.
    pub perfect_l1d: bool,
    /// Perfect branch prediction: branch handlers only count.
    pub perfect_branch: bool,
    /// Miss-triggered next-line instruction prefetching.
    pub nl_instr: bool,
    /// DCU next-line data prefetching.
    pub nl_data: bool,
    /// Stride data prefetching.
    pub stride: bool,
}

/// The kind-specific half of one fused step. Receives the raw kind
/// byte, pc, and operand word plus the shared per-step record/outcome
/// accumulators.
pub type KindFn<P> = fn(
    &mut Engine,
    &KernelParams,
    u8,  // kind byte (tag + flags)
    u64, // pc
    u64, // operand
    &mut StepRecord,
    &mut StepOutcome,
    &mut P,
);

/// The flat per-kind dispatch table of one lowered configuration,
/// indexed by the packed tag bits (`kind & TAG_MASK`). Entries are
/// selected at lowering time from monomorphised handler variants, so
/// disabled features cost no per-instruction test.
pub struct KindTable<P: Probe> {
    table: [KindFn<P>; 8],
}

impl<P: Probe> KindTable<P> {
    /// Builds the dispatch table for `kp`.
    pub fn new(kp: &KernelParams) -> Self {
        let load: KindFn<P> = if kp.perfect_l1d {
            k_nop
        } else {
            match (kp.nl_data, kp.stride) {
                (false, false) => k_load::<P, false, false>,
                (true, false) => k_load::<P, true, false>,
                (false, true) => k_load::<P, false, true>,
                (true, true) => k_load::<P, true, true>,
            }
        };
        let store: KindFn<P> = if kp.perfect_l1d {
            k_nop
        } else if kp.nl_data {
            k_store::<P, true>
        } else {
            k_store::<P, false>
        };
        let branches: [KindFn<P>; 5] = if kp.perfect_branch {
            [k_branch_perfect; 5]
        } else {
            [
                k_branch::<P, TAG_COND>,
                k_branch::<P, TAG_IND_BRANCH>,
                k_branch::<P, TAG_IND_CALL>,
                k_branch::<P, TAG_CALL>,
                k_branch::<P, TAG_RET>,
            ]
        };
        KindTable {
            table: [
                k_nop, load, store, branches[0], branches[1], branches[2], branches[3],
                branches[4],
            ],
        }
    }

    /// The handler for `tag` (masked, so the lookup is bounds-check
    /// free).
    #[inline(always)]
    pub fn get(&self, tag: u8) -> KindFn<P> {
        self.table[(tag & TAG_MASK) as usize]
    }
}

/// ALU instructions (and perfect-L1D memory instructions) have no
/// kind-specific work.
fn k_nop<P: Probe>(
    _e: &mut Engine,
    _kp: &KernelParams,
    _kind: u8,
    _pc: u64,
    _op: u64,
    _rec: &mut StepRecord,
    _out: &mut StepOutcome,
    _probe: &mut P,
) {
}

fn k_load<P: Probe, const NL: bool, const STRIDE: bool>(
    e: &mut Engine,
    kp: &KernelParams,
    _kind: u8,
    pc: u64,
    op: u64,
    rec: &mut StepRecord,
    out: &mut StepOutcome,
    probe: &mut P,
) {
    e.stats.l1d_accesses += 1;
    let line = LineAddr::new(op >> kp.line_shift);
    let t_access = e.now;
    let r = e.mem.access_data(line, t_access, false);
    if NL {
        if let Some(p) = e.dcu_access(line) {
            e.mem.prefetch_data(p, t_access, true);
        }
    }
    if STRIDE {
        if let Some(p) = e.stride.on_load(Addr::new(pc), Addr::new(op), kp.line_bytes) {
            e.mem.prefetch_data(p, t_access, true);
        }
    }
    rec.data_access = true;
    rec.data_latency = r.latency;
    rec.l1d_miss = r.l1_miss;
    if r.l1_miss {
        e.stats.l1d_misses += 1;
        out.l1d_miss = true;
    }
    let exposed = if r.llc_miss {
        let overlapped =
            e.last_data_llc_miss_at.is_some_and(|at| e.stats.retired - at < kp.rob_entries);
        e.last_data_llc_miss_at = Some(e.stats.retired);
        if overlapped {
            0
        } else {
            r.latency
        }
    } else {
        r.latency.saturating_sub(kp.l1d_hit) * kp.data_exposed_pct / 100
    };
    e.now += exposed;
    if exposed > 0 {
        let class = if r.llc_miss { CycleClass::DcacheLlc } else { CycleClass::DcacheL2 };
        e.stack.charge(class, exposed);
        probe.on_stall(class, exposed, e.now);
    }
    if r.llc_miss && exposed > 0 {
        out.stall = Some(Stall { kind: StallKind::DataLlcMiss, start: t_access, cycles: exposed });
    }
}

fn k_store<P: Probe, const NL: bool>(
    e: &mut Engine,
    kp: &KernelParams,
    _kind: u8,
    _pc: u64,
    op: u64,
    rec: &mut StepRecord,
    out: &mut StepOutcome,
    _probe: &mut P,
) {
    // Stores retire through the store buffer: they update cache state
    // (write-allocate) but expose no latency.
    e.stats.l1d_accesses += 1;
    let line = LineAddr::new(op >> kp.line_shift);
    let r = e.mem.access_data(line, e.now, true);
    rec.data_access = true;
    rec.l1d_miss = r.l1_miss;
    if r.l1_miss {
        e.stats.l1d_misses += 1;
        out.l1d_miss = true;
    }
    if NL {
        if let Some(p) = e.dcu_access(line) {
            e.mem.prefetch_data(p, e.now, true);
        }
    }
}

/// Shared branch half: predict, charge the penalty, classify.
#[inline(always)]
fn branch_body<P: Probe>(
    e: &mut Engine,
    instr: &Instr,
    rec: &mut StepRecord,
    out: &mut StepOutcome,
    probe: &mut P,
) {
    e.stats.branches += 1;
    let outcome = e.bp.predict_and_update(PredictorContext::Normal, instr);
    let penalty = e.bp.penalty_of(outcome);
    e.now += penalty;
    rec.branch_penalty = penalty;
    match outcome {
        Prediction::Mispredict => {
            e.stack.charge(CycleClass::BranchMispredict, penalty);
            probe.on_stall(CycleClass::BranchMispredict, penalty, e.now);
            e.stats.mispredicts += 1;
            out.mispredict = true;
            rec.mispredict = true;
        }
        Prediction::Misfetch => {
            e.stack.charge(CycleClass::BranchMisfetch, penalty);
            probe.on_stall(CycleClass::BranchMisfetch, penalty, e.now);
            e.stats.misfetches += 1;
            rec.misfetch = true;
        }
        Prediction::Correct => {}
    }
}

/// Perfect branch prediction: the outcome is `Correct` with zero
/// penalty, so only the branch count advances.
fn k_branch_perfect<P: Probe>(
    e: &mut Engine,
    _kp: &KernelParams,
    _kind: u8,
    _pc: u64,
    _op: u64,
    _rec: &mut StepRecord,
    _out: &mut StepOutcome,
    _probe: &mut P,
) {
    e.stats.branches += 1;
}

/// A branch of tag `TAG`: the predictor trains on the full instruction,
/// built by [`RawStep::to_instr`]. Restating the tag the table
/// dispatched on makes it a constant, so both the decode's and the
/// predictor's match on the kind fold away.
fn k_branch<P: Probe, const TAG: u8>(
    e: &mut Engine,
    _kp: &KernelParams,
    kind: u8,
    pc: u64,
    op: u64,
    rec: &mut StepRecord,
    out: &mut StepOutcome,
    probe: &mut P,
) {
    let kind = (kind & !TAG_MASK) | TAG;
    branch_body(e, &RawStep { kind, pc, op }.to_instr(), rec, out, probe);
}

impl Engine {
    /// Lowers the active configuration into flat kernel parameters.
    pub fn lower_kernel(&self) -> KernelParams {
        let h = &self.cfg.machine.hierarchy;
        KernelParams {
            line_bytes: h.l1i.line_bytes,
            line_shift: h.l1i.line_bytes.trailing_zeros(),
            l1i_hit: h.l1i.hit_latency,
            l1d_hit: h.l1d.hit_latency,
            data_exposed_pct: self.cfg.timing.data_exposed_pct,
            rob_entries: self.cfg.machine.rob_entries as u64,
            perfect_l1i: self.cfg.perfect.l1i,
            perfect_l1d: self.cfg.perfect.l1d,
            perfect_branch: self.cfg.perfect.branch,
            nl_instr: self.cfg.nl_instr,
            nl_data: self.cfg.nl_data,
            stride: self.cfg.stride,
        }
    }

    /// The fused raw-step kernel: [`Engine::step_probed`] over a packed
    /// `(kind, pc, op)` triple, with the kind-specific half dispatched
    /// through `tbl`. Performs the exact same sequence of memory,
    /// predictor, stack, and probe calls as the generic path, so runs
    /// through either produce byte-identical reports.
    #[inline(always)]
    pub fn step_raw<P: Probe>(
        &mut self,
        kp: &KernelParams,
        tbl: &KindTable<P>,
        kind: u8,
        pc: u64,
        op: u64,
        probe: &mut P,
    ) -> StepOutcome {
        let tag = kind & TAG_MASK;
        let mut out = StepOutcome::default();
        let mut rec = StepRecord { is_branch: tag >= TAG_COND, ..StepRecord::default() };
        self.charge_base();

        // ---- instruction fetch (shared prefix) --------------------------
        let fetch_line = LineAddr::new(pc >> kp.line_shift);
        if self.last_fetch_line != Some(fetch_line) {
            self.last_fetch_line = Some(fetch_line);
            if !kp.perfect_l1i {
                self.stats.l1i_accesses += 1;
                let t_access = self.now;
                let r = self.mem.access_instr(fetch_line, t_access);
                if kp.nl_instr && r.l1_miss {
                    if let Some(p) = self.nl_i.on_fetch(fetch_line) {
                        self.mem.prefetch_instr(p, t_access, true);
                    }
                }
                rec.fetched = 1;
                rec.fetch_latency = r.latency;
                rec.l1i_miss = r.l1_miss;
                if r.l1_miss {
                    self.stats.l1i_misses += 1;
                    out.l1i_miss = true;
                }
                let exposed = r.latency.saturating_sub(kp.l1i_hit);
                self.now += exposed;
                if exposed > 0 {
                    let class =
                        if r.llc_miss { CycleClass::IcacheLlc } else { CycleClass::IcacheL2 };
                    self.stack.charge(class, exposed);
                    probe.on_stall(class, exposed, self.now);
                }
                if r.llc_miss && exposed > 0 {
                    out.stall = Some(Stall {
                        kind: StallKind::InstrLlcMiss,
                        start: t_access,
                        cycles: exposed,
                    });
                }
            }
        }

        // ---- kind-specific half (branch / data) -------------------------
        tbl.get(tag)(self, kp, kind, pc, op, &mut rec, &mut out, probe);

        probe.on_step(&rec);
        self.stats.retired += 1;
        out
    }

    /// Whether the fetch path is currently on `line` — the batching
    /// eligibility check of the plain-ALU fast path.
    #[inline(always)]
    pub fn on_fetch_line(&self, line: u64) -> bool {
        self.last_fetch_line == Some(LineAddr::new(line))
    }

    /// Retires `n` plain ALU instructions on an already-fetched line in
    /// one accumulation. Equivalent to `n` [`Engine::step_probed`] calls
    /// on same-line ALU instructions: the base-cycle residue arithmetic
    /// distributes over the batch ((m + n·b) divmod 1000 equals n single
    /// carries), no fetch/branch/data work exists, and the probe still
    /// observes one (empty) step record per instruction — a loop the
    /// compiler removes for no-op probes.
    #[inline(always)]
    pub fn charge_plain_alus<P: Probe>(&mut self, n: u64, probe: &mut P) {
        self.millis += self.base_millis_per_instr * n;
        let whole = self.millis / 1000;
        self.millis %= 1000;
        self.now += whole;
        self.stack.charge(CycleClass::Base, whole);
        self.stats.retired += n;
        let rec = StepRecord::default();
        for _ in 0..n {
            probe.on_step(&rec);
        }
    }
}
