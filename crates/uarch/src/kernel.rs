//! The fused per-instruction kernel: the engine's one normal-mode
//! retire body.
//!
//! The configuration is fixed for a whole simulation, and packed
//! workloads already hold the stream as raw kind bytes and operand words,
//! so nothing on the per-instruction path decodes a 32-byte
//! [`esp_trace::Instr`] or re-reads configuration fields (line size, hit
//! latencies, perfect/prefetcher flags). This module *lowers* the active
//! configuration once per run into [`KernelParams`]: the config-dependent
//! constants of the hot loop, flattened (line shift instead of line
//! bytes, hit latencies, ROB size, exposure percentage, perfect/prefetcher
//! flags).
//!
//! [`Engine::step_raw`] then fuses decode → fetch → predict → access →
//! charge into one pass over the raw step: the shared prefix (base
//! charge + fetch-line dedup + L1-I access) runs inline, and a `match` on
//! the packed kind tag picks the kind-specific half (data access or
//! branch), each a force-inlined handler that tests the run-constant
//! flags it needs. There is no indirect call: every flag test is a
//! branch the host predicts perfectly for the whole run. No `Instr` is
//! materialised except for branches the live predictor trains on.
//! Every normal-mode instruction retires here: the event bodies straight
//! off the packed cursor, the looper prologue and [`Engine::step`]
//! through [`RawStep::from_instr`]. Its behaviour is anchored by
//! committed digests, not by a second implementation: the exhaustive
//! dispatch test in this crate (`kernel_table_equivalence`) pins every
//! kind × configuration to per-step outcome and final-state digests, and
//! the golden digests of the workspace pin whole runs.
//!
//! [`Engine::charge_plain_alus`] is the grain-batch half: runs of plain
//! ALU instructions on an already-fetched line charge base cycles in one
//! accumulation instead of one division per instruction (callers size
//! the run with `PackedCursor::plain_alu_run`).
//!
//! Each branch tag has its own match arm. Under branch outcome replay
//! ([`Engine::replay_branches`]) the arm reads the next outcome and
//! builds no `Instr`; otherwise it calls the live predictor through one
//! out-of-line function per tag, which builds its `Instr` with
//! `RawStep::to_instr` from the constant tag, so both that decode's and
//! the predictor's match on the kind fold away.

use crate::engine::{Stall, StallKind, StepOutcome};
use crate::Engine;
use esp_branch::{Prediction, PredictorContext};
use esp_obs::{CycleClass, Probe, StepRecord};
use esp_trace::kindbits::{
    TAG_ALU, TAG_CALL, TAG_COND, TAG_IND_BRANCH, TAG_IND_CALL, TAG_LOAD, TAG_MASK, TAG_RET,
    TAG_STORE,
};
use esp_trace::RawStep;
use esp_types::{Addr, LineAddr};

/// Config-dependent constants of the fused hot loop, resolved once at
/// run start by [`Engine::lower_kernel`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelParams {
    /// Cache line size in bytes (the L1-I's; the kernel uses it for both
    /// instruction and data lines).
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

impl Engine {
    /// A load's data access: L1-D lookup, the enabled data prefetchers,
    /// and the exposed latency under the MLP overlap rule.
    #[inline(always)]
    fn k_load<P: Probe>(
        &mut self,
        kp: &KernelParams,
        pc: u64,
        op: u64,
        rec: &mut StepRecord,
        out: &mut StepOutcome,
        probe: &mut P,
    ) {
        self.stats.l1d_accesses += 1;
        let line = LineAddr::new(op >> kp.line_shift);
        let t_access = self.now;
        let r = self.mem.access_data(line, t_access, false);
        if kp.nl_data {
            if let Some(p) = self.dcu_access(line) {
                self.mem.prefetch_data(p, t_access, true);
            }
        }
        if kp.stride {
            if let Some(p) = self.stride.on_load(Addr::new(pc), Addr::new(op), kp.line_bytes) {
                self.mem.prefetch_data(p, t_access, true);
            }
        }
        rec.data_access = true;
        rec.data_latency = r.latency;
        rec.l1d_miss = r.l1_miss;
        if r.l1_miss {
            self.stats.l1d_misses += 1;
            out.l1d_miss = true;
        }
        let exposed = if r.llc_miss {
            let overlapped = self
                .last_data_llc_miss_at
                .is_some_and(|at| self.stats.retired - at < kp.rob_entries);
            self.last_data_llc_miss_at = Some(self.stats.retired);
            if overlapped {
                0
            } else {
                r.latency
            }
        } else {
            r.latency.saturating_sub(kp.l1d_hit) * kp.data_exposed_pct / 100
        };
        self.now += exposed;
        if exposed > 0 {
            let class = if r.llc_miss { CycleClass::DcacheLlc } else { CycleClass::DcacheL2 };
            self.stack.charge(class, exposed);
            probe.on_stall(class, exposed, self.now);
        }
        if r.llc_miss && exposed > 0 {
            out.stall =
                Some(Stall { kind: StallKind::DataLlcMiss, start: t_access, cycles: exposed });
        }
    }

    /// A store's data access. Stores retire through the store buffer:
    /// they update cache state (write-allocate) but expose no latency.
    #[inline(always)]
    fn k_store(&mut self, kp: &KernelParams, op: u64, rec: &mut StepRecord, out: &mut StepOutcome) {
        self.stats.l1d_accesses += 1;
        let line = LineAddr::new(op >> kp.line_shift);
        let r = self.mem.access_data(line, self.now, true);
        rec.data_access = true;
        rec.l1d_miss = r.l1_miss;
        if r.l1_miss {
            self.stats.l1d_misses += 1;
            out.l1d_miss = true;
        }
        if kp.nl_data {
            if let Some(p) = self.dcu_access(line) {
                self.mem.prefetch_data(p, self.now, true);
            }
        }
    }

    /// A branch of tag `TAG`: its outcome (replayed, or from the live
    /// predictor), then the penalty.
    #[inline(always)]
    fn k_branch<P: Probe, const TAG: u8>(
        &mut self,
        kind: u8,
        pc: u64,
        op: u64,
        rec: &mut StepRecord,
        out: &mut StepOutcome,
        probe: &mut P,
    ) {
        self.stats.branches += 1;
        let outcome = match self.replayed_outcome() {
            Some(p) => p,
            None => self.predict_live::<TAG>(kind, pc, op),
        };
        self.charge_branch(outcome, rec, out, probe);
    }

    /// The live predictor's outcome for a branch of tag `TAG`, trained on
    /// the full instruction [`RawStep::to_instr`] builds. The tag is a
    /// constant, so both the decode's and the predictor's match on the
    /// kind fold away. Kept out of line: inlined into every branch arm,
    /// the predictor's five copies crowded the event loop, and LLVM then
    /// outlined parts of the warm walk's predictor instead.
    #[inline(never)]
    fn predict_live<const TAG: u8>(&mut self, kind: u8, pc: u64, op: u64) -> Prediction {
        let kind = (kind & !TAG_MASK) | TAG;
        self.bp.predict_and_update(PredictorContext::Normal, &RawStep { kind, pc, op }.to_instr())
    }
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

    /// Retires one normal-mode instruction given as a packed
    /// `(kind, pc, op)` triple, charging all cycles: the base issue cost,
    /// the fetch, then the kind-specific half (data access or branch)
    /// picked by a `match` on the kind tag. The probe is statically
    /// dispatched; with [`esp_obs::NullProbe`] its calls compile away.
    #[inline(always)]
    pub fn step_raw<P: Probe>(
        &mut self,
        kp: &KernelParams,
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
                // Miss-triggered one-block-lookahead: the next-line
                // request goes out alongside the demand fill, overlapping
                // the stall. (Hit-triggered NL would double-count the
                // paper's modest 13.8% NL gain.)
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
        match tag {
            TAG_ALU => {}
            TAG_LOAD => {
                if !kp.perfect_l1d {
                    self.k_load(kp, pc, op, &mut rec, &mut out, probe);
                }
            }
            TAG_STORE => {
                if !kp.perfect_l1d {
                    self.k_store(kp, op, &mut rec, &mut out);
                }
            }
            // Perfect prediction: the outcome is `Correct` with zero
            // penalty, so only the branch count advances.
            _ if kp.perfect_branch => self.stats.branches += 1,
            TAG_COND => self.k_branch::<P, TAG_COND>(kind, pc, op, &mut rec, &mut out, probe),
            TAG_IND_BRANCH => {
                self.k_branch::<P, TAG_IND_BRANCH>(kind, pc, op, &mut rec, &mut out, probe)
            }
            TAG_IND_CALL => {
                self.k_branch::<P, TAG_IND_CALL>(kind, pc, op, &mut rec, &mut out, probe)
            }
            TAG_CALL => self.k_branch::<P, TAG_CALL>(kind, pc, op, &mut rec, &mut out, probe),
            // The tag is masked to 3 bits: this is `TAG_RET`.
            _ => self.k_branch::<P, TAG_RET>(kind, pc, op, &mut rec, &mut out, probe),
        }

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
    /// one accumulation. Equivalent to `n` [`Engine::step_raw`] calls on
    /// same-line plain ALU instructions: the base-cycle residue arithmetic
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
