//! The composite predictor with ESP execution contexts.

use crate::components::{Btb, GlobalPredictor, IndirectBtb, LocalPredictor, LoopPredictor, ReturnStack};
use crate::{BranchConfig, PathInfoRegister};
use esp_stats::BranchStats;
use esp_trace::{Instr, InstrKind};

/// Which execution context a prediction belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PredictorContext {
    /// The non-speculative current event.
    Normal,
    /// Pre-execution one event ahead.
    Esp1,
    /// Pre-execution two events ahead.
    Esp2,
}

impl PredictorContext {
    const ALL: [PredictorContext; 3] =
        [PredictorContext::Normal, PredictorContext::Esp1, PredictorContext::Esp2];

    fn idx(self) -> usize {
        match self {
            PredictorContext::Normal => 0,
            PredictorContext::Esp1 => 1,
            PredictorContext::Esp2 => 2,
        }
    }
}

/// How much predictor state is replicated across execution contexts — the
/// design space explored in Fig. 12.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContextPolicy {
    /// No extra hardware: ESP modes share the normal mode's PIR and
    /// tables, interfering freely ("no extra H/W").
    SharedAll,
    /// The shipping ESP design: one PIR per context, shared tables
    /// ("separate context").
    SeparatePir,
    /// Full replication: every context has its own PIR *and* tables; an
    /// event's warmed tables follow it from pre-execution to normal
    /// execution ("separate context and tables").
    SeparateTables,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Tables {
    global: GlobalPredictor,
    local: LocalPredictor,
    loops: LoopPredictor,
    btb: Btb,
    ibtb: IndirectBtb,
}

impl Tables {
    fn new(config: &BranchConfig) -> Self {
        Tables {
            global: GlobalPredictor::new(config.global_entries),
            local: LocalPredictor::new(config.local_entries),
            loops: LoopPredictor::new(config.loop_entries),
            btb: Btb::new(config.btb_entries),
            ibtb: IndirectBtb::new(config.ibtb_entries),
        }
    }
}

/// The outcome class of one prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Prediction {
    /// Direction and target both predicted.
    Correct = 0,
    /// Direction was right but the BTB lacked the (statically known)
    /// direct target: a cheap decode-stage re-steer, not a full pipeline
    /// flush. Counted separately from mispredictions, as front ends
    /// resolve direct targets at decode.
    Misfetch = 1,
    /// Wrong direction, wrong indirect target, or RAS mismatch: the full
    /// misprediction penalty applies.
    Mispredict = 2,
}

impl Prediction {
    /// Whether the front end proceeded without any re-steer.
    pub fn is_correct(self) -> bool {
        self == Prediction::Correct
    }

    /// The outcome's 2-bit tape code (`esp_types::TapeWriter<2>`): its
    /// discriminant, 0 for [`Prediction::Correct`], 1 for
    /// [`Prediction::Misfetch`], 2 for [`Prediction::Mispredict`].
    #[inline]
    pub fn code(self) -> u64 {
        self as u64
    }

    /// The outcome [`Prediction::code`] gave `code`.
    #[inline(always)]
    pub fn from_code(code: u64) -> Self {
        match code {
            0 => Prediction::Correct,
            1 => Prediction::Misfetch,
            _ => Prediction::Mispredict,
        }
    }
}

/// A saved copy of the normal context's PIR and return address stack.
#[derive(Clone, Debug)]
pub struct SpeculativeCheckpoint {
    pir: PathInfoRegister,
    ras: ReturnStack,
}

/// One recorded mutation of a [`BranchPredictor`], with its observed
/// outcome where the entry point returns one.
///
/// Like `esp-mem`'s op log, every state-changing entry point appends one
/// op while recording is on (see [`BranchPredictor::set_recording`]), so
/// replaying the log in order against a fresh predictor of the same
/// configuration and policy must reproduce every prediction outcome and
/// the final per-context statistics. Checkpoints are positional: a
/// replayer keeps its own LIFO stack, pushing on [`BpOp::Checkpoint`]
/// and popping on [`BpOp::Restore`], mirroring the strictly nested
/// checkpoint/restore discipline of the runahead and ESP window paths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BpOp {
    /// A retiring branch was predicted and trained in `ctx`.
    Predict {
        /// The execution context.
        ctx: PredictorContext,
        /// The branch micro-op.
        instr: Instr,
        /// The outcome the real predictor returned.
        outcome: Prediction,
    },
    /// A B-list branch was replay-trained ahead of retirement.
    TrainAhead {
        /// The replayed branch micro-op.
        instr: Instr,
    },
    /// The replay PIR was aligned with the normal-mode PIR.
    BeginReplay,
    /// The return address stack was cleared.
    ClearRas,
    /// The normal context's speculative state was checkpointed.
    Checkpoint,
    /// The most recent outstanding checkpoint was restored.
    Restore,
    /// Event completion shifted the ESP contexts.
    Promote,
    /// Statistics were reset.
    ResetStats,
}

/// The full Pentium-M-style predictor with ESP contexts.
///
/// One call, [`BranchPredictor::predict_and_update`], performs the
/// predict → compare → train sequence for a retiring branch and returns
/// whether the prediction was correct; the caller charges the
/// misprediction penalty. The B-list replay path uses
/// [`BranchPredictor::train_ahead`], which trains the *normal* tables
/// along a private replay PIR a preset number of branches ahead of
/// retirement (§3.6).
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    config: BranchConfig,
    policy: ContextPolicy,
    /// 1 table set for `SharedAll`/`SeparatePir`; 3 for `SeparateTables`.
    tables: Vec<Tables>,
    /// Which table set each context currently uses.
    table_of: [usize; 3],
    pirs: [PathInfoRegister; 3],
    replay_pir: PathInfoRegister,
    ras: ReturnStack,
    stats: [BranchStats; 3],
    /// Side-effect log; `Some` only while recording is enabled.
    ops: Option<Vec<BpOp>>,
}

impl BranchPredictor {
    /// Creates a predictor.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`BranchConfig::validate`].
    pub fn new(config: BranchConfig, policy: ContextPolicy) -> Self {
        config.validate().expect("invalid branch predictor configuration");
        let (tables, table_of) = match policy {
            ContextPolicy::SharedAll | ContextPolicy::SeparatePir => {
                (vec![Tables::new(&config)], [0, 0, 0])
            }
            ContextPolicy::SeparateTables => (
                vec![Tables::new(&config), Tables::new(&config), Tables::new(&config)],
                [0, 1, 2],
            ),
        };
        BranchPredictor {
            ras: ReturnStack::new(config.ras_entries),
            config,
            policy,
            tables,
            table_of,
            pirs: [PathInfoRegister::new(); 3],
            replay_pir: PathInfoRegister::new(),
            stats: [BranchStats::default(); 3],
            ops: None,
        }
    }

    /// Turns side-effect recording on or off. Turning it on starts a
    /// fresh, empty log; turning it off discards any recorded ops.
    pub fn set_recording(&mut self, on: bool) {
        self.ops = on.then(Vec::new);
    }

    /// Takes the recorded op log, leaving an empty log behind (recording
    /// stays on). Returns an empty vec when recording was never enabled.
    pub fn take_ops(&mut self) -> Vec<BpOp> {
        match self.ops.as_mut() {
            Some(ops) => std::mem::take(ops),
            None => Vec::new(),
        }
    }

    #[inline]
    fn record(&mut self, op: BpOp) {
        if let Some(ops) = self.ops.as_mut() {
            ops.push(op);
        }
    }

    /// The misprediction penalty in cycles.
    pub fn mispredict_penalty(&self) -> u64 {
        self.config.mispredict_penalty
    }

    /// The decode re-steer penalty for direct-target BTB misses.
    pub fn misfetch_penalty(&self) -> u64 {
        self.config.misfetch_penalty
    }

    /// Cycles to charge for a [`Prediction`].
    pub fn penalty_of(&self, p: Prediction) -> u64 {
        match p {
            Prediction::Correct => 0,
            Prediction::Misfetch => self.config.misfetch_penalty,
            Prediction::Mispredict => self.config.mispredict_penalty,
        }
    }

    /// The replication policy.
    pub fn policy(&self) -> ContextPolicy {
        self.policy
    }

    /// Outcome statistics for one context.
    pub fn stats(&self, ctx: PredictorContext) -> &BranchStats {
        &self.stats[ctx.idx()]
    }

    /// Outcome statistics for every context, in `(context, stats)`
    /// pairs — the branch section of the observability run trace, which
    /// reports speculative ESP-context prediction quality separately
    /// from the normal-mode rate of Fig. 12.
    pub fn stats_all(&self) -> [(PredictorContext, BranchStats); 3] {
        [
            (PredictorContext::Normal, self.stats[0]),
            (PredictorContext::Esp1, self.stats[1]),
            (PredictorContext::Esp2, self.stats[2]),
        ]
    }

    /// Resets statistics for all contexts (state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = [BranchStats::default(); 3];
        self.record(BpOp::ResetStats);
    }

    fn pir_slot(&self, ctx: PredictorContext) -> usize {
        match self.policy {
            // No extra hardware: every context clobbers the one PIR.
            ContextPolicy::SharedAll => 0,
            _ => ctx.idx(),
        }
    }

    /// Predicts the retiring branch `instr` in context `ctx`, trains all
    /// structures with its actual outcome, and classifies the prediction.
    ///
    /// Direction prediction falls back to backward-taken/forward-not-taken
    /// (BTFN) static prediction for never-trained local entries — cold
    /// code is overwhelmingly BTFN-friendly, which is why large-footprint
    /// applications keep usable misprediction rates.
    ///
    /// # Panics
    ///
    /// Panics if `instr` is not a branch.
    ///
    /// Force-inlined, so a caller that builds `instr` from a known kind (the
    /// detailed kernel's per-kind branch handlers) folds the kind match
    /// away.
    #[inline(always)]
    pub fn predict_and_update(&mut self, ctx: PredictorContext, instr: &Instr) -> Prediction {
        let outcome = self.predict_train(ctx, instr);
        self.stats[ctx.idx()].record(outcome == Prediction::Correct);
        self.record(BpOp::Predict { ctx, instr: *instr, outcome });
        outcome
    }

    /// Functional-warming update: the full predict → train sequence of
    /// [`Self::predict_and_update`] in the normal context, but with no
    /// statistics recorded and no op-log entry. The sampling mode's
    /// fast-forward uses this so the predictor stays trained across
    /// skipped grains while per-grain measurements remain unpolluted.
    /// Returns what the prediction outcome would have been, so callers
    /// can keep auxiliary event counts for extrapolation.
    ///
    /// # Panics
    ///
    /// Panics if `instr` is not a branch.
    ///
    /// The predict → train body inlines into the caller, so the warm walk
    /// runs it with the branch's kind already known.
    #[inline(always)]
    pub fn warm_update(&mut self, instr: &Instr) -> Prediction {
        self.predict_train(PredictorContext::Normal, instr)
    }

    /// The shared predict → compare → train body: every table, PIR, and
    /// RAS mutation of a retiring branch, with the outcome classification
    /// returned and *no* statistics or op-log side effects.
    #[inline(always)]
    fn predict_train(&mut self, ctx: PredictorContext, instr: &Instr) -> Prediction {
        let pir_slot = self.pir_slot(ctx);
        let table_slot = self.table_of[ctx.idx()];
        let pc = instr.pc;
        match instr.kind {
            InstrKind::CondBranch { taken, target } => {
                let pir = self.pirs[pir_slot];
                let t = &mut self.tables[table_slot];
                let dir_pred = t.loops.predict(pc).or_else(|| t.global.predict(pir, pc)).unwrap_or_else(
                    || {
                        if t.local.is_trained(pc) {
                            t.local.predict(pc)
                        } else {
                            // BTFN static prediction for cold entries.
                            target < pc
                        }
                    },
                );
                let target_known = !taken || t.btb.lookup(pc) == Some(target);
                let outcome = if dir_pred != taken {
                    Prediction::Mispredict
                } else if !target_known {
                    Prediction::Misfetch
                } else {
                    Prediction::Correct
                };
                t.local.update(pc, taken);
                t.global.update(pir, pc, taken, dir_pred != taken);
                t.loops.update(pc, taken);
                if taken {
                    t.btb.update(pc, target);
                    self.pirs[pir_slot].update_taken(pc, target);
                }
                outcome
            }
            InstrKind::IndirectBranch { target } | InstrKind::IndirectCall { target } => {
                let pir = self.pirs[pir_slot];
                let t = &mut self.tables[table_slot];
                let outcome = if t.ibtb.lookup(pir, pc) == Some(target) {
                    Prediction::Correct
                } else {
                    Prediction::Mispredict
                };
                t.ibtb.update(pir, pc, target);
                if matches!(instr.kind, InstrKind::IndirectCall { .. }) {
                    self.ras.push(pc + 4);
                }
                self.pirs[pir_slot].update_taken(pc, target);
                outcome
            }
            InstrKind::Call { target } => {
                let t = &mut self.tables[table_slot];
                let outcome = if t.btb.lookup(pc) == Some(target) {
                    Prediction::Correct
                } else {
                    Prediction::Misfetch
                };
                t.btb.update(pc, target);
                self.ras.push(pc + 4);
                self.pirs[pir_slot].update_taken(pc, target);
                outcome
            }
            InstrKind::Return { target } => {
                if self.ras.pop() == Some(target) {
                    Prediction::Correct
                } else {
                    Prediction::Mispredict
                }
            }
            _ => panic!("predict_and_update called on a non-branch: {instr:?}"),
        }
    }

    /// Trains the normal-mode tables with a future branch outcome replayed
    /// from the B-list, along the private replay PIR. Returns nothing and
    /// records no statistics — this is training, not prediction.
    pub fn train_ahead(&mut self, instr: &Instr) {
        self.record(BpOp::TrainAhead { instr: *instr });
        let table_slot = self.table_of[PredictorContext::Normal.idx()];
        let pc = instr.pc;
        match instr.kind {
            InstrKind::CondBranch { taken, target } => {
                let pir = self.replay_pir;
                let t = &mut self.tables[table_slot];
                // Prime the fallback predictor and matching global
                // entries. The loop predictor is deliberately *not*
                // replay-trained: its trip counters track the exact
                // retirement sequence, and a second interleaved training
                // stream corrupts them.
                t.local.update(pc, taken);
                t.global.update(pir, pc, taken, false);
                if taken {
                    t.btb.update(pc, target);
                    self.replay_pir.update_taken(pc, target);
                }
            }
            InstrKind::IndirectBranch { target } | InstrKind::IndirectCall { target } => {
                let pir = self.replay_pir;
                self.tables[table_slot].ibtb.update(pir, pc, target);
                self.replay_pir.update_taken(pc, target);
            }
            InstrKind::Call { target } => {
                self.tables[table_slot].btb.update(pc, target);
                self.replay_pir.update_taken(pc, target);
            }
            _ => {}
        }
    }

    /// Aligns the replay PIR with the normal-mode PIR. Called when B-list
    /// replay (re)starts at an event boundary, so the replay path hashes
    /// to the same table entries the real execution will.
    pub fn begin_replay(&mut self) {
        self.replay_pir = self.pirs[self.pir_slot(PredictorContext::Normal)];
        self.record(BpOp::BeginReplay);
    }

    /// Clears the return address stack — done when the processor exits an
    /// ESP mode, since the RAS may hold return addresses of pre-executed
    /// functions (§4.1).
    pub fn clear_ras(&mut self) {
        self.ras.clear();
        self.record(BpOp::ClearRas);
    }

    /// Checkpoints the normal context's speculatively-clobberable state
    /// (PIR and RAS). Runahead execution snapshots this at the blocking
    /// load and restores it on exit, exactly as real runahead recovers
    /// its branch-history checkpoint; predictor *tables* keep their
    /// runahead training.
    ///
    /// Takes `&mut self` only to note the checkpoint in the side-effect
    /// log; the predictor's state is otherwise unchanged.
    pub fn checkpoint_speculative(&mut self) -> SpeculativeCheckpoint {
        self.record(BpOp::Checkpoint);
        SpeculativeCheckpoint {
            pir: self.pirs[PredictorContext::Normal.idx()],
            ras: self.ras.clone(),
        }
    }

    /// [`Self::checkpoint_speculative`] into an existing checkpoint,
    /// reusing its RAS storage. The window-spending hot loop checkpoints
    /// once per stall window; the in-place form keeps that allocation
    /// free after the first window.
    pub fn checkpoint_speculative_into(&mut self, cp: &mut SpeculativeCheckpoint) {
        self.record(BpOp::Checkpoint);
        cp.pir = self.pirs[PredictorContext::Normal.idx()];
        cp.ras.copy_from(&self.ras);
    }

    /// Restores a [`SpeculativeCheckpoint`].
    pub fn restore_speculative(&mut self, cp: SpeculativeCheckpoint) {
        self.pirs[PredictorContext::Normal.idx()] = cp.pir;
        self.ras = cp.ras;
        self.record(BpOp::Restore);
    }

    /// [`Self::restore_speculative`] from a borrowed checkpoint, reusing
    /// the live RAS's storage (the allocation-free pair of
    /// [`Self::checkpoint_speculative_into`]).
    pub fn restore_speculative_from(&mut self, cp: &SpeculativeCheckpoint) {
        self.pirs[PredictorContext::Normal.idx()] = cp.pir;
        self.ras.copy_from(&cp.ras);
        self.record(BpOp::Restore);
    }

    /// Whether `self` and `other` hold identical *predictive* state:
    /// every table set, the context-to-table assignment, all PIRs, the
    /// replay PIR, and the RAS. Statistics and the side-effect log are
    /// deliberately excluded — two predictors that agree on this method
    /// produce identical outcomes for any subsequent input sequence.
    /// `Engine::state_difference` uses it to check that functional
    /// warming trains the predictor exactly as per-instruction warming
    /// does.
    pub fn same_state(&self, other: &Self) -> bool {
        self.tables == other.tables
            && self.table_of == other.table_of
            && self.pirs == other.pirs
            && self.replay_pir == other.replay_pir
            && self.ras == other.ras
    }

    /// Event-completion shift: the ESP-2 context's state follows its event
    /// into ESP-1, and the ESP-2 context is recycled for the next queued
    /// event. Under [`ContextPolicy::SeparateTables`] the warmed tables
    /// move with their events, and the new current event's tables are the
    /// ones its own pre-execution warmed.
    pub fn promote_event(&mut self) {
        self.record(BpOp::Promote);
        // PIRs: ESP-2's in-progress path history moves to the ESP-1 slot;
        // the fresh ESP-2 slot starts clean. The normal-mode PIR is the
        // architectural thread's and simply keeps evolving.
        if self.policy != ContextPolicy::SharedAll {
            self.pirs[PredictorContext::Esp1.idx()] = self.pirs[PredictorContext::Esp2.idx()];
            self.pirs[PredictorContext::Esp2.idx()].clear();
        }
        if self.policy == ContextPolicy::SeparateTables {
            let normal_old = self.table_of[0];
            self.table_of[0] = self.table_of[1];
            self.table_of[1] = self.table_of[2];
            self.table_of[2] = normal_old;
            // Warm-start the recycled set from the new normal set, so the
            // next pre-execution does not begin from scratch.
            let src = self.table_of[0];
            let dst = self.table_of[2];
            if src != dst {
                self.tables[dst] = self.tables[src].clone();
            }
        }
        let _ = PredictorContext::ALL;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_trace::Instr;
    use esp_types::Addr;

    fn bp(policy: ContextPolicy) -> BranchPredictor {
        BranchPredictor::new(BranchConfig::pentium_m(), policy)
    }

    #[test]
    fn biased_branch_becomes_predictable() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let b = Instr::cond_branch(Addr::new(0x100), true, Addr::new(0x40));
        for _ in 0..4 {
            p.predict_and_update(PredictorContext::Normal, &b);
        }
        assert!(p.predict_and_update(PredictorContext::Normal, &b).is_correct());
        assert!(p.stats(PredictorContext::Normal).total() == 5);
    }

    #[test]
    fn not_taken_branch_needs_no_btb() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let b = Instr::cond_branch(Addr::new(0x200), false, Addr::new(0x4000));
        // Weakly-taken init mispredicts at first; converges quickly.
        for _ in 0..3 {
            p.predict_and_update(PredictorContext::Normal, &b);
        }
        assert!(p.predict_and_update(PredictorContext::Normal, &b).is_correct());
    }

    #[test]
    fn taken_branch_mispredicts_without_btb_entry() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let pc = Addr::new(0x300);
        // Train direction via a conflicting-but-different target each time:
        // direction becomes predictable but the changing target still hits.
        let b1 = Instr::cond_branch(pc, true, Addr::new(0x1000));
        p.predict_and_update(PredictorContext::Normal, &b1);
        p.predict_and_update(PredictorContext::Normal, &b1);
        // Direction right, target right: correct.
        assert!(p.predict_and_update(PredictorContext::Normal, &b1).is_correct());
        // Same branch, different dynamic target: BTB holds the old
        // target — a misfetch (direction was right, target stale).
        let b2 = Instr::cond_branch(pc, true, Addr::new(0x9000));
        assert_eq!(p.predict_and_update(PredictorContext::Normal, &b2), Prediction::Misfetch);
    }

    #[test]
    fn indirect_uses_path_history() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let pc = Addr::new(0x500);
        let t1 = Addr::new(0x7000);
        // Without path divergence, a stable indirect target trains up.
        let b = Instr::indirect(pc, t1);
        p.predict_and_update(PredictorContext::Normal, &b);
        // The PIR changed after the first execution, so the second lookup
        // uses a different index; train again on the recurring path.
        p.predict_and_update(PredictorContext::Normal, &b);
        p.predict_and_update(PredictorContext::Normal, &b);
        let correct = (0..4)
            .filter(|_| p.predict_and_update(PredictorContext::Normal, &b).is_correct())
            .count();
        assert!(correct >= 2, "correct={correct}");
    }

    #[test]
    fn call_return_pairs_predict_via_ras() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let call_pc = Addr::new(0x100);
        let callee = Addr::new(0x8000);
        let call = Instr::call(call_pc, callee);
        let ret = Instr::ret(Addr::new(0x8010), call_pc + 4);
        assert_eq!(p.predict_and_update(PredictorContext::Normal, &call), Prediction::Misfetch);
        assert!(p.predict_and_update(PredictorContext::Normal, &ret).is_correct());
        // Second round: call hits BTB too.
        assert!(p.predict_and_update(PredictorContext::Normal, &call).is_correct());
        assert!(p.predict_and_update(PredictorContext::Normal, &ret).is_correct());
    }

    #[test]
    fn ras_clear_breaks_return_prediction() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let call = Instr::call(Addr::new(0x100), Addr::new(0x8000));
        let ret = Instr::ret(Addr::new(0x8010), Addr::new(0x104));
        p.predict_and_update(PredictorContext::Normal, &call);
        p.clear_ras();
        assert_eq!(p.predict_and_update(PredictorContext::Normal, &ret), Prediction::Mispredict);
    }

    #[test]
    fn separate_pir_isolates_contexts() {
        let mut p = bp(ContextPolicy::SeparatePir);
        // A branch whose global-predictor behaviour depends on the PIR:
        // execute taken branches in ESP-1 to perturb only ESP-1's PIR.
        for i in 0..8u64 {
            let b = Instr::cond_branch(Addr::new(0x1000 + i * 64), true, Addr::new(0x40));
            p.predict_and_update(PredictorContext::Esp1, &b);
        }
        // Normal PIR is untouched (still cleared); ESP-1's has moved on.
        assert_eq!(p.pirs[PredictorContext::Normal.idx()].value(), 0);
        assert_ne!(p.pirs[PredictorContext::Esp1.idx()].value(), 0);
    }

    #[test]
    fn shared_all_pollutes_normal_pir() {
        let mut p = bp(ContextPolicy::SharedAll);
        let before = p.pirs[0];
        let b = Instr::cond_branch(Addr::new(0x1000), true, Addr::new(0x40));
        p.predict_and_update(PredictorContext::Esp1, &b);
        assert_ne!(p.pirs[0], before, "shared PIR must be clobbered by ESP-mode branches");

        let mut q = bp(ContextPolicy::SeparatePir);
        let before = q.pirs[0];
        q.predict_and_update(PredictorContext::Esp1, &b);
        assert_eq!(q.pirs[0], before, "separate PIR must protect normal mode");
    }

    #[test]
    fn train_ahead_fixes_cold_indirect() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let pc = Addr::new(0x500);
        let target = Addr::new(0x9000);
        p.begin_replay();
        p.train_ahead(&Instr::indirect(pc, target));
        // The very next normal execution of the same dynamic branch hits.
        assert!(p
            .predict_and_update(PredictorContext::Normal, &Instr::indirect(pc, target))
            .is_correct());
    }

    #[test]
    fn train_ahead_tracks_path() {
        let mut p = bp(ContextPolicy::SeparatePir);
        p.begin_replay();
        // Replay a taken conditional then an indirect; the real execution
        // follows the same path, so the indirect must hit.
        let c = Instr::cond_branch(Addr::new(0x100), true, Addr::new(0x200));
        let i = Instr::indirect(Addr::new(0x220), Addr::new(0x4000));
        p.train_ahead(&c);
        p.train_ahead(&i);
        p.predict_and_update(PredictorContext::Normal, &c);
        assert!(p.predict_and_update(PredictorContext::Normal, &i).is_correct());
    }

    #[test]
    fn separate_tables_follow_events() {
        let mut p = bp(ContextPolicy::SeparateTables);
        let pc = Addr::new(0x700);
        let b = Instr::cond_branch(pc, false, Addr::new(0x40));
        // Warm the ESP-1 tables with this event's branch.
        for _ in 0..4 {
            p.predict_and_update(PredictorContext::Esp1, &b);
        }
        // Promote: the warmed tables become the normal tables.
        p.promote_event();
        assert!(p.predict_and_update(PredictorContext::Normal, &b).is_correct());
    }

    #[test]
    fn promote_rotates_table_assignment() {
        let mut p = bp(ContextPolicy::SeparateTables);
        let t0 = p.table_of;
        p.promote_event();
        assert_eq!(p.table_of[0], t0[1]);
        assert_eq!(p.table_of[1], t0[2]);
        assert_eq!(p.table_of[2], t0[0]);
        p.promote_event();
        p.promote_event();
        assert_eq!(p.table_of, t0);
    }

    #[test]
    #[should_panic(expected = "non-branch")]
    fn non_branch_panics() {
        let mut p = bp(ContextPolicy::SeparatePir);
        p.predict_and_update(PredictorContext::Normal, &Instr::alu(Addr::new(0)));
    }

    #[test]
    fn op_log_replays_to_identical_stats() {
        let mut p = bp(ContextPolicy::SeparatePir);
        p.set_recording(true);
        let call = Instr::call(Addr::new(0x100), Addr::new(0x8000));
        let ret = Instr::ret(Addr::new(0x8010), Addr::new(0x104));
        let cond = Instr::cond_branch(Addr::new(0x200), true, Addr::new(0x40));
        p.predict_and_update(PredictorContext::Normal, &call);
        let cp = p.checkpoint_speculative();
        p.predict_and_update(PredictorContext::Esp1, &cond);
        p.clear_ras();
        p.restore_speculative(cp);
        p.begin_replay();
        p.train_ahead(&cond);
        p.predict_and_update(PredictorContext::Normal, &ret);
        p.promote_event();
        let ops = p.take_ops();
        assert_eq!(ops.len(), 9);

        // Shadow replay on a fresh predictor with an explicit LIFO
        // checkpoint stack: every recorded outcome must reproduce.
        let mut shadow = bp(ContextPolicy::SeparatePir);
        let mut cps: Vec<SpeculativeCheckpoint> = Vec::new();
        for op in &ops {
            match *op {
                BpOp::Predict { ctx, instr, outcome } => {
                    assert_eq!(shadow.predict_and_update(ctx, &instr), outcome);
                }
                BpOp::TrainAhead { instr } => shadow.train_ahead(&instr),
                BpOp::BeginReplay => shadow.begin_replay(),
                BpOp::ClearRas => shadow.clear_ras(),
                BpOp::Checkpoint => cps.push(shadow.checkpoint_speculative()),
                BpOp::Restore => {
                    shadow.restore_speculative(cps.pop().expect("unbalanced restore"));
                }
                BpOp::Promote => shadow.promote_event(),
                BpOp::ResetStats => shadow.reset_stats(),
            }
        }
        assert_eq!(shadow.stats_all(), p.stats_all());
    }

    #[test]
    fn recording_off_keeps_no_log() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let b = Instr::cond_branch(Addr::new(0x100), true, Addr::new(0x40));
        p.predict_and_update(PredictorContext::Normal, &b);
        assert!(p.take_ops().is_empty());
    }

    #[test]
    fn warm_update_trains_without_stats_or_ops() {
        let mut p = bp(ContextPolicy::SeparatePir);
        p.set_recording(true);
        let b = Instr::cond_branch(Addr::new(0x100), true, Addr::new(0x40));
        for _ in 0..4 {
            p.warm_update(&b);
        }
        assert_eq!(p.stats(PredictorContext::Normal).total(), 0);
        assert!(p.take_ops().is_empty());
        // Warm training is real training: the next prediction hits.
        assert!(p.predict_and_update(PredictorContext::Normal, &b).is_correct());
    }

    #[test]
    fn warm_update_matches_detailed_training() {
        // A predictor warmed on a branch sequence must end in the same
        // table state as one trained by detailed execution.
        let seq = [
            Instr::call(Addr::new(0x100), Addr::new(0x8000)),
            Instr::cond_branch(Addr::new(0x8000), true, Addr::new(0x8040)),
            Instr::indirect(Addr::new(0x8044), Addr::new(0x9000)),
            Instr::ret(Addr::new(0x9010), Addr::new(0x104)),
        ];
        let mut warm = bp(ContextPolicy::SeparatePir);
        let mut detailed = bp(ContextPolicy::SeparatePir);
        for b in &seq {
            warm.warm_update(b);
            detailed.predict_and_update(PredictorContext::Normal, b);
        }
        // Same subsequent predictions prove identical trained state.
        for b in &seq {
            assert_eq!(
                warm.predict_and_update(PredictorContext::Normal, b),
                detailed.predict_and_update(PredictorContext::Normal, b)
            );
        }
    }

    #[test]
    fn stats_per_context() {
        let mut p = bp(ContextPolicy::SeparatePir);
        let b = Instr::cond_branch(Addr::new(0x100), true, Addr::new(0x40));
        p.predict_and_update(PredictorContext::Esp1, &b);
        assert_eq!(p.stats(PredictorContext::Esp1).total(), 1);
        assert_eq!(p.stats(PredictorContext::Normal).total(), 0);
        p.reset_stats();
        assert_eq!(p.stats(PredictorContext::Esp1).total(), 0);
    }

    #[test]
    fn prediction_codes_fit_two_bits_and_round_trip() {
        for p in [Prediction::Correct, Prediction::Misfetch, Prediction::Mispredict] {
            assert!(p.code() < 4, "{p:?}");
            assert_eq!(Prediction::from_code(p.code()), p);
        }
    }
}
