//! List replay during normal execution (§3.6, "ESP Predictors").
//!
//! When an event that was pre-executed finally runs for real, the
//! information its pre-execution recorded is played back:
//!
//! * I-list and D-list entries become prefetches issued a preset number
//!   of instructions (190) before the recorded touch point — or at event
//!   start, using the ~70-instruction looper prologue as a head start;
//! * B-list entries train the branch predictor a preset number of
//!   branches (30) ahead of retirement, along a private replay PIR, so
//!   the history "is neither too far in the future nor too short".

use esp_lists::{AddrRecord, BranchRecord};
use esp_mem::Port;
use esp_uarch::Engine;

/// Default instructions of lead time for list prefetches (§3.6: "a
/// preset number (190) of instructions in advance of its use").
pub(crate) const PREFETCH_LEAD_INSTRS: u64 = 190;
/// Default branches of lead for B-list predictor training.
pub(crate) const BP_TRAIN_LEAD_BRANCHES: u64 = 30;

/// The lists handed over when a pre-executed event becomes current.
#[derive(Clone, Debug, Default)]
pub struct ReplayLists {
    /// Decoded I-list records.
    pub ilist: Vec<AddrRecord>,
    /// Decoded D-list records.
    pub dlist: Vec<AddrRecord>,
    /// Decoded B-list records.
    pub blist: Vec<BranchRecord>,
}

impl ReplayLists {
    /// Whether anything was recorded.
    pub fn is_empty(&self) -> bool {
        self.ilist.is_empty() && self.dlist.is_empty() && self.blist.is_empty()
    }
}

/// Counters for replay activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// I-list prefetches issued (cache blocks).
    pub iprefetches: u64,
    /// D-list prefetches issued (cache blocks).
    pub dprefetches: u64,
    /// Branch records replayed into the predictor.
    pub btrains: u64,
}

/// The per-event replay cursors.
#[derive(Clone, Debug)]
pub(crate) struct ReplayState {
    lists: ReplayLists,
    ipos: usize,
    dpos: usize,
    bpos: usize,
    /// Whether every cursor is exhausted, kept current by
    /// [`ReplayState::arm`] and each replay tick so the per-instruction
    /// check is one flag.
    drained: bool,
    ideal: bool,
    prefetch_lead: u64,
    bp_lead: u64,
    stats: ReplayStats,
}

impl Default for ReplayState {
    fn default() -> Self {
        ReplayState {
            lists: ReplayLists::default(),
            ipos: 0,
            dpos: 0,
            bpos: 0,
            drained: true,
            ideal: false,
            prefetch_lead: PREFETCH_LEAD_INSTRS,
            bp_lead: BP_TRAIN_LEAD_BRANCHES,
            stats: ReplayStats::default(),
        }
    }
}

impl ReplayState {
    /// Sets the replay lead distances (the §3.6 presets by default).
    pub fn set_leads(&mut self, prefetch_lead: u64, bp_lead: u64) {
        self.prefetch_lead = prefetch_lead;
        self.bp_lead = bp_lead;
    }

    /// Arms the replay for a new current event. `lists` is `None` when
    /// the event was never pre-executed or its order prediction failed.
    pub fn arm(&mut self, lists: Option<ReplayLists>, ideal: bool, engine: &mut Engine) {
        self.lists = lists.unwrap_or_default();
        self.ipos = 0;
        self.dpos = 0;
        self.bpos = 0;
        self.drained = self.lists.is_empty();
        self.ideal = ideal;
        engine.bp_mut().begin_replay();
    }

    /// List entries not yet replayed across all three lists — the
    /// replay-occupancy feature of the learned fast-forward mode.
    pub fn pending_entries(&self) -> u64 {
        ((self.lists.ilist.len() - self.ipos.min(self.lists.ilist.len()))
            + (self.lists.dlist.len() - self.dpos.min(self.lists.dlist.len()))
            + (self.lists.blist.len() - self.bpos.min(self.lists.blist.len()))) as u64
    }

    /// Whether every list cursor is exhausted — once true it stays true
    /// until the next [`ReplayState::arm`], so callers may batch over
    /// instruction runs without per-instruction ticks.
    #[inline(always)]
    pub fn drained(&self) -> bool {
        self.drained
    }

    /// Replay progress tick. `icount` is the instructions retired so far
    /// in the current event (the looper prologue counts as negative lead:
    /// call with `icount = 0` during the prologue), `branches` the
    /// branches retired so far.
    #[inline]
    pub fn tick(&mut self, engine: &mut Engine, icount: u64, branches: u64) {
        // Fast path: most events have no lists (non-ESP configs arm with
        // `None`; drained cursors stay drained), and this runs once per
        // retired instruction.
        if self.drained() {
            return;
        }
        self.tick_slow(engine, icount, branches);
    }

    fn tick_slow(&mut self, engine: &mut Engine, icount: u64, branches: u64) {
        let now = engine.now();
        for port in Port::BOTH {
            let (list, pos, issued) = match port {
                Port::Instr => (&self.lists.ilist, &mut self.ipos, &mut self.stats.iprefetches),
                Port::Data => (&self.lists.dlist, &mut self.dpos, &mut self.stats.dprefetches),
            };
            while let Some(rec) = list.get(*pos) {
                if rec.icount > icount + self.prefetch_lead {
                    break;
                }
                if self.ideal {
                    for line in rec.lines() {
                        engine.mem_mut().prefetch_instant(port, line, now);
                    }
                } else {
                    // One branch-free batched probe+fill for the whole run
                    // record instead of a scalar prefetch per line.
                    engine.mem_mut().prefetch_run(port, rec.line, rec.run_len() as u64, now, true);
                }
                *issued += rec.run_len() as u64;
                *pos += 1;
            }
        }
        while self.bpos < self.lists.blist.len() && (self.bpos as u64) < branches + self.bp_lead
        {
            let rec = self.lists.blist[self.bpos];
            if let Some(instr) = rec.to_instr() {
                engine.bp_mut().train_ahead(&instr);
                self.stats.btrains += 1;
            }
            self.bpos += 1;
        }
        self.drained = self.ipos >= self.lists.ilist.len()
            && self.dpos >= self.lists.dlist.len()
            && self.bpos >= self.lists.blist.len();
    }

    /// Accumulated replay counters.
    pub fn stats(&self) -> ReplayStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_lists::AddrRecord;
    use esp_trace::Instr;
    use esp_types::{Addr, LineAddr};
    use esp_uarch::EngineConfig;

    fn engine() -> Engine {
        Engine::new(EngineConfig::baseline())
    }

    fn irec(line: u64, icount: u64) -> AddrRecord {
        AddrRecord { line: LineAddr::new(line), extra: 0, icount }
    }

    #[test]
    fn prefetches_respect_lead() {
        let mut e = engine();
        let mut r = ReplayState::default();
        r.arm(
            Some(ReplayLists {
                ilist: vec![irec(100, 0), irec(200, 500)],
                dlist: vec![],
                blist: vec![],
            }),
            false,
            &mut e,
        );
        r.tick(&mut e, 0, 0);
        // Entry at icount 0 is within the 190-instr lead; 500 is not.
        assert!(e.mem().l1(Port::Instr).probe(LineAddr::new(100)));
        assert!(!e.mem().l1(Port::Instr).probe(LineAddr::new(200)));
        r.tick(&mut e, 310, 0);
        assert!(e.mem().l1(Port::Instr).probe(LineAddr::new(200)));
        assert_eq!(r.stats().iprefetches, 2);
    }

    #[test]
    fn run_records_expand_to_all_lines() {
        let mut e = engine();
        let mut r = ReplayState::default();
        r.arm(
            Some(ReplayLists {
                ilist: vec![AddrRecord { line: LineAddr::new(50), extra: 3, icount: 0 }],
                dlist: vec![],
                blist: vec![],
            }),
            false,
            &mut e,
        );
        r.tick(&mut e, 0, 0);
        for l in 50..54 {
            assert!(e.mem().l1(Port::Instr).probe(LineAddr::new(l)), "line {l}");
        }
        assert_eq!(r.stats().iprefetches, 4);
    }

    #[test]
    fn ideal_prefetches_complete_instantly() {
        let mut e = engine();
        let mut r = ReplayState::default();
        r.arm(
            Some(ReplayLists { ilist: vec![irec(100, 0)], dlist: vec![irec(300, 0)], blist: vec![] }),
            true,
            &mut e,
        );
        r.tick(&mut e, 0, 0);
        // An immediate demand access is a *full* hit, not a partial one.
        let now = e.now();
        let r_i = e.mem_mut().access(Port::Instr, LineAddr::new(100), now, false);
        assert!(!r_i.l1_miss);
        assert_eq!(r_i.latency, 2);
        let r_d = e.mem_mut().access(Port::Data, LineAddr::new(300), now, false);
        assert!(!r_d.l1_miss);
    }

    #[test]
    fn blist_trains_ahead_of_retirement() {
        let mut e = engine();
        let mut r = ReplayState::default();
        let pc = Addr::new(0x9000);
        let target = Addr::new(0x9900);
        r.arm(
            Some(ReplayLists {
                ilist: vec![],
                dlist: vec![],
                blist: vec![esp_lists::BranchRecord {
                    pc,
                    taken: true,
                    indirect: true,
                    target: Some(target),
                    icount: 0,
                    kind: esp_lists::RecordKind::Indirect,
                }],
            }),
            false,
            &mut e,
        );
        r.tick(&mut e, 0, 0);
        assert_eq!(r.stats().btrains, 1);
        // The trained indirect branch now predicts correctly.
        use esp_branch::PredictorContext;
        assert!(e
            .bp_mut()
            .predict_and_update(PredictorContext::Normal, &Instr::indirect(pc, target))
            .is_correct());
    }

    #[test]
    fn empty_lists_are_harmless() {
        let mut e = engine();
        let mut r = ReplayState::default();
        r.arm(None, false, &mut e);
        r.tick(&mut e, 1000, 50);
        assert_eq!(r.stats(), ReplayStats::default());
        assert!(ReplayLists::default().is_empty());
    }
}
