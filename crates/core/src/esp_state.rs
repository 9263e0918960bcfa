//! The ESP execution contexts and pre-execution machinery (§3, §4).
//!
//! [`EspState`] owns everything the ESP hardware adds to the core: the
//! hardware event queue view, the per-mode execution contexts (resumable
//! stream cursors standing in for the RRAT/PC checkpoints), the shared
//! way-partitioned cachelets, and the per-mode prediction lists. The
//! simulator hands every LLC-miss stall window to
//! [`EspState::spend_window_probed`]; on event completion,
//! [`EspState::on_event_complete`] performs the context shift of §4.2 and
//! yields the promoted event's lists for normal-mode replay.

use crate::config::EspFeatures;
use crate::lineset::LineSet;
use crate::replay::ReplayLists;
use crate::side_cache::SideCache;
use crate::working_set::WorkingSetReport;
use esp_branch::{PredictorContext, SpeculativeCheckpoint};
use esp_lists::{AddrList, BList, ListCapacities};
use esp_mem::{AccessResult, CacheConfig, Cachelet, CacheletSlot, Port};
use esp_obs::{CycleClass, Probe, WindowRecord, WindowSpender};
use esp_trace::{EventCursor, EventRecord, PackedWorkload, Workload};
use esp_types::{Cycle, LineAddr};
use esp_uarch::{Engine, Stall, StallKind};

/// Pipeline-drain cost charged when control switches between execution
/// contexts (entering a window, or jumping one event deeper), modelled on
/// the paper's "drained from the pipeline ... similar to how wrong-path
/// instructions in the case of a branch misprediction are handled".
const SWITCH_COST_CYCLES: u64 = 10;

/// Accumulated ESP activity for one run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EspRunStats {
    /// Stall windows offered to ESP.
    pub windows: u64,
    /// Window cycles with no runnable slot (every queued event finished,
    /// blocked, or not yet posted).
    pub wasted_window_cycles: u64,
    /// Instructions pre-executed at each jump-ahead depth (index 0 =
    /// ESP-1).
    pub instrs_by_depth: Vec<u64>,
    /// Events whose pre-execution was started (EU bit set).
    pub events_started: u64,
    /// Pre-executions discarded by the order-misprediction bit (§4.5).
    pub lists_discarded: u64,
    /// Deeper-jump transitions caused by ESP-mode LLC misses.
    pub blocked_switches: u64,
}

impl EspRunStats {
    /// Total speculatively pre-executed instructions across depths.
    pub fn spec_instrs(&self) -> u64 {
        self.instrs_by_depth.iter().sum()
    }
}

struct Slot<'w> {
    /// Absolute event index this slot pre-executes.
    event_idx: Option<u64>,
    /// The event's resumable speculative cursor (the persisted execution
    /// context of §3.4), opened when the slot starts.
    cursor: Option<EventCursor<'w>>,
    ilist: AddrList,
    dlist: AddrList,
    blist: BList,
    last_fetch_line: Option<LineAddr>,
    blocked_until: Cycle,
    finished: bool,
    /// Instruction count of the slot's last data LLC miss, for the MLP
    /// overlap rule: the pre-execution runs on the same out-of-order
    /// core, so clustered misses overlap instead of each stalling it.
    last_data_llc_at: Option<u64>,
    iws: LineSet,
    dws: LineSet,
}

impl<'w> Slot<'w> {
    fn empty(caps: ListCapacities) -> Self {
        Slot {
            event_idx: None,
            cursor: None,
            ilist: AddrList::new(caps.i_list),
            dlist: AddrList::new(caps.d_list),
            blist: BList::new(caps.b_dir, caps.b_tgt),
            last_fetch_line: None,
            blocked_until: Cycle::ZERO,
            finished: false,
            last_data_llc_at: None,
            iws: LineSet::new(),
            dws: LineSet::new(),
        }
    }

    fn started(&self) -> bool {
        self.cursor.is_some()
    }
}

enum SlotStep {
    /// Executed one instruction for `millis`.
    Ran(u64),
    /// Hit an ESP-mode LLC miss: blocked until the fill returns; the
    /// payload is the millis charged before blocking.
    Blocked(Cycle, u64),
    /// The event's stream ended.
    Finished,
}

/// What one pre-executed access through a port's L0 path costs its slot.
struct L0Access {
    /// Cycles exposed beyond a pipelined L1 hit.
    exposed: u64,
    /// The fill latency, when the access missed the LLC.
    llc_miss: Option<u64>,
}

fn caps_for(depth_idx: usize, ideal: bool) -> ListCapacities {
    if ideal {
        ListCapacities::unbounded()
    } else if depth_idx == 0 {
        ListCapacities::esp1()
    } else {
        ListCapacities::esp2()
    }
}

/// The ESP hardware state for one simulated core.
pub(crate) struct EspState<'w> {
    features: EspFeatures,
    workload: &'w PackedWorkload,
    slots: Vec<Slot<'w>>,
    /// Shared way-partitioned I- and D-cachelets for ESP-1/ESP-2 (§4.2),
    /// indexed by [`Port::idx`].
    cachelet: [Cachelet; 2],
    /// Per-slot I- and D-side caches, indexed by [`Port::idx`], standing
    /// in for the cachelets beyond depth 2 (the Fig. 13 probe) or for the
    /// unbounded ideal configuration.
    side: [Vec<SideCache>; 2],
    stats: EspRunStats,
    working_sets: WorkingSetReport,
    /// Scratch buffer for the per-window RAS/PIR checkpoint, reused so
    /// the window hot path performs no allocation after the first.
    bp_checkpoint: Option<SpeculativeCheckpoint>,
}

impl<'w> EspState<'w> {
    pub fn new(features: EspFeatures, workload: &'w PackedWorkload) -> Self {
        features.validate().expect("invalid ESP features");
        let depth = features.depth;
        let slots = (0..depth).map(|i| Slot::empty(caps_for(i, features.ideal))).collect();
        let side = |n: usize| -> Vec<SideCache> {
            (0..n).map(|_| SideCache::new(Self::side_cache_config(features.ideal))).collect()
        };
        // Ideal mode gives every slot its own huge cache; otherwise only
        // depths >= 2 (which exist only in the Fig. 13 probe) need side
        // caches.
        let n_side = if features.ideal { depth } else { depth.saturating_sub(2) };
        EspState {
            features,
            workload,
            slots,
            cachelet: [Cachelet::new(2), Cachelet::new(2)],
            side: [side(n_side), side(n_side)],
            stats: EspRunStats { instrs_by_depth: vec![0; depth], ..EspRunStats::default() },
            working_sets: WorkingSetReport::new(depth),
            bp_checkpoint: None,
        }
    }

    fn side_cache_config(ideal: bool) -> CacheConfig {
        if ideal {
            CacheConfig {
                name: "ideal-cachelet".into(),
                size_bytes: 4 * 1024 * 1024,
                ways: 16,
                line_bytes: 64,
                hit_latency: 2,
            }
        } else {
            // A single-way, 8-set stand-in matching the ESP-2 partition.
            CacheConfig { name: "deep-cachelet".into(), size_bytes: 512, ways: 1, line_bytes: 64, hit_latency: 2 }
        }
    }

    /// Which side-cache index slot `s` uses, if any.
    fn side_index(&self, s: usize) -> Option<usize> {
        if self.features.ideal {
            Some(s)
        } else if s >= 2 {
            Some(s - 2)
        } else {
            None
        }
    }

    pub fn stats(&self) -> &EspRunStats {
        &self.stats
    }

    pub fn take_working_sets(&mut self) -> WorkingSetReport {
        std::mem::take(&mut self.working_sets)
    }

    pub fn record_normal_working_set(&mut self, i_lines: usize, d_lines: usize) {
        if self.features.measure_working_sets {
            self.working_sets.normal_i.push(i_lines);
            self.working_sets.normal_d.push(d_lines);
        }
    }

    fn slot_ready(&self, s: usize, t: Cycle, current_idx: usize, events: &[EventRecord]) -> bool {
        let e = current_idx + 1 + s;
        if e >= events.len() {
            return false;
        }
        if events[e].post_time.is_after(t) {
            return false;
        }
        let slot = &self.slots[s];
        !slot.finished && !slot.blocked_until.is_after(t)
    }

    fn ensure_started(&mut self, s: usize, current_idx: usize, events: &[EventRecord]) {
        if self.slots[s].started() {
            return;
        }
        let e = current_idx + 1 + s;
        let id = events[e].id;
        self.slots[s].event_idx = Some(e as u64);
        self.slots[s].cursor =
            Some(self.workload.arena().event(id.index() as usize).speculative_cursor());
        self.stats.events_started += 1;
    }

    /// Spends one LLC-miss stall window pre-executing queued events:
    /// emits one [`WindowRecord`] per window and feeds the engine's
    /// `pre_exec_overlap` memo. The probe is statically dispatched.
    pub fn spend_window_probed<P: Probe>(
        &mut self,
        engine: &mut Engine,
        stall: Stall,
        current_idx: usize,
        probe: &mut P,
    ) {
        self.stats.windows += 1;
        // Checkpoint the normal context's RAS (16 entries) so ESP-mode
        // calls/returns do not corrupt it. The paper clears the RAS on
        // exit (§4.1); a checkpoint register is the same cost class and
        // avoids penalising return-heavy events for every window — see
        // DESIGN.md. Under SharedAll ("no extra hardware") nothing is
        // saved: pollution is the point of that design variant.
        let shared_all = engine.bp().policy() == esp_branch::ContextPolicy::SharedAll;
        let checkpointed = !shared_all;
        if checkpointed {
            match self.bp_checkpoint.as_mut() {
                Some(cp) => engine.bp_mut().checkpoint_speculative_into(cp),
                None => self.bp_checkpoint = Some(engine.bp_mut().checkpoint_speculative()),
            }
        }
        let base_millis = engine.base_millis_per_instr();
        // Slots record and fetch lines at the configured line size, as
        // the normal-mode kernel does.
        let line_shift = engine.config().machine.hierarchy.l1i.line_bytes.trailing_zeros();
        let total_millis = stall.cycles * 1000;
        let mut spent = SWITCH_COST_CYCLES * 1000;
        // Millis of real pre-execution work (switch costs and tail waste
        // excluded) — the window's utilization.
        let mut utilized_millis = 0u64;
        let mut window_instrs = 0u64;
        let events = self.workload.events();

        'window: while spent + base_millis <= total_millis {
            let t = stall.start + spent / 1000;
            let Some(s) = (0..self.features.depth)
                .find(|&i| self.slot_ready(i, t, current_idx, events))
            else {
                self.stats.wasted_window_cycles += (total_millis - spent) / 1000;
                break;
            };
            self.ensure_started(s, current_idx, events);
            loop {
                if spent + base_millis > total_millis {
                    break 'window;
                }
                let t = stall.start + spent / 1000;
                match self.step_slot(s, t, base_millis, line_shift, engine) {
                    SlotStep::Ran(millis) => {
                        spent += millis;
                        utilized_millis += millis;
                        window_instrs += 1;
                        self.stats.instrs_by_depth[s] += 1;
                    }
                    SlotStep::Blocked(until, millis) => {
                        spent += millis + SWITCH_COST_CYCLES * 1000;
                        utilized_millis += millis;
                        self.slots[s].blocked_until = until;
                        self.stats.blocked_switches += 1;
                        break;
                    }
                    SlotStep::Finished => {
                        self.slots[s].finished = true;
                        break;
                    }
                }
            }
        }
        // Exiting ESP mode: flush the pipeline and restore (or, without
        // the checkpoint hardware, clear) the RAS.
        if checkpointed {
            let cp = self.bp_checkpoint.as_ref().expect("checkpoint taken above");
            engine.bp_mut().restore_speculative(cp);
        } else {
            engine.bp_mut().clear_ras();
        }
        let utilized = (utilized_millis / 1000).min(stall.cycles);
        engine.note_pre_exec_overlap(utilized);
        probe.on_window(&WindowRecord {
            at: stall.start,
            stall_class: match stall.kind {
                StallKind::InstrLlcMiss => CycleClass::IcacheLlc,
                StallKind::DataLlcMiss => CycleClass::DcacheLlc,
            },
            offered_cycles: stall.cycles,
            utilized_cycles: utilized,
            instrs: window_instrs,
            spender: WindowSpender::Esp,
        });
    }

    /// Executes one instruction of slot `s` at time `t`, decoded raw (no
    /// `Instr` is materialised except for branches) — the
    /// window-spending half of the specialised kernels.
    fn step_slot(
        &mut self,
        s: usize,
        t: Cycle,
        base_millis: u64,
        line_shift: u32,
        engine: &mut Engine,
    ) -> SlotStep {
        use esp_trace::kindbits::{TAG_COND, TAG_LOAD, TAG_MASK, TAG_STORE};

        let features = self.features;
        let measure = features.measure_working_sets;
        let record_lists = s < 2 || features.ideal;

        let slot = &mut self.slots[s];
        let cursor = slot.cursor.as_mut().expect("step_slot on unstarted slot");
        let Some(rs) = cursor.next_raw() else {
            return SlotStep::Finished;
        };
        let icount = cursor.executed() - 1;
        let tag = rs.kind & TAG_MASK;
        let mut millis = base_millis;

        // ---- instruction fetch ------------------------------------------
        let fetch_line = LineAddr::new(rs.pc >> line_shift);
        if slot.last_fetch_line != Some(fetch_line) {
            slot.last_fetch_line = Some(fetch_line);
            if measure {
                slot.iws.insert(fetch_line.as_u64());
            }
            if features.ilist && record_lists {
                slot.ilist.record(fetch_line, icount);
            }
            let r = self.l0_access(Port::Instr, s, fetch_line, t, false, engine);
            millis += r.exposed * 1000;
            if let Some(latency) = r.llc_miss {
                return SlotStep::Blocked(t + latency, millis);
            }
        }

        // ---- branch ------------------------------------------------------
        if tag >= TAG_COND {
            let instr = rs.to_instr();
            let ctx = if features.naive {
                PredictorContext::Normal
            } else if s == 0 {
                PredictorContext::Esp1
            } else {
                PredictorContext::Esp2
            };
            let outcome = engine.bp_mut().predict_and_update(ctx, &instr);
            millis += engine.bp().penalty_of(outcome) * 1000;
            if features.blist && record_lists {
                self.slots[s].blist.record(&instr, icount);
            }
        }

        // ---- data --------------------------------------------------------
        if tag == TAG_LOAD || tag == TAG_STORE {
            let line = LineAddr::new(rs.op >> line_shift);
            let slot = &mut self.slots[s];
            if measure {
                slot.dws.insert(line.as_u64());
            }
            if features.dlist && record_lists {
                slot.dlist.record(line, icount);
            }
            let r = self.l0_access(Port::Data, s, line, t, tag == TAG_STORE, engine);
            match r.llc_miss {
                Some(latency) => {
                    // An LLC miss within a ROB's worth of instructions of
                    // the slot's last one overlaps it: its fill proceeds
                    // in the background while the pre-execution keeps
                    // issuing, like any other OoO miss cluster.
                    let rob = u64::from(engine.config().machine.rob_entries);
                    let slot = &mut self.slots[s];
                    let overlapped =
                        slot.last_data_llc_at.is_some_and(|at| icount.saturating_sub(at) < rob);
                    slot.last_data_llc_at = Some(icount);
                    if !overlapped {
                        return SlotStep::Blocked(t + latency, millis);
                    }
                }
                None => millis += r.exposed * 1000,
            }
        }

        SlotStep::Ran(millis)
    }

    /// One access of `line` through `port` by slot `s` at time `t`. Naive
    /// ESP goes straight through the real L1 and L2, polluting them.
    /// Otherwise the slot's cachelet partition (or side cache) is looked
    /// up, and a miss bypasses the L1s (§3.4): an L2 probe prices it and
    /// only the L0 structure is filled.
    #[inline(always)]
    fn l0_access(
        &mut self,
        port: Port,
        s: usize,
        line: LineAddr,
        t: Cycle,
        store: bool,
        engine: &mut Engine,
    ) -> L0Access {
        if self.features.naive {
            let mem = engine.mem_mut();
            let r = mem.access(port, line, t, store);
            let hit = mem.l1(port).config().hit_latency;
            return L0Access {
                exposed: r.latency.saturating_sub(hit),
                llc_miss: r.llc_miss.then_some(r.latency),
            };
        }
        let side = self.side_index(s);
        let cs = if s == 0 { CacheletSlot::Esp1 } else { CacheletSlot::Esp2 };
        let result = match side {
            Some(i) => self.side[port.idx()][i].access(line, t),
            None => self.cachelet[port.idx()].access(cs, line, t),
        };
        match result {
            AccessResult::Hit(_) => L0Access { exposed: 0, llc_miss: None },
            AccessResult::PartialHit(rem) => L0Access { exposed: rem, llc_miss: None },
            AccessResult::Miss => {
                let (latency, llc) = engine.mem().bypass_latency(line);
                let ready = if self.features.ideal { t } else { t + latency };
                match side {
                    Some(i) => self.side[port.idx()][i].fill_absent(line, ready),
                    None => self.cachelet[port.idx()].fill(cs, line, ready),
                }
                if llc {
                    L0Access { exposed: 0, llc_miss: Some(latency) }
                } else {
                    L0Access { exposed: latency, llc_miss: None }
                }
            }
        }
    }

    /// The event-completion context shift (§4.2): the ESP-2 event becomes
    /// the ESP-1 event (keeping its cachelet way and lists, re-homed into
    /// the larger structures), and the freed context is recycled for the
    /// next queued event. Returns the lists gathered for the *new current
    /// event* (the old ESP-1 occupant) for normal-mode replay, or `None`
    /// if it was never pre-executed or its order prediction failed.
    pub fn on_event_complete(&mut self, next_current_idx: usize) -> Option<ReplayLists> {
        let events = self.workload.events();
        let depth = self.features.depth;

        // Working-set tenure samples for every occupied slot.
        if self.features.measure_working_sets {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                if slot.started() {
                    self.working_sets.by_depth_i[i].push(slot.iws.len());
                    self.working_sets.by_depth_d[i].push(slot.dws.len());
                    slot.iws.clear();
                    slot.dws.clear();
                }
            }
        }

        let promoted = self.slots.remove(0);
        self.slots.push(Slot::empty(caps_for(depth - 1, self.features.ideal)));
        // Re-home the shifted slots' lists into their new tiers.
        for (i, slot) in self.slots.iter_mut().enumerate().take(depth - 1) {
            let caps = caps_for(i, self.features.ideal);
            let ilist = std::mem::replace(&mut slot.ilist, AddrList::new(0)).promoted(caps.i_list);
            let dlist = std::mem::replace(&mut slot.dlist, AddrList::new(0)).promoted(caps.d_list);
            let blist = std::mem::replace(&mut slot.blist, BList::new(0, 0)).promoted(caps.b_dir, caps.b_tgt);
            slot.ilist = ilist;
            slot.dlist = dlist;
            slot.blist = blist;
        }
        if !self.features.naive {
            for c in &mut self.cachelet {
                c.rotate();
            }
        }
        // Side caches shift with their slots; the freed one is recycled.
        for side in self.side.iter_mut().filter(|side| !side.is_empty()) {
            if self.features.ideal {
                // The retired slot's 4 MiB cache comes back empty, its
                // blocks returned to the pool.
                side.rotate_left(1);
                if let Some(freed) = side.last_mut() {
                    freed.reset();
                }
            } else {
                // Depth-2 promotion into the shared cachelet loses the
                // probe slot's contents (they are measurement-only).
                side[0].flush();
            }
        }

        if !promoted.started() || promoted.event_idx != Some(next_current_idx as u64) {
            return None;
        }
        if events[next_current_idx].order_mispredicted {
            self.stats.lists_discarded += 1;
            return None;
        }
        // The retired slot's lists move to replay: an ideal slot's
        // unbounded D-list reaches tens of thousands of records.
        Some(ReplayLists {
            ilist: promoted.ilist.into_records(),
            dlist: promoted.dlist.into_records(),
            blist: promoted.blist.into_records(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_obs::NullProbe;
    use esp_trace::{EventRecord, Instr};
    use esp_types::{Addr, EventId, EventKindId};
    use esp_uarch::{EngineConfig, StallKind};

    /// A tiny in-memory workload with fully controllable event streams.
    struct ToyWorkload {
        records: Vec<EventRecord>,
        streams: Vec<Vec<Instr>>,
    }

    impl Workload for ToyWorkload {
        fn events(&self) -> &[EventRecord] {
            &self.records
        }

        fn actual_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
            Box::new(self.streams[id.index() as usize].iter().copied())
        }

        fn speculative_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
            self.actual_stream(id)
        }
    }

    fn toy(n_events: usize, instrs_per_event: usize) -> ToyWorkload {
        let mut records = Vec::new();
        let mut streams = Vec::new();
        for e in 0..n_events {
            records.push(EventRecord {
                id: EventId::new(e as u64),
                kind: EventKindId::new(0),
                handler_pc: Addr::new(0x40_0000),
                arg_addr: Addr::new(0x8000_0000),
                approx_len: instrs_per_event as u64,
                post_time: Cycle::ZERO,
                order_mispredicted: false,
            });
            let mut v = Vec::new();
            for i in 0..instrs_per_event {
                let pc = Addr::new(0x40_0000 + (e as u64) * 0x1_0000 + i as u64 * 4);
                if i % 5 == 3 {
                    v.push(Instr::load(pc, Addr::new(0x10_0000 + (e * instrs_per_event + i) as u64 * 64), false));
                } else {
                    v.push(Instr::alu(pc));
                }
            }
            streams.push(v);
        }
        ToyWorkload { records, streams }
    }

    fn stall(cycles: u64) -> Stall {
        Stall { kind: StallKind::DataLlcMiss, start: Cycle::new(1000), cycles }
    }

    #[test]
    fn window_pre_executes_first_pending_event() {
        let w = PackedWorkload::pack(&toy(3, 1000));
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        // The first window blocks almost immediately on the cold fetch
        // (the fill lands in the cachelet); a later window resumes past
        // it, as §3.2's re-entrant pre-execution describes.
        esp.spend_window_probed(&mut engine, stall(101), 0, &mut NullProbe);
        let mut st = stall(101);
        st.start = Cycle::new(5_000);
        esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        assert_eq!(esp.stats().windows, 2);
        assert!(esp.stats().instrs_by_depth[0] > 0, "ESP-1 should have run");
        assert!(esp.stats().events_started >= 1);
    }

    #[test]
    fn esp_mode_llc_miss_jumps_deeper() {
        let w = PackedWorkload::pack(&toy(3, 1000));
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        // ESP-1 hits cold-memory misses and blocks, letting ESP-2 run;
        // with everything cold the very first window blocks both slots,
        // so spend a few windows.
        for k in 0..3 {
            let mut st = stall(400);
            st.start = Cycle::new(1_000 + k * 3_000);
            esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        }
        assert!(esp.stats().blocked_switches > 0);
        assert!(esp.stats().instrs_by_depth[1] > 0, "ESP-2 should have run");
    }

    #[test]
    fn pre_execution_resumes_across_windows() {
        let w = PackedWorkload::pack(&toy(2, 200));
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        esp.spend_window_probed(&mut engine, stall(101), 0, &mut NullProbe);
        let after_first = esp.stats().instrs_by_depth[0];
        let mut st = stall(101);
        st.start = Cycle::new(5000); // later window: blocked fills resolved
        esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        assert!(
            esp.stats().instrs_by_depth[0] > after_first,
            "second window must resume the same event"
        );
    }

    #[test]
    fn lists_are_recorded_and_promoted() {
        let w = PackedWorkload::pack(&toy(3, 400));
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        for k in 0..6 {
            let mut st = stall(101);
            st.start = Cycle::new(1000 + k * 2000);
            esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        }
        let lists = esp.on_event_complete(1).expect("event 1 was pre-executed");
        assert!(!lists.ilist.is_empty(), "I-list should hold fetched lines");
        assert!(!lists.dlist.is_empty(), "D-list should hold loaded lines");
    }

    #[test]
    fn unstarted_event_yields_no_lists() {
        let w = PackedWorkload::pack(&toy(3, 400));
        let mut esp = EspState::new(EspFeatures::full(), &w);
        assert!(esp.on_event_complete(1).is_none());
    }

    #[test]
    fn order_mispredicted_event_discards_lists() {
        let mut toy = toy(3, 400);
        toy.records[1].order_mispredicted = true;
        let w = PackedWorkload::pack(&toy);
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        for k in 0..4 {
            let mut st = stall(101);
            st.start = Cycle::new(1000 + k * 2000);
            esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        }
        assert!(esp.on_event_complete(1).is_none());
        assert_eq!(esp.stats().lists_discarded, 1);
    }

    #[test]
    fn unposted_events_are_not_pre_executed() {
        let mut toy = toy(2, 400);
        toy.records[1].post_time = Cycle::new(1_000_000_000);
        let w = PackedWorkload::pack(&toy);
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        esp.spend_window_probed(&mut engine, stall(101), 0, &mut NullProbe);
        assert_eq!(esp.stats().spec_instrs(), 0);
        assert!(esp.stats().wasted_window_cycles > 0);
    }

    #[test]
    fn depth_one_never_uses_second_slot() {
        let w = PackedWorkload::pack(&toy(4, 500));
        let mut f = EspFeatures::full();
        f.depth = 1;
        let mut esp = EspState::new(f, &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        for k in 0..4 {
            let mut st = stall(200);
            st.start = Cycle::new(1000 + k * 3000);
            esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        }
        assert_eq!(esp.stats().instrs_by_depth.len(), 1);
    }

    #[test]
    fn naive_mode_pollutes_the_real_hierarchy() {
        let w = PackedWorkload::pack(&toy(2, 300));
        let mut esp = EspState::new(EspFeatures::naive(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        esp.spend_window_probed(&mut engine, stall(300), 0, &mut NullProbe);
        // Event 1's code lines were filled into the *real* L1-I.
        let line = Addr::new(0x41_0000).line(64);
        assert!(engine.mem().l1(Port::Instr).probe(line), "naive ESP must fill L1-I");
    }

    #[test]
    fn non_naive_mode_leaves_hierarchy_clean() {
        let w = PackedWorkload::pack(&toy(2, 300));
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        esp.spend_window_probed(&mut engine, stall(300), 0, &mut NullProbe);
        let line = Addr::new(0x41_0000).line(64);
        assert!(!engine.mem().l1(Port::Instr).probe(line), "cachelets must isolate fills");
    }

    /// Naive ESP exposes only what an access costs beyond the configured
    /// L1 hit: over L1-resident code and data, a window pre-executes as
    /// many instructions with 4-cycle L1s as with 2-cycle ones.
    #[test]
    fn naive_mode_hides_the_configured_l1_hit_latency() {
        let toy = toy(2, 300);
        let w = PackedWorkload::pack(&toy);
        let spec_instrs = |hit_latency: u64| {
            let mut cfg = EngineConfig::baseline();
            cfg.machine.hierarchy.l1i.hit_latency = hit_latency;
            cfg.machine.hierarchy.l1d.hit_latency = hit_latency;
            let mut engine = Engine::new(cfg);
            // Event 1's code and data lines, settled in the L1s long
            // before the window opens.
            for instr in &toy.streams[1] {
                engine.mem_mut().access(Port::Instr, instr.pc.line(64), Cycle::ZERO, false);
                if let Some(addr) = instr.mem_addr() {
                    engine.mem_mut().access(Port::Data, addr.line(64), Cycle::ZERO, false);
                }
            }
            let mut esp = EspState::new(EspFeatures::naive(), &w);
            esp.spend_window_probed(&mut engine, stall(60), 0, &mut NullProbe);
            esp.stats().spec_instrs()
        };
        let at_2 = spec_instrs(2);
        assert!(at_2 > 0 && at_2 < 300, "the window must end inside the event: {at_2}");
        assert_eq!(spec_instrs(4), at_2);
    }

    /// A slot's data LLC misses overlap only within the configured ROB:
    /// two misses 60 instructions apart share one block under a 96-entry
    /// ROB and each block under a 48-entry one.
    #[test]
    fn slot_miss_overlap_follows_the_configured_rob() {
        // Event 1: ALUs with loads of two cold lines at instructions 0
        // and 60.
        let mut toy = toy(2, 100);
        for (i, instr) in toy.streams[1].iter_mut().enumerate() {
            *instr = match i {
                0 | 60 => Instr::load(instr.pc, Addr::new(0x90_0000 + i as u64 * 64), false),
                _ => Instr::alu(instr.pc),
            };
        }
        let w = PackedWorkload::pack(&toy);
        let blocks = |rob_entries: u32| {
            let mut cfg = EngineConfig::baseline();
            cfg.machine.rob_entries = rob_entries;
            let mut engine = Engine::new(cfg);
            // Event 1's code sits in the L2, so no fetch reaches memory.
            for instr in &toy.streams[1] {
                engine.mem_mut().access(Port::Instr, instr.pc.line(64), Cycle::ZERO, false);
            }
            let mut f = EspFeatures::full();
            f.depth = 1;
            let mut esp = EspState::new(f, &w);
            for k in 0..8 {
                let mut st = stall(400);
                st.start = Cycle::new(1_000 + k * 5_000);
                esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
            }
            // Every instruction of event 1 either ran or blocked.
            let blocked = esp.stats().blocked_switches;
            assert_eq!(esp.stats().instrs_by_depth[0] + blocked, 100, "event 1 ran to its end");
            blocked
        };
        assert_eq!(blocks(96), 1);
        assert_eq!(blocks(48), 2);
    }

    /// An engine whose three cache levels use `line_bytes`-byte lines.
    fn engine_with_lines(line_bytes: u64) -> Engine {
        let mut cfg = EngineConfig::baseline();
        let h = &mut cfg.machine.hierarchy;
        for c in [&mut h.l1i, &mut h.l1d, &mut h.l2] {
            c.line_bytes = line_bytes;
        }
        Engine::new(cfg)
    }

    /// Under 32-byte lines, every I-list record an ESP slot keeps for an
    /// event names the line `pc >> 5` of the fetch at its instruction
    /// count, and every D-list record the line `addr >> 5` of the access
    /// there.
    #[test]
    fn slot_lists_follow_the_configured_line_size() {
        let toy = toy(3, 400);
        let stream = &toy.streams[1];
        let w = PackedWorkload::pack(&toy);
        let mut esp = EspState::new(EspFeatures::full(), &w);
        let mut engine = engine_with_lines(32);
        for k in 0..6 {
            let mut st = stall(101);
            st.start = Cycle::new(1000 + k * 2000);
            esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        }
        let lists = esp.on_event_complete(1).expect("event 1 was pre-executed");
        assert!(!lists.ilist.is_empty() && !lists.dlist.is_empty());
        let fetched: std::collections::HashSet<u64> =
            stream.iter().map(|i| i.pc.as_u64() >> 5).collect();
        for rec in &lists.ilist {
            let pc = stream[rec.icount as usize].pc.as_u64();
            assert_eq!(rec.line.as_u64(), pc >> 5, "I-list record at icount {}", rec.icount);
            assert!(rec.lines().all(|l| fetched.contains(&l.as_u64())));
        }
        for rec in &lists.dlist {
            let addr = stream[rec.icount as usize].mem_addr().expect("a memory access").as_u64();
            assert_eq!(rec.line.as_u64(), addr >> 5, "D-list record at icount {}", rec.icount);
        }
    }

    #[test]
    fn working_sets_are_sampled_on_completion() {
        let w = PackedWorkload::pack(&toy(3, 300));
        let mut f = EspFeatures::full();
        f.measure_working_sets = true;
        f.depth = 4;
        let mut esp = EspState::new(f, &w);
        let mut engine = Engine::new(EngineConfig::baseline());
        for k in 0..4 {
            let mut st = stall(150);
            st.start = Cycle::new(1000 + k * 2500);
            esp.spend_window_probed(&mut engine, st, 0, &mut NullProbe);
        }
        esp.record_normal_working_set(120, 60);
        let _ = esp.on_event_complete(1);
        let ws = esp.take_working_sets();
        assert_eq!(ws.normal_i, vec![120]);
        assert!(!ws.by_depth_i[0].is_empty(), "ESP-1 tenure must be sampled");
        assert!(ws.by_depth_i[0][0] > 0);
    }
}
