//! Runahead execution (Dundas & Mudge '97, Mutlu et al. '03) — the
//! paper's main comparison point.
//!
//! When a load misses the LLC and blocks retirement, the core checkpoints
//! and keeps executing the *same* instruction stream speculatively until
//! the miss returns. Pre-executed loads warm the data caches; branches
//! train the predictor; results are thrown away. The two structural
//! limitations the paper exploits (§1, §6.1) fall out of the model:
//!
//! * runahead **stalls on instruction-cache misses inside the window**
//!   (the front end must still fetch), so it cannot run far into cold
//!   code and barely helps the L1-I;
//! * loads whose addresses **chase in-flight data** (`chained` in the
//!   trace model) cannot execute and prefetch nothing;
//! * the window ends when the blocking miss returns — roughly one memory
//!   latency of progress per episode, versus ESP's whole-event jumps.

use crate::Engine;
use esp_branch::PredictorContext;
use esp_mem::Port;
use esp_trace::kindbits::{FLAG_BIT, TAG_COND, TAG_LOAD, TAG_MASK, TAG_STORE};
use esp_trace::EventCursor;
use esp_types::{Addr, Cycle};

/// Outstanding-miss budget of one runahead episode. Runahead's parallel
/// miss discovery is bounded by the machine's MSHRs and LSQ (16 entries
/// in Fig. 7): once the episode has that many fills in flight, further
/// loads cannot issue — one of the structural limits ESP's whole-event
/// jumps do not share.
const RUNAHEAD_MSHRS: u32 = 10;

/// Why a runahead episode ended, plus what it did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunaheadOutcome {
    /// Instructions pre-executed in the window.
    pub instrs: u64,
    /// Window cycles the episode actually consumed (entry/exit pipeline
    /// drains excluded) — the runahead-overlap component of the CPI
    /// stack's `pre_exec_overlap` memo.
    pub utilized_cycles: u64,
    /// Window cycles spent stalled on instruction fetch.
    pub ifetch_stall_cycles: u64,
    /// Loads skipped because their address chased the in-flight miss.
    pub skipped_chained_loads: u64,
    /// Accesses dropped because the episode's MSHRs were exhausted.
    pub mshr_drops: u64,
    /// The episode ended early on an unresolvable mispredicted branch.
    pub wrong_path: bool,
    /// The event stream ended inside the window.
    pub stream_ended: bool,
}

impl Engine {
    /// Spends an LLC-miss stall window on runahead execution.
    ///
    /// `cursor` is a copy of the *current* event's cursor positioned just
    /// past the blocking load (callers clone theirs, so their own cursor
    /// is untouched). `window` is the stall length in cycles and `start`
    /// its first cycle (both from [`crate::Stall`]). Cache fills and
    /// predictor updates are real; cycle time is not advanced (the stall
    /// was already charged).
    ///
    /// With `data_only` set this is the Fig. 11b "Runahead-D" flavour:
    /// only the data cache is warmed — the branch predictor is untouched
    /// and instruction fetches neither fill nor train anything (their
    /// latency is still paid out of the window via non-updating probes).
    ///
    /// The cursor is decoded raw; only branches are materialised as an
    /// [`esp_trace::Instr`], for the predictor.
    pub fn run_runahead_cursor(
        &mut self,
        mut cursor: EventCursor<'_>,
        start: Cycle,
        window: u64,
        data_only: bool,
    ) -> RunaheadOutcome {
        let checkpoint = self.bp_mut().checkpoint_speculative();
        let mut out = RunaheadOutcome::default();
        // Entering and leaving runahead each cost a pipeline drain/refill
        // that the episode pays out of its own window, like the ESP-mode
        // context switches.
        let initial_budget_millis = (window * 1000).saturating_sub(20 * 1000);
        let mut budget_millis = initial_budget_millis;
        let base = self.base_millis_per_instr;
        let line_bytes = self.config().machine.hierarchy.l1i.line_bytes;
        let mut last_line = None;
        let mut mshrs_used = 0u32;
        let consumed = |budget_millis: u64| start + (window * 1000 - budget_millis) / 1000;

        while budget_millis > base {
            let Some(rs) = cursor.next_raw() else {
                out.stream_ended = true;
                break;
            };
            budget_millis -= base;
            let t = consumed(budget_millis);
            out.instrs += 1;

            // Fetch: runahead still goes through the L1-I and stalls (in
            // the window) on misses — fills are real, so it warms lines
            // it reaches, but cannot reach far past a miss.
            let tag = rs.kind & TAG_MASK;
            let line = Addr::new(rs.pc).line(line_bytes);
            if last_line != Some(line) {
                last_line = Some(line);
                let hit = self.config().machine.hierarchy.l1i.hit_latency;
                let nl = self.config().nl_instr;
                let exposed = if data_only {
                    // Non-updating probes: pay the latency, fill nothing.
                    if self.mem().l1(Port::Instr).probe(line) {
                        0
                    } else {
                        self.mem().bypass_latency(line).0.saturating_sub(hit)
                    }
                } else {
                    let r = self.mem_mut().access(Port::Instr, line, t, false);
                    if nl && r.l1_miss {
                        // A stateless next-line hint: runahead leaves the
                        // real NL prefetcher's state alone.
                        self.mem_mut().prefetch(Port::Instr, line.next(), t, true);
                    }
                    r.latency.saturating_sub(hit)
                };
                let charged = (exposed * 1000).min(budget_millis);
                budget_millis -= charged;
                out.ifetch_stall_cycles += charged / 1000;
            }

            // Branches with ready inputs resolve in runahead and train
            // the shared predictor tables. A branch the predictor got
            // wrong *and* whose inputs depend on the blocking miss cannot
            // be corrected, so the episode wanders onto the wrong path
            // and is useless from there on — the structural reason
            // runahead cannot run far in branchy code (§1). Without
            // register dependence tracking, a deterministic hash decides
            // which mispredicted branches were unresolvable.
            if tag >= TAG_COND && !data_only {
                let instr = rs.to_instr();
                let outcome = self.bp_mut().predict_and_update(PredictorContext::Normal, &instr);
                let penalty = self.bp().penalty_of(outcome) * 1000;
                budget_millis = budget_millis.saturating_sub(penalty);
                if outcome == esp_branch::Prediction::Mispredict {
                    let unresolvable =
                        esp_types::SplitMix64::derive(rs.pc, out.instrs)
                            .is_multiple_of(2);
                    if unresolvable {
                        out.wrong_path = true;
                        break;
                    }
                }
            }

            if tag == TAG_LOAD {
                if rs.kind & FLAG_BIT != 0 {
                    // Address depends on in-flight data (`chained`):
                    // invalid in runahead, nothing to prefetch.
                    out.skipped_chained_loads += 1;
                } else if mshrs_used < RUNAHEAD_MSHRS {
                    // Parallel miss discovery is runahead's whole
                    // point — up to the MSHR budget.
                    let line = Addr::new(rs.op).line(line_bytes);
                    if !self.mem().l1(Port::Data).probe(line) {
                        mshrs_used += 1;
                    }
                    self.mem_mut().access(Port::Data, line, t, false);
                } else {
                    out.mshr_drops += 1;
                }
            } else if tag == TAG_STORE {
                // Runahead stores do not update memory, but they do
                // prefetch their lines (write-allocate warming).
                let line = Addr::new(rs.op).line(line_bytes);
                if mshrs_used < RUNAHEAD_MSHRS {
                    if !self.mem().l1(Port::Data).probe(line) {
                        mshrs_used += 1;
                    }
                    self.mem_mut().access(Port::Data, line, t, true);
                } else {
                    out.mshr_drops += 1;
                }
            }
        }
        self.bp_mut().restore_speculative(&checkpoint);
        self.note_runahead_instrs(out.instrs);
        out.utilized_cycles = (initial_budget_millis - budget_millis) / 1000;
        self.note_pre_exec_overlap(out.utilized_cycles);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;
    use esp_trace::{Instr, PackedEvent, PackedTrace};

    /// Packs `instrs` as the actual stream of a one-event trace.
    fn event(instrs: &[Instr]) -> PackedEvent {
        PackedEvent::new(PackedTrace::from_instrs(instrs), None, PackedTrace::new())
    }

    /// A stream of loads touching distinct lines with ALU padding.
    fn load_stream(n: usize, base: u64, chained: bool) -> PackedEvent {
        let mut v = Vec::new();
        for i in 0..n as u64 {
            v.push(Instr::load(Addr::new(0x1000 + i * 16), Addr::new(base + i * 64), chained));
            v.push(Instr::alu(Addr::new(0x1004 + i * 16)));
            v.push(Instr::alu(Addr::new(0x1008 + i * 16)));
        }
        event(&v)
    }

    /// Pre-warm the code lines the synthetic streams fetch from, so the
    /// tests isolate data-side behaviour.
    fn warm_code(e: &mut Engine) {
        for i in 0..32u64 {
            e.mem_mut().prefetch(Port::Instr, Addr::new(0x1000 + i * 64).line(64), Cycle::ZERO, true);
        }
    }

    #[test]
    fn runahead_warms_future_loads() {
        let mut e = Engine::new(EngineConfig::baseline());
        warm_code(&mut e);
        let stream = load_stream(30, 0x50_0000, false);
        let out = e.run_runahead_cursor(stream.actual_cursor(), Cycle::new(10_000), 101, false);
        assert!(out.instrs > 20, "instrs={}", out.instrs);
        // The first future lines are now resident (in flight or filled).
        assert!(e.mem().l1(Port::Data).probe(Addr::new(0x50_0000).line(64)));
    }

    #[test]
    fn chained_loads_prefetch_nothing() {
        let mut e = Engine::new(EngineConfig::baseline());
        warm_code(&mut e);
        let stream = load_stream(30, 0x60_0000, true);
        let out = e.run_runahead_cursor(stream.actual_cursor(), Cycle::new(10_000), 101, false);
        assert!(out.skipped_chained_loads > 0);
        assert!(!e.mem().l1(Port::Data).probe(Addr::new(0x60_0000).line(64)));
    }

    #[test]
    fn icache_misses_burn_the_window() {
        let mut e = Engine::new(EngineConfig::baseline());
        // Code marching through cold lines: every 16th instruction is a
        // new line, each a 99-cycle window stall.
        let v: Vec<Instr> = (0..2000u64).map(|i| Instr::alu(Addr::new(0x40_0000 + i * 4))).collect();
        let stream = event(&v);
        let out = e.run_runahead_cursor(stream.actual_cursor(), Cycle::ZERO, 101, false);
        assert!(out.instrs < 40, "cold code should throttle runahead: {}", out.instrs);
        assert!(out.ifetch_stall_cycles > 50);
    }

    #[test]
    fn window_bounds_progress() {
        let mut e = Engine::new(EngineConfig::baseline());
        // Warm the code line first so fetch is free.
        e.mem_mut().prefetch(Port::Instr, Addr::new(0x1000).line(64), Cycle::ZERO, true);
        let v: Vec<Instr> = (0..10_000).map(|i| Instr::alu(Addr::new(0x1000 + (i % 8) * 4))).collect();
        let stream = event(&v);
        let out = e.run_runahead_cursor(stream.actual_cursor(), Cycle::new(1000), 101, false);
        // 101 cycles at 0.75 CPI ≈ 134 instructions.
        assert!((100..160).contains(&(out.instrs as i64)), "instrs={}", out.instrs);
        assert!(!out.stream_ended);
    }

    #[test]
    fn short_stream_ends_cleanly() {
        let mut e = Engine::new(EngineConfig::baseline());
        let stream = event(&[Instr::alu(Addr::new(0x1000)); 5]);
        let out = e.run_runahead_cursor(stream.actual_cursor(), Cycle::ZERO, 500, false);
        assert!(out.stream_ended);
        assert_eq!(out.instrs, 5);
    }

    #[test]
    fn runahead_counts_into_stats() {
        let mut e = Engine::new(EngineConfig::baseline());
        let stream = load_stream(10, 0x80_0000, false);
        let out = e.run_runahead_cursor(stream.actual_cursor(), Cycle::ZERO, 101, false);
        assert_eq!(e.stats().runahead_instrs, out.instrs);
    }
}
