//! The event walk: one event's deterministic instruction stream.

use crate::code::{CodeImage, Terminator, INSTR_BYTES};
use crate::schedule::EventDetail;
use crate::WorkloadParams;
use esp_trace::Instr;
use esp_types::{Addr, EventKindId, Rng, SplitMix64, Xoshiro256pp};

/// Base of the (hot, small) stack region.
const STACK_BASE: u64 = 0x7fff_0000;
/// Stack working-set bytes.
const STACK_SPAN: u64 = 4096;
/// Base of the shared global region.
const GLOBAL_BASE: u64 = 0x1000_0000;
/// Base of the per-kind data regions.
const KIND_BASE: u64 = 0x2000_0000;
/// Base of the per-event heap regions.
const HEAP_BASE: u64 = 0x4000_0000;
/// The event's work-item dispatcher: a three-instruction loop that pops
/// the next work item and indirect-calls its root function. Roots return
/// to `DISPATCH_RET`, which the call pushed on the RAS, so returns
/// predict; the indirect call itself is the megamorphic dispatch site
/// the B-List-Target exists for.
const DISPATCH_PC: u64 = 0x0040_0000;
const DISPATCH_CALL: u64 = DISPATCH_PC + 4;
const DISPATCH_RET: u64 = DISPATCH_PC + 8;
/// Call-stack depth cap; deeper calls degrade to ALU slots.
const MAX_DEPTH: usize = 14;

#[derive(Clone, Debug)]
struct Frame {
    func: u32,
    block: u16,
    instr: u16,
    ret_to: Addr,
    /// Active counted loops in this frame: (back-edge block, remaining
    /// back-jumps). Keyed per block so sibling/nested loops cannot reset
    /// each other's trip counters.
    loops: Vec<(u16, u16)>,
}

/// A resumable, deterministic walk over the code image for one event.
///
/// Two walks constructed with the same [`EventDetail`] produce identical
/// instruction streams — this is the property ESP's speculative
/// pre-execution relies on. The *speculative view* passes the detail's
/// divergence point; once reached, the walk re-seeds its dynamic
/// decisions and veers off, modelling the < 2 % of events whose
/// pre-execution did not match reality (§5).
///
/// # Examples
///
/// ```
/// use esp_workload::{BenchmarkProfile, EventWalk};
/// use esp_trace::Workload;
///
/// let w = BenchmarkProfile::pixlr().scaled(50_000).build(3);
/// let id = w.events()[0].id;
/// let a = w.actual_stream(id);
/// let b = w.actual_stream(id);
/// assert!(a.take(1000).eq(b.take(1000)));
/// ```
#[derive(Clone, Debug)]
pub struct EventWalk<'a> {
    image: &'a CodeImage,
    params: &'a WorkloadParams,
    kind: EventKindId,
    event_index: u64,
    rng: Xoshiro256pp,
    seed: u64,
    global_window: u64,
    kind_window: u64,
    stream_base: u64,
    stream_count: u32,
    hot_base: u64,
    frames: Vec<Frame>,
    pool: Vec<u32>,
    emitted: u64,
    budget: u64,
    diverge_at: Option<u64>,
    diverged: bool,
    /// Dispatcher micro-state: which of the three dispatcher slots to
    /// emit next when no frame is active (see `DISPATCH_PC`).
    dispatch_step: u8,
}

impl<'a> EventWalk<'a> {
    /// Opens a walk for `detail`. `speculative` selects the view a
    /// pre-execution would observe (divergence enabled).
    pub fn new(
        image: &'a CodeImage,
        params: &'a WorkloadParams,
        detail: &EventDetail,
        speculative: bool,
    ) -> Self {
        let mut rng = Xoshiro256pp::seed_from_u64(detail.seed);
        // The work-item pool grows with the event's length: a bigger
        // event does *more different* work, not the same work more often,
        // which keeps the code-churn density (and hence I-MPKI)
        // independent of event size.
        let pool_size = (params.event_pool_size as u64 * detail.len
            / params.mean_event_len.max(1))
        .clamp(8, 768) as u32;
        let pool = image.sample_event_pool(detail.kind, pool_size, &mut rng);
        let handler = image.handler_of_kind(detail.kind);
        let global_window = rng.below((params.global_bytes - 4 * 1024).max(1)) & !63;
        let kind_window = rng.below((params.kind_bytes.saturating_sub(4 * 1024)).max(1)) & !63;
        let mut walk = EventWalk {
            image,
            params,
            kind: detail.kind,
            event_index: detail.index,
            rng,
            seed: detail.seed,
            global_window,
            kind_window,
            stream_base: 0,
            stream_count: 0,
            hot_base: 0,
            frames: Vec::with_capacity(MAX_DEPTH),
            pool,
            emitted: 0,
            budget: detail.len,
            diverge_at: if speculative { detail.diverge_at } else { None },
            diverged: false,
            dispatch_step: 1,
        };
        walk.reseat_data_state();
        // The handler itself is entered through the dispatcher, so the
        // first emitted instructions are the dispatcher's; `handler` is
        // what the first dispatch call will invoke.
        let _ = handler;
        walk
    }

    fn new_frame(&mut self, func: u32, ret_to: Addr) -> Frame {
        Frame { func, block: 0, instr: 0, ret_to, loops: Vec::new() }
    }

    /// Starts a new work item: re-seats the stream walk and the hot
    /// object block. Called at each root-function start, so streams are
    /// long enough for the prefetchers and the per-event cold footprint
    /// stays bounded.
    fn reseat_data_state(&mut self) {
        self.stream_base = if self.rng.chance(0.5) {
            self.heap_base() + (self.rng.below(self.params.heap_per_event.max(64)) & !63)
        } else {
            self.kind_base() + (self.rng.below(self.params.kind_bytes) & !63)
        };
        self.stream_count = 0;
        // The hot object block persists across most work items (the DOM
        // node or object graph an event keeps poking at); only sometimes
        // does a new item move to fresh objects.
        if self.hot_base == 0 || self.rng.chance(0.25) {
            self.hot_base =
                self.heap_base() + (self.rng.below(self.params.heap_per_event.max(1024)) & !63);
        }
    }

    fn heap_base(&self) -> u64 {
        HEAP_BASE + self.event_index * self.params.heap_per_event
    }

    fn kind_base(&self) -> u64 {
        KIND_BASE + self.kind.index() as u64 * self.params.kind_bytes
    }

    /// Static per-slot hash: identical for every dynamic execution of the
    /// same instruction slot.
    fn slot_hash(&self, label: u64, frame: &Frame) -> u64 {
        let slot = ((frame.func as u64) << 28) | ((frame.block as u64) << 12) | frame.instr as u64;
        SplitMix64::derive(self.image.seed() ^ label, slot)
    }

    fn emit_body(&mut self, pc: Addr) -> Instr {
        let frame = self.frames.last().expect("emit_body with no frame");
        let h = self.slot_hash(0x0B0D, frame);
        let roll = (h % 10_000) as f64 / 10_000.0;
        let (is_load, is_store) = if roll < self.params.load_frac {
            (true, false)
        } else if roll < self.params.load_frac + self.params.store_frac {
            (false, true)
        } else {
            (false, false)
        };
        if !is_load && !is_store {
            return Instr::alu(pc);
        }
        let addr = self.data_address(h >> 16);
        if is_load {
            let chained = (h >> 60) as f64 / 16.0 < self.params.chained_frac;
            Instr::load(pc, Addr::new(addr), chained)
        } else {
            Instr::store(pc, Addr::new(addr))
        }
    }

    fn data_address(&mut self, static_bits: u64) -> u64 {
        // Streaming decision is static per slot; the stream position is
        // per-work-item dynamic state.
        let streaming = (static_bits & 0xff) as f64 / 256.0 < self.params.streaming_frac;
        if streaming {
            // 8-byte element walks: eight accesses per cache line, so the
            // stride/DCU prefetchers have a pattern worth catching.
            let a = self.stream_base + self.stream_count as u64 * 8;
            self.stream_count += 1;
            return a;
        }
        let region = ((static_bits >> 8) & 0x3ff) as f64 / 1024.0;
        let p = self.params;
        let hot_frac = 0.22;
        let (base, span) = if region < p.stack_frac {
            (STACK_BASE - STACK_SPAN, STACK_SPAN)
        } else if region < p.stack_frac + hot_frac {
            // Hot objects under manipulation: high L1 locality.
            (self.hot_base, 512)
        } else if region < p.stack_frac + hot_frac + p.global_frac {
            // A per-event window into the globals, not the whole region:
            // real events manipulate a bounded slice of shared state.
            (GLOBAL_BASE + self.global_window, 4 * 1024)
        } else if region < p.stack_frac + hot_frac + p.global_frac + p.kind_frac {
            (self.kind_base() + self.kind_window, 4 * 1024)
        } else {
            // A bounded window of the event's fresh heap (cold on first
            // touch, reused afterwards).
            (self.heap_base(), p.heap_per_event.min(4 * 1024))
        };
        base + (self.rng.below(span.max(8)) & !7)
    }

    /// Handles the terminator slot of the current block, emitting its
    /// control instruction and updating frame state.
    fn emit_terminator(&mut self) -> Instr {
        let (term, pc, block_idx, n_blocks) = {
            let frame = self.frames.last().expect("terminator with no frame");
            let f = self.image.function(frame.func);
            let b = &f.blocks[frame.block as usize];
            (b.term, b.term_pc(), frame.block, f.blocks.len() as u16)
        };
        match term {
            Terminator::FallThrough => {
                self.advance();
                Instr::alu(pc)
            }
            Terminator::CondSkip { taken_permille, skip } => {
                let taken = self.rng.below(1000) < taken_permille as u64;
                let target_block = (block_idx + 1 + skip as u16).min(n_blocks - 1);
                let frame = self.frames.last().expect("frame");
                let target = self.image.function(frame.func).blocks[target_block as usize].start;
                let frame = self.frames.last_mut().expect("frame");
                if taken {
                    frame.block = target_block;
                    frame.instr = 0;
                } else {
                    frame.block += 1;
                    frame.instr = 0;
                }
                Instr::cond_branch(pc, taken, target)
            }
            Terminator::LoopBack { to_block, mean_trips } => {
                let frame = self.frames.last().expect("frame");
                let needs_draw = !frame.loops.iter().any(|&(b, _)| b == block_idx);
                // Trip counts are mostly stable per site (the loop
                // predictor's bread and butter), with occasional ±1
                // data-dependent wobble.
                let trips = if needs_draw {
                    let base = mean_trips.max(1) as u64;
                    if self.rng.chance(0.70) {
                        base as u16
                    } else if self.rng.chance(0.5) {
                        (base + 1) as u16
                    } else {
                        (base - 1).max(1) as u16
                    }
                } else {
                    0
                };
                let target = self.image.function(frame.func).blocks[to_block as usize].start;
                let frame = self.frames.last_mut().expect("frame");
                if needs_draw {
                    frame.loops.push((block_idx, trips));
                }
                let entry = frame
                    .loops
                    .iter_mut()
                    .find(|(b, _)| *b == block_idx)
                    .expect("loop entry just ensured");
                if entry.1 > 0 {
                    entry.1 -= 1;
                    frame.block = to_block;
                    frame.instr = 0;
                    Instr::cond_branch(pc, true, target)
                } else {
                    frame.loops.retain(|&(b, _)| b != block_idx);
                    frame.block += 1;
                    frame.instr = 0;
                    Instr::cond_branch(pc, false, target)
                }
            }
            Terminator::Call { callee } => {
                if self.rng.chance(self.params.call_take_prob) {
                    self.emit_call(pc, callee, false)
                } else {
                    self.skip_call(pc)
                }
            }
            Terminator::CallPool => {
                if self.rng.chance(self.params.call_take_prob) {
                    let callee = self.pool[self.rng.below(self.pool.len() as u64) as usize];
                    self.emit_call(pc, callee, false)
                } else {
                    self.skip_call(pc)
                }
            }
            Terminator::Dispatch { base } => {
                if self.rng.chance(self.params.call_take_prob) {
                    // Dispatch targets are zipf-skewed: real dynamic
                    // sites have a hot receiver type with a tail of
                    // megamorphic cases.
                    let z = self.rng.unit_f64();
                    let i = ((z * z * z) * self.image.dispatch_fanout() as f64) as u32;
                    let callee =
                        self.image.dispatch_target(base, i.min(self.image.dispatch_fanout() - 1));
                    self.emit_call(pc, callee, true)
                } else {
                    self.skip_call(pc)
                }
            }
            Terminator::Return => {
                let frame = self.frames.pop().expect("return with no frame");
                Instr::ret(pc, frame.ret_to)
            }
        }
    }

    /// A call site whose guard did not take this time: advances past the
    /// site as straight-line code.
    fn skip_call(&mut self, pc: Addr) -> Instr {
        self.advance();
        Instr::alu(pc)
    }

    fn emit_call(&mut self, pc: Addr, callee: u32, indirect: bool) -> Instr {
        self.advance();
        if self.frames.len() >= MAX_DEPTH {
            // Depth cap: degrade to a non-control slot.
            return Instr::alu(pc);
        }
        let entry = self.image.function(callee).entry;
        let frame = self.new_frame(callee, pc + INSTR_BYTES);
        self.frames.push(frame);
        if indirect {
            Instr::indirect_call(pc, entry)
        } else {
            Instr::call(pc, entry)
        }
    }

    fn advance(&mut self) {
        let frame = self.frames.last_mut().expect("advance with no frame");
        frame.block += 1;
        frame.instr = 0;
    }
}

impl Iterator for EventWalk<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        if self.emitted >= self.budget {
            return None;
        }
        if !self.diverged && self.diverge_at == Some(self.emitted) {
            // The pre-execution veers off the real path: every dynamic
            // decision from here on comes from an unrelated stream.
            self.rng = Xoshiro256pp::seed_from_u64(SplitMix64::derive(self.seed, 0xD1FF));
            self.diverged = true;
        }
        if self.frames.is_empty() {
            // Between work items the walk runs the dispatcher loop.
            let instr = match self.dispatch_step {
                0 => {
                    // Loop back to the dispatcher head after a root
                    // returned to DISPATCH_RET.
                    self.dispatch_step = 1;
                    Instr::cond_branch(Addr::new(DISPATCH_RET), true, Addr::new(DISPATCH_PC))
                }
                1 => {
                    self.dispatch_step = 2;
                    Instr::alu(Addr::new(DISPATCH_PC))
                }
                _ => {
                    // Pick the next work item and indirect-call its root.
                    self.dispatch_step = 0;
                    let func = if self.emitted <= 2 {
                        self.image.handler_of_kind(self.kind)
                    } else {
                        self.pool[self.rng.below(self.pool.len() as u64) as usize]
                    };
                    self.reseat_data_state();
                    let entry = self.image.function(func).entry;
                    let frame = self.new_frame(func, Addr::new(DISPATCH_RET));
                    self.frames.push(frame);
                    Instr::indirect_call(Addr::new(DISPATCH_CALL), entry)
                }
            };
            self.emitted += 1;
            return Some(instr);
        }
        let frame = self.frames.last().expect("frame");
        let f = self.image.function(frame.func);
        let b = &f.blocks[frame.block as usize];
        let instr = if frame.instr < b.body_len {
            let pc = b.start + frame.instr as u64 * INSTR_BYTES;
            let i = self.emit_body(pc);
            self.frames.last_mut().expect("frame").instr += 1;
            i
        } else {
            self.emit_terminator()
        };
        self.emitted += 1;
        Some(instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::{CodeImage, CODE_BASE};
    use esp_trace::InstrKind;

    fn setup() -> (CodeImage, WorkloadParams) {
        let params = WorkloadParams::web_default();
        let image = CodeImage::build(&params, 11);
        (image, params)
    }

    fn detail(len: u64, diverge_at: Option<u64>) -> EventDetail {
        EventDetail {
            index: 3,
            kind: EventKindId::new(2),
            seed: 0xABCD,
            len,
            diverge_at,
            order_mispredicted: false,
        }
    }

    fn collect(walk: &mut EventWalk<'_>, n: usize) -> Vec<Instr> {
        walk.take(n).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let (image, params) = setup();
        let d = detail(5000, None);
        let mut a = EventWalk::new(&image, &params, &d, false);
        let mut b = EventWalk::new(&image, &params, &d, false);
        assert_eq!(collect(&mut a, 5000), collect(&mut b, 5000));
    }

    #[test]
    fn budget_is_exact() {
        let (image, params) = setup();
        let d = detail(1234, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let got = collect(&mut w, 10_000);
        assert_eq!(got.len(), 1234);
        assert!(w.next().is_none());
    }

    #[test]
    fn speculative_view_matches_until_divergence() {
        let (image, params) = setup();
        let d = detail(4000, Some(1500));
        let mut actual = EventWalk::new(&image, &params, &d, false);
        let mut spec = EventWalk::new(&image, &params, &d, true);
        let a = collect(&mut actual, 4000);
        let s = collect(&mut spec, 4000);
        assert_eq!(a[..1500], s[..1500]);
        assert_ne!(a[1500..], s[1500..]);
    }

    #[test]
    fn speculative_view_without_divergence_matches_fully() {
        let (image, params) = setup();
        let d = detail(4000, None);
        let mut actual = EventWalk::new(&image, &params, &d, false);
        let mut spec = EventWalk::new(&image, &params, &d, true);
        assert_eq!(collect(&mut actual, 4000), collect(&mut spec, 4000));
    }

    #[test]
    fn clone_resumes_identically() {
        let (image, params) = setup();
        let d = detail(6000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        collect(&mut w, 2000);
        let mut snapshot = w.clone();
        assert_eq!(collect(&mut w, 1000), collect(&mut snapshot, 1000));
    }

    #[test]
    fn instruction_mix_is_close_to_params() {
        let (image, params) = setup();
        let d = detail(60_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let instrs = collect(&mut w, 60_000);
        let n = instrs.len() as f64;
        let loads = instrs.iter().filter(|i| matches!(i.kind, InstrKind::Load { .. })).count() as f64;
        let stores = instrs.iter().filter(|i| matches!(i.kind, InstrKind::Store { .. })).count() as f64;
        let branches = instrs.iter().filter(|i| i.is_branch()).count() as f64;
        // Body slots are ~5/6 of the stream; loads ≈ 0.30 of body slots.
        assert!((0.15..0.35).contains(&(loads / n)), "load frac {}", loads / n);
        assert!((0.04..0.16).contains(&(stores / n)), "store frac {}", stores / n);
        assert!((0.08..0.30).contains(&(branches / n)), "branch frac {}", branches / n);
    }

    #[test]
    fn pcs_are_within_the_image() {
        let (image, params) = setup();
        let d = detail(20_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let hi = CODE_BASE + image.footprint_bytes();
        for i in collect(&mut w, 20_000) {
            let pc = i.pc.as_u64();
            let in_image = (CODE_BASE..hi).contains(&pc);
            let in_dispatcher = (DISPATCH_PC..=DISPATCH_RET).contains(&pc);
            assert!(in_image || in_dispatcher, "pc {pc:#x} outside image");
        }
    }

    #[test]
    fn control_flow_is_consistent() {
        // Each instruction's next_pc must equal the following
        // instruction's pc (single-threaded straight trace).
        let (image, params) = setup();
        let d = detail(30_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let instrs = collect(&mut w, 30_000);
        let mut breaks = 0;
        for pair in instrs.windows(2) {
            if pair[0].next_pc() != pair[1].pc {
                breaks += 1;
            }
        }
        // With the dispatcher loop in the stream, control flow is fully
        // consistent: every instruction's next_pc is the next
        // instruction's pc.
        assert_eq!(breaks, 0, "control-flow breaks found");
    }

    #[test]
    fn different_events_use_different_heaps() {
        let (image, params) = setup();
        let d1 = EventDetail { index: 1, ..detail(5000, None) };
        let d2 = EventDetail { index: 2, ..detail(5000, None) };
        let heap_of = |d: &EventDetail| {
            let mut w = EventWalk::new(&image, &params, d, false);
            collect(&mut w, 5000)
                .iter()
                .filter_map(|i| i.mem_addr())
                .filter(|a| a.as_u64() >= HEAP_BASE)
                .map(|a| a.as_u64())
                .min()
        };
        let h1 = heap_of(&d1).unwrap();
        let h2 = heap_of(&d2).unwrap();
        assert!(h2 >= h1 + params.heap_per_event);
    }

    #[test]
    fn streaming_accesses_exist() {
        let (image, params) = setup();
        let d = detail(30_000, None);
        let mut w = EventWalk::new(&image, &params, &d, false);
        let instrs = collect(&mut w, 30_000);
        let addrs: Vec<u64> = instrs.iter().filter_map(|i| i.mem_addr()).map(|a| a.as_u64()).collect();
        // Look for +8 sequential pairs, the 8-byte-element streaming
        // signature.
        let sequential = addrs.windows(2).filter(|w| w[1] == w[0] + 8).count();
        assert!(sequential > 10, "sequential={sequential}");
    }
}
