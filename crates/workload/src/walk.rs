//! The event walk: one event's deterministic instruction stream.

use crate::code::{CodeImage, Terminator, INSTR_BYTES};
use crate::schedule::EventDetail;
use crate::WorkloadParams;
use esp_trace::kindbits::{
    FLAG_BIT, TAG_ALU, TAG_CALL, TAG_COND, TAG_IND_CALL, TAG_LOAD, TAG_RET, TAG_STORE,
};
use esp_trace::{Instr, RawStep};
use esp_types::{EventKindId, Rng, SplitMix64, Xoshiro256pp};

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
/// Share of non-streaming data accesses that go to the hot object block.
const HOT_FRAC: f64 = 0.22;

/// One emitted step: kind `tag`, with the flag bit when `flag` (a
/// load's `chained`, a conditional's `taken`), at `pc`, with operand
/// `op` (0 for ALUs).
#[inline(always)]
fn step(tag: u8, flag: bool, pc: u64, op: u64) -> RawStep {
    RawStep { kind: tag | if flag { FLAG_BIT } else { 0 }, pc, op }
}

/// An ALU step at `pc`.
#[inline(always)]
fn alu(pc: u64) -> RawStep {
    step(TAG_ALU, false, pc, 0)
}

/// Static hash of the body slot `frame` is at, under the code image's
/// `seed`: identical for every dynamic execution of the same instruction
/// slot.
#[inline(always)]
fn body_hash(seed: u64, frame: &Frame) -> u64 {
    let slot = ((frame.func as u64) << 28) | ((frame.block as u64) << 12) | frame.instr as u64;
    SplitMix64::derive(seed ^ 0x0B0D, slot)
}

/// The number of `k` in `0..denom` for which `k as f64 / denom as f64 <
/// threshold`. `k as f64` is exact and dividing by a positive constant
/// never reverses an order, so those `k` are a prefix of `0..denom` and
/// the float test on slot bits `k` is exactly `k < cut(denom,
/// threshold)`. Found by binary search over the float test itself.
fn cut(denom: u64, threshold: f64) -> u64 {
    let (mut lo, mut hi) = (0, denom);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if (mid as f64 / denom as f64) < threshold {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The walk's static per-slot decisions as integer cut points: each is
/// a fraction from [`WorkloadParams`] turned into a bound on the slot
/// hash bits that decide it ([`cut`]). The thresholds are the float
/// sums the decisions were defined by, added in the same order, so every
/// decision is bit for bit the float test's.
#[derive(Clone, Copy, Debug)]
struct Cuts {
    /// Rolls (of 10 000) below this are loads.
    load: u64,
    /// Rolls below this and not loads are stores.
    store: u64,
    /// A load whose 4 chain bits (of 16) are below this is chained.
    chained: u64,
    /// A data access whose 8 streaming bits (of 256) are below this
    /// streams.
    streaming: u64,
    /// Region bits (of 1024) below each bound land in the stack, hot,
    /// global and kind regions in turn; the rest in the heap.
    region: [u64; 4],
}

impl Cuts {
    fn of(p: &WorkloadParams) -> Self {
        let stack = p.stack_frac;
        let hot = p.stack_frac + HOT_FRAC;
        let global = p.stack_frac + HOT_FRAC + p.global_frac;
        let kind = p.stack_frac + HOT_FRAC + p.global_frac + p.kind_frac;
        Cuts {
            load: cut(10_000, p.load_frac),
            store: cut(10_000, p.load_frac + p.store_frac),
            chained: cut(16, p.chained_frac),
            streaming: cut(256, p.streaming_frac),
            region: [stack, hot, global, kind].map(|t| cut(1024, t)),
        }
    }
}

#[derive(Clone, Debug)]
struct Frame {
    func: u32,
    block: u16,
    instr: u16,
    ret_to: u64,
    /// Active counted loops in this frame: (back-edge block, remaining
    /// back-jumps). Keyed per block so sibling/nested loops cannot reset
    /// each other's trip counters.
    loops: Vec<(u16, u16)>,
}

/// A resumable, deterministic walk over the code image for one event.
///
/// [`EventWalk::next_raw`] emits each instruction as the [`RawStep`] a
/// packed trace stores, so materialising an event never builds an
/// [`Instr`]; the [`Iterator`] impl maps the same steps to `Instr`s and
/// reports the exact number left.
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
    cuts: Cuts,
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
    /// Emptied loop lists of returned frames, handed to new frames so a
    /// call allocates nothing once the walk has warmed up.
    spare_loops: Vec<Vec<(u16, u16)>>,
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
            cuts: Cuts::of(params),
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
            spare_loops: Vec::new(),
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

    /// A copy of this walk that veers off at its next step, as the
    /// speculative view does at its divergence point. Before that point
    /// the two views make every decision alike, so forking the actual
    /// walk after `detail.diverge_at` steps leaves exactly the state the
    /// speculative walk has there, without walking the prefix twice.
    pub(crate) fn diverge_here(&self) -> Self {
        assert!(!self.diverged, "the walk has already diverged");
        EventWalk { diverge_at: Some(self.emitted), ..self.clone() }
    }

    fn new_frame(&mut self, func: u32, ret_to: u64) -> Frame {
        let loops = self.spare_loops.pop().unwrap_or_default();
        Frame { func, block: 0, instr: 0, ret_to, loops }
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

    /// Emits the body slot at `pc` whose static per-slot hash is `h`
    /// ([`body_hash`]).
    fn emit_body(&mut self, pc: u64, h: u64) -> RawStep {
        let roll = h % 10_000;
        let tag = if roll < self.cuts.load {
            TAG_LOAD
        } else if roll < self.cuts.store {
            TAG_STORE
        } else {
            return alu(pc);
        };
        let addr = self.data_address(h >> 16);
        let chained = tag == TAG_LOAD && (h >> 60) < self.cuts.chained;
        step(tag, chained, pc, addr)
    }

    fn data_address(&mut self, static_bits: u64) -> u64 {
        // Streaming decision is static per slot; the stream position is
        // per-work-item dynamic state.
        if static_bits & 0xff < self.cuts.streaming {
            // 8-byte element walks: eight accesses per cache line, so the
            // stride/DCU prefetchers have a pattern worth catching.
            let a = self.stream_base + self.stream_count as u64 * 8;
            self.stream_count += 1;
            return a;
        }
        let region = (static_bits >> 8) & 0x3ff;
        let [stack, hot, global, kind] = self.cuts.region;
        let (base, span) = if region < stack {
            (STACK_BASE - STACK_SPAN, STACK_SPAN)
        } else if region < hot {
            // Hot objects under manipulation: high L1 locality.
            (self.hot_base, 512)
        } else if region < global {
            // A per-event window into the globals, not the whole region:
            // real events manipulate a bounded slice of shared state.
            (GLOBAL_BASE + self.global_window, 4 * 1024)
        } else if region < kind {
            (self.kind_base() + self.kind_window, 4 * 1024)
        } else {
            // A bounded window of the event's fresh heap (cold on first
            // touch, reused afterwards).
            (self.heap_base(), self.params.heap_per_event.min(4 * 1024))
        };
        base + (self.rng.below(span.max(8)) & !7)
    }

    /// Handles the terminator slot of the current block, emitting its
    /// control instruction and updating frame state.
    fn emit_terminator(&mut self) -> RawStep {
        let (term, pc, block_idx, n_blocks) = {
            let frame = self.frames.last().expect("terminator with no frame");
            let f = self.image.function(frame.func);
            let b = &f.blocks[frame.block as usize];
            (b.term, b.term_pc().as_u64(), frame.block, f.blocks.len() as u16)
        };
        match term {
            Terminator::FallThrough => {
                self.advance();
                alu(pc)
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
                step(TAG_COND, taken, pc, target.as_u64())
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
                let target = self.image.function(frame.func).blocks[to_block as usize].start.as_u64();
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
                    step(TAG_COND, true, pc, target)
                } else {
                    frame.loops.retain(|&(b, _)| b != block_idx);
                    frame.block += 1;
                    frame.instr = 0;
                    step(TAG_COND, false, pc, target)
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
                let mut frame = self.frames.pop().expect("return with no frame");
                frame.loops.clear();
                self.spare_loops.push(frame.loops);
                step(TAG_RET, false, pc, frame.ret_to)
            }
        }
    }

    /// A call site whose guard did not take this time: advances past the
    /// site as straight-line code.
    fn skip_call(&mut self, pc: u64) -> RawStep {
        self.advance();
        alu(pc)
    }

    fn emit_call(&mut self, pc: u64, callee: u32, indirect: bool) -> RawStep {
        self.advance();
        if self.frames.len() >= MAX_DEPTH {
            // Depth cap: degrade to a non-control slot.
            return alu(pc);
        }
        let entry = self.image.function(callee).entry.as_u64();
        let frame = self.new_frame(callee, pc + INSTR_BYTES);
        self.frames.push(frame);
        step(if indirect { TAG_IND_CALL } else { TAG_CALL }, false, pc, entry)
    }

    fn advance(&mut self) {
        let frame = self.frames.last_mut().expect("advance with no frame");
        frame.block += 1;
        frame.instr = 0;
    }

    /// Emits the next instruction as the raw step a packed trace stores
    /// (see [`RawStep`]), or `None` once the event's budget is spent.
    ///
    /// `inline`: the arena's pack loop is the hot caller. As a call, each
    /// step's `Option<RawStep>` goes through memory, and materialising
    /// the nine families took about 12% longer.
    #[inline]
    pub fn next_raw(&mut self) -> Option<RawStep> {
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
            let raw = match self.dispatch_step {
                0 => {
                    // Loop back to the dispatcher head after a root
                    // returned to DISPATCH_RET.
                    self.dispatch_step = 1;
                    step(TAG_COND, true, DISPATCH_RET, DISPATCH_PC)
                }
                1 => {
                    self.dispatch_step = 2;
                    alu(DISPATCH_PC)
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
                    let entry = self.image.function(func).entry.as_u64();
                    let frame = self.new_frame(func, DISPATCH_RET);
                    self.frames.push(frame);
                    step(TAG_IND_CALL, false, DISPATCH_CALL, entry)
                }
            };
            self.emitted += 1;
            return Some(raw);
        }
        let image = self.image;
        let frame = self.frames.last_mut().expect("frame");
        let b = &image.function(frame.func).blocks[frame.block as usize];
        let raw = if frame.instr < b.body_len {
            let pc = b.start.as_u64() + frame.instr as u64 * INSTR_BYTES;
            let h = body_hash(image.seed(), frame);
            frame.instr += 1;
            self.emit_body(pc, h)
        } else {
            self.emit_terminator()
        };
        self.emitted += 1;
        Some(raw)
    }
}

impl Iterator for EventWalk<'_> {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        self.next_raw().map(|r| r.to_instr())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.budget - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for EventWalk<'_> {}

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
        assert_eq!(w.len(), 1234);
        let got = collect(&mut w, 1000);
        assert_eq!(w.size_hint(), (234, Some(234)));
        assert_eq!(got.len() + collect(&mut w, 10_000).len(), 1234);
        assert_eq!(w.len(), 0);
        assert!(w.next().is_none());
    }

    #[test]
    fn integer_cuts_decide_exactly_as_the_float_tests() {
        // Every fraction a profile sets, plus thresholds on, just above
        // and just below each representable k / denom, and the ends.
        let mut thresholds = vec![0.0, 1.0, -0.5, 1.5, f64::NAN, f64::INFINITY];
        for p in crate::BenchmarkProfile::all_families() {
            let p = p.params();
            thresholds.extend([p.load_frac, p.load_frac + p.store_frac, p.chained_frac]);
            thresholds.extend([p.streaming_frac, p.stack_frac, p.stack_frac + HOT_FRAC]);
            thresholds.push(p.stack_frac + HOT_FRAC + p.global_frac);
            thresholds.push(p.stack_frac + HOT_FRAC + p.global_frac + p.kind_frac);
        }
        for denom in [16u64, 256, 1024, 10_000] {
            let mut ts = thresholds.clone();
            for k in (0..=denom).step_by(denom as usize / 16) {
                let t = k as f64 / denom as f64;
                ts.extend([t, t.next_up(), t.next_down()]);
            }
            for &t in &ts {
                let c = cut(denom, t);
                for k in 0..denom {
                    assert_eq!(k < c, (k as f64 / denom as f64) < t, "k {k} of {denom}, threshold {t}");
                }
            }
        }
    }

    #[test]
    fn forking_at_the_divergence_point_is_the_speculative_view() {
        let (image, params) = setup();
        let d = detail(4000, Some(1500));
        let mut actual = EventWalk::new(&image, &params, &d, false);
        collect(&mut actual, 1500);
        let mut fork = actual.diverge_here();
        let mut spec = EventWalk::new(&image, &params, &d, true);
        collect(&mut spec, 1500);
        assert_eq!(fork.len(), 2500);
        let mut n = 0;
        while let Some(s) = spec.next_raw() {
            assert_eq!(fork.next_raw(), Some(s), "step {n} past the fork");
            n += 1;
        }
        assert_eq!((n, fork.next_raw()), (2500, None));
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
