//! Decode-once packed traces: a struct-of-arrays instruction store.
//!
//! The generator in `esp-workload` re-derives an event's instruction
//! stream from its seed every time a stream is opened. That is perfect
//! for memory (nothing is stored) but wrong for the evaluation matrix,
//! where the *same* streams are replayed under dozens of machine
//! configurations: the dominant cost of a matrix run becomes stream
//! regeneration, not timing simulation. This module provides the
//! replay-many half of the trade:
//!
//! * [`PackedTrace`] — one instruction stream, packed into parallel
//!   arrays: one *kind byte* per instruction (discriminant + flags) and
//!   one 32-bit operand word per instruction that needs one (a wider
//!   operand is escaped into three words). Program counters are not
//!   stored at all: within an event a trace is
//!   control-flow consistent (each instruction's `next_pc` is the next
//!   instruction's `pc`), so the cursor re-derives them; the rare
//!   discontinuity is flagged and spills an explicit pc operand.
//! * [`PackedCursor`] — an allocation-free, resumable cursor over a
//!   packed trace: three integers of state, no heap, `Clone` for cheap
//!   checkpoints (runahead copies its cursor at the blocking load). It
//!   decodes one [`RawStep`] at a time ([`PackedCursor::next_raw`]) or
//!   walks whole regions in bulk; [`RawStep::to_instr`] is the one way
//!   back to an [`Instr`].
//! * [`PackedEvent`] — one event's *actual* stream plus, when the event
//!   diverges, the speculative tail from the divergence point onward.
//!   A speculative cursor reads the shared actual arrays up to the
//!   divergence point and then switches to the tail — the prefix is
//!   stored exactly once.
//! * [`TraceArena`] / [`PackedWorkload`] — a whole program materialised
//!   event by event, shared (`Arc`) across every simulator configuration
//!   and worker thread that replays it.
//!
//! Packing is lossless: a cursor reproduces the recorded [`Instr`]
//! sequence bit for bit (the equivalence tests in `esp-bench` assert
//! byte-identical `RunReport`s and JSONL traces between a workload packed
//! by [`PackedWorkload::pack`] and the same workload materialised by its
//! generator).
//!
//! # Examples
//!
//! ```
//! use esp_trace::{Instr, PackedTrace};
//! use esp_types::Addr;
//!
//! let instrs = vec![
//!     Instr::alu(Addr::new(0x100)),
//!     Instr::load(Addr::new(0x104), Addr::new(0x8000), false),
//!     Instr::cond_branch(Addr::new(0x108), true, Addr::new(0x100)),
//! ];
//! let packed = PackedTrace::from_instrs(&instrs);
//! let mut cursor = packed.cursor();
//! for want in &instrs {
//!     assert_eq!(cursor.next_raw().map(|step| step.to_instr()).as_ref(), Some(want));
//! }
//! assert_eq!(cursor.next_raw(), None);
//! ```

use crate::instr::INSTR_BYTES;
use crate::{EventRecord, Instr, InstrKind, Workload};
use esp_types::{Addr, EventId};
use std::sync::{Arc, Mutex};

/// A consumer of the functional-warming walk
/// ([`PackedCursor::warm_walk_bounded`]): the architectural-state updates
/// a detailed engine would make — cache tags/LRU, predictor tables,
/// prefetcher training — minus all timing.
///
/// The walk is monomorphized over the sink, so a sink with `#[inline]`
/// methods warms at decode speed; instructions that carry no warmable
/// state (ALUs on an already-fetched line) cost one table lookup and two
/// adds.
pub trait WarmSink {
    /// The fetch stream entered instruction-cache line `line`
    /// (`pc / line_bytes`). Called once per run of same-line
    /// instructions, mirroring the detailed engine's fetch dedup.
    fn warm_fetch_line(&mut self, line: u64);
    /// A load at `pc` touched data address `addr`.
    fn warm_load(&mut self, pc: u64, addr: u64);
    /// A store touched data address `addr`.
    fn warm_store(&mut self, addr: u64);
    /// A branch executed; `instr` carries its kind, outcome, and target.
    fn warm_branch(&mut self, instr: &Instr);
}

/// The kind-byte encoding of a [`PackedTrace`], shared with the
/// specialised simulation kernels in `esp-uarch`: the kernel's flat
/// per-kind dispatch table is indexed directly by the low tag bits, so
/// the encoding is part of the crate's public contract.
pub mod kindbits {
    /// Plain ALU work (no operand slot).
    pub const TAG_ALU: u8 = 0;
    /// A load; the flag bit carries `chained`.
    pub const TAG_LOAD: u8 = 1;
    /// A store.
    pub const TAG_STORE: u8 = 2;
    /// A conditional branch; the flag bit carries `taken`.
    pub const TAG_COND: u8 = 3;
    /// An indirect branch.
    pub const TAG_IND_BRANCH: u8 = 4;
    /// An indirect call.
    pub const TAG_IND_CALL: u8 = 5;
    /// A direct call.
    pub const TAG_CALL: u8 = 6;
    /// A return.
    pub const TAG_RET: u8 = 7;
    /// Low bits holding the discriminant tag.
    pub const TAG_MASK: u8 = 0b0000_0111;
    /// Kind-byte flag: `chained` for loads, `taken` for conditional
    /// branches.
    pub const FLAG_BIT: u8 = 0b0000_1000;
    /// Kind-byte flag: this instruction's pc does not follow from the
    /// previous instruction's `next_pc`; an explicit pc operand precedes
    /// the instruction's own operand in the operand array.
    pub const EXPLICIT_PC: u8 = 0b0001_0000;
}
use kindbits::{
    EXPLICIT_PC, FLAG_BIT, TAG_ALU, TAG_CALL, TAG_COND, TAG_IND_BRANCH, TAG_IND_CALL, TAG_LOAD,
    TAG_MASK, TAG_RET, TAG_STORE,
};

/// One instruction decoded to its packed essentials: the raw kind byte,
/// the re-derived pc, and the single operand word (data address for
/// loads/stores, branch target for control flow, 0 for ALUs). The
/// specialised kernels consume this instead of a 32-byte [`Instr`]; the
/// mapping back to an `Instr` is total and lossless
/// ([`RawStep::to_instr`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawStep {
    /// The kind byte ([`kindbits`] tag + flags as stored).
    pub kind: u8,
    /// The instruction's program counter.
    pub pc: u64,
    /// The operand word; 0 for ALU instructions.
    pub op: u64,
}

impl RawStep {
    /// The total mapping back to the recorded [`Instr`] — the one place
    /// packed bytes become an `Instr`. The specialised kernels use it to
    /// materialise instructions only where a consumer needs the full form
    /// (the branch predictor).
    #[inline(always)]
    pub fn to_instr(&self) -> Instr {
        let pc = Addr::new(self.pc);
        let op = Addr::new(self.op);
        let flag = self.kind & FLAG_BIT != 0;
        match self.kind & TAG_MASK {
            TAG_ALU => Instr::alu(pc),
            TAG_LOAD => Instr::load(pc, op, flag),
            TAG_STORE => Instr::store(pc, op),
            TAG_COND => Instr::cond_branch(pc, flag, op),
            TAG_IND_BRANCH => Instr::indirect(pc, op),
            TAG_IND_CALL => Instr::indirect_call(pc, op),
            TAG_CALL => Instr::call(pc, op),
            _ => Instr::ret(pc, op),
        }
    }

    /// The packed form of `i` — the inverse of [`RawStep::to_instr`] and
    /// the one place an `Instr` becomes packed bytes. The kind byte holds
    /// the tag and the flag bit only (never [`kindbits::EXPLICIT_PC`]);
    /// an ALU's operand is 0.
    #[inline(always)]
    pub fn from_instr(i: &Instr) -> RawStep {
        let (tag, flag, op) = match i.kind {
            InstrKind::Alu => (TAG_ALU, false, Addr::new(0)),
            InstrKind::Load { addr, chained } => (TAG_LOAD, chained, addr),
            InstrKind::Store { addr } => (TAG_STORE, false, addr),
            InstrKind::CondBranch { taken, target } => (TAG_COND, taken, target),
            InstrKind::IndirectBranch { target } => (TAG_IND_BRANCH, false, target),
            InstrKind::IndirectCall { target } => (TAG_IND_CALL, false, target),
            InstrKind::Call { target } => (TAG_CALL, false, target),
            InstrKind::Return { target } => (TAG_RET, false, target),
        };
        let kind = if flag { tag | FLAG_BIT } else { tag };
        RawStep { kind, pc: i.pc.as_u64(), op: op.as_u64() }
    }

    /// The pc of the instruction that follows this one, as
    /// [`Instr::next_pc`] gives it: sequential for ALUs, loads, stores
    /// and not-taken conditionals, the operand (the target) otherwise.
    #[inline(always)]
    pub fn next_pc(&self) -> u64 {
        let tag = self.kind & TAG_MASK;
        if tag < TAG_COND || (tag == TAG_COND && self.kind & FLAG_BIT == 0) {
            self.pc + INSTR_BYTES
        } else {
            self.op
        }
    }
}

/// A structural defect found while validating raw packed arrays
/// ([`PackedTrace::from_raw_parts`]) — the decode-side contract of the
/// on-disk ESPT format ([`crate::espt`]).
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum RawTraceError {
    /// A kind byte set one of the reserved high bits (5..=7), which v1
    /// of the encoding defines as zero.
    ReservedKindBits {
        /// Index of the offending instruction.
        index: u64,
        /// The raw kind byte.
        kind: u8,
    },
    /// The operand array ran out before the kind bytes' demand was met.
    MissingOperands {
        /// Operand slots the kind bytes consume.
        expected: u64,
        /// Operand words actually present.
        found: u64,
    },
    /// The operand array holds words no kind byte consumes.
    ExtraOperands {
        /// Operand slots the kind bytes consume.
        expected: u64,
        /// Operand words actually present.
        found: u64,
    },
    /// Re-deriving program counters overflowed the 64-bit address space;
    /// no generated or recorded trace does this, so the input is corrupt.
    PcOverflow {
        /// Index of the instruction whose sequential pc overflowed.
        index: u64,
    },
}

impl std::fmt::Display for RawTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RawTraceError::ReservedKindBits { index, kind } => {
                write!(f, "instruction {index}: kind byte {kind:#04x} sets reserved bits")
            }
            RawTraceError::MissingOperands { expected, found } => {
                write!(f, "operand array too short: kind bytes demand {expected} words, found {found}")
            }
            RawTraceError::ExtraOperands { expected, found } => {
                write!(f, "operand array too long: kind bytes demand {expected} words, found {found}")
            }
            RawTraceError::PcOverflow { index } => {
                write!(f, "instruction {index}: sequential pc overflows the address space")
            }
        }
    }
}

impl std::error::Error for RawTraceError {}

/// The operand word that escapes a wide operand: the 64-bit value follows
/// as two words, low half then high half. Every operand below `OP_ESCAPE`
/// is stored as one word; `OP_ESCAPE` itself is stored escaped.
const OP_ESCAPE: u32 = u32::MAX;

/// Reads the logical operand at `ops[*idx]` (see [`OP_ESCAPE`]) and
/// advances `idx` past its words — the one operand decoder of every
/// cursor and of [`PackedTrace::op_words`]. The escape test is a branch
/// no generated trace takes, marked cold and kept free of calls: a call
/// on the escape path would make every cursor loop reload the trace's
/// array pointers after each operand (20% on a bare decode loop).
#[inline(always)]
fn read_op(ops: &[u32], idx: &mut usize) -> u64 {
    let at = *idx;
    let w = ops[at];
    if w != OP_ESCAPE {
        *idx = at + 1;
        return u64::from(w);
    }
    std::hint::cold_path();
    *idx = at + 3;
    u64::from(ops[at + 1]) | u64::from(ops[at + 2]) << 32
}

/// Appends the logical operand `v` to `ops` (see [`OP_ESCAPE`]).
fn push_op(ops: &mut Vec<u32>, v: u64) {
    match u32::try_from(v) {
        Ok(w) if w != OP_ESCAPE => ops.push(w),
        _ => ops.extend([OP_ESCAPE, v as u32, (v >> 32) as u32]),
    }
}

/// One instruction stream in struct-of-arrays form.
///
/// Layout: `kinds` holds one byte per instruction; `ops` holds the
/// operands in stream order — an explicit pc first when the
/// `EXPLICIT_PC` kind bit is set, then the data address (loads/stores) or
/// branch target (control flow). Each operand is one `u32` word; one of
/// `u32::MAX` or more is the escape word `u32::MAX` followed by its low
/// and high halves. ALU instructions consume no operand, so a generated
/// stream packs to ~3 bytes per instruction versus the 32-byte in-memory
/// [`Instr`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedTrace {
    start_pc: u64,
    kinds: Vec<u8>,
    ops: Vec<u32>,
    /// The pc the next pushed instruction is predicted to have
    /// (build-time state only; replay re-derives it).
    expect_pc: u64,
}

impl PackedTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        PackedTrace::default()
    }

    /// Creates an empty trace with room for `instrs` instructions' kind
    /// bytes, so packing a stream of known length never grows them.
    /// Operand words are reserved as they come.
    pub fn with_capacity(instrs: usize) -> Self {
        PackedTrace { kinds: Vec::with_capacity(instrs), ..PackedTrace::default() }
    }

    /// Appends one instruction given as a raw step — the one pack body;
    /// every other way into a trace goes through it. The stored kind
    /// byte keeps the step's tag and flag bit; its
    /// [`kindbits::EXPLICIT_PC`] bit is decided here, from whether `pc`
    /// follows the previous step, so a step decoded by a cursor packs
    /// back to the same bytes. An ALU's operand is not stored.
    #[inline]
    pub fn push_raw(&mut self, step: RawStep) {
        let mut kind = step.kind & !EXPLICIT_PC;
        debug_assert_eq!(kind & !(TAG_MASK | FLAG_BIT), 0, "reserved kind bits set");
        let explicit = if self.kinds.is_empty() {
            self.start_pc = step.pc;
            false
        } else {
            step.pc != self.expect_pc
        };
        if explicit {
            kind |= EXPLICIT_PC;
            push_op(&mut self.ops, step.pc);
        }
        if kind & TAG_MASK != TAG_ALU {
            push_op(&mut self.ops, step.op);
        }
        self.kinds.push(kind);
        self.expect_pc = step.next_pc();
    }

    /// Appends one instruction.
    pub fn push(&mut self, i: &Instr) {
        self.push_raw(RawStep::from_instr(i));
    }

    /// Packs a recorded instruction slice.
    pub fn from_instrs(instrs: &[Instr]) -> Self {
        instrs.iter().copied().collect()
    }

    /// The pc of the first instruction (0 for an empty trace) — the
    /// anchor every replay cursor re-derives pcs from.
    pub fn start_pc(&self) -> u64 {
        self.start_pc
    }

    /// The raw kind bytes, one per instruction, in the [`kindbits`]
    /// encoding. Together with [`PackedTrace::op_words`] and
    /// [`PackedTrace::start_pc`] this is the complete serialised form of
    /// the trace; [`PackedTrace::from_raw_parts`] is the inverse.
    pub fn kind_bytes(&self) -> &[u8] {
        &self.kinds
    }

    /// The operand words in stream order (explicit pcs interleaved where
    /// the [`kindbits::EXPLICIT_PC`] flag is set), one logical `u64` per
    /// operand whatever its stored width.
    pub fn op_words(&self) -> impl Iterator<Item = u64> + '_ {
        let mut idx = 0;
        std::iter::from_fn(move || (idx < self.ops.len()).then(|| read_op(&self.ops, &mut idx)))
    }

    /// Reassembles a trace from its raw serialised arrays, validating
    /// the structural invariants replay relies on: no reserved kind
    /// bits, operand supply exactly matching the kind bytes' demand, and
    /// no pc overflow anywhere along the re-derived control flow. A
    /// trace accepted here replays safely with every cursor in this
    /// module and re-serialises to the identical arrays.
    ///
    /// # Errors
    ///
    /// Returns a [`RawTraceError`] naming the first violated invariant.
    pub fn from_raw_parts(start_pc: u64, kinds: Vec<u8>, ops: Vec<u64>) -> Result<Self, RawTraceError> {
        // Demand pass: how many operand words do the kind bytes consume?
        let mut demand: u64 = 0;
        for (i, &kind) in kinds.iter().enumerate() {
            if kind & !(TAG_MASK | FLAG_BIT | EXPLICIT_PC) != 0 {
                return Err(RawTraceError::ReservedKindBits { index: i as u64, kind });
            }
            if kind & EXPLICIT_PC != 0 {
                demand += 1;
            }
            if kind & TAG_MASK != TAG_ALU {
                demand += 1;
            }
        }
        let found = ops.len() as u64;
        if demand > found {
            return Err(RawTraceError::MissingOperands { expected: demand, found });
        }
        if demand < found {
            return Err(RawTraceError::ExtraOperands { expected: demand, found });
        }
        // Replay pass: mirror `PackedCursor::next_raw` with checked
        // arithmetic, landing on the trace's final expected pc. Replay
        // cursors repeat exactly this arithmetic unchecked, so passing
        // here guarantees they cannot overflow.
        let mut pc = start_pc;
        let mut op_idx = 0usize;
        for (i, &kind) in kinds.iter().enumerate() {
            if kind & EXPLICIT_PC != 0 {
                pc = ops[op_idx];
                op_idx += 1;
            }
            let tag = kind & TAG_MASK;
            let op = if tag == TAG_ALU {
                0
            } else {
                let v = ops[op_idx];
                op_idx += 1;
                v
            };
            pc = if tag < TAG_COND || (tag == TAG_COND && kind & FLAG_BIT == 0) {
                pc.checked_add(INSTR_BYTES)
                    .ok_or(RawTraceError::PcOverflow { index: i as u64 })?
            } else {
                op
            };
        }
        let mut words = Vec::with_capacity(ops.len());
        for op in ops {
            push_op(&mut words, op);
        }
        Ok(PackedTrace { start_pc, kinds, ops: words, expect_pc: pc })
    }

    /// The number of instructions stored.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Bytes of heap the packed arrays occupy (capacity, not length —
    /// what the process actually holds resident).
    pub fn resident_bytes(&self) -> u64 {
        (self.kinds.capacity() + self.ops.capacity() * std::mem::size_of::<u32>()) as u64
    }

    /// Trims excess capacity left over from growth during recording.
    pub fn shrink_to_fit(&mut self) {
        self.kinds.shrink_to_fit();
        self.ops.shrink_to_fit();
    }

    /// Opens an allocation-free replay cursor at the start.
    pub fn cursor(&self) -> PackedCursor<'_> {
        PackedCursor { trace: self, pos: 0, op_idx: 0, pc: self.start_pc }
    }
}

impl FromIterator<Instr> for PackedTrace {
    /// Packs the instructions in order, reserving their kind bytes once
    /// from the iterator's lower size bound.
    fn from_iter<T: IntoIterator<Item = Instr>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let mut t = PackedTrace::with_capacity(iter.size_hint().0);
        for i in iter {
            t.push(&i);
        }
        t
    }
}

/// The end of the run of plain-ALU kind bytes (exactly [`TAG_ALU`], which
/// is zero) starting at `from`, capped at `end`. Eight kind bytes are
/// tested per step as one word whose trailing zero bytes are the run, so
/// a short run ends without a data-dependent branch per byte.
#[inline(always)]
fn plain_run_end(kinds: &[u8], from: usize, end: usize) -> usize {
    let mut n = from;
    while n < end {
        let Some(bytes) = kinds.get(n..n + 8) else {
            while n < end && kinds[n] == TAG_ALU {
                n += 1;
            }
            return n;
        };
        let word = u64::from_le_bytes(bytes.try_into().expect("eight bytes"));
        let zeros = (word.trailing_zeros() / 8) as usize;
        n += zeros;
        if zeros < 8 {
            break;
        }
    }
    n.min(end)
}

/// An allocation-free, resumable cursor over a [`PackedTrace`].
///
/// Three words of state: position, operand word index, and the re-derived
/// program counter. `clone()` is a plain copy, so checkpointing a
/// runahead cursor allocates nothing and clones no generator (frames,
/// pools, RNG).
#[derive(Clone, Debug)]
pub struct PackedCursor<'a> {
    trace: &'a PackedTrace,
    pos: usize,
    op_idx: usize,
    pc: u64,
}

impl PackedCursor<'_> {
    /// Instructions decoded so far.
    pub fn position(&self) -> u64 {
        self.pos as u64
    }

    /// Decodes the next instruction into its packed essentials without
    /// materialising an [`Instr`], advancing the cursor — the one
    /// per-instruction decoder of the packed format. Every simulation
    /// loop consumes this form; [`RawStep::to_instr`] recovers the
    /// recorded instruction where a consumer needs it.
    ///
    /// `inline(always)`: this is the grain of every simulation loop; when
    /// it stays a call, the `Option<RawStep>` return travels through
    /// memory on every one of the run's hundreds of millions of
    /// instructions.
    #[inline(always)]
    pub fn next_raw(&mut self) -> Option<RawStep> {
        let kind = *self.trace.kinds.get(self.pos)?;
        let ops = self.trace.ops.as_slice();
        if kind & EXPLICIT_PC != 0 {
            self.pc = read_op(ops, &mut self.op_idx);
        }
        let pc = self.pc;
        let tag = kind & TAG_MASK;
        let op = if tag == TAG_ALU { 0 } else { read_op(ops, &mut self.op_idx) };
        self.pos += 1;
        let step = RawStep { kind, pc, op };
        self.pc = step.next_pc();
        Some(step)
    }

    /// The pc the next decoded instruction would carry, assuming its kind
    /// byte has no [`kindbits::EXPLICIT_PC`] flag (plain-run batching
    /// checks the kind bytes first, which excludes explicit-pc entries).
    #[inline(always)]
    pub fn raw_pc(&self) -> u64 {
        self.pc
    }

    /// The length of the run of *plain* ALU instructions (kind byte
    /// exactly [`kindbits::TAG_ALU`]: no flags, no explicit pc) starting
    /// at the cursor, capped at `max` — the grain-batching probe of the
    /// specialised kernels. Sized eight kind bytes per step, like the warm
    /// walk's runs.
    #[inline(always)]
    pub fn plain_alu_run(&self, max: usize) -> usize {
        let kinds = self.trace.kinds.as_slice();
        let from = self.pos.min(kinds.len());
        let end = from + (kinds.len() - from).min(max);
        plain_run_end(kinds, from, end) - from
    }

    /// Skips `n` instructions previously sized with
    /// [`PackedCursor::plain_alu_run`]: plain ALUs consume no operand
    /// slot and advance the pc sequentially, so the cursor state after
    /// the skip equals `n` calls of [`PackedCursor::next_raw`].
    #[inline(always)]
    pub fn skip_plain(&mut self, n: usize) {
        debug_assert!(self.trace.kinds[self.pos..self.pos + n].iter().all(|&k| k == TAG_ALU));
        self.pos += n;
        self.pc += n as u64 * INSTR_BYTES;
    }

    /// Bounded, resumable functional-warming walk: feeds up to
    /// `max_instrs` instructions into `sink` straight off the packed
    /// arrays — no [`Instr`] is materialised except for branches — and
    /// advances the cursor exactly as decoding them with
    /// [`PackedCursor::next_raw`] would. Returns the number of instructions
    /// walked, which falls short of `max_instrs` only at end of trace.
    ///
    /// Fetch lines are reported on line *transitions within this call*;
    /// the first instruction always reports its line, so a sink that
    /// dedups fetch lines itself (as the engine does) sees the same
    /// sequence a per-instruction walk would.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a power of two.
    pub fn warm_walk_bounded<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        self.walk::<S, true>(max_instrs, line_bytes, sink)
    }

    /// The one functional-warming walk behind
    /// [`PackedCursor::warm_walk_bounded`] (`BRANCHES = true`) and
    /// [`PackedCursor::skip_walk_observed`] (`BRANCHES = false`, no
    /// [`Instr`] is ever materialised).
    ///
    /// The cursor state lives in locals, written back once at the end,
    /// so it stays in registers across the inlined sink calls instead of
    /// being reloaded through `&mut self`. Runs of plain ALUs (kind byte
    /// exactly `TAG_ALU`: no operand, sequential pc) are sized by one
    /// byte sweep and cost only the fetch-line transitions they cross;
    /// sequential pcs enter each line exactly once, so the reported line
    /// sequence is the per-instruction walk's.
    #[inline(always)]
    fn walk<S: WarmSink, const BRANCHES: bool>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        debug_assert!(line_bytes.is_power_of_two());
        let shift = line_bytes.trailing_zeros();
        let kinds = self.trace.kinds.as_slice();
        let ops = self.trace.ops.as_slice();
        let start = self.pos;
        let mut pos = start;
        let mut op_idx = self.op_idx;
        let mut pc = self.pc;
        let end = start + ((kinds.len() - start.min(kinds.len())) as u64).min(max_instrs) as usize;
        let mut last_line = u64::MAX;
        while pos < end {
            let kind = kinds[pos];
            if kind == TAG_ALU {
                let n = plain_run_end(kinds, pos + 1, end);
                let run = (n - pos) as u64;
                let mut line = pc >> shift;
                if line != last_line {
                    sink.warm_fetch_line(line);
                }
                let end_line = (pc + (run - 1) * INSTR_BYTES) >> shift;
                while line < end_line {
                    line += 1;
                    sink.warm_fetch_line(line);
                }
                last_line = end_line;
                pc += run * INSTR_BYTES;
                pos = n;
                continue;
            }
            if kind & EXPLICIT_PC != 0 {
                pc = read_op(ops, &mut op_idx);
            }
            let line = pc >> shift;
            if line != last_line {
                sink.warm_fetch_line(line);
                last_line = line;
            }
            let tag = kind & TAG_MASK;
            if tag == TAG_ALU {
                pc += INSTR_BYTES;
            } else {
                let op = read_op(ops, &mut op_idx);
                if tag == TAG_LOAD {
                    sink.warm_load(pc, op);
                    pc += INSTR_BYTES;
                } else if tag == TAG_STORE {
                    sink.warm_store(op);
                    pc += INSTR_BYTES;
                } else {
                    if BRANCHES {
                        sink.warm_branch(&RawStep { kind, pc, op }.to_instr());
                    }
                    // Branch tags: sequential only for a not-taken
                    // conditional, the target otherwise (as `next_raw`).
                    pc = if tag == TAG_COND && kind & FLAG_BIT == 0 {
                        pc + INSTR_BYTES
                    } else {
                        op
                    };
                }
            }
            pos += 1;
        }
        self.pos = pos;
        self.op_idx = op_idx;
        self.pc = pc;
        (pos - start) as u64
    }

    /// Fast-forward with a memory-touch observer — the learned sampling
    /// mode's skipped-grain walk: advances the cursor past up to
    /// `max_instrs` instructions exactly as [`PackedCursor::next_raw`] would
    /// (so retirement and the grain clock stay exact), reporting fetch
    /// lines (on transitions, as in [`PackedCursor::warm_walk_bounded`])
    /// and load/store addresses to `sink`, but **`warm_branch` is never
    /// called** — no [`Instr`] is materialised, which is where most of a
    /// warming walk's cost lives. The operand words are loaded for cursor
    /// advance anyway, so the reporting adds only the sink calls
    /// themselves. Observers that need branch outcomes must use the full
    /// warming walk. Returns the number of instructions walked.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line_bytes` is not a power of two.
    pub fn skip_walk_observed<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        self.walk::<S, false>(max_instrs, line_bytes, sink)
    }
}

/// One event's packed streams: the actual trace, and — when the event's
/// pre-execution diverges — the speculative tail from the divergence
/// point onward. The common prefix is stored once, in `actual`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PackedEvent {
    actual: PackedTrace,
    /// Instruction index at which a speculative view leaves the actual
    /// path, recorded at materialisation time. `None` for the > 98 % of
    /// events whose pre-execution matches reality.
    diverge_at: Option<u64>,
    /// The speculative stream from `diverge_at` onward (empty when the
    /// event never diverges within its budget).
    spec_tail: PackedTrace,
}

impl PackedEvent {
    /// Assembles a packed event. `spec_tail` must hold the speculative
    /// stream's instructions from `diverge_at` onward (callers record it
    /// by skipping `diverge_at` instructions of the speculative stream).
    pub fn new(actual: PackedTrace, diverge_at: Option<u64>, spec_tail: PackedTrace) -> Self {
        PackedEvent { actual, diverge_at, spec_tail }
    }

    /// The event's actual (authoritative) trace.
    pub fn actual(&self) -> &PackedTrace {
        &self.actual
    }

    /// The recorded divergence point, if any.
    pub fn diverge_at(&self) -> Option<u64> {
        self.diverge_at
    }

    /// The recorded speculative tail (empty when the event never
    /// diverges within its budget).
    pub fn spec_tail(&self) -> &PackedTrace {
        &self.spec_tail
    }

    /// Opens a cursor over the actual stream.
    pub fn actual_cursor(&self) -> EventCursor<'_> {
        EventCursor { event: self, seg: self.actual.cursor(), base: 0, speculative: false, in_tail: false }
    }

    /// Opens a cursor over the speculative view: the actual arrays up to
    /// the divergence point, then the speculative tail.
    pub fn speculative_cursor(&self) -> EventCursor<'_> {
        EventCursor { event: self, seg: self.actual.cursor(), base: 0, speculative: true, in_tail: false }
    }

    /// Bytes of heap this event's packed arrays occupy.
    pub fn resident_bytes(&self) -> u64 {
        self.actual.resident_bytes() + self.spec_tail.resident_bytes()
    }
}

/// A resumable cursor over one [`PackedEvent`], in either the actual or
/// the speculative view. Forking (for runahead) copies the cursor; no
/// event state is duplicated.
#[derive(Clone, Debug)]
pub struct EventCursor<'a> {
    event: &'a PackedEvent,
    seg: PackedCursor<'a>,
    /// Instructions emitted before the current segment (0 while reading
    /// the actual arrays; the divergence point once in the tail).
    base: u64,
    speculative: bool,
    in_tail: bool,
}

impl EventCursor<'_> {
    /// Decodes the next instruction of the event's view (see
    /// [`PackedCursor::next_raw`]). A speculative cursor switches to the
    /// recorded tail at the divergence point.
    #[inline(always)]
    pub fn next_raw(&mut self) -> Option<RawStep> {
        if self.speculative && !self.in_tail && Some(self.seg.position()) == self.event.diverge_at
        {
            // The pre-execution veers off the actual path here; continue
            // in the recorded speculative tail.
            self.base = self.seg.position();
            self.seg = self.event.spec_tail.cursor();
            self.in_tail = true;
        }
        self.seg.next_raw()
    }

    /// Instructions decoded so far (the "instruction count from the
    /// beginning of the event" that list entries timestamp).
    #[inline]
    pub fn executed(&self) -> u64 {
        self.base + self.seg.position()
    }

    /// See [`PackedCursor::raw_pc`].
    #[inline(always)]
    pub fn raw_pc(&self) -> u64 {
        self.seg.raw_pc()
    }

    /// Bounded, resumable functional-warming walk over the event: see
    /// [`PackedCursor::warm_walk_bounded`]. A speculative cursor switches
    /// to its tail at the divergence point exactly as
    /// [`EventCursor::next_raw`] would. Fetch lines are reported on
    /// transitions within one call, first instruction included.
    pub fn warm_region<S: WarmSink>(&mut self, max_instrs: u64, line_bytes: u64, sink: &mut S) -> u64 {
        self.walk_segments(max_instrs, |seg, budget| seg.warm_walk_bounded(budget, line_bytes, sink))
    }

    /// Fast-forward with a memory-touch observer over the event: see
    /// [`PackedCursor::skip_walk_observed`] (no `warm_branch` calls).
    pub fn skip_region_observed<S: WarmSink>(
        &mut self,
        max_instrs: u64,
        line_bytes: u64,
        sink: &mut S,
    ) -> u64 {
        self.walk_segments(max_instrs, |seg, budget| seg.skip_walk_observed(budget, line_bytes, sink))
    }

    /// Drives a bulk segment walk `walk(segment, budget)` for up to
    /// `max_instrs` instructions, splitting the budget at the divergence
    /// point so a speculative cursor switches to its tail exactly where
    /// [`EventCursor::next_raw`] would. `walk` returns the number of
    /// instructions it consumed, short of `budget` only at segment end.
    #[inline(always)]
    fn walk_segments(
        &mut self,
        max_instrs: u64,
        mut walk: impl FnMut(&mut PackedCursor<'_>, u64) -> u64,
    ) -> u64 {
        let mut walked = 0u64;
        while walked < max_instrs {
            let mut budget = max_instrs - walked;
            if self.speculative && !self.in_tail {
                if let Some(d) = self.event.diverge_at {
                    let to_diverge = d - self.seg.position();
                    if to_diverge == 0 {
                        self.base = self.seg.position();
                        self.seg = self.event.spec_tail.cursor();
                        self.in_tail = true;
                    } else {
                        budget = budget.min(to_diverge);
                    }
                }
            }
            let n = walk(&mut self.seg, budget);
            walked += n;
            if n < budget {
                break;
            }
        }
        walked
    }

    /// See [`PackedCursor::plain_alu_run`]; a speculative cursor's run is
    /// additionally clipped at the divergence point so batching never
    /// skips the segment switch.
    #[inline(always)]
    pub fn plain_run(&self, max: usize) -> usize {
        if self.speculative && !self.in_tail {
            if let Some(d) = self.event.diverge_at {
                let to_diverge = (d - self.seg.position()) as usize;
                return self.seg.plain_alu_run(max.min(to_diverge));
            }
        }
        self.seg.plain_alu_run(max)
    }

    /// See [`PackedCursor::skip_plain`].
    #[inline(always)]
    pub fn skip_plain(&mut self, n: usize) {
        self.seg.skip_plain(n);
    }
}

/// Every event of one workload, packed. Simulations share one arena
/// read-only across all configurations and worker threads.
#[derive(Clone, Debug, Default)]
pub struct TraceArena {
    events: Vec<PackedEvent>,
}

impl TraceArena {
    /// Wraps materialised events (indexed by event id).
    pub fn new(events: Vec<PackedEvent>) -> Self {
        TraceArena { events }
    }

    /// The number of events stored.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the arena holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The packed streams of event `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn event(&self, idx: usize) -> &PackedEvent {
        &self.events[idx]
    }

    /// Total instructions stored across all actual streams.
    pub fn total_instructions(&self) -> u64 {
        self.events.iter().map(|e| e.actual.len() as u64).sum()
    }

    /// Bytes of heap the whole arena occupies.
    pub fn resident_bytes(&self) -> u64 {
        self.events.iter().map(PackedEvent::resident_bytes).sum()
    }
}

/// A [`Workload`] that replays a shared [`TraceArena`] instead of
/// regenerating streams: the decode-once, replay-many form of a
/// generated workload.
///
/// Opening a stream is O(1) and allocation-free apart from the trait
/// object box; the arena is behind an [`Arc`] so clones of the workload
/// (e.g. across worker threads) share the instruction store.
#[derive(Clone, Debug)]
pub struct PackedWorkload {
    records: Vec<EventRecord>,
    arena: Arc<TraceArena>,
    total_instructions: u64,
    /// Sidecars built so far (see [`PackedWorkload::sidecar`]), shared
    /// by clones.
    sidecars: Arc<Mutex<Vec<Sidecar>>>,
}

/// What a sidecar of a [`PackedWorkload`] is keyed by: its kind, and the
/// settings that decide the stream it was built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SidecarKey {
    /// The DCU prefetcher's trigger bits: one decision bit per retired
    /// data access.
    DcuTriggers {
        /// Cache line size in bytes: data addresses map to lines by it.
        line_bytes: u64,
        /// Instructions of the looper prologue a run retires before each
        /// event (its loads come first in the event's data stream).
        looper_instrs: u32,
    },
    /// The branch predictor's outcomes: two bits per retired branch.
    BranchOutcomes {
        /// Entries of the predictor's global, local, loop, BTB, indirect
        /// BTB and return-stack structures, in that order.
        tables: [u64; 6],
        /// Instructions of the looper prologue a run retires before each
        /// event.
        looper_instrs: u32,
    },
}

/// One memoised sidecar and what it cost to build.
struct Sidecar {
    key: SidecarKey,
    words: Arc<[u64]>,
    build_seconds: f64,
}

impl std::fmt::Debug for Sidecar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sidecar")
            .field("key", &self.key)
            .field("words", &self.words.len())
            .finish_non_exhaustive()
    }
}

impl PackedWorkload {
    /// Builds a packed workload from its event metadata and arena.
    ///
    /// # Panics
    ///
    /// Panics if `records` and `arena` disagree on the event count.
    pub fn new(records: Vec<EventRecord>, arena: Arc<TraceArena>, total_instructions: u64) -> Self {
        assert_eq!(records.len(), arena.len(), "one packed event per record");
        PackedWorkload { records, arena, total_instructions, sidecars: Arc::default() }
    }

    /// Packs any [`Workload`] — the boundary every hand-built workload
    /// crosses on its way to the simulator. Each event's actual stream is
    /// drained into its trace; the speculative stream is then walked in
    /// lockstep with it, and the first index where the two differ (an
    /// instruction that differs, or one stream ending before the other)
    /// becomes the event's divergence point, with the rest of the
    /// speculative stream as its tail. Events whose streams agree to the
    /// end store no tail. Cursors over the result replay both source
    /// streams exactly.
    ///
    /// # Panics
    ///
    /// Panics if an event's id is not its position in
    /// [`Workload::events`] (cursors are opened by id).
    pub fn pack(workload: &dyn Workload) -> Self {
        let records = workload.events();
        let events = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                assert_eq!(r.id.index(), i as u64, "event ids must index the event list");
                let mut actual: PackedTrace = workload.actual_stream(r.id).collect();
                actual.shrink_to_fit();
                let mut spec = workload.speculative_stream(r.id).peekable();
                let mut replay = actual.cursor();
                let mut at = 0u64;
                while let Some(step) = replay.next_raw() {
                    if spec.next_if_eq(&step.to_instr()).is_none() {
                        break;
                    }
                    at += 1;
                }
                let mut tail: PackedTrace = spec.collect();
                tail.shrink_to_fit();
                let diverge_at = (at < actual.len() as u64 || !tail.is_empty()).then_some(at);
                PackedEvent::new(actual, diverge_at, tail)
            })
            .collect();
        PackedWorkload::new(
            records.to_vec(),
            Arc::new(TraceArena::new(events)),
            workload.approx_total_instructions(),
        )
    }

    /// The sidecar for `key`: words of facts about a run over this
    /// workload that no machine setting outside the key changes, in run
    /// order. Built by `build` on first use for `key` (lazily, never when
    /// the workload is set up) and memoised next to the arena, shared by
    /// every thread and every clone; it is dropped with the workload.
    ///
    /// What the words mean is the builder's business: `esp-core` records
    /// the DCU prefetcher's decisions and the branch predictor's outcomes
    /// on `esp_types` decision tapes (1 and 2 bits per code), so the
    /// configurations of a matrix that would compute them alike replay
    /// one build. Concurrent first callers wait for a single build.
    pub fn sidecar(&self, key: SidecarKey, build: impl FnOnce(&Self) -> Vec<u64>) -> Arc<[u64]> {
        let mut built = self.sidecars.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(s) = built.iter().find(|s| s.key == key) {
            return s.words.clone();
        }
        let t = std::time::Instant::now();
        let words: Arc<[u64]> = build(self).into();
        let build_seconds = t.elapsed().as_secs_f64();
        built.push(Sidecar { key, words: words.clone(), build_seconds });
        words
    }

    /// `(bytes, build seconds)` of every sidecar built so far whose key
    /// `select` accepts.
    pub fn sidecar_footprint(&self, select: impl Fn(&SidecarKey) -> bool) -> (u64, f64) {
        let built = self.sidecars.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        built.iter().filter(|s| select(&s.key)).fold((0, 0.0), |(bytes, secs), s| {
            (bytes + 8 * s.words.len() as u64, secs + s.build_seconds)
        })
    }

    /// The shared instruction store.
    pub fn arena(&self) -> &Arc<TraceArena> {
        &self.arena
    }

    /// Bytes of heap the shared arena occupies.
    pub fn resident_bytes(&self) -> u64 {
        self.arena.resident_bytes()
    }
}

impl Workload for PackedWorkload {
    fn events(&self) -> &[EventRecord] {
        &self.records
    }

    fn actual_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
        Box::new(instrs(self.arena.event(id.index() as usize).actual_cursor()))
    }

    fn speculative_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
        Box::new(instrs(self.arena.event(id.index() as usize).speculative_cursor()))
    }

    fn approx_total_instructions(&self) -> u64 {
        self.total_instructions
    }
}

/// The recorded instructions a cursor replays, as a plain iterator.
fn instrs(mut cursor: EventCursor<'_>) -> impl Iterator<Item = Instr> + '_ {
    std::iter::from_fn(move || cursor.next_raw().map(|step| step.to_instr()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes every step `next` yields back into instructions.
    fn drain(mut next: impl FnMut() -> Option<RawStep>) -> Vec<Instr> {
        std::iter::from_fn(|| next().map(|step| step.to_instr())).collect()
    }

    fn a(v: u64) -> Addr {
        Addr::new(v)
    }

    /// A control-flow-consistent stream exercising every kind.
    fn consistent() -> Vec<Instr> {
        vec![
            Instr::alu(a(0x1000)),
            Instr::load(a(0x1004), a(0x8000_0000), true),
            Instr::store(a(0x1008), a(0x7fff_0008)),
            Instr::cond_branch(a(0x100c), false, a(0x2000)),
            Instr::cond_branch(a(0x1010), true, a(0x2000)),
            Instr::indirect(a(0x2000), a(0x3000)),
            Instr::indirect_call(a(0x3000), a(0x4000)),
            Instr::call(a(0x4000), a(0x5000)),
            Instr::ret(a(0x5000), a(0x4004)),
            Instr::load(a(0x4004), a(0xdead_bee8), false),
        ]
    }

    #[test]
    fn sidecars_are_built_once_per_key_and_shared_by_clones() {
        let packed = PackedWorkload::new(Vec::new(), Arc::new(TraceArena::new(Vec::new())), 0);
        let key = SidecarKey::DcuTriggers { line_bytes: 64, looper_instrs: 70 };
        let mut builds = 0;
        let a = packed.sidecar(key, |_| {
            builds += 1;
            vec![3, 0b101]
        });
        let b = packed.clone().sidecar(key, |_| unreachable!("memoised"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(builds, 1);
        let other = SidecarKey::DcuTriggers { line_bytes: 32, looper_instrs: 70 };
        let c = packed.sidecar(other, |_| vec![0]);
        assert_eq!(&*c, &[0]);
        let outcomes = SidecarKey::BranchOutcomes { tables: [1; 6], looper_instrs: 70 };
        let d = packed.sidecar(outcomes, |_| vec![1, 2, 3, 4]);
        assert_eq!(&*d, &[1, 2, 3, 4]);
        let dcu = |k: &SidecarKey| matches!(k, SidecarKey::DcuTriggers { .. });
        assert_eq!(packed.sidecar_footprint(dcu).0, 24);
        assert_eq!(packed.sidecar_footprint(|k| !dcu(k)).0, 32);
        assert!(format!("{packed:?}").contains("words: 2"), "Debug shows sizes, not bits");
    }

    /// A stream with pc discontinuities (as an arbitrary external trace
    /// may have).
    fn discontinuous() -> Vec<Instr> {
        vec![
            Instr::alu(a(0x1000)),
            Instr::alu(a(0x9000)),
            Instr::load(a(0x9004), a(0x100), false),
            Instr::alu(a(0x40)),
            Instr::ret(a(0x44), a(0x48)),
            Instr::alu(a(0x100)),
        ]
    }

    #[test]
    fn roundtrip_consistent_stream() {
        let v = consistent();
        let p = PackedTrace::from_instrs(&v);
        assert_eq!(p.len(), v.len());
        let mut cur = p.cursor();
        assert_eq!(drain(|| cur.next_raw()), v);
        // No discontinuities: every operand slot is a real operand (9
        // non-ALU instructions), no explicit pcs.
        assert_eq!(p.ops.len(), 9);
    }

    #[test]
    fn roundtrip_discontinuous_stream() {
        let v = discontinuous();
        let p = PackedTrace::from_instrs(&v);
        let mut cur = p.cursor();
        assert_eq!(drain(|| cur.next_raw()), v);
        // 2 real operands + 4 explicit pcs (0x9000, 0x40, and 0x100
        // after the return... count via flags instead).
        let explicit = p.kinds.iter().filter(|&&k| k & EXPLICIT_PC != 0).count();
        assert!(explicit >= 3, "discontinuities must be flagged");
    }

    #[test]
    fn from_instr_inverts_to_instr_for_every_tag_and_flag() {
        for tag in 0..8u8 {
            for flag in [false, true] {
                for v in [0, 1 << 31, u64::from(u32::MAX), u64::MAX - 8] {
                    // The flag bit means something only to loads
                    // (`chained`) and conditional branches (`taken`); an
                    // ALU has no operand.
                    let keeps_flag = flag && (tag == TAG_LOAD || tag == TAG_COND);
                    let kind = if keeps_flag { tag | FLAG_BIT } else { tag };
                    let op = if tag == TAG_ALU { 0 } else { v };
                    let rs = RawStep { kind, pc: v, op };
                    let i = rs.to_instr();
                    assert_eq!(RawStep::from_instr(&i), rs);
                    assert_eq!(RawStep::from_instr(&i).to_instr(), i);
                    // A meaningless flag bit or ALU operand is dropped.
                    let noisy = if flag { tag | FLAG_BIT } else { tag };
                    let noisy = RawStep { kind: noisy, pc: v, op: v };
                    assert_eq!(RawStep::from_instr(&noisy.to_instr()), rs);
                }
            }
        }
    }

    #[test]
    fn push_packs_a_mixed_stream_to_pinned_bytes() {
        let v = vec![
            Instr::alu(a(0x1000)),
            Instr::load(a(0x1004), a(0x8000_0000), true),
            Instr::store(a(0x9000), a(u64::MAX - 8)),
            Instr::cond_branch(a(0x9004), true, a(0x2000)),
            Instr::cond_branch(a(0x2000), false, a(0x3000)),
            Instr::indirect(a(0x2004), a(0x3000)),
            Instr::indirect_call(a(0x40), a(0x4000)),
            Instr::call(a(0x4000), a(0x5000)),
            Instr::ret(a(0x5000), a(u64::from(u32::MAX))),
            Instr::alu(a(u64::from(u32::MAX))),
            Instr::alu(a(0x100)),
        ];
        let p = PackedTrace::from_instrs(&v);
        assert_eq!(p.start_pc(), 0x1000);
        assert_eq!(
            p.kind_bytes(),
            [0x00, 0x09, 0x12, 0x0b, 0x03, 0x04, 0x15, 0x06, 0x07, 0x00, 0x10]
        );
        assert_eq!(
            p.op_words().collect::<Vec<_>>(),
            [
                0x8000_0000,
                0x9000,
                u64::MAX - 8,
                0x2000,
                0x3000,
                0x3000,
                0x40,
                0x4000,
                0x5000,
                u64::from(u32::MAX),
                0x100
            ]
        );
        let mut cur = p.cursor();
        assert_eq!(drain(|| cur.next_raw()), v);
    }

    #[test]
    fn packing_is_compact() {
        let v = consistent();
        let p = PackedTrace::from_instrs(&v);
        let fat = std::mem::size_of::<Instr>() * v.len();
        assert!(
            (p.kinds.len() + p.ops.len() * 4) < fat,
            "packed {} !< fat {fat}",
            p.kinds.len() + p.ops.len() * 4
        );
        assert!(p.resident_bytes() > 0);
    }

    #[test]
    fn cursor_decodes_incrementally() {
        let v = consistent();
        let p = PackedTrace::from_instrs(&v);
        let mut cursor = p.cursor();
        for (k, want) in v.iter().enumerate() {
            assert_eq!(cursor.position(), k as u64);
            assert_eq!(cursor.next_raw().map(|step| step.to_instr()).as_ref(), Some(want));
        }
        assert_eq!(cursor.next_raw(), None);
        assert_eq!(cursor.position(), v.len() as u64);
    }

    /// Runahead copies the current cursor with `clone()` at the blocking
    /// load; the copy must continue exactly where the original stands.
    #[test]
    fn clone_resumes_identically() {
        let p = PackedTrace::from_instrs(&consistent());
        let mut cur = p.cursor();
        cur.next_raw();
        cur.next_raw();
        let mut copy = cur.clone();
        assert_eq!(copy.position(), cur.position());
        let rest_copy = drain(|| copy.next_raw());
        let rest_original = drain(|| cur.next_raw());
        assert_eq!(rest_copy, rest_original);
    }

    #[test]
    fn from_iterator_packs_everything() {
        let v = consistent();
        let p: PackedTrace = v.iter().copied().collect();
        assert_eq!(p, PackedTrace::from_instrs(&v));
    }

    #[test]
    fn empty_trace_yields_nothing() {
        let p = PackedTrace::new();
        assert!(p.is_empty());
        assert_eq!(p.cursor().next_raw(), None);
    }

    fn diverging_event() -> (PackedEvent, Vec<Instr>, Vec<Instr>) {
        let actual = consistent();
        // The speculative view matches for 4 instructions, then veers.
        let mut spec = actual[..4].to_vec();
        spec.push(Instr::alu(a(0x8888)));
        spec.push(Instr::load(a(0x888c), a(0x42_0000), false));
        let tail = PackedTrace::from_instrs(&spec[4..]);
        let ev = PackedEvent::new(PackedTrace::from_instrs(&actual), Some(4), tail);
        (ev, actual, spec)
    }

    #[test]
    fn event_cursor_actual_ignores_divergence() {
        let (ev, actual, _) = diverging_event();
        let mut cur = ev.actual_cursor();
        assert_eq!(drain(|| cur.next_raw()), actual);
    }

    #[test]
    fn event_cursor_speculative_switches_at_divergence() {
        let (ev, actual, spec) = diverging_event();
        let mut cur = ev.speculative_cursor();
        let got = drain(|| cur.next_raw());
        assert_eq!(got, spec);
        assert_eq!(got[..4], actual[..4], "shared prefix reads the actual arrays");
        assert_eq!(cur.executed(), spec.len() as u64);
    }

    #[test]
    fn event_cursor_clone_across_divergence() {
        let (ev, _, spec) = diverging_event();
        let mut cur = ev.speculative_cursor();
        for _ in 0..3 {
            cur.next_raw();
        }
        let mut copy = cur.clone();
        let rest = drain(|| copy.next_raw());
        assert_eq!(rest, spec[3..]);
        assert_eq!(drain(|| cur.next_raw()), spec[3..], "the original is untouched");
    }

    #[test]
    fn no_divergence_event_replays_actual_in_both_views() {
        let actual = consistent();
        let ev = PackedEvent::new(PackedTrace::from_instrs(&actual), None, PackedTrace::new());
        let (mut a, mut s) = (ev.actual_cursor(), ev.speculative_cursor());
        assert_eq!(drain(|| a.next_raw()), actual);
        assert_eq!(drain(|| s.next_raw()), actual);
    }

    #[test]
    fn divergence_beyond_budget_never_triggers() {
        let actual = consistent();
        let ev =
            PackedEvent::new(PackedTrace::from_instrs(&actual), Some(10_000), PackedTrace::new());
        let mut cur = ev.speculative_cursor();
        assert_eq!(drain(|| cur.next_raw()), actual);
    }

    #[derive(Default)]
    struct RecordingSink {
        fetches: Vec<u64>,
        loads: Vec<(u64, u64)>,
        stores: Vec<u64>,
        branches: Vec<Instr>,
    }

    impl WarmSink for RecordingSink {
        fn warm_fetch_line(&mut self, line: u64) {
            self.fetches.push(line);
        }
        fn warm_load(&mut self, pc: u64, addr: u64) {
            self.loads.push((pc, addr));
        }
        fn warm_store(&mut self, addr: u64) {
            self.stores.push(addr);
        }
        fn warm_branch(&mut self, instr: &Instr) {
            self.branches.push(*instr);
        }
    }

    #[test]
    fn warm_walk_matches_cursor_replay() {
        for v in [consistent(), discontinuous(), wide_operands()] {
            let p = PackedTrace::from_instrs(&v);
            let mut sink = RecordingSink::default();
            assert_eq!(p.cursor().warm_walk_bounded(u64::MAX, 64, &mut sink), v.len() as u64);
            let mut want = RecordingSink::default();
            let mut last_line = u64::MAX;
            for i in &v {
                let line = i.pc.as_u64() / 64;
                if line != last_line {
                    want.fetches.push(line);
                    last_line = line;
                }
                match i.kind {
                    InstrKind::Alu => {}
                    InstrKind::Load { addr, .. } => {
                        want.loads.push((i.pc.as_u64(), addr.as_u64()))
                    }
                    InstrKind::Store { addr } => want.stores.push(addr.as_u64()),
                    _ => want.branches.push(*i),
                }
            }
            assert_eq!(sink.fetches, want.fetches);
            assert_eq!(sink.loads, want.loads);
            assert_eq!(sink.stores, want.stores);
            assert_eq!(sink.branches, want.branches);
        }
    }

    #[test]
    fn plain_run_end_matches_a_byte_scan() {
        // Runs of every length up to 20 at every offset, ending in a
        // non-plain byte, at the slice tail, or at a cap short of either.
        for len in 0..20 {
            for lead in 0..9 {
                for tail in [0usize, 1, 9] {
                    let mut kinds = vec![TAG_LOAD; lead];
                    kinds.extend(std::iter::repeat_n(TAG_ALU, len));
                    kinds.extend(std::iter::repeat_n(TAG_STORE, tail));
                    for end in lead..=kinds.len() {
                        let want = (lead..end).find(|&i| kinds[i] != TAG_ALU).unwrap_or(end);
                        assert_eq!(plain_run_end(&kinds, lead, end), want, "{kinds:?} from {lead} to {end}");
                    }
                }
            }
        }
    }

    #[test]
    fn skip_walk_observed_matches_warm_walk_touches_sans_branches() {
        // The observed fast-forward must report the same fetch lines,
        // loads, and stores as the full warming walk — branches are the
        // one documented omission — and land the cursor identically.
        for v in [consistent(), discontinuous(), wide_operands()] {
            let p = PackedTrace::from_instrs(&v);
            let mut warm = RecordingSink::default();
            p.cursor().warm_walk_bounded(u64::MAX, 64, &mut warm);
            for k in 0..=v.len() {
                let mut sink = RecordingSink::default();
                let mut cur = p.cursor();
                assert_eq!(cur.skip_walk_observed(k as u64, 64, &mut sink), k as u64);
                assert_eq!(drain(|| cur.next_raw()), v[k..]);
                assert!(sink.branches.is_empty(), "observed walk must not decode branches");
                assert_eq!(sink.loads, warm.loads[..sink.loads.len()]);
                assert_eq!(sink.stores, warm.stores[..sink.stores.len()]);
            }
            // Over the whole trace the memory touches agree exactly.
            let mut sink = RecordingSink::default();
            let mut cur = p.cursor();
            assert_eq!(cur.skip_walk_observed(u64::MAX, 64, &mut sink), v.len() as u64);
            assert_eq!(sink.fetches, warm.fetches);
            assert_eq!(sink.loads, warm.loads);
            assert_eq!(sink.stores, warm.stores);
        }
    }

    /// Operand values around the 32-bit word boundary: the escape word
    /// itself, its neighbours, and values that need the high half.
    const WIDE: [u64; 6] = [0, 1 << 31, u32::MAX as u64 - 1, u32::MAX as u64, 1 << 32, u64::MAX - 8];

    /// A stream using every [`WIDE`] value as a load and store address, a
    /// taken-branch target (followed by a plain ALU run at that pc), and
    /// an explicit pc.
    fn wide_operands() -> Vec<Instr> {
        let mut v = Vec::new();
        for (k, &w) in WIDE.iter().enumerate() {
            let base = 0x1000 + 0x100 * k as u64;
            v.extend([
                Instr::alu(a(base)),
                Instr::load(a(base + 4), a(w), false),
                Instr::store(a(base + 8), a(w)),
                Instr::cond_branch(a(base + 12), true, a(w)),
                Instr::alu(a(w)),
                Instr::alu(a(w + 4)),
                Instr::ret(a(w + 8), a(base + 0x80)),
                // Not `base + 0x80`: an explicit pc operand.
                Instr::alu(a(w)),
                Instr::indirect_call(a(w + 4), a(base + 0x40)),
            ]);
        }
        v
    }

    /// The logical operand words of `v` in stream order: an explicit pc
    /// wherever control flow does not lead to the instruction, then its
    /// operand.
    fn logical_ops(v: &[Instr]) -> Vec<u64> {
        let mut want = Vec::new();
        for (k, i) in v.iter().enumerate() {
            if k > 0 && v[k - 1].next_pc() != i.pc {
                want.push(i.pc.as_u64());
            }
            match i.kind {
                InstrKind::Alu => {}
                InstrKind::Load { addr, .. } | InstrKind::Store { addr } => want.push(addr.as_u64()),
                InstrKind::CondBranch { target, .. }
                | InstrKind::IndirectBranch { target }
                | InstrKind::IndirectCall { target }
                | InstrKind::Call { target }
                | InstrKind::Return { target } => want.push(target.as_u64()),
            }
        }
        want
    }

    #[test]
    fn wide_operands_replay_through_every_decoder() {
        let v = wide_operands();
        let p = PackedTrace::from_instrs(&v);
        let want = logical_ops(&v);
        assert!(WIDE.iter().all(|w| want.contains(w)));
        assert_eq!(p.op_words().collect::<Vec<_>>(), want);
        // Operands of `u32::MAX` and above take three words, all others one.
        let wide = want.iter().filter(|&&w| w >= u64::from(u32::MAX)).count();
        assert!(wide > 0);
        assert_eq!(p.ops.len(), want.len() + 2 * wide);

        let mut cur = p.cursor();
        assert_eq!(drain(|| cur.next_raw()), v);

        // Plain ALU runs sized and skipped at every pc, wide ones included.
        let mut cur = p.cursor();
        let (mut i, mut skipped_wide) = (0, false);
        while i < v.len() {
            let n = cur.plain_alu_run(usize::MAX);
            if n > 0 {
                assert!(v[i..i + n].iter().all(|x| x.kind == InstrKind::Alu), "run at {i}");
                assert_eq!(cur.raw_pc(), v[i].pc.as_u64(), "run at {i}");
                skipped_wide |= v[i].pc.as_u64() >= 1 << 32;
                cur.skip_plain(n);
                i += n;
            } else {
                assert_eq!(cur.next_raw().map(|step| step.to_instr()), Some(v[i]), "instr {i}");
                i += 1;
            }
        }
        assert!(skipped_wide, "a plain run at a pc above 32 bits");
        assert_eq!(cur.next_raw(), None);

        let q = PackedTrace::from_raw_parts(p.start_pc(), p.kind_bytes().to_vec(), want)
            .expect("logical words of a built trace validate");
        assert_eq!(p, q);
    }

    #[test]
    fn wide_operands_roundtrip_through_espt_byte_for_byte() {
        use crate::espt::{read, write, TraceMeta};
        let v = wide_operands();
        // The speculative view leaves the actual path at the first
        // wide branch target.
        let tail = PackedTrace::from_instrs(&v[4..]);
        let event = PackedEvent::new(PackedTrace::from_instrs(&v), Some(4), tail);
        let record = EventRecord {
            id: EventId::new(0),
            kind: esp_types::EventKindId::new(0),
            handler_pc: a(0x1000),
            arg_addr: a(u64::MAX - 8),
            approx_len: v.len() as u64,
            post_time: esp_types::Cycle::ZERO,
            order_mispredicted: false,
        };
        let w = PackedWorkload::new(vec![record], Arc::new(TraceArena::new(vec![event])), v.len() as u64);
        let meta = TraceMeta { profile: "wide".into(), scale: 1, seed: 2 };
        let mut bytes = Vec::new();
        write(&mut bytes, &meta, &w).unwrap();
        // The file stores logical 64-bit words, never the escape encoding.
        let top = (u64::MAX - 8).to_le_bytes();
        assert!(bytes.windows(8).any(|b| b == top));
        let (m, decoded) = read(&bytes[..]).unwrap();
        assert_eq!(decoded.arena().event(0), w.arena().event(0));
        assert_eq!(decoded.speculative_stream(EventId::new(0)).collect::<Vec<_>>()[4..], v[4..]);
        let mut again = Vec::new();
        write(&mut again, &m, &decoded).unwrap();
        assert_eq!(bytes, again);
    }

    #[test]
    fn raw_parts_roundtrip_rebuilds_equal_traces() {
        for v in [consistent(), discontinuous(), wide_operands(), Vec::new()] {
            let p = PackedTrace::from_instrs(&v);
            let q = PackedTrace::from_raw_parts(
                p.start_pc(),
                p.kind_bytes().to_vec(),
                p.op_words().collect(),
            )
            .expect("serialised arrays of a built trace must validate");
            // Derived PartialEq covers expect_pc: the validation walk
            // must land on the same final pc the builder recorded.
            assert_eq!(p, q);
            let mut cur = q.cursor();
            assert_eq!(drain(|| cur.next_raw()), v);
        }
    }

    #[test]
    fn raw_parts_rejects_structural_defects() {
        let p = PackedTrace::from_instrs(&consistent());
        let (pc, kinds, ops) = (p.start_pc(), p.kind_bytes().to_vec(), p.op_words().collect::<Vec<_>>());

        let mut reserved = kinds.clone();
        reserved[0] |= 0b0010_0000;
        assert!(matches!(
            PackedTrace::from_raw_parts(pc, reserved, ops.clone()),
            Err(RawTraceError::ReservedKindBits { index: 0, .. })
        ));

        let mut short = ops.clone();
        short.pop();
        assert!(matches!(
            PackedTrace::from_raw_parts(pc, kinds.clone(), short),
            Err(RawTraceError::MissingOperands { .. })
        ));

        let mut long = ops.clone();
        long.push(7);
        assert!(matches!(
            PackedTrace::from_raw_parts(pc, kinds.clone(), long),
            Err(RawTraceError::ExtraOperands { .. })
        ));

        // An ALU at the top of the address space cannot advance.
        assert!(matches!(
            PackedTrace::from_raw_parts(u64::MAX - 1, vec![TAG_ALU], vec![]),
            Err(RawTraceError::PcOverflow { index: 0 })
        ));
    }

    #[test]
    fn arena_and_workload_accessors() {
        let (ev, actual, _) = diverging_event();
        let arena = Arc::new(TraceArena::new(vec![ev]));
        assert_eq!(arena.len(), 1);
        assert!(!arena.is_empty());
        assert_eq!(arena.total_instructions(), actual.len() as u64);
        assert!(arena.resident_bytes() > 0);
        let record = EventRecord {
            id: EventId::new(0),
            kind: esp_types::EventKindId::new(0),
            handler_pc: a(0x1000),
            arg_addr: a(0x8000_0000),
            approx_len: actual.len() as u64,
            post_time: esp_types::Cycle::ZERO,
            order_mispredicted: false,
        };
        let w = PackedWorkload::new(vec![record], arena, actual.len() as u64);
        assert_eq!(w.events().len(), 1);
        assert_eq!(w.approx_total_instructions(), actual.len() as u64);
        assert!(w.resident_bytes() > 0);
        assert_eq!(w.actual_stream(EventId::new(0)).collect::<Vec<_>>(), actual);
        assert_eq!(w.speculative_stream(EventId::new(0)).count(), 4 + 2, "divergence prefix plus recorded tail");
    }

    /// A hand-built workload: one `(actual, speculative)` stream pair per
    /// event.
    struct Pairs(Vec<EventRecord>, Vec<(Vec<Instr>, Vec<Instr>)>);

    impl Workload for Pairs {
        fn events(&self) -> &[EventRecord] {
            &self.0
        }
        fn actual_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
            Box::new(self.1[id.index() as usize].0.iter().copied())
        }
        fn speculative_stream(&self, id: EventId) -> Box<dyn Iterator<Item = Instr> + '_> {
            Box::new(self.1[id.index() as usize].1.iter().copied())
        }
    }

    fn pairs(streams: Vec<(Vec<Instr>, Vec<Instr>)>) -> Pairs {
        let records = (0..streams.len() as u64)
            .map(|i| EventRecord {
                id: EventId::new(i),
                kind: esp_types::EventKindId::new(0),
                handler_pc: a(0x1000),
                arg_addr: a(0x8000_0000),
                approx_len: streams[i as usize].0.len() as u64,
                post_time: esp_types::Cycle::ZERO,
                order_mispredicted: false,
            })
            .collect();
        Pairs(records, streams)
    }

    #[test]
    fn pack_replays_both_streams_and_finds_the_first_difference() {
        let actual = consistent();
        let mut veers = actual[..3].to_vec();
        veers.push(Instr::alu(a(0x7777)));
        veers.push(Instr::store(a(0x777b), a(0x99_0000)));
        let mut longer = actual.clone();
        longer.push(Instr::alu(a(0x4008)));
        longer.push(Instr::alu(a(0x400c)));
        // (actual, speculative, expected divergence point)
        let cases = [
            (actual.clone(), actual.clone(), None),
            (actual.clone(), veers, Some(3)),
            (actual.clone(), actual[..6].to_vec(), Some(6)),
            (actual.clone(), longer, Some(actual.len() as u64)),
            (Vec::new(), Vec::new(), None),
        ];
        let w = pairs(cases.iter().map(|(a, s, _)| (a.clone(), s.clone())).collect());
        let packed = PackedWorkload::pack(&w);
        assert_eq!(packed.events(), w.events());
        assert_eq!(packed.approx_total_instructions(), w.approx_total_instructions());
        for (i, (want_actual, want_spec, diverge_at)) in cases.iter().enumerate() {
            let ev = packed.arena().event(i);
            assert_eq!(ev.diverge_at(), *diverge_at, "event {i}");
            let mut actual = ev.actual_cursor();
            assert_eq!(&drain(|| actual.next_raw()), want_actual, "event {i}");
            let mut spec = ev.speculative_cursor();
            assert_eq!(&drain(|| spec.next_raw()), want_spec, "event {i}");
            assert_eq!(spec.executed(), want_spec.len() as u64, "event {i}");
            if diverge_at.is_none() {
                assert!(ev.spec_tail().is_empty(), "event {i}: no tail without divergence");
            }
        }
    }
}
