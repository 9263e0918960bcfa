//! The individual predictor structures.
//!
//! Each structure is independently testable and `Clone`, because the
//! "separate context and tables" design point of Fig. 12 replicates all of
//! them per execution context.

use crate::PathInfoRegister;
use esp_types::Addr;

/// The 2-bit saturating counter update, on a counter held in the low
/// two bits of a packed table entry.
#[inline(always)]
fn counter_next(counter: u8, taken: bool) -> u8 {
    if taken {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

/// A fresh 2-bit counter: weakly taken.
const WEAK_TAKEN: u8 = 2;
/// Low bits of a packed entry holding its 2-bit counter.
const COUNTER_MASK: u8 = 0b11;

/// The PIR-indexed, tagged global direction predictor (2k entries in the
/// paper's configuration).
///
/// A lookup only *hits* when the stored tag matches; otherwise the
/// predictor abstains and the local predictor decides. Entries are
/// allocated on branches the local predictor got wrong, mirroring how the
/// Pentium M's global predictor filters for history-correlated branches.
///
/// Each entry is one `u32`: `tag << 3 | valid << 2 | counter`, so a
/// lookup touches one host cache line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalPredictor {
    entries: Vec<u32>,
}

impl GlobalPredictor {
    /// Creates an empty predictor with `entries` slots (power of two).
    pub fn new(entries: usize) -> Self {
        GlobalPredictor { entries: vec![u32::from(WEAK_TAKEN); entries] }
    }

    /// The tag and valid bit an entry hit by `(pir, pc)` carries above
    /// its counter bits.
    #[inline(always)]
    fn key(pir: PathInfoRegister, pc: Addr) -> u32 {
        (u32::from(pir.tag(pc)) << 1) | 1
    }

    /// Looks up a direction; `None` on a tag miss.
    #[inline]
    pub fn predict(&self, pir: PathInfoRegister, pc: Addr) -> Option<bool> {
        let e = self.entries[pir.index(pc, self.entries.len())];
        (e >> 2 == Self::key(pir, pc)).then_some(e & u32::from(COUNTER_MASK) >= 2)
    }

    /// Trains the matching entry, or allocates one when `allocate` is set
    /// (done when the fallback predictor mispredicted).
    #[inline]
    pub fn update(&mut self, pir: PathInfoRegister, pc: Addr, taken: bool, allocate: bool) {
        let i = pir.index(pc, self.entries.len());
        let key = Self::key(pir, pc);
        let e = self.entries[i];
        if e >> 2 == key {
            let counter = counter_next((e & u32::from(COUNTER_MASK)) as u8, taken);
            self.entries[i] = (key << 2) | u32::from(counter);
        } else if allocate {
            self.entries[i] = (key << 2) | if taken { 3 } else { 0 };
        }
    }
}

/// The bimodal local predictor (4k entries): a PC-indexed table of 2-bit
/// counters; the fallback when the global predictor abstains.
///
/// Each entry is one byte: the counter in the low two bits and a
/// trained bit above them, so cold predictions can be told apart.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LocalPredictor {
    entries: Vec<u8>,
}

/// The trained bit of a [`LocalPredictor`] entry.
const TRAINED: u8 = 0b100;

impl LocalPredictor {
    /// Creates a predictor with `entries` counters (power of two).
    pub fn new(entries: usize) -> Self {
        LocalPredictor { entries: vec![WEAK_TAKEN; entries] }
    }

    #[inline(always)]
    fn index(&self, pc: Addr) -> usize {
        ((pc.as_u64() >> 2) & (self.entries.len() as u64 - 1)) as usize
    }

    /// Predicted direction for `pc` (always produces a prediction).
    #[inline]
    pub fn predict(&self, pc: Addr) -> bool {
        self.entries[self.index(pc)] & COUNTER_MASK >= 2
    }

    /// Whether the entry for `pc` has ever been updated.
    #[inline]
    pub fn is_trained(&self, pc: Addr) -> bool {
        self.entries[self.index(pc)] & TRAINED != 0
    }

    /// Trains the entry for `pc`.
    #[inline]
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        self.entries[i] = TRAINED | counter_next(self.entries[i] & COUNTER_MASK, taken);
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LoopEntry {
    tag: u16,
    valid: bool,
    /// Learned trip count (taken iterations before the exit).
    limit: u16,
    /// Iterations observed in the current traversal.
    current: u16,
    /// Confidence that `limit` repeats (saturates at 3; predicts at >= 2).
    confidence: u8,
}

/// The loop predictor (256 entries): learns fixed trip counts and predicts
/// the final not-taken iteration of counted loops, which global/local
/// history predictors systematically miss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
}

impl LoopPredictor {
    /// Creates a predictor with `entries` slots (power of two).
    pub fn new(entries: usize) -> Self {
        LoopPredictor { entries: vec![LoopEntry::default(); entries] }
    }

    fn index(&self, pc: Addr) -> usize {
        ((pc.as_u64() >> 2) & (self.entries.len() as u64 - 1)) as usize
    }

    fn tag(pc: Addr) -> u16 {
        ((pc.as_u64() >> 10) & 0x3ff) as u16
    }

    /// Predicts the direction of a loop-closing branch, or `None` when the
    /// entry is unknown or not yet confident.
    pub fn predict(&self, pc: Addr) -> Option<bool> {
        let e = &self.entries[self.index(pc)];
        if e.valid && e.tag == Self::tag(pc) && e.confidence >= 2 && e.limit > 0 {
            Some(e.current < e.limit)
        } else {
            None
        }
    }

    /// Trains on an executed branch direction.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let i = self.index(pc);
        let tag = Self::tag(pc);
        let e = &mut self.entries[i];
        if !e.valid || e.tag != tag {
            *e = LoopEntry { tag, valid: true, limit: 0, current: 0, confidence: 0 };
        }
        if taken {
            e.current = e.current.saturating_add(1);
        } else {
            // Loop exit: does the observed trip count match the learned one?
            if e.limit == e.current && e.limit > 0 {
                e.confidence = (e.confidence + 1).min(3);
            } else {
                e.limit = e.current;
                e.confidence = 0;
            }
            e.current = 0;
        }
    }
}

/// One target-buffer entry: the valid-encoded tag (`tag << 1 | 1`, `0`
/// when empty) next to its target, so a lookup touches one host cache
/// line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct TargetEntry {
    key: u64,
    target: Addr,
}

/// The branch target buffer for direct branches (2k entries, tagged).
/// A taken branch whose target is absent from the BTB is a front-end
/// misprediction even when the direction was right.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Btb {
    entries: Vec<TargetEntry>,
}

impl Btb {
    /// Creates an empty BTB with `entries` slots (power of two).
    pub fn new(entries: usize) -> Self {
        Btb { entries: vec![TargetEntry::default(); entries] }
    }

    #[inline(always)]
    fn index(&self, pc: Addr) -> usize {
        ((pc.as_u64() >> 2) & (self.entries.len() as u64 - 1)) as usize
    }

    #[inline(always)]
    fn key(&self, pc: Addr) -> u64 {
        let tag = ((pc.as_u64() >> 2) >> self.entries.len().trailing_zeros()) as u32;
        (u64::from(tag) << 1) | 1
    }

    /// The stored target for `pc`, if present.
    #[inline]
    pub fn lookup(&self, pc: Addr) -> Option<Addr> {
        let e = self.entries[self.index(pc)];
        (e.key == self.key(pc)).then_some(e.target)
    }

    /// Installs or refreshes the target for `pc`.
    #[inline]
    pub fn update(&mut self, pc: Addr, target: Addr) {
        let i = self.index(pc);
        self.entries[i] = TargetEntry { key: self.key(pc), target };
    }
}

/// The indirect branch target buffer (256 entries), indexed by PIR ^ PC so
/// the same dispatch site can hold different targets on different paths.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IndirectBtb {
    entries: Vec<TargetEntry>,
}

impl IndirectBtb {
    /// Creates an empty iBTB with `entries` slots (power of two).
    pub fn new(entries: usize) -> Self {
        IndirectBtb { entries: vec![TargetEntry::default(); entries] }
    }

    #[inline(always)]
    fn key(pir: PathInfoRegister, pc: Addr) -> u64 {
        (u64::from(pir.tag(pc)) << 1) | 1
    }

    /// The stored target for this (path, pc) pair, if present.
    #[inline]
    pub fn lookup(&self, pir: PathInfoRegister, pc: Addr) -> Option<Addr> {
        let e = self.entries[pir.index(pc, self.entries.len())];
        (e.key == Self::key(pir, pc)).then_some(e.target)
    }

    /// Installs the observed target for this (path, pc) pair.
    #[inline]
    pub fn update(&mut self, pir: PathInfoRegister, pc: Addr, target: Addr) {
        let i = pir.index(pc, self.entries.len());
        self.entries[i] = TargetEntry { key: Self::key(pir, pc), target };
    }
}

/// The return address stack. ESP clears it when leaving a speculative
/// mode, because it may hold return addresses pushed by pre-executed
/// functions (§4.1, "Exiting ESP mode").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReturnStack {
    stack: Vec<Addr>,
    capacity: usize,
}

impl ReturnStack {
    /// Creates a stack holding up to `capacity` return addresses.
    pub fn new(capacity: usize) -> Self {
        ReturnStack { stack: Vec::with_capacity(capacity), capacity }
    }

    /// Pushes a return address (a call retired); the oldest entry is
    /// dropped on overflow.
    pub fn push(&mut self, ret: Addr) {
        if self.stack.len() == self.capacity {
            self.stack.remove(0);
        }
        self.stack.push(ret);
    }

    /// Pops the predicted return address, if any.
    pub fn pop(&mut self) -> Option<Addr> {
        self.stack.pop()
    }

    /// Empties the stack.
    pub fn clear(&mut self) {
        self.stack.clear();
    }

    /// Makes `self` an exact copy of `other`, reusing `self`'s storage —
    /// the allocation-free half of a checkpoint/restore round trip.
    pub fn copy_from(&mut self, other: &Self) {
        self.stack.clone_from(&other.stack);
        self.capacity = other.capacity;
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates() {
        let mut c = 0;
        for _ in 0..5 {
            c = counter_next(c, true);
        }
        assert_eq!(c, 3);
        for _ in 0..5 {
            c = counter_next(c, false);
        }
        assert_eq!(c, 0);
    }

    #[test]
    fn global_tag_filtering() {
        let mut g = GlobalPredictor::new(64);
        let pir = PathInfoRegister::new();
        let pc = Addr::new(0x1000);
        assert_eq!(g.predict(pir, pc), None);
        g.update(pir, pc, true, true);
        assert_eq!(g.predict(pir, pc), Some(true));
        // Non-allocating update on a missing entry changes nothing.
        let other = Addr::new(0x2f00);
        g.update(pir, other, false, false);
        assert_eq!(g.predict(pir, other), None);
    }

    #[test]
    fn global_is_path_sensitive() {
        let mut g = GlobalPredictor::new(1024);
        let pc = Addr::new(0x1000);
        let pir_a = PathInfoRegister::new();
        let mut pir_b = PathInfoRegister::new();
        pir_b.update_taken(Addr::new(0x500), Addr::new(0x40));
        g.update(pir_a, pc, true, true);
        g.update(pir_b, pc, false, true);
        assert_eq!(g.predict(pir_a, pc), Some(true));
        assert_eq!(g.predict(pir_b, pc), Some(false));
    }

    #[test]
    fn local_learns_bias() {
        let mut l = LocalPredictor::new(64);
        let pc = Addr::new(0x40);
        assert!(!l.is_trained(pc));
        for _ in 0..3 {
            l.update(pc, false);
        }
        assert!(!l.predict(pc));
        assert!(l.is_trained(pc));
    }

    #[test]
    fn loop_predictor_learns_trip_count() {
        let mut lp = LoopPredictor::new(64);
        let pc = Addr::new(0x88);
        // Three traversals of a 5-iteration loop to build confidence.
        for _ in 0..3 {
            for _ in 0..5 {
                lp.update(pc, true);
            }
            lp.update(pc, false);
        }
        // Now it predicts taken for 5 iterations then not-taken.
        for i in 0..5 {
            assert_eq!(lp.predict(pc), Some(true), "iteration {i}");
            lp.update(pc, true);
        }
        assert_eq!(lp.predict(pc), Some(false));
        lp.update(pc, false);
    }

    #[test]
    fn loop_predictor_abstains_without_confidence() {
        let mut lp = LoopPredictor::new(64);
        let pc = Addr::new(0x88);
        lp.update(pc, true);
        lp.update(pc, false);
        assert_eq!(lp.predict(pc), None);
    }

    #[test]
    fn btb_roundtrip_and_conflicts() {
        let mut b = Btb::new(16);
        let pc = Addr::new(0x100);
        assert_eq!(b.lookup(pc), None);
        b.update(pc, Addr::new(0x2000));
        assert_eq!(b.lookup(pc), Some(Addr::new(0x2000)));
        // A conflicting pc (same index, different tag) evicts.
        let conflicting = Addr::new(0x100 + 16 * 4);
        b.update(conflicting, Addr::new(0x3000));
        assert_eq!(b.lookup(pc), None);
        assert_eq!(b.lookup(conflicting), Some(Addr::new(0x3000)));
    }

    #[test]
    fn ibtb_is_path_sensitive() {
        let mut ib = IndirectBtb::new(256);
        let pc = Addr::new(0x500);
        let pir_a = PathInfoRegister::new();
        let mut pir_b = PathInfoRegister::new();
        pir_b.update_taken(Addr::new(0x900), Addr::new(0x10));
        ib.update(pir_a, pc, Addr::new(0x7000));
        ib.update(pir_b, pc, Addr::new(0x8000));
        assert_eq!(ib.lookup(pir_a, pc), Some(Addr::new(0x7000)));
        assert_eq!(ib.lookup(pir_b, pc), Some(Addr::new(0x8000)));
    }

    #[test]
    fn ras_lifo_and_overflow() {
        let mut r = ReturnStack::new(2);
        r.push(Addr::new(1));
        r.push(Addr::new(2));
        r.push(Addr::new(3)); // drops 1
        assert_eq!(r.depth(), 2);
        assert_eq!(r.pop(), Some(Addr::new(3)));
        assert_eq!(r.pop(), Some(Addr::new(2)));
        assert_eq!(r.pop(), None);
        r.push(Addr::new(9));
        r.clear();
        assert_eq!(r.depth(), 0);
    }
}
