//! B-List-Direction and B-List-Target (§4.3).

use esp_trace::{Instr, InstrKind};
use esp_types::Addr;

/// One decoded branch record from the B-lists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BranchRecord {
    /// The branch's instruction address.
    pub pc: Addr,
    /// The recorded direction (always true for unconditional branches).
    pub taken: bool,
    /// Whether the branch was indirect.
    pub indirect: bool,
    /// The taken-path target available for replay. `None` for indirect
    /// branches whose target did not fit in B-List-Target.
    pub target: Option<Addr>,
    /// Retired instruction count at the branch (from the header entries).
    pub icount: u64,
    /// The branch flavour, so replay can reconstruct the micro-op.
    pub kind: RecordKind,
}

/// The branch flavour stored in a [`BranchRecord`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecordKind {
    /// A conditional direct branch.
    Cond,
    /// An indirect branch.
    Indirect,
    /// An indirect call.
    IndirectCall,
    /// A direct call.
    Call,
    /// A return (recorded for spacing; replay skips it).
    Return,
}

impl BranchRecord {
    /// Reconstructs a micro-op suitable for
    /// `BranchPredictor::train_ahead`-style replay. Returns `None` when
    /// the record cannot be replayed (an indirect branch whose target was
    /// not captured, or a return).
    pub fn to_instr(&self) -> Option<Instr> {
        match self.kind {
            RecordKind::Cond => Some(Instr::cond_branch(
                self.pc,
                self.taken,
                self.target.unwrap_or(Addr::NULL),
            )),
            RecordKind::Indirect => self.target.map(|t| Instr::indirect(self.pc, t)),
            RecordKind::IndirectCall => self.target.map(|t| Instr::indirect_call(self.pc, t)),
            RecordKind::Call => self.target.map(|t| Instr::call(self.pc, t)),
            RecordKind::Return => None,
        }
    }
}

/// Bits per B-List-Direction entry: 4 (Δpc) + 1 (direction) + 1 (indirect).
const DIR_ENTRY_BITS: usize = 6;
/// Every `GROUP` entries, the first two entries are instruction-count
/// headers rather than branches.
const GROUP: usize = 30;
const HEADER_ENTRIES: usize = 2;
/// Bits per B-List-Target entry: 16 (target offset) + 1 (escape).
const TGT_ENTRY_BITS: usize = 17;
/// Δpc range encodable in 4 bits (instruction units).
const DIR_DELTA_MAX: u64 = 15;
/// Target-offset range encodable in 16 bits (signed, byte units).
const TGT_OFFSET_MIN: i64 = -32768;
const TGT_OFFSET_MAX: i64 = 32767;

/// The paired B-List-Direction / B-List-Target of one ESP mode.
///
/// Direction entries are 6 bits with periodic instruction-count headers;
/// indirect-branch targets go to the separate, much smaller target list
/// (41 B for ESP-1), so indirect replay coverage runs out long before
/// direction coverage — exactly the asymmetry Fig. 8 builds in.
///
/// # Examples
///
/// ```
/// use esp_lists::BList;
/// use esp_trace::Instr;
/// use esp_types::Addr;
///
/// let mut b = BList::new(566, 41);
/// let br = Instr::cond_branch(Addr::new(0x100), true, Addr::new(0x40));
/// assert!(b.record(&br, 10));
/// assert_eq!(b.records().len(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct BList {
    dir_capacity_bits: usize,
    dir_used_bits: usize,
    tgt_capacity_bits: usize,
    tgt_used_bits: usize,
    records: Vec<BranchRecord>,
    entries_written: usize,
    full: bool,
    last_pc: Option<Addr>,
}

impl BList {
    /// Creates an empty pair with the given byte capacities.
    pub fn new(dir_bytes: usize, tgt_bytes: usize) -> Self {
        BList {
            dir_capacity_bits: dir_bytes * 8,
            dir_used_bits: 0,
            tgt_capacity_bits: tgt_bytes * 8,
            tgt_used_bits: 0,
            records: Vec::new(),
            entries_written: 0,
            full: false,
            last_pc: None,
        }
    }

    fn dir_entry_cost(&mut self, pc: Addr) -> usize {
        let mut cost = 0;
        // Periodic headers: the first two entries of every group of 30.
        if self.entries_written.is_multiple_of(GROUP) {
            cost += HEADER_ENTRIES * DIR_ENTRY_BITS;
            self.entries_written += HEADER_ENTRIES;
        }
        // Far branches need an extra spacing entry (escape).
        let delta = match self.last_pc {
            Some(prev) => (pc.as_u64().abs_diff(prev.as_u64())) / 4,
            None => 0,
        };
        if delta > DIR_DELTA_MAX {
            cost += DIR_ENTRY_BITS;
            self.entries_written += 1;
        }
        cost += DIR_ENTRY_BITS;
        self.entries_written += 1;
        cost
    }

    /// Records a retiring branch from pre-execution. Returns `false` once
    /// B-List-Direction is full (the branch is dropped).
    ///
    /// # Panics
    ///
    /// Panics if `instr` is not a branch.
    pub fn record(&mut self, instr: &Instr, icount: u64) -> bool {
        if self.full {
            return false;
        }
        let entries_before = self.entries_written;
        let cost = self.dir_entry_cost(instr.pc);
        if self.dir_used_bits + cost > self.dir_capacity_bits {
            self.entries_written = entries_before;
            self.full = true;
            return false;
        }
        self.dir_used_bits += cost;
        self.last_pc = Some(instr.pc);

        let (kind, taken, target) = match instr.kind {
            InstrKind::CondBranch { taken, target } => {
                (RecordKind::Cond, taken, taken.then_some(target))
            }
            InstrKind::IndirectBranch { target } => {
                // Targets compete for the tiny B-List-Target.
                let stored = self.try_store_target(instr.pc, target);
                (RecordKind::Indirect, true, stored.then_some(target))
            }
            InstrKind::IndirectCall { target } => {
                let stored = self.try_store_target(instr.pc, target);
                (RecordKind::IndirectCall, true, stored.then_some(target))
            }
            InstrKind::Call { target } => (RecordKind::Call, true, Some(target)),
            InstrKind::Return { target } => (RecordKind::Return, true, Some(target)),
            _ => panic!("BList::record called on a non-branch: {instr:?}"),
        };
        self.records.push(BranchRecord {
            pc: instr.pc,
            taken,
            indirect: matches!(kind, RecordKind::Indirect | RecordKind::IndirectCall),
            target,
            icount,
            kind,
        });
        true
    }

    fn try_store_target(&mut self, pc: Addr, target: Addr) -> bool {
        let offset = target.as_u64() as i64 - pc.as_u64() as i64;
        let cost = if (TGT_OFFSET_MIN..=TGT_OFFSET_MAX).contains(&offset) {
            TGT_ENTRY_BITS
        } else {
            3 * TGT_ENTRY_BITS
        };
        if self.tgt_used_bits + cost > self.tgt_capacity_bits {
            return false;
        }
        self.tgt_used_bits += cost;
        true
    }

    /// The decoded records, oldest first.
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// The decoded records, oldest first, handed over without a copy.
    pub fn into_records(self) -> Vec<BranchRecord> {
        self.records
    }

    /// Whether direction recording has stopped.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Bits used in B-List-Direction.
    pub fn dir_used_bits(&self) -> usize {
        self.dir_used_bits
    }

    /// Bits used in B-List-Target.
    pub fn tgt_used_bits(&self) -> usize {
        self.tgt_used_bits
    }

    /// Number of decoded branch records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no branches have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Event promotion: re-homes into the (larger) ESP-1 capacities.
    pub fn promoted(self, dir_bytes: usize, tgt_bytes: usize) -> BList {
        let dir_capacity_bits = dir_bytes * 8;
        BList {
            dir_capacity_bits,
            tgt_capacity_bits: tgt_bytes * 8,
            full: self.dir_used_bits >= dir_capacity_bits,
            ..self
        }
    }

    /// Empties both lists.
    pub fn clear(&mut self) {
        self.dir_used_bits = 0;
        self.tgt_used_bits = 0;
        self.records.clear();
        self.entries_written = 0;
        self.full = false;
        self.last_pc = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cond(pc: u64, taken: bool) -> Instr {
        Instr::cond_branch(Addr::new(pc), taken, Addr::new(pc + 0x20))
    }

    #[test]
    fn records_and_decodes_conditionals() {
        let mut b = BList::new(566, 41);
        assert!(b.record(&cond(0x100, true), 5));
        assert!(b.record(&cond(0x110, false), 9));
        let r = b.records();
        assert_eq!(r.len(), 2);
        assert!(r[0].taken);
        assert_eq!(r[0].icount, 5);
        assert!(!r[1].taken);
        assert_eq!(r[1].target, None, "not-taken branches carry no target");
        assert_eq!(r[0].to_instr(), Some(cond(0x100, true)));
    }

    #[test]
    fn direction_capacity_with_headers() {
        // 30 B = 240 bits = 40 entries. Groups of 30 entries start with 2
        // headers, so the first group stores 28 branches in 180 bits, the
        // next group starts with headers again: 240-180=60 bits = 10
        // entries → 2 headers + 8 branches = 36 branches total.
        let mut b = BList::new(30, 41);
        let mut n = 0;
        while b.record(&cond(0x100 + n * 8, true), n) {
            n += 1;
        }
        assert_eq!(n, 36);
        assert!(b.is_full());
    }

    #[test]
    fn far_branches_cost_extra_entries() {
        let mut b = BList::new(566, 41);
        b.record(&cond(0x100, true), 0);
        let used = b.dir_used_bits();
        // Next branch 17 instructions away: needs an escape entry.
        b.record(&cond(0x100 + 17 * 4, true), 20);
        assert_eq!(b.dir_used_bits() - used, 2 * 6);
        let used = b.dir_used_bits();
        // Close branch: single entry.
        b.record(&cond(0x100 + 17 * 4 + 8, true), 22);
        assert_eq!(b.dir_used_bits() - used, 6);
    }

    #[test]
    fn indirect_targets_gated_by_target_list() {
        // 6 B of target storage = 48 bits = 2 near-target entries.
        let mut b = BList::new(566, 6);
        for i in 0..4u64 {
            let ins = Instr::indirect(Addr::new(0x1000 + i * 64), Addr::new(0x1200 + i * 64));
            assert!(b.record(&ins, i));
        }
        let with_target = b.records().iter().filter(|r| r.target.is_some()).count();
        assert_eq!(with_target, 2);
        // Directions are still recorded for all four.
        assert_eq!(b.len(), 4);
        // Records without targets cannot be replayed.
        assert!(b.records()[3].to_instr().is_none());
    }

    #[test]
    fn far_indirect_targets_cost_three_entries() {
        let mut b = BList::new(566, 7); // 56 bits
        let far = Instr::indirect(Addr::new(0x1000), Addr::new(0x80_0000));
        assert!(b.record(&far, 0));
        assert_eq!(b.tgt_used_bits(), 51);
        // No room for another escape (51 + 17 > 56 even for a near one? 68 > 56).
        let near = Instr::indirect(Addr::new(0x1040), Addr::new(0x1100));
        assert!(b.record(&near, 1));
        assert_eq!(b.records()[1].target, None);
    }

    #[test]
    fn calls_and_returns() {
        let mut b = BList::new(566, 41);
        let call = Instr::call(Addr::new(0x100), Addr::new(0x4000));
        let ret = Instr::ret(Addr::new(0x4010), Addr::new(0x104));
        assert!(b.record(&call, 0));
        assert!(b.record(&ret, 5));
        assert_eq!(b.records()[0].kind, RecordKind::Call);
        assert!(b.records()[0].to_instr().is_some());
        assert_eq!(b.records()[1].kind, RecordKind::Return);
        assert!(b.records()[1].to_instr().is_none(), "returns are not replayed");
    }

    #[test]
    fn promotion_reopens_a_full_list() {
        let mut b = BList::new(30, 6);
        let mut n = 0;
        while b.record(&cond(0x100 + n * 8, true), n) {
            n += 1;
        }
        assert!(b.is_full());
        let len = b.len();
        let mut big = b.promoted(566, 41);
        assert!(!big.is_full());
        assert!(big.record(&cond(0x9000, true), 400));
        assert_eq!(big.len(), len + 1);
    }

    #[test]
    fn clear_resets() {
        let mut b = BList::new(566, 41);
        b.record(&cond(0x100, true), 0);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.dir_used_bits(), 0);
        assert_eq!(b.tgt_used_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "non-branch")]
    fn non_branch_panics() {
        let mut b = BList::new(566, 41);
        b.record(&Instr::alu(Addr::new(0)), 0);
    }
}
