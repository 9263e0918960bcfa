//! The I-list / D-list: compressed cache-block address + timestamp lists.

use esp_types::LineAddr;

/// One decoded list record: a run of `1 + extra` contiguous cache blocks
/// starting at `line`, first touched `icount` instructions into the event.
///
/// 16 bytes: an unbounded Ideal-ESP D-list holds tens of thousands of
/// them per event, so the fields are laid out without padding between
/// them and the instruction count is 32-bit (checked where a record is
/// made, [`AddrList::record`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(C)]
pub struct AddrRecord {
    /// First cache block of the run.
    pub line: LineAddr,
    /// Instructions executed from the beginning of the event before the
    /// run's first access.
    pub icount: u32,
    /// Number of contiguous blocks following `line` (the 3-bit field).
    pub extra: u8,
}

const _: () = assert!(std::mem::size_of::<AddrRecord>() == 16);

impl AddrRecord {
    /// Total blocks covered by the record.
    pub fn run_len(&self) -> u8 {
        1 + self.extra
    }

    /// Iterates over the covered block addresses.
    pub fn lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        (0..self.run_len() as i64).map(move |i| self.line.offset(i))
    }
}

/// Bits per base entry: 8 (Δline) + 3 (run) + 7 (Δicount) + 1 (escape).
const ENTRY_BITS: usize = 19;
/// Maximum run extension encodable in the 3-bit field.
const MAX_RUN: u8 = 7;
/// Signed range of the 8-bit line delta.
const DELTA_MIN: i64 = -128;
const DELTA_MAX: i64 = 127;
/// Saturation point of the 7-bit instruction-count delta.
const ICOUNT_DELTA_MAX: u64 = 127;

/// A compressed circular list of cache-block addresses with timestamps —
/// the hardware I-list or D-list of one ESP mode (§4.2).
///
/// Recording stops when the capacity is exhausted ("for long events, ESP
/// would initially use the lists issuing accurate prefetch requests, but
/// later has to rely on the baseline prefetcher"). The decoded records are
/// retained for replay; the bit accounting decides *when recording stops*,
/// which is the architecturally meaningful effect of the encoding.
///
/// # Examples
///
/// ```
/// use esp_lists::AddrList;
/// use esp_types::LineAddr;
///
/// let mut l = AddrList::new(68); // the ESP-2 I-list: 544 bits
/// let mut recorded = 0;
/// let mut line = 0u64;
/// while l.record(LineAddr::new(line), line * 20) {
///     recorded += 1;
///     line += 10; // never contiguous, one entry each
/// }
/// // The first entry spells out a full address (3 x 19 bits); the other
/// // 25 are 19-bit delta entries: 57 + 25*19 = 532 <= 544.
/// assert_eq!(recorded, 26);
/// assert!(l.is_full());
/// ```
#[derive(Clone, Debug)]
pub struct AddrList {
    capacity_bits: usize,
    used_bits: usize,
    records: Vec<AddrRecord>,
    full: bool,
    last_line: Option<LineAddr>,
    last_icount: u64,
}

impl AddrList {
    /// Creates an empty list with `capacity_bytes` of storage.
    pub fn new(capacity_bytes: usize) -> Self {
        AddrList {
            capacity_bits: capacity_bytes * 8,
            used_bits: 0,
            records: Vec::new(),
            full: false,
            last_line: None,
            last_icount: 0,
        }
    }

    /// Records an access to `line` at event-relative instruction count
    /// `icount`. Returns `false` once the list is full (the access is
    /// dropped, as the hardware would).
    ///
    /// Consecutive accesses extending a contiguous run are folded into the
    /// previous entry's 3-bit run field at zero bit cost; re-touches of
    /// the previous block are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a new record's `icount` does not fit its `u32` field.
    pub fn record(&mut self, line: LineAddr, icount: u64) -> bool {
        if self.full {
            return false;
        }
        // Run folding against the most recent record.
        if let Some(last) = self.records.last_mut() {
            let run_end = last.line.offset(last.extra as i64);
            if line == run_end {
                return true; // re-touch of the current block
            }
            if line == run_end.next() && last.extra < MAX_RUN {
                last.extra += 1;
                self.last_line = Some(line);
                self.last_icount = icount;
                return true;
            }
        }
        let delta = match self.last_line {
            Some(prev) => line.as_u64() as i64 - prev.as_u64() as i64,
            None => 0, // first entry anchors the stream
        };
        let cost = if (DELTA_MIN..=DELTA_MAX).contains(&delta) && self.last_line.is_some() {
            ENTRY_BITS
        } else {
            // Escape: the entry plus two extension entries spell out the
            // complete 26-bit block address.
            3 * ENTRY_BITS
        };
        if self.used_bits + cost > self.capacity_bits {
            self.full = true;
            return false;
        }
        self.used_bits += cost;
        let _encoded_icount_delta = (icount - self.last_icount).min(ICOUNT_DELTA_MAX);
        let icount32 = u32::try_from(icount).expect("list record icount exceeds u32");
        self.records.push(AddrRecord { line, icount: icount32, extra: 0 });
        self.last_line = Some(line);
        self.last_icount = icount;
        true
    }

    /// The decoded records, oldest first.
    pub fn records(&self) -> &[AddrRecord] {
        &self.records
    }

    /// The decoded records, oldest first, handed over without a copy.
    pub fn into_records(self) -> Vec<AddrRecord> {
        self.records
    }

    /// Whether recording has stopped.
    pub fn is_full(&self) -> bool {
        self.full
    }

    /// Bits consumed so far.
    pub fn used_bits(&self) -> usize {
        self.used_bits
    }

    /// Capacity in bits.
    pub fn capacity_bits(&self) -> usize {
        self.capacity_bits
    }

    /// Number of decoded records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no records have been stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total cache blocks covered (records × run lengths).
    pub fn covered_blocks(&self) -> u64 {
        self.records.iter().map(|r| r.run_len() as u64).sum()
    }

    /// Event promotion (§4.2): re-homes this list's contents into a list
    /// of `capacity_bytes` (the larger ESP-1 storage), preserving records
    /// and bit usage so recording can continue where it stopped. The
    /// `full` flag is re-evaluated against the new capacity.
    pub fn promoted(self, capacity_bytes: usize) -> AddrList {
        let capacity_bits = capacity_bytes * 8;
        AddrList {
            capacity_bits,
            full: self.used_bits >= capacity_bits,
            ..self
        }
    }

    /// Empties the list (hardware reuse for a new event).
    pub fn clear(&mut self) {
        self.used_bits = 0;
        self.records.clear();
        self.full = false;
        self.last_line = None;
        self.last_icount = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_runs_fold() {
        let mut l = AddrList::new(499);
        for i in 0..8 {
            assert!(l.record(LineAddr::new(100 + i), i * 16));
        }
        assert_eq!(l.len(), 1);
        assert_eq!(l.records()[0].run_len(), 8);
        // The ninth contiguous block exceeds the 3-bit field: new entry.
        assert!(l.record(LineAddr::new(108), 200));
        assert_eq!(l.len(), 2);
        // First entry is a full-address escape (57 bits), second is a
        // plain delta entry.
        assert_eq!(l.used_bits(), 57 + 19);
    }

    #[test]
    fn retouch_is_free() {
        let mut l = AddrList::new(68);
        l.record(LineAddr::new(5), 0);
        let used = l.used_bits();
        l.record(LineAddr::new(5), 10);
        l.record(LineAddr::new(5), 20);
        assert_eq!(l.used_bits(), used);
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn near_jumps_cost_one_entry_far_jumps_three() {
        let mut l = AddrList::new(499);
        l.record(LineAddr::new(1000), 0); // first entry: full address
        assert_eq!(l.used_bits(), 57);
        l.record(LineAddr::new(1100), 10); // +100: near
        assert_eq!(l.used_bits(), 57 + 19);
        l.record(LineAddr::new(5000), 20); // +3900: far
        assert_eq!(l.used_bits(), 57 + 19 + 57);
        l.record(LineAddr::new(4900), 30); // -100: near (signed delta)
        assert_eq!(l.used_bits(), 57 + 19 + 57 + 19);
    }

    #[test]
    fn capacity_stops_recording() {
        // 68 B = 544 bits = 28 base entries.
        let mut l = AddrList::new(68);
        let mut n = 0;
        let mut line = 0u64;
        while l.record(LineAddr::new(line), n * 30) {
            n += 1;
            line += 20;
        }
        assert_eq!(n, 26);
        assert!(l.is_full());
        // Further records are rejected without changing state.
        assert!(!l.record(LineAddr::new(line + 20), 99999));
        assert_eq!(l.len(), 26);
    }

    #[test]
    fn run_folding_still_works_when_full_flagged_later() {
        let mut l = AddrList::new(68);
        let mut line = 0u64;
        while l.record(LineAddr::new(line), 0) {
            line += 20;
        }
        assert!(l.is_full());
        assert!(!l.record(LineAddr::new(line - 19), 0));
    }

    #[test]
    fn the_largest_u32_icount_is_kept() {
        let mut l = AddrList::new(499);
        assert!(l.record(LineAddr::new(7), u64::from(u32::MAX)));
        assert_eq!(l.records()[0].icount, u32::MAX);
    }

    #[test]
    #[should_panic(expected = "exceeds u32")]
    fn an_icount_past_u32_is_refused() {
        AddrList::new(499).record(LineAddr::new(7), 1 << 32);
    }

    #[test]
    fn records_keep_exact_icounts() {
        let mut l = AddrList::new(499);
        l.record(LineAddr::new(0), 0);
        l.record(LineAddr::new(50), 5_000); // delta far beyond 127
        assert_eq!(l.records()[1].icount, 5_000);
    }

    #[test]
    fn promotion_preserves_contents_and_allows_growth() {
        let mut l = AddrList::new(68);
        let mut line = 0u64;
        while l.record(LineAddr::new(line), 0) {
            line += 20;
        }
        let n = l.len();
        let mut big = l.promoted(499);
        assert!(!big.is_full());
        assert_eq!(big.len(), n);
        assert!(big.record(LineAddr::new(line + 1000), 10));
        assert_eq!(big.len(), n + 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut l = AddrList::new(68);
        l.record(LineAddr::new(3), 0);
        l.clear();
        assert!(l.is_empty());
        assert_eq!(l.used_bits(), 0);
        assert!(!l.is_full());
    }

    #[test]
    fn record_lines_iterator() {
        let r = AddrRecord { line: LineAddr::new(10), extra: 2, icount: 0 };
        let lines: Vec<u64> = r.lines().map(|l| l.as_u64()).collect();
        assert_eq!(lines, vec![10, 11, 12]);
        assert_eq!(r.run_len(), 3);
    }

    #[test]
    fn covered_blocks_counts_runs() {
        let mut l = AddrList::new(499);
        for i in 0..4 {
            l.record(LineAddr::new(i), 0);
        }
        l.record(LineAddr::new(100), 0);
        assert_eq!(l.covered_blocks(), 5);
    }
}
