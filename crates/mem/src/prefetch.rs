//! The baseline prefetchers of the evaluation (Fig. 7).
//!
//! Three prefetchers from the paper's baseline: a next-line instruction
//! prefetcher, Intel's DCU-style next-line data prefetcher (which "waits
//! for four consecutive accesses to the same data cache line before
//! prefetching the next", §5), and a 256-entry PC-indexed stride
//! prefetcher modelled on Intel's IP prefetcher.
//!
//! Each prefetcher is a pure address-stream observer: the core feeds it
//! demand accesses, it returns candidate lines, and the core issues them
//! through [`crate::MemoryHierarchy`]. This keeps policy (what to fetch)
//! separate from mechanism (latency, pollution) and lets the same policy
//! drive both the normal and ideal configurations.

use esp_stats::PrefetchStats;
use esp_types::{Addr, LineAddr};

/// Next-line instruction prefetcher: whenever the fetch stream enters a
/// new cache line, the following line is prefetched.
///
/// # Examples
///
/// ```
/// use esp_mem::prefetch::NextLineInstr;
/// use esp_types::LineAddr;
///
/// let mut nl = NextLineInstr::new();
/// assert_eq!(nl.on_fetch(LineAddr::new(10)), Some(LineAddr::new(11)));
/// // Staying within the line does not re-issue.
/// assert_eq!(nl.on_fetch(LineAddr::new(10)), None);
/// assert_eq!(nl.on_fetch(LineAddr::new(11)), Some(LineAddr::new(12)));
/// ```
#[derive(Clone, Debug, Default)]
pub struct NextLineInstr {
    last_line: Option<LineAddr>,
    stats: PrefetchStats,
}

impl NextLineInstr {
    /// Creates the prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a fetch of `line`; returns the line to prefetch, if any.
    pub fn on_fetch(&mut self, line: LineAddr) -> Option<LineAddr> {
        if self.last_line == Some(line) {
            return None;
        }
        self.last_line = Some(line);
        self.stats.record(false);
        Some(line.next())
    }

    /// Issue statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Whether `self` and `other` would issue identical prefetches for
    /// any future fetch stream (statistics excluded).
    pub fn same_state(&self, other: &Self) -> bool {
        self.last_line == other.last_line
    }
}

/// Intel-DCU-style next-line data prefetcher: after four consecutive
/// accesses to the same line, prefetch the next line (once per streak).
///
/// # Examples
///
/// ```
/// use esp_mem::prefetch::DcuNextLine;
/// use esp_types::LineAddr;
///
/// let mut dcu = DcuNextLine::new();
/// let l = LineAddr::new(5);
/// assert_eq!(dcu.on_access(l), None);
/// assert_eq!(dcu.on_access(l), None);
/// assert_eq!(dcu.on_access(l), None);
/// assert_eq!(dcu.on_access(l), Some(LineAddr::new(6)));
/// assert_eq!(dcu.on_access(l), None); // already triggered for this streak
/// ```
#[derive(Clone, Debug, Default)]
pub struct DcuNextLine {
    /// Small fully-associative tracker of recently touched lines; the
    /// first `len` slots are live. Slot order is part of the state
    /// [`DcuNextLine::same_state`] compares.
    entries: [DcuEntry; DCU_TRACKED],
    len: usize,
    clock: u64,
    stats: PrefetchStats,
}

/// One tracked line of a [`DcuNextLine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct DcuEntry {
    line: LineAddr,
    touches: u32,
    triggered: bool,
    /// LRU stamp: the tracker clock at the last touch.
    stamp: u64,
}

/// Accesses to the same line required before the DCU triggers.
const DCU_THRESHOLD: u32 = 4;
/// Tracked lines. Real DCUs require back-to-back accesses; a small
/// tracker tolerates the interleaving every real access stream has while
/// preserving the "multiple touches before fetching ahead" filter.
const DCU_TRACKED: usize = 4;

impl DcuNextLine {
    /// Creates the prefetcher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes a data access to `line`; returns the line to prefetch if
    /// this is the line's fourth recent touch (once per streak).
    #[inline]
    pub fn on_access(&mut self, line: LineAddr) -> Option<LineAddr> {
        self.clock += 1;
        let clock = self.clock;
        // Tracked lines are distinct, so at most one slot matches; the
        // scan has no early exit.
        let mut hit = None;
        for (i, e) in self.entries[..self.len].iter().enumerate() {
            if e.line == line {
                hit = Some(i);
            }
        }
        if let Some(i) = hit {
            let e = &mut self.entries[i];
            e.touches += 1;
            e.stamp = clock;
            if e.touches >= DCU_THRESHOLD && !e.triggered {
                e.triggered = true;
                self.stats.record(false);
                return Some(line.next());
            }
            return None;
        }
        let fresh = DcuEntry { line, touches: 1, triggered: false, stamp: clock };
        if self.len < DCU_TRACKED {
            self.entries[self.len] = fresh;
            self.len += 1;
        } else {
            // Evict the least recently touched line: the last slot moves
            // into the victim's place and the new line goes last.
            let lru = self.lru_slot();
            self.entries[lru] = self.entries[DCU_TRACKED - 1];
            self.entries[DCU_TRACKED - 1] = fresh;
        }
        None
    }

    /// The slot of the least recently touched line of a full tracker.
    /// Stamps are distinct clock values far below 2^62, so each slot's
    /// `stamp << 2 | slot` is a distinct key whose minimum names the LRU
    /// slot: a min-reduction with no data-dependent branch, where a
    /// compare-and-jump scan mispredicts on the victim's position.
    #[inline(always)]
    fn lru_slot(&self) -> usize {
        const _: () = assert!(DCU_TRACKED <= 4, "slot indices must fit the key's two low bits");
        let key = |i: usize| self.entries[i].stamp << 2 | i as u64;
        ((1..DCU_TRACKED).fold(key(0), |m, i| m.min(key(i))) & 3) as usize
    }

    /// Issue statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Whether `self` and `other` would issue identical prefetches for
    /// any future access stream. The tracker entries (in slot order) and
    /// the LRU clock both matter (the clock orders future evictions);
    /// statistics are excluded.
    pub fn same_state(&self, other: &Self) -> bool {
        self.entries[..self.len] == other.entries[..other.len] && self.clock == other.clock
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct StrideEntry {
    tag: u64,
    last_addr: Addr,
    stride: i64,
    confidence: u8,
    valid: bool,
}

/// A 256-entry PC-indexed stride prefetcher (Fig. 7's "Stride (256
/// entries)").
///
/// Each entry tracks the last address and stride of one static load; after
/// two consecutive confirmations of the same non-zero stride, the next
/// address in the pattern is prefetched.
///
/// # Examples
///
/// ```
/// use esp_mem::prefetch::StridePrefetcher;
/// use esp_types::Addr;
///
/// let mut sp = StridePrefetcher::new(256);
/// let pc = Addr::new(0x400);
/// assert_eq!(sp.on_load(pc, Addr::new(0x1000), 64), None);
/// assert_eq!(sp.on_load(pc, Addr::new(0x1100), 64), None); // learn stride
/// assert_eq!(sp.on_load(pc, Addr::new(0x1200), 64), None); // confidence 1
/// // Third confirmation: predict 0x1400.
/// let line = sp.on_load(pc, Addr::new(0x1300), 64).unwrap();
/// assert_eq!(line, Addr::new(0x1400).line(64));
/// ```
#[derive(Clone, Debug)]
pub struct StridePrefetcher {
    entries: Vec<StrideEntry>,
    mask: u64,
    stats: PrefetchStats,
}

impl StridePrefetcher {
    /// Creates a stride table with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "stride table size must be a power of two");
        StridePrefetcher {
            entries: vec![StrideEntry::default(); entries],
            mask: entries as u64 - 1,
            stats: PrefetchStats::default(),
        }
    }

    /// Observes a dynamic load at `pc` to `addr`; returns the line to
    /// prefetch when the entry's stride is confident.
    pub fn on_load(&mut self, pc: Addr, addr: Addr, line_bytes: u64) -> Option<LineAddr> {
        let idx = ((pc.as_u64() >> 2) & self.mask) as usize;
        let tag = pc.as_u64() >> 2 >> self.mask.count_ones();
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            *e = StrideEntry { tag, last_addr: addr, stride: 0, confidence: 0, valid: true };
            return None;
        }
        let delta = addr.distance(e.last_addr);
        e.last_addr = addr;
        if delta != 0 && delta == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = delta;
            e.confidence = 0;
            return None;
        }
        if e.confidence >= 2 {
            let target = Addr::new(addr.as_u64().wrapping_add_signed(e.stride));
            let line = target.line(line_bytes);
            if line != addr.line(line_bytes) {
                self.stats.record(false);
                return Some(line);
            }
        }
        None
    }

    /// Issue statistics.
    pub fn stats(&self) -> &PrefetchStats {
        &self.stats
    }

    /// Whether `self` and `other` would issue identical prefetches for
    /// any future load stream (statistics excluded).
    pub fn same_state(&self, other: &Self) -> bool {
        self.mask == other.mask && self.entries == other.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_dedups_within_line() {
        let mut nl = NextLineInstr::new();
        assert_eq!(nl.on_fetch(LineAddr::new(1)), Some(LineAddr::new(2)));
        assert_eq!(nl.on_fetch(LineAddr::new(1)), None);
        assert_eq!(nl.on_fetch(LineAddr::new(2)), Some(LineAddr::new(3)));
        // Returning to a previous line re-triggers (it is a new streak).
        assert_eq!(nl.on_fetch(LineAddr::new(1)), Some(LineAddr::new(2)));
        assert_eq!(nl.stats().issued, 3);
    }

    #[test]
    fn dcu_requires_four_touches() {
        let mut d = DcuNextLine::new();
        let a = LineAddr::new(10);
        for _ in 0..3 {
            assert_eq!(d.on_access(a), None);
        }
        assert_eq!(d.on_access(a), Some(a.next()));
        // Further accesses in the same streak stay quiet.
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(a), None);
    }

    #[test]
    fn dcu_tolerates_interleaving() {
        let mut d = DcuNextLine::new();
        let a = LineAddr::new(10);
        let b = LineAddr::new(20);
        // a's touches interleaved with b's must still trigger for a.
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(b), None);
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(b), None);
        assert_eq!(d.on_access(a), None);
        assert_eq!(d.on_access(a), Some(a.next()));
    }

    #[test]
    fn dcu_tracker_capacity_evicts_lru() {
        let mut d = DcuNextLine::new();
        let a = LineAddr::new(10);
        for _ in 0..3 {
            d.on_access(a);
        }
        // Four distinct newer lines evict a's entry.
        for i in 0..4 {
            d.on_access(LineAddr::new(100 + i));
        }
        // a starts from scratch: three touches are not enough.
        for _ in 0..3 {
            assert_eq!(d.on_access(a), None);
        }
        assert_eq!(d.on_access(a), Some(a.next()));
    }

    /// Reference model: the tracker as a `Vec` scanned with `find`,
    /// evicted with `min_by_key` + `swap_remove`, appended with `push`.
    /// The fixed-array tracker must match it step for step, slot order
    /// included.
    #[derive(Default)]
    struct VecDcu {
        entries: Vec<(LineAddr, u32, bool, u64)>,
        clock: u64,
    }

    impl VecDcu {
        fn on_access(&mut self, line: LineAddr) -> Option<LineAddr> {
            self.clock += 1;
            let clock = self.clock;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == line) {
                e.1 += 1;
                e.3 = clock;
                if e.1 >= DCU_THRESHOLD && !e.2 {
                    e.2 = true;
                    return Some(line.next());
                }
                return None;
            }
            if self.entries.len() == DCU_TRACKED {
                let lru = self.entries.iter().enumerate().min_by_key(|(_, e)| e.3).map(|(i, _)| i).unwrap();
                self.entries.swap_remove(lru);
            }
            self.entries.push((line, 1, false, clock));
            None
        }

        fn same_state(&self, other: &Self) -> bool {
            self.entries == other.entries && self.clock == other.clock
        }
    }

    /// A deterministic line stream over `span` lines, biased to revisit
    /// recent lines so streaks, triggers and evictions all happen.
    fn line_stream(seed: u64, span: u64, n: usize) -> Vec<LineAddr> {
        let mut x = seed | 1;
        let mut last = 0;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if !x.is_multiple_of(3) {
                    last = x % span;
                }
                LineAddr::new(last)
            })
            .collect()
    }

    #[test]
    fn dcu_matches_vec_reference_model() {
        for seed in 1..40 {
            let mut d = DcuNextLine::new();
            let mut r = VecDcu::default();
            for line in line_stream(seed, 3 + seed % 9, 400) {
                assert_eq!(d.on_access(line), r.on_access(line), "seed {seed}");
                let slots: Vec<_> = d.entries[..d.len]
                    .iter()
                    .map(|e| (e.line, e.touches, e.triggered, e.stamp))
                    .collect();
                assert_eq!(slots, r.entries, "seed {seed}: slot order");
            }
        }
    }

    /// The branch-free victim pick on its own: for every order of four
    /// distinct stamps, small and large, it names the slot `min_by_key`
    /// on the stamp does.
    #[test]
    fn dcu_victim_pick_is_the_min_stamp_slot() {
        let mut perms = vec![];
        for a in 0..4u64 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (0..4).filter(|&c| c != a && c != b) {
                    perms.push([a, b, c, 6 - a - b - c]);
                }
            }
        }
        assert_eq!(perms.len(), 24);
        for base in [1u64, 1 << 40, (1 << 61) - 64] {
            for perm in &perms {
                let mut d = DcuNextLine::new();
                d.len = DCU_TRACKED;
                for (e, &p) in d.entries.iter_mut().zip(perm) {
                    e.stamp = base + 7 * p;
                }
                let want = (0..DCU_TRACKED).min_by_key(|&i| d.entries[i].stamp).unwrap();
                assert_eq!(d.lru_slot(), want, "stamps {perm:?} over {base}");
            }
        }
    }

    /// Long streams over more lines than the tracker holds keep it full,
    /// so nearly every new line runs the victim pick; started from a
    /// large clock, the stamps exercise the pick's key range too.
    #[test]
    fn dcu_eviction_heavy_streams_match_vec_reference_model() {
        for seed in 1..20 {
            let mut d = DcuNextLine::new();
            let mut r = VecDcu::default();
            d.clock = 1 << 50;
            r.clock = 1 << 50;
            for line in line_stream(seed, 5 + seed % 6, 3000) {
                assert_eq!(d.on_access(line), r.on_access(line), "seed {seed}");
            }
            let slots: Vec<_> =
                d.entries[..d.len].iter().map(|e| (e.line, e.touches, e.triggered, e.stamp)).collect();
            assert_eq!(slots, r.entries, "seed {seed}: slot order");
        }
    }

    #[test]
    fn dcu_same_state_matches_vec_reference_model() {
        let streams: Vec<Vec<LineAddr>> = (1..12)
            .map(|seed| line_stream(seed, 6, 30 + (seed as usize % 3)))
            .chain([
                // Same line set and clock, different slot order.
                [1, 2, 3, 4].map(LineAddr::new).to_vec(),
                [2, 1, 3, 4].map(LineAddr::new).to_vec(),
                [1, 2, 3, 4, 5].map(LineAddr::new).to_vec(),
                [1, 2, 3, 4, 5].map(LineAddr::new).to_vec(),
            ])
            .collect();
        let run = |s: &[LineAddr]| {
            let mut d = DcuNextLine::new();
            let mut r = VecDcu::default();
            for &l in s {
                d.on_access(l);
                r.on_access(l);
            }
            (d, r)
        };
        let mut equal_pairs = 0;
        for a in &streams {
            for b in &streams {
                let ((da, ra), (db, rb)) = (run(a), run(b));
                assert_eq!(da.same_state(&db), ra.same_state(&rb), "{a:?} vs {b:?}");
                equal_pairs += usize::from(da.same_state(&db));
            }
        }
        assert!(equal_pairs > streams.len(), "some distinct streams must compare equal");
    }

    #[test]
    fn stride_learns_and_predicts() {
        let mut sp = StridePrefetcher::new(64);
        let pc = Addr::new(0x100);
        let mut addr = 0x1_0000u64;
        let mut fired = 0;
        for _ in 0..10 {
            if sp.on_load(pc, Addr::new(addr), 64).is_some() {
                fired += 1;
            }
            addr += 256;
        }
        assert!(fired >= 7, "stride should fire once confident, fired={fired}");
    }

    #[test]
    fn stride_ignores_random_streams() {
        let mut sp = StridePrefetcher::new(64);
        let pc = Addr::new(0x104);
        let addrs = [0x10u64, 0x9000, 0x44, 0x123456, 0x77, 0x9999];
        for a in addrs {
            assert_eq!(sp.on_load(pc, Addr::new(a), 64), None);
        }
    }

    #[test]
    fn stride_small_strides_within_line_do_not_fire() {
        let mut sp = StridePrefetcher::new(64);
        let pc = Addr::new(0x108);
        // Stride 8 within one 64-byte line: confident but same line, so no
        // prefetch until the pattern crosses a line boundary.
        let mut fired = 0;
        for i in 0..8 {
            if sp.on_load(pc, Addr::new(0x2000 + i * 8), 64).is_some() {
                fired += 1;
            }
        }
        assert!(fired <= 2, "fired={fired}");
    }

    #[test]
    fn stride_entries_conflict_by_index_tag() {
        let mut sp = StridePrefetcher::new(4);
        // Two PCs mapping to the same slot with different tags evict each
        // other; neither gets confident.
        let pc_a = Addr::new(0x100);
        let pc_b = Addr::new(0x100 + 4 * 4 * 4); // same low index bits
        for i in 0..6 {
            assert_eq!(sp.on_load(pc_a, Addr::new(0x1000 + i * 128), 64), None);
            assert_eq!(sp.on_load(pc_b, Addr::new(0x8000 + i * 128), 64), None);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn stride_rejects_non_power_of_two() {
        let _ = StridePrefetcher::new(100);
    }
}
