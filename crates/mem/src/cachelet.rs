//! The ESP L0 cachelets (§3.4, §4.2).
//!
//! During ESP pre-execution all instruction fetches and data accesses are
//! served by small "cachelets" that bypass the L1/L2 entirely: speculative
//! stores stay private, demand state is not polluted, and the pre-executed
//! event's working set survives the control bouncing between normal and
//! ESP modes.
//!
//! Physically a cachelet is one 12-way, 8-set (6 KB) structure shared by
//! the two ESP modes: one way is *reserved* for ESP-2 (0.5 KB) and the
//! other eleven belong to ESP-1 (5.5 KB). When the current event finishes
//! and the ESP-2 event is promoted to ESP-1, the reserved way flips to the
//! opposite end of the set so the promoted event keeps its lines and gains
//! ten more ways.

use crate::AccessResult;
use esp_stats::CacheStats;
use esp_types::{Cycle, LineAddr};

/// Which ESP mode an access belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CacheletSlot {
    /// One event ahead (jump-ahead depth 1).
    Esp1,
    /// Two events ahead (jump-ahead depth 2).
    Esp2,
}

#[derive(Clone, Copy, Debug)]
struct Line {
    tag: u64,
    valid: bool,
    ready: Cycle,
    stamp: u64,
}

const INVALID: Line = Line { tag: 0, valid: false, ready: Cycle::ZERO, stamp: 0 };

/// Total associativity of the shared structure.
pub(crate) const CACHELET_WAYS: usize = 12;
/// Number of sets (6 KB / 64 B / 12 ways).
pub(crate) const CACHELET_SETS: usize = 8;

/// A 6 KB, 12-way, way-partitioned ESP cachelet (instruction or data).
///
/// # Examples
///
/// ```
/// use esp_mem::{Cachelet, CacheletSlot};
/// use esp_types::{Cycle, LineAddr};
///
/// let mut c = Cachelet::new(2);
/// let l = LineAddr::new(3);
/// assert!(!c.access(CacheletSlot::Esp1, l, Cycle::ZERO).is_hit());
/// c.fill(CacheletSlot::Esp1, l, Cycle::ZERO);
/// assert!(c.access(CacheletSlot::Esp1, l, Cycle::new(1)).is_hit());
/// // The fill is invisible to ESP-2 — the slots are isolated.
/// assert!(!c.access(CacheletSlot::Esp2, l, Cycle::new(1)).is_hit());
/// ```
#[derive(Clone, Debug)]
pub struct Cachelet {
    sets: Vec<[Line; CACHELET_WAYS]>,
    /// The way reserved for ESP-2; alternates between 0 and
    /// `CACHELET_WAYS - 1` on rotation.
    reserved_way: usize,
    hit_latency: u64,
    next_stamp: u64,
    stats_esp1: CacheStats,
    stats_esp2: CacheStats,
}

impl Cachelet {
    /// Creates an empty cachelet with the given hit latency (the paper
    /// uses 2 cycles, Fig. 8).
    pub fn new(hit_latency: u64) -> Self {
        Cachelet {
            sets: vec![[INVALID; CACHELET_WAYS]; CACHELET_SETS],
            reserved_way: CACHELET_WAYS - 1,
            hit_latency,
            next_stamp: 1,
            stats_esp1: CacheStats::default(),
            stats_esp2: CacheStats::default(),
        }
    }

    /// Lines available to a slot (88 for ESP-1, 8 for ESP-2).
    pub fn capacity_lines(&self, slot: CacheletSlot) -> usize {
        match slot {
            CacheletSlot::Esp1 => (CACHELET_WAYS - 1) * CACHELET_SETS,
            CacheletSlot::Esp2 => CACHELET_SETS,
        }
    }

    /// Capacity in bytes for a slot, assuming 64-byte lines.
    pub fn capacity_bytes(&self, slot: CacheletSlot) -> usize {
        self.capacity_lines(slot) * 64
    }

    /// Accumulated statistics for a slot.
    pub fn stats(&self, slot: CacheletSlot) -> &CacheStats {
        match slot {
            CacheletSlot::Esp1 => &self.stats_esp1,
            CacheletSlot::Esp2 => &self.stats_esp2,
        }
    }

    /// Whether way `w` belongs to `slot` under the current partition.
    #[inline(always)]
    fn owns(reserved: usize, slot: CacheletSlot, w: usize) -> bool {
        match slot {
            CacheletSlot::Esp1 => w != reserved,
            CacheletSlot::Esp2 => w == reserved,
        }
    }

    fn ways_of(&self, slot: CacheletSlot) -> impl Iterator<Item = usize> {
        let reserved = self.reserved_way;
        (0..CACHELET_WAYS).filter(move |&w| Self::owns(reserved, slot, w))
    }

    #[inline]
    fn set_index(line: LineAddr) -> usize {
        (line.as_u64() % CACHELET_SETS as u64) as usize
    }

    #[inline]
    fn tag(line: LineAddr) -> u64 {
        line.as_u64() / CACHELET_SETS as u64
    }

    /// Accesses `line` on behalf of a slot, updating LRU and statistics.
    pub fn access(&mut self, slot: CacheletSlot, line: LineAddr, now: Cycle) -> AccessResult {
        let si = Self::set_index(line);
        let tag = Self::tag(line);
        let stamp = self.bump_stamp();
        let hit_latency = self.hit_latency;
        let reserved = self.reserved_way;
        let set = &mut self.sets[si];
        let mut result = AccessResult::Miss;
        for (w, way) in set.iter_mut().enumerate() {
            if !Self::owns(reserved, slot, w) {
                continue;
            }
            if way.valid && way.tag == tag {
                way.stamp = stamp;
                result = if way.ready.is_after(now) {
                    AccessResult::PartialHit((way.ready - now).max(hit_latency))
                } else {
                    AccessResult::Hit(hit_latency)
                };
                break;
            }
        }
        let stats = self.stats_mut(slot);
        match result {
            AccessResult::Hit(_) => stats.hits += 1,
            AccessResult::PartialHit(_) => stats.partial_hits += 1,
            AccessResult::Miss => stats.misses += 1,
        }
        result
    }

    /// Fills `line` into a slot's partition, evicting its LRU way.
    pub fn fill(&mut self, slot: CacheletSlot, line: LineAddr, ready: Cycle) {
        let si = Self::set_index(line);
        let tag = Self::tag(line);
        let stamp = self.bump_stamp();
        let reserved = self.reserved_way;
        let set = &mut self.sets[si];
        // One pass finds both the resident way (if any) and the LRU
        // victim among the slot's ways.
        let mut victim = usize::MAX;
        let mut best = u64::MAX;
        for (w, way) in set.iter_mut().enumerate() {
            if !Self::owns(reserved, slot, w) {
                continue;
            }
            if way.valid && way.tag == tag {
                way.stamp = stamp;
                if ready < way.ready {
                    way.ready = ready;
                }
                return;
            }
            let k = if way.valid { way.stamp } else { 0 };
            if k < best {
                best = k;
                victim = w;
            }
        }
        assert!(victim != usize::MAX, "slot partitions are never empty");
        set[victim] = Line { tag, valid: true, ready, stamp };
    }

    /// Event-completion rotation (§4.2): the ESP-2 event is promoted to
    /// ESP-1 *keeping its reserved way's contents*, and the way at the
    /// opposite end of the set becomes the new (invalidated) ESP-2 way.
    pub fn rotate(&mut self) {
        let new_reserved = if self.reserved_way == 0 { CACHELET_WAYS - 1 } else { 0 };
        for set in &mut self.sets {
            set[new_reserved] = INVALID;
        }
        self.reserved_way = new_reserved;
    }

    /// Empties both partitions (used when speculation is squashed).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.fill(INVALID);
        }
    }

    /// Currently valid lines in a slot's partition.
    pub fn occupancy(&self, slot: CacheletSlot) -> usize {
        let ways: Vec<usize> = self.ways_of(slot).collect();
        self.sets
            .iter()
            .map(|set| ways.iter().filter(|&&w| set[w].valid).count())
            .sum()
    }

    fn stats_mut(&mut self, slot: CacheletSlot) -> &mut CacheStats {
        match slot {
            CacheletSlot::Esp1 => &mut self.stats_esp1,
            CacheletSlot::Esp2 => &mut self.stats_esp2,
        }
    }

    fn bump_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacities_match_fig8() {
        let c = Cachelet::new(2);
        assert_eq!(c.capacity_lines(CacheletSlot::Esp1), 88);
        assert_eq!(c.capacity_bytes(CacheletSlot::Esp1), 5632); // 5.5 KB
        assert_eq!(c.capacity_lines(CacheletSlot::Esp2), 8);
        assert_eq!(c.capacity_bytes(CacheletSlot::Esp2), 512); // 0.5 KB
    }

    #[test]
    fn slots_are_isolated() {
        let mut c = Cachelet::new(2);
        let l = LineAddr::new(16);
        c.fill(CacheletSlot::Esp1, l, Cycle::ZERO);
        assert!(c.access(CacheletSlot::Esp1, l, Cycle::new(1)).is_hit());
        assert!(!c.access(CacheletSlot::Esp2, l, Cycle::new(1)).is_hit());
        let l2 = LineAddr::new(24);
        c.fill(CacheletSlot::Esp2, l2, Cycle::ZERO);
        assert!(c.access(CacheletSlot::Esp2, l2, Cycle::new(1)).is_hit());
        assert!(!c.access(CacheletSlot::Esp1, l2, Cycle::new(1)).is_hit());
    }

    #[test]
    fn esp2_partition_is_one_way() {
        let mut c = Cachelet::new(2);
        // Two lines mapping to the same set: the second evicts the first
        // in ESP-2's single way.
        let a = LineAddr::new(0);
        let b = LineAddr::new(8);
        c.fill(CacheletSlot::Esp2, a, Cycle::ZERO);
        c.fill(CacheletSlot::Esp2, b, Cycle::ZERO);
        assert!(!c.access(CacheletSlot::Esp2, a, Cycle::new(1)).is_hit());
        assert!(c.access(CacheletSlot::Esp2, b, Cycle::new(1)).is_hit());
    }

    #[test]
    fn esp1_partition_holds_eleven_conflicting_lines() {
        let mut c = Cachelet::new(2);
        let lines: Vec<LineAddr> = (0..11).map(|i| LineAddr::new(i * 8)).collect();
        for &l in &lines {
            c.fill(CacheletSlot::Esp1, l, Cycle::ZERO);
        }
        for &l in &lines {
            assert!(c.access(CacheletSlot::Esp1, l, Cycle::new(1)).is_hit());
        }
        // A twelfth conflicting line evicts the LRU one.
        c.fill(CacheletSlot::Esp1, LineAddr::new(11 * 8), Cycle::ZERO);
        assert!(!c.access(CacheletSlot::Esp1, lines[0], Cycle::new(2)).is_hit());
    }

    #[test]
    fn rotation_promotes_esp2_contents() {
        let mut c = Cachelet::new(2);
        let l = LineAddr::new(16);
        c.fill(CacheletSlot::Esp2, l, Cycle::ZERO);
        c.rotate();
        // The promoted event (now ESP-1) still sees its line.
        assert!(c.access(CacheletSlot::Esp1, l, Cycle::new(1)).is_hit());
        // The fresh ESP-2 partition is empty.
        assert_eq!(c.occupancy(CacheletSlot::Esp2), 0);
    }

    #[test]
    fn rotation_clears_new_esp2_way_only() {
        let mut c = Cachelet::new(2);
        // Fill ESP-1 fully in one set; after rotation exactly one way's
        // line (the newly reserved way at the opposite end) is lost.
        for i in 0..11 {
            c.fill(CacheletSlot::Esp1, LineAddr::new(i * 8), Cycle::ZERO);
        }
        assert_eq!(c.occupancy(CacheletSlot::Esp1), 11);
        c.rotate();
        // ESP-1 keeps 11 ways (the old reserved way joins, the new one
        // leaves); at most one line was invalidated.
        assert!(c.occupancy(CacheletSlot::Esp1) >= 10);
        assert_eq!(c.occupancy(CacheletSlot::Esp2), 0);
    }

    #[test]
    fn double_rotation_round_trips_reserved_way() {
        let mut c = Cachelet::new(2);
        c.rotate();
        c.rotate();
        assert_eq!(c.reserved_way, CACHELET_WAYS - 1);
    }

    #[test]
    fn partial_hits_in_cachelet() {
        let mut c = Cachelet::new(2);
        let l = LineAddr::new(5);
        c.fill(CacheletSlot::Esp1, l, Cycle::new(101));
        assert_eq!(
            c.access(CacheletSlot::Esp1, l, Cycle::new(1)),
            AccessResult::PartialHit(100)
        );
        assert_eq!(c.stats(CacheletSlot::Esp1).partial_hits, 1);
    }

    #[test]
    fn flush_empties_everything() {
        let mut c = Cachelet::new(2);
        c.fill(CacheletSlot::Esp1, LineAddr::new(1), Cycle::ZERO);
        c.fill(CacheletSlot::Esp2, LineAddr::new(2), Cycle::ZERO);
        c.flush();
        assert_eq!(c.occupancy(CacheletSlot::Esp1), 0);
        assert_eq!(c.occupancy(CacheletSlot::Esp2), 0);
    }
}
