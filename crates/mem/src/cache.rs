//! A generic set-associative LRU cache with fill latency.

use crate::CacheConfig;
use esp_stats::CacheStats;
use esp_types::{Cycle, LineAddr};

/// The outcome of a demand access to a [`SetAssocCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessResult {
    /// The line was resident and its fill had completed; the payload is the
    /// configured hit latency.
    Hit(u64),
    /// The line was resident but its fill is still in flight; the payload
    /// is the remaining latency (at least the hit latency).
    PartialHit(u64),
    /// The line was absent.
    Miss,
}

impl AccessResult {
    /// The latency to charge for hit-class outcomes; `None` for misses.
    pub fn hit_latency(self) -> Option<u64> {
        match self {
            AccessResult::Hit(l) | AccessResult::PartialHit(l) => Some(l),
            AccessResult::Miss => None,
        }
    }

    /// True for both full and partial hits.
    pub fn is_hit(self) -> bool {
        !matches!(self, AccessResult::Miss)
    }
}

/// Metadata words per slot and their offsets within a slot's group:
/// 16 bytes, so with the allocator's 16-byte alignment a slot never
/// straddles a host cache line.
const META: usize = 2;
const M_READY: usize = 0;
/// `stamp << 1 | prefetched`. Stamps are distinct, so comparing whole
/// words orders slots exactly as comparing the stamps would.
const M_STAMP: usize = 1;

/// A set-associative cache with true-LRU replacement and per-line fill
/// latency.
///
/// Lines are indexed by [`LineAddr`]; the set index is the low bits of the
/// line address and the tag is the rest, so the structure works for any
/// power-of-two set count. The cache does not store data — only presence,
/// which is all a timing model needs.
///
/// Internally the ways are split into a flat tag array (the only array a
/// lookup scans) and one interleaved per-slot metadata array (ready
/// cycle, LRU stamp with the prefetch bit folded in) consulted only on a
/// hit. The tag array encodes validity in bit 0 (`(tag << 1) | 1`; `0` =
/// invalid), so the hot way-scan is a branchless equality sweep over
/// adjacent `u64`s with no per-way `valid` test and no early exit; the
/// metadata interleave keeps the subsequent bookkeeping on a single host
/// cache line.
///
/// # Examples
///
/// ```
/// use esp_mem::{AccessResult, CacheConfig, SetAssocCache};
/// use esp_types::{Cycle, LineAddr};
///
/// let mut c = SetAssocCache::new(CacheConfig::l1_32k("L1-D"));
/// let line = LineAddr::new(77);
/// assert_eq!(c.access(line, Cycle::ZERO), AccessResult::Miss);
/// c.fill(line, Cycle::new(101), false);
/// // An access at cycle 10 arrives 91 cycles before the fill completes.
/// assert_eq!(c.access(line, Cycle::new(10)), AccessResult::PartialHit(91));
/// assert_eq!(c.access(line, Cycle::new(200)), AccessResult::Hit(2));
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// `(tag << 1) | 1` when valid, `0` when invalid; `sets × ways` flat,
    /// way-major within a set.
    tags: Vec<u64>,
    /// Per-slot metadata, [`META`] `u64` words per slot, interleaved so a
    /// hit touches one host cache line instead of scattered arrays:
    /// `[ready, stamp << 1 | prefetched]`. `ready` is the raw [`Cycle`]
    /// at which the slot's fill completes (a demand access before it is
    /// a partial hit charged the remaining latency); the stamp is the
    /// LRU stamp, larger is more recent; the `prefetched` bit is set
    /// while the line was brought in by a prefetcher and not yet touched
    /// by a demand access. A slot's words are read only while its tag is
    /// valid (every install rewrites both), so emptying the cache clears
    /// tags alone. Kept as plain zeroes-at-rest `u64`s so
    /// construction goes through `calloc` and untouched pages stay
    /// lazily mapped.
    meta: Vec<u64>,
    set_mask: u64,
    /// `log2(sets)`: the shift from a line address to its tag.
    set_bits: u32,
    ways: usize,
    next_stamp: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid cache configuration");
        let sets = config.sets() as usize;
        let ways = config.ways as usize;
        let slots = sets * ways;
        SetAssocCache {
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            tags: vec![0; slots],
            meta: vec![0; slots * META],
            ways,
            config,
            next_stamp: 1,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated access statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (not contents) — used at warm-up boundaries.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Index of the first way of `line`'s set in the flat arrays.
    #[inline(always)]
    fn set_base(&self, line: LineAddr) -> usize {
        (line.as_u64() & self.set_mask) as usize * self.ways
    }

    /// The valid-encoded tag `line` would be stored under.
    #[inline(always)]
    fn key(&self, line: LineAddr) -> u64 {
        ((line.as_u64() >> self.set_bits) << 1) | 1
    }

    /// Scans every way of the set for `key` with no early exit: the loop
    /// body is a compare and a conditional move, so the compiler keeps it
    /// branch-free and the L1 hit path never mispredicts on way position.
    /// At most one way can match (fills never duplicate a tag).
    #[inline(always)]
    fn find_way(&self, base: usize, key: u64) -> Option<usize> {
        let mut hit = usize::MAX;
        for (w, &t) in self.tags[base..base + self.ways].iter().enumerate() {
            if t == key {
                hit = w;
            }
        }
        (hit != usize::MAX).then(|| base + hit)
    }

    /// Performs a demand access: updates LRU, statistics, and the
    /// prefetched bit, and returns the latency class.
    pub fn access(&mut self, line: LineAddr, now: Cycle) -> AccessResult {
        self.demand_lookup(line, now)
    }

    /// The body of [`SetAssocCache::access`], forced inline. The demand
    /// hierarchy inlines it into its L1 accesses so a hit costs one tag
    /// sweep and no call; everything else goes through `access`, which
    /// keeps it out of line.
    #[inline(always)]
    pub(crate) fn demand_lookup(&mut self, line: LineAddr, now: Cycle) -> AccessResult {
        let base = self.set_base(line);
        let key = self.key(line);
        let stamp = self.bump_stamp();
        let hit_latency = self.config.hit_latency;
        if let Some(idx) = self.find_way(base, key) {
            let m = idx * META;
            // A demand touch clears the prefetched bit; the first one
            // after a prefetch fill counts it as useful.
            self.stats.prefetch_useful += self.meta[m + M_STAMP] & 1;
            self.meta[m + M_STAMP] = stamp << 1;
            let ready = Cycle::new(self.meta[m + M_READY]);
            return if ready.is_after(now) {
                let remaining = (ready - now).max(hit_latency);
                self.stats.partial_hits += 1;
                AccessResult::PartialHit(remaining)
            } else {
                self.stats.hits += 1;
                AccessResult::Hit(hit_latency)
            };
        }
        self.stats.misses += 1;
        AccessResult::Miss
    }

    /// Checks for residency without disturbing LRU state, statistics, or
    /// the prefetched bit. Used by prefetch-redundancy checks and by the
    /// ESP bypass path, which must not pollute demand state (§3.4).
    pub fn probe(&self, line: LineAddr) -> bool {
        self.find_way(self.set_base(line), self.key(line)).is_some()
    }

    /// Residency of the `n` consecutive lines starting at `start`, as a
    /// bitmask (bit `k` set when `start + k` is resident) — the batched
    /// form of [`SetAssocCache::probe`]. One contiguous tag-compare
    /// sweep per line with no early exit, like the internal way lookup:
    /// the whole run resolves with no data-dependent branches, where `n`
    /// scalar probes would branch on every outcome. Like `probe`, it
    /// disturbs no LRU state, statistics, or prefetched bits.
    ///
    /// Used by the replay prefetch kernels, which probe a whole I/D-list
    /// run record ahead of filling it. `n` must be at most 64.
    pub fn probe_run(&self, start: LineAddr, n: u64) -> u64 {
        debug_assert!(n <= 64);
        let mut mask = 0u64;
        for k in 0..n {
            let line = LineAddr::new(start.as_u64() + k);
            let base = self.set_base(line);
            let key = self.key(line);
            let mut hit = 0u64;
            for &t in &self.tags[base..base + self.ways] {
                hit |= u64::from(t == key);
            }
            mask |= hit << k;
        }
        mask
    }

    /// Inserts `line`, evicting the LRU way if the set is full. `ready` is
    /// the cycle at which the fill data arrives; `prefetched` marks
    /// prefetcher-initiated fills.
    ///
    /// Filling an already-resident line refreshes its LRU stamp and only
    /// moves `ready` *earlier* (a demand fill can expedite a lazy prefetch,
    /// never delay an earlier fill).
    pub fn fill(&mut self, line: LineAddr, ready: Cycle, prefetched: bool) {
        let base = self.set_base(line);
        let key = self.key(line);
        let stamp = self.bump_stamp();
        if let Some(idx) = self.find_way(base, key) {
            let m = idx * META;
            self.meta[m + M_STAMP] = stamp << 1 | (self.meta[m + M_STAMP] & 1);
            if ready.as_u64() < self.meta[m + M_READY] {
                self.meta[m + M_READY] = ready.as_u64();
            }
            return;
        }
        self.install(base, key, stamp, ready, prefetched);
    }

    /// [`SetAssocCache::fill`] of a line the caller has just seen miss
    /// (an [`SetAssocCache::access`] returning [`AccessResult::Miss`] with
    /// no install in between): the set cannot hold it, so the tag sweep is
    /// skipped and the fill goes straight to the victim search. Leaves the
    /// cache exactly as `fill` would.
    ///
    /// Filling a resident line this way would duplicate its tag; debug
    /// builds assert against it.
    pub fn fill_absent(&mut self, line: LineAddr, ready: Cycle, prefetched: bool) {
        debug_assert!(!self.probe(line), "fill_absent of a resident line");
        let base = self.set_base(line);
        let key = self.key(line);
        let stamp = self.bump_stamp();
        self.install(base, key, stamp, ready, prefetched);
    }

    /// Installs `key` over the LRU victim of the set at `base` (invalid
    /// ways first).
    #[inline(always)]
    fn install(&mut self, base: usize, key: u64, stamp: u64, ready: Cycle, prefetched: bool) {
        self.stats.prefetch_fills += u64::from(prefetched);
        let victim = self.lru_victim(base);
        self.tags[victim] = key;
        let m = victim * META;
        self.meta[m + M_READY] = ready.as_u64();
        self.meta[m + M_STAMP] = stamp << 1 | u64::from(prefetched);
    }

    /// The slot a fill of the set at `base` replaces: the first way with
    /// the minimal (invalid ? 0 : stamp word) key — invalid ways first,
    /// then the least recently used. Valid stamp words are at least 2, so
    /// an invalid way always wins.
    ///
    /// The set's tags and metadata are sliced once, so the sweep carries
    /// no per-way bounds check; the minimum is kept with conditional
    /// moves.
    #[inline]
    fn lru_victim(&self, base: usize) -> usize {
        let tags = &self.tags[base..base + self.ways];
        let meta = &self.meta[base * META..(base + self.ways) * META];
        let mut victim = 0;
        let mut best = u64::MAX;
        for (w, (&t, m)) in tags.iter().zip(meta.chunks_exact(META)).enumerate() {
            let k = if t != 0 { m[M_STAMP] } else { 0 };
            if k < best {
                best = k;
                victim = w;
            }
        }
        base + victim
    }

    /// Functional-warming access: one set scan that refreshes the LRU
    /// stamp on a hit and installs over the LRU victim on a miss, exactly
    /// as a probe followed by an instant fill would — but without the
    /// second scan, and with no statistics and no prefetched-bit changes.
    /// Returns whether the line was absent.
    ///
    /// The tag probe and hit bookkeeping inline into the warm walk; the
    /// victim search of a miss stays out of line.
    #[inline(always)]
    pub fn warm_touch(&mut self, line: LineAddr, now: Cycle) -> bool {
        let base = self.set_base(line);
        let key = self.key(line);
        let stamp = self.bump_stamp();
        match self.find_way(base, key) {
            Some(idx) => {
                let m = &mut self.meta[idx * META..idx * META + META];
                m[M_STAMP] = stamp << 1 | (m[M_STAMP] & 1);
                m[M_READY] = m[M_READY].min(now.as_u64());
                false
            }
            None => {
                self.warm_install(base, key, stamp, now);
                true
            }
        }
    }

    /// The miss half of [`SetAssocCache::warm_touch`]: installs `key`
    /// over the set's LRU victim (invalid ways first) as a settled,
    /// demand-owned line.
    #[inline(never)]
    fn warm_install(&mut self, base: usize, key: u64, stamp: u64, now: Cycle) {
        self.install(base, key, stamp, now, false);
    }

    /// Behavioural equality: whether `self` and `other` respond
    /// identically to every possible access sequence issued at or after
    /// `ref_now`.
    ///
    /// Raw LRU stamps are *not* comparable across a functionally-warmed
    /// cache and a detailed one (a detailed demand miss burns a stamp on
    /// the access and another on the fill, where a warm touch burns one),
    /// but the victim choice only depends on each set's stamp *rank
    /// order* — stamps are drawn from a strictly increasing counter, so
    /// valid ways never tie and any new stamp exceeds all existing ones.
    /// Likewise the exact `ready` cycle of a line that settled before
    /// `ref_now` can never matter again (fills only move `ready`
    /// earlier). So two caches are behaviourally equal iff each set
    /// holds the same valid lines, in the same recency order, with the
    /// same prefetched bits, and agrees on which fills are still in
    /// flight (and when those complete). Statistics are excluded.
    pub fn same_state(&self, other: &Self, ref_now: Cycle) -> bool {
        if self.set_mask != other.set_mask || self.ways != other.ways {
            return false;
        }
        let sets = (self.set_mask + 1) as usize;
        // Scratch for one set's (stamp, way-index) pairs, recency-sorted.
        let mut a: Vec<(u64, usize)> = Vec::with_capacity(self.ways);
        let mut b: Vec<(u64, usize)> = Vec::with_capacity(self.ways);
        for set in 0..sets {
            let base = set * self.ways;
            a.clear();
            b.clear();
            for w in 0..self.ways {
                if self.tags[base + w] != 0 {
                    a.push((self.meta[(base + w) * META + M_STAMP], base + w));
                }
                if other.tags[base + w] != 0 {
                    b.push((other.meta[(base + w) * META + M_STAMP], base + w));
                }
            }
            if a.len() != b.len() {
                return false;
            }
            a.sort_unstable();
            b.sort_unstable();
            for (&(_, ia), &(_, ib)) in a.iter().zip(&b) {
                if self.tags[ia] != other.tags[ib] {
                    return false;
                }
                let ma = ia * META;
                let mb = ib * META;
                if (self.meta[ma + M_STAMP] ^ other.meta[mb + M_STAMP]) & 1 != 0 {
                    return false;
                }
                let ra = self.meta[ma + M_READY];
                let rb = other.meta[mb + M_READY];
                let in_flight_a = ra > ref_now.as_u64();
                let in_flight_b = rb > ref_now.as_u64();
                if in_flight_a != in_flight_b || (in_flight_a && ra != rb) {
                    return false;
                }
            }
        }
        true
    }

    /// Drops `line` if resident. Returns whether it was present.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        match self.find_way(self.set_base(line), self.key(line)) {
            Some(idx) => {
                self.tags[idx] = 0;
                self.meta[idx * META..idx * META + META].fill(0);
                true
            }
            None => false,
        }
    }

    /// Empties the cache (contents only; statistics are preserved). Only
    /// the tag array is cleared (see the `meta` field).
    pub fn flush(&mut self) {
        self.tags.fill(0);
    }

    /// Returns the cache to its just-constructed state — empty, stamp
    /// counter and statistics reset — at the cost of a tag-array clear
    /// (see [`SetAssocCache::flush`]) instead of a new allocation.
    pub fn reset(&mut self) {
        self.flush();
        self.next_stamp = 1;
        self.stats = CacheStats::default();
    }

    /// The number of currently valid lines.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&t| t != 0).count()
    }

    #[inline(always)]
    fn bump_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets × 2 ways × 64 B = 256 B.
        SetAssocCache::new(CacheConfig {
            name: "tiny".into(),
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency: 2,
        })
    }

    /// Lines that all map to set 0 of the tiny cache.
    fn set0(n: u64) -> LineAddr {
        LineAddr::new(n * 2)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        let l = set0(1);
        assert_eq!(c.access(l, Cycle::ZERO), AccessResult::Miss);
        c.fill(l, Cycle::ZERO, false);
        assert_eq!(c.access(l, Cycle::new(5)), AccessResult::Hit(2));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        let (a, b, d) = (set0(1), set0(2), set0(3));
        c.fill(a, Cycle::ZERO, false);
        c.fill(b, Cycle::ZERO, false);
        // Touch a so b becomes LRU.
        assert!(c.access(a, Cycle::new(1)).is_hit());
        c.fill(d, Cycle::ZERO, false);
        assert!(c.probe(a), "MRU line survived");
        assert!(!c.probe(b), "LRU line evicted");
        assert!(c.probe(d));
    }

    #[test]
    fn partial_hit_charges_remaining_latency() {
        let mut c = tiny();
        let l = set0(1);
        c.fill(l, Cycle::new(100), false);
        assert_eq!(c.access(l, Cycle::new(40)), AccessResult::PartialHit(60));
        assert_eq!(c.stats().partial_hits, 1);
        // After completion it is a plain hit.
        assert_eq!(c.access(l, Cycle::new(100)), AccessResult::Hit(2));
    }

    #[test]
    fn partial_hit_is_at_least_hit_latency() {
        let mut c = tiny();
        let l = set0(1);
        c.fill(l, Cycle::new(10), false);
        assert_eq!(c.access(l, Cycle::new(9)), AccessResult::PartialHit(2));
    }

    #[test]
    fn refill_only_moves_ready_earlier() {
        let mut c = tiny();
        let l = set0(1);
        c.fill(l, Cycle::new(50), false);
        c.fill(l, Cycle::new(200), false);
        assert_eq!(c.access(l, Cycle::new(60)), AccessResult::Hit(2));
        c.fill(l, Cycle::new(30), false);
        // Demoting ready below an elapsed point changes nothing further.
        assert_eq!(c.access(l, Cycle::new(60)), AccessResult::Hit(2));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        let (a, b, d) = (set0(1), set0(2), set0(3));
        c.fill(a, Cycle::ZERO, false);
        c.fill(b, Cycle::ZERO, false);
        // Probing a must NOT refresh it; a is LRU and should be evicted.
        assert!(c.probe(a));
        c.fill(d, Cycle::ZERO, false);
        assert!(!c.probe(a));
        assert!(c.probe(b));
    }

    #[test]
    fn prefetch_accounting() {
        let mut c = tiny();
        let l = set0(1);
        c.fill(l, Cycle::ZERO, true);
        assert_eq!(c.stats().prefetch_fills, 1);
        assert!(c.access(l, Cycle::new(1)).is_hit());
        assert_eq!(c.stats().prefetch_useful, 1);
        // Second touch does not double-count.
        assert!(c.access(l, Cycle::new(2)).is_hit());
        assert_eq!(c.stats().prefetch_useful, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = tiny();
        let l = set0(1);
        c.fill(l, Cycle::ZERO, false);
        assert!(c.invalidate(l));
        assert!(!c.invalidate(l));
        assert!(!c.probe(l));
        c.fill(l, Cycle::ZERO, false);
        c.fill(set0(2), Cycle::ZERO, false);
        assert_eq!(c.occupancy(), 2);
        c.flush();
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        // Lines 0..4 cover both sets twice; all four fit.
        for i in 0..4 {
            c.fill(LineAddr::new(i), Cycle::ZERO, false);
        }
        assert_eq!(c.occupancy(), 4);
        for i in 0..4 {
            assert!(c.probe(LineAddr::new(i)));
        }
    }

    #[test]
    fn access_result_helpers() {
        assert_eq!(AccessResult::Hit(2).hit_latency(), Some(2));
        assert_eq!(AccessResult::PartialHit(60).hit_latency(), Some(60));
        assert_eq!(AccessResult::Miss.hit_latency(), None);
        assert!(AccessResult::Hit(2).is_hit());
        assert!(!AccessResult::Miss.is_hit());
    }

    #[test]
    fn tag_zero_line_is_storable() {
        // Line address 0 encodes to key 1, not the invalid sentinel 0, so
        // the valid-in-bit-0 scheme must store and find it.
        let mut c = tiny();
        let l = LineAddr::new(0);
        assert!(!c.probe(l));
        c.fill(l, Cycle::ZERO, false);
        assert!(c.probe(l));
        assert!(c.access(l, Cycle::new(1)).is_hit());
        assert!(c.invalidate(l));
        assert!(!c.probe(l));
    }

    #[test]
    fn eviction_prefers_invalid_ways() {
        let mut c = tiny();
        let (a, b, d) = (set0(1), set0(2), set0(3));
        c.fill(a, Cycle::ZERO, false);
        c.fill(b, Cycle::ZERO, false);
        // Invalidate the MRU way; the next fill must take the freed slot,
        // not evict the valid LRU line.
        assert!(c.invalidate(b));
        c.fill(d, Cycle::ZERO, false);
        assert!(c.probe(a), "valid line survived an invalid-way fill");
        assert!(c.probe(d));
    }
}
