//! The three-level demand hierarchy.

use crate::{AccessResult, HierarchyConfig, SetAssocCache};
use esp_stats::CacheStats;
use esp_types::{Cycle, LineAddr};

/// Per-level demand/prefetch counters sampled at one instant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HierarchySnapshot {
    /// The instruction L1's counters.
    pub l1i: CacheStats,
    /// The data L1's counters.
    pub l1d: CacheStats,
    /// The unified L2/LLC's counters.
    pub l2: CacheStats,
}

/// Which level of the hierarchy served an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MemLevel {
    /// Served by the L1 (instruction or data).
    L1,
    /// Served by the unified L2 (the last-level cache).
    L2,
    /// Served by DRAM — an LLC miss.
    Memory,
}

/// The result of one demand access through the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServedAccess {
    /// Total latency in cycles, as seen by the requesting instruction.
    pub latency: u64,
    /// The level that provided the line.
    pub level: MemLevel,
    /// True when the access missed the last-level cache — the trigger
    /// condition for both runahead and ESP mode entry.
    pub llc_miss: bool,
    /// True when the L1 lookup itself missed (full miss or in-flight
    /// partial hit) — what L1 MPKI counts.
    pub l1_miss: bool,
}

/// Which L1 an operation goes through: the instruction port (L1-I) or
/// the data port (L1-D). Both ports share the L2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Port {
    /// The instruction port: fetches and I-side prefetches, via L1-I.
    Instr,
    /// The data port: loads, stores and D-side prefetches, via L1-D.
    Data,
}

impl Port {
    /// Both ports, instruction first.
    pub const BOTH: [Port; 2] = [Port::Instr, Port::Data];

    /// The port's index into per-port arrays: 0 for instructions, 1 for
    /// data.
    #[inline(always)]
    pub const fn idx(self) -> usize {
        self as usize
    }
}

/// One recorded mutation of a [`MemoryHierarchy`], with its observed
/// result.
///
/// Every state-changing entry point of the hierarchy appends one op when
/// recording is enabled (see [`MemoryHierarchy::set_recording`]), so an
/// op log replayed in order against a fresh hierarchy of the same
/// configuration must reproduce the original per-op results and final
/// statistics exactly. The `esp-check` differential oracle relies on
/// this: any hidden mutation path or nondeterminism shows up as a replay
/// divergence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOp {
    /// A demand access and the result it returned.
    Access {
        /// The port the access went through.
        port: Port,
        /// The accessed line.
        line: LineAddr,
        /// Access time.
        now: Cycle,
        /// Whether the access was a store (never on the instruction port).
        store: bool,
        /// The result the real hierarchy returned.
        served: ServedAccess,
    },
    /// A prefetch request.
    Prefetch {
        /// The port whose L1 the request targets.
        port: Port,
        /// The prefetched line.
        line: LineAddr,
        /// Request time.
        now: Cycle,
        /// Whether the line was installed in the port's L1 as well as L2.
        into_l1: bool,
        /// Whether the request was non-redundant.
        issued: bool,
    },
    /// An idealised zero-latency prefetch.
    PrefetchInstant {
        /// The port whose L1 the line was installed in.
        port: Port,
        /// The prefetched line.
        line: LineAddr,
        /// Fill time.
        now: Cycle,
    },
    /// Statistics were reset.
    ResetStats,
}

/// The L1-I/L1-D/L2/DRAM demand path, with prefetch entry points.
///
/// Every operation names the [`Port`] it goes through; the two L1s share
/// the L2. Fills performed on behalf of demand accesses complete
/// `latency` cycles after the access; prefetch fills complete after the
/// latency of the level the line was found in. Either way, an access that
/// arrives before the fill completes is charged only the remaining
/// latency (see [`SetAssocCache`]).
///
/// # Examples
///
/// ```
/// use esp_mem::{HierarchyConfig, MemLevel, MemoryHierarchy, Port};
/// use esp_types::{Addr, Cycle};
///
/// let mut mem = MemoryHierarchy::new(HierarchyConfig::exynos5250());
/// let line = Addr::new(0x8000).line(64);
/// let r = mem.access(Port::Instr, line, Cycle::ZERO, false);
/// assert_eq!(r.level, MemLevel::Memory);
/// let r = mem.access(Port::Instr, line, Cycle::new(1000), false);
/// assert_eq!(r.level, MemLevel::L1);
/// ```
#[derive(Clone, Debug)]
pub struct MemoryHierarchy {
    /// L1-I and L1-D, indexed by [`Port::idx`].
    l1: [SetAssocCache; 2],
    l2: SetAssocCache,
    mem_latency: u64,
    /// Side-effect op log, populated only while recording is enabled.
    ops: Option<Vec<MemOp>>,
}

impl MemoryHierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`HierarchyConfig::validate`].
    pub fn new(config: HierarchyConfig) -> Self {
        config.validate().expect("invalid hierarchy configuration");
        MemoryHierarchy {
            l1: [SetAssocCache::new(config.l1i), SetAssocCache::new(config.l1d)],
            l2: SetAssocCache::new(config.l2),
            mem_latency: config.mem_latency,
            ops: None,
        }
    }

    /// Turns side-effect recording on or off. Enabling starts a fresh
    /// [`MemOp`] log; disabling drops any pending log.
    pub fn set_recording(&mut self, on: bool) {
        self.ops = on.then(Vec::new);
    }

    /// Takes the recorded op log, leaving recording enabled with an
    /// empty log. Returns an empty vector when recording was never on.
    pub fn take_ops(&mut self) -> Vec<MemOp> {
        match self.ops.as_mut() {
            Some(ops) => std::mem::take(ops),
            None => Vec::new(),
        }
    }

    #[inline]
    fn record(&mut self, op: MemOp) {
        if let Some(ops) = self.ops.as_mut() {
            ops.push(op);
        }
    }

    /// The L1 behind `port`.
    pub fn l1(&self, port: Port) -> &SetAssocCache {
        &self.l1[port.idx()]
    }

    /// The unified L2.
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// The DRAM access latency in cycles.
    pub fn mem_latency(&self) -> u64 {
        self.mem_latency
    }

    /// Behavioural equality of every level at `ref_now` — see
    /// [`SetAssocCache::same_state`]. Statistics and the op log are
    /// excluded.
    pub fn same_state(&self, other: &Self, ref_now: Cycle) -> bool {
        self.mem_latency == other.mem_latency
            && self.l1.iter().zip(&other.l1).all(|(a, b)| a.same_state(b, ref_now))
            && self.l2.same_state(&other.l2, ref_now)
    }

    /// One immutable sample of every level's demand/prefetch counters
    /// (the per-level section of the observability run trace).
    pub fn snapshot(&self) -> HierarchySnapshot {
        HierarchySnapshot {
            l1i: *self.l1(Port::Instr).stats(),
            l1d: *self.l1(Port::Data).stats(),
            l2: *self.l2.stats(),
        }
    }

    /// Resets all statistics (contents are preserved).
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        self.l2.reset_stats();
        self.record(MemOp::ResetStats);
    }

    /// The demand path of one L1 and the shared L2: the L1 lookup inlines
    /// into the caller, so an L1 hit (full or partial) costs one tag sweep
    /// and no call; the rest of a miss runs out of line in
    /// [`MemoryHierarchy::miss_via`].
    #[inline(always)]
    fn access_via(
        l1: &mut SetAssocCache,
        l2: &mut SetAssocCache,
        mem_latency: u64,
        line: LineAddr,
        now: Cycle,
    ) -> ServedAccess {
        match l1.demand_lookup(line, now) {
            AccessResult::Hit(lat) => ServedAccess {
                latency: lat,
                level: MemLevel::L1,
                llc_miss: false,
                l1_miss: false,
            },
            AccessResult::PartialHit(lat) => ServedAccess {
                latency: lat,
                level: MemLevel::L1,
                llc_miss: false,
                l1_miss: true,
            },
            AccessResult::Miss => Self::miss_via(l1, l2, mem_latency, line, now),
        }
    }

    /// The miss half of [`MemoryHierarchy::access_via`]: the L2 access and
    /// the demand fills. Both fills follow a miss just observed in the
    /// level they install into, so they skip the tag sweep
    /// ([`SetAssocCache::fill_absent`]): a memory-level miss scans each
    /// set twice (lookup, victim) instead of three times.
    #[inline(never)]
    fn miss_via(
        l1: &mut SetAssocCache,
        l2: &mut SetAssocCache,
        mem_latency: u64,
        line: LineAddr,
        now: Cycle,
    ) -> ServedAccess {
        let (latency, level) = match l2.demand_lookup(line, now) {
            AccessResult::Hit(lat) | AccessResult::PartialHit(lat) => {
                (l1.config().hit_latency + lat, MemLevel::L2)
            }
            AccessResult::Miss => {
                l2.fill_absent(line, now + mem_latency, false);
                (mem_latency, MemLevel::Memory)
            }
        };
        l1.fill_absent(line, now + latency, false);
        ServedAccess { latency, level, llc_miss: level == MemLevel::Memory, l1_miss: true }
    }

    /// A demand access of `line` through `port` at time `now`. Stores and
    /// loads are timed identically here (write-allocate); the core model
    /// decides how much of the latency a store exposes. Instruction
    /// fetches pass `store = false`.
    ///
    /// Each port has an out-of-line body of its own, so a caller naming
    /// its port (every caller on the simulation path) reaches that L1 at
    /// a fixed offset. One body indexed at run time cost 3% of perfbench's
    /// exact-matrix `sims_per_s` (median of ten pinned pairs, 2-vCPU
    /// x86-64 host).
    #[inline(always)]
    pub fn access(&mut self, port: Port, line: LineAddr, now: Cycle, store: bool) -> ServedAccess {
        match port {
            Port::Instr => self.access_on::<0>(line, now, store),
            Port::Data => self.access_on::<1>(line, now, store),
        }
    }

    /// [`Self::access`] through the port of index `P`.
    #[inline]
    fn access_on<const P: usize>(&mut self, line: LineAddr, now: Cycle, store: bool) -> ServedAccess {
        let served = Self::access_via(&mut self.l1[P], &mut self.l2, self.mem_latency, line, now);
        self.record(MemOp::Access { port: Port::BOTH[P], line, now, store, served });
        served
    }

    /// The fills of one non-redundant prefetch of `line` toward `port`,
    /// given the residency its probes saw. The probes just saw the lines
    /// they fill absent, so the fills skip the rescan.
    #[inline(always)]
    fn prefetch_fill(
        &mut self,
        port: Port,
        line: LineAddr,
        now: Cycle,
        into_l1: bool,
        in_l1: bool,
        in_l2: bool,
    ) {
        let latency = if in_l1 || in_l2 {
            self.l2.config().hit_latency
        } else {
            self.mem_latency
        };
        let ready = now + latency;
        if !in_l2 {
            self.l2.fill_absent(line, ready, true);
        }
        if into_l1 && !in_l1 {
            self.l1[port.idx()].fill_absent(line, ready, true);
        }
    }

    /// Prefetches `line` toward `port`. When `into_l1` the line is
    /// installed in both the port's L1 and L2, otherwise only in L2.
    /// Returns `false` when the request was redundant.
    pub fn prefetch(&mut self, port: Port, line: LineAddr, now: Cycle, into_l1: bool) -> bool {
        let in_l1 = self.l1[port.idx()].probe(line);
        let issued = !(in_l1 && into_l1);
        if issued {
            let in_l2 = self.l2.probe(line);
            self.prefetch_fill(port, line, now, into_l1, in_l1, in_l2);
        }
        self.record(MemOp::Prefetch { port, line, now, into_l1, issued });
        issued
    }

    /// Batched [`Self::prefetch`] over the `n` consecutive lines starting
    /// at `start` — one replay I-list or D-list run record. The whole
    /// run's residency in the port's L1 and in L2 comes from two
    /// branch-free tag sweeps, then the non-redundant lines are filled.
    /// Returns the number of non-redundant requests.
    ///
    /// Contents, statistics, and the op log come out exactly as `n`
    /// scalar calls would leave them (asserted on randomized streams in
    /// this crate's tests): consecutive lines occupy distinct sets
    /// whenever `n` is at most each cache's set count, so no fill in the
    /// run can evict or install a later line of the same run, and probing
    /// up front observes exactly what each scalar call would have. Runs
    /// longer than that bound fall back to the scalar loop.
    pub fn prefetch_run(
        &mut self,
        port: Port,
        start: LineAddr,
        n: u64,
        now: Cycle,
        into_l1: bool,
    ) -> u64 {
        let bound = self.l1[port.idx()].config().sets().min(self.l2.config().sets()).min(64);
        if n > bound {
            return (0..n)
                .map(|k| {
                    u64::from(self.prefetch(port, LineAddr::new(start.as_u64() + k), now, into_l1))
                })
                .sum();
        }
        let l1_mask = self.l1[port.idx()].probe_run(start, n);
        let l2_mask = self.l2.probe_run(start, n);
        let mut count = 0;
        for k in 0..n {
            let line = LineAddr::new(start.as_u64() + k);
            let in_l1 = (l1_mask >> k) & 1 != 0;
            let issued = !(in_l1 && into_l1);
            if issued {
                self.prefetch_fill(port, line, now, into_l1, in_l1, (l2_mask >> k) & 1 != 0);
            }
            self.record(MemOp::Prefetch { port, line, now, into_l1, issued });
            count += u64::from(issued);
        }
        count
    }

    /// An idealised prefetch toward `port` that completes instantly (used
    /// by the "ideal ESP" configurations of Figs. 11a/11b, which assume
    /// perfectly timely prefetches).
    pub fn prefetch_instant(&mut self, port: Port, line: LineAddr, now: Cycle) {
        self.l2.fill(line, now, true);
        self.l1[port.idx()].fill(line, now, true);
        self.record(MemOp::PrefetchInstant { port, line, now });
    }

    /// Functional-warming access through `port`: updates tags and LRU
    /// exactly as a demand access would, but with instant fills, no
    /// latency, no statistics, and no op-log entry. Returns whether the
    /// port's L1 missed (the next-line prefetcher's trigger condition on
    /// the instruction port).
    ///
    /// Used by the sampling mode's fast-forward (see `esp-core`); the
    /// demand counters stay untouched so extrapolation scales only
    /// detailed-grain measurements.
    ///
    /// The L1 probe inlines into the warm walk; the L2 access of a miss
    /// stays out of line.
    #[inline(always)]
    pub fn warm(&mut self, port: Port, line: LineAddr, now: Cycle) -> bool {
        let missed = self.l1[port.idx()].warm_touch(line, now);
        if missed {
            self.warm_l2(line, now);
        }
        missed
    }

    /// The L2 half of an L1 warm miss.
    #[inline(never)]
    fn warm_l2(&mut self, line: LineAddr, now: Cycle) {
        self.l2.warm_touch(line, now);
    }

    /// Functional-warming instruction prefetch (see [`Self::warm`]):
    /// instant install in L2 and L1-I with the prefetched bit clear, so
    /// warmed prefetches neither count as fills nor as useful prefetches
    /// in any level's statistics.
    #[inline]
    pub fn warm_prefetch_instr(&mut self, line: LineAddr, now: Cycle) {
        self.l2.fill(line, now, false);
        self.l1[Port::Instr.idx()].fill(line, now, false);
    }

    /// Data-side twin of [`Self::warm_prefetch_instr`].
    #[inline]
    pub fn warm_prefetch_data(&mut self, line: LineAddr, now: Cycle) {
        self.l2.fill(line, now, false);
        self.l1[Port::Data.idx()].fill(line, now, false);
    }

    /// The latency an ESP-mode access bypassing the L1s would see: an L2
    /// probe decides between the L2 and DRAM latencies. The probe is
    /// non-updating and nothing is filled — the caller installs the line in
    /// its cachelet (§3.4: "bypasses the caches and is brought directly
    /// into the corresponding D-cachelet").
    ///
    /// Returns `(latency, llc_miss)`.
    pub fn bypass_latency(&self, line: LineAddr) -> (u64, bool) {
        if self.l2.probe(line) {
            (self.l2.config().hit_latency, false)
        } else {
            (self.mem_latency, true)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig::exynos5250())
    }

    #[test]
    fn cold_miss_walks_to_memory_and_fills() {
        let mut m = mem();
        let l = LineAddr::new(1000);
        let r = m.access(Port::Instr, l, Cycle::ZERO, false);
        assert_eq!(r.level, MemLevel::Memory);
        assert!(r.llc_miss);
        assert!(r.l1_miss);
        assert_eq!(r.latency, 101);
        // Immediately after, the line is in flight: partial hit.
        let r2 = m.access(Port::Instr, l, Cycle::new(50), false);
        assert_eq!(r2.level, MemLevel::L1);
        assert!(!r2.llc_miss);
        assert!(r2.l1_miss, "in-flight partial hit counts as an L1 miss");
        assert_eq!(r2.latency, 51);
        // Once complete, a plain hit.
        let r3 = m.access(Port::Instr, l, Cycle::new(200), false);
        assert!(!r3.l1_miss);
        assert_eq!(r3.latency, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut m = mem();
        // Fill a line, then evict it from L1 by filling its set with
        // conflicting lines (L1 is 2-way, 256 sets → stride 256 lines).
        let l = LineAddr::new(7);
        m.access(Port::Data, l, Cycle::ZERO, false);
        m.access(Port::Data, LineAddr::new(7 + 256), Cycle::new(200), false);
        m.access(Port::Data, LineAddr::new(7 + 512), Cycle::new(400), false);
        let r = m.access(Port::Data, l, Cycle::new(4000), false);
        assert_eq!(r.level, MemLevel::L2);
        assert!(!r.llc_miss);
        assert!(r.l1_miss);
        assert_eq!(r.latency, 2 + 21);
    }

    #[test]
    fn instr_and_data_l1_are_separate_but_share_l2() {
        let mut m = mem();
        let l = LineAddr::new(42);
        m.access(Port::Data, l, Cycle::ZERO, false);
        // Same line on the instruction side: misses L1-I, hits shared L2.
        let r = m.access(Port::Instr, l, Cycle::new(1000), false);
        assert_eq!(r.level, MemLevel::L2);
    }

    #[test]
    fn prefetch_timeliness() {
        for port in Port::BOTH {
            let mut m = mem();
            let l = LineAddr::new(9_999);
            assert!(m.prefetch(port, l, Cycle::ZERO, true));
            // Demand access at cycle 101 or later: full hit.
            let r = m.access(port, l, Cycle::new(101), false);
            assert!(!r.l1_miss, "{port:?}");
            // A second prefetch to the same line is redundant.
            assert!(!m.prefetch(port, l, Cycle::new(200), true), "{port:?}");
        }
    }

    #[test]
    fn late_prefetch_gives_partial_hit() {
        for port in Port::BOTH {
            let mut m = mem();
            let l = LineAddr::new(5_000);
            m.prefetch(port, l, Cycle::ZERO, true);
            let r = m.access(port, l, Cycle::new(20), false);
            assert!(r.l1_miss, "{port:?}");
            assert_eq!(r.latency, 81, "{port:?}");
            assert_eq!(r.level, MemLevel::L1, "{port:?}");
        }
    }

    #[test]
    fn l2_only_prefetch_leaves_l1_cold() {
        for port in Port::BOTH {
            let mut m = mem();
            let l = LineAddr::new(123);
            m.prefetch(port, l, Cycle::ZERO, false);
            let r = m.access(port, l, Cycle::new(500), false);
            assert_eq!(r.level, MemLevel::L2, "{port:?}");
            assert!(!r.llc_miss, "{port:?}");
        }
    }

    #[test]
    fn prefetch_from_l2_is_fast() {
        for port in Port::BOTH {
            let mut m = mem();
            let l = LineAddr::new(321);
            // Bring into L2 via a demand access, evict from L1.
            m.access(port, l, Cycle::ZERO, false);
            m.access(port, LineAddr::new(321 + 256), Cycle::new(200), false);
            m.access(port, LineAddr::new(321 + 512), Cycle::new(400), false);
            assert!(!m.l1(port).probe(l), "{port:?}");
            // Prefetch back into L1: source is L2, so ready after 21 cycles.
            m.prefetch(port, l, Cycle::new(1000), true);
            let r = m.access(port, l, Cycle::new(1021), false);
            assert!(!r.l1_miss, "{port:?}");
        }
    }

    #[test]
    fn bypass_latency_probes_without_filling() {
        let mut m = mem();
        let l = LineAddr::new(777);
        assert_eq!(m.bypass_latency(l), (101, true));
        m.access(Port::Data, l, Cycle::ZERO, false);
        assert_eq!(m.bypass_latency(l), (21, false));
        // The probe must not have filled anything new.
        let occupancy = m.l2().occupancy();
        m.bypass_latency(LineAddr::new(888));
        assert_eq!(m.l2().occupancy(), occupancy);
    }

    #[test]
    fn op_log_replays_to_identical_state() {
        let mut m = mem();
        m.set_recording(true);
        for port in Port::BOTH {
            m.access(port, LineAddr::new(10), Cycle::ZERO, false);
            m.access(port, LineAddr::new(20), Cycle::new(5), false);
            m.access(port, LineAddr::new(20), Cycle::new(50), port == Port::Data);
            m.prefetch(port, LineAddr::new(11), Cycle::new(60), true);
            // A run over a resident line logs one op per line.
            m.prefetch_run(port, LineAddr::new(19), 3, Cycle::new(65), true);
            m.prefetch_instant(port, LineAddr::new(30), Cycle::new(70));
        }
        m.reset_stats();
        m.access(Port::Data, LineAddr::new(30), Cycle::new(80), false);
        let ops = m.take_ops();
        assert_eq!(ops.len(), 2 * 8 + 2);

        let mut shadow = mem();
        for op in &ops {
            match *op {
                MemOp::Access { port, line, now, store, served } => {
                    assert_eq!(shadow.access(port, line, now, store), served);
                }
                MemOp::Prefetch { port, line, now, into_l1, issued } => {
                    assert_eq!(shadow.prefetch(port, line, now, into_l1), issued);
                }
                MemOp::PrefetchInstant { port, line, now } => {
                    shadow.prefetch_instant(port, line, now);
                }
                MemOp::ResetStats => shadow.reset_stats(),
            }
        }
        assert_eq!(shadow.snapshot(), m.snapshot());
        assert!(shadow.same_state(&m, Cycle::new(80)));
    }

    #[test]
    fn recording_off_keeps_no_log() {
        let mut m = mem();
        m.access(Port::Instr, LineAddr::new(1), Cycle::ZERO, false);
        assert!(m.take_ops().is_empty());
        m.set_recording(true);
        m.access(Port::Instr, LineAddr::new(2), Cycle::ZERO, false);
        m.set_recording(false);
        assert!(m.take_ops().is_empty(), "disabling drops the pending log");
    }

    #[test]
    fn warm_access_updates_contents_but_not_stats() {
        let mut m = mem();
        m.set_recording(true);
        let l = LineAddr::new(4_242);
        assert!(m.warm(Port::Instr, l, Cycle::ZERO), "cold line misses L1-I");
        assert!(!m.warm(Port::Instr, l, Cycle::ZERO), "now resident");
        assert!(m.warm(Port::Data, LineAddr::new(555), Cycle::ZERO));
        m.warm_prefetch_instr(LineAddr::new(556), Cycle::ZERO);
        m.warm_prefetch_data(LineAddr::new(557), Cycle::ZERO);
        // Contents are visible to later demand accesses...
        assert!(m.l1(Port::Instr).probe(l));
        assert!(m.l1(Port::Instr).probe(LineAddr::new(556)));
        assert!(m.l1(Port::Data).probe(LineAddr::new(557)));
        assert!(m.l2().probe(LineAddr::new(555)));
        // ...but no statistics or op-log entries were produced.
        assert_eq!(m.snapshot(), HierarchySnapshot::default());
        assert!(m.take_ops().is_empty());
        // A demand access to a warmed line is an instant hit.
        let r = m.access(Port::Instr, l, Cycle::new(5), false);
        assert!(!r.l1_miss);
    }

    #[test]
    fn warm_hit_refreshes_lru() {
        let mut m = mem();
        // L1-D is 2-way, 256 sets: three conflicting lines evict the LRU.
        let (a, b, c) = (LineAddr::new(7), LineAddr::new(7 + 256), LineAddr::new(7 + 512));
        m.warm(Port::Data, a, Cycle::ZERO);
        m.warm(Port::Data, b, Cycle::ZERO);
        m.warm(Port::Data, a, Cycle::ZERO); // refresh a: b becomes LRU
        m.warm(Port::Data, c, Cycle::ZERO);
        assert!(m.l1(Port::Data).probe(a), "refreshed line survives");
        assert!(!m.l1(Port::Data).probe(b), "stale line was the victim");
    }

    #[test]
    fn stats_reset() {
        let mut m = mem();
        m.access(Port::Instr, LineAddr::new(1), Cycle::ZERO, false);
        assert!(m.l1(Port::Instr).stats().accesses() > 0);
        m.reset_stats();
        assert_eq!(m.l1(Port::Instr).stats().accesses(), 0);
        assert_eq!(m.l2().stats().accesses(), 0);
        // Contents survive.
        assert!(m.l1(Port::Instr).probe(LineAddr::new(1)));
    }
}
