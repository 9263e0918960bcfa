//! The split demand path — an inlined L1 lookup, an out-of-line miss
//! half, and fills that skip the tag sweep after an observed miss — is
//! equivalent to the plain scan-then-fill sequence it replaced.
//!
//! The reference is an independent model: per-set `Vec`s of ways with
//! explicit `(line, ready, stamp, prefetched)` fields, a demand access
//! that scans the set, and a fill that scans again before choosing the
//! LRU victim (invalid ways first). Randomized demand, prefetch, run
//! prefetch and instant-fill streams drive the real hierarchy and the
//! reference side by side; per op the results, every level's
//! statistics, residency and each set's LRU rank order must agree, and
//! the recorded [`MemOp`] log must equal the one the reference builds.

use esp_mem::{
    AccessResult, CacheConfig, HierarchyConfig, MemLevel, MemOp, MemoryHierarchy, Port,
    ServedAccess, SetAssocCache,
};
use esp_stats::CacheStats;
use esp_types::{Cycle, LineAddr, Rng, SplitMix64};

#[derive(Clone, Copy, Debug)]
struct Way {
    line: u64,
    ready: u64,
    stamp: u64,
    prefetched: bool,
}

/// The scan-then-fill cache model.
#[derive(Clone, Debug)]
struct RefCache {
    sets: Vec<Vec<Option<Way>>>,
    hit_latency: u64,
    next_stamp: u64,
    stats: CacheStats,
}

impl RefCache {
    fn new(c: &CacheConfig) -> Self {
        RefCache {
            sets: vec![vec![None; c.ways as usize]; c.sets() as usize],
            hit_latency: c.hit_latency,
            next_stamp: 1,
            stats: CacheStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets.len() as u64) as usize
    }

    fn stamp(&mut self) -> u64 {
        self.next_stamp += 1;
        self.next_stamp - 1
    }

    fn find(&mut self, line: u64) -> Option<&mut Way> {
        let set = self.set_of(line);
        self.sets[set].iter_mut().flatten().find(|w| w.line == line)
    }

    fn probe(&self, line: u64) -> bool {
        self.sets[self.set_of(line)]
            .iter()
            .flatten()
            .any(|w| w.line == line)
    }

    fn access(&mut self, line: u64, now: u64) -> AccessResult {
        let stamp = self.stamp();
        let hit_latency = self.hit_latency;
        let Some(w) = self.find(line) else {
            self.stats.misses += 1;
            return AccessResult::Miss;
        };
        w.stamp = stamp;
        let useful = std::mem::take(&mut w.prefetched);
        let ready = w.ready;
        self.stats.prefetch_useful += u64::from(useful);
        if ready > now {
            self.stats.partial_hits += 1;
            AccessResult::PartialHit((ready - now).max(hit_latency))
        } else {
            self.stats.hits += 1;
            AccessResult::Hit(hit_latency)
        }
    }

    fn fill(&mut self, line: u64, ready: u64, prefetched: bool) {
        let stamp = self.stamp();
        if let Some(w) = self.find(line) {
            w.stamp = stamp;
            w.ready = w.ready.min(ready);
            return;
        }
        self.stats.prefetch_fills += u64::from(prefetched);
        let set = self.set_of(line);
        let ways = &mut self.sets[set];
        let victim = (0..ways.len())
            .min_by_key(|&i| ways[i].map_or(0, |w| w.stamp))
            .unwrap();
        ways[victim] = Some(Way {
            line,
            ready,
            stamp,
            prefetched,
        });
    }

    fn warm_touch(&mut self, line: u64, now: u64) -> bool {
        if let Some(w) = self.find(line) {
            w.ready = w.ready.min(now);
        }
        // A hit refreshes the stamp exactly as a fill of a resident line
        // does; a miss installs a settled demand line.
        let missed = !self.probe(line);
        self.fill(line, now, false);
        missed
    }

    /// The valid lines of `set`, least recently used first.
    fn lru_order(&self, set: usize) -> Vec<u64> {
        let mut ways: Vec<Way> = self.sets[set].iter().flatten().copied().collect();
        ways.sort_by_key(|w| w.stamp);
        ways.iter().map(|w| w.line).collect()
    }
}

/// The L1-I/L1-D/L2 demand path as a probe-free scan-then-fill sequence.
struct RefHierarchy {
    /// L1-I and L1-D, indexed by [`Port::idx`].
    l1: [RefCache; 2],
    l2: RefCache,
    mem_latency: u64,
    ops: Vec<MemOp>,
}

impl RefHierarchy {
    fn new(c: &HierarchyConfig) -> Self {
        RefHierarchy {
            l1: [RefCache::new(&c.l1i), RefCache::new(&c.l1d)],
            l2: RefCache::new(&c.l2),
            mem_latency: c.mem_latency,
            ops: Vec::new(),
        }
    }

    fn access(&mut self, port: Port, line: u64, now: u64) -> ServedAccess {
        let Self {
            l1,
            l2,
            mem_latency,
            ..
        } = self;
        let l1 = &mut l1[port.idx()];
        let served = |latency, level, l1_miss| ServedAccess {
            latency,
            level,
            llc_miss: level == MemLevel::Memory,
            l1_miss,
        };
        match l1.access(line, now) {
            AccessResult::Hit(lat) => served(lat, MemLevel::L1, false),
            AccessResult::PartialHit(lat) => served(lat, MemLevel::L1, true),
            AccessResult::Miss => match l2.access(line, now) {
                AccessResult::Hit(lat) | AccessResult::PartialHit(lat) => {
                    let latency = l1.hit_latency + lat;
                    l1.fill(line, now + latency, false);
                    served(latency, MemLevel::L2, true)
                }
                AccessResult::Miss => {
                    l2.fill(line, now + *mem_latency, false);
                    l1.fill(line, now + *mem_latency, false);
                    served(*mem_latency, MemLevel::Memory, true)
                }
            },
        }
    }

    fn prefetch(&mut self, port: Port, line: u64, now: u64, into_l1: bool) -> bool {
        let Self {
            l1,
            l2,
            mem_latency,
            ..
        } = self;
        let l1 = &mut l1[port.idx()];
        let in_l1 = l1.probe(line);
        if in_l1 && into_l1 {
            return false;
        }
        let in_l2 = l2.probe(line);
        let ready = now
            + if in_l1 || in_l2 {
                l2.hit_latency
            } else {
                *mem_latency
            };
        if !in_l2 {
            l2.fill(line, ready, true);
        }
        if into_l1 && !in_l1 {
            l1.fill(line, ready, true);
        }
        true
    }

    fn instant(&mut self, port: Port, line: u64, now: u64) {
        self.l2.fill(line, now, true);
        self.l1[port.idx()].fill(line, now, true);
    }

    fn reset_stats(&mut self) {
        for c in self.l1.iter_mut().chain([&mut self.l2]) {
            c.stats = CacheStats::default();
        }
    }
}

/// `cache`'s resident lines of `set`, least recently used first, read
/// behaviourally: a clone is filled with fresh lines of that set one at
/// a time and the resident line each fill evicts is recorded (fills into
/// invalid ways evict nothing). Victim choice depends only on rank
/// order, so this is the order the next misses will evict in.
fn lru_rank(cache: &SetAssocCache, set: u64, resident: &[u64]) -> Vec<u64> {
    let sets = cache.config().sets();
    let mut c = cache.clone();
    let mut left = resident.to_vec();
    let mut order = Vec::new();
    for k in 0..u64::from(cache.config().ways) {
        let fresh = (1 << 40) * sets + set + k * sets;
        c.fill(LineAddr::new(fresh), Cycle::ZERO, false);
        if let Some(i) = left.iter().position(|&l| !c.probe(LineAddr::new(l))) {
            order.push(left.remove(i));
        }
    }
    assert!(
        left.is_empty(),
        "every resident line is evicted within `ways` fills"
    );
    order
}

/// Residency of every pool line and the rank order of every set the
/// pool maps to must agree between `real` and `model`.
fn assert_same_contents(real: &SetAssocCache, model: &RefCache, pool: &[u64], what: &str) {
    for &l in pool {
        assert_eq!(
            real.probe(LineAddr::new(l)),
            model.probe(l),
            "{what}: residency of line {l}"
        );
    }
    let mut sets: Vec<usize> = pool.iter().map(|&l| model.set_of(l)).collect();
    sets.sort_unstable();
    sets.dedup();
    for set in sets {
        let want = model.lru_order(set);
        assert_eq!(
            lru_rank(real, set as u64, &want),
            want,
            "{what}: LRU rank order of set {set}"
        );
    }
}

fn cache(name: &str, size_bytes: u64, ways: u32, hit_latency: u64) -> CacheConfig {
    CacheConfig {
        name: name.into(),
        size_bytes,
        ways,
        line_bytes: 64,
        hit_latency,
    }
}

/// A tiny 2-set × 2-way cache.
fn tiny(name: &str) -> CacheConfig {
    cache(name, 256, 2, 2)
}

/// The Ideal-ESP side cache geometry: 4 MiB, 16-way.
fn side() -> CacheConfig {
    cache("ideal-cachelet", 4 * 1024 * 1024, 16, 2)
}

/// Lines concentrated on a few sets of a cache with `sets` sets, more
/// than `ways` deep on each, plus their successors, so fills evict,
/// lines return after eviction and run prefetches cross set boundaries.
fn pool(sets: u64, ways: u32) -> Vec<u64> {
    let mut v = Vec::new();
    for base in [0, 1, 5, sets - 1] {
        for k in 0..3 * u64::from(ways) {
            v.push(base + k * sets);
        }
    }
    v.sort_unstable();
    v.dedup();
    v
}

fn run_hierarchy(cfg: HierarchyConfig, seed: u64, ops: usize) {
    let mut real = MemoryHierarchy::new(cfg.clone());
    real.set_recording(true);
    let mut model = RefHierarchy::new(&cfg);
    let pool = pool(cfg.l2.sets(), cfg.l2.ways);
    let run_bound = cfg
        .l1i
        .sets()
        .min(cfg.l1d.sets())
        .min(cfg.l2.sets())
        .min(64);
    let mut rng = SplitMix64::new(seed);
    let mut t = 0u64;
    for op in 0..ops {
        t += rng.next_u64() % 150;
        let now = Cycle::new(t);
        let line = pool[(rng.next_u64() % pool.len() as u64) as usize];
        let l = LineAddr::new(line);
        let port = if rng.next_u64() & 1 != 0 {
            Port::Instr
        } else {
            Port::Data
        };
        let into_l1 = !rng.next_u64().is_multiple_of(4);
        let what = format!("seed {seed:#x} op {op}");
        match rng.next_u64() % 16 {
            0..=7 => {
                let store = port == Port::Data && rng.next_u64() & 1 != 0;
                assert_eq!(
                    real.access(port, l, now, store),
                    model.access(port, line, t),
                    "{what}: demand access"
                );
            }
            8..=10 => {
                assert_eq!(
                    real.prefetch(port, l, now, into_l1),
                    model.prefetch(port, line, t, into_l1),
                    "{what}: prefetch"
                );
            }
            11..=12 => {
                let n = 1 + rng.next_u64() % run_bound;
                let got = real.prefetch_run(port, l, n, now, into_l1);
                let want: u64 = (0..n)
                    .map(|k| u64::from(model.prefetch(port, line + k, t, into_l1)))
                    .sum();
                assert_eq!(got, want, "{what}: run prefetch of {n}");
            }
            13..=14 => {
                real.prefetch_instant(port, l, now);
                model.instant(port, line, t);
            }
            _ => {
                real.reset_stats();
                model.reset_stats();
            }
        }
        let snap = real.snapshot();
        assert_eq!(
            (snap.l1i, snap.l1d, snap.l2),
            (model.l1[0].stats, model.l1[1].stats, model.l2.stats),
            "{what}: statistics"
        );
        if op % 37 == 0 || op + 1 == ops {
            for port in Port::BOTH {
                let l1 = &model.l1[port.idx()];
                assert_same_contents(real.l1(port), l1, &pool, &format!("{what} L1 {port:?}"));
            }
            assert_same_contents(real.l2(), &model.l2, &pool, &format!("{what} L2"));
        }
    }
    // The model logs ops the way the real hierarchy's entry points do;
    // rebuild its log by replaying the real one against a fresh model.
    let log = real.take_ops();
    let mut replay = RefHierarchy::new(&cfg);
    for op in &log {
        let expect = match *op {
            MemOp::Access {
                port,
                line,
                now,
                store,
                ..
            } => MemOp::Access {
                port,
                line,
                now,
                store,
                served: replay.access(port, line.as_u64(), now.as_u64()),
            },
            MemOp::Prefetch {
                port,
                line,
                now,
                into_l1,
                ..
            } => MemOp::Prefetch {
                port,
                line,
                now,
                into_l1,
                issued: replay.prefetch(port, line.as_u64(), now.as_u64(), into_l1),
            },
            MemOp::PrefetchInstant { port, line, now } => {
                replay.instant(port, line.as_u64(), now.as_u64());
                *op
            }
            MemOp::ResetStats => {
                replay.reset_stats();
                *op
            }
        };
        replay.ops.push(expect);
    }
    assert_eq!(log, replay.ops, "seed {seed:#x}: MemOp log");
}

/// The paper's hierarchy: 2-way L1s over a 16-way L2.
#[test]
fn paper_hierarchy_matches_scan_then_fill() {
    for seed in 0..4 {
        run_hierarchy(HierarchyConfig::exynos5250(), 0xD1A0 + seed, 3000);
    }
}

/// Tiny 2×2 L1s over a tiny L2: every op evicts.
#[test]
fn tiny_hierarchy_matches_scan_then_fill() {
    let cfg = HierarchyConfig {
        l1i: tiny("L1-I"),
        l1d: tiny("L1-D"),
        l2: cache("L2", 4 * 4 * 64, 4, 21),
        mem_latency: 101,
    };
    for seed in 0..8 {
        run_hierarchy(cfg.clone(), 0x7171 + seed, 3000);
    }
}

/// Tiny L1s over an L2 with the 4 MiB Ideal-ESP side-cache geometry.
#[test]
fn side_cache_geometry_hierarchy_matches_scan_then_fill() {
    let cfg = HierarchyConfig {
        l1i: tiny("L1-I"),
        l1d: tiny("L1-D"),
        l2: cache("L2", 4 * 1024 * 1024, 16, 21),
        mem_latency: 101,
    };
    for seed in 0..2 {
        run_hierarchy(cfg.clone(), 0x51DE + seed, 3000);
    }
}

/// A lone cache driven the way the ESP side caches and the warm walk
/// drive it: demand access, `fill_absent` after an observed miss, plain
/// fills of possibly-resident lines, and warm touches — for the L1, the
/// L2, the 4 MiB side cache and a tiny 2×2 cache.
#[test]
fn lone_cache_matches_scan_then_fill() {
    let geometries = [
        CacheConfig::l1_32k("L1-D"),
        CacheConfig::l2_2m(),
        side(),
        tiny("tiny"),
    ];
    for (g, cfg) in geometries.iter().enumerate() {
        let mut real = SetAssocCache::new(cfg.clone());
        let mut model = RefCache::new(cfg);
        let pool = pool(cfg.sets(), cfg.ways);
        let mut rng = SplitMix64::new(0xCAC4E + g as u64);
        let mut t = 0u64;
        for op in 0..4000 {
            t += rng.next_u64() % 150;
            let line = pool[(rng.next_u64() % pool.len() as u64) as usize];
            let l = LineAddr::new(line);
            let ready = t + rng.next_u64() % 200;
            let prefetched = rng.next_u64() & 1 != 0;
            let what = format!("{} op {op}", cfg.name);
            match rng.next_u64() % 4 {
                0 | 1 => {
                    let got = real.access(l, Cycle::new(t));
                    assert_eq!(got, model.access(line, t), "{what}: access");
                    if got == AccessResult::Miss {
                        real.fill_absent(l, Cycle::new(ready), prefetched);
                        model.fill(line, ready, prefetched);
                    }
                }
                2 => {
                    real.fill(l, Cycle::new(ready), prefetched);
                    model.fill(line, ready, prefetched);
                }
                _ => {
                    let got = real.warm_touch(l, Cycle::new(t));
                    assert_eq!(got, model.warm_touch(line, t), "{what}: warm touch");
                }
            }
            assert_eq!(*real.stats(), model.stats, "{what}: statistics");
            if op % 41 == 0 {
                assert_same_contents(&real, &model, &pool, &what);
            }
        }
        assert_same_contents(&real, &model, &pool, cfg.name.as_str());
    }
}
