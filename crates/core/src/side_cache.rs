//! The per-slot side caches of the ESP contexts that have no cachelet
//! way: the unbounded Ideal-ESP slots and the Fig. 13 depth probe's
//! slots past ESP-2.
//!
//! An ideal slot's cache is 4 MiB and 16-way (4,096 sets), but one
//! event's pre-execution fills about a hundred lines on average (at most
//! about 1,800 across the nine families at 600k instructions) before the
//! cache is emptied for the next event, and almost every filled set holds
//! one line. [`SideCache`] therefore stores only the lines it holds: a
//! per-set index points into a pool of way blocks of up to four ways, a
//! block is taken on the set's first fill, a set that outgrows its blocks
//! chains another (up to the set's ways), and emptying the cache returns
//! every block to the pool. It answers every access exactly as a dense
//! [`esp_mem::SetAssocCache`] of the same geometry filled the same way
//! would (true LRU, fill latency, partial hits).

use esp_mem::{AccessResult, CacheConfig};
use esp_types::{Cycle, LineAddr};

/// The index entry of a set that holds no line, and the chain link of a
/// set's last block.
const NO_BLOCK: u32 = u32::MAX;

/// One way of a pooled block.
#[derive(Clone, Copy, Default)]
struct Way {
    /// `(tag << 1) | 1` when valid, 0 when invalid.
    key: u64,
    /// The cycle at which the way's fill completes.
    ready: u64,
    /// LRU stamp; larger is more recent.
    stamp: u64,
}

/// A set-associative, true-LRU side cache that allocates ways as its
/// sets fill.
pub(crate) struct SideCache {
    /// Per set: the index of its first block in the pool, or [`NO_BLOCK`].
    head: Vec<u32>,
    /// The sets that hold a block, in the order they took their first.
    owners: Vec<u32>,
    /// The pooled blocks, `block_ways` consecutive entries each.
    pool: Vec<Way>,
    /// Per pooled block: the next block of the same set, or [`NO_BLOCK`].
    next: Vec<u32>,
    /// Ways per block: 4, or the largest of 2 and 1 dividing `ways`.
    block_ways: usize,
    set_mask: u64,
    /// `log2(sets)`: the shift from a line address to its tag.
    set_bits: u32,
    ways: usize,
    hit_latency: u64,
    next_stamp: u64,
}

impl SideCache {
    /// An empty cache of `config`'s geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub(crate) fn new(config: CacheConfig) -> Self {
        config.validate().expect("invalid side-cache configuration");
        let sets = config.sets() as usize;
        let ways = config.ways as usize;
        SideCache {
            head: vec![NO_BLOCK; sets],
            owners: Vec::new(),
            pool: Vec::new(),
            next: Vec::new(),
            block_ways: [4, 2, 1].into_iter().find(|&b| ways.is_multiple_of(b)).expect("1 divides"),
            set_mask: sets as u64 - 1,
            set_bits: sets.trailing_zeros(),
            ways,
            hit_latency: config.hit_latency,
            next_stamp: 1,
        }
    }

    #[inline(always)]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.as_u64() & self.set_mask) as usize
    }

    #[inline(always)]
    fn key(&self, line: LineAddr) -> u64 {
        ((line.as_u64() >> self.set_bits) << 1) | 1
    }

    #[inline(always)]
    fn bump_stamp(&mut self) -> u64 {
        let s = self.next_stamp;
        self.next_stamp += 1;
        s
    }

    /// A demand access: refreshes the line's LRU stamp on a hit and
    /// returns the latency class, as [`esp_mem::SetAssocCache::access`].
    #[inline]
    pub(crate) fn access(&mut self, line: LineAddr, now: Cycle) -> AccessResult {
        let stamp = self.bump_stamp();
        let key = self.key(line);
        let bw = self.block_ways;
        let mut block = self.head[self.set_of(line)];
        while block != NO_BLOCK {
            let base = block as usize * bw;
            for way in &mut self.pool[base..base + bw] {
                if way.key == key {
                    way.stamp = stamp;
                    let ready = Cycle::new(way.ready);
                    return if ready.is_after(now) {
                        AccessResult::PartialHit((ready - now).max(self.hit_latency))
                    } else {
                        AccessResult::Hit(self.hit_latency)
                    };
                }
            }
            block = self.next[block as usize];
        }
        AccessResult::Miss
    }

    /// Fills `line`, which the caller has just seen miss: into an invalid
    /// way of its set, else into a new block while the set holds fewer
    /// lines than its ways, else over the set's LRU way.
    #[inline]
    pub(crate) fn fill_absent(&mut self, line: LineAddr, ready: Cycle) {
        let stamp = self.bump_stamp();
        let key = self.key(line);
        let set = self.set_of(line);
        let bw = self.block_ways;
        // Valid stamps are at least 1, so an invalid way always wins.
        let (mut victim, mut best, mut held, mut last) = (0, u64::MAX, 0, NO_BLOCK);
        let mut block = self.head[set];
        while block != NO_BLOCK {
            let base = block as usize * bw;
            for (w, way) in self.pool[base..base + bw].iter().enumerate() {
                debug_assert!(way.key != key, "fill_absent of a resident line");
                let k = if way.key != 0 { way.stamp } else { 0 };
                held += usize::from(way.key != 0);
                if k < best {
                    best = k;
                    victim = base + w;
                }
            }
            last = block;
            block = self.next[block as usize];
        }
        if best != 0 && held < self.ways {
            let taken = self.next.len() as u32;
            self.next.push(NO_BLOCK);
            self.pool.resize(self.pool.len() + bw, Way::default());
            if last == NO_BLOCK {
                self.head[set] = taken;
                self.owners.push(set as u32);
            } else {
                self.next[last as usize] = taken;
            }
            victim = taken as usize * bw;
        }
        self.pool[victim] = Way { key, ready: ready.as_u64(), stamp };
    }

    /// Empties the cache, keeping its stamp counter: every block goes
    /// back to the pool.
    pub(crate) fn flush(&mut self) {
        for &set in &self.owners {
            self.head[set as usize] = NO_BLOCK;
        }
        self.owners.clear();
        self.pool.clear();
        self.next.clear();
    }

    /// Returns the cache to its just-constructed state.
    pub(crate) fn reset(&mut self) {
        self.flush();
        self.next_stamp = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_mem::SetAssocCache;

    fn config(size_bytes: u64, ways: u32) -> CacheConfig {
        CacheConfig { name: "side".into(), size_bytes, ways, line_bytes: 64, hit_latency: 2 }
    }

    /// Drives a sparse and a dense cache of `cfg`'s geometry through one
    /// seeded sequence of accesses, fills of the lines that missed,
    /// flushes and resets, comparing every access result. Lines crowd
    /// three sets past their ways, so evictions happen throughout.
    fn matches_dense(cfg: CacheConfig, seed: u64) {
        let sets = cfg.sets();
        let ways = u64::from(cfg.ways);
        let mut sparse = SideCache::new(cfg.clone());
        let mut dense = SetAssocCache::new(cfg);
        let mut x = seed | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut hits, mut partial, mut flushes, mut resets) = (0, 0, 0, 0);
        for t in 0..20_000u64 {
            let r = next();
            let line = if r % 4 == 0 {
                LineAddr::new(next() % (sets * 64))
            } else {
                let set = [0, 5, sets - 1][(r >> 8) as usize % 3];
                LineAddr::new(set + sets * (next() % (ways * 2 + 3)))
            };
            let now = Cycle::new(t);
            let got = sparse.access(line, now);
            assert_eq!(got, dense.access(line, now), "seed {seed:#x}, step {t}, line {line:?}");
            match got {
                AccessResult::Miss => {
                    let ready = Cycle::new(t + next() % 40);
                    sparse.fill_absent(line, ready);
                    dense.fill_absent(line, ready, false);
                }
                AccessResult::Hit(_) => hits += 1,
                AccessResult::PartialHit(_) => partial += 1,
            }
            match next() % 1000 {
                0 => {
                    sparse.flush();
                    dense.flush();
                    flushes += 1;
                }
                1 => {
                    sparse.reset();
                    dense.reset();
                    resets += 1;
                }
                _ => {}
            }
        }
        assert!(hits > 200 && partial > 200 && flushes > 3 && resets > 3, "seed {seed:#x}: sequence too tame");
    }

    #[test]
    fn ideal_geometry_matches_a_dense_cache() {
        for seed in [0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d, 7] {
            matches_dense(config(4 * 1024 * 1024, 16), seed);
        }
    }

    #[test]
    fn deep_probe_geometry_matches_a_dense_cache() {
        for seed in [0x9e37_79b9_7f4a_7c15, 0x2545_f491_4f6c_dd1d, 7] {
            matches_dense(config(512, 1), seed);
        }
    }

    #[test]
    fn emptying_returns_every_block() {
        let mut c = SideCache::new(config(4 * 1024 * 1024, 16));
        for k in 0..300 {
            let line = LineAddr::new(k * 97);
            assert_eq!(c.access(line, Cycle::ZERO), AccessResult::Miss);
            c.fill_absent(line, Cycle::ZERO);
        }
        assert_eq!(c.next.len(), c.pool.len() / 4);
        assert!(c.owners.len() <= c.next.len() && c.next.len() <= 300);
        c.flush();
        assert!(c.pool.is_empty() && c.next.is_empty() && c.head.iter().all(|&b| b == NO_BLOCK));
        assert!(c.next_stamp > 1, "flush keeps the stamp counter");
        c.reset();
        assert_eq!(c.next_stamp, 1);
    }
}
