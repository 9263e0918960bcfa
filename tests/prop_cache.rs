//! Randomized tests of the set-associative cache against a reference
//! model. Seeded with the in-repo deterministic RNG (`esp_types::rng`)
//! instead of an external property-test framework: the build environment
//! has no network access to a crate registry, and fixed seeds make every
//! failure exactly reproducible.

use event_sneak_peek::mem::{AccessResult, CacheConfig, SetAssocCache};
use event_sneak_peek::types::{Cycle, LineAddr, Rng as _, Xoshiro256pp};
use std::collections::HashMap;

/// A trivially-correct reference: per-set LRU lists over a hash map.
struct ReferenceCache {
    sets: usize,
    ways: usize,
    // set index -> ordered (MRU first) list of tags.
    contents: HashMap<u64, Vec<u64>>,
}

impl ReferenceCache {
    fn new(sets: usize, ways: usize) -> Self {
        ReferenceCache { sets, ways, contents: HashMap::new() }
    }

    fn set_and_tag(&self, line: u64) -> (u64, u64) {
        (line % self.sets as u64, line / self.sets as u64)
    }

    fn access(&mut self, line: u64) -> bool {
        let (s, t) = self.set_and_tag(line);
        let set = self.contents.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&x| x == t) {
            set.remove(pos);
            set.insert(0, t);
            true
        } else {
            false
        }
    }

    fn fill(&mut self, line: u64) {
        let (s, t) = self.set_and_tag(line);
        let ways = self.ways;
        let set = self.contents.entry(s).or_default();
        if let Some(pos) = set.iter().position(|&x| x == t) {
            set.remove(pos);
        } else if set.len() == ways {
            set.pop();
        }
        set.insert(0, t);
    }
}

fn small_cache() -> SetAssocCache {
    // 8 sets x 4 ways.
    SetAssocCache::new(CacheConfig {
        name: "prop".into(),
        size_bytes: 8 * 4 * 64,
        ways: 4,
        line_bytes: 64,
        hit_latency: 2,
    })
}

/// Demand-access-with-fill sequences hit/miss identically to the
/// reference LRU model.
#[test]
fn matches_reference_lru() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x000C_AC4E_0001);
    for case in 0..64 {
        let len = rng.range(1, 300) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(64)).collect();
        let mut cache = small_cache();
        let mut reference = ReferenceCache::new(8, 4);
        for (i, &l) in lines.iter().enumerate() {
            let now = Cycle::new(i as u64 * 10);
            let got = cache.access(LineAddr::new(l), now).is_hit();
            let want = reference.access(l);
            assert_eq!(got, want, "case {case} access #{i} line {l}");
            if !got {
                cache.fill(LineAddr::new(l), now, false);
                reference.fill(l);
            }
        }
    }
}

/// Occupancy never exceeds capacity and probes agree with accesses.
#[test]
fn occupancy_and_probe_consistency() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x000C_AC4E_0002);
    for case in 0..64 {
        let len = rng.range(1, 200) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(1000)).collect();
        let mut cache = small_cache();
        for (i, &l) in lines.iter().enumerate() {
            let now = Cycle::new(i as u64);
            cache.fill(LineAddr::new(l), now, false);
            assert!(cache.occupancy() <= 32, "case {case}");
            assert!(
                cache.probe(LineAddr::new(l)),
                "case {case}: just-filled line {l} must be resident"
            );
        }
    }
}

/// A partial hit is only reported while the fill is in flight, and its
/// latency never exceeds the fill distance.
#[test]
fn partial_hit_latencies() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x000C_AC4E_0003);
    for case in 0..256 {
        let delay = rng.range(1, 500);
        let probe_at = rng.below(600);
        let mut cache = small_cache();
        let l = LineAddr::new(7);
        cache.fill(l, Cycle::new(delay), false);
        match cache.access(l, Cycle::new(probe_at)) {
            AccessResult::Hit(lat) => {
                assert!(probe_at >= delay, "case {case}");
                assert_eq!(lat, 2, "case {case}");
            }
            AccessResult::PartialHit(lat) => {
                assert!(probe_at < delay, "case {case}");
                assert!(lat >= 2, "case {case}");
                assert!(lat <= delay.max(2), "case {case}");
            }
            AccessResult::Miss => panic!("case {case}: line must be resident"),
        }
    }
}

/// Invalidation removes exactly the target line.
#[test]
fn invalidate_is_precise() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x000C_AC4E_0004);
    for case in 0..64 {
        let a = rng.below(64);
        let b = (a + rng.range(1, 64)) % 64; // distinct from a by construction
        assert_ne!(a, b);
        let mut cache = small_cache();
        cache.fill(LineAddr::new(a), Cycle::ZERO, false);
        cache.fill(LineAddr::new(b), Cycle::ZERO, false);
        assert!(cache.invalidate(LineAddr::new(a)), "case {case}");
        assert!(!cache.probe(LineAddr::new(a)), "case {case}");
        assert!(cache.probe(LineAddr::new(b)), "case {case}");
    }
}
