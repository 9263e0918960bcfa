//! A reusable open-addressing set of cache-line addresses.
//!
//! The simulator's working-set measurement inserts every fetched/accessed
//! line into a per-event set. `std::collections::HashSet<u64>` pays the
//! SipHash keyed hash on every probe and reallocates from scratch when a
//! fresh set is built per event; this set replaces it on the hot path
//! with Fibonacci-hashed linear probing and O(1) epoch-based clearing, so
//! one allocation is reused across all events of a run.

/// Initial slot count (power of two).
const INITIAL_CAPACITY: usize = 64;
/// Grow when `len * 8 >= capacity * 7` would be exceeded — i.e. keep the
/// load factor below 7/8.
const LOAD_NUM: usize = 7;
const LOAD_DEN: usize = 8;

/// A set of `u64` line addresses with epoch-based O(1) [`LineSet::clear`].
///
/// # Examples
///
/// ```
/// use esp_core::LineSet;
///
/// let mut s = LineSet::new();
/// assert!(s.insert(42));
/// assert!(!s.insert(42));
/// assert_eq!(s.len(), 1);
/// s.clear();
/// assert_eq!(s.len(), 0);
/// assert!(s.insert(42));
/// ```
#[derive(Clone, Debug)]
pub struct LineSet {
    /// `(key, epoch)` slots; a slot holds a live entry iff its epoch
    /// matches the set's current epoch.
    slots: Vec<(u64, u64)>,
    epoch: u64,
    len: usize,
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl LineSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        LineSet { slots: vec![(0, 0); INITIAL_CAPACITY], epoch: 1, len: 0 }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the set in O(1) by advancing the epoch; the allocation is
    /// kept for reuse.
    pub fn clear(&mut self) {
        self.epoch += 1;
        self.len = 0;
    }

    #[inline]
    fn slot_of(key: u64, mask: usize) -> usize {
        // Fibonacci hashing: multiply by 2^64 / phi and keep the high
        // bits that the mask selects.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 32) as usize & mask
    }

    /// Inserts `key`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        if (self.len + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = Self::slot_of(key, mask);
        loop {
            let (k, e) = self.slots[i];
            if e != self.epoch {
                self.slots[i] = (key, self.epoch);
                self.len += 1;
                return true;
            }
            if k == key {
                return false;
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut i = Self::slot_of(key, mask);
        loop {
            let (k, e) = self.slots[i];
            if e != self.epoch {
                return false;
            }
            if k == key {
                return true;
            }
            i = (i + 1) & mask;
        }
    }

    #[cold]
    fn grow(&mut self) {
        let live: Vec<u64> = self
            .slots
            .iter()
            .filter(|&&(_, e)| e == self.epoch)
            .map(|&(k, _)| k)
            .collect();
        let new_cap = self.slots.len() * 2;
        self.slots = vec![(0, 0); new_cap];
        self.epoch = 1;
        self.len = 0;
        for k in live {
            self.insert(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_types::{Rng, Xoshiro256pp};
    use std::collections::HashSet;

    #[test]
    fn insert_contains_and_dedup() {
        let mut s = LineSet::new();
        assert!(s.insert(0));
        assert!(!s.insert(0));
        assert!(s.insert(u64::MAX));
        assert!(!s.insert(u64::MAX));
        assert!(s.contains(0));
        assert!(s.contains(u64::MAX));
        assert!(!s.contains(17));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn clear_is_reusable() {
        let mut s = LineSet::new();
        for k in 0..100 {
            s.insert(k);
        }
        assert_eq!(s.len(), 100);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(5));
        for k in 50..60 {
            assert!(s.insert(k), "{k} must be fresh after clear");
        }
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn matches_std_hashset_on_random_streams() {
        let mut rng = Xoshiro256pp::seed_from_u64(77);
        for round in 0..20 {
            let mut ours = LineSet::new();
            let mut reference = HashSet::new();
            for _ in 0..2_000 {
                let k = rng.below(500 + round * 100);
                assert_eq!(ours.insert(k), reference.insert(k), "key {k}");
            }
            assert_eq!(ours.len(), reference.len());
            for k in 0..(500 + round * 100) {
                assert_eq!(ours.contains(k), reference.contains(&k), "key {k}");
            }
        }
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut s = LineSet::new();
        for k in 0..10_000u64 {
            assert!(s.insert(k * 64));
        }
        assert_eq!(s.len(), 10_000);
        for k in 0..10_000u64 {
            assert!(s.contains(k * 64));
        }
    }

    /// Brute-forces keys that all hash to the table's *last* slot so the
    /// linear probe chain must wrap around to slot 0 — the index
    /// arithmetic edge the masked increment exists for.
    #[test]
    fn probe_chains_wrap_around_the_table_end() {
        let mask = INITIAL_CAPACITY - 1;
        let colliders: Vec<u64> =
            (0..).filter(|&k| LineSet::slot_of(k, mask) == mask).take(5).collect();
        assert_eq!(colliders.len(), 5);

        let mut s = LineSet::new();
        for &k in &colliders {
            assert!(s.insert(k));
        }
        for &k in &colliders {
            assert!(s.contains(k), "key {k} lost across the wraparound");
            assert!(!s.insert(k), "key {k} duplicated across the wraparound");
        }
        // A sixth last-slot collider that was never inserted must probe
        // through the whole wrapped chain and still come back absent.
        let absent = (0..)
            .find(|&k| LineSet::slot_of(k, mask) == mask && !colliders.contains(&k))
            .unwrap();
        assert!(!s.contains(absent));
        assert_eq!(s.len(), colliders.len());
    }

    /// The load-factor ceiling for the initial 64-slot table is 56 live
    /// entries. Right at the ceiling every lookup must still terminate
    /// (the epoch check needs at least one non-live slot), and the next
    /// insert grows without losing anything.
    #[test]
    fn stays_correct_at_the_load_factor_ceiling() {
        let ceiling = INITIAL_CAPACITY * LOAD_NUM / LOAD_DEN; // 56
        let mut s = LineSet::new();
        for k in 0..ceiling as u64 {
            assert!(s.insert(k.wrapping_mul(0x51f3_c2e1) ^ 0xABCD));
        }
        assert_eq!(s.len(), ceiling);
        for k in 0..ceiling as u64 {
            assert!(s.contains(k.wrapping_mul(0x51f3_c2e1) ^ 0xABCD));
        }
        assert!(!s.contains(0xDEAD_BEEF_DEAD_BEEF));
        // One more entry crosses the ceiling: the table doubles and the
        // full contents survive the rehash.
        assert!(s.insert(0x1234_5678_9ABC));
        assert_eq!(s.len(), ceiling + 1);
        for k in 0..ceiling as u64 {
            assert!(s.contains(k.wrapping_mul(0x51f3_c2e1) ^ 0xABCD));
        }
    }

    /// `grow` rebuilds the table and resets the epoch to 1. Entries that
    /// were epoch-cleared *before* the grow must not resurrect when their
    /// old stamped epochs coincide with the reset counter.
    #[test]
    fn cleared_entries_do_not_resurrect_across_grow() {
        let mut s = LineSet::new();
        let dead: Vec<u64> = (0..50).map(|k| k * 3 + 1_000_000).collect();
        for &k in &dead {
            s.insert(k);
        }
        s.clear();
        // Force several grows purely with post-clear keys.
        let live: Vec<u64> = (0..500).map(|k| k * 7 + 9).collect();
        for &k in &live {
            assert!(s.insert(k), "live key {k} rejected");
        }
        assert_eq!(s.len(), live.len());
        for &k in &live {
            assert!(s.contains(k));
        }
        for &k in &dead {
            assert!(!s.contains(k), "cleared key {k} resurrected across grow");
        }
    }

    /// Hundreds of epoch advances interleaved with inserts: every clear
    /// must present a genuinely empty set, and re-inserting the same keys
    /// must report them as fresh every round.
    #[test]
    fn repeated_clear_reinsert_rounds_stay_fresh() {
        let mut s = LineSet::new();
        for round in 0..300u64 {
            assert!(s.is_empty(), "round {round} started non-empty");
            for k in 0..40 {
                assert!(s.insert(k), "round {round}: key {k} stale");
            }
            assert_eq!(s.len(), 40);
            assert!(!s.contains(40));
            s.clear();
            assert!(!s.contains(0), "round {round}: clear left key 0 visible");
        }
    }
}
