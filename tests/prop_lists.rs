//! Randomized tests for the ESP prediction lists, seeded with the
//! in-repo deterministic RNG (`esp_types::rng`) instead of an external
//! property-test framework — the build runs offline and fixed seeds make
//! failures exactly reproducible.

use event_sneak_peek::lists::{AddrList, BList};
use event_sneak_peek::trace::Instr;
use event_sneak_peek::types::{Addr, LineAddr, Rng as _, Xoshiro256pp};

/// Recorded address runs decode back to a subsequence of the input:
/// every line covered by a record was actually recorded, in order, with
/// non-decreasing instruction counts.
#[test]
fn addr_list_decodes_faithfully() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x115_0001);
    for case in 0..128 {
        let len = rng.range(1, 400) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(100_000)).collect();
        let mut list = AddrList::new(499);
        let mut accepted: Vec<u64> = Vec::new();
        for (i, &l) in lines.iter().enumerate() {
            if list.record(LineAddr::new(l), i as u64 * 3) {
                accepted.push(l);
            }
        }
        // Every decoded line must appear in the accepted input, and the
        // record icounts must be monotonic.
        let mut last_icount = 0;
        for rec in list.records() {
            assert!(rec.icount >= last_icount, "case {case}");
            last_icount = rec.icount;
            for line in rec.lines() {
                assert!(
                    accepted.contains(&line.as_u64()),
                    "case {case}: decoded line {} never recorded",
                    line.as_u64()
                );
            }
        }
        // Bit accounting is within capacity.
        assert!(list.used_bits() <= list.capacity_bits(), "case {case}");
    }
}

/// Promotion never loses records and never shrinks capacity usage.
#[test]
fn addr_list_promotion_preserves() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x115_0002);
    for case in 0..128 {
        let len = rng.range(1, 200) as usize;
        let lines: Vec<u64> = (0..len).map(|_| rng.below(5_000)).collect();
        let mut list = AddrList::new(68);
        for (i, &l) in lines.iter().enumerate() {
            list.record(LineAddr::new(l), i as u64);
        }
        let before: Vec<_> = list.records().to_vec();
        let used = list.used_bits();
        let promoted = list.promoted(499);
        assert_eq!(promoted.records(), &before[..], "case {case}");
        assert_eq!(promoted.used_bits(), used, "case {case}");
        assert!(!promoted.is_full(), "case {case}");
    }
}

/// The list never accepts more entries than its bit capacity allows
/// (worst case: every entry is a 3x19-bit escape).
#[test]
fn addr_list_capacity_bound() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x115_0003);
    for case in 0..128 {
        let seed = rng.below(1_000);
        let mut list = AddrList::new(68); // 544 bits
        let mut accepted = 0u64;
        // Far-apart lines force escape entries.
        for i in 0..200u64 {
            if list.record(LineAddr::new(seed + i * 100_000), i) {
                accepted += 1;
            }
        }
        // 544 / 19 = 28 entries absolute upper bound.
        assert!(accepted <= 28, "case {case}: accepted {accepted}");
        assert!(list.is_full(), "case {case}");
    }
}

/// B-list records preserve branch pcs, directions, and icounts.
#[test]
fn blist_decodes_faithfully() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x115_0004);
    for case in 0..128 {
        let len = rng.range(1, 200) as usize;
        let branches: Vec<(u64, bool)> =
            (0..len).map(|_| (rng.below(1_000), rng.chance(0.5))).collect();
        let mut b = BList::new(566, 41);
        let mut accepted = Vec::new();
        for (i, &(pc_slot, taken)) in branches.iter().enumerate() {
            let pc = Addr::new(0x1000 + pc_slot * 4);
            let instr = Instr::cond_branch(pc, taken, Addr::new(0x9000));
            if b.record(&instr, i as u64) {
                accepted.push((pc, taken, i as u64));
            }
        }
        assert_eq!(b.records().len(), accepted.len(), "case {case}");
        for (rec, (pc, taken, icount)) in b.records().iter().zip(&accepted) {
            assert_eq!(rec.pc, *pc, "case {case}");
            assert_eq!(rec.taken, *taken, "case {case}");
            assert_eq!(u64::from(rec.icount), *icount, "case {case}");
        }
    }
}

/// Indirect targets beyond the B-List-Target capacity are dropped but
/// directions keep recording.
#[test]
fn blist_target_capacity() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x115_0005);
    for case in 0..128 {
        let n = rng.range(1, 120) as usize;
        let mut b = BList::new(10_000, 41); // huge direction list, paper-size target list
        for i in 0..n as u64 {
            let instr = Instr::indirect_call(Addr::new(0x1000 + i * 8), Addr::new(0x2000 + i * 8));
            assert!(b.record(&instr, i), "case {case}");
        }
        let with_target = b.records().iter().filter(|r| r.target.is_some()).count();
        // 41 B = 328 bits; near targets cost 17 bits → at most 19 targets.
        assert!(with_target <= 19, "case {case}: targets {with_target}");
        assert_eq!(b.records().len(), n, "case {case}");
    }
}
