//! The batched tag-sweep probe and run-prefetch entries are equivalent
//! to their scalar forms on randomized streams.

use esp_mem::{CacheConfig, HierarchyConfig, MemoryHierarchy, Port, SetAssocCache};
use esp_types::{Cycle, LineAddr, Rng, SplitMix64};

/// `probe_run`'s bitmask must agree with one scalar `probe` per line,
/// across random contents, run starts (including set-index wrap), and
/// run lengths up to the 64-line cap.
#[test]
fn probe_run_matches_scalar_probe() {
    let mut rng = SplitMix64::new(0xBA7C);
    let mut c = SetAssocCache::new(CacheConfig::l1_32k("L1-D"));
    for round in 0..200 {
        // Grow the contents as rounds progress: probes see every mix of
        // cold, resident, and recently-evicted lines.
        for _ in 0..16 {
            let line = LineAddr::new(rng.next_u64() % 4096);
            c.fill(line, Cycle::new(rng.next_u64() % 500), rng.next_u64() & 1 != 0);
        }
        let start = LineAddr::new(rng.next_u64() % 4096);
        let n = 1 + rng.next_u64() % 64;
        let mask = c.probe_run(start, n);
        for k in 0..n {
            let line = LineAddr::new(start.as_u64() + k);
            assert_eq!(
                (mask >> k) & 1 != 0,
                c.probe(line),
                "round {round}: line {} of run [{}; {n}]",
                line.as_u64(),
                start.as_u64()
            );
        }
    }
}

fn scalar_prefetch_run(
    m: &mut MemoryHierarchy,
    port: Port,
    start: LineAddr,
    n: u64,
    now: Cycle,
) -> u64 {
    (0..n)
        .map(|k| u64::from(m.prefetch(port, LineAddr::new(start.as_u64() + k), now, true)))
        .sum()
}

/// Driving one hierarchy through the batched run-prefetch entries and a
/// twin through per-line scalar prefetches — interleaved with identical
/// random demand traffic — must produce the same issued counts, op
/// logs, statistics, and subsequent demand-access results.
#[test]
fn run_prefetch_matches_scalar_loop() {
    let mut rng = SplitMix64::new(0x90F7);
    let mut batched = MemoryHierarchy::new(HierarchyConfig::exynos5250());
    let mut scalar = MemoryHierarchy::new(HierarchyConfig::exynos5250());
    batched.set_recording(true);
    scalar.set_recording(true);
    let mut t = 0u64;
    for round in 0..400 {
        t += rng.next_u64() % 200;
        let now = Cycle::new(t);
        match rng.next_u64() % 3 {
            // Demand traffic keeps LRU state, in-flight fills, and
            // prefetched bits diverse between run prefetches.
            0 => {
                let line = LineAddr::new(rng.next_u64() % 8192);
                let store = rng.next_u64() & 1 != 0;
                assert_eq!(
                    batched.access(Port::Data, line, now, store),
                    scalar.access(Port::Data, line, now, store),
                    "round {round}: demand data access"
                );
            }
            1 => {
                let line = LineAddr::new(rng.next_u64() % 8192);
                assert_eq!(
                    batched.access(Port::Instr, line, now, false),
                    scalar.access(Port::Instr, line, now, false),
                    "round {round}: demand instruction fetch"
                );
            }
            _ => {
                let start = LineAddr::new(rng.next_u64() % 8192);
                // I/D-list run records carry at most 8 lines (3-bit run
                // field); probe a little beyond that anyway.
                let n = 1 + rng.next_u64() % 12;
                let port = if rng.next_u64() & 1 != 0 { Port::Instr } else { Port::Data };
                let got = batched.prefetch_run(port, start, n, now, true);
                let want = scalar_prefetch_run(&mut scalar, port, start, n, now);
                assert_eq!(got, want, "round {round}: issued count for run [{start:?}; {n}]");
            }
        }
    }
    assert_eq!(batched.take_ops(), scalar.take_ops(), "op logs");
    assert_eq!(batched.snapshot(), scalar.snapshot(), "per-level statistics");
    // Post-hoc sweep: identical residency and latency classes everywhere.
    let end = Cycle::new(t + 1_000_000);
    for line in 0..8192 {
        let l = LineAddr::new(line);
        for port in Port::BOTH {
            assert_eq!(
                batched.access(port, l, end, false),
                scalar.access(port, l, end, false),
                "final sweep: line {line} ({port:?})"
            );
        }
    }
}
