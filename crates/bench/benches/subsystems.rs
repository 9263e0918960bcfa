//! Plain timing harness (no external bench framework — the build runs
//! offline) for the individual simulator substrates: how fast the cache
//! model, branch predictor, workload generator, and the end-to-end
//! simulator execute on this host. Run with
//! `cargo bench -p esp-bench --bench subsystems [-- ITERS]`.

use esp_core::{SimConfig, Simulator};
use esp_workload::BenchmarkProfile;
use std::hint::black_box;
use std::time::Instant;

const DEFAULT_ITERS: u32 = 5;

/// Times `f` and prints throughput for `elements` units of work per call.
fn time<R>(name: &str, iters: u32, elements: u64, mut f: impl FnMut() -> R) {
    black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    let rate = if best > 0.0 { elements as f64 / best } else { 0.0 };
    println!("{name:<24} {:>10.3} ms/iter  {:>12.0} elems/s (min of {iters})", best * 1e3, rate);
}

fn bench_cache(iters: u32) {
    use esp_mem::{CacheConfig, SetAssocCache};
    use esp_types::{Cycle, LineAddr};
    let mut cache = SetAssocCache::new(CacheConfig::l1_32k("L1"));
    let mut i = 0u64;
    time("cache/l1_access_stream", iters, 10_000, || {
        for _ in 0..10_000 {
            // A mix of hits and conflict misses across 1024 lines.
            let line = LineAddr::new((i * 769) % 1024);
            if !cache.access(line, Cycle::new(i)).is_hit() {
                cache.fill(line, Cycle::new(i), Cycle::new(i), false);
            }
            i += 1;
        }
        cache.occupancy()
    });
}

fn bench_branch(iters: u32) {
    use esp_branch::{BranchConfig, BranchPredictor, ContextPolicy, PredictorContext};
    use esp_trace::Instr;
    use esp_types::Addr;
    let mut bp = BranchPredictor::new(BranchConfig::pentium_m(), ContextPolicy::SeparatePir);
    let mut i = 0u64;
    time("branch/predict_update", iters, 10_000, || {
        let mut correct = 0u32;
        for _ in 0..10_000 {
            let pc = Addr::new(0x1000 + (i % 512) * 24);
            let taken = !(i / 7).is_multiple_of(3);
            let instr = Instr::cond_branch(pc, taken, Addr::new(0x4000));
            if bp.predict_and_update(PredictorContext::Normal, &instr).is_correct() {
                correct += 1;
            }
            i += 1;
        }
        correct
    });
}

fn bench_workload(iters: u32) {
    use esp_trace::{record_stream, Workload};
    let w = BenchmarkProfile::amazon().scaled(100_000).build(3);
    let id = w.events()[0].id;
    time("workload/walk_generation", iters, 20_000, || {
        let mut s = w.actual_stream(id);
        record_stream(&mut *s, 20_000).len()
    });
}

fn bench_simulator(iters: u32) {
    let w = BenchmarkProfile::amazon().scaled(60_000).build(3).materialise();
    for (name, cfg) in [
        ("simulator/baseline_60k", SimConfig::next_line()),
        ("simulator/esp_nl_60k", SimConfig::esp_nl()),
    ] {
        time(name, iters, 60_000, || Simulator::new(cfg.clone()).run(&w).total_cycles);
    }
}

fn main() {
    let iters: u32 = std::env::args()
        .skip(1)
        .find_map(|a| a.parse().ok())
        .unwrap_or(DEFAULT_ITERS);
    bench_cache(iters);
    bench_branch(iters);
    bench_workload(iters);
    bench_simulator(iters);
}
