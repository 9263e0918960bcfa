//! Observability invariants across the full benchmark matrix.
//!
//! Three properties back everything `docs/OBSERVABILITY.md` promises:
//!
//! 1. **Conservation** — the CPI stack partitions the run: the eight
//!    [`CycleClass`]es sum to `total_cycles`, the per-event span stacks
//!    tile the run with no gap or overlap, and the coarse
//!    `CycleBreakdown` is exactly the folded stack.
//! 2. **Determinism** — CPI stacks are identical for any worker-thread
//!    count (the `cpi` of every `--trace` `run` line must not depend on
//!    `--threads`).
//! 3. **Trace stability** — the JSONL trace is byte-identical across
//!    thread counts, because per-worker buffers are merged in input
//!    order.

use esp_bench::{ConfigKey, Runner};
use esp_core::Simulator;
use esp_obs::{CpiObserver, CycleClass};
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 18_000;
const SEED: u64 = 11;
const KEYS: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::EspNl, ConfigKey::Runahead];

/// Every stall class is accounted for, for every profile under every
/// configuration family: stack total == engine total, span stacks tile
/// the run, and the coarse breakdown is the folded stack.
#[test]
fn cpi_stack_conserves_cycles_everywhere() {
    for profile in BenchmarkProfile::all() {
        let workload = profile.scaled(SCALE).build(SEED).materialise();
        for key in KEYS {
            let what = format!("{} / {}", profile.name(), key.label());
            let mut obs = CpiObserver::default();
            let report = Simulator::new(key.config()).run_probed(&workload, &mut obs);

            // (1) The eight classes partition the run.
            assert_eq!(report.cpi_stack.total(), report.total_cycles, "{what}: stack total");
            let by_class: u64 =
                CycleClass::ALL.iter().map(|&c| report.cpi_stack.get(c)).sum();
            assert_eq!(by_class, report.total_cycles, "{what}: class sum");

            // (2) Per-event spans tile the run: one span per event, and
            // their stacks sum field-wise to the run stack.
            assert_eq!(obs.events.len() as u64, report.events_run, "{what}: span count");
            let mut tiled = esp_obs::CpiStack::default();
            for span in &obs.events {
                assert!(span.start <= span.end, "{what}: span ordering");
                tiled.merge(&span.stack);
            }
            assert_eq!(tiled, report.cpi_stack, "{what}: span tiling");

            // (3) The coarse breakdown is exactly the folded stack.
            let s = &report.cpi_stack;
            assert_eq!(report.breakdown.base, s.base, "{what}: base fold");
            assert_eq!(report.breakdown.icache, s.icache_l2 + s.icache_llc, "{what}: icache fold");
            assert_eq!(report.breakdown.dcache, s.dcache_l2 + s.dcache_llc, "{what}: dcache fold");
            assert_eq!(
                report.breakdown.branch,
                s.branch_mispredict + s.branch_misfetch,
                "{what}: branch fold"
            );
            assert_eq!(report.breakdown.idle, s.idle, "{what}: idle fold");

            // (4) The run summary mirrors the report.
            let run = obs.run.expect("on_run fired");
            assert_eq!(run.total_cycles, report.total_cycles, "{what}: summary cycles");
            assert_eq!(run.stack, report.cpi_stack, "{what}: summary stack");
            assert_eq!(run.retired, report.engine.retired, "{what}: summary retired");
        }
    }
}

/// CPI stacks do not depend on the worker-thread count.
#[test]
fn cpi_stacks_are_thread_count_invariant() {
    let max_threads = esp_par::threads();
    let mut reference: Option<Vec<Vec<esp_obs::CpiStack>>> = None;
    for threads in [1, 2, max_threads] {
        let mut runner = Runner::with_threads(SCALE, SEED, threads);
        runner.ensure(&KEYS);
        let stacks: Vec<Vec<esp_obs::CpiStack>> = (0..runner.names().len())
            .map(|i| KEYS.iter().map(|&k| runner.run(i, k).cpi_stack).collect())
            .collect();
        match &reference {
            None => reference = Some(stacks),
            Some(want) => assert_eq!(&stacks, want, "threads={threads}: stacks differ"),
        }
    }
}

/// The JSONL trace written through the parallel runner is byte-identical
/// for any thread count, and every line is a self-contained JSON object.
#[test]
fn trace_bytes_are_thread_count_invariant() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let mut reference: Option<Vec<u8>> = None;
    for threads in [1, esp_par::threads().max(2)] {
        let path = dir.join(format!("esp-obs-trace-{pid}-{threads}.jsonl"));
        let mut runner = Runner::with_threads(SCALE, SEED, threads);
        runner.set_trace_output(&path).expect("temp trace file");
        assert!(runner.tracing());
        runner.ensure(&[ConfigKey::Base, ConfigKey::EspNl]);
        // Drop the runner to flush the sink before reading the file back.
        drop(runner);
        let bytes = std::fs::read(&path).expect("trace written");
        let _ = std::fs::remove_file(&path);

        assert!(!bytes.is_empty(), "threads={threads}: empty trace");
        let text = std::str::from_utf8(&bytes).expect("trace is UTF-8");
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "threads={threads}: malformed trace line: {line}"
            );
        }
        match &reference {
            None => reference = Some(bytes),
            Some(want) => assert_eq!(&bytes, want, "threads={threads}: trace bytes differ"),
        }
    }
}
