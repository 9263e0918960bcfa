//! The intra-run determinism invariant (docs/PARALLELISM.md): chunking a
//! single run across worker threads and merging deterministically must
//! reproduce the serial run *byte for byte* — the full `RunReport` and
//! the JSONL trace stream — at every thread count, for every profile,
//! under accept-heavy (Base), runahead, and always-repair (ESP)
//! configurations alike. Covers all nine built-in families, including
//! the server-side async and IoT/MQTT FSM extras.
//!
//! The next-line data configuration also cross-checks the two DCU
//! paths: serial runs replay the workload's trigger-bit sidecar, while
//! intra-run chunks keep the live tracker.

use esp_core::{SimConfig, Simulator};
use esp_obs::TraceProbe;
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 60_000;
const SEED: u64 = 42;
const THREADS: [usize; 3] = [1, 2, 4];

fn configs() -> [(&'static str, SimConfig); 4] {
    [
        ("base", SimConfig::base()),
        ("runahead", SimConfig::runahead()),
        ("esp_nl", SimConfig::esp_nl()),
        ("nl_d_only", SimConfig::nl_d_only()),
    ]
}

#[test]
fn intra_parallel_runs_are_byte_identical_to_serial() {
    let mut chunked_runs = 0usize;
    for profile in BenchmarkProfile::all_families() {
        let w = profile.scaled(SCALE).build(SEED).materialise();
        for (label, cfg) in configs() {
            let sim = Simulator::new(cfg);
            let mut serial_probe = TraceProbe::new(profile.name(), label).with_windows();
            let serial = sim.run_probed(&w, &mut serial_probe);
            let serial_debug = format!("{serial:?}");
            let serial_trace = serial_probe.into_bytes();
            for threads in THREADS {
                let mut probe = TraceProbe::new(profile.name(), label).with_windows();
                let intra = sim.run_intra_probed(&w, threads, &mut probe);
                let what = format!("{} / {label} / threads={threads}", profile.name());
                assert_eq!(serial_debug, format!("{:?}", intra.report), "report: {what}");
                assert_eq!(serial_trace, probe.into_bytes(), "jsonl trace: {what}");
                if !intra.stats.serial_fallback {
                    chunked_runs += 1;
                    assert_eq!(intra.stats.chunks, intra.stats.accepted + intra.stats.repaired);
                }
            }
        }
    }
    // The invariant must have been exercised by genuinely chunked runs,
    // not vacuously via the serial fallback.
    assert!(
        chunked_runs >= 18,
        "expected most runs to chunk at this scale, got {chunked_runs}"
    );
}
