//! The parallel runner is fidelity-free: reports produced through the
//! thread-pool fan-out are identical to direct sequential simulation for
//! every profile, and identical across worker-thread counts.

use esp_bench::{ConfigKey, Runner};
use esp_core::{RunReport, Simulator};
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 20_000;
const SEED: u64 = 9;
const KEYS: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::EspNl, ConfigKey::Runahead];

fn assert_reports_equal(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: total_cycles");
    assert_eq!(a.engine, b.engine, "{what}: engine stats");
    assert_eq!(a.esp, b.esp, "{what}: esp stats");
    assert_eq!(a.events_run, b.events_run, "{what}: events_run");
    assert_eq!(a.cpi_stack, b.cpi_stack, "{what}: cpi_stack");
}

#[test]
fn parallel_runner_matches_sequential_across_thread_counts() {
    // Sequential reference: workloads built one by one, every simulation
    // run inline on this thread.
    let reference: Vec<Vec<RunReport>> = BenchmarkProfile::all()
        .iter()
        .map(|p| {
            let w = p.scaled(SCALE).build(SEED).materialise();
            KEYS.iter().map(|k| Simulator::new(k.config()).run(&w)).collect()
        })
        .collect();

    let max_threads = esp_par::threads();
    for threads in [1, 2, max_threads] {
        let mut runner = Runner::with_threads(SCALE, SEED, threads);
        runner.ensure(&KEYS);
        let names = runner.names();
        assert_eq!(names.len(), reference.len());
        for (i, per_profile) in reference.iter().enumerate() {
            for (k, want) in KEYS.iter().zip(per_profile) {
                let got = runner.run(i, *k);
                assert_reports_equal(
                    got,
                    want,
                    &format!("threads={threads} profile={} key={:?}", names[i], k),
                );
            }
        }
    }
}
