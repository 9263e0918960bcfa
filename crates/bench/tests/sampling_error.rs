//! Sampling-mode accuracy and determinism gates.
//!
//! 1. `sampling_error`: for all 7 profiles × {base, runahead, esp_nl}
//!    the sampled estimates must track exact ground truth — busy-CPI
//!    within a measured tolerance, stall-class *shares* of busy cycles
//!    within a few points, and the figure of merit (speedup over
//!    baseline) even tighter, because the baseline and the compared
//!    configuration sample the *same* grains and their estimation noise
//!    is correlated.
//! 2. `sampled_reports_identical_across_thread_counts`: the sampled
//!    matrix is deterministic — a 1-thread and a 4-thread runner (with
//!    longest-job-first dispatch reordering the actual execution) must
//!    produce byte-identical reports.
//!
//! Tolerances are calibrated from the measured error envelope at this
//! exact (scale, grain, period, seed) operating point — see the table
//! in docs/PERFORMANCE.md — with ≥ 1.4× headroom. Everything here is
//! deterministic: these are regression gates, not statistical tests.

use esp_bench::{ConfigKey, Runner};
use esp_core::{RunReport, SampleParams, Simulator};
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 2_400_000;
const SEED: u64 = 42;
const PARAMS: SampleParams = SampleParams { grain_instrs: 2_000, period: 20 };

/// Measured worst at this operating point: 4.18 % (gdocs base).
const CPI_TOL_PCT: f64 = 6.0;
/// Stall-class share drift, in percentage points of busy cycles.
const SHARE_TOL_PTS: f64 = 3.0;
/// Speedup-vs-baseline drift; correlated sampling keeps this tight.
const SPEEDUP_TOL_PCT: f64 = 4.0;

/// Top-level stall-class shares of busy cycles, in percent.
fn shares(r: &RunReport) -> [(f64, &'static str); 4] {
    let busy = r.busy_cycles() as f64;
    let s = &r.cpi_stack;
    [
        (100.0 * s.base as f64 / busy, "base"),
        (100.0 * (s.icache_l2 + s.icache_llc) as f64 / busy, "icache"),
        (100.0 * (s.dcache_l2 + s.dcache_llc) as f64 / busy, "dcache"),
        (
            100.0 * (s.branch_mispredict + s.branch_misfetch) as f64 / busy,
            "branch",
        ),
    ]
}

fn cpi(r: &RunReport) -> f64 {
    r.busy_cycles() as f64 / r.engine.retired as f64
}

#[test]
fn sampling_error() {
    let configs = [
        ("base", ConfigKey::Base),
        ("runahead", ConfigKey::Runahead),
        ("esp_nl", ConfigKey::EspNl),
    ];
    for profile in BenchmarkProfile::all() {
        let w = esp_workload::arena::packed_for(&profile.scaled(SCALE), SEED, 1);
        let mut exact_base_cycles = 0u64;
        let mut sampled_base_cycles = 0u64;
        for (name, key) in configs {
            let sim = Simulator::new(key.config());
            let exact = sim.run(&w);
            let sampled = sim.run_sampled(&w, PARAMS);
            assert!(
                !sampled.estimate.exact_fallback,
                "{}/{name}: fell back to exact — scale too small for the operating point",
                profile.name()
            );

            let (e_cpi, s_cpi) = (cpi(&exact), cpi(&sampled.report));
            let err = 100.0 * (s_cpi - e_cpi).abs() / e_cpi;
            assert!(
                err < CPI_TOL_PCT,
                "{}/{name}: CPI error {err:.2}% (exact {e_cpi:.4}, sampled {s_cpi:.4}, \
                 ci95 {:.2}%)",
                profile.name(),
                sampled.estimate.cpi.rel_ci95_pct()
            );

            for ((e_share, class), (s_share, _)) in
                shares(&exact).into_iter().zip(shares(&sampled.report))
            {
                let drift = (s_share - e_share).abs();
                assert!(
                    drift < SHARE_TOL_PTS,
                    "{}/{name}: {class} share drifted {drift:.2} points \
                     (exact {e_share:.2}%, sampled {s_share:.2}%)",
                    profile.name()
                );
            }

            if key == ConfigKey::Base {
                exact_base_cycles = exact.busy_cycles();
                sampled_base_cycles = sampled.report.busy_cycles();
            } else {
                let e_speedup = exact_base_cycles as f64 / exact.busy_cycles() as f64;
                let s_speedup = sampled_base_cycles as f64 / sampled.report.busy_cycles() as f64;
                let drift = 100.0 * (s_speedup - e_speedup).abs() / e_speedup;
                assert!(
                    drift < SPEEDUP_TOL_PCT,
                    "{}/{name}: speedup-vs-baseline drifted {drift:.2}% \
                     (exact {e_speedup:.4}x, sampled {s_speedup:.4}x)",
                    profile.name()
                );
            }
        }
    }
}

#[test]
fn sampled_reports_identical_across_thread_counts() {
    let scale = 300_000;
    let keys = [ConfigKey::Base, ConfigKey::EspNl];
    let mut reports: Vec<Vec<String>> = Vec::new();
    for threads in [1usize, 4] {
        let mut runner = Runner::with_threads(scale, SEED, threads);
        runner.set_sampling(Some(PARAMS));
        runner.ensure(&keys);
        let mut out = Vec::new();
        for i in 0..runner.names().len() {
            for key in keys {
                out.push(format!("{:?}", runner.cached(i, key).expect("ensured")));
            }
        }
        reports.push(out);
    }
    assert_eq!(
        reports[0], reports[1],
        "sampled reports differ between 1-thread and 4-thread runners"
    );
}
