//! Learned fast-forwarding accuracy gate: for all 9 families × {base,
//! runahead, esp_nl} the learned-mode estimates must track exact ground
//! truth — busy CPI within a measured tolerance and stall-class *shares*
//! of busy cycles within a few points — and the acceleration must be
//! non-vacuous: the model actually trained, predicted, and skipped
//! grains, and the run was not silently rerun with plain warming.
//!
//! Tolerances are calibrated from the measured error envelope at this
//! exact (scale, grain, period, seed, learn-params) operating point —
//! measured worst 5.74 % (gdocs runahead) — see docs/PERFORMANCE.md.
//! Everything here is deterministic: regression gates, not statistics.

use esp_bench::ConfigKey;
use esp_core::{LearnParams, RunReport, SampleParams, Simulator};
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 2_400_000;
const SEED: u64 = 42;
const PARAMS: SampleParams = SampleParams { grain_instrs: 2_000, period: 20 };

/// Measured worst at this operating point: 5.74 % (gdocs runahead).
const CPI_TOL_PCT: f64 = 6.0;
/// Stall-class share drift, in percentage points of busy cycles.
const SHARE_TOL_PTS: f64 = 3.0;

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
fn learned_ff_error() {
    let configs = [
        ("base", ConfigKey::Base),
        ("runahead", ConfigKey::Runahead),
        ("esp_nl", ConfigKey::EspNl),
    ];
    for profile in BenchmarkProfile::all_families() {
        let w = esp_workload::arena::packed_for(&profile.scaled(SCALE), SEED, 1);
        for (name, key) in configs {
            let sim = Simulator::new(key.config());
            let exact = sim.run(&w);
            let learned = sim.run_sampled_learned(&w, PARAMS, LearnParams::default());
            assert!(
                !learned.estimate.exact_fallback,
                "{}/{name}: fell back to exact — scale too small for the operating point",
                profile.name()
            );
            let stats = learned
                .learned
                .as_ref()
                .unwrap_or_else(|| panic!("{}/{name}: no learned stats", profile.name()));
            // The gate is about *accelerated* accuracy: a run that never
            // skipped (model never trained, or fell all the way down the
            // fallback ladder) would pass the error bounds vacuously.
            assert!(
                !stats.rerun_full,
                "{}/{name}: rerun with plain warming — gate is vacuous",
                profile.name()
            );
            assert!(
                stats.predictions > 0 && stats.skipped_grains > 0,
                "{}/{name}: no predictions ({}) or skipped grains ({}) — gate is vacuous",
                profile.name(),
                stats.predictions,
                stats.skipped_grains
            );

            let (e_cpi, l_cpi) = (cpi(&exact), cpi(&learned.report));
            let err = 100.0 * (l_cpi - e_cpi).abs() / e_cpi;
            assert!(
                err < CPI_TOL_PCT,
                "{}/{name}: CPI error {err:.2}% (exact {e_cpi:.4}, learned {l_cpi:.4}, \
                 ci95 {:.2}%, skipped {} grains, {} fallbacks)",
                profile.name(),
                learned.estimate.cpi.rel_ci95_pct(),
                stats.skipped_grains,
                stats.fallbacks
            );

            for ((e_share, class), (l_share, _)) in
                shares(&exact).into_iter().zip(shares(&learned.report))
            {
                let drift = (l_share - e_share).abs();
                assert!(
                    drift < SHARE_TOL_PTS,
                    "{}/{name}: {class} share drifted {drift:.2} points \
                     (exact {e_share:.2}%, learned {l_share:.2}%)",
                    profile.name()
                );
            }
        }
    }
}
