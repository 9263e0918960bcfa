//! Sampled-vs-exact error sweep: the calibration tool behind the
//! tolerance constants in `crates/bench/tests/sampling_error.rs` and
//! the error table in `docs/PERFORMANCE.md`.
//!
//! Runs every benchmark profile under base / runahead / ESP+NL, exactly
//! and sampled, and prints the per-cell signed CPI error next to the
//! estimator's own 95 % confidence half-width — an unbiased estimator
//! shows errors scattered inside the interval, a biased one shows them
//! piled on one side.
//!
//! ```text
//! cargo run --release -p esp-core --example sweep [scale] [grain] [period]
//! ```

use esp_core::{SampleParams, SimConfig, Simulator};
use esp_workload::BenchmarkProfile;

fn main() {
    let scale: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(2_400_000);
    let grain: u64 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(2_000);
    let period: u64 = std::env::args().nth(3).and_then(|s| s.parse().ok()).unwrap_or(20);
    let mut worst = 0f64;
    for p in BenchmarkProfile::all() {
        let w = esp_workload::arena::packed_for(&p.scaled(scale), 42, 1);
        let configs =
            [("base", SimConfig::base()), ("ra", SimConfig::runahead()), ("espnl", SimConfig::esp_nl())];
        for (name, cfg) in configs {
            let sim = Simulator::new(cfg);
            let exact = sim.run(&w);
            let s = sim.run_sampled(&w, SampleParams::new(grain, period));
            let ec = exact.busy_cycles() as f64 / exact.engine.retired as f64;
            let sc = s.report.busy_cycles() as f64 / s.report.engine.retired as f64;
            let err = 100.0 * (sc - ec) / ec;
            worst = worst.max(err.abs());
            println!(
                "{:<9} {:<5} err {:+6.2}%  ci95 {:5.2}%  n {:4}  exact_cpi {:.4} sampled {:.4}",
                p.name(),
                name,
                err,
                s.estimate.cpi.rel_ci95_pct(),
                s.estimate.grains_measured,
                ec,
                sc
            );
        }
    }
    println!("worst |err| = {worst:.2}%");
}
