//! Sampled and learned confidence intervals contain the exact answer at
//! the rate they claim.
//!
//! The panel is the benchmark's accuracy panel (`perfbench`):
//! {Base, Runahead, EspNl} × the 9 families × workload seeds 42–44, at
//! 600k instructions per family (family `i` of seed `s` generated from
//! seed `16·s + i`), sampled at grain 2000, period 20. A cell is covered
//! when its exact CPI lies inside `estimate.cpi ± ci95`
//! (`esp_stats::RatioEstimate::covers`). Sampled and learned mode must
//! each cover at least [`FLOOR`] of the 81 cells (measured: sampled
//! 76/81, learned 81/81; EXPERIMENTS.md records both).
//!
//! Release-only: 243 simulations at 600k instructions take seconds in
//! release and minutes unoptimised. `scripts/verify.sh` runs it with
//! `--release`.

use esp_bench::ConfigKey;
use esp_core::{LearnParams, SampleParams, Simulator};
use esp_workload::{arena, BenchmarkProfile};

const SCALE: u64 = 600_000;
const SEEDS: [u64; 3] = [42, 43, 44];
const KEYS: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl];
const PARAMS: SampleParams = SampleParams {
    grain_instrs: 2_000,
    period: 20,
};

/// The share of cells whose 95% interval must hold the exact CPI.
const FLOOR: f64 = 0.90;

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-only; scripts/verify.sh runs it with --release"
)]
fn interval_coverage_meets_floor() {
    let (mut cells, mut sampled, mut learned) = (0usize, 0usize, 0usize);
    let (mut misses, mut learned_misses) = (Vec::new(), Vec::new());
    for seed in SEEDS {
        arena::reset();
        for (i, profile) in BenchmarkProfile::all_families().into_iter().enumerate() {
            let w = arena::packed_for(&profile.scaled(SCALE), seed * 16 + i as u64, 1);
            for key in KEYS {
                let sim = Simulator::new(key.config());
                let exact = sim.run(&w);
                let exact_cpi = exact.busy_cycles() as f64 / exact.engine.retired as f64;
                cells += 1;
                if sim.run_sampled(&w, PARAMS).estimate.cpi.covers(exact_cpi) {
                    sampled += 1;
                } else {
                    misses.push(format!("{} {key:?} seed {seed}", profile.name()));
                }
                let run = sim.run_sampled_learned(&w, PARAMS, LearnParams::default());
                if run.estimate.cpi.covers(exact_cpi) {
                    learned += 1;
                } else {
                    learned_misses.push(format!("{} {key:?} seed {seed}", profile.name()));
                }
            }
        }
    }
    arena::reset();
    let share = |n: usize| n as f64 / cells as f64;
    println!(
        "ci95 coverage over {cells} cells: sampled {sampled}/{cells} ({:.3}), \
         learned {learned}/{cells} ({:.3}); floor {FLOOR}",
        share(sampled),
        share(learned)
    );
    println!("cells outside their interval: sampled {misses:?}, learned {learned_misses:?}");
    assert_eq!(cells, 81);
    assert!(
        share(sampled) >= FLOOR,
        "sampled ci95 coverage {sampled}/{cells} is below the {FLOOR} floor; outside: {misses:?}"
    );
    assert!(
        share(learned) >= FLOOR,
        "learned ci95 coverage {learned}/{cells} is below the {FLOOR} floor; outside: {learned_misses:?}"
    );
}
