//! Cachelet sizing study (the Fig. 13 methodology) on one workload.
//!
//! Runs ESP with the jump-ahead depth probe extended to 8 and working-set
//! tracking on, then prints how many instruction cache lines events touch
//! in normal execution versus in each ESP mode — the measurement that
//! justified 5.5 KB + 0.5 KB cachelets and the depth-2 limit.
//!
//! ```text
//! cargo run --release --example working_sets
//! ```

use event_sneak_peek::core::percentile;
use event_sneak_peek::prelude::*;
use event_sneak_peek::stats::Table;

fn main() {
    let workload = BenchmarkProfile::gmaps().scaled(400_000).build(11).materialise();
    let report = Simulator::new(SimConfig::esp_depth_probe()).run(&workload);
    let ws = report.working_sets.expect("depth probe collects working sets");

    let mut t = Table::with_headers(&["mode", "samples", "max", "p95", "p85", "p75"]);
    let mut row = |label: String, samples: &[usize]| {
        t.push_row(vec![
            label,
            samples.len().to_string(),
            percentile(samples, 100.0).to_string(),
            percentile(samples, 95.0).to_string(),
            percentile(samples, 85.0).to_string(),
            percentile(samples, 75.0).to_string(),
        ]);
    };
    row("Normal".into(), &ws.normal_i);
    for (d, samples) in ws.by_depth_i.iter().enumerate() {
        row(format!("ESP{}", d + 1), samples);
    }
    println!("gmaps profile — instruction lines touched per (event, mode):\n");
    println!("{t}");

    let esp1_p95 = percentile(&ws.by_depth_i[0], 95.0);
    let esp2_p95 = percentile(&ws.by_depth_i[1], 95.0);
    println!(
        "ESP-1 p95 working set: {} lines ({} B); the paper provisions 88 lines (5.5 KB).",
        esp1_p95,
        esp1_p95 * 64
    );
    println!(
        "ESP-2 p95 working set: {} lines ({} B); the paper provisions 8 lines (0.5 KB).",
        esp2_p95,
        esp2_p95 * 64
    );
    let deep: usize = ws.by_depth_i[2..].iter().flatten().sum();
    println!("total lines ever touched beyond depth 2: {deep} — why ESP stops at two jump-aheads.");
}
