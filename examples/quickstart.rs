//! Quickstart: simulate one benchmark under the baseline and under ESP,
//! and print the headline comparison.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use event_sneak_peek::prelude::*;

fn main() {
    // A scaled-down "amazon" browsing session: event lengths follow the
    // paper's Fig. 6 ratio, the total is capped for a quick run.
    let workload = BenchmarkProfile::amazon().scaled(300_000).build(42).materialise();
    println!(
        "workload: {} events, {} instructions",
        workload.events().len(),
        workload.approx_total_instructions()
    );

    // The strongest conventional baseline: next-line + stride prefetching.
    let baseline = Simulator::new(SimConfig::next_line_stride()).run(&workload);
    // The same machine with the Event Sneak Peek architecture on top.
    let esp = Simulator::new(SimConfig::esp_nl()).run(&workload);

    println!("\n                {:>12} {:>12}", "NL + stride", "ESP + NL");
    println!(
        "busy cycles     {:>12} {:>12}",
        baseline.busy_cycles(),
        esp.busy_cycles()
    );
    println!("IPC             {:>12.3} {:>12.3}", baseline.ipc(), esp.ipc());
    println!(
        "L1-I MPKI       {:>12.1} {:>12.1}",
        baseline.l1i_mpki(),
        esp.l1i_mpki()
    );
    println!(
        "L1-D miss %     {:>12.2} {:>12.2}",
        baseline.l1d_miss_rate_pct(),
        esp.l1d_miss_rate_pct()
    );
    println!(
        "mispredict %    {:>12.2} {:>12.2}",
        baseline.mispredict_rate_pct(),
        esp.mispredict_rate_pct()
    );
    println!(
        "\nESP speedup: {:.1}%  (pre-executed {:.1}% extra instructions in {} stall windows)",
        esp_stats_improvement(&baseline, &esp),
        esp.extra_instr_pct(),
        esp.esp.windows
    );
}

fn esp_stats_improvement(base: &RunReport, esp: &RunReport) -> f64 {
    event_sneak_peek::stats::improvement_pct(base.busy_cycles(), esp.busy_cycles())
}
