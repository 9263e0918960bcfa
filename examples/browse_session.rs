//! Domain scenario: a full multi-site "browsing afternoon".
//!
//! Simulates every one of the paper's seven web applications back to
//! back, the way §5 describes the benchmark sessions, and prints a
//! per-site report plus the session-wide harmonic means — the same
//! aggregation the paper's figures use.
//!
//! ```text
//! cargo run --release --example browse_session [scale]
//! ```

use event_sneak_peek::prelude::*;
use event_sneak_peek::stats::{harmonic_mean_improvement, improvement_pct, Table};

fn main() {
    let scale: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(250_000);

    let mut table = Table::with_headers(&[
        "site",
        "events",
        "base CPI",
        "ESP CPI",
        "speedup %",
        "I-MPKI",
        "ESP I-MPKI",
        "windows",
        "pre-exec %",
    ]);
    let mut improvements = Vec::new();

    for profile in BenchmarkProfile::all() {
        let workload = profile.scaled(scale).build(1).materialise();
        let base = Simulator::new(SimConfig::next_line()).run(&workload);
        let esp = Simulator::new(SimConfig::esp_nl()).run(&workload);
        let improvement = improvement_pct(base.busy_cycles(), esp.busy_cycles());
        improvements.push(improvement);
        table.push_row(vec![
            profile.name().to_string(),
            workload.events().len().to_string(),
            format!("{:.2}", 1.0 / base.ipc()),
            format!("{:.2}", 1.0 / esp.ipc()),
            format!("{:.1}", improvement),
            format!("{:.1}", base.l1i_mpki()),
            format!("{:.1}", esp.l1i_mpki()),
            esp.esp.windows.to_string(),
            format!("{:.1}", esp.extra_instr_pct()),
        ]);
    }

    println!("browsing session at ~{scale} instructions per site, ESP+NL vs NL:\n");
    println!("{table}");
    println!(
        "session harmonic-mean ESP speedup over the next-line baseline: {:.1}%",
        harmonic_mean_improvement(&improvements)
    );
    println!("(the paper reports 16% over its NL+stride baseline, §6.1)");
}
