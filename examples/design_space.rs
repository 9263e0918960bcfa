//! Design-space walk: which pieces of ESP buy what?
//!
//! Reproduces the spirit of Figs. 10 and 12 on one workload: starting
//! from naive ESP (no cachelets, no lists) and adding one mechanism at a
//! time, then sweeping the branch-predictor context policies.
//!
//! ```text
//! cargo run --release --example design_space
//! ```

use event_sneak_peek::prelude::*;
use event_sneak_peek::stats::{improvement_pct, Table};

fn main() {
    let workload = BenchmarkProfile::facebook().scaled(300_000).build(7).materialise();
    let base = Simulator::new(SimConfig::base()).run(&workload);

    println!("facebook profile, {} events; all speedups vs the no-prefetch baseline\n", workload.events().len());

    let mut t = Table::with_headers(&["mechanism set", "speedup %", "I-MPKI", "mispredict %"]);
    let steps: Vec<(&str, SimConfig)> = vec![
        ("baseline + NL", SimConfig::next_line()),
        ("naive ESP + NL (no cachelets/lists)", SimConfig::naive_esp_nl()),
        ("+ cachelets & I-list", SimConfig::esp_i_nl()),
        ("+ B-list ahead-training", SimConfig::esp_ib_nl()),
        ("+ D-list (full ESP)", SimConfig::esp_nl()),
    ];
    for (label, cfg) in steps {
        let r = Simulator::new(cfg).run(&workload);
        t.push_row(vec![
            label.to_string(),
            format!("{:.1}", improvement_pct(base.busy_cycles(), r.busy_cycles())),
            format!("{:.1}", r.l1i_mpki()),
            format!("{:.2}", r.mispredict_rate_pct()),
        ]);
    }
    println!("{t}");

    let mut t = Table::with_headers(&["branch-context policy", "mispredict %"]);
    let policies: Vec<(&str, SimConfig)> = vec![
        ("no ESP at all", SimConfig::next_line()),
        ("shared PIR + tables (no extra HW)", SimConfig::esp_bp_shared()),
        ("separate PIR", SimConfig::esp_bp_separate_context()),
        ("separate PIR + full table replicas", SimConfig::esp_bp_separate_tables()),
        ("separate PIR + B-list (shipping ESP)", SimConfig::esp_nl()),
    ];
    for (label, cfg) in policies {
        let r = Simulator::new(cfg).run(&workload);
        t.push_row(vec![label.to_string(), format!("{:.2}", r.mispredict_rate_pct())]);
    }
    println!("{t}");
    println!(
        "hardware added by the shipping design: {:.1} KB (Fig. 8)",
        event_sneak_peek::core::total_added_bytes() as f64 / 1024.0
    );
}
