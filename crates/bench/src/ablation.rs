//! Ablation studies for the design choices DESIGN.md calls out: replay
//! lead distances, jump-ahead depth, and the looper-prologue head start.
//!
//! These sweeps are not figures from the paper; they probe the presets
//! the paper fixes by fiat (the 190-instruction prefetch lead of §3.6,
//! the ~30-branch training lead, the depth-2 limit of §3.1, the
//! 70-instruction looper window) and show each sits on a plateau or knee.
//! Each sweep fans its simulation points out over `threads`
//! [`esp_par`] workers; runs share only the immutable workload, so
//! results are thread-count-independent.

use crate::runner::FigureReport;
use esp_core::{RunReport, SimConfig, SimMode, Simulator};
use esp_stats::{improvement_pct, Table};
use esp_trace::PackedWorkload;
use esp_workload::{arena, BenchmarkProfile};

fn esp_with(mutate: impl FnOnce(&mut esp_core::EspFeatures)) -> SimConfig {
    let mut cfg = SimConfig::esp_nl();
    if let SimMode::Esp(ref mut f) = cfg.mode {
        mutate(f);
    }
    cfg
}

fn run(cfg: SimConfig, w: &PackedWorkload) -> RunReport {
    Simulator::new(cfg).run(w)
}

/// The sweep's memoised packed workload: decoded once per (profile,
/// scale, seed) process-wide, replayed by every sweep point.
fn packed(
    profile: BenchmarkProfile,
    scale: u64,
    seed: u64,
    threads: usize,
) -> std::sync::Arc<PackedWorkload> {
    arena::packed_for(&profile.scaled(scale), seed, threads)
}

/// Sweeps the list-prefetch lead distance (§3.6 fixes 190).
pub fn prefetch_lead(scale: u64, seed: u64, threads: usize) -> FigureReport {
    let w = packed(BenchmarkProfile::amazon(), scale, seed, threads);
    const LEADS: [u64; 5] = [16, 64, 190, 500, 1500];
    // One job per sweep point plus the NL baseline, all on the pool.
    let mut configs = vec![SimConfig::next_line()];
    configs.extend(LEADS.iter().map(|&lead| esp_with(|f| f.prefetch_lead_instrs = lead)));
    let reports = esp_par::parallel_map(threads, &configs, |_, cfg| run(cfg.clone(), &w));
    let nl = &reports[0];
    let mut t = Table::with_headers(&["lead (instrs)", "speedup over NL %", "I-MPKI"]);
    for (lead, r) in LEADS.iter().zip(&reports[1..]) {
        t.push_row(vec![
            lead.to_string(),
            format!("{:.2}", improvement_pct(nl.busy_cycles(), r.busy_cycles())),
            format!("{:.2}", r.l1i_mpki()),
        ]);
    }
    FigureReport {
        id: "Ablation A",
        title: "List-prefetch lead distance (amazon; the paper presets 190)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "too short a lead leaves fills in flight at use (partial hits); \
             very long leads risk eviction before use."
                .into(),
        ],
    }
}

/// Sweeps the B-list training lead (§3.6: "a preset number of branches
/// ahead ... neither too far in the future nor too short").
pub fn bp_train_lead(scale: u64, seed: u64, threads: usize) -> FigureReport {
    let w = packed(BenchmarkProfile::cnn(), scale, seed, threads);
    const LEADS: [u64; 5] = [2, 10, 30, 100, 400];
    let reports = esp_par::parallel_map(threads, &LEADS, |_, &lead| {
        run(esp_with(|f| f.bp_train_lead_branches = lead), &w)
    });
    let mut t = Table::with_headers(&["lead (branches)", "mispredict %"]);
    for (lead, r) in LEADS.iter().zip(&reports) {
        t.push_row(vec![lead.to_string(), format!("{:.3}", r.mispredict_rate_pct())]);
    }
    FigureReport {
        id: "Ablation B",
        title: "B-list training lead (cnn; the paper presets ~30 branches)",
        tables: vec![(String::new(), t)],
        notes: vec![],
    }
}

/// Sweeps the jump-ahead depth (§3.1 fixes 2).
pub fn depth(scale: u64, seed: u64, threads: usize) -> FigureReport {
    let w = packed(BenchmarkProfile::facebook(), scale, seed, threads);
    let mut configs = vec![SimConfig::next_line()];
    configs.extend((1usize..=4).map(|d| esp_with(|f| f.depth = d)));
    let reports = esp_par::parallel_map(threads, &configs, |_, cfg| run(cfg.clone(), &w));
    let nl = &reports[0];
    let mut t = Table::with_headers(&[
        "depth",
        "speedup over NL %",
        "pre-executed %",
        "instrs at deepest level",
    ]);
    for (d, r) in (1usize..=4).zip(&reports[1..]) {
        t.push_row(vec![
            d.to_string(),
            format!("{:.2}", improvement_pct(nl.busy_cycles(), r.busy_cycles())),
            format!("{:.1}", r.extra_instr_pct()),
            r.esp.instrs_by_depth.last().copied().unwrap_or(0).to_string(),
        ]);
    }
    FigureReport {
        id: "Ablation C",
        title: "Jump-ahead depth (facebook; the paper supports 2)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "the paper's §6.6 finding: beyond two jump-aheads there is \
             rarely an opportunity to touch anything."
                .into(),
        ],
    }
}

/// Sweeps the looper prologue length (§3.6 observes ~70 instructions).
pub fn looper_window(scale: u64, seed: u64, threads: usize) -> FigureReport {
    let w = packed(BenchmarkProfile::bing(), scale, seed, threads);
    const WINDOWS: [u32; 4] = [0, 20, 70, 200];
    // Keep the baseline comparable: same looper cost on both sides —
    // one (NL, ESP) config pair per sweep point, all on the pool.
    let configs: Vec<SimConfig> = WINDOWS
        .iter()
        .flat_map(|&n| {
            let mut nl_cfg = SimConfig::next_line();
            nl_cfg.looper_instrs = n;
            let mut cfg = SimConfig::esp_nl();
            cfg.looper_instrs = n;
            [nl_cfg, cfg]
        })
        .collect();
    let reports = esp_par::parallel_map(threads, &configs, |_, cfg| run(cfg.clone(), &w));
    let mut t = Table::with_headers(&["looper instrs", "speedup over NL %"]);
    for (k, n) in WINDOWS.iter().enumerate() {
        let (nl_r, r) = (&reports[2 * k], &reports[2 * k + 1]);
        t.push_row(vec![
            n.to_string(),
            format!("{:.2}", improvement_pct(nl_r.busy_cycles(), r.busy_cycles())),
        ]);
    }
    FigureReport {
        id: "Ablation D",
        title: "Looper-prologue head start (bing; the paper observes ~70 instrs)",
        tables: vec![(String::new(), t)],
        notes: vec![
            "the prologue gives the first prefetches of an event time to \
             land before its first instructions fetch."
                .into(),
        ],
    }
}

/// All ablation sweeps.
pub fn all(scale: u64, seed: u64, threads: usize) -> Vec<FigureReport> {
    vec![
        prefetch_lead(scale, seed, threads),
        bp_train_lead(scale, seed, threads),
        depth(scale, seed, threads),
        looper_window(scale, seed, threads),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_run_at_tiny_scale() {
        for rep in all(15_000, 3, 2) {
            assert!(!rep.tables.is_empty());
            assert!(!rep.render().is_empty());
        }
    }

    #[test]
    fn depth_sweep_monotone_spec_instrs() {
        let w = packed(BenchmarkProfile::amazon(), 40_000, 5, 1);
        let shallow = run(esp_with(|f| f.depth = 1), &w);
        let deep = run(esp_with(|f| f.depth = 3), &w);
        assert!(deep.esp.spec_instrs() >= shallow.esp.spec_instrs());
    }
}
