//! One function per figure/table of the paper's evaluation.

use crate::runner::{ConfigKey, FigureReport, Runner};
use esp_core::{percentile, RunReport};
use esp_energy::EnergyModel;
use esp_stats::Table;
use esp_trace::Workload;
use esp_uarch::MachineConfig;

fn improvement_table(runner: &mut Runner, keys: &[ConfigKey], base: ConfigKey) -> Table {
    // Declare the whole figure's plan up front so the pool executes every
    // (profile, config) pair of the figure in one parallel batch.
    let mut plan = keys.to_vec();
    plan.push(base);
    runner.ensure(&plan);
    let mut t = Table::new(runner.headers("config"));
    for &k in keys {
        let vals = runner.improvements(k, base);
        t.push_metric_row(k.label(), &vals, 1);
    }
    t
}

/// Fig. 3 — performance potential with perfect components.
pub fn fig3(runner: &mut Runner) -> FigureReport {
    let keys = [
        ConfigKey::PerfectL1d,
        ConfigKey::PerfectBranch,
        ConfigKey::PerfectL1i,
        ConfigKey::PerfectAll,
    ];
    let table = improvement_table(runner, &keys, ConfigKey::Base);
    FigureReport {
        id: "Fig. 3",
        title: "Performance potential in web applications (% improvement over baseline)",
        tables: vec![(String::new(), table)],
        notes: vec![
            "paper: perfect L1-I dominates, then the branch predictor, then L1-D; \
             perfect-everything nearly doubles performance."
                .into(),
        ],
    }
}

/// Fig. 6 — benchmark characteristics table.
pub fn fig6(runner: &mut Runner) -> FigureReport {
    let mut t = Table::with_headers(&[
        "web site",
        "category",
        "paper #events",
        "paper Minst",
        "sim #events",
        "sim inst",
        "mean event len",
    ]);
    for (p, w) in runner.workloads() {
        t.push_row(vec![
            p.name().into(),
            p.description().into(),
            p.paper_events().to_string(),
            p.paper_minstr().to_string(),
            w.events().len().to_string(),
            w.approx_total_instructions().to_string(),
            (w.approx_total_instructions() / w.events().len() as u64).to_string(),
        ]);
    }
    FigureReport {
        id: "Fig. 6 (table)",
        title: "Benchmark web applications (paper session vs scaled simulation)",
        tables: vec![(String::new(), t)],
        notes: vec![format!(
            "simulated sessions are scaled to ~{} instructions; mean event length \
             preserves the paper's instructions/events ratio up to the 24-event floor.",
            runner.scale()
        )],
    }
}

/// Fig. 7 — simulator configuration table.
pub fn fig7(_runner: &mut Runner) -> FigureReport {
    let m = MachineConfig::exynos5250();
    let mut t = Table::with_headers(&["component", "configuration"]);
    t.push_row(vec![
        "Core".into(),
        format!(
            "{}-wide, {:.2} GHz OoO, {}-entry ROB, {}-entry LSQ",
            m.width,
            m.freq_mhz as f64 / 1000.0,
            m.rob_entries,
            m.lsq_entries
        ),
    ]);
    t.push_row(vec![
        "L1-(I,D)-Cache".into(),
        format!(
            "{} KB, {}-way, {} B lines, {} cycle hit latency, LRU",
            m.hierarchy.l1i.size_bytes / 1024,
            m.hierarchy.l1i.ways,
            m.hierarchy.l1i.line_bytes,
            m.hierarchy.l1i.hit_latency
        ),
    ]);
    t.push_row(vec![
        "L2 Cache".into(),
        format!(
            "{} MB, {}-way, {} B lines, {} cycle hit latency, LRU",
            m.hierarchy.l2.size_bytes / (1024 * 1024),
            m.hierarchy.l2.ways,
            m.hierarchy.l2.line_bytes,
            m.hierarchy.l2.hit_latency
        ),
    ]);
    t.push_row(vec![
        "Main Memory".into(),
        format!("{} cycle access latency", m.hierarchy.mem_latency),
    ]);
    t.push_row(vec![
        "Branch Predictor".into(),
        format!(
            "Pentium M: {}-entry global, {}-entry iBTB, {}-entry BTB, {}-entry loop, \
             {}-entry local; {} cycle mispredict penalty",
            m.branch.global_entries,
            m.branch.ibtb_entries,
            m.branch.btb_entries,
            m.branch.loop_entries,
            m.branch.local_entries,
            m.branch.mispredict_penalty
        ),
    ]);
    t.push_row(vec![
        "Prefetchers".into(),
        "Instruction: next-line (NL); Data: NL (DCU), stride (256 entries)".into(),
    ]);
    FigureReport {
        id: "Fig. 7 (table)",
        title: "Simulator configuration",
        tables: vec![(String::new(), t)],
        notes: vec![],
    }
}

/// Fig. 8 — ESP hardware configuration and area.
pub fn fig8(_runner: &mut Runner) -> FigureReport {
    let mut t = Table::with_headers(&["HW structure", "description", "ESP-1", "ESP-2"]);
    let rows = esp_core::area_table();
    let (mut e1, mut e2) = (0u64, 0u64);
    for r in &rows {
        t.push_row(vec![
            r.name.into(),
            r.description.into(),
            format!("{} B", r.esp1_bytes),
            format!("{} B", r.esp2_bytes),
        ]);
        e1 += r.esp1_bytes;
        e2 += r.esp2_bytes;
    }
    t.push_row(vec![
        "All HW additions".into(),
        String::new(),
        format!("{:.1} KB", e1 as f64 / 1024.0),
        format!("{:.1} KB", e2 as f64 / 1024.0),
    ]);
    FigureReport {
        id: "Fig. 8 (table)",
        title: "ESP hardware configuration",
        tables: vec![(String::new(), t)],
        notes: vec![format!(
            "total added state: {:.1} KB (paper: 13.8 KB).",
            esp_core::total_added_bytes() as f64 / 1024.0
        )],
    }
}

/// Fig. 9 — ESP vs next-line vs runahead.
pub fn fig9(runner: &mut Runner) -> FigureReport {
    let keys = [
        ConfigKey::NextLine,
        ConfigKey::NextLineStride,
        ConfigKey::Runahead,
        ConfigKey::RunaheadNl,
        ConfigKey::Esp,
        ConfigKey::EspNl,
    ];
    let table = improvement_table(runner, &keys, ConfigKey::Base);
    FigureReport {
        id: "Fig. 9",
        title: "Performance of ESP, next-line and runahead (% improvement over baseline)",
        tables: vec![(String::new(), table)],
        notes: vec![
            "paper HMeans: NL 13.8, NL+S 13.9, Runahead 12, Runahead+NL 21, ESP+NL 32 \
             (16 over NL+S)."
                .into(),
        ],
    }
}

/// Fig. 10 — sources of performance in ESP.
pub fn fig10(runner: &mut Runner) -> FigureReport {
    let keys = [
        ConfigKey::NaiveEsp,
        ConfigKey::NaiveEspNl,
        ConfigKey::EspINl,
        ConfigKey::EspIbNl,
        ConfigKey::EspNl,
    ];
    runner.ensure(&[keys.as_slice(), &[ConfigKey::Base]].concat());
    let mut table = Table::new(runner.headers("config"));
    for &k in &keys {
        let vals = runner.improvements(k, ConfigKey::Base);
        let label = if k == ConfigKey::EspNl { "ESP-I,B,D + NL" } else { k.label() };
        table.push_metric_row(label, &vals, 1);
    }
    FigureReport {
        id: "Fig. 10",
        title: "Sources of performance in ESP (% improvement over baseline)",
        tables: vec![(String::new(), table)],
        notes: vec![
            "paper: naive ESP is flat (negative for pixlr); the I-list contributes most \
             (+9.1 over NL), then the B-list (+6), then the D-list (+3.3)."
                .into(),
        ],
    }
}

/// Fig. 11a — instruction cache performance.
pub fn fig11a(runner: &mut Runner) -> FigureReport {
    let keys = [
        ConfigKey::Base,
        ConfigKey::NlIOnly,
        ConfigKey::EspI,
        ConfigKey::EspINlI,
        ConfigKey::IdealEspINlI,
    ];
    runner.ensure(&keys);
    let mut table = Table::new(runner.headers("config"));
    for &k in &keys {
        let vals = runner.metric(k, RunReport::l1i_mpki);
        table.push_metric_row(k.label(), &vals, 1);
    }
    FigureReport {
        id: "Fig. 11a",
        title: "L1-I cache misses per kilo-instruction",
        tables: vec![(String::new(), table)],
        notes: vec![
            "paper HMeans: base 23.5, NL-I 17.5, ESP-I + NL-I 11.6; the real design \
             comes close to the ideal (infinite list/cachelet, timely prefetch) one."
                .into(),
        ],
    }
}

/// Fig. 11b — data cache performance.
pub fn fig11b(runner: &mut Runner) -> FigureReport {
    let keys = [
        ConfigKey::Base,
        ConfigKey::NlDOnly,
        ConfigKey::RunaheadD,
        ConfigKey::RunaheadDNlD,
        ConfigKey::EspD,
        ConfigKey::EspDNlD,
        ConfigKey::IdealEspDNlD,
    ];
    runner.ensure(&keys);
    let mut table = Table::new(runner.headers("config"));
    for &k in &keys {
        let vals = runner.metric(k, RunReport::l1d_miss_rate_pct);
        table.push_metric_row(k.label(), &vals, 2);
    }
    FigureReport {
        id: "Fig. 11b",
        title: "L1-D miss rate (%)",
        tables: vec![(String::new(), table)],
        notes: vec![
            "paper HMeans: base 4.4, NL-D 3.2, Runahead-D + NL-D 0.8, ESP-D + NL-D 1.8; \
             runahead beats ESP on the data side, ideal ESP-D is comparable to runahead."
                .into(),
        ],
    }
}

/// Fig. 12 — branch misprediction rate across BP-sharing policies.
pub fn fig12(runner: &mut Runner) -> FigureReport {
    let keys = [
        ConfigKey::Base,
        ConfigKey::EspBpShared,
        ConfigKey::EspBpSeparateContext,
        ConfigKey::EspBpSeparateTables,
        ConfigKey::EspNl,
    ];
    runner.ensure(&keys);
    let mut table = Table::new(runner.headers("config"));
    for &k in &keys {
        let vals = runner.metric(k, RunReport::mispredict_rate_pct);
        let label = if k == ConfigKey::EspNl { "separate context + B-list (ESP)" } else { k.label() };
        table.push_metric_row(label, &vals, 2);
    }
    FigureReport {
        id: "Fig. 12",
        title: "Branch misprediction rate (%)",
        tables: vec![(String::new(), table)],
        notes: vec![
            "paper HMeans: base 9.9, full table replication 7.4, separate PIR + B-list \
             (the shipping ESP) 6.1 — beating full replication at a fraction of the area."
                .into(),
        ],
    }
}

/// Fig. 13 — I-cachelet working-set sizes per ESP depth.
pub fn fig13(runner: &mut Runner) -> FigureReport {
    runner.ensure(&[ConfigKey::EspDepthProbe]);
    let mut table = Table::with_headers(&["mode", "Max", "95%", "85%", "75%"]);
    // Aggregate working-set samples over all benchmarks.
    let mut normal: Vec<usize> = Vec::new();
    let mut by_depth: Vec<Vec<usize>> = vec![Vec::new(); 8];
    for i in 0..runner.names().len() {
        let r = runner.run(i, ConfigKey::EspDepthProbe);
        if let Some(ws) = &r.working_sets {
            normal.extend(&ws.normal_i);
            for (d, samples) in ws.by_depth_i.iter().enumerate() {
                by_depth[d].extend(samples);
            }
        }
    }
    let row = |label: &str, samples: &[usize]| {
        vec![
            label.to_string(),
            percentile(samples, 100.0).to_string(),
            percentile(samples, 95.0).to_string(),
            percentile(samples, 85.0).to_string(),
            percentile(samples, 75.0).to_string(),
        ]
    };
    table.push_row(row("Normal", &normal));
    for (d, samples) in by_depth.iter().enumerate() {
        table.push_row(row(&format!("ESP{}", d + 1), samples));
    }
    FigureReport {
        id: "Fig. 13",
        title: "I-cachelet working set (# cache lines touched per event and mode)",
        tables: vec![(String::new(), table)],
        notes: vec![
            "paper: ESP-1 working sets are an order of magnitude below normal ones; \
             capturing 95% of reuse takes ~5.5 KB (88 lines) for ESP-1 and ~0.5 KB \
             (8 lines) for ESP-2; depths beyond 2 rarely touch anything — the basis \
             for supporting only two jump-aheads."
                .into(),
        ],
    }
}

/// Fig. 14 — energy overhead of ESP relative to NL.
pub fn fig14(runner: &mut Runner) -> FigureReport {
    runner.ensure(&[ConfigKey::NextLine, ConfigKey::EspNl]);
    let _ = EnergyModel::mcpat_32nm();
    let mut table = Table::with_headers(&[
        "bench",
        "branch misp",
        "static",
        "rest dynamic",
        "total",
        "extra instr %",
    ]);
    let n = runner.names().len();
    let mut totals = Vec::new();
    let mut extras = Vec::new();
    for i in 0..n {
        let nl = runner.run(i, ConfigKey::NextLine).energy;
        let esp_report = runner.run(i, ConfigKey::EspNl).clone();
        let rel = esp_report.energy.relative_to(&nl);
        totals.push(rel.total());
        extras.push(esp_report.extra_instr_pct());
        table.push_row(vec![
            runner.names()[i].to_string(),
            format!("{:.3}", rel.branch_mispredict),
            format!("{:.3}", rel.static_energy),
            format!("{:.3}", rel.rest_dynamic),
            format!("{:.3}", rel.total()),
            format!("{:.1}", esp_report.extra_instr_pct()),
        ]);
    }
    let avg_total = totals.iter().sum::<f64>() / totals.len() as f64;
    let avg_extra = extras.iter().sum::<f64>() / extras.len() as f64;
    FigureReport {
        id: "Fig. 14",
        title: "ESP energy relative to the NL baseline (per-component decomposition)",
        tables: vec![(String::new(), table)],
        notes: vec![format!(
            "measured: ESP energy {:+.1}% with {:.1}% extra instructions \
             (paper: about +8% with 21.2% extra instructions, §6.7).",
            (avg_total - 1.0) * 100.0,
            avg_extra
        )],
    }
}

/// All figures in presentation order.
///
/// Prefills the full evaluation matrix — every [`ConfigKey`] on every
/// profile — in one parallel batch before rendering, so the whole
/// regeneration saturates the worker pool instead of fanning out
/// figure-by-figure.
pub fn all(runner: &mut Runner) -> Vec<FigureReport> {
    runner.ensure(ConfigKey::all());
    FIGURES.iter().map(|(_, f)| f(runner)).collect()
}

/// A figure generator.
pub type Figure = fn(&mut Runner) -> FigureReport;

/// Every figure generator with its id, in presentation order: what
/// [`all`] renders, what [`by_name`] looks up, and the ids `repro` lists.
pub const FIGURES: [(&str, Figure); 11] = [
    ("fig3", fig3),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11a", fig11a),
    ("fig11b", fig11b),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
];

/// Looks up a figure generator by id ("fig3" … "fig14").
///
/// # Errors
///
/// Returns [`esp_types::Error::UnknownName`] for unknown ids.
pub fn by_name(name: &str) -> esp_types::Result<Figure> {
    FIGURES
        .iter()
        .find(|(id, _)| *id == name)
        .map(|&(_, f)| f)
        .ok_or_else(|| esp_types::Error::unknown_name(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_figures_render() {
        let mut r = Runner::new(20_000, 1);
        for f in [fig6, fig7, fig8] {
            let rep = f(&mut r);
            let text = rep.render();
            assert!(text.contains(rep.id));
            assert!(!rep.tables.is_empty());
        }
    }

    #[test]
    fn by_name_resolves_all() {
        for (id, _) in FIGURES {
            assert!(by_name(id).is_ok(), "{id}");
        }
        assert!(by_name("fig99").is_err());
    }

    #[test]
    fn fig9_small_scale_runs() {
        let mut r = Runner::new(15_000, 2);
        let rep = fig9(&mut r);
        // 6 configs × (7 benchmarks + HMean).
        assert_eq!(rep.tables[0].1.len(), 6);
        assert_eq!(rep.tables[0].1.headers().len(), 9);
    }
}
