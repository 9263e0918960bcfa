//! Cross-crate integration tests: full simulations over generated
//! workloads, asserting the figure-level orderings the paper reports.

use event_sneak_peek::prelude::*;
use event_sneak_peek::stats::improvement_pct;

fn run(cfg: SimConfig, w: &PackedWorkload) -> RunReport {
    Simulator::new(cfg).run(w)
}

#[test]
fn fig9_orderings_hold_per_profile() {
    for profile in BenchmarkProfile::all() {
        let w = profile.scaled(150_000).build(9).materialise();
        let base = run(SimConfig::base(), &w);
        let nl = run(SimConfig::next_line(), &w);
        let esp = run(SimConfig::esp_nl(), &w);
        let name = profile.name();
        assert!(
            nl.busy_cycles() < base.busy_cycles(),
            "{name}: NL must beat base"
        );
        assert!(
            esp.busy_cycles() < nl.busy_cycles(),
            "{name}: ESP+NL must beat NL ({} vs {})",
            esp.busy_cycles(),
            nl.busy_cycles()
        );
    }
}

#[test]
fn perfect_all_bounds_everything() {
    let w = BenchmarkProfile::cnn().scaled(150_000).build(3).materialise();
    let perfect = run(
        SimConfig::perfect(event_sneak_peek::uarch::PerfectFlags::all()),
        &w,
    );
    for cfg in [
        SimConfig::base(),
        SimConfig::next_line_stride(),
        SimConfig::runahead_nl(),
        SimConfig::esp_nl(),
    ] {
        let r = run(cfg, &w);
        assert!(perfect.busy_cycles() < r.busy_cycles());
    }
}

#[test]
fn esp_reduces_all_three_bottlenecks() {
    let w = BenchmarkProfile::facebook().scaled(200_000).build(5).materialise();
    let nl = run(SimConfig::next_line(), &w);
    let esp = run(SimConfig::esp_nl(), &w);
    assert!(esp.l1i_mpki() < nl.l1i_mpki(), "instruction side");
    assert!(
        esp.l1d_miss_rate_pct() < nl.l1d_miss_rate_pct(),
        "data side"
    );
    assert!(
        esp.mispredict_rate_pct() < nl.mispredict_rate_pct(),
        "branch side"
    );
}

#[test]
fn runahead_is_data_side_only() {
    let w = BenchmarkProfile::amazon().scaled(150_000).build(4).materialise();
    let base = run(SimConfig::base(), &w);
    let ra = run(SimConfig::runahead(), &w);
    // Strong D-side effect...
    assert!(ra.l1d_miss_rate_pct() < base.l1d_miss_rate_pct());
    // ...but only a marginal I-side one (runahead stalls on I-misses).
    let i_cut = (base.l1i_mpki() - ra.l1i_mpki()) / base.l1i_mpki();
    let d_cut = (base.l1d_miss_rate_pct() - ra.l1d_miss_rate_pct()) / base.l1d_miss_rate_pct();
    assert!(
        d_cut > i_cut,
        "runahead must help data ({d_cut:.3}) more than instructions ({i_cut:.3})"
    );
}

#[test]
fn ideal_esp_bounds_real_esp() {
    let w = BenchmarkProfile::bing().scaled(150_000).build(6).materialise();
    let real = run(SimConfig::esp_i_nl_i(), &w);
    let ideal = run(SimConfig::ideal_esp_i_nl_i(), &w);
    assert!(ideal.l1i_mpki() <= real.l1i_mpki());
}

#[test]
fn full_run_is_deterministic_across_simulators() {
    let w = BenchmarkProfile::gdocs().scaled(120_000).build(11).materialise();
    let a = run(SimConfig::esp_nl(), &w);
    let b = run(SimConfig::esp_nl(), &w);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.engine, b.engine);
    assert_eq!(a.esp, b.esp);
    assert_eq!(a.replay, b.replay);
}

#[test]
fn esp_pre_executes_a_meaningful_fraction() {
    let w = BenchmarkProfile::amazon().scaled(250_000).build(12).materialise();
    let esp = run(SimConfig::esp_nl(), &w);
    let pct = esp.extra_instr_pct();
    assert!(
        (2.0..60.0).contains(&pct),
        "pre-executed fraction {pct:.1}% out of plausible range"
    );
    assert!(esp.esp.windows > 100, "windows={}", esp.esp.windows);
    assert!(esp.replay.iprefetches > 0);
    assert!(esp.replay.btrains > 0);
}

#[test]
fn blist_improves_over_no_blist() {
    let w = BenchmarkProfile::cnn().scaled(200_000).build(13).materialise();
    let without = run(SimConfig::esp_bp_separate_context(), &w);
    let with = run(SimConfig::esp_nl(), &w);
    assert!(with.mispredict_rate_pct() <= without.mispredict_rate_pct());
}

#[test]
fn shared_bp_context_pollutes() {
    let w = BenchmarkProfile::amazon().scaled(150_000).build(14).materialise();
    let shared = run(SimConfig::esp_bp_shared(), &w);
    let separate = run(SimConfig::esp_bp_separate_context(), &w);
    assert!(
        separate.mispredict_rate_pct() < shared.mispredict_rate_pct(),
        "separate PIR {} must beat shared {}",
        separate.mispredict_rate_pct(),
        shared.mispredict_rate_pct()
    );
}

#[test]
fn depth_probe_collects_decaying_working_sets() {
    let w = BenchmarkProfile::gmaps().scaled(200_000).build(15).materialise();
    let r = run(SimConfig::esp_depth_probe(), &w);
    let ws = r.working_sets.expect("probe collects");
    let p95 = |s: &[usize]| event_sneak_peek::core::percentile(s, 95.0);
    let normal = p95(&ws.normal_i);
    let esp1 = p95(&ws.by_depth_i[0]);
    assert!(normal > esp1, "normal {normal} !> esp1 {esp1}");
    // Deep modes see less than ESP-1 at the 95th percentile.
    let esp4 = p95(&ws.by_depth_i[3]);
    assert!(esp4 <= esp1, "esp4 {esp4} !<= esp1 {esp1}");
}

#[test]
fn energy_overhead_is_bounded() {
    let w = BenchmarkProfile::facebook().scaled(200_000).build(16).materialise();
    let nl = run(SimConfig::next_line(), &w);
    let esp = run(SimConfig::esp_nl(), &w);
    let rel = esp.energy.relative_to(&nl.energy).total();
    assert!(
        (0.95..1.25).contains(&rel),
        "ESP relative energy {rel:.3} out of band"
    );
}

#[test]
fn improvement_metric_is_consistent() {
    let w = BenchmarkProfile::bing().scaled(100_000).build(17).materialise();
    let base = run(SimConfig::base(), &w);
    let esp = run(SimConfig::esp_nl(), &w);
    let imp = improvement_pct(base.busy_cycles(), esp.busy_cycles());
    let ratio = base.busy_cycles() as f64 / esp.busy_cycles() as f64;
    assert!((imp - (ratio - 1.0) * 100.0).abs() < 1e-9);
}

#[test]
fn all_events_run_exactly_once() {
    let w = BenchmarkProfile::pixlr().scaled(100_000).build(18).materialise();
    for cfg in [SimConfig::base(), SimConfig::esp_nl(), SimConfig::runahead_nl()] {
        let r = run(cfg, &w);
        assert_eq!(r.events_run, w.events().len() as u64);
        let expected = w.approx_total_instructions() + 70 * r.events_run;
        assert_eq!(r.engine.retired, expected);
    }
}
