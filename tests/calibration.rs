//! Calibration-band regression tests: the synthetic workloads must keep
//! producing baseline metrics in the neighbourhood of the paper's
//! reported characteristics (§2.3, §6), so the figure shapes stay
//! meaningful. Bands are deliberately loose — they catch regressions in
//! the generator or the timing model, not noise.

use event_sneak_peek::prelude::*;

const SCALE: u64 = 300_000;
const SEED: u64 = 42;

fn base_report(profile: &BenchmarkProfile) -> RunReport {
    Simulator::new(SimConfig::base()).run(&profile.scaled(SCALE).build(SEED).materialise())
}

#[test]
fn instruction_mpki_band() {
    for p in BenchmarkProfile::all() {
        let r = base_report(&p);
        let mpki = r.l1i_mpki();
        let band = if p.name() == "pixlr" {
            // The data-intensive outlier: small, loopy kernels.
            1.0..14.0
        } else {
            // Paper: 17.5–26 without prefetching.
            9.0..40.0
        };
        assert!(band.contains(&mpki), "{}: I-MPKI {mpki:.1} outside {band:?}", p.name());
    }
}

#[test]
fn data_miss_band() {
    for p in BenchmarkProfile::all() {
        let r = base_report(&p);
        let miss = r.l1d_miss_rate_pct();
        let band = if p.name() == "pixlr" { 5.0..35.0 } else { 2.0..18.0 };
        assert!(band.contains(&miss), "{}: D-miss {miss:.1}% outside {band:?}", p.name());
    }
}

#[test]
fn mispredict_band() {
    for p in BenchmarkProfile::all() {
        let r = base_report(&p);
        let rate = r.mispredict_rate_pct();
        assert!(
            (5.0..20.0).contains(&rate),
            "{}: mispredict {rate:.1}% outside band (paper ~9.9%)",
            p.name()
        );
    }
}

#[test]
fn baseline_cpi_is_stall_dominated() {
    // §2: asynchronous programs run far below peak IPC on conventional
    // cores; perfect components should therefore nearly double (or more)
    // performance.
    for p in BenchmarkProfile::all() {
        let r = base_report(&p);
        let cpi = 1.0 / r.ipc();
        assert!((1.0..6.0).contains(&cpi), "{}: CPI {cpi:.2}", p.name());
    }
}

#[test]
fn headline_speedup_band() {
    // The paper's headline: ESP improves popular web applications by an
    // average of 16% over the prefetching baseline (32% over none).
    let mut over_base = Vec::new();
    for p in BenchmarkProfile::all() {
        let w = p.scaled(SCALE).build(SEED).materialise();
        let base = Simulator::new(SimConfig::base()).run(&w);
        let esp = Simulator::new(SimConfig::esp_nl()).run(&w);
        over_base.push(event_sneak_peek::stats::improvement_pct(
            base.busy_cycles(),
            esp.busy_cycles(),
        ));
    }
    let hmean = event_sneak_peek::stats::harmonic_mean_improvement(&over_base);
    assert!(
        (15.0..60.0).contains(&hmean),
        "ESP+NL HMean improvement {hmean:.1}% out of band (paper: 32%)"
    );
}

#[test]
fn pixlr_is_the_odd_one_out() {
    // The paper singles pixlr out: data-intensive, runahead-friendly,
    // least ESP-friendly. Verify the relative character.
    let pixlr = BenchmarkProfile::pixlr().scaled(SCALE).build(SEED).materialise();
    let amazon = BenchmarkProfile::amazon().scaled(SCALE).build(SEED).materialise();
    let p_base = Simulator::new(SimConfig::base()).run(&pixlr);
    let a_base = Simulator::new(SimConfig::base()).run(&amazon);
    assert!(p_base.l1i_mpki() < a_base.l1i_mpki());
    assert!(p_base.l1d_miss_rate_pct() > a_base.l1d_miss_rate_pct());

    let p_ra = Simulator::new(SimConfig::runahead()).run(&pixlr);
    let p_esp = Simulator::new(SimConfig::esp()).run(&pixlr);
    let ra_gain = event_sneak_peek::stats::improvement_pct(p_base.busy_cycles(), p_ra.busy_cycles());
    let esp_gain =
        event_sneak_peek::stats::improvement_pct(p_base.busy_cycles(), p_esp.busy_cycles());
    assert!(
        ra_gain > esp_gain,
        "on pixlr runahead ({ra_gain:.1}%) should beat bare ESP ({esp_gain:.1}%)"
    );
}
