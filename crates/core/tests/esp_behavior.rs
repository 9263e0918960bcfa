//! Behavioural tests of the ESP machinery through the public API:
//! divergence, order misprediction, queue idleness, and feature-subset
//! invariants.

use esp_core::{SimConfig, Simulator};
use esp_workload::{GeneratedWorkload, WorkloadParams};

fn params(target: u64) -> WorkloadParams {
    let mut p = WorkloadParams::web_default();
    p.target_instructions = target;
    p.mean_event_len = 6_000;
    p.code_footprint_bytes = 512 * 1024;
    p
}

#[test]
fn divergence_degrades_but_never_breaks() {
    let mut clean = params(120_000);
    clean.p_divergence = 0.0;
    let mut noisy = clean.clone();
    noisy.p_divergence = 1.0; // every pre-execution veers off somewhere

    // Same seed: schedules differ slightly (divergence draws consume
    // RNG), so compare each against its own baseline.
    let improvement = |p: WorkloadParams| {
        let w = GeneratedWorkload::generate(p, 5).materialise();
        let nl = Simulator::new(SimConfig::next_line()).run(&w);
        let esp = Simulator::new(SimConfig::esp_nl()).run(&w);
        esp_stats::improvement_pct(nl.busy_cycles(), esp.busy_cycles())
    };
    let clean_gain = improvement(clean);
    let noisy_gain = improvement(noisy);
    assert!(
        noisy_gain < clean_gain,
        "universally diverging pre-executions ({noisy_gain:.2}%) must help less \
         than accurate ones ({clean_gain:.2}%)"
    );
}

#[test]
fn order_mispredictions_discard_lists() {
    let mut p = params(80_000);
    p.p_order_mispredict = 1.0;
    let w = GeneratedWorkload::generate(p, 6).materialise();
    let r = Simulator::new(SimConfig::esp_nl()).run(&w);
    assert!(
        r.esp.lists_discarded > 0,
        "with every event order-mispredicted, discards must occur"
    );
    // Discarded lists mean no replay for those events.
    let per_event = r.replay.iprefetches as f64 / r.events_run as f64;
    let mut p2 = params(80_000);
    p2.p_order_mispredict = 0.0;
    let w2 = GeneratedWorkload::generate(p2, 6).materialise();
    let r2 = Simulator::new(SimConfig::esp_nl()).run(&w2);
    let per_event2 = r2.replay.iprefetches as f64 / r2.events_run as f64;
    assert!(
        per_event < per_event2 * 0.25,
        "discards must suppress replay: {per_event:.1} vs {per_event2:.1} prefetches/event"
    );
}

#[test]
fn sparse_arrivals_produce_idle_and_busy_excludes_it() {
    let mut p = params(60_000);
    p.utilization = 0.10; // the looper is mostly waiting
    let w = GeneratedWorkload::generate(p, 7).materialise();
    let r = Simulator::new(SimConfig::base()).run(&w);
    assert!(r.breakdown.idle > 0, "low utilization must idle the looper");
    assert_eq!(r.busy_cycles(), r.total_cycles - r.breakdown.idle);
    // Idle must not change the per-instruction metrics' denominators.
    assert!(r.ipc() > 0.1);
}

#[test]
fn dense_arrivals_leave_no_idle_gaps() {
    let mut p = params(60_000);
    p.utilization = 1.0;
    p.mean_burst = 16.0;
    let w = GeneratedWorkload::generate(p, 8).materialise();
    let r = Simulator::new(SimConfig::base()).run(&w);
    // The first event posts at 0; with 100% utilization the queue should
    // essentially never drain.
    let idle_frac = r.breakdown.idle as f64 / r.total_cycles as f64;
    assert!(idle_frac < 0.05, "idle fraction {idle_frac:.3}");
}

#[test]
fn feature_subsets_nest_sensibly() {
    let w = GeneratedWorkload::generate(params(150_000), 9).materialise();
    let run = |cfg: SimConfig| Simulator::new(cfg).run(&w);
    let nl = run(SimConfig::next_line());
    let i_only = run(SimConfig::esp_i_nl());
    let full = run(SimConfig::esp_nl());
    // Both ESP variants beat plain NL; the full feature set records and
    // replays at least as much as the subset.
    assert!(i_only.busy_cycles() < nl.busy_cycles());
    assert!(full.busy_cycles() < nl.busy_cycles());
    assert_eq!(i_only.replay.dprefetches, 0, "ESP-I must not replay D-lists");
    assert_eq!(i_only.replay.btrains, 0, "ESP-I must not replay B-lists");
    assert!(full.replay.dprefetches > 0);
    assert!(full.replay.btrains > 0);
}

#[test]
fn naive_esp_runs_without_lists_or_cachelets() {
    let w = GeneratedWorkload::generate(params(100_000), 10).materialise();
    let r = Simulator::new(SimConfig::naive_esp_nl()).run(&w);
    assert!(r.esp.spec_instrs() > 0, "naive ESP still pre-executes");
    assert_eq!(r.replay.iprefetches, 0);
    assert_eq!(r.replay.dprefetches, 0);
    assert_eq!(r.replay.btrains, 0);
}

#[test]
fn custom_replay_leads_are_respected() {
    let w = GeneratedWorkload::generate(params(100_000), 11).materialise();
    let mut short = SimConfig::esp_nl();
    if let esp_core::SimMode::Esp(ref mut f) = short.mode {
        f.prefetch_lead_instrs = 1;
    }
    let r_short = Simulator::new(short).run(&w);
    let r_std = Simulator::new(SimConfig::esp_nl()).run(&w);
    // A 1-instruction lead issues prefetches far too late to convert
    // misses fully; the standard lead must do at least as well.
    assert!(r_std.busy_cycles() <= r_short.busy_cycles());
}

#[test]
fn deeper_probes_do_not_break_correct_accounting() {
    let w = GeneratedWorkload::generate(params(100_000), 12).materialise();
    let r = Simulator::new(SimConfig::esp_depth_probe()).run(&w);
    assert_eq!(r.esp.instrs_by_depth.len(), 8);
    // Depth usage is (weakly) front-loaded: ESP-1 gets the most work.
    let d = &r.esp.instrs_by_depth;
    assert!(d[0] >= d[4], "d0={} d4={}", d[0], d[4]);
    assert_eq!(
        r.esp.spec_instrs(),
        d.iter().sum::<u64>(),
        "spec_instrs must equal the per-depth sum"
    );
}
