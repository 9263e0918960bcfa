//! Differential oracle over the full benchmark matrix: every profile,
//! under baseline, runahead, and the headline ESP+NL configuration,
//! must pass all three oracle checks (event recount, serial bound,
//! component replay).

use esp_check::check_run;
use esp_core::SimConfig;
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 30_000;
const SEED: u64 = 42;

fn check_matrix(config_of: fn() -> SimConfig, label: &str) {
    for profile in BenchmarkProfile::all() {
        let w = profile.scaled(SCALE).build(SEED).materialise();
        let r = check_run(&config_of(), &w)
            .unwrap_or_else(|e| panic!("{label} / {}: {e}", profile.name()));
        assert!(
            r.serial_cycles >= r.busy_cycles,
            "{label} / {}: serial {} < busy {}",
            profile.name(),
            r.serial_cycles,
            r.busy_cycles
        );
        assert!(r.mem_ops > 0, "{label} / {}: empty mem op log", profile.name());
        assert!(r.bp_ops > 0, "{label} / {}: empty bp op log", profile.name());
    }
}

#[test]
fn oracle_holds_for_baseline_on_all_profiles() {
    check_matrix(SimConfig::base, "base");
}

#[test]
fn oracle_holds_for_runahead_on_all_profiles() {
    check_matrix(SimConfig::runahead, "runahead");
}

#[test]
fn oracle_holds_for_esp_nl_on_all_profiles() {
    check_matrix(SimConfig::esp_nl, "esp_nl");
}

#[test]
fn oracle_report_carries_the_run_report() {
    let w = BenchmarkProfile::amazon().scaled(SCALE).build(SEED).materialise();
    let direct = esp_core::Simulator::new(SimConfig::esp_nl()).run(&w);
    let checked = check_run(&SimConfig::esp_nl(), &w).unwrap();
    // The checked run is the same deterministic simulation: its embedded
    // report must agree with an unchecked run of the same point.
    assert_eq!(checked.report.total_cycles, direct.total_cycles);
    assert_eq!(checked.report.engine, direct.engine);
    assert_eq!(checked.busy_cycles, direct.busy_cycles());
}
