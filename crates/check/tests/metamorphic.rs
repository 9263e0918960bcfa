//! Fixed-seed metamorphic invariant suite. These runs may assert the
//! *empirical* relations too (see the module docs of
//! `esp_check::metamorphic`) because the workloads are pinned.

use esp_check::metamorphic::{
    cache_doubling, no_peek_esp_equals_baseline, perfect_ordering, runahead_arch_invariance,
    scale_rate_stability,
};
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 20_000;
const SEED: u64 = 42;

#[test]
fn perfect_ordering_holds_on_all_profiles() {
    for profile in BenchmarkProfile::all() {
        let w = profile.scaled(SCALE).build(SEED).materialise();
        perfect_ordering(&w, true).unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
    }
}

#[test]
fn cache_doubling_never_adds_misses_on_all_profiles() {
    for profile in BenchmarkProfile::all() {
        let w = profile.scaled(SCALE).build(SEED).materialise();
        cache_doubling(&w).unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
    }
}

#[test]
fn esp_with_nothing_to_peek_is_the_baseline() {
    for profile in BenchmarkProfile::all() {
        let w = profile.scaled(SCALE).build(SEED).materialise();
        no_peek_esp_equals_baseline(&w).unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
    }
}

#[test]
fn runahead_preserves_architectural_counts() {
    for profile in BenchmarkProfile::all() {
        let w = profile.scaled(SCALE).build(SEED).materialise();
        runahead_arch_invariance(&w).unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
    }
}

#[test]
fn rates_are_stable_under_scale_doubling() {
    for profile in BenchmarkProfile::all() {
        scale_rate_stability(&profile, 40_000, SEED)
            .unwrap_or_else(|e| panic!("{}: {e}", profile.name()));
    }
}
