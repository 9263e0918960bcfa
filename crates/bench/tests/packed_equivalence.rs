//! The two ways into the packed arena agree bit for bit.
//!
//! The simulator runs only `esp_trace::PackedWorkload`s. A generated
//! workload gets there by `materialise_par`, which records each event's
//! divergence point from the generator's schedule; any other workload
//! gets there by `PackedWorkload::pack`, which drains the generic
//! `Workload` streams and finds the divergence point by comparing the
//! speculative stream with the actual one. For every benchmark profile
//! and every configuration of the check matrix, simulating
//! `PackedWorkload::pack(&generated)` must produce the *same bytes* as
//! simulating `generated.materialise_par(2)` — identical `RunReport`s
//! (full `Debug` rendering, covering cycles, CPI stack,
//! engine/ESP/replay/energy/working-set stats), identical CPI-stack
//! JSON, identical JSONL trace output, and identical sampled runs.

use esp_bench::ConfigKey;
use esp_core::{SampleParams, Simulator};
use esp_obs::TraceProbe;
use esp_trace::{PackedWorkload, Workload};
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 18_000;
const SEED: u64 = 13;
const KEYS: [ConfigKey; 6] = [
    ConfigKey::Base,
    ConfigKey::Runahead,
    ConfigKey::EspNl,
    ConfigKey::NlDOnly,
    ConfigKey::EspDNlD,
    ConfigKey::IdealEspDNlD,
];

#[test]
fn pack_matches_materialise_bit_for_bit() {
    for profile in BenchmarkProfile::all() {
        let generated = profile.scaled(SCALE).build(SEED);
        let walk = PackedWorkload::pack(&generated);
        // Materialise with >1 thread: arena contents must not depend on
        // the decode fan-out (also asserted directly in esp-workload).
        let packed = generated.materialise_par(2);
        assert_eq!(walk.events(), packed.events(), "{}: event records", profile.name());
        for key in KEYS {
            let mut probe_walk = TraceProbe::new(profile.name(), key.label());
            let mut probe_packed = TraceProbe::new(profile.name(), key.label());
            let report_walk =
                Simulator::new(key.config()).run_probed(&walk, &mut probe_walk);
            let report_packed =
                Simulator::new(key.config()).run_probed(&packed, &mut probe_packed);
            let what = format!("{} {key:?}", profile.name());
            assert_eq!(
                format!("{report_walk:#?}"),
                format!("{report_packed:#?}"),
                "{what}: RunReport"
            );
            assert_eq!(
                report_walk.cpi_stack.to_json(),
                report_packed.cpi_stack.to_json(),
                "{what}: CPI stack JSON"
            );
            assert_eq!(
                probe_walk.into_bytes(),
                probe_packed.into_bytes(),
                "{what}: JSONL trace bytes"
            );
        }
    }
}

#[test]
fn pack_sampled_matches_materialise_bit_for_bit() {
    // Sampled runs walk the arena in bulk between detailed grains. The
    // whole SampledRun — extrapolated report and estimator — must render
    // byte-identically from either packing.
    let params = SampleParams { grain_instrs: 500, period: 4 };
    for profile in BenchmarkProfile::all() {
        let generated = profile.scaled(SCALE).build(SEED);
        let walk = PackedWorkload::pack(&generated);
        let packed = generated.materialise_par(2);
        for key in KEYS {
            let sampled_walk = Simulator::new(key.config()).run_sampled(&walk, params);
            let sampled_packed = Simulator::new(key.config()).run_sampled(&packed, params);
            assert!(
                !sampled_walk.estimate.exact_fallback,
                "{} {key:?}: workload too small, sampling fell back to exact",
                profile.name()
            );
            assert_eq!(
                format!("{sampled_walk:#?}"),
                format!("{sampled_packed:#?}"),
                "{} {key:?}: SampledRun",
                profile.name()
            );
        }
    }
}

#[test]
fn differential_oracle_accepts_packed_replay() {
    // The esp-check oracle (event recount, serial timing bound, replay of
    // the component side-effect logs) runs against the packed form.
    for profile in [BenchmarkProfile::amazon(), BenchmarkProfile::pixlr()] {
        let packed = esp_workload::arena::packed_for(&profile.scaled(SCALE), SEED, 2);
        for key in KEYS {
            esp_check::check_run(&key.config(), &packed)
                .unwrap_or_else(|e| panic!("{} {key:?}: {e}", profile.name()));
        }
    }
}
