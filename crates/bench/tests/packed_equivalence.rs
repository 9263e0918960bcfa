//! Packed replay is bit-equivalent to the regenerative walk.
//!
//! The decode-once arena (`esp_trace::PackedWorkload`) is a pure
//! performance layer: for every benchmark profile and every
//! configuration of the check matrix it must produce the *same bytes* as
//! simulating the regenerative `GeneratedWorkload` — identical
//! `RunReport`s (full `Debug` rendering, covering cycles, CPI stack,
//! engine/ESP/replay/energy/working-set stats), identical CPI-stack
//! JSON, and identical JSONL trace output, regardless of the thread
//! count used to materialise the arena.
//!
//! The next-line data configurations also compare the two DCU paths:
//! packed runs replay the workload's precomputed trigger bits, while
//! regenerative runs keep the live tracker.

use esp_bench::ConfigKey;
use esp_core::{SampleParams, Simulator};
use esp_obs::TraceProbe;
use esp_trace::Workload;
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
fn packed_replay_matches_regenerative_walk_bit_for_bit() {
    for profile in BenchmarkProfile::all() {
        let walk = profile.scaled(SCALE).build(SEED);
        // Materialise with >1 thread: arena contents must not depend on
        // the decode fan-out (also asserted directly in esp-workload).
        let packed = walk.materialise_par(2);
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
fn packed_sampled_replay_matches_regenerative_walk_bit_for_bit() {
    // Sampled mode takes the fused-kernel path for packed workloads
    // (raw decode + lowered dispatch table in detailed grains, batched
    // plain-ALU charging clipped to grain boundaries). The whole
    // SampledRun — extrapolated report and estimator — must still render
    // byte-identically to the regenerative walk, which runs the decoded
    // per-instruction loop.
    let params = SampleParams { grain_instrs: 500, period: 4 };
    for profile in BenchmarkProfile::all() {
        let walk = profile.scaled(SCALE).build(SEED);
        let packed = walk.materialise_par(2);
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
            esp_check::check_run(&key.config(), &*packed)
                .unwrap_or_else(|e| panic!("{} {key:?}: {e}", profile.name()));
        }
    }
}
