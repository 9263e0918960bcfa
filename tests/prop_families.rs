//! Property tests for the two extra workload families (`serverasync`,
//! `iotfsm`): generation is byte-deterministic — same profile, scale and
//! seed produce the identical `.espt` container — and the statistical
//! shape of what comes out stays inside the envelope the profile's own
//! parameters declare, across many seeds. Seeded with the in-repo
//! deterministic RNG, like the other `prop_*` suites.

use event_sneak_peek::trace::espt::{self, TraceMeta};
use event_sneak_peek::trace::{InstrKind, Workload};
use event_sneak_peek::types::{Rng as _, Xoshiro256pp};
use event_sneak_peek::workload::BenchmarkProfile;

const SCALE: u64 = 60_000;

fn extra_families() -> Vec<BenchmarkProfile> {
    let extras = BenchmarkProfile::extras();
    assert_eq!(
        extras.iter().map(|p| p.name()).collect::<Vec<_>>(),
        ["serverasync", "iotfsm"]
    );
    extras
}

fn seeds(label: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x4AA0_0000 + label);
    (0..8).map(|_| rng.below(100_000)).collect()
}

/// Serialise a freshly generated workload to ESPT bytes.
fn espt_bytes(profile: &BenchmarkProfile, seed: u64) -> Vec<u8> {
    let packed = profile.scaled(SCALE).build(seed).materialise();
    let meta = TraceMeta { profile: profile.name().to_string(), scale: SCALE, seed };
    let mut out = Vec::new();
    espt::write(&mut out, &meta, &packed).expect("encode");
    out
}

/// Same (profile, scale, seed) → identical container bytes; different
/// seeds → different bytes. This is the generation half of the
/// conformance story: the golden fixtures only stay valid if the
/// pipeline from parameters to packed bytes has no hidden state.
#[test]
fn extra_families_generate_byte_deterministically() {
    for fam in extra_families() {
        let picked = seeds(1);
        let first = espt_bytes(&fam, picked[0]);
        assert_eq!(
            first,
            espt_bytes(&fam, picked[0]),
            "{}: same seed produced different bytes",
            fam.name()
        );
        let other = espt_bytes(&fam, picked[0] + 1);
        assert_ne!(first, other, "{}: seed does not reach the generator", fam.name());

        // And the bytes decode back to the same provenance and shape.
        let (meta, packed) = espt::read(first.as_slice()).expect("decode");
        assert_eq!(meta.profile, fam.name());
        assert_eq!(meta.scale, SCALE);
        assert_eq!(meta.seed, picked[0]);
        assert!(!packed.events().is_empty());
    }
}

/// Across seeds, every generated trace stays inside the envelope its
/// profile declares: event lengths cluster around the profile mean, the
/// load/store mix tracks the configured fractions, event kinds stay
/// within the declared pool, and per-event budgets are exact.
#[test]
fn extra_family_distributions_stay_in_envelope() {
    for fam in extra_families() {
        let scaled = fam.scaled(SCALE);
        let params = scaled.params().clone();
        let mut pooled_lens: Vec<u64> = Vec::new();
        for seed in seeds(2) {
            let w = scaled.build(seed);
            let events = w.events();
            let what = format!("{} seed {seed}", fam.name());
            assert!(events.len() >= 4, "{what}: degenerate event count");
            pooled_lens.extend(events.iter().map(|e| e.approx_len));

            // Structural budget invariants from the schedule builder:
            // events are appended until the target is met, so the total
            // covers the target and overshoots by at most one event;
            // individual lengths respect the documented clamp.
            let total: u64 = events.iter().map(|e| e.approx_len).sum();
            let longest = events.iter().map(|e| e.approx_len).max().unwrap();
            assert!(total >= SCALE, "{what}: budget not met ({total} < {SCALE})");
            assert!(
                total - longest < SCALE,
                "{what}: overshoot exceeds one event ({total} vs {SCALE})"
            );
            for e in events {
                assert!(
                    e.approx_len >= 200 && e.approx_len <= 50 * params.mean_event_len,
                    "{what}: event length {} outside documented clamp",
                    e.approx_len
                );
            }

            // Kinds drawn from the declared pool, with some diversity.
            let mut kinds: Vec<_> = events.iter().map(|e| e.kind).collect();
            kinds.sort();
            kinds.dedup();
            assert!(
                kinds.len() >= 2 && kinds.len() <= params.event_kinds as usize,
                "{what}: {} distinct kinds vs declared {}",
                kinds.len(),
                params.event_kinds
            );

            // Instruction mix pooled over several events vs the
            // configured fractions. Individual events skew hard (a
            // streaming or loop-heavy event looks nothing like the
            // average), so the sample spans events and the envelope is
            // generous — a mis-wired fraction escapes it, noise does not.
            let mut sample = Vec::new();
            for ev in events.iter().take(4) {
                sample.extend(w.actual_stream(ev.id).take(4_000));
            }
            let n = sample.len() as f64;
            let loads =
                sample.iter().filter(|i| matches!(i.kind, InstrKind::Load { .. })).count() as f64;
            let stores =
                sample.iter().filter(|i| matches!(i.kind, InstrKind::Store { .. })).count() as f64;
            for (label, got, want) in
                [("load", loads / n, params.load_frac), ("store", stores / n, params.store_frac)]
            {
                assert!(
                    got >= want * 0.3 && got <= want * 2.5,
                    "{what}: {label} fraction {got:.3} outside envelope of {want:.3}"
                );
            }

            // Budgets are exact for the new parameterisations too.
            for ev in events.iter().take(2) {
                let got = w.actual_stream(ev.id).count();
                assert_eq!(got as u64, ev.approx_len, "{what}: inexact budget");
            }
        }

        // Event lengths are log-normal, so per-seed sample *means* swing
        // wildly — but the pooled *median* is stable. It must sit near
        // the distribution's analytic median, mean * exp(-sigma^2 / 2).
        pooled_lens.sort_unstable();
        let median = pooled_lens[pooled_lens.len() / 2] as f64;
        let expected =
            params.mean_event_len as f64 * (-params.event_len_sigma.powi(2) / 2.0).exp();
        assert!(
            median >= expected / 2.5 && median <= expected * 2.5,
            "{}: pooled median {median:.0} outside envelope of {expected:.0}",
            fam.name()
        );
    }
}

/// The two families sit on opposite ends of the event-length axis, as
/// designed: server-async events are short completions, IoT events are
/// long filter bursts. The check runs at a scale above `scaled()`'s
/// 24-event cap (which deliberately flattens means at small scales) so
/// a calibration regression that collapses the families fails here.
#[test]
fn extra_families_are_statistically_distinct() {
    let fams = extra_families();
    let (server, iot) = (&fams[0], &fams[1]);
    assert!(server.paper_mean_event_len() * 2 < iot.paper_mean_event_len());
    let wide_scale = iot.paper_mean_event_len() * 24;
    for seed in seeds(3).into_iter().take(2) {
        let median = |p: &BenchmarkProfile| {
            let w = p.scaled(wide_scale).build(seed);
            let mut lens: Vec<u64> = w.events().iter().map(|e| e.approx_len).collect();
            lens.sort_unstable();
            lens[lens.len() / 2]
        };
        assert!(
            median(server) * 2 < median(iot),
            "seed {seed}: event-length separation collapsed"
        );
    }
}
