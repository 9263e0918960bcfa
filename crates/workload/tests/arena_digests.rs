//! The materialised arena is pinned by committed digests.
//!
//! For each of the nine benchmark families at scale 60 000 and seeds 1
//! and 42, the workload's `materialise_par(1)` arena is written as an
//! `.espt` image and hashed with FNV-1a-64. The image holds every
//! event's kind bytes, operand words, start pc, divergence point and
//! speculative tail, so a digest moves whenever a single packed byte
//! does. A change to how events are walked or packed must leave every
//! digest where it is; only an intended change to the generated streams
//! replaces the table (on a mismatch the test prints this run's).

use esp_trace::espt::{fnv1a64, write, TraceMeta};
use esp_workload::BenchmarkProfile;

const SCALE: u64 = 60_000;
const SEEDS: [u64; 2] = [1, 42];

/// FNV-1a-64 of each (family, seed) arena's `.espt` image.
const DIGESTS: [(&str, u64, u64); 18] = [
    ("amazon", 1, 0x953d445dfe91b2ce),
    ("amazon", 42, 0x8fa03c3afd6448fb),
    ("bing", 1, 0x94ec15c25812b4e2),
    ("bing", 42, 0x097537f68e46eeaf),
    ("cnn", 1, 0xbbd3e3a88d55c847),
    ("cnn", 42, 0x26af942331aa007d),
    ("facebook", 1, 0xb660161dc4863f8f),
    ("facebook", 42, 0x4b0431c7a03d05e5),
    ("gmaps", 1, 0x5fb4b00e0faee874),
    ("gmaps", 42, 0x7a473a189c5ad84d),
    ("gdocs", 1, 0x86fc8d1c713727be),
    ("gdocs", 42, 0x6bdb41989544cd1d),
    ("pixlr", 1, 0x9b02f35cbed01344),
    ("pixlr", 42, 0x1983840577c875a8),
    ("serverasync", 1, 0x34467aef1d5c692c),
    ("serverasync", 42, 0x039a2500c163236c),
    ("iotfsm", 1, 0x01ca0914f5a76cdf),
    ("iotfsm", 42, 0x62c01c054ec16622),
];

/// The `.espt` image digest of one (family, seed) arena, and whether
/// the arena holds a speculative tail (an in-budget divergence).
fn arena_digest(profile: &BenchmarkProfile, seed: u64) -> (u64, bool) {
    let packed = profile.build(seed).materialise_par(1);
    let diverges = (0..packed.arena().len()).any(|i| packed.arena().event(i).diverge_at().is_some());
    let meta = TraceMeta { profile: profile.name().to_string(), scale: SCALE, seed };
    let mut bytes = Vec::new();
    write(&mut bytes, &meta, &packed).expect("in-memory write");
    (fnv1a64(&bytes), diverges)
}

#[test]
fn materialised_arenas_match_committed_digests() {
    let mut got = Vec::new();
    let mut any_divergence = false;
    for profile in BenchmarkProfile::all_families() {
        let profile = profile.scaled(SCALE);
        for seed in SEEDS {
            let (digest, diverges) = arena_digest(&profile, seed);
            any_divergence |= diverges;
            got.push((profile.name(), seed, digest));
        }
    }
    let listing: String = got
        .iter()
        .map(|(name, seed, d)| format!("    (\"{name}\", {seed}, {d:#018x}),\n"))
        .collect();
    assert_eq!(got, DIGESTS, "arena digests moved; this run's:\n{listing}");
    assert!(any_divergence, "no (family, seed) packs a speculative tail");
}
