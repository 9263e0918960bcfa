//! Randomized tests on the workload generator and the predictor's
//! robustness under arbitrary inputs. Seeded with the in-repo
//! deterministic RNG (`esp_types::rng`) instead of an external
//! property-test framework — the build runs offline and fixed seeds make
//! failures exactly reproducible.

use event_sneak_peek::branch::{BranchConfig, BranchPredictor, ContextPolicy, PredictorContext};
use event_sneak_peek::trace::{Instr, Workload};
use event_sneak_peek::types::{Addr, Rng as _, Xoshiro256pp};
use event_sneak_peek::workload::{GeneratedWorkload, WorkloadParams};

fn small_workload(seed: u64) -> GeneratedWorkload {
    let mut p = WorkloadParams::web_default();
    p.target_instructions = 30_000;
    p.mean_event_len = 3_000;
    p.code_footprint_bytes = 256 * 1024;
    GeneratedWorkload::generate(p, seed)
}

/// 16 workload seeds drawn deterministically from a fixed meta-seed.
fn workload_seeds(label: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::seed_from_u64(0x3091_0000 + label);
    (0..16).map(|_| rng.below(10_000)).collect()
}

/// For any seed: streams regenerate identically, control flow is
/// consistent, and cloned walks continue exactly like the original.
#[test]
fn walks_are_deterministic_and_consistent() {
    for seed in workload_seeds(1) {
        let w = small_workload(seed);
        let id = w.events()[0].id;
        let a = w.actual_stream(id).take(2_000).collect::<Vec<_>>();
        let b = w.actual_stream(id).take(2_000).collect::<Vec<_>>();
        assert_eq!(&a, &b, "seed {seed}");
        // Control-flow consistency.
        for pair in a.windows(2) {
            assert_eq!(pair[0].next_pc(), pair[1].pc, "seed {seed}");
        }
        // Clone mid-stream and compare continuations.
        let mut s = w.walk_actual(id);
        s.by_ref().take(500).for_each(drop);
        let rest_clone = s.clone().take(500).collect::<Vec<_>>();
        let rest_orig = s.take(500).collect::<Vec<_>>();
        assert_eq!(rest_orig, rest_clone, "seed {seed}");
    }
}

/// Speculative views match actual views exactly up to the declared
/// divergence point for every event.
#[test]
fn speculative_views_match_prefix() {
    for seed in workload_seeds(2) {
        let w = small_workload(seed);
        for ev in w.events().iter().take(4) {
            let detail = &w.schedule().details()[ev.id.index() as usize];
            let a = w.actual_stream(ev.id).take(1_500).collect::<Vec<_>>();
            let s = w.speculative_stream(ev.id).take(1_500).collect::<Vec<_>>();
            let check = match detail.diverge_at {
                None => a.len(),
                Some(at) => (at as usize).min(a.len()),
            };
            assert_eq!(&a[..check], &s[..check], "seed {seed}");
        }
    }
}

/// Event budgets are exact: each stream yields exactly `approx_len`
/// instructions.
#[test]
fn event_lengths_are_exact() {
    for seed in workload_seeds(3) {
        let w = small_workload(seed);
        for ev in w.events().iter().take(3) {
            let got = w.actual_stream(ev.id).count();
            assert_eq!(got as u64, ev.approx_len, "seed {seed}");
        }
    }
}

/// The predictor never panics and keeps sane statistics on completely
/// arbitrary branch streams.
#[test]
fn predictor_survives_arbitrary_streams() {
    let mut meta = Xoshiro256pp::seed_from_u64(0x3091_0004);
    for case in 0..16 {
        let seed = meta.below(10_000);
        let n = meta.range(100, 1_000) as usize;
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut bp = BranchPredictor::new(BranchConfig::pentium_m(), ContextPolicy::SeparatePir);
        for _ in 0..n {
            let pc = Addr::new(rng.below(1 << 20) << 2);
            let target = Addr::new(rng.below(1 << 20) << 2);
            let instr = match rng.below(5) {
                0 => Instr::cond_branch(pc, rng.chance(0.5), target),
                1 => Instr::indirect(pc, target),
                2 => Instr::indirect_call(pc, target),
                3 => Instr::call(pc, target),
                _ => Instr::ret(pc, target),
            };
            let ctx = match rng.below(3) {
                0 => PredictorContext::Normal,
                1 => PredictorContext::Esp1,
                _ => PredictorContext::Esp2,
            };
            bp.predict_and_update(ctx, &instr);
            if rng.chance(0.05) {
                bp.promote_event();
            }
            if rng.chance(0.02) {
                bp.clear_ras();
            }
        }
        let total: u64 = [PredictorContext::Normal, PredictorContext::Esp1, PredictorContext::Esp2]
            .iter()
            .map(|&c| bp.stats(c).total())
            .sum();
        assert_eq!(total, n as u64, "case {case} seed {seed}");
    }
}
