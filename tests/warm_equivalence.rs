//! Functional warming has one bulk path: the packed cursor's bounded
//! walk feeding an `Engine` through `WarmSink`. It must leave the engine
//! in exactly the state per-instruction `Engine::warm_step` leaves —
//! caches, predictor, prefetchers, fetch-line dedup, retired count — with
//! the same warm event counts, for every family and for every config axis
//! that changes what the warm path does.

use event_sneak_peek::prelude::*;
use event_sneak_peek::trace::PackedWorkload;
use event_sneak_peek::uarch::{Engine, EngineConfig, PerfectFlags};
use event_sneak_peek::workload::arena;

/// Scaled-down families: big enough to miss in L1 and L2 and to train
/// every predictor table, small enough for a debug build.
const SCALE: u64 = 30_000;

/// Walk budgets per call: uneven, so calls end mid-line and mid-run of
/// plain ALUs and the walk's resumption is exercised.
const BUDGETS: [u64; 4] = [1, 777, 64, 5_003];

fn axes() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig::baseline();
    let with = |f: fn(&mut EngineConfig)| {
        let mut c = base.clone();
        f(&mut c);
        c
    };
    vec![
        ("baseline", base.clone()),
        (
            "perfect L1I",
            with(|c| c.perfect = PerfectFlags::perfect_l1i()),
        ),
        (
            "perfect L1D",
            with(|c| c.perfect = PerfectFlags::perfect_l1d()),
        ),
        (
            "perfect branch",
            with(|c| c.perfect = PerfectFlags::perfect_branch()),
        ),
        ("NL-I", with(|c| c.nl_instr = true)),
        ("DCU", with(|c| c.nl_data = true)),
        ("stride", with(|c| c.stride = true)),
        (
            "NL-I + DCU + stride",
            with(|c| {
                c.nl_instr = true;
                c.nl_data = true;
                c.stride = true;
            }),
        ),
    ]
}

fn walked(cfg: &EngineConfig, w: &PackedWorkload) -> Engine {
    let mut engine = Engine::new(cfg.clone());
    let line_bytes = cfg.machine.hierarchy.l1i.line_bytes;
    let arena = w.arena();
    let mut k = 0;
    for i in 0..arena.len() {
        let mut cursor = arena.event(i).actual().cursor();
        loop {
            let budget = BUDGETS[k % BUDGETS.len()];
            k += 1;
            let n = cursor.warm_walk_bounded(budget, line_bytes, &mut engine);
            engine.warm_retire(n);
            if n < budget {
                break;
            }
        }
    }
    engine
}

fn stepped(cfg: &EngineConfig, w: &PackedWorkload) -> Engine {
    let mut engine = Engine::new(cfg.clone());
    let arena = w.arena();
    for i in 0..arena.len() {
        let mut cursor = arena.event(i).actual().cursor();
        while let Some(step) = cursor.next_raw() {
            engine.warm_step(&step.to_instr());
        }
    }
    engine
}

#[test]
fn bulk_warm_walk_matches_per_instruction_warm_step() {
    for profile in BenchmarkProfile::all_families() {
        let w = arena::packed_for(&profile.scaled(SCALE), 7, 1);
        for (axis, cfg) in axes() {
            let bulk = walked(&cfg, &w);
            let step = stepped(&cfg, &w);
            let at = bulk.now();
            if let Some(what) = bulk.state_difference(&step, at) {
                panic!(
                    "{} / {axis}: bulk walk and warm_step disagree on the {what}",
                    profile.name()
                );
            }
            assert_eq!(
                bulk.warm_stats(),
                step.warm_stats(),
                "{} / {axis}: warm stats",
                profile.name()
            );
            let s = bulk.warm_stats();
            assert!(
                s.branches > 0,
                "{} / {axis}: no branch warmed",
                profile.name()
            );
            if !cfg.perfect.l1i {
                assert!(
                    s.l1i_misses > 0,
                    "{} / {axis}: no L1-I miss warmed",
                    profile.name()
                );
            }
            if !cfg.perfect.l1d {
                assert!(
                    s.l1d_misses > 0,
                    "{} / {axis}: no L1-D miss warmed",
                    profile.name()
                );
            }
            if !cfg.perfect.branch {
                assert!(
                    s.mispredicts > 0,
                    "{} / {axis}: no mispredict warmed",
                    profile.name()
                );
            }
        }
    }
}
