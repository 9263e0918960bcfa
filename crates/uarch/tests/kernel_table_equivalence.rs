//! The fused kernel's kind dispatch is pinned by committed digests.
//!
//! `Engine::step_raw` is the engine's one normal-mode retire body. For
//! every machine configuration whose flags steer the kernel's match arms
//! differently (prefetcher and perfect-component combinations) and every
//! `InstrKind` × flag-bit combination — covered exhaustively by a fixed
//! prefix and then exercised over long randomized streams — the run's
//! per-step `StepOutcome`s and final state (clock, engine statistics,
//! CPI stack, hierarchy counters, predictor statistics) must hash to the
//! committed digest of that configuration.
//!
//! The digests were produced by a tree that still carried a separately
//! written decoded retire path over `Instr`s: they were computed from
//! that path's outcomes while every step was also asserted equal to
//! `step_raw`'s. A change that moves a digest changes what a retired
//! instruction does.

use esp_obs::NullProbe;
use esp_trace::espt::fnv1a64;
use esp_trace::kindbits::{
    FLAG_BIT, TAG_ALU, TAG_CALL, TAG_COND, TAG_IND_BRANCH, TAG_IND_CALL, TAG_LOAD, TAG_RET,
    TAG_STORE,
};
use esp_trace::RawStep;
use esp_types::{Rng, SplitMix64};
use esp_uarch::{Engine, EngineConfig};
use std::fmt::Write;

const CODE_BASE: u64 = 0x40_0000;
const HEAP_BASE: u64 = 0x80_0000;
/// Iterations of the stream's prefetcher-training loop.
const LOOP_ITERS: u64 = 512;

/// Every (prefetcher, perfect-flag) combination that sends some kind
/// through a different path of the kernel's kind handlers.
fn configs() -> Vec<(&'static str, EngineConfig)> {
    let base = EngineConfig::baseline;
    let mut v = vec![("baseline", base())];
    let mut c = base();
    c.nl_instr = true;
    v.push(("nl_instr", c));
    let mut c = base();
    c.nl_data = true;
    v.push(("nl_data", c));
    let mut c = base();
    c.stride = true;
    v.push(("stride", c));
    let mut c = base();
    c.nl_instr = true;
    c.nl_data = true;
    c.stride = true;
    v.push(("all_prefetchers", c));
    let mut c = base();
    c.perfect.l1i = true;
    v.push(("perfect_l1i", c));
    let mut c = base();
    c.perfect.l1d = true;
    v.push(("perfect_l1d", c));
    let mut c = base();
    c.perfect.branch = true;
    v.push(("perfect_branch", c));
    let mut c = base();
    c.perfect.l1i = true;
    c.perfect.l1d = true;
    c.perfect.branch = true;
    v.push(("perfect_all", c));
    v
}

fn is_branch_tag(tag: u8) -> bool {
    tag >= TAG_COND
}

/// A plausible instruction stream as raw steps: sequential pc runs
/// broken by taken branches, loads/stores mixing a sequential walk with
/// random heap lines. Starts with an exhaustive prefix of all 8 tags ×
/// both flag values so every match arm fires under every config even
/// if the random part were unlucky, and ends with a loop that trains
/// the data prefetchers.
fn stream(seed: u64, len: usize) -> Vec<RawStep> {
    let mut rng = SplitMix64::new(seed);
    let mut steps = Vec::with_capacity(len + 16 + 4 * LOOP_ITERS as usize);
    let mut pc = CODE_BASE;
    let mut seq = HEAP_BASE;
    let mut emit = |tag: u8, flag: bool, op: u64, pc: &mut u64| {
        let kind = tag | if flag { FLAG_BIT } else { 0 };
        steps.push(RawStep { kind, pc: *pc, op });
        let taken = match tag {
            TAG_COND => flag,
            t => is_branch_tag(t),
        };
        *pc = if taken { op } else { *pc + 4 };
    };
    for tag in 0..8u8 {
        for flag in [false, true] {
            let op = match tag {
                TAG_LOAD | TAG_STORE => HEAP_BASE + u64::from(tag) * 64,
                t if is_branch_tag(t) => CODE_BASE + 0x100 + u64::from(tag) * 16,
                _ => 0,
            };
            emit(tag, flag, op, &mut pc);
        }
    }
    for _ in 0..len {
        let r = rng.next_u64();
        let tag = match r % 100 {
            0..=49 => TAG_ALU,
            50..=69 => TAG_LOAD,
            70..=79 => TAG_STORE,
            80..=89 => TAG_COND,
            90..=92 => TAG_CALL,
            93..=94 => TAG_RET,
            95..=97 => TAG_IND_BRANCH,
            _ => TAG_IND_CALL,
        };
        let flag = (r >> 8) & 1 != 0;
        let op = match tag {
            TAG_LOAD | TAG_STORE => {
                if (r >> 9).is_multiple_of(3) {
                    // A sequential walk of fresh lines.
                    seq += 64;
                    seq
                } else {
                    (HEAP_BASE + ((r >> 16) % (1 << 20))) & !7
                }
            }
            t if is_branch_tag(t) => CODE_BASE + (((r >> 16) % 0x4000) & !3),
            _ => 0,
        };
        emit(tag, flag, op, &mut pc);
    }
    // A loop tail whose load walks 8 bytes per iteration from one pc,
    // with a store walking 16: every data line is touched at least four
    // times, so the DCU triggers, and the load's stride is constant, so
    // the stride prefetcher gains confidence (and, unlike the DCU,
    // prefetches at a line's last word). The random part above triggers
    // neither.
    let loop_pc = CODE_BASE + 0x8000;
    pc = loop_pc;
    for i in 0..LOOP_ITERS {
        emit(TAG_ALU, false, 0, &mut pc);
        emit(TAG_LOAD, false, HEAP_BASE + 0x20_0000 + i * 8, &mut pc);
        emit(TAG_STORE, false, HEAP_BASE + 0x30_0000 + i * 16, &mut pc);
        emit(TAG_COND, i + 1 < LOOP_ITERS, loop_pc, &mut pc);
    }
    steps
}

/// FNV-1a-64 of each configuration's run, keyed by configuration name.
const DIGESTS: [(&str, u64); 9] = [
    ("baseline", 0x27a47654eec50549),
    ("nl_instr", 0x256737c2b12d959b),
    ("nl_data", 0x7140dd7c9bb98c02),
    ("stride", 0x8fcbd28d630a888a),
    ("all_prefetchers", 0x8f03895b63fe3390),
    ("perfect_l1i", 0x0b3cad216f378005),
    ("perfect_l1d", 0x5ba88742e6607d82),
    ("perfect_branch", 0x33b8fc2075bbb625),
    ("perfect_all", 0x36e25985de5d90d4),
];

/// FNV-1a-64 of the `Debug` text of every step's outcome (one line each)
/// followed by the engine's final clock, statistics, CPI stack, hierarchy
/// counters and predictor statistics.
fn run_digest(cfg: EngineConfig, steps: &[RawStep]) -> u64 {
    let mut e = Engine::new(cfg);
    let kp = e.lower_kernel();
    let mut text = String::new();
    for rs in steps {
        let out = e.step_raw(&kp, rs.kind, rs.pc, rs.op, &mut NullProbe);
        writeln!(text, "{out:?}").unwrap();
    }
    writeln!(
        text,
        "{:?}\n{:?}\n{:?}\n{:?}\n{:?}",
        e.now(),
        e.stats(),
        e.cpi_stack(),
        e.mem().snapshot(),
        e.bp().stats_all()
    )
    .unwrap();
    fnv1a64(text.as_bytes())
}

#[test]
fn kernel_matches_committed_digests_for_every_kind() {
    let got: Vec<(&str, u64)> = configs()
        .into_iter()
        .map(|(name, cfg)| {
            let steps = stream(0xE5BE + cfg.nl_instr as u64, 20_000);
            (name, run_digest(cfg, &steps))
        })
        .collect();
    let listing: String =
        got.iter().map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n")).collect();
    assert_eq!(got, DIGESTS, "kernel digests moved; this run's:\n{listing}");
}
