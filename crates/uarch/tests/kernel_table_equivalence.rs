//! The fused kernel's kind dispatch is outcome-equivalent to the decoded
//! path.
//!
//! For every machine configuration whose flags steer the kernel's match
//! arms differently (prefetcher and perfect-component combinations) and
//! every `InstrKind` × flag-bit combination — covered exhaustively by a
//! fixed prefix and then exercised over long randomized streams —
//! `Engine::step_raw` must return the same `StepOutcome` per instruction
//! and leave the engine in the same state as `Engine::step_probed` over
//! the decoded `Instr`.

use esp_obs::NullProbe;
use esp_trace::kindbits::{
    FLAG_BIT, TAG_ALU, TAG_CALL, TAG_COND, TAG_IND_BRANCH, TAG_IND_CALL, TAG_LOAD, TAG_MASK,
    TAG_RET, TAG_STORE,
};
use esp_trace::RawStep;
use esp_types::{Rng, SplitMix64};
use esp_uarch::{Engine, EngineConfig};

const CODE_BASE: u64 = 0x40_0000;
const HEAP_BASE: u64 = 0x80_0000;

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
/// broken by taken branches, loads/stores mixing a strided walk with
/// random heap lines. Starts with an exhaustive prefix of all 8 tags ×
/// both flag values so every match arm fires under every config even
/// if the random tail were unlucky.
fn stream(seed: u64, len: usize) -> Vec<RawStep> {
    let mut rng = SplitMix64::new(seed);
    let mut steps = Vec::with_capacity(len + 16);
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
                    // A strided walk, food for the stride prefetcher.
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
    steps
}

#[test]
fn kind_table_matches_decoded_path_for_every_kind() {
    for (name, cfg) in configs() {
        let steps = stream(0xE5BE + cfg.nl_instr as u64, 20_000);
        let mut raw = Engine::new(cfg.clone());
        let mut dec = Engine::new(cfg);
        let kp = raw.lower_kernel();
        for (i, rs) in steps.iter().enumerate() {
            let a = raw.step_raw(&kp, rs.kind, rs.pc, rs.op, &mut NullProbe);
            let b = dec.step_probed(&rs.to_instr(), &mut NullProbe);
            assert_eq!(
                a,
                b,
                "{name}: step {i} (tag {} flag {}) diverged",
                rs.kind & TAG_MASK,
                rs.kind & FLAG_BIT != 0
            );
        }
        assert_eq!(raw.now(), dec.now(), "{name}: clock");
        assert_eq!(raw.stats(), dec.stats(), "{name}: engine stats");
        assert_eq!(
            format!("{:?}", raw.cpi_stack()),
            format!("{:?}", dec.cpi_stack()),
            "{name}: CPI stack"
        );
        assert_eq!(
            raw.mem().snapshot(),
            dec.mem().snapshot(),
            "{name}: hierarchy counters"
        );
        assert_eq!(raw.bp().stats_all(), dec.bp().stats_all(), "{name}: predictor stats");
    }
}
