//! Stretch feature extraction: one cheap pass over the packed arrays.
//!
//! The extractor is an [`esp_trace::WarmSink`], so it rides the exact
//! same bounded walk (`PackedCursor::warm_walk_bounded`) the engine's
//! functional warming uses, teed next to the engine during the stretch
//! *suffix* — the always-fully-warmed grains at the end of every
//! stretch. The suffix is the only region features come from, in
//! training and skipping modes alike: skipped interiors are
//! fast-forwarded decode-free with no observer at all, so both paths
//! feed the model byte-identical callback sequences and it never sees a
//! train/predict feature skew.

use esp_trace::{Instr, InstrKind, WarmSink};

/// Dimensions of the feature vector (bias term included).
pub const FEATURE_DIM: usize = 14;

/// Slots in the direct-mapped footprint signature tables. 2 048 tags
/// cover several L1s' worth of distinct lines; collisions only blur the
/// footprint *feature*, never correctness.
const SIG_SLOTS: usize = 2048;

/// Empty-slot sentinel (no real line address is `u64::MAX`).
const EMPTY: u64 = u64::MAX;

/// Fibonacci-hash multiplier for signature slot selection.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[inline(always)]
fn slot(line: u64) -> usize {
    (line.wrapping_mul(HASH_MUL) >> (64 - 11)) as usize
}

#[inline(always)]
fn fp_slot(line: u64) -> usize {
    (line.wrapping_mul(HASH_MUL) >> (64 - 13)) as usize
}

/// Slots in the [`Footprint`] sink's tables — larger than the feature
/// signatures because a skipped interior spans tens of thousands of
/// instructions and a direct-mapped collision here silently drops a
/// reinstall line.
const FOOTPRINT_SLOTS: usize = 8192;

/// Collects the distinct-line footprint of a skipped stretch interior.
///
/// The learned mode fast-forwards skipped grains with the *observed*
/// skip walk (`PackedCursor::skip_walk_observed`): no instruction is
/// decoded beyond the cursor advance, but fetch lines and load/store
/// addresses — operand words the walk loads anyway — are reported to
/// this sink, so the lines the interior touches are known. When
/// skipping ends, the sampling loop reinstalls them as stat-free warm
/// fills, rebuilding most of the cache-state delta the skipped walk
/// never applied. The sink is deliberately minimal — one unconditional
/// direct-mapped table store per callback and an empty branch hook (the
/// observed skip walk never calls it).
#[derive(Clone, Debug)]
pub struct Footprint {
    line_shift: u32,
    /// The last data line recorded — consecutive same-line accesses
    /// (the common case under spatial locality) skip the hash and the
    /// random table store entirely.
    last_dline: u64,
    isig: Box<[u64; FOOTPRINT_SLOTS]>,
    dsig: Box<[u64; FOOTPRINT_SLOTS]>,
}

impl Footprint {
    /// Creates a footprint sink for `line_bytes`-byte cache lines (must
    /// be a power of two).
    pub fn new(line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two(), "line_bytes must be a power of two");
        Footprint {
            line_shift: line_bytes.trailing_zeros(),
            last_dline: EMPTY,
            isig: Box::new([EMPTY; FOOTPRINT_SLOTS]),
            dsig: Box::new([EMPTY; FOOTPRINT_SLOTS]),
        }
    }

    /// Forgets everything collected so far (run once per skipped
    /// region, after its reinstall).
    pub fn clear(&mut self) {
        self.last_dline = EMPTY;
        self.isig.fill(EMPTY);
        self.dsig.fill(EMPTY);
    }

    /// Distinct instruction lines collected, in deterministic slot
    /// order.
    pub fn i_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.isig.iter().copied().filter(|&l| l != EMPTY)
    }

    /// Distinct data lines collected (see [`Footprint::i_lines`]).
    pub fn d_lines(&self) -> impl Iterator<Item = u64> + '_ {
        self.dsig.iter().copied().filter(|&l| l != EMPTY)
    }
}

impl WarmSink for Footprint {
    #[inline(always)]
    fn warm_fetch_line(&mut self, line: u64) {
        self.isig[fp_slot(line)] = line;
    }

    #[inline(always)]
    fn warm_load(&mut self, _pc: u64, addr: u64) {
        let line = addr >> self.line_shift;
        if line != self.last_dline {
            self.last_dline = line;
            self.dsig[fp_slot(line)] = line;
        }
    }

    #[inline(always)]
    fn warm_store(&mut self, addr: u64) {
        let line = addr >> self.line_shift;
        if line != self.last_dline {
            self.last_dline = line;
            self.dsig[fp_slot(line)] = line;
        }
    }

    #[inline(always)]
    fn warm_branch(&mut self, _instr: &Instr) {}
}

/// Accumulates the feature vector of one functionally-warmed stretch.
///
/// Allocation-free after construction: two fixed signature tables and a
/// handful of counters, reset per stretch. Instruction totals are fed in
/// bulk by the caller ([`FeatureExtractor::add_instrs`]) from the walk's
/// return value — the warming walk deliberately stays silent for plain
/// ALU runs, so sinks cannot count instructions themselves.
#[derive(Clone, Debug)]
pub struct FeatureExtractor {
    line_shift: u32,
    instrs: u64,
    loads: u64,
    stores: u64,
    cond: u64,
    taken: u64,
    other_branch: u64,
    transitions: u64,
    ifresh: u64,
    dfresh: u64,
    isig: Box<[u64; SIG_SLOTS]>,
    dsig: Box<[u64; SIG_SLOTS]>,
    events: u64,
    replay_occ: u64,
    prev_cpi: f64,
    /// Fetch-line dedup for the per-instruction side entrance
    /// ([`FeatureExtractor::note_step`], the looper path).
    step_last_line: u64,
}

impl FeatureExtractor {
    /// Creates an extractor for a machine with `line_bytes`-byte cache
    /// lines (must be a power of two).
    pub fn new(line_bytes: u64) -> Self {
        assert!(line_bytes.is_power_of_two(), "line_bytes must be a power of two");
        FeatureExtractor {
            line_shift: line_bytes.trailing_zeros(),
            instrs: 0,
            loads: 0,
            stores: 0,
            cond: 0,
            taken: 0,
            other_branch: 0,
            transitions: 0,
            ifresh: 0,
            dfresh: 0,
            isig: Box::new([EMPTY; SIG_SLOTS]),
            dsig: Box::new([EMPTY; SIG_SLOTS]),
            events: 0,
            replay_occ: 0,
            prev_cpi: 0.0,
            step_last_line: EMPTY,
        }
    }

    /// Clears all per-stretch state and records the stretch context:
    /// replay-list entries still pending at stretch entry and the
    /// previous measured grain's busy CPI (the autoregressive anchor).
    pub fn begin_stretch(&mut self, replay_occ: u64, prev_cpi: f64) {
        self.instrs = 0;
        self.loads = 0;
        self.stores = 0;
        self.cond = 0;
        self.taken = 0;
        self.other_branch = 0;
        self.transitions = 0;
        self.ifresh = 0;
        self.dfresh = 0;
        self.isig.fill(EMPTY);
        self.dsig.fill(EMPTY);
        self.events = 0;
        self.replay_occ = replay_occ;
        self.prev_cpi = prev_cpi;
        self.step_last_line = EMPTY;
    }

    /// Credits `n` walked instructions to the stretch (the walk reports
    /// its total once, in bulk).
    #[inline]
    pub fn add_instrs(&mut self, n: u64) {
        self.instrs += n;
    }

    /// Notes an event boundary inside the stretch.
    #[inline]
    pub fn note_event(&mut self) {
        self.events += 1;
    }

    /// Instructions credited so far in this stretch.
    pub fn instrs(&self) -> u64 {
        self.instrs
    }

    /// Per-instruction side entrance for streams the bulk walk cannot
    /// cover (the looper prologue): one call performs every update the
    /// walk's callbacks would, plus the instruction credit.
    pub fn note_step(&mut self, instr: &Instr) {
        let line = instr.pc.as_u64() >> self.line_shift;
        if line != self.step_last_line {
            self.warm_fetch_line(line);
            self.step_last_line = line;
        }
        match instr.kind {
            InstrKind::Alu => {}
            InstrKind::Load { addr, .. } => self.warm_load(instr.pc.as_u64(), addr.as_u64()),
            InstrKind::Store { addr } => self.warm_store(addr.as_u64()),
            _ => self.warm_branch(instr),
        }
        self.instrs += 1;
    }

    #[inline(always)]
    fn sig_insert(sig: &mut [u64; SIG_SLOTS], fresh: &mut u64, line: u64) {
        let s = slot(line);
        if sig[s] != line {
            *fresh += u64::from(sig[s] == EMPTY);
            sig[s] = line;
        }
    }

    /// The stretch's feature vector. Fractions use the credited
    /// instruction total; footprints are distinct-line signature fills
    /// per 1 000 instructions; counts enter through `ln(1 + x)` so one
    /// long stretch cannot saturate the linear model.
    pub fn features(&self) -> [f64; FEATURE_DIM] {
        let n = self.instrs.max(1) as f64;
        let cond = self.cond.max(1) as f64;
        let p = self.taken as f64 / cond;
        let entropy = if p <= 0.0 || p >= 1.0 {
            0.0
        } else {
            -(p * p.log2() + (1.0 - p) * (1.0 - p).log2())
        };
        [
            1.0,
            (1.0 + self.instrs as f64).ln(),
            self.loads as f64 / n,
            self.stores as f64 / n,
            self.cond as f64 / n,
            self.other_branch as f64 / n,
            self.taken as f64 / cond,
            entropy,
            self.transitions as f64 / n,
            self.ifresh as f64 * 1000.0 / n,
            self.dfresh as f64 * 1000.0 / n,
            (1.0 + self.events as f64).ln(),
            (1.0 + self.replay_occ as f64).ln(),
            self.prev_cpi,
        ]
    }
}

impl WarmSink for FeatureExtractor {
    #[inline(always)]
    fn warm_fetch_line(&mut self, line: u64) {
        self.transitions += 1;
        Self::sig_insert(&mut self.isig, &mut self.ifresh, line);
    }

    #[inline(always)]
    fn warm_load(&mut self, _pc: u64, addr: u64) {
        self.loads += 1;
        Self::sig_insert(&mut self.dsig, &mut self.dfresh, addr >> self.line_shift);
    }

    #[inline(always)]
    fn warm_store(&mut self, addr: u64) {
        self.stores += 1;
        Self::sig_insert(&mut self.dsig, &mut self.dfresh, addr >> self.line_shift);
    }

    #[inline(always)]
    fn warm_branch(&mut self, instr: &Instr) {
        match instr.kind {
            InstrKind::CondBranch { taken, .. } => {
                self.cond += 1;
                self.taken += u64::from(taken);
            }
            _ => self.other_branch += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_trace::PackedTrace;
    use esp_types::Addr;

    fn hand_trace() -> Vec<Instr> {
        vec![
            Instr::alu(Addr::new(0x1000)),
            Instr::alu(Addr::new(0x1004)),
            Instr::load(Addr::new(0x1008), Addr::new(0x8000), false),
            Instr::store(Addr::new(0x100c), Addr::new(0x8040)),
            Instr::cond_branch(Addr::new(0x1010), true, Addr::new(0x1040)),
            Instr::cond_branch(Addr::new(0x1040), false, Addr::new(0x1000)),
            Instr::call(Addr::new(0x1044), Addr::new(0x2000)),
            Instr::ret(Addr::new(0x2000), Addr::new(0x1048)),
        ]
    }

    /// Features must match a hand computation of the same grain.
    #[test]
    fn features_match_hand_computed_grain() {
        let instrs = hand_trace();
        let packed = PackedTrace::from_instrs(&instrs);
        let mut fx = FeatureExtractor::new(64);
        fx.begin_stretch(5, 1.25);
        let mut cursor = packed.cursor();
        let n = cursor.warm_walk_bounded(u64::MAX, 64, &mut fx);
        assert_eq!(n, 8);
        fx.add_instrs(n);
        fx.note_event();

        let x = fx.features();
        assert_eq!(x[0], 1.0);
        assert!((x[1] - (9.0f64).ln()).abs() < 1e-12);
        // 1 load, 1 store, 2 cond (1 taken), 2 other branches, 8 instrs.
        assert!((x[2] - 1.0 / 8.0).abs() < 1e-12, "load frac");
        assert!((x[3] - 1.0 / 8.0).abs() < 1e-12, "store frac");
        assert!((x[4] - 2.0 / 8.0).abs() < 1e-12, "cond frac");
        assert!((x[5] - 2.0 / 8.0).abs() < 1e-12, "other-branch frac");
        assert!((x[6] - 0.5).abs() < 1e-12, "taken ratio");
        assert!((x[7] - 1.0).abs() < 1e-12, "entropy of p=0.5 is 1 bit");
        // Fetch lines: 0x40 (pcs 0x1000..0x1010), 0x41 (0x1040, 0x1044),
        // 0x80 (0x2000). Walk transitions: 0x40 → 0x41 → 0x80 = 3 calls.
        assert!((x[8] - 3.0 / 8.0).abs() < 1e-12, "line transitions");
        assert!((x[9] - 3.0 * 1000.0 / 8.0).abs() < 1e-9, "i-footprint: 3 lines");
        // Data lines: 0x8000>>6 = 0x200, 0x8040>>6 = 0x201.
        assert!((x[10] - 2.0 * 1000.0 / 8.0).abs() < 1e-9, "d-footprint: 2 lines");
        assert!((x[11] - (2.0f64).ln()).abs() < 1e-12, "1 event");
        assert!((x[12] - (6.0f64).ln()).abs() < 1e-12, "replay occupancy 5");
        assert!((x[13] - 1.25).abs() < 1e-12, "previous CPI");
    }

    /// The bulk walk and the per-instruction side entrance must agree:
    /// skipped and warmed grains would otherwise feed the model skewed
    /// features.
    #[test]
    fn walk_and_note_step_agree() {
        let instrs = hand_trace();
        let packed = PackedTrace::from_instrs(&instrs);

        let mut via_walk = FeatureExtractor::new(64);
        via_walk.begin_stretch(0, 0.0);
        let n = packed.cursor().warm_walk_bounded(u64::MAX, 64, &mut via_walk);
        via_walk.add_instrs(n);

        let mut via_step = FeatureExtractor::new(64);
        via_step.begin_stretch(0, 0.0);
        let mut cursor = packed.cursor();
        while let Some(step) = cursor.next_raw() {
            via_step.note_step(&step.to_instr());
        }

        assert_eq!(via_walk.features(), via_step.features());
    }

    /// `begin_stretch` must fully clear the signature tables.
    #[test]
    fn begin_stretch_resets_everything() {
        let mut fx = FeatureExtractor::new(64);
        fx.begin_stretch(9, 3.0);
        fx.warm_fetch_line(77);
        fx.warm_load(0x1000, 0x9000);
        fx.add_instrs(2);
        fx.note_event();
        fx.begin_stretch(0, 0.0);
        let blank = FeatureExtractor::new(64);
        assert_eq!(fx.features(), blank.features());
    }
}
