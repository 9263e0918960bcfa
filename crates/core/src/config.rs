//! Simulation modes and ESP feature flags.

use esp_branch::ContextPolicy;
use esp_types::{Error, Result};
use esp_uarch::{EngineConfig, PerfectFlags};

/// Which ESP machinery is active — the knobs behind Figs. 10–12.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EspFeatures {
    /// Naive ESP (Fig. 10): no cachelets, no lists — pre-execution fills
    /// the real L1/L2 directly and updates the branch predictor in the
    /// normal context, like a long-range runahead would.
    pub naive: bool,
    /// Record and replay the I-list (instruction prefetching).
    pub ilist: bool,
    /// Record and replay the D-list (data prefetching).
    pub dlist: bool,
    /// Record the B-lists and train the predictor ahead during normal
    /// execution.
    pub blist: bool,
    /// Ideal ESP (Figs. 11a/11b): unbounded lists and cachelets, and
    /// perfectly timely replay prefetches.
    pub ideal: bool,
    /// Maximum jump-ahead depth. The shipping design is 2 (§3.1); the
    /// Fig. 13 working-set study probes up to 8.
    pub depth: usize,
    /// Collect per-mode working-set samples (Fig. 13).
    pub measure_working_sets: bool,
    /// Instructions of lead for list prefetch replay (§3.6's preset 190).
    pub prefetch_lead_instrs: u64,
    /// Branches of lead for B-list predictor training (preset 30).
    pub bp_train_lead_branches: u64,
}

impl EspFeatures {
    /// The full shipping ESP design: cachelets + I/D/B lists, depth 2.
    pub fn full() -> Self {
        EspFeatures {
            naive: false,
            ilist: true,
            dlist: true,
            blist: true,
            ideal: false,
            depth: 2,
            measure_working_sets: false,
            prefetch_lead_instrs: 190,
            bp_train_lead_branches: 30,
        }
    }

    /// Naive ESP (no cachelets/lists).
    pub fn naive() -> Self {
        EspFeatures { naive: true, ilist: false, dlist: false, blist: false, ..Self::full() }
    }

    /// Only the instruction-side lists ("ESP-I").
    pub fn i_only() -> Self {
        EspFeatures { dlist: false, blist: false, ..Self::full() }
    }

    /// Instruction lists plus B-list training ("ESP-I,B").
    pub fn ib() -> Self {
        EspFeatures { dlist: false, ..Self::full() }
    }

    /// Only the data-side lists ("ESP-D").
    pub fn d_only() -> Self {
        EspFeatures { ilist: false, blist: false, ..Self::full() }
    }

    /// Idealised ESP.
    pub fn ideal() -> Self {
        EspFeatures { ideal: true, ..Self::full() }
    }

    /// Validates the flag combination.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for a zero depth, a depth over 8,
    /// or naive mode combined with lists.
    pub fn validate(&self) -> Result<()> {
        if self.depth == 0 || self.depth > 8 {
            return Err(Error::invalid_config("ESP depth must be in 1..=8"));
        }
        if self.naive && (self.ilist || self.dlist || self.blist) {
            return Err(Error::invalid_config("naive ESP records no lists"));
        }
        if self.prefetch_lead_instrs == 0 || self.bp_train_lead_branches == 0 {
            return Err(Error::invalid_config("replay leads must be positive"));
        }
        Ok(())
    }
}

/// How stall windows are spent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimMode {
    /// Stall windows are idle (the conventional core).
    Baseline,
    /// Classic runahead execution on data LLC misses.
    Runahead {
        /// Runahead-D (Fig. 11b): warm only the data cache — no branch
        /// predictor updates and no instruction-cache fills.
        data_only: bool,
    },
    /// Event Sneak Peek.
    Esp(EspFeatures),
}

/// A complete simulation configuration: the machine plus the mode.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Core, caches, prefetchers, perfect flags, BP policy.
    pub engine: EngineConfig,
    /// How stall windows are spent.
    pub mode: SimMode,
    /// Synthetic looper instructions between events (§3.6 observes ~70
    /// instructions of event-queue management around each event).
    pub looper_instrs: u32,
}

impl SimConfig {
    fn with(engine: EngineConfig, mode: SimMode) -> Self {
        SimConfig { engine, mode, looper_instrs: 70 }
    }

    // ---- Fig. 9 configurations --------------------------------------

    /// The no-prefetch baseline everything normalises to.
    pub fn base() -> Self {
        Self::with(EngineConfig::baseline(), SimMode::Baseline)
    }

    /// Next-line prefetching only ("NL").
    pub fn next_line() -> Self {
        Self::with(EngineConfig::next_line(), SimMode::Baseline)
    }

    /// Next-line + stride ("NL + S").
    pub fn next_line_stride() -> Self {
        Self::with(EngineConfig::next_line_stride(), SimMode::Baseline)
    }

    /// Runahead execution without prefetchers.
    pub fn runahead() -> Self {
        Self::with(EngineConfig::baseline(), SimMode::Runahead { data_only: false })
    }

    /// Runahead + next-line.
    pub fn runahead_nl() -> Self {
        Self::with(EngineConfig::next_line(), SimMode::Runahead { data_only: false })
    }

    /// ESP without prefetchers.
    pub fn esp() -> Self {
        Self::with(EngineConfig::baseline(), SimMode::Esp(EspFeatures::full()))
    }

    /// ESP + next-line — the headline configuration.
    pub fn esp_nl() -> Self {
        Self::with(EngineConfig::next_line(), SimMode::Esp(EspFeatures::full()))
    }

    // ---- Fig. 10 configurations -------------------------------------

    /// Naive ESP (no cachelets/lists), no prefetchers.
    pub fn naive_esp() -> Self {
        Self::with(EngineConfig::baseline(), SimMode::Esp(EspFeatures::naive()))
    }

    /// Naive ESP + next-line.
    pub fn naive_esp_nl() -> Self {
        Self::with(EngineConfig::next_line(), SimMode::Esp(EspFeatures::naive()))
    }

    /// ESP-I + NL.
    pub fn esp_i_nl() -> Self {
        Self::with(EngineConfig::next_line(), SimMode::Esp(EspFeatures::i_only()))
    }

    /// ESP-I,B + NL.
    pub fn esp_ib_nl() -> Self {
        Self::with(EngineConfig::next_line(), SimMode::Esp(EspFeatures::ib()))
    }

    // ---- Fig. 11 configurations -------------------------------------

    /// Instruction-side-only next-line ("NL-I").
    pub fn nl_i_only() -> Self {
        let mut e = EngineConfig::baseline();
        e.nl_instr = true;
        Self::with(e, SimMode::Baseline)
    }

    /// Data-side-only next-line ("NL-D").
    pub fn nl_d_only() -> Self {
        let mut e = EngineConfig::baseline();
        e.nl_data = true;
        Self::with(e, SimMode::Baseline)
    }

    /// ESP-I alone (no prefetchers).
    pub fn esp_i() -> Self {
        Self::with(EngineConfig::baseline(), SimMode::Esp(EspFeatures::i_only()))
    }

    /// ESP-I with NL-I ("ESP-I + NL-I").
    pub fn esp_i_nl_i() -> Self {
        let mut e = EngineConfig::baseline();
        e.nl_instr = true;
        Self::with(e, SimMode::Esp(EspFeatures::i_only()))
    }

    /// Ideal ESP-I with NL-I.
    pub fn ideal_esp_i_nl_i() -> Self {
        let mut e = EngineConfig::baseline();
        e.nl_instr = true;
        let f = EspFeatures { dlist: false, blist: false, ..EspFeatures::ideal() };
        Self::with(e, SimMode::Esp(f))
    }

    /// Runahead-D (data warming only).
    pub fn runahead_d() -> Self {
        Self::with(EngineConfig::baseline(), SimMode::Runahead { data_only: true })
    }

    /// Runahead-D with NL-D.
    pub fn runahead_d_nl_d() -> Self {
        let mut e = EngineConfig::baseline();
        e.nl_data = true;
        Self::with(e, SimMode::Runahead { data_only: true })
    }

    /// ESP-D alone.
    pub fn esp_d() -> Self {
        Self::with(EngineConfig::baseline(), SimMode::Esp(EspFeatures::d_only()))
    }

    /// ESP-D with NL-D.
    pub fn esp_d_nl_d() -> Self {
        let mut e = EngineConfig::baseline();
        e.nl_data = true;
        Self::with(e, SimMode::Esp(EspFeatures::d_only()))
    }

    /// Ideal ESP-D with NL-D.
    pub fn ideal_esp_d_nl_d() -> Self {
        let mut e = EngineConfig::baseline();
        e.nl_data = true;
        let f = EspFeatures { ilist: false, blist: false, ..EspFeatures::ideal() };
        Self::with(e, SimMode::Esp(f))
    }

    // ---- Fig. 12 configurations -------------------------------------

    /// ESP with no extra branch hardware: shared PIR and tables.
    pub fn esp_bp_shared() -> Self {
        let mut c = Self::esp_nl();
        c.engine.bp_policy = ContextPolicy::SharedAll;
        if let SimMode::Esp(ref mut f) = c.mode {
            f.blist = false;
        }
        c
    }

    /// ESP with a separate PIR per context (no B-list).
    pub fn esp_bp_separate_context() -> Self {
        let mut c = Self::esp_nl();
        c.engine.bp_policy = ContextPolicy::SeparatePir;
        if let SimMode::Esp(ref mut f) = c.mode {
            f.blist = false;
        }
        c
    }

    /// ESP with fully replicated predictor tables (no B-list).
    pub fn esp_bp_separate_tables() -> Self {
        let mut c = Self::esp_nl();
        c.engine.bp_policy = ContextPolicy::SeparateTables;
        if let SimMode::Esp(ref mut f) = c.mode {
            f.blist = false;
        }
        c
    }

    // ---- Fig. 3 configurations --------------------------------------

    /// Baseline with a perfect component subset.
    pub fn perfect(flags: PerfectFlags) -> Self {
        let mut e = EngineConfig::baseline();
        e.perfect = flags;
        Self::with(e, SimMode::Baseline)
    }

    // ---- Fig. 13 ------------------------------------------------------

    /// ESP probing jump-ahead depths up to 8 with working-set tracking.
    pub fn esp_depth_probe() -> Self {
        let f = EspFeatures { depth: 8, measure_working_sets: true, ..EspFeatures::full() };
        Self::with(EngineConfig::next_line(), SimMode::Esp(f))
    }

    /// Validates nested configuration.
    ///
    /// # Errors
    ///
    /// Propagates engine and feature validation errors.
    pub fn validate(&self) -> Result<()> {
        self.engine.validate()?;
        if let SimMode::Esp(f) = &self.mode {
            f.validate()?;
        }
        Ok(())
    }

    /// The ESP features, if this is an ESP configuration.
    pub fn esp_features(&self) -> Option<&EspFeatures> {
        match &self.mode {
            SimMode::Esp(f) => Some(f),
            _ => None,
        }
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig::esp_nl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_validate() {
        let presets = [
            SimConfig::base(),
            SimConfig::next_line(),
            SimConfig::next_line_stride(),
            SimConfig::runahead(),
            SimConfig::runahead_nl(),
            SimConfig::esp(),
            SimConfig::esp_nl(),
            SimConfig::naive_esp(),
            SimConfig::naive_esp_nl(),
            SimConfig::esp_i_nl(),
            SimConfig::esp_ib_nl(),
            SimConfig::nl_i_only(),
            SimConfig::nl_d_only(),
            SimConfig::esp_i(),
            SimConfig::esp_i_nl_i(),
            SimConfig::ideal_esp_i_nl_i(),
            SimConfig::runahead_d(),
            SimConfig::runahead_d_nl_d(),
            SimConfig::esp_d(),
            SimConfig::esp_d_nl_d(),
            SimConfig::ideal_esp_d_nl_d(),
            SimConfig::esp_bp_shared(),
            SimConfig::esp_bp_separate_context(),
            SimConfig::esp_bp_separate_tables(),
            SimConfig::perfect(PerfectFlags::all()),
            SimConfig::esp_depth_probe(),
        ];
        for p in presets {
            p.validate().unwrap();
        }
    }

    #[test]
    fn feature_combinations() {
        assert!(EspFeatures::full().validate().is_ok());
        assert!(EspFeatures::naive().validate().is_ok());
        let mut f = EspFeatures::naive();
        f.ilist = true;
        assert!(f.validate().is_err());
        let mut f = EspFeatures::full();
        f.depth = 0;
        assert!(f.validate().is_err());
        f.depth = 9;
        assert!(f.validate().is_err());
    }

    #[test]
    fn fig12_configs_differ_only_in_bp() {
        use esp_branch::ContextPolicy;
        assert_eq!(SimConfig::esp_bp_shared().engine.bp_policy, ContextPolicy::SharedAll);
        assert_eq!(
            SimConfig::esp_bp_separate_tables().engine.bp_policy,
            ContextPolicy::SeparateTables
        );
        let c = SimConfig::esp_bp_separate_context();
        assert_eq!(c.engine.bp_policy, ContextPolicy::SeparatePir);
        assert!(!c.esp_features().unwrap().blist);
        assert!(SimConfig::esp_nl().esp_features().unwrap().blist);
    }

    #[test]
    fn esp_features_accessor() {
        assert!(SimConfig::base().esp_features().is_none());
        assert!(SimConfig::esp_nl().esp_features().is_some());
    }
}
