//! The learned fast-forward controller: train → skip → fall back.
//!
//! [`FastForward`] owns the feature extractor, the predictor, and the
//! residual accounting, and exposes the small API the sampling loop in
//! `esp-core` drives:
//!
//! 1. Every warm stretch is summarised by the extractor, teed next to
//!    the engine over the stretch's always-fully-warmed suffix grains
//!    (the only region features come from — skipped interiors are
//!    fast-forwarded with no observer).
//! 2. At the stretch's end the model predicts the next measured grain's
//!    per-instruction metrics; when the grain closes, the
//!    predicted-vs-actual residual is recorded and the model trained
//!    (prequential evaluation — every prediction is made blind).
//! 3. Skipping is enabled only after [`LearnParams::train_stretches`]
//!    observed stretches, and only while the rolling residual stays
//!    within [`LearnParams::residual_bound_pct`]. A breach falls back to
//!    full functional warming for [`LearnParams::cooloff_stretches`]
//!    stretches; [`LearnParams::max_fallbacks`] breaches disable
//!    skipping for the rest of the run (the caller may then rerun with
//!    plain warming — the last rung of the ladder).

use crate::features::{FeatureExtractor, Footprint, FEATURE_DIM};
use crate::model::{Model, ModelKind, TARGETS};
use esp_stats::{ResidualAccum, RESIDUAL_WINDOW};

/// Minimum predictions in the rolling window before a residual breach
/// can be declared: the bias of fewer samples is still dominated by
/// per-grain noise.
const JUDGE_MIN: usize = 3;

/// The bias threshold at window length `wlen`: the configured bound
/// applies at a *full* window, and shorter windows get a proportionally
/// wider gate (`bound · sqrt(W / wlen)`) so the breach test keeps a
/// constant statistical significance — the standard error of a mean of
/// `wlen` noisy residuals shrinks as `1/sqrt(wlen)`.
fn bias_threshold_pct(bound_pct: f64, wlen: usize) -> f64 {
    bound_pct * (RESIDUAL_WINDOW as f64 / wlen.max(1) as f64).sqrt()
}

/// Tuning knobs of the learned fast-forward mode.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LearnParams {
    /// Which predictor to train.
    pub model: ModelKind,
    /// Warm stretches observed (fully warmed) before skipping may start.
    pub train_stretches: u32,
    /// Warm grains always fully warmed at the *end* of each stretch,
    /// immediately before the detailed-warmup grain, rebuilding
    /// short-term cache/predictor state that skipping left cold.
    pub warm_suffix_grains: u64,
    /// Rolling *signed* mean relative busy-CPI residual (percent, in
    /// magnitude) above which skipping is not trusted. Per-grain CPI is
    /// inherently noisy (25–40% CV in the bundled workloads); the signed
    /// rolling mean averages that noise out, so what this bound catches
    /// is persistent prediction bias — model failure or skip-induced
    /// warm-state drift.
    pub residual_bound_pct: f64,
    /// Fully-warmed stretches after a residual breach before skipping
    /// may resume.
    pub cooloff_stretches: u32,
    /// Residual breaches after which skipping is disabled for good.
    pub max_fallbacks: u32,
}

impl Default for LearnParams {
    fn default() -> Self {
        LearnParams {
            model: ModelKind::Ridge,
            train_stretches: 2,
            warm_suffix_grains: 3,
            // ~3σ of the rolling bias under the bundled workloads'
            // 25–40% per-grain CPI noise: trips on genuine phase breaks,
            // not on noise. Run-level accuracy does not ride on this —
            // predictions gate skipping, they never replace measurements.
            residual_bound_pct: 40.0,
            cooloff_stretches: 1,
            max_fallbacks: 8,
        }
    }
}

impl LearnParams {
    /// Validates the parameters, returning a human-readable error for
    /// the CLI to print (no panics on user input).
    pub fn validate(&self) -> Result<(), String> {
        if self.train_stretches == 0 {
            return Err("--learn-train must be at least 1".into());
        }
        if self.warm_suffix_grains == 0 {
            return Err(
                "--learn-suffix must be at least 1 (a measured grain needs freshly warmed state)"
                    .into(),
            );
        }
        if !self.residual_bound_pct.is_finite() || self.residual_bound_pct <= 0.0 {
            return Err("--learn-bound must be a positive number of percent".into());
        }
        if self.cooloff_stretches == 0 {
            return Err("cooloff_stretches must be at least 1".into());
        }
        if self.max_fallbacks == 0 {
            return Err("max_fallbacks must be at least 1".into());
        }
        Ok(())
    }
}

/// Where the controller currently is in its train/skip/fall-back ladder.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Observing fully-warmed stretches; no skipping yet.
    Train,
    /// Skipping stretch interiors.
    Skip,
    /// Fully warming after a residual breach; resumes skipping once the
    /// counter drains *and* the rolling residual is back in bounds.
    Cooloff(u32),
    /// Skipping disabled for the rest of the run.
    Disabled,
}

/// Summary of a learned run, reported next to the sampling estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LearnedStats {
    /// Predictor kind.
    pub model: ModelKind,
    /// Warm stretches the run contained.
    pub stretches: u64,
    /// Stretches whose interior was (at least partly) skipped.
    pub skipped_stretches: u64,
    /// Warm grains fast-forwarded by the feature-only walk.
    pub skipped_grains: u64,
    /// Warm grains fully warmed (training, suffix, cooloff).
    pub warmed_grains: u64,
    /// Instructions fast-forwarded without engine warming.
    pub skipped_instrs: u64,
    /// Instructions fully warmed inside warm grains.
    pub warmed_instrs: u64,
    /// Blind predictions issued (one per observed stretch once fitted).
    pub predictions: u64,
    /// Residual-bound breaches (each triggers a cooloff or disables).
    pub fallbacks: u64,
    /// True once skipping was disabled by repeated breaches.
    pub disabled: bool,
    /// True when the run was re-executed with plain warming because the
    /// ladder bottomed out (the report then contains no skipped state).
    pub rerun_full: bool,
    /// Whole-run mean absolute relative busy-CPI residual, percent.
    pub mean_err_pct: f64,
    /// Rolling-window residual at end of run, percent.
    pub rolling_err_pct: f64,
    /// Whole-run RMS relative busy-CPI residual, percent.
    pub rmse_pct: f64,
    /// `1 − rolling/bound`, clamped to `[0, 1]`; 0 until the model is
    /// fitted.
    pub confidence: f64,
}

impl LearnedStats {
    /// An all-zero record for runs that never got to learn (e.g. a
    /// workload too small to sample at all).
    pub fn empty(model: ModelKind) -> LearnedStats {
        LearnedStats {
            model,
            stretches: 0,
            skipped_stretches: 0,
            skipped_grains: 0,
            warmed_grains: 0,
            skipped_instrs: 0,
            warmed_instrs: 0,
            predictions: 0,
            fallbacks: 0,
            disabled: false,
            rerun_full: false,
            mean_err_pct: 0.0,
            rolling_err_pct: 0.0,
            rmse_pct: 0.0,
            confidence: 0.0,
        }
    }

    /// Residual breaches per observed stretch (the reported
    /// "fallback rate").
    pub fn fallback_rate(&self) -> f64 {
        if self.stretches == 0 {
            0.0
        } else {
            self.fallbacks as f64 / self.stretches as f64
        }
    }

    /// Fraction of warm-grain instructions that were fast-forwarded
    /// without engine warming.
    pub fn skip_fraction(&self) -> f64 {
        let total = self.skipped_instrs + self.warmed_instrs;
        if total == 0 {
            0.0
        } else {
            self.skipped_instrs as f64 / total as f64
        }
    }
}

/// The learned fast-forward state machine (see the module docs).
#[derive(Clone, Debug)]
pub struct FastForward {
    params: LearnParams,
    extractor: FeatureExtractor,
    footprint: Footprint,
    model: Model,
    residuals: [ResidualAccum; TARGETS],
    phase: Phase,
    in_stretch: bool,
    stretch_skipped: bool,
    observed: u64,
    stretches: u64,
    skipped_stretches: u64,
    skipped_grains: u64,
    warmed_grains: u64,
    skipped_instrs: u64,
    warmed_instrs: u64,
    predictions: u64,
    fallbacks: u64,
    ever_disabled: bool,
    pending_x: Option<[f64; FEATURE_DIM]>,
    pending_pred: Option<[f64; TARGETS]>,
    prev_cpi: f64,
    /// Absolute relative busy-CPI error of the most recent blind
    /// prediction, percent; infinite until one lands. Gates entry into
    /// the skip phase.
    last_err_pct: f64,
}

impl FastForward {
    /// Builds a controller, validating `params`. `line_bytes` is the
    /// machine's L1-I line size (feature footprints use it).
    pub fn new(params: LearnParams, line_bytes: u64) -> Result<FastForward, String> {
        params.validate()?;
        Ok(FastForward {
            params,
            extractor: FeatureExtractor::new(line_bytes),
            footprint: Footprint::new(line_bytes),
            model: Model::new(params.model),
            residuals: [ResidualAccum::default(); TARGETS],
            phase: Phase::Train,
            in_stretch: false,
            stretch_skipped: false,
            observed: 0,
            stretches: 0,
            skipped_stretches: 0,
            skipped_grains: 0,
            warmed_grains: 0,
            skipped_instrs: 0,
            warmed_instrs: 0,
            predictions: 0,
            fallbacks: 0,
            ever_disabled: false,
            pending_x: None,
            pending_pred: None,
            prev_cpi: 0.0,
            last_err_pct: f64::INFINITY,
        })
    }

    /// The validated parameters.
    pub fn params(&self) -> &LearnParams {
        &self.params
    }

    /// The current ladder phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether stretch interiors may currently be skipped.
    pub fn skip_interior(&self) -> bool {
        self.phase == Phase::Skip && self.model.fitted()
    }

    /// The stretch feature sink (teed with the engine over the stretch
    /// suffix; also fed per-instruction by the looper path).
    pub fn extractor_mut(&mut self) -> &mut FeatureExtractor {
        &mut self.extractor
    }

    /// Read access to the stretch feature sink.
    pub fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// The skipped-interior footprint sink (fed by the observed skip
    /// walk's memory-touch hooks).
    pub fn footprint_mut(&mut self) -> &mut Footprint {
        &mut self.footprint
    }

    /// Read access to the skipped-interior footprint (reinstall).
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }

    /// Whether a stretch is currently open.
    pub fn in_stretch(&self) -> bool {
        self.in_stretch
    }

    /// Opens a stretch: resets the extractor with the replay-list
    /// occupancy at entry and the previous measured grain's busy CPI.
    pub fn begin_stretch(&mut self, replay_occ: u64) {
        self.extractor.begin_stretch(replay_occ, self.prev_cpi);
        self.in_stretch = true;
        self.stretch_skipped = false;
        self.stretches += 1;
    }

    /// Notes an event boundary (ignored outside a stretch).
    pub fn note_event(&mut self) {
        if self.in_stretch {
            self.extractor.note_event();
        }
    }

    /// Accounts one completed warm grain of `instrs` instructions,
    /// `skipped` when the feature-only walk fast-forwarded it.
    pub fn note_grain(&mut self, instrs: u64, skipped: bool) {
        if skipped {
            self.skipped_grains += 1;
            self.skipped_instrs += instrs;
            self.stretch_skipped = true;
        } else {
            self.warmed_grains += 1;
            self.warmed_instrs += instrs;
        }
    }

    /// Closes the stretch: issues the blind prediction for the upcoming
    /// measured grain (once the model is fitted) and parks the features
    /// for training when the measurement arrives.
    pub fn end_stretch(&mut self) {
        if !self.in_stretch {
            return;
        }
        self.in_stretch = false;
        if self.stretch_skipped {
            self.skipped_stretches += 1;
        }
        let x = self.extractor.features();
        self.pending_pred = if self.model.fitted() {
            self.predictions += 1;
            Some(self.model.predict(&x))
        } else {
            None
        };
        self.pending_x = Some(x);
    }

    /// Feeds the measured grain that follows a stretch: records the
    /// prequential residuals, trains the model, and advances the
    /// train/skip/cooloff ladder. `actual` is the grain's per-instruction
    /// cycle metrics in [`crate::TARGETS`] order (busy first).
    pub fn observe_measured(&mut self, actual: [f64; TARGETS]) {
        self.prev_cpi = actual[0];
        let Some(x) = self.pending_x.take() else { return };
        let pred = self.pending_pred.take();
        if let Some(p) = pred {
            for t in 0..TARGETS {
                self.residuals[t].observe(p[t], actual[t]);
            }
            self.last_err_pct = if actual[0] > 0.0 && actual[0].is_finite() {
                100.0 * (p[0] - actual[0]).abs() / actual[0]
            } else {
                f64::INFINITY
            };
        }
        self.model.observe(&x, &actual);
        self.observed += 1;
        self.phase = match self.phase {
            Phase::Train => {
                // Entry is judged, not scheduled: `train_stretches` sets
                // the minimum, but the model must also have landed its
                // latest blind prediction inside the configured bound.
                // A (workload, config) pair the model cannot predict
                // then never starts skipping — the run degrades to plain
                // sampled cost and bias instead of skipping, breaching,
                // and bottoming out in the expensive rerun.
                if self.observed >= self.params.train_stretches as u64
                    && self.model.fitted()
                    && self.last_err_pct <= self.params.residual_bound_pct
                {
                    Phase::Skip
                } else {
                    Phase::Train
                }
            }
            Phase::Skip => {
                // Judged on the rolling signed bias, and only once the
                // window holds enough predictions for grain noise to
                // average out of it.
                let r = &self.residuals[0];
                let breach = r.window_len() >= JUDGE_MIN
                    && r.rolling_bias_pct().abs()
                        > bias_threshold_pct(self.params.residual_bound_pct, r.window_len());
                if breach {
                    self.fallbacks += 1;
                    if self.fallbacks >= self.params.max_fallbacks as u64 {
                        self.ever_disabled = true;
                        Phase::Disabled
                    } else {
                        Phase::Cooloff(self.params.cooloff_stretches)
                    }
                } else {
                    Phase::Skip
                }
            }
            Phase::Cooloff(k) => {
                if k > 1 {
                    Phase::Cooloff(k - 1)
                } else if self.rolling_bias_pct().abs()
                    <= bias_threshold_pct(
                        self.params.residual_bound_pct,
                        self.residuals[0].window_len(),
                    )
                {
                    Phase::Skip
                } else {
                    // The cooloff drained without the rolling window
                    // recovering: that failed recovery is itself a
                    // fallback step, so a persistently unpredictable
                    // workload converges to Disabled instead of cycling
                    // through cooloffs forever.
                    self.fallbacks += 1;
                    if self.fallbacks >= self.params.max_fallbacks as u64 {
                        self.ever_disabled = true;
                        Phase::Disabled
                    } else {
                        Phase::Cooloff(self.params.cooloff_stretches)
                    }
                }
            }
            Phase::Disabled => Phase::Disabled,
        };
    }

    /// Rolling mean absolute relative busy-CPI residual, percent.
    pub fn rolling_err_pct(&self) -> f64 {
        self.residuals[0].rolling_mean_abs_rel_pct()
    }

    /// Rolling *signed* mean relative busy-CPI residual, percent — the
    /// quantity the fallback ladder gates on.
    pub fn rolling_bias_pct(&self) -> f64 {
        self.residuals[0].rolling_bias_pct()
    }

    /// Model confidence in `[0, 1]` (see [`LearnedStats::confidence`]).
    pub fn confidence(&self) -> f64 {
        if !self.model.fitted() || self.predictions == 0 {
            return 0.0;
        }
        (1.0 - self.rolling_bias_pct().abs() / self.params.residual_bound_pct).clamp(0.0, 1.0)
    }

    /// Per-target residual accumulators (busy, icache, dcache, branch) —
    /// the estimator widens its confidence intervals with these.
    pub fn residuals(&self) -> &[ResidualAccum; TARGETS] {
        &self.residuals
    }

    /// Snapshot of the run-level statistics.
    pub fn stats(&self) -> LearnedStats {
        LearnedStats {
            model: self.params.model,
            stretches: self.stretches,
            skipped_stretches: self.skipped_stretches,
            skipped_grains: self.skipped_grains,
            warmed_grains: self.warmed_grains,
            skipped_instrs: self.skipped_instrs,
            warmed_instrs: self.warmed_instrs,
            predictions: self.predictions,
            fallbacks: self.fallbacks,
            disabled: self.ever_disabled,
            rerun_full: false,
            mean_err_pct: self.residuals[0].mean_abs_rel_pct(),
            rolling_err_pct: self.rolling_err_pct(),
            rmse_pct: self.residuals[0].rel_rmse_pct(),
            confidence: self.confidence(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_trace::Instr;
    use esp_types::Addr;

    /// Drives one synthetic stretch through the controller: a few
    /// instructions into the extractor, then the stretch close and the
    /// measured-grain observation.
    fn drive_stretch(ff: &mut FastForward, seed: u64, actual_cpi: f64) {
        ff.begin_stretch(seed % 7);
        for i in 0..50 {
            let pc = 0x1000 + ((seed * 131 + i * 4) % 0x4000);
            ff.extractor_mut().note_step(&Instr::alu(Addr::new(pc)));
        }
        ff.note_grain(50, false);
        ff.end_stretch();
        ff.observe_measured([actual_cpi, actual_cpi * 0.2, actual_cpi * 0.3, actual_cpi * 0.1]);
    }

    #[test]
    fn training_prefix_then_skipping() {
        let params = LearnParams { train_stretches: 3, ..LearnParams::default() };
        let mut ff = FastForward::new(params, 64).unwrap();
        assert_eq!(ff.phase(), Phase::Train);
        assert!(!ff.skip_interior());
        // A stable workload: identical stretches, identical CPI.
        for s in 0..3 {
            assert!(!ff.skip_interior(), "must not skip while training");
            drive_stretch(&mut ff, 1, 1.5);
            let _ = s;
        }
        assert_eq!(ff.phase(), Phase::Skip);
        assert!(ff.skip_interior());
        drive_stretch(&mut ff, 1, 1.5);
        assert_eq!(ff.phase(), Phase::Skip, "stable CPI keeps skipping on");
        assert!(ff.confidence() > 0.9, "confidence {}", ff.confidence());
    }

    #[test]
    fn high_error_workload_triggers_fallback() {
        let params = LearnParams { residual_bound_pct: 2.0, ..LearnParams::default() };
        let mut ff = FastForward::new(params, 64).unwrap();
        // Train on a stable phase…
        for _ in 0..3 {
            drive_stretch(&mut ff, 1, 1.0);
        }
        assert_eq!(ff.phase(), Phase::Skip);
        // …then the workload changes phase violently: the blind
        // prediction misses by far more than the 2% bound.
        drive_stretch(&mut ff, 1, 4.0);
        let stats = ff.stats();
        assert_eq!(stats.fallbacks, 1, "breach must be counted");
        assert!(matches!(ff.phase(), Phase::Cooloff(_)), "breach must cool off");
        assert!(!ff.skip_interior(), "no skipping during cooloff");
        assert!(stats.fallback_rate() > 0.0);
    }

    #[test]
    fn repeated_breaches_disable_skipping() {
        let params = LearnParams {
            residual_bound_pct: 1.0,
            max_fallbacks: 2,
            cooloff_stretches: 1,
            ..LearnParams::default()
        };
        let mut ff = FastForward::new(params, 64).unwrap();
        for _ in 0..3 {
            drive_stretch(&mut ff, 1, 1.0);
        }
        // Alternate violently so every skip-phase prediction breaches.
        let mut cpi = 10.0;
        for _ in 0..40 {
            drive_stretch(&mut ff, 1, cpi);
            cpi = if cpi > 5.0 { 1.0 } else { 10.0 };
            if ff.phase() == Phase::Disabled {
                break;
            }
        }
        assert_eq!(ff.phase(), Phase::Disabled);
        let stats = ff.stats();
        assert!(stats.disabled);
        assert_eq!(stats.fallbacks, 2);
        // Disabled is terminal.
        drive_stretch(&mut ff, 1, 1.0);
        assert_eq!(ff.phase(), Phase::Disabled);
    }

    #[test]
    fn grain_accounting_feeds_stats() {
        let mut ff = FastForward::new(LearnParams::default(), 64).unwrap();
        ff.begin_stretch(0);
        ff.note_grain(2000, true);
        ff.note_grain(2000, true);
        ff.note_grain(500, false);
        ff.end_stretch();
        let s = ff.stats();
        assert_eq!(s.skipped_grains, 2);
        assert_eq!(s.warmed_grains, 1);
        assert_eq!(s.skipped_instrs, 4000);
        assert_eq!(s.warmed_instrs, 500);
        assert_eq!(s.skipped_stretches, 1);
        assert!((s.skip_fraction() - 4000.0 / 4500.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_params_are_rejected_with_messages() {
        let bad = LearnParams { warm_suffix_grains: 0, ..LearnParams::default() };
        assert!(FastForward::new(bad, 64).is_err());
        let bad = LearnParams { residual_bound_pct: 0.0, ..LearnParams::default() };
        assert!(bad.validate().is_err());
        let bad = LearnParams { train_stretches: 0, ..LearnParams::default() };
        assert!(bad.validate().is_err());
    }
}
