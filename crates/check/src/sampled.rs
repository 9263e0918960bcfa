//! Sampled-vs-exact cross-validation oracle.
//!
//! The sampling engine (`esp_core::Simulator::run_sampled`) trades
//! exactness for speed; this module is the harness that keeps that trade
//! honest. [`check_sampled`] runs one simulation point twice — once
//! exact, once sampled — and verifies three things:
//!
//! 1. **Estimate accuracy.** The sampled busy-CPI must land within a
//!    caller-chosen relative tolerance of the exact run's.
//! 2. **Exact bookkeeping.** Quantities the sampled run tracks exactly
//!    rather than estimating — retired instructions and events run —
//!    must *equal* the exact run's, not merely approximate them.
//! 3. **Plausible uncertainty.** The reported 95 % confidence interval
//!    must be finite and the estimator must not have silently fallen
//!    back to exact mode (which would make the comparison vacuous).
//!
//! [`check_sampled_matrix`] sweeps the check over a profile × config
//! matrix and reports every violation, mirroring how the differential
//! oracle is applied across the benchmark suite.
//!
//! [`check_learned`] extends the same contract to the *learned
//! fast-forward* mode (`run_sampled_learned`): everything
//! [`check_sampled`] verifies, plus that skipping actually engaged — a
//! learned run that never skipped a grain (model never trained, or the
//! fallback ladder disabled it immediately) would pass the accuracy
//! checks vacuously while measuring nothing about the learned path.

use esp_core::{LearnParams, SampleParams, SimConfig, Simulator};
use esp_trace::PackedWorkload;

/// What [`check_sampled`] measured, for reporting.
#[derive(Clone, Debug)]
pub struct SampledCheck {
    /// Exact busy-CPI (busy cycles / retired).
    pub exact_cpi: f64,
    /// Sampled busy-CPI estimate.
    pub sampled_cpi: f64,
    /// Signed relative error of the sampled CPI, in percent.
    pub cpi_error_pct: f64,
    /// The estimator's own relative 95 % confidence half-width, percent.
    pub ci95_pct: f64,
    /// Measured grains the estimate is built from.
    pub grains_measured: u64,
}

/// Runs `workload` under `config` exactly and sampled, and checks the
/// sampled estimate against the exact ground truth.
///
/// `tolerance_pct` bounds the absolute relative CPI error. Choose it
/// from the operating point's measured error envelope (see
/// `docs/PERFORMANCE.md`), not from hope: the check is deterministic for
/// a fixed workload/seed/params, so a passing tolerance stays passing.
///
/// # Errors
///
/// Returns a human-readable description of the first violated check.
pub fn check_sampled(
    config: &SimConfig,
    workload: &PackedWorkload,
    params: SampleParams,
    tolerance_pct: f64,
) -> Result<SampledCheck, String> {
    let sim = Simulator::new(config.clone());
    let exact = sim.run(workload);
    let sampled = sim.run_sampled(workload, params);

    if sampled.estimate.exact_fallback {
        return Err(format!(
            "sampled run fell back to exact mode (workload too small for grain {} × period {}); \
             the comparison is vacuous",
            params.grain_instrs, params.period
        ));
    }
    if sampled.report.engine.retired != exact.engine.retired {
        return Err(format!(
            "sampled retired count {} != exact {} — warming lost instructions",
            sampled.report.engine.retired, exact.engine.retired
        ));
    }
    if sampled.report.events_run != exact.events_run {
        return Err(format!(
            "sampled events_run {} != exact {}",
            sampled.report.events_run, exact.events_run
        ));
    }

    let exact_cpi = exact.busy_cycles() as f64 / exact.engine.retired as f64;
    let sampled_cpi = sampled.report.busy_cycles() as f64 / sampled.report.engine.retired as f64;
    let cpi_error_pct = 100.0 * (sampled_cpi - exact_cpi) / exact_cpi;
    let ci95_pct = sampled.estimate.cpi.rel_ci95_pct();

    if !ci95_pct.is_finite() {
        return Err(format!(
            "confidence interval is not finite ({ci95_pct}) with {} measured grains",
            sampled.estimate.grains_measured
        ));
    }
    if cpi_error_pct.abs() > tolerance_pct {
        return Err(format!(
            "sampled CPI {sampled_cpi:.4} vs exact {exact_cpi:.4}: error {cpi_error_pct:+.2}% \
             exceeds tolerance {tolerance_pct}% (ci95 {ci95_pct:.2}%, n={})",
            sampled.estimate.grains_measured
        ));
    }

    Ok(SampledCheck {
        exact_cpi,
        sampled_cpi,
        cpi_error_pct,
        ci95_pct,
        grains_measured: sampled.estimate.grains_measured,
    })
}

/// What [`check_learned`] measured, for reporting.
#[derive(Clone, Debug)]
pub struct LearnedCheck {
    /// The base sampled checks (accuracy, bookkeeping, uncertainty),
    /// computed against the learned run.
    pub sampled: SampledCheck,
    /// Fraction of warm-grain instructions fast-forwarded without
    /// engine warming.
    pub skip_fraction: f64,
    /// Residual-gate fallbacks per completed stretch.
    pub fallback_rate: f64,
    /// Whether the fallback ladder disabled skipping before the run
    /// ended.
    pub disabled: bool,
}

/// Runs `workload` exactly and with learned fast-forwarding, and checks
/// the learned estimate against the exact ground truth.
///
/// Beyond the [`check_sampled`] contract (applied to the learned run),
/// this requires the run to be *non-vacuous*: the model must have
/// issued predictions and actually skipped grains. A run the fallback
/// ladder escalated to a full rerun (`rerun_full`) fails the check —
/// the ladder behaved correctly, but the operating point is not one
/// where learned mode works, which is what the caller asked to verify.
///
/// # Errors
///
/// Returns a human-readable description of the first violated check.
pub fn check_learned(
    config: &SimConfig,
    workload: &PackedWorkload,
    params: SampleParams,
    learn: LearnParams,
    tolerance_pct: f64,
) -> Result<LearnedCheck, String> {
    let sim = Simulator::new(config.clone());
    let exact = sim.run(workload);
    let run = sim.run_sampled_learned(workload, params, learn);

    if run.estimate.exact_fallback {
        return Err(format!(
            "learned run fell back to exact mode (workload too small for grain {} × period {});              the comparison is vacuous",
            params.grain_instrs, params.period
        ));
    }
    let stats = run
        .learned
        .as_ref()
        .ok_or("run_sampled_learned reported no learned stats")?;
    if stats.rerun_full {
        return Err(format!(
            "fallback ladder escalated to a full plain-warming rerun              ({} fallbacks, rolling error {:.1}%) — learned mode does not hold at this point",
            stats.fallbacks, stats.rolling_err_pct
        ));
    }
    if stats.predictions == 0 || stats.skipped_grains == 0 {
        return Err(format!(
            "learned run never skipped (predictions {}, skipped grains {}) —              the accuracy comparison is vacuous",
            stats.predictions, stats.skipped_grains
        ));
    }
    if run.report.engine.retired != exact.engine.retired {
        return Err(format!(
            "learned retired count {} != exact {} — fast-forward lost instructions",
            run.report.engine.retired, exact.engine.retired
        ));
    }
    if run.report.events_run != exact.events_run {
        return Err(format!(
            "learned events_run {} != exact {}",
            run.report.events_run, exact.events_run
        ));
    }

    let exact_cpi = exact.busy_cycles() as f64 / exact.engine.retired as f64;
    let learned_cpi = run.report.busy_cycles() as f64 / run.report.engine.retired as f64;
    let cpi_error_pct = 100.0 * (learned_cpi - exact_cpi) / exact_cpi;
    let ci95_pct = run.estimate.cpi.rel_ci95_pct();

    if !ci95_pct.is_finite() {
        return Err(format!(
            "confidence interval is not finite ({ci95_pct}) with {} measured grains",
            run.estimate.grains_measured
        ));
    }
    if cpi_error_pct.abs() > tolerance_pct {
        return Err(format!(
            "learned CPI {learned_cpi:.4} vs exact {exact_cpi:.4}: error {cpi_error_pct:+.2}%              exceeds tolerance {tolerance_pct}% (ci95 {ci95_pct:.2}%, n={}, skip {:.2}, fb {})",
            run.estimate.grains_measured,
            stats.skip_fraction(),
            stats.fallbacks
        ));
    }

    Ok(LearnedCheck {
        sampled: SampledCheck {
            exact_cpi,
            sampled_cpi: learned_cpi,
            cpi_error_pct,
            ci95_pct,
            grains_measured: run.estimate.grains_measured,
        },
        skip_fraction: stats.skip_fraction(),
        fallback_rate: stats.fallback_rate(),
        disabled: stats.disabled,
    })
}

/// Applies [`check_sampled`] to every (workload, label) × config cell
/// and collects all violations instead of stopping at the first.
///
/// Returns per-cell results on success.
///
/// # Errors
///
/// Returns the concatenated descriptions of every failing cell.
pub fn check_sampled_matrix(
    cells: &[(&PackedWorkload, &str, SimConfig)],
    params: SampleParams,
    tolerance_pct: f64,
) -> Result<Vec<(String, SampledCheck)>, String> {
    let mut ok = Vec::new();
    let mut failures = Vec::new();
    for (workload, label, config) in cells {
        match check_sampled(config, workload, params, tolerance_pct) {
            Ok(c) => ok.push(((*label).to_string(), c)),
            Err(e) => failures.push(format!("{label}: {e}")),
        }
    }
    if failures.is_empty() {
        Ok(ok)
    } else {
        Err(failures.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esp_workload::BenchmarkProfile;

    #[test]
    fn sampled_check_passes_at_the_default_operating_point() {
        let w = BenchmarkProfile::amazon().scaled(600_000).build(42).materialise();
        let c = check_sampled(&SimConfig::esp_nl(), &w, SampleParams::default(), 8.0)
            .expect("sampled check must pass");
        assert!(c.grains_measured >= 10);
        assert!(c.ci95_pct > 0.0);
    }

    #[test]
    fn learned_check_passes_at_the_default_operating_point() {
        let w = BenchmarkProfile::amazon().scaled(600_000).build(42).materialise();
        let c = check_learned(
            &SimConfig::esp_nl(),
            &w,
            SampleParams::default(),
            esp_core::LearnParams::default(),
            8.0,
        )
        .expect("learned check must pass");
        assert!(c.skip_fraction > 0.3, "skip fraction {} is vacuous", c.skip_fraction);
        assert!(!c.disabled);
    }

    #[test]
    fn learned_check_rejects_a_never_skipping_run() {
        // An absurd training requirement means the model never finishes
        // training inside the run, so no grain is ever skipped.
        let w = BenchmarkProfile::amazon().scaled(400_000).build(42).materialise();
        let err = check_learned(
            &SimConfig::base(),
            &w,
            SampleParams::default(),
            esp_core::LearnParams { train_stretches: 10_000, ..Default::default() },
            50.0,
        )
        .expect_err("a run that never skips must be rejected");
        assert!(err.contains("vacuous"), "unexpected error: {err}");
    }

    #[test]
    fn tiny_workload_is_rejected_as_vacuous() {
        let w = BenchmarkProfile::amazon().scaled(2_000).build(42).materialise();
        let err = check_sampled(&SimConfig::base(), &w, SampleParams::default(), 50.0)
            .expect_err("fallback must be reported");
        assert!(err.contains("vacuous"));
    }
}
