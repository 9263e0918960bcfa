//! The 9-family × 29-config simulation matrix: cold setup, one checked
//! simulation call, the closed-loop timed phase, and the CPI accuracy
//! of the estimating modes against exact mode.

use crate::calib::HostSpeed;
use crate::reference::{fnv1a64, Reference};
use crate::spans::Spans;
use esp_bench::ConfigKey;
use esp_core::{LearnParams, LearnedStats, RunReport, SampleParams, SamplingEstimate, Simulator};
use esp_trace::{PackedWorkload, Workload};
use esp_workload::{arena, BenchmarkProfile};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Sampling grain (instructions) of the estimating workloads.
const GRAIN_INSTRS: u64 = 2_000;
/// Sampling period (grains) of the estimating workloads.
const PERIOD: u64 = 20;

/// The configurations the CPI accuracy is stated over, per family.
pub const ACCURACY_KEYS: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl];

/// How every simulation of a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Exact,
    Sampled,
    Learned,
}

impl Mode {
    /// The mode behind a workload name.
    pub fn of_workload(name: &str) -> Option<Mode> {
        match name {
            "exact-matrix" => Some(Mode::Exact),
            "sampled-matrix" => Some(Mode::Sampled),
            "learned-matrix" => Some(Mode::Learned),
            _ => None,
        }
    }

    /// The span name of one simulation in this mode: the layer that owns
    /// the entry point, then the entry point.
    pub fn entry(self) -> &'static str {
        match self {
            Mode::Exact => "core.run",
            Mode::Sampled => "core.run_sampled",
            Mode::Learned => "learn.run_sampled_learned",
        }
    }
}

/// The sampling parameters of the estimating workloads.
fn sample_params() -> SampleParams {
    SampleParams::new(GRAIN_INSTRS, PERIOD)
}

/// One workload family, packed and ready to replay.
pub struct Family {
    pub name: &'static str,
    pub packed: Arc<PackedWorkload>,
}

impl Family {
    /// Retired instructions every run of `key` must report: the packed
    /// trace plus the looper prologue before each event.
    fn expected_retired(&self, key: ConfigKey) -> u64 {
        let events = self.packed.events().len() as u64;
        self.packed.approx_total_instructions() + u64::from(key.config().looper_instrs) * events
    }
}

/// The generator seed of the `index`-th family for workload seed `seed`.
/// Families get distinct seeds because the seven paper profiles share
/// one event schedule per seed: with a common seed their event counts
/// (11 to 50 events at 600k instructions) and so their costs move
/// together, and the matrix's cost swings with the seed.
fn family_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_mul(16).wrapping_add(index as u64)
}

/// Cold set-up: drops the process-wide arena memo, then generates and
/// materialises every family on one thread. Each call is a span
/// (`workload.generate` / `workload.materialise`); returns the families
/// and the summed (generate, materialise) seconds.
pub fn setup(scale: u64, seed: u64, spans: &mut Spans) -> (Vec<Family>, f64, f64) {
    arena::reset();
    let (mut generate, mut materialise) = (0.0, 0.0);
    let mut families = Vec::new();
    for (i, profile) in BenchmarkProfile::all_families().into_iter().enumerate() {
        let profile = profile.scaled(scale);
        let seed = family_seed(seed, i);
        spans.enter("workload.generate");
        let generated = arena::generated(&profile, seed);
        generate += spans.exit();
        spans.enter("workload.materialise");
        let packed = arena::packed(&profile, &generated, seed, 1);
        materialise += spans.exit();
        families.push(Family {
            name: profile.name(),
            packed,
        });
    }
    (families, generate, materialise)
}

/// What one simulation produced.
pub struct Outcome {
    pub report: RunReport,
    pub estimate: Option<SamplingEstimate>,
    pub learned: Option<LearnedStats>,
}

impl Outcome {
    /// Instructions the run represents: retired plus ESP pre-executed
    /// plus runahead re-executed (whole-run estimates in the estimating
    /// modes).
    pub fn instrs_represented(&self) -> u64 {
        let r = &self.report;
        r.engine.retired + r.esp.spec_instrs() + r.engine.runahead_instrs
    }

    /// Busy cycles per retired instruction of the report.
    pub fn cpi(&self) -> f64 {
        self.report.busy_cycles() as f64 / self.report.engine.retired as f64
    }
}

/// Runs one simulation of `key` in `mode` over `w`.
fn simulate(mode: Mode, key: ConfigKey, w: &PackedWorkload) -> Outcome {
    let sim = Simulator::new(key.config());
    match mode {
        Mode::Exact => Outcome {
            report: sim.run(w),
            estimate: None,
            learned: None,
        },
        Mode::Sampled => {
            let run = sim.run_sampled(w, sample_params());
            Outcome {
                report: run.report,
                estimate: Some(run.estimate),
                learned: None,
            }
        }
        Mode::Learned => {
            let run = sim.run_sampled_learned(w, sample_params(), LearnParams::default());
            Outcome {
                report: run.report,
                estimate: Some(run.estimate),
                learned: run.learned,
            }
        }
    }
}

/// Operations attempted and failed, over a whole benchmark run.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; on failure reports it on stderr.
    pub fn count<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: FAILED {what}: {e}");
                None
            }
        }
    }
}

/// The exact-mode digests that apply to a run at `(scale, seed)`.
pub fn digests_for(reference: &Reference, scale: u64, seed: u64) -> Option<&Reference> {
    (reference.scale == scale && reference.seed == seed).then_some(reference)
}

/// Checks one outcome. Every run must retire exactly the packed
/// workload's instructions and run every event. Exact runs must also
/// tile `total_cycles` with their CPI stack and, where a reference
/// applies, match its digest; estimating runs must carry a finite,
/// positive CPI estimate (and learned runs their model statistics).
pub fn check(
    mode: Mode,
    key: ConfigKey,
    family: &Family,
    out: &Outcome,
    reference: Option<&Reference>,
) -> Result<(), String> {
    let r = &out.report;
    let events = family.packed.events().len() as u64;
    if r.events_run != events {
        return Err(format!("events_run {} != {events}", r.events_run));
    }
    let retired = family.expected_retired(key);
    if r.engine.retired != retired {
        return Err(format!("retired {} != {retired}", r.engine.retired));
    }
    match mode {
        Mode::Exact => {
            if r.cpi_stack.total() != r.total_cycles {
                return Err(format!(
                    "CPI stack sums to {} != total_cycles {}",
                    r.cpi_stack.total(),
                    r.total_cycles
                ));
            }
            if let Some(reference) = reference {
                let cell = (family.name.to_string(), format!("{key:?}"));
                let want = reference
                    .digests
                    .get(&cell)
                    .ok_or("cell missing from reference")?;
                let got = fnv1a64(format!("{r:?}").as_bytes());
                if got != *want {
                    return Err(format!("report digest {got:016x} != reference {want:016x}"));
                }
            }
        }
        Mode::Sampled | Mode::Learned => {
            let est = out.estimate.as_ref().ok_or("no sampling estimate")?;
            let (cpi, ci) = (est.cpi.ratio, est.cpi.ci95);
            if !(cpi.is_finite() && cpi > 0.0 && ci.is_finite() && ci >= 0.0) {
                return Err(format!(
                    "estimate CPI {cpi} ± {ci} is not finite and positive"
                ));
            }
            if !out.cpi().is_finite() {
                return Err("report CPI is not finite".into());
            }
            if mode == Mode::Learned && out.learned.is_none() {
                return Err("learned run carries no model statistics".into());
            }
        }
    }
    Ok(())
}

/// Times `f` inside the span `span`, catching a panic as an error.
/// Returns the result and the call's seconds.
pub fn guarded<T>(
    span: &'static str,
    spans: &mut Spans,
    f: impl FnOnce() -> T,
) -> (Result<T, String>, f64) {
    spans.enter(span);
    let result = catch_unwind(AssertUnwindSafe(f));
    let seconds = spans.exit();
    (result.map_err(|p| panic_text(p.as_ref())), seconds)
}

/// One timed, checked simulation inside the span `span`; a caught panic
/// or a failed check counts as a failure. Returns the outcome (if it
/// passed) and the call's seconds.
pub fn attempt(
    span: &'static str,
    (mode, key): (Mode, ConfigKey),
    family: &Family,
    reference: Option<&Reference>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> (Option<Outcome>, f64) {
    let (result, seconds) = guarded(span, spans, || simulate(mode, key, &family.packed));
    let result = result.and_then(|out| check(mode, key, family, &out, reference).map(|()| out));
    let what = format!("{}/{key:?} ({mode:?})", family.name);
    (tally.count(&what, result), seconds)
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".into());
    format!("panicked: {msg}")
}

/// The closed-loop timed phase: whole matrix passes issued back to back
/// on one thread until another pass would overrun `seconds` (at least
/// one pass). Call times are nominal-host seconds (see `calib`).
pub struct Timed {
    /// Per pass: (summed call seconds, instructions represented, sims).
    pub passes: Vec<(f64, u64, u64)>,
    /// Per cell (family-major), the seconds of each of its calls.
    pub cell_seconds: Vec<Vec<f64>>,
}

/// Runs the timed phase (see [`Timed`]).
pub fn timed_matrix(
    mode: Mode,
    families: &[Family],
    seconds: f64,
    reference: Option<&Reference>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Timed {
    let keys = ConfigKey::all();
    let cells = families.len() * keys.len();
    let mut timed = Timed {
        passes: Vec::new(),
        cell_seconds: vec![Vec::new(); cells],
    };
    let start = Instant::now();
    loop {
        let (mut pass_s, mut pass_instrs, mut sims) = (0.0, 0u64, 0u64);
        for (f, family) in families.iter().enumerate() {
            // One family's row is scaled by the host speed measured by
            // the calibration chunks interleaved with its calls.
            let mut speed = HostSpeed::default();
            let mut row = Vec::with_capacity(keys.len());
            for &key in keys {
                let (out, dt) = attempt(mode.entry(), (mode, key), family, reference, spans, tally);
                speed.sample(1);
                row.push(dt);
                sims += 1;
                pass_instrs += out.map_or(0, |o| o.instrs_represented());
            }
            for (k, dt) in row.into_iter().enumerate() {
                let dt = dt * speed.relative();
                pass_s += dt;
                timed.cell_seconds[f * keys.len() + k].push(dt);
            }
        }
        timed.passes.push((pass_s, pass_instrs, sims));
        let elapsed = start.elapsed().as_secs_f64();
        let n = timed.passes.len() as f64;
        if elapsed * (n + 1.0) / n > seconds {
            return timed;
        }
    }
}

/// CPI accuracy of an estimating mode against exact mode over the
/// [`ACCURACY_KEYS`] cells of every family of the [`ACCURACY_SEEDS`]
/// inputs.
pub struct Accuracy {
    /// Largest |CPI error| (percent).
    pub max_pct: f64,
    /// Mean |CPI error| (percent).
    pub mean_pct: f64,
    /// Share of cells whose exact CPI lies inside the estimate's 95%
    /// confidence interval.
    pub coverage: f64,
}

/// The workload seeds of the accuracy panel. It is fixed, not taken from
/// `--seed`: one seed's error swings widely from seed to seed (at 600k
/// instructions, mean |error| 4.4–9.2% over eight seeds with every
/// family on the same seed), which would drown any change a commit makes
/// to the estimators; a fixed panel makes the accuracy metrics exact,
/// comparable numbers. Seed 42 is the reference seed, so its exact runs
/// are also checked against the kept digests.
const ACCURACY_SEEDS: [u64; 3] = [42, 43, 44];

/// Computes [`Accuracy`] on freshly set-up panel inputs, untimed: each
/// cell once in exact mode and once in `mode` (plain sampled mode for
/// the exact workload, whose metrics then describe sampling).
pub fn accuracy(
    mode: Mode,
    scale: u64,
    reference: &Reference,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Accuracy {
    let estimating = if mode == Mode::Exact {
        Mode::Sampled
    } else {
        mode
    };
    let (mut errs, mut covered) = (Vec::new(), 0usize);
    for seed in ACCURACY_SEEDS {
        let digests = digests_for(reference, scale, seed);
        let (families, ..) = setup(scale, seed, spans);
        for family in &families {
            for key in ACCURACY_KEYS {
                let exact = attempt(
                    "core.run",
                    (Mode::Exact, key),
                    family,
                    digests,
                    spans,
                    tally,
                )
                .0;
                let est = attempt(
                    estimating.entry(),
                    (estimating, key),
                    family,
                    None,
                    spans,
                    tally,
                )
                .0;
                let (Some(exact), Some(est)) = (exact, est) else {
                    continue;
                };
                let exact_cpi = exact.cpi();
                errs.push(100.0 * (est.cpi() - exact_cpi).abs() / exact_cpi);
                let ci = &est
                    .estimate
                    .as_ref()
                    .expect("checked estimating outcome")
                    .cpi;
                if (ci.ratio - exact_cpi).abs() <= ci.ci95 {
                    covered += 1;
                }
            }
        }
    }
    let n = errs.len().max(1) as f64;
    Accuracy {
        max_pct: errs.iter().copied().fold(0.0, f64::max),
        mean_pct: errs.iter().sum::<f64>() / n,
        coverage: covered as f64 / n,
    }
}
