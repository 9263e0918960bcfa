//! Seeded configuration/workload fuzzing with greedy shrinking.
//!
//! A [`FuzzCase`] is one point in the simulation space: a benchmark
//! profile, a workload seed and scale, an execution mode, and the
//! timing/prefetcher knobs. [`fuzz_with`] samples cases from a seeded
//! [`SplitMix64`] stream (fully reproducible — no wall clock, no global
//! state), runs a checker over each, and on the first failure greedily
//! [`shrink`]s the case toward the simplest configuration that still
//! fails, rendering it as a ready-to-paste regression test.

use crate::metamorphic;
use crate::oracle;
use esp_core::{EspFeatures, SimConfig, SimMode};
use esp_types::{Rng, SplitMix64};
use esp_uarch::EngineConfig;
use esp_trace::PackedWorkload;
use esp_workload::BenchmarkProfile;

/// Execution mode of a fuzz case (mirrors [`SimMode`] minus its payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzMode {
    /// Plain baseline.
    Baseline,
    /// Runahead on data LLC-miss stalls.
    Runahead,
    /// Full ESP.
    Esp,
}

/// One sampled point of the simulation space. All fields are public so
/// a shrunk failure can be pasted verbatim into a regression test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// Index into [`BenchmarkProfile::all`] (taken modulo its length).
    pub profile: usize,
    /// Target dynamic instruction count for the generated workload.
    pub scale: u64,
    /// Workload generator seed.
    pub wl_seed: u64,
    /// Execution mode.
    pub mode: FuzzMode,
    /// Next-line prefetchers on.
    pub nl: bool,
    /// Stride prefetcher on (implies next-line).
    pub stride: bool,
    /// [`esp_uarch::TimingParams::issue_extra_millis`].
    pub issue_extra_millis: u64,
    /// [`esp_uarch::TimingParams::data_exposed_pct`].
    pub data_exposed_pct: u64,
    /// ESP jump-ahead depth (used only in [`FuzzMode::Esp`]).
    pub depth: usize,
}

impl FuzzCase {
    /// Samples one case from `rng`. Scales stay small (2k–24k
    /// instructions) so a full default check remains sub-second.
    pub fn sample(rng: &mut impl Rng) -> FuzzCase {
        FuzzCase {
            profile: rng.below(BenchmarkProfile::all().len() as u64) as usize,
            scale: 2_000 + rng.below(12) * 2_000,
            wl_seed: rng.below(1 << 16),
            mode: match rng.below(3) {
                0 => FuzzMode::Baseline,
                1 => FuzzMode::Runahead,
                _ => FuzzMode::Esp,
            },
            nl: rng.chance(0.5),
            stride: rng.chance(0.25),
            issue_extra_millis: rng.below(1_500),
            data_exposed_pct: rng.below(101),
            depth: 1 + rng.below(8) as usize,
        }
    }

    /// The benchmark profile this case draws from.
    pub fn profile(&self) -> BenchmarkProfile {
        let all = BenchmarkProfile::all();
        all[self.profile % all.len()].clone()
    }

    /// Builds the deterministic workload for this case, materialised:
    /// the packed form every simulation runs.
    pub fn workload(&self) -> PackedWorkload {
        self.profile().scaled(self.scale).build(self.wl_seed).materialise()
    }

    /// Builds the simulator configuration for this case.
    pub fn config(&self) -> SimConfig {
        let mut engine = if self.stride {
            EngineConfig::next_line_stride()
        } else if self.nl {
            EngineConfig::next_line()
        } else {
            EngineConfig::baseline()
        };
        engine.timing.issue_extra_millis = self.issue_extra_millis;
        engine.timing.data_exposed_pct = self.data_exposed_pct;
        let mode = match self.mode {
            FuzzMode::Baseline => SimMode::Baseline,
            FuzzMode::Runahead => SimMode::Runahead { data_only: false },
            FuzzMode::Esp => {
                let mut f = EspFeatures::full();
                f.depth = self.depth;
                SimMode::Esp(f)
            }
        };
        let mut cfg = SimConfig::base();
        cfg.engine = engine;
        cfg.mode = mode;
        cfg
    }

    /// The default checker: the full oracle (recount, serial bound,
    /// component replay) on this case's own configuration, plus every
    /// *provable* metamorphic invariant on this case's workload.
    ///
    /// # Errors
    ///
    /// Propagates the first failed check's description.
    pub fn check(&self) -> Result<(), String> {
        let cfg = self.config();
        cfg.validate().map_err(|e| format!("invalid config: {e}"))?;
        // One materialisation serves every check of the case.
        let w = self.workload();
        oracle::check_run(&cfg, &w).map_err(|e| format!("[oracle] {e}"))?;
        metamorphic::perfect_ordering(&w, false).map_err(|e| format!("[perfect-ordering] {e}"))?;
        metamorphic::cache_doubling(&w).map_err(|e| format!("[cache-doubling] {e}"))?;
        metamorphic::no_peek_esp_equals_baseline(&w).map_err(|e| format!("[no-peek] {e}"))?;
        metamorphic::runahead_arch_invariance(&w).map_err(|e| format!("[runahead] {e}"))?;
        Ok(())
    }
}

/// A failure found by [`fuzz_with`], both as sampled and as shrunk.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Zero-based index of the failing iteration.
    pub iteration: usize,
    /// The case exactly as sampled.
    pub case: FuzzCase,
    /// The checker's message on the sampled case.
    pub message: String,
    /// The minimal case that still fails.
    pub shrunk: FuzzCase,
    /// The checker's message on the shrunk case.
    pub shrunk_message: String,
}

/// Runs `n` sampled cases through `checker`; returns the first failure
/// (shrunk) or `None` if all pass. Fully deterministic in `seed`.
pub fn fuzz_with<F>(seed: u64, n: usize, checker: F) -> Option<FuzzFailure>
where
    F: Fn(&FuzzCase) -> Result<(), String>,
{
    let mut rng = SplitMix64::new(seed);
    for i in 0..n {
        let case = FuzzCase::sample(&mut rng);
        if let Err(message) = checker(&case) {
            let (shrunk, shrunk_message) = shrink(case, &checker, message.clone());
            return Some(FuzzFailure { iteration: i, case, message, shrunk, shrunk_message });
        }
    }
    None
}

/// Greedily shrinks a failing case: repeatedly tries a fixed set of
/// simplifying mutations (halve the scale, drop to baseline mode, turn
/// prefetchers off, reset timing knobs, zero the seed, first profile)
/// and keeps any mutation under which `checker` still fails, until no
/// mutation preserves the failure. Returns the minimal case and its
/// failure message.
pub fn shrink<F>(mut case: FuzzCase, checker: &F, mut message: String) -> (FuzzCase, String)
where
    F: Fn(&FuzzCase) -> Result<(), String>,
{
    loop {
        let mut candidates: Vec<FuzzCase> = Vec::new();
        if case.scale / 2 >= 2_000 {
            candidates.push(FuzzCase { scale: case.scale / 2, ..case });
        }
        if case.mode != FuzzMode::Baseline {
            candidates.push(FuzzCase { mode: FuzzMode::Baseline, ..case });
        }
        if case.stride {
            candidates.push(FuzzCase { stride: false, ..case });
        }
        if case.nl {
            candidates.push(FuzzCase { nl: false, ..case });
        }
        if case.depth != 1 {
            candidates.push(FuzzCase { depth: 1, ..case });
        }
        if case.issue_extra_millis != 500 {
            candidates.push(FuzzCase { issue_extra_millis: 500, ..case });
        }
        if case.data_exposed_pct != 60 {
            candidates.push(FuzzCase { data_exposed_pct: 60, ..case });
        }
        if case.wl_seed != 0 {
            candidates.push(FuzzCase { wl_seed: 0, ..case });
        }
        if case.profile != 0 {
            candidates.push(FuzzCase { profile: 0, ..case });
        }

        let mut progressed = false;
        for cand in candidates {
            if let Err(m) = checker(&cand) {
                case = cand;
                message = m;
                progressed = true;
                break;
            }
        }
        if !progressed {
            return (case, message);
        }
    }
}

/// Renders a shrunk failure as a ready-to-paste regression test.
pub fn render_reproducer(failure: &FuzzFailure) -> String {
    let c = &failure.shrunk;
    format!(
        "// Shrunk from iteration {iter}: {msg}\n\
         #[test]\n\
         fn fuzz_regression() {{\n\
         \x20   let case = esp_check::FuzzCase {{\n\
         \x20       profile: {profile},\n\
         \x20       scale: {scale},\n\
         \x20       wl_seed: {wl_seed},\n\
         \x20       mode: esp_check::FuzzMode::{mode:?},\n\
         \x20       nl: {nl},\n\
         \x20       stride: {stride},\n\
         \x20       issue_extra_millis: {iem},\n\
         \x20       data_exposed_pct: {dep},\n\
         \x20       depth: {depth},\n\
         \x20   }};\n\
         \x20   case.check().expect(\"previously failing fuzz case\");\n\
         }}\n",
        iter = failure.iteration,
        msg = failure.shrunk_message.lines().next().unwrap_or(""),
        profile = c.profile,
        scale = c.scale,
        wl_seed = c.wl_seed,
        mode = c.mode,
        nl = c.nl,
        stride = c.stride,
        iem = c.issue_extra_millis,
        dep = c.data_exposed_pct,
        depth = c.depth,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for _ in 0..32 {
            assert_eq!(FuzzCase::sample(&mut a), FuzzCase::sample(&mut b));
        }
    }

    #[test]
    fn sampled_configs_validate() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..64 {
            let case = FuzzCase::sample(&mut rng);
            case.config().validate().expect("sampled config must be valid");
        }
    }

    #[test]
    fn shrink_reaches_the_simplest_failing_point() {
        // A checker that fails whenever next-line is on: the shrinker
        // must strip everything else while keeping nl=true.
        let case = FuzzCase {
            profile: 5,
            scale: 16_000,
            wl_seed: 999,
            mode: FuzzMode::Esp,
            nl: true,
            stride: true,
            issue_extra_millis: 1_234,
            data_exposed_pct: 7,
            depth: 6,
        };
        let checker = |c: &FuzzCase| {
            if c.nl {
                Err("nl is on".to_string())
            } else {
                Ok(())
            }
        };
        let (shrunk, msg) = shrink(case, &checker, "nl is on".into());
        assert_eq!(msg, "nl is on");
        assert!(shrunk.nl);
        assert!(!shrunk.stride);
        assert_eq!(shrunk.mode, FuzzMode::Baseline);
        assert_eq!(shrunk.scale, 2_000);
        assert_eq!(shrunk.wl_seed, 0);
        assert_eq!(shrunk.profile, 0);
        assert_eq!(shrunk.depth, 1);
        assert_eq!(shrunk.issue_extra_millis, 500);
        assert_eq!(shrunk.data_exposed_pct, 60);
    }
}
