//! Golden digests: a committed byte-identity anchor for the simulator.
//!
//! One line per run holds three FNV-1a-64 hashes (the hash the ESPT
//! container uses): the run's `Debug` text (`RunReport`, plus the
//! sampling estimate and learned statistics in the estimating modes),
//! its CPI-stack JSON, and its JSONL trace bytes. The runs cover every
//! benchmark family under every [`ConfigKey`] in exact mode, plus the
//! Base/Runahead/EspNl cells in sampled and learned mode.
//!
//! The file lives at `tests/golden_digests.txt` in the workspace root,
//! checked by the root `tests/golden.rs`. A change to the simulator that
//! changes any simulated byte fails that test; a deliberate change
//! regenerates the file with `repro --bless` and says why in its commit.

use crate::ConfigKey;
use esp_core::{LearnParams, SampleParams, Simulator};
use esp_obs::TraceProbe;
use esp_trace::espt::fnv1a64;
use esp_trace::PackedWorkload;
use esp_workload::BenchmarkProfile;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Instructions per family. Small enough for a debug-build test, large
/// enough that no sampled or learned run falls back to exact simulation
/// under [`sample_params`] ([`compute`] asserts it).
const SCALE: u64 = 24_000;
/// Workload seed of every family.
const SEED: u64 = 42;

/// The configurations run in the estimating modes.
const ESTIMATING_KEYS: [ConfigKey; 3] =
    [ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl];

/// Sampling parameters of the estimating runs: a grain small enough that
/// [`SCALE`] holds several periods, so warming, skipping and the learned
/// controller all run.
fn sample_params() -> SampleParams {
    SampleParams::new(200, 10)
}

/// Where the committed digest file lives.
pub fn default_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden_digests.txt")
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Exact,
    Sampled,
    Learned,
}

impl Mode {
    fn name(self) -> &'static str {
        match self {
            Mode::Exact => "exact",
            Mode::Sampled => "sampled",
            Mode::Learned => "learned",
        }
    }
}

/// The three digests of one run, rendered as one file line.
fn digest_line(mode: Mode, family: &str, key: ConfigKey, w: &PackedWorkload) -> String {
    let sim = Simulator::new(key.config());
    let probe = TraceProbe::new(family, key.label());
    let (debug, cpi, trace) = match mode {
        Mode::Exact => {
            let mut probe = probe;
            let report = sim.run_probed(w, &mut probe);
            // The unprobed entry point is its own monomorphisation; it
            // must produce the probed run's report.
            assert_eq!(
                format!("{:?}", sim.run(w)),
                format!("{report:?}"),
                "{family}/{}: run and run_probed disagree",
                key.label()
            );
            (
                format!("{report:?}"),
                report.cpi_stack.to_json(),
                probe.into_bytes(),
            )
        }
        Mode::Sampled | Mode::Learned => {
            let mut probe = probe.with_mode(mode.name());
            let run = match mode {
                Mode::Sampled => sim.run_sampled_probed(w, sample_params(), &mut probe),
                _ => sim.run_sampled_learned_probed(
                    w,
                    sample_params(),
                    LearnParams::default(),
                    &mut probe,
                ),
            };
            assert!(
                !run.estimate.exact_fallback,
                "{family}/{} {}: fell back to exact; raise golden::SCALE",
                key.label(),
                mode.name()
            );
            let debug = format!("{:?}\n{:?}\n{:?}", run.report, run.estimate, run.learned);
            (debug, run.report.cpi_stack.to_json(), probe.into_bytes())
        }
    };
    format!(
        "{} {family} {key:?} {:016x} {:016x} {:016x}",
        mode.name(),
        fnv1a64(debug.as_bytes()),
        fnv1a64(cpi.as_bytes()),
        fnv1a64(&trace)
    )
}

/// Runs every golden cell at (`SCALE`, `SEED`) on `threads` workers
/// and renders the digest file. The text is independent of the thread
/// count.
pub fn compute(threads: usize) -> String {
    let families: Vec<(&'static str, std::sync::Arc<PackedWorkload>)> =
        BenchmarkProfile::all_families()
            .into_iter()
            .map(|p| {
                let p = p.scaled(SCALE);
                (p.name(), esp_workload::arena::packed_for(&p, SEED, threads))
            })
            .collect();
    let mut cells = Vec::new();
    for (i, _) in families.iter().enumerate() {
        for &key in ConfigKey::all() {
            cells.push((Mode::Exact, i, key));
        }
    }
    for mode in [Mode::Sampled, Mode::Learned] {
        for (i, _) in families.iter().enumerate() {
            for key in ESTIMATING_KEYS {
                cells.push((mode, i, key));
            }
        }
    }
    let lines = esp_par::parallel_map(threads, &cells, |_, &(mode, i, key)| {
        digest_line(mode, families[i].0, key, &families[i].1)
    });
    let p = sample_params();
    let mut out = String::from(
        "# Golden digests: FNV-1a-64 of each run's Debug text, CPI-stack JSON and\n\
         # JSONL trace bytes (mode family config debug cpi trace).\n\
         # Regenerate with `repro --bless`; a change to this file needs a stated reason.\n",
    );
    let _ = writeln!(
        out,
        "scale {SCALE}\nseed {SEED}\ngrain {} period {}",
        p.grain_instrs, p.period
    );
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    out
}
