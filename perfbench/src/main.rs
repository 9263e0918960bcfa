//! The repository benchmark of the ESP simulator.
//!
//! ```text
//! perfbench --workload <exact-matrix|sampled-matrix|learned-matrix>
//!           --seed N --seconds S --trace <0|1> [--scale N]
//!           [--reference FILE]
//! perfbench --bless [--scale N] [--seed N] [--reference FILE]
//! ```
//!
//! Each workload simulates the 9-family × 29-config matrix on one
//! thread, every simulation its own call into `Simulator`, in exact,
//! sampled or learned mode. With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it runs the traced pass (`layers.rs`) and
//! prints the per-layer metrics. The last stdout line is the JSON
//! result. `--bless` rewrites the exact-mode reference digests.

mod calib;
mod layers;
mod matrix;
mod reference;
mod spans;

use calib::HostSpeed;
use matrix::{Mode, Tally};
use reference::Reference;
use spans::Spans;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Instructions per workload family.
const DEFAULT_SCALE: u64 = 600_000;
/// The seed the reference digests are kept for.
const DEFAULT_SEED: u64 = 42;
/// Cold set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;
/// Calibration chunks run before and after each set-up.
const SETUP_CALIBRATION: u32 = 10;

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The median of `v` (mean of the middle two for an even length).
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `v`, `p` in (0, 1].
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: u64,
    reference: PathBuf,
    bless: bool,
}

const USAGE: &str = "usage: perfbench --workload <exact-matrix|sampled-matrix|learned-matrix> \
--seed N --seconds S --trace <0|1> [--scale N] [--reference FILE]\n       \
perfbench --bless [--scale N] [--seed N] [--reference FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: DEFAULT_SCALE,
        reference: PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/reference/exact_digests.txt"
        )),
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            args.bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                Mode::of_workload(&value).ok_or_else(|| format!("unknown workload {value:?}"))?;
                args.workload = Some(value);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad())?;
                if args.scale == 0 {
                    return Err(bad());
                }
            }
            "--reference" => args.reference = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if !args.bless && args.workload.is_none() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.bless {
        return bless(&args);
    }
    let reference = match Reference::read(&args.reference) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let digests = matrix::digests_for(&reference, args.scale, args.seed);
    eprintln!(
        "perfbench: scale {}, seed {}, exact digests {}",
        args.scale,
        args.seed,
        if digests.is_some() {
            "checked"
        } else {
            "not kept for this (scale, seed)"
        }
    );
    let workload = args.workload.as_deref().expect("checked by parse_args");
    let mode = Mode::of_workload(workload).expect("checked by parse_args");
    let mut tally = Tally::default();
    let metrics = if args.trace {
        let mut spans = Spans::new(true);
        spans.enter("bench.setup");
        let (families, generate_s, materialise_s) =
            matrix::setup(args.scale, args.seed, &mut spans);
        spans.exit();
        let path = PathBuf::from(format!(
            "{}/out/spans-{workload}-seed{}.jsonl",
            env!("CARGO_MANIFEST_DIR"),
            args.seed
        ));
        let setup = (generate_s, materialise_s);
        layers::traced(
            mode,
            &families,
            setup,
            args.seconds,
            digests,
            spans,
            &path,
            &mut tally,
        )
    } else {
        end_to_end(mode, &args, &reference, &mut tally)
    };
    let finite = metrics.iter().all(|m| m.1.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() {
                v.to_string()
            } else {
                "null".into()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && finite,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// The untraced run: `SETUP_REPEATS` cold set-ups, the timed matrix
/// phase, and the accuracy cross-check on its fixed panel.
fn end_to_end(mode: Mode, args: &Args, reference: &Reference, tally: &mut Tally) -> Vec<Metric> {
    let mut spans = Spans::new(false);
    let mut families = Vec::new();
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        // Release the previous arenas first, so only one set is resident.
        drop(std::mem::take(&mut families));
        let mut speed = HostSpeed::default();
        speed.sample(SETUP_CALIBRATION);
        let (f, generate, materialise) = matrix::setup(args.scale, args.seed, &mut spans);
        speed.sample(SETUP_CALIBRATION);
        families = f;
        setups.push((generate + materialise) * speed.relative());
    }
    let digests = matrix::digests_for(reference, args.scale, args.seed);
    let timed = matrix::timed_matrix(mode, &families, args.seconds, digests, &mut spans, tally);
    drop(families);
    let acc = matrix::accuracy(mode, args.scale, reference, &mut spans, tally);
    // Throughput over the whole timed phase, the longest window.
    let (seconds, instrs, sims) = timed.passes.iter().fold((0.0, 0u64, 0u64), |(s, i, n), p| {
        (s + p.0, i + p.1, n + p.2)
    });
    let mut cell_ms: Vec<f64> = timed
        .cell_seconds
        .iter()
        .map(|t| median(&mut t.clone()) * 1e3)
        .collect();
    cell_ms.sort_by(f64::total_cmp);
    eprintln!(
        "perfbench: {} passes of {} sims in {seconds:.2} s; set-ups {setups:.3?} s",
        timed.passes.len(),
        cell_ms.len()
    );
    vec![
        ("sims_per_s", sims as f64 / seconds, "1/s"),
        ("mips", instrs as f64 / seconds / 1e6, "MIPS"),
        ("sim_ms_p50", percentile(&cell_ms, 0.50), "ms"),
        ("sim_ms_p95", percentile(&cell_ms, 0.95), "ms"),
        ("setup_s", median(&mut setups), "s"),
        ("peak_rss_mib", peak_rss_mib(), "MiB"),
        ("cpi_err_max_pct", acc.max_pct, "%"),
        ("cpi_err_mean_pct", acc.mean_pct, "%"),
        ("ci95_coverage", acc.coverage, "ratio"),
    ]
}

/// Rewrites the reference digest file from one exact matrix pass at
/// (`--scale`, `--seed`).
fn bless(args: &Args) -> ExitCode {
    let mut spans = Spans::new(false);
    let mut tally = Tally::default();
    let (families, ..) = matrix::setup(args.scale, args.seed, &mut spans);
    let mut digests = BTreeMap::new();
    let mut cells = Vec::new();
    for family in &families {
        for &key in esp_bench::ConfigKey::all() {
            let cell = (family.name.to_string(), format!("{key:?}"));
            let (out, _) = matrix::attempt(
                "core.run",
                (Mode::Exact, key),
                family,
                None,
                &mut spans,
                &mut tally,
            );
            if let Some(out) = out {
                digests.insert(
                    cell.clone(),
                    reference::fnv1a64(format!("{:?}", out.report).as_bytes()),
                );
                cells.push(cell);
            }
        }
    }
    if tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} simulations failed; reference not written",
            tally.failed, tally.attempted
        );
        return ExitCode::FAILURE;
    }
    let reference = Reference {
        scale: args.scale,
        seed: args.seed,
        digests,
    };
    match reference.write(&args.reference, &cells) {
        Ok(()) => {
            eprintln!(
                "perfbench: wrote {} digests to {}",
                cells.len(),
                args.reference.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: cannot write {}: {e}", args.reference.display());
            ExitCode::FAILURE
        }
    }
}
