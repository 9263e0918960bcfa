//! Regenerates the paper's figures and tables.
//!
//! ```text
//! repro [--scale N] [--seed S] [--threads T] all
//! repro [--scale N] [--seed S] fig9 fig11a ...
//! repro [--scale N] [--seed S] [--threads T] ablate
//! repro [--trace out.jsonl] fig9
//! repro [--trace-in FILE.espt ...] fig9
//! repro explain <benchmark-or-trace ...>
//! repro [--scale N] [--seed S] [--threads T] [--fuzz N] [--fuzz-espt N] check
//! repro [--scale N] [--seed S] [--threads T] dump [NAMES-OR-TRACES...] [--trace-out DIR]
//! repro [--scale N] [--seed S] [--threads T] [--force] [--repeat N] bench
//! repro [--threads T] --bless
//! ```
//!
//! `--scale` is the per-benchmark instruction budget (default 400 000);
//! larger scales sharpen the numbers at the cost of runtime. Simulations
//! fan out across worker threads (`--threads`, or the `ESP_THREADS`
//! environment variable, defaulting to the machine's parallelism); every
//! run is deterministic, so the reports are identical for any thread
//! count. Each phase prints its wall-clock time to stderr. Only `bench`
//! writes `BENCH_repro.json`; figure, `explain`, `ablate` and `dump` runs
//! write no file unless pointed at one (`--trace`, `dump --trace-out`).
//!
//! Observability (see `docs/OBSERVABILITY.md`): `--trace <path>` writes
//! a JSONL span trace of every simulation (per-worker buffers merged in
//! input order — byte-identical for any thread count), whose `run` lines
//! carry each run's CPI stack; `explain <benchmark>` prints the
//! baseline-vs-ESP CPI-stack delta table in the shape of the paper's
//! Figs. 4/5.
//!
//! Correctness (see `docs/TESTING.md`): `check` runs the `esp-check`
//! differential oracle over every benchmark family (the paper's seven
//! plus `serverasync`/`iotfsm`) under baseline, runahead and ESP+NL,
//! then a seeded configuration fuzz sweep (`--fuzz` cases), then a
//! structural fuzz of the ESPT trace decoder (`--fuzz-espt` mutated
//! containers, default 500 — see `docs/TRACE_FORMAT.md`); `dump` prints
//! the raw `RunReport` of every profile × configuration — the
//! cross-process determinism test byte-compares two such dumps. Both
//! replay the process-wide memoised packed arena
//! (`esp_workload::arena`), so repeated subcommands on the same
//! profile/scale/seed decode the workload once.
//!
//! Traces (see `docs/TRACE_FORMAT.md`): `dump --trace-out DIR` exports
//! each selected workload as a versioned `.espt` file instead of
//! printing reports; `--trace-in FILE.espt` (repeatable) makes a figure
//! run simulate exactly the imported traces, in CLI order, with the
//! generator never invoked; `explain` and `dump` accept trace paths
//! anywhere a benchmark name is expected. Imported arenas replay
//! byte-identically to generated ones (the trace-import equivalence
//! suite pins this in exact and sampled modes).
//!
//! Performance (see `docs/PERFORMANCE.md`): `bench` runs the full
//! evaluation matrix four times — cold at one thread, warm at
//! `--threads` (skipped, with a JSON note, when only one core is
//! visible), warm in statistical-sampling mode, and warm in learned
//! mode — and writes a `BENCH_repro.json` with per-phase wall times
//! (generate/materialise/simulate), arena resident bytes, exact,
//! sampled and learned throughput, and the estimated modes' measured
//! CPI error against exact ground truth. An existing `BENCH_repro.json`
//! recorded at a *different* scale is never overwritten (its throughput
//! numbers would silently stop being comparable); `--force` replaces it
//! anyway. `scripts/bench.sh` wraps the documented scale-600000
//! invocation.
//!
//! Every command reads a fixed set of flags (`flags_read`); any other
//! flag on its command line is a usage error, raised before any
//! workload is generated, so a flag is never silently ignored.
//!
//! Sampling (the `esp-sample` engine, `--sample-period` /
//! `--sample-grain`): any figure run can trade exactness for speed by
//! measuring one grain in every P; results are estimates with a
//! reported confidence interval, and `--trace` lines are tagged
//! `"mode":"sampled"`. The default exact path is byte-identical to a
//! build without the sampling engine.

use esp_bench::{explain, figures, ConfigKey, Runner, WorkloadSpec};
use esp_core::{LearnParams, SampleParams};
use esp_trace::{SidecarKey, Workload};
use esp_workload::BenchmarkProfile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let mut scale: u64 = 400_000;
    let mut seed: u64 = 42;
    let mut threads: Option<usize> = None;
    let mut trace: Option<PathBuf> = None;
    let mut trace_ins: Vec<PathBuf> = Vec::new();
    let mut trace_out: Option<PathBuf> = None;
    let mut force = false;
    let mut repeat: usize = 3;
    let mut fuzz_cases: usize = 10;
    let mut espt_fuzz_cases: usize = 500;
    let mut sample_period: Option<u64> = None;
    let mut sample_grain: u64 = SampleParams::default().grain_instrs;
    let mut learn = false;
    let mut learn_params = LearnParams::default();
    let mut bless = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut given: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a.starts_with('-') && a != "--bless" {
            given.push(a.clone());
        }
        match a.as_str() {
            "--scale" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => scale = v,
                _ => return usage("--scale needs a positive integer"),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage("--seed needs an integer"),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => threads = Some(v),
                _ => return usage("--threads needs a positive integer"),
            },
            "--trace" => match args.next() {
                Some(p) => trace = Some(p.into()),
                None => return usage("--trace needs a file path"),
            },
            "--trace-in" => match args.next() {
                Some(p) => trace_ins.push(p.into()),
                None => return usage("--trace-in needs a .espt file path"),
            },
            "--trace-out" => match args.next() {
                Some(p) => trace_out = Some(p.into()),
                None => return usage("--trace-out needs a directory path"),
            },
            "--force" => force = true,
            "--repeat" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => repeat = v,
                _ => return usage("--repeat needs a positive integer"),
            },
            "--fuzz" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => fuzz_cases = v,
                None => return usage("--fuzz needs an integer"),
            },
            "--fuzz-espt" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => espt_fuzz_cases = v,
                None => return usage("--fuzz-espt needs an integer"),
            },
            // Ranges are `SampleParams::try_new`'s business (below).
            "--sample-period" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => sample_period = Some(v),
                None => return usage("--sample-period needs an integer"),
            },
            "--sample-grain" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => sample_grain = v,
                None => return usage("--sample-grain needs an integer"),
            },
            "--learn" => learn = true,
            // Ranges are `LearnParams::validate`'s business (below).
            "--learn-train" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    learn = true;
                    learn_params.train_stretches = v;
                }
                None => return usage("--learn-train needs an integer"),
            },
            "--learn-suffix" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    learn = true;
                    learn_params.warm_suffix_grains = v;
                }
                None => return usage("--learn-suffix needs an integer"),
            },
            "--learn-bound" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => {
                    learn = true;
                    learn_params.residual_bound_pct = v;
                }
                None => return usage("--learn-bound needs a number of percent"),
            },
            "--bless" => bless = true,
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => return usage(&format!("unknown flag {other}")),
            other => wanted.push(other.to_string()),
        }
    }
    if bless && !wanted.is_empty() {
        return usage("--bless takes no figure or subcommand");
    }
    let command = if bless {
        "--bless".to_string()
    } else {
        match wanted.first() {
            Some(c) => c.clone(),
            None => return usage("no figure selected"),
        }
    };
    // A figure run that includes `ablate` reads only the flags the
    // ablation sweeps read, since they run exact on their own workloads.
    let is_figure_run = !matches!(command.as_str(), "--bless" | "explain" | "dump" | "check" | "bench");
    let command = if is_figure_run && wanted.iter().any(|w| w == "ablate") {
        "ablate".to_string()
    } else {
        command
    };
    let reads = flags_read(&command);
    if let Some(flag) = given.iter().find(|f| !reads.contains(&f.as_str())) {
        let hint = if flag == "--trace-in" && matches!(command.as_str(), "dump" | "explain") {
            format!("; name the traces instead: {command} FILE.espt ...")
        } else {
            String::new()
        };
        return usage(&format!("{command} does not take {flag}{hint}"));
    }
    if bless {
        return bless_golden(threads.unwrap_or_else(esp_par::threads));
    }
    // Learned fast-forwarding refines the sampled mode, so the flags are
    // meaningless without a sampling period; catch both bad combinations
    // and bad parameter values before any workload generation happens.
    if learn {
        if sample_period.is_none() && command != "bench" {
            return usage("learned fast-forwarding requires sampling mode (--sample-period)");
        }
        if let Err(e) = learn_params.validate() {
            return usage(&e);
        }
    }
    // The grain is checked against the default period first, so the
    // error names the flag at fault.
    let default_period = SampleParams::default().period;
    if let Err(e) = SampleParams::try_new(sample_grain, default_period) {
        return usage(&format!("--sample-grain {sample_grain}: {e}"));
    }
    let period = sample_period.unwrap_or(default_period);
    let sample_params = match SampleParams::try_new(sample_grain, period) {
        Ok(p) => p,
        Err(e) => return usage(&format!("--sample-period {period}: {e}")),
    };
    // `explain` consumes the rest of the positional arguments as
    // benchmark names or `.espt` trace paths, resolved (like figure
    // names) before any workload generation happens.
    let explain_specs: Vec<WorkloadSpec> = if wanted[0] == "explain" {
        let benches: Vec<String> = wanted.drain(..).skip(1).collect();
        if benches.is_empty() {
            return usage("explain needs at least one benchmark name or trace path");
        }
        let mut specs = Vec::with_capacity(benches.len());
        for b in &benches {
            match WorkloadSpec::resolve(b) {
                Ok(s) => specs.push(s),
                Err(e) => return usage(&e.to_string()),
            }
        }
        specs
    } else {
        Vec::new()
    };
    // `check` and `dump` drive the simulator directly at the requested
    // scale, with no Runner involved. `bench` runs the timing protocol
    // and is the one writer of BENCH_repro.json.
    let threads_or_default = threads.unwrap_or_else(esp_par::threads);
    match command.as_str() {
        "dump" => return dump(scale, seed, threads_or_default, &wanted[1..], trace_out.as_deref()),
        "check" => return check(scale, seed, threads_or_default, fuzz_cases, espt_fuzz_cases),
        "bench" => {
            return bench(
                scale,
                seed,
                threads,
                force,
                repeat,
                sample_params,
                learn_params,
            )
        }
        _ => {}
    }
    // Validate every name up front so a typo fails before any workload
    // generation or simulation happens.
    for name in &wanted {
        if name != "all" && name != "ablate" {
            if let Err(e) = figures::by_name(name) {
                return usage(&e.to_string());
            }
        }
    }

    let threads = threads_or_default;
    let t_start = Instant::now();
    // The slot list: explain's resolved arguments take precedence; then
    // `--trace-in` (the run simulates exactly the imported traces, in
    // CLI order, and the generator never runs); otherwise the paper's
    // seven generated profiles.
    let specs: Vec<WorkloadSpec> = if !explain_specs.is_empty() {
        explain_specs.clone()
    } else {
        trace_ins.iter().map(|p| WorkloadSpec::Import(p.clone())).collect()
    };
    let mut runner = if specs.is_empty() {
        eprintln!("# generating workloads (scale {scale}, seed {seed}, {threads} threads)...");
        Runner::with_threads(scale, seed, threads)
    } else {
        eprintln!(
            "# preparing workloads [{}] (scale {scale}, seed {seed}, {threads} threads)...",
            specs.iter().map(WorkloadSpec::describe).collect::<Vec<_>>().join(", ")
        );
        match Runner::from_specs(&specs, scale, seed, threads) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    };
    eprintln!("# workloads ready in {:.2}s", t_start.elapsed().as_secs_f64());

    // Statistical-sampling mode: every simulation estimates its CPI
    // stack from periodic detailed grains instead of running exactly.
    // Sampled figures are approximations — see docs/PERFORMANCE.md for
    // the error envelope and the quoting policy.
    if sample_period.is_some() {
        runner.set_sampling(Some(sample_params));
        eprintln!(
            "# sampling mode: grain {} instrs, period {} (measuring 1/{} of each run)",
            sample_params.grain_instrs, sample_params.period, sample_params.period
        );
        if learn {
            runner.set_learned(Some(learn_params));
            eprintln!(
                "# learned fast-forwarding: {:?} model, {} training stretches, \
                 {}-grain warm suffix, {}% residual bound",
                learn_params.model,
                learn_params.train_stretches,
                learn_params.warm_suffix_grains,
                learn_params.residual_bound_pct
            );
        }
    }

    // Attach the trace sink before any simulation runs; refuse paths we
    // cannot create instead of failing mid-run.
    if let Some(path) = &trace {
        if let Err(e) = runner.set_trace_output(path) {
            eprintln!("error: cannot create trace file {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("# tracing to {}", path.display());
    }

    if !explain_specs.is_empty() {
        // One slot per explain argument, in order — look each up by its
        // resolved slot name (imports report their recorded profile).
        let names = runner.names();
        for (i, b) in names.iter().enumerate().take(explain_specs.len()) {
            let t = Instant::now();
            match explain::explain(&mut runner, b) {
                Ok(rep) => {
                    eprintln!(
                        "# explain {} ({b}) in {:.2}s",
                        explain_specs[i].describe(),
                        t.elapsed().as_secs_f64()
                    );
                    println!("{}", rep.render());
                }
                Err(e) => return usage(&e.to_string()),
            }
        }
        return ExitCode::SUCCESS;
    }

    for name in &wanted {
        let t = Instant::now();
        if name == "all" {
            let reports = figures::all(&mut runner);
            eprintln!(
                "# simulated {} runs in {:.2}s",
                runner.sims_run(),
                t.elapsed().as_secs_f64()
            );
            for report in reports {
                println!("{}", report.render());
            }
            continue;
        }
        if name == "ablate" {
            for report in esp_bench::ablation::all(scale, seed, threads) {
                println!("{}", report.render());
            }
            eprintln!("# ablate in {:.2}s", t.elapsed().as_secs_f64());
            continue;
        }
        match figures::by_name(name) {
            Ok(f) => {
                let rendered = f(&mut runner).render();
                eprintln!("# {name} in {:.2}s", t.elapsed().as_secs_f64());
                println!("{rendered}");
            }
            Err(e) => return usage(&e.to_string()),
        }
    }
    ExitCode::SUCCESS
}

/// Flags every figure run reads: the runner's workload, thread count,
/// trace sink and sampling mode. `--trace-in` comes last because
/// `explain` reads all the others.
const FIGURE_FLAGS: [&str; 11] = [
    "--scale",
    "--seed",
    "--threads",
    "--trace",
    "--sample-period",
    "--sample-grain",
    "--learn",
    "--learn-train",
    "--learn-suffix",
    "--learn-bound",
    "--trace-in",
];

/// The flags `command` reads: the first positional argument (a figure
/// name, `all`, `explain`, `dump`, `check` or `bench`), `ablate` when a
/// figure run includes it, or `--bless`. `ablate` reads the sweeps'
/// workload and thread count; `explain` names its traces as arguments
/// instead of taking `--trace-in`; `bench` always runs its learned pass,
/// so it reads the learned parameters but not the bare `--learn`; only
/// `bench` writes a file that `--force` guards.
fn flags_read(command: &str) -> &'static [&'static str] {
    match command {
        "--bless" => &["--threads"],
        "ablate" => &["--scale", "--seed", "--threads"],
        "dump" => &["--scale", "--seed", "--threads", "--trace-out"],
        "check" => &["--scale", "--seed", "--threads", "--fuzz", "--fuzz-espt"],
        "bench" => &[
            "--scale",
            "--seed",
            "--threads",
            "--force",
            "--repeat",
            "--sample-period",
            "--sample-grain",
            "--learn-train",
            "--learn-suffix",
            "--learn-bound",
        ],
        "explain" => &FIGURE_FLAGS[..FIGURE_FLAGS.len() - 1],
        _ => &FIGURE_FLAGS,
    }
}

/// `repro --bless`: regenerates the committed golden digests
/// (`esp_bench::golden`, checked by the root `tests/golden.rs`) at their
/// fixed scale and seed, so `--scale`/`--seed` are not accepted.
fn bless_golden(threads: usize) -> ExitCode {
    let t = Instant::now();
    let path = esp_bench::golden::default_path();
    let text = esp_bench::golden::compute(threads);
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("error: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    eprintln!("# wrote {} in {:.2}s", path.display(), t.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

/// The differential matrix shared by `check` and `dump`: every profile
/// under baseline, runahead, and the headline ESP+NL configuration.
const MATRIX: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl];

/// `repro dump [NAMES-OR-TRACES...] [--trace-out DIR]`.
///
/// Without `--trace-out`: prints the raw `RunReport` of every selected
/// workload × configuration to stdout, deterministically, and writes
/// nothing to disk. Two processes with the same `--scale`/`--seed` must
/// produce byte-identical output (asserted by `tests/cross_process.rs`).
/// The default selection is every built-in family (the paper's seven
/// plus `serverasync`/`iotfsm`); positional arguments narrow it to
/// specific families or `.espt` trace paths.
///
/// With `--trace-out DIR`: instead of printing reports, exports each
/// selected workload as `DIR/<name>.espt` (built-ins under the CLI
/// scale/seed provenance; imports re-encoded under their recorded one)
/// and reports sizes on stderr.
fn dump(
    scale: u64,
    seed: u64,
    threads: usize,
    names: &[String],
    trace_out: Option<&Path>,
) -> ExitCode {
    let specs: Vec<WorkloadSpec> = if names.is_empty() {
        BenchmarkProfile::all_families().into_iter().map(WorkloadSpec::Builtin).collect()
    } else {
        let mut specs = Vec::with_capacity(names.len());
        for n in names {
            match WorkloadSpec::resolve(n) {
                Ok(s) => specs.push(s),
                Err(e) => return usage(&e.to_string()),
            }
        }
        specs
    };
    if let Some(dir) = trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    for spec in &specs {
        // The memoised packed arena: each workload is generated (or
        // imported) and decoded once per provenance triple, process-wide.
        let (meta, w) = match spec {
            WorkloadSpec::Builtin(p) => {
                let scaled = p.scaled(scale);
                let w = esp_workload::arena::packed_for(&scaled, seed, threads);
                let meta = esp_trace::espt::TraceMeta {
                    profile: scaled.name().to_string(),
                    scale,
                    seed,
                };
                (meta, w)
            }
            WorkloadSpec::Import(path) => match esp_workload::arena::import(path) {
                Ok((meta, w)) => (meta, w),
                Err(e) => {
                    eprintln!("error: cannot import trace {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
        };
        match trace_out {
            Some(dir) => {
                let path = dir.join(format!("{}.espt", meta.profile));
                match esp_trace::espt::write_path(&path, &meta, &w) {
                    Ok(bytes) => eprintln!(
                        "# wrote {} ({bytes} bytes, {} events)",
                        path.display(),
                        w.events().len()
                    ),
                    Err(e) => {
                        eprintln!("error: cannot write {}: {e}", path.display());
                        return ExitCode::from(2);
                    }
                }
            }
            None => {
                for key in MATRIX {
                    let report = esp_core::Simulator::new(key.config()).run(&w);
                    println!("=== {} / {key:?} ===", meta.profile);
                    println!("{report:#?}");
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// `repro check`: the correctness gate. Runs the `esp-check`
/// differential oracle (event recount, serial timing bound, component
/// replay) over every benchmark family × the differential matrix, then
/// a seeded configuration fuzz sweep, then a structural fuzz of the
/// ESPT trace decoder. Any violation prints a shrunk, ready-to-paste
/// reproducer and fails the process.
fn check(
    scale: u64,
    seed: u64,
    threads: usize,
    fuzz_cases: usize,
    espt_fuzz_cases: usize,
) -> ExitCode {
    let mut failed = false;

    let t = Instant::now();
    for profile in BenchmarkProfile::all_families() {
        let w = esp_workload::arena::packed_for(&profile.scaled(scale), seed, threads);
        for key in MATRIX {
            match esp_check::check_run(&key.config(), &w) {
                Ok(r) => eprintln!(
                    "# ok {:>11} {key:?}: serial {} >= busy {} ({} mem ops, {} bp ops)",
                    profile.name(),
                    r.serial_cycles,
                    r.busy_cycles,
                    r.mem_ops,
                    r.bp_ops
                ),
                Err(e) => {
                    failed = true;
                    eprintln!("FAIL {:>11} {key:?}: {e}", profile.name());
                }
            }
        }
    }
    eprintln!("# differential oracle done in {:.2}s", t.elapsed().as_secs_f64());

    if fuzz_cases > 0 {
        let t = Instant::now();
        match esp_check::fuzz_with(seed, fuzz_cases, |c| c.check()) {
            None => eprintln!(
                "# fuzz: {fuzz_cases} cases clean in {:.2}s",
                t.elapsed().as_secs_f64()
            ),
            Some(f) => {
                failed = true;
                eprintln!(
                    "FAIL fuzz iteration {}: {}\nshrunk reproducer:\n{}",
                    f.iteration,
                    f.shrunk_message,
                    esp_check::render_reproducer(&f)
                );
            }
        }
    }

    // The trace-decoder gate: seeded structural mutations of a valid
    // `.espt` image must all come back as structured errors — never a
    // panic, never an attacker-sized allocation (docs/TRACE_FORMAT.md).
    if espt_fuzz_cases > 0 {
        let t = Instant::now();
        match esp_check::espt_fuzz_with(seed, espt_fuzz_cases) {
            None => eprintln!(
                "# espt fuzz: {espt_fuzz_cases} mutated containers rejected cleanly in {:.2}s",
                t.elapsed().as_secs_f64()
            ),
            Some(f) => {
                failed = true;
                eprintln!(
                    "FAIL espt fuzz iteration {}: {}\nshrunk reproducer:\n{}",
                    f.iteration,
                    f.shrunk_message,
                    esp_check::render_espt_reproducer(&f)
                );
            }
        }
    }

    if failed {
        eprintln!("check: FAILED");
        ExitCode::FAILURE
    } else {
        eprintln!("check: OK");
        ExitCode::SUCCESS
    }
}

/// `repro bench`: the throughput protocol behind `BENCH_repro.json`.
///
/// Pass 1 runs the full 29-configuration × 9-family matrix (the paper's
/// seven profiles plus `serverasync`/`iotfsm`) cold on a single worker
/// thread — the comparable trajectory number. Pass 2
/// reruns it at `--threads` (default: the machine's parallelism) with
/// the workload and arena caches warm, isolating simulation scaling
/// from one-time decode cost; on a machine where only one core is
/// visible the pass is skipped and recorded as such (an "Nt" number
/// measured at one thread would just duplicate pass 1). Pass 3 reruns
/// the matrix warm in statistical-sampling mode (`--sample-grain` /
/// `--sample-period`, defaulting to the documented operating point) and
/// cross-checks its CPI against the exact reports of every profile ×
/// {base, runahead, esp_nl} — the per-profile error table goes to
/// stderr and to the JSON (`sampled.per_profile`), the max/mean and the
/// share of those cells whose 95% interval holds the exact CPI
/// (`ci95_coverage`) to the JSON. Pass 3b repeats the sampled protocol
/// with learned fast-forwarding on top (`--learn-*` to override the
/// model's operating point) and records its throughput, speedups
/// over exact and plain sampling, error envelope, interval coverage,
/// mean skip fraction, and the fallback-ladder counters. Pass 1 also
/// records the bytes and build time of the sidecars its runs built: the
/// DCU trigger bits of the next-line runs (`dcu_triggers`) and the branch
/// outcomes of the runs whose predictor sees only retired branches
/// (`branch_outcomes`). Each pass is repeated `--repeat`
/// times (default 3) and the fastest repetition is recorded — the
/// standard protocol for shared machines, where the minimum is the run
/// least disturbed by background load (every repetition simulates the
/// exact same deterministic work, so they are directly comparable). All
/// passes and the per-phase wall times land in `BENCH_repro.json`
/// (guarded against cross-scale overwrite). A final
/// trace-I/O measurement exports every family's arena to `.espt`, drops
/// the memo, re-imports from the files, and records both wall times next
/// to the generate/materialise cost they substitute for
/// (`docs/TRACE_FORMAT.md`).
#[allow(clippy::too_many_arguments)]
fn bench(
    scale: u64,
    seed: u64,
    threads: Option<usize>,
    force: bool,
    repeat: usize,
    sp: SampleParams,
    learn_params: LearnParams,
) -> ExitCode {
    let cores = esp_par::threads();
    let threads_nt = threads.unwrap_or(cores);
    if !bench_json_writable(scale, force) {
        return ExitCode::from(2);
    }
    let families = BenchmarkProfile::all_families();

    eprintln!(
        "# bench pass 1: cold, 1 thread (scale {scale}, seed {seed}, {} families), best of {repeat}...",
        families.len()
    );
    let dcu = |k: &SidecarKey| matches!(k, SidecarKey::DcuTriggers { .. });
    /// What one cold repetition measured.
    struct ColdPass {
        total: f64,
        phases: esp_bench::PhaseSeconds,
        arena_bytes: u64,
        /// `(bytes, build seconds)` of the DCU trigger and branch outcome
        /// sidecars.
        footprints: [(u64, f64); 2],
        sims: u64,
        instrs: u64,
    }
    let mut best: Option<ColdPass> = None;
    for rep in 1..=repeat {
        // A cold repetition regenerates and re-materialises everything:
        // drop the process-wide arena cache left by the previous one.
        esp_workload::arena::reset();
        let t = Instant::now();
        let mut cold = Runner::with_profiles(&families, scale, seed, 1);
        cold.ensure(ConfigKey::all());
        let total = t.elapsed().as_secs_f64();
        eprintln!("#   rep {rep}: {total:.2}s ({:.3} sims/s)", cold.sims_run() as f64 / total.max(1e-9));
        if best.as_ref().is_none_or(|b| total < b.total) {
            best = Some(ColdPass {
                total,
                phases: cold.phase_seconds(),
                arena_bytes: cold.arena_resident_bytes(),
                footprints: [cold.sidecar_footprint(dcu), cold.sidecar_footprint(|k| !dcu(k))],
                sims: cold.sims_run(),
                instrs: cold.instructions_simulated(),
            });
        }
    }
    let ColdPass { total: total_1t, phases, arena_bytes, footprints, sims, instrs } =
        best.expect("repeat >= 1");
    let [(trigger_bytes, trigger_s), (outcome_bytes, outcome_s)] = footprints;
    // Instructions per wall-second across the whole matrix — retired plus
    // speculative (ESP pre-execution, runahead re-execution), which is
    // real simulation work; the per-sim count is deterministic, so MIPS
    // moves with the same best-of-N minimum as sims/s.
    let mips_1t = instrs as f64 / total_1t.max(1e-9) / 1e6;
    eprintln!(
        "# pass 1: {sims} sims in {total_1t:.2}s ({:.3} sims/s, {mips_1t:.2} MIPS; \
         generate {:.2}s, materialise {:.2}s, simulate {:.2}s, arena {:.1} MiB; \
         DCU trigger sidecars {:.1} KiB built in {:.1} ms; \
         branch outcome sidecars {:.1} KiB built in {:.1} ms)",
        sims as f64 / total_1t.max(1e-9),
        phases.generate,
        phases.materialise,
        phases.simulate,
        arena_bytes as f64 / (1024.0 * 1024.0),
        trigger_bytes as f64 / 1024.0,
        trigger_s * 1e3,
        outcome_bytes as f64 / 1024.0,
        outcome_s * 1e3,
    );

    // Pass 2 measures multi-thread scaling, so it is only honest when
    // more than one core is actually available: a "N-thread" number
    // collected on one visible core is pass 1 with a misleading label.
    let mut best_nt: Option<(f64, esp_bench::PhaseSeconds)> = None;
    let mut nt_note = None;
    if threads_nt > 1 {
        eprintln!("# bench pass 2: warm arenas, {threads_nt} threads, best of {repeat}...");
        for rep in 1..=repeat {
            let t = Instant::now();
            let mut warm = Runner::with_profiles(&families, scale, seed, threads_nt);
            warm.ensure(ConfigKey::all());
            let total = t.elapsed().as_secs_f64();
            eprintln!("#   rep {rep}: {total:.2}s ({:.3} sims/s)", sims as f64 / total.max(1e-9));
            if best_nt.as_ref().is_none_or(|(b, _)| total < *b) {
                best_nt = Some((total, warm.phase_seconds()));
            }
        }
    } else {
        let note = format!("N-thread pass skipped: only {cores} core visible");
        eprintln!("# bench pass 2: {note}");
        nt_note = Some(note);
    }

    // Pass 3: the same matrix in statistical-sampling mode, warm, one
    // thread — directly comparable to pass 1's simulate phase. The last
    // repetition's reports feed the error cross-check below (sampling is
    // deterministic, so every repetition produces identical reports).
    eprintln!(
        "# bench pass 3: sampled (grain {}, period {}), warm, 1 thread, best of {repeat}...",
        sp.grain_instrs, sp.period
    );
    let mut best_s: Option<(f64, esp_bench::PhaseSeconds)> = None;
    let mut sampled_runner: Option<Runner> = None;
    for rep in 1..=repeat {
        let t = Instant::now();
        let mut r = Runner::with_profiles(&families, scale, seed, 1);
        r.set_sampling(Some(sp));
        r.ensure(ConfigKey::all());
        let total = t.elapsed().as_secs_f64();
        eprintln!("#   rep {rep}: {total:.2}s ({:.3} sims/s)", sims as f64 / total.max(1e-9));
        if best_s.as_ref().is_none_or(|(b, _)| total < *b) {
            best_s = Some((total, r.phase_seconds()));
        }
        sampled_runner = Some(r);
    }
    let (total_s, phases_s) = best_s.expect("repeat >= 1");
    let sampled = sampled_runner.expect("repeat >= 1");
    let speedup = phases.simulate / phases_s.simulate.max(1e-9);
    eprintln!(
        "# pass 3: {sims} sims in {total_s:.2}s (simulate {:.2}s vs exact {:.2}s: {speedup:.2}x)",
        phases_s.simulate, phases.simulate
    );

    // Sampled-vs-exact error report over the differential matrix
    // (base / runahead / esp_nl per profile — the configurations the
    // accuracy target is stated over).
    let mut exact = Runner::with_profiles(&families, scale, seed, 1);
    exact.ensure(&MATRIX);
    let table_s = ErrorTable::new("sampled", &exact, &sampled);
    let (max_err, mean_err, coverage) = (table_s.max(), table_s.mean(), table_s.coverage());
    let cells = table_s.errs.len();
    eprintln!(
        "# sampled error: max |{max_err:.2}|%, mean |{mean_err:.2}|% over {cells} cells; \
         ci95 coverage {}/{cells}",
        table_s.covered
    );
    let per_profile_json = table_s.per_profile_json;
    // Read what the record needs from the sampled runner, then drop it:
    // a runner alive at the trace-I/O pass below keeps its arenas
    // resident next to the re-imported ones.
    let effective_mips = sampled.instructions_simulated() as f64 / total_s.max(1e-9) / 1e6;
    drop(sampled);

    // Pass 3b: the same sampled matrix with learned fast-forwarding on
    // top — skipped stretches replace most of the functional-warming
    // walk, which pass 3 showed is where sampled time goes. Timed under
    // the identical warm/1-thread protocol so "learned vs sampled" is a
    // like-for-like simulate-phase ratio.
    eprintln!(
        "# bench pass 3b: learned ({:?} model, train {}, suffix {}, bound {}%), \
         warm, 1 thread, best of {repeat}...",
        learn_params.model,
        learn_params.train_stretches,
        learn_params.warm_suffix_grains,
        learn_params.residual_bound_pct
    );
    let mut best_l: Option<(f64, esp_bench::PhaseSeconds)> = None;
    let mut learned_runner: Option<Runner> = None;
    for rep in 1..=repeat {
        let t = Instant::now();
        let mut r = Runner::with_profiles(&families, scale, seed, 1);
        r.set_sampling(Some(sp));
        r.set_learned(Some(learn_params));
        r.ensure(ConfigKey::all());
        let total = t.elapsed().as_secs_f64();
        eprintln!("#   rep {rep}: {total:.2}s ({:.3} sims/s)", sims as f64 / total.max(1e-9));
        if best_l.as_ref().is_none_or(|(b, _)| total < *b) {
            best_l = Some((total, r.phase_seconds()));
        }
        learned_runner = Some(r);
    }
    let (total_l, phases_l) = best_l.expect("repeat >= 1");
    let learned = learned_runner.expect("repeat >= 1");
    let speedup_l = phases.simulate / phases_l.simulate.max(1e-9);
    let speedup_l_vs_s = phases_s.simulate / phases_l.simulate.max(1e-9);
    eprintln!(
        "# pass 3b: {sims} sims in {total_l:.2}s (simulate {:.2}s: {speedup_l:.2}x vs exact, \
         {speedup_l_vs_s:.2}x vs sampled)",
        phases_l.simulate
    );
    let table_l = ErrorTable::new("learned", &exact, &learned);
    let (max_err_l, mean_err_l, coverage_l) = (table_l.max(), table_l.mean(), table_l.coverage());
    let (skip_frac, fb_rate, n_disabled, n_rerun) =
        learned.learned_summary().unwrap_or((0.0, 0.0, 0, 0));
    drop(learned);
    eprintln!(
        "# learned error: max |{max_err_l:.2}|%, mean |{mean_err_l:.2}|% over {cells} cells; \
         skip fraction {skip_frac:.3}, fallback rate {fb_rate:.4}, \
         {n_disabled} disabled, {n_rerun} rerun; ci95 coverage {}/{cells}",
        table_l.covered
    );

    // Trace I/O: what a consumer of exported `.espt` files pays
    // (decode-only import) versus what this process paid to build the
    // same arenas (generate + materialise, cold pass 1 numbers).
    let trace_io_json = match trace_io(exact, scale, seed) {
        Some((files, bytes, export_s, import_s)) => format!(
            "\n  \"trace_io\": {{\"files\": {files}, \"bytes\": {bytes}, \
             \"export_seconds\": {export_s:.3}, \"import_seconds\": {import_s:.3},\n    \
             \"generate_seconds\": {:.3}, \"materialise_seconds\": {:.3}}},",
            phases.generate, phases.materialise,
        ),
        None => String::new(),
    };

    let nt_json = match (&best_nt, &nt_note) {
        (Some((total_nt, phases_nt)), _) => format!(
            "\n  \"threads_nt\": {threads_nt},\n  \"total_seconds_nt\": {total_nt:.3},\n  \
             \"sims_per_sec_nt\": {:.3},\n  \"mips_nt\": {:.3},\n  \
             \"simulate_seconds_nt\": {:.3},",
            sims as f64 / total_nt.max(1e-9),
            instrs as f64 / total_nt.max(1e-9) / 1e6,
            phases_nt.simulate,
        ),
        (None, Some(note)) => format!("\n  \"threads_nt\": 1,\n  \"nt_note\": \"{note}\","),
        (None, None) => unreachable!("one branch of pass 2 always runs"),
    };
    // The sampled block repeats the scale it was measured at: the CPI
    // error is scale-dependent (fewer sampling periods fit in a smaller
    // workload), so its numbers are only meaningful next to their scale.
    // The whole bench's high-water mark, every pass included.
    let peak_rss_json =
        peak_rss_mib().map_or(String::new(), |mib| format!("\"peak_rss_mib\": {mib:.1},\n  "));
    let json = format!(
        "{{\n  \"scale\": {scale},\n  \"seed\": {seed},\n  \"threads\": 1,{nt_json}{trace_io_json}\n  \
         \"repeat\": {repeat},\n  \"sims_run\": {sims},\n  \
         \"instructions_simulated\": {instrs},\n  \
         \"total_seconds\": {total_1t:.3},\n  \
         \"sims_per_sec\": {:.3},\n  \"sims_per_sec_1t\": {:.3},\n  \
         \"mips\": {mips_1t:.3},\n  \"mips_1t\": {mips_1t:.3},\n  \
         \"arena_bytes\": {arena_bytes},\n  {peak_rss_json}\
         \"dcu_triggers\": {{\"bytes\": {trigger_bytes}, \"build_seconds\": {trigger_s:.4}}},\n  \
         \"branch_outcomes\": {{\"bytes\": {outcome_bytes}, \"build_seconds\": {outcome_s:.4}}},\n  \
         \"phase_seconds\": {{\"generate\": {:.3}, \"materialise\": {:.3}, \
         \"simulate\": {:.3}}},\n  \
         \"sampled\": {{\"scale\": {scale}, \"grain_instrs\": {}, \"period\": {}, \
         \"sims\": {sims},\n    \
         \"total_seconds\": {total_s:.3}, \"simulate_seconds\": {:.3}, \
         \"sims_per_sec\": {:.3}, \"effective_mips\": {effective_mips:.3},\n    \
         \"simulate_speedup_vs_exact\": {speedup:.3}, \
         \"max_cpi_error_pct\": {max_err:.3}, \"mean_cpi_error_pct\": {mean_err:.3}, \
         \"ci95_coverage\": {coverage:.4},\n    \
         \"per_profile\": {{\n      {per_profile_json}\n    }}}},\n  \
         \"learned\": {{\"scale\": {scale}, \"model\": \"{}\", \
         \"train_stretches\": {}, \"warm_suffix_grains\": {}, \
         \"residual_bound_pct\": {},\n    \
         \"sims\": {sims}, \"total_seconds\": {total_l:.3}, \
         \"simulate_seconds\": {:.3}, \"sims_per_sec\": {:.3},\n    \
         \"simulate_speedup_vs_exact\": {speedup_l:.3}, \
         \"simulate_speedup_vs_sampled\": {speedup_l_vs_s:.3},\n    \
         \"max_cpi_error_pct\": {max_err_l:.3}, \"mean_cpi_error_pct\": {mean_err_l:.3}, \
         \"ci95_coverage\": {coverage_l:.4},\n    \
         \"skip_fraction\": {skip_frac:.4}, \"fallback_rate\": {fb_rate:.5}, \
         \"disabled_runs\": {n_disabled}, \"rerun_full_runs\": {n_rerun}}}\n}}\n",
        sims as f64 / total_1t.max(1e-9),
        sims as f64 / total_1t.max(1e-9),
        phases.generate,
        phases.materialise,
        phases.simulate,
        sp.grain_instrs,
        sp.period,
        phases_s.simulate,
        sims as f64 / total_s.max(1e-9),
        learn_params.model.as_str(),
        learn_params.train_stretches,
        learn_params.warm_suffix_grains,
        learn_params.residual_bound_pct,
        phases_l.simulate,
        sims as f64 / total_l.max(1e-9),
    );
    match std::fs::write("BENCH_repro.json", &json) {
        Ok(()) => {
            eprintln!("# wrote BENCH_repro.json ({sims} sims, 1t {total_1t:.2}s, sampled {total_s:.2}s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("# error: could not write BENCH_repro.json: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One estimating pass's CPI error against exact over the differential
/// matrix (base / runahead / esp_nl per profile), as `repro bench`
/// reports it for sampled and learned mode alike.
struct ErrorTable {
    /// Signed CPI errors in percent, profile-major.
    errs: Vec<f64>,
    /// Cells whose 95% CPI interval holds the exact CPI; a cell without
    /// an estimate is not covered.
    covered: usize,
    /// One `"profile": {"base": .., "runahead": .., "esp_nl": ..}` entry
    /// per profile, joined for the JSON record.
    per_profile_json: String,
}

impl ErrorTable {
    /// Compares every cell of `estimated` with `exact`, printing one
    /// stderr row per profile under a `mode` heading.
    fn new(mode: &str, exact: &Runner, estimated: &Runner) -> Self {
        let cpi = |r: &esp_core::RunReport| r.busy_cycles() as f64 / r.engine.retired as f64;
        let (mut errs, mut covered, mut rows) = (Vec::new(), 0usize, Vec::new());
        eprintln!("# {mode} CPI error vs exact (per profile; base / runahead / esp_nl):");
        for (i, name) in exact.names().iter().enumerate() {
            let mut row = format!("#   {name:<11}");
            let mut cells: Vec<String> = Vec::new();
            for (key, jkey) in MATRIX.into_iter().zip(["base", "runahead", "esp_nl"]) {
                let e_cpi = cpi(exact.cached(i, key).expect("ensured"));
                let got = cpi(estimated.cached(i, key).expect("ensured"));
                let err = 100.0 * (got - e_cpi) / e_cpi;
                errs.push(err);
                covered += usize::from(estimated.estimate(i, key).is_some_and(|e| e.cpi.covers(e_cpi)));
                row.push_str(&format!(" {err:+6.2}%"));
                cells.push(format!("\"{jkey}\": {err:.3}"));
            }
            eprintln!("{row}");
            rows.push(format!("\"{name}\": {{{}}}", cells.join(", ")));
        }
        ErrorTable { errs, covered, per_profile_json: rows.join(",\n      ") }
    }

    /// The largest |error| in percent.
    fn max(&self) -> f64 {
        self.errs.iter().fold(0f64, |m, e| m.max(e.abs()))
    }

    /// The mean |error| in percent.
    fn mean(&self) -> f64 {
        self.errs.iter().map(|e| e.abs()).sum::<f64>() / self.errs.len() as f64
    }

    /// The share of cells whose interval holds the exact CPI.
    fn coverage(&self) -> f64 {
        self.covered as f64 / self.errs.len() as f64
    }
}

/// The trace-I/O measurement behind the `trace_io` block: exports every
/// slot of `runner` as `.espt` into a scratch directory, drops the runner
/// and the process-wide arena memo, re-imports all files (seating fresh
/// arenas), and reports `(files, bytes, export_seconds, import_seconds)`.
/// Returns `None` — and records nothing — if any filesystem step fails;
/// the scratch directory is removed either way. The caller must hold no
/// other runner: one would keep the old arenas resident next to the
/// imported ones.
fn trace_io(runner: Runner, scale: u64, seed: u64) -> Option<(usize, u64, f64, f64)> {
    let dir = std::env::temp_dir().join(format!("esp-bench-espt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).ok()?;
    let names = runner.names();
    let result = (|| {
        let t = Instant::now();
        let mut bytes = 0u64;
        for (i, name) in names.iter().enumerate() {
            let meta = esp_trace::espt::TraceMeta { profile: name.clone(), scale, seed };
            let path = dir.join(format!("{name}.espt"));
            bytes += esp_trace::espt::write_path(&path, &meta, runner.packed(i).as_ref()).ok()?;
        }
        let export_s = t.elapsed().as_secs_f64();
        // Drop the runner and the memo so the import genuinely decodes
        // from bytes into the only arenas resident.
        drop(runner);
        esp_workload::arena::reset();
        let t = Instant::now();
        for name in &names {
            esp_workload::arena::import(dir.join(format!("{name}.espt"))).ok()?;
        }
        let import_s = t.elapsed().as_secs_f64();
        eprintln!(
            "# trace i/o: exported {} files ({bytes} bytes) in {export_s:.2}s, \
             re-imported in {import_s:.2}s",
            names.len()
        );
        Some((names.len(), bytes, export_s, import_s))
    })();
    std::fs::remove_dir_all(&dir).ok();
    result
}

/// The process's peak resident set (`VmHWM` in `/proc/self/status`), in
/// MiB; `None` where that cannot be read.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Whether `BENCH_repro.json` may be (over)written by a run at `scale`:
/// an existing file recorded at a different scale is preserved unless
/// `force` — mixed-scale throughput numbers are not comparable.
fn bench_json_writable(scale: u64, force: bool) -> bool {
    if force {
        return true;
    }
    if let Ok(existing) = std::fs::read_to_string("BENCH_repro.json") {
        let prev = esp_check::Json::parse(&existing)
            .ok()
            .and_then(|j| j.get("scale").and_then(esp_check::Json::as_u64));
        if let Some(prev) = prev {
            if prev != scale {
                eprintln!(
                    "# refusing to overwrite BENCH_repro.json: it was recorded at scale \
                     {prev}, this run used {scale}; pass --force to replace it"
                );
                return false;
            }
        }
    }
    true
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--scale N] [--seed S] [--threads T] \
         [--trace FILE.jsonl] [--trace-in FILE.espt ...] [--trace-out DIR] \
         [--force] [--fuzz N] [--fuzz-espt N] [--repeat N] [--sample-period P] [--sample-grain G] \
         [--learn] [--learn-train N] [--learn-suffix N] [--learn-bound F] \
         <all | fig3 fig6 fig7 fig8 fig9 fig10 fig11a fig11b fig12 fig13 fig14 | ablate \
         | explain BENCHMARK-OR-TRACE... | check | dump [NAMES-OR-TRACES...] | bench> | --bless\n\
         --bless regenerates the golden digests in tests/golden_digests.txt;\n\
         threads default to ESP_THREADS or the machine's parallelism;\n\
         --trace writes a JSONL span trace whose run lines carry each run's CPI stack\n\
         (schema: docs/OBSERVABILITY.md);\n\
         --trace-in FILE.espt (repeatable) simulates imported traces instead of\n\
         generating workloads; dump --trace-out DIR exports .espt trace files\n\
         (format: docs/TRACE_FORMAT.md);\n\
         --sample-period P runs figures in statistical-sampling mode (1 of every P\n\
         grains of --sample-grain instructions is measured; see docs/PERFORMANCE.md);\n\
         --learn adds learned fast-forwarding on top of sampling (skips most of the\n\
         functional-warming walk once the per-run ridge model trains); --learn-train\n\
         sets the training stretches, --learn-suffix the always-warmed suffix grains,\n\
         --learn-bound the residual bound in percent;\n\
         check runs the differential oracle over all 9 families + a --fuzz N seeded\n\
         sweep + a --fuzz-espt N trace-decoder sweep (docs/TESTING.md);\n\
         dump prints every selected workload's RunReports for cross-process\n\
         determinism checks (default: all 9 families);\n\
         bench runs the full matrix cold at 1 thread, warm at --threads (skipped on a\n\
         1-core machine), warm in sampled then learned mode with error cross-checks\n\
         (each pass best of --repeat, default 3), measures .espt export/import against\n\
         generate+materialise, and records all passes in BENCH_repro.json (the only\n\
         command that writes it; --force overwrites one recorded at a different scale;\n\
         docs/PERFORMANCE.md, docs/TRACE_FORMAT.md);\n\
         a flag the selected command does not read is a usage error"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
