//! Regenerates the paper's figures and tables, and runs the simulator's
//! correctness, trace-export and timing commands.
//!
//! ```text
//! repro [FLAGS] <all | fig3 ... fig14 | ablate>...
//! repro [FLAGS] explain BENCHMARK-OR-TRACE...
//! repro [FLAGS] check | dump [NAMES-OR-TRACES...] | bench
//! repro [--threads T] --bless
//! ```
//!
//! The `FLAGS` table says which flags each command reads and what value
//! each takes; any other flag on a command line is a usage error, raised
//! before any workload is generated, so a flag is never silently
//! ignored. `repro --help` prints the table as a usage line.
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
//! - `--trace FILE` writes a JSONL span trace whose `run` lines carry
//!   each run's CPI stack, byte-identical for any thread count;
//!   `explain` prints the baseline-vs-ESP CPI-stack delta table of the
//!   paper's Figs. 4/5 (`docs/OBSERVABILITY.md`).
//! - `--sample-period P` runs figures in statistical-sampling mode: one
//!   grain of `--sample-grain` instructions in every P is measured, the
//!   results are estimates with a confidence interval, and trace lines
//!   are tagged `"mode":"sampled"`; exact runs are unchanged
//!   (`docs/PERFORMANCE.md`).
//! - `--trace-in FILE.espt` (repeatable) simulates exactly the imported
//!   traces, in CLI order, with the generator never invoked; `explain`
//!   and `dump` take trace paths wherever a benchmark name goes, and
//!   imported arenas replay byte-identically to generated ones
//!   (`docs/TRACE_FORMAT.md`).
//! - `check`, `dump`, `bench` and `--bless` are described at the
//!   functions that run them.

use esp_bench::{explain, figures, ConfigKey, Runner, WorkloadSpec};
use esp_core::SampleParams;
use esp_trace::{SidecarKey, Workload};
use esp_workload::BenchmarkProfile;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// What the first positional argument (or `--bless`) selects, as far as
/// the flags it reads go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cmd {
    /// One or more figures, or `all`.
    Figure,
    /// A figure run that includes `ablate`: the sweeps run exact on their
    /// own workloads, so it reads only what they read.
    Ablate,
    Explain,
    Dump,
    Check,
    Bench,
    Bless,
}

use Cmd::{Ablate, Bench, Bless, Check, Dump, Explain, Figure};

/// What a flag's value must be, with the placeholder the usage line
/// shows for it.
#[derive(Clone, Copy)]
enum Value {
    /// No value: the flag is a switch.
    Switch,
    /// A `u64`.
    Int(&'static str),
    /// A `u64` of at least 1.
    Positive(&'static str),
    /// A path, described as the error message names it.
    Path(&'static str, &'static str),
}

/// One flag: its name, its value, and the commands that read it.
struct Flag {
    name: &'static str,
    value: Value,
    read_by: &'static [Cmd],
}

/// Every command.
const EVERY: &[Cmd] = &[Figure, Ablate, Explain, Dump, Check, Bench, Bless];
/// Every command but `--bless`, which runs at fixed golden parameters.
const SIMULATING: &[Cmd] = &[Figure, Ablate, Explain, Dump, Check, Bench];
/// The commands that render reports through a `Runner`.
const REPORTING: &[Cmd] = &[Figure, Explain];
/// The commands that take the sampling parameters.
const SAMPLING: &[Cmd] = &[Figure, Explain, Bench];

/// Every flag `repro` knows. Parsing, the check that the selected
/// command reads each flag given, the error messages and the usage line
/// all come from this table. `explain` names its traces as arguments
/// instead of taking `--trace-in`; only `bench` writes a file that
/// `--force` guards.
const FLAGS: [Flag; 12] = [
    Flag { name: "--scale", value: Value::Positive("N"), read_by: SIMULATING },
    Flag { name: "--seed", value: Value::Int("S"), read_by: SIMULATING },
    Flag { name: "--threads", value: Value::Positive("T"), read_by: EVERY },
    Flag { name: "--trace", value: Value::Path("FILE.jsonl", "a file path"), read_by: REPORTING },
    Flag {
        name: "--trace-in",
        value: Value::Path("FILE.espt ...", "a .espt file path"),
        read_by: &[Figure],
    },
    Flag { name: "--trace-out", value: Value::Path("DIR", "a directory path"), read_by: &[Dump] },
    Flag { name: "--force", value: Value::Switch, read_by: &[Bench] },
    Flag { name: "--fuzz", value: Value::Int("N"), read_by: &[Check] },
    Flag { name: "--fuzz-espt", value: Value::Int("N"), read_by: &[Check] },
    Flag { name: "--repeat", value: Value::Positive("N"), read_by: &[Bench] },
    // Ranges are `SampleParams::try_new`'s business (in `main`).
    Flag { name: "--sample-period", value: Value::Int("P"), read_by: SAMPLING },
    Flag { name: "--sample-grain", value: Value::Int("G"), read_by: SAMPLING },
];

/// A flag's parsed value.
enum Arg {
    Switch,
    Int(u64),
    Path(PathBuf),
}

/// A parsed command line: the command, its positional words, and every
/// flag given, in order (a repeated flag keeps each value).
struct Cli {
    cmd: Cmd,
    words: Vec<String>,
    given: Vec<(&'static Flag, Arg)>,
}

impl Cli {
    /// The last value given for the integer flag `name`.
    fn int(&self, name: &str) -> Option<u64> {
        self.given.iter().rev().find_map(|(f, a)| match a {
            Arg::Int(v) if f.name == name => Some(*v),
            _ => None,
        })
    }

    /// Every value given for the path flag `name`, in order.
    fn paths<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Path> + 'a {
        self.given.iter().filter_map(move |(f, a)| match a {
            Arg::Path(p) if f.name == name => Some(p.as_path()),
            _ => None,
        })
    }

    /// Whether the switch `name` was given.
    fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(f, a)| matches!(a, Arg::Switch) && f.name == name)
    }
}

/// Parses `args` (argv without the program name) against [`FLAGS`].
/// An error is the usage message to print; an empty one asks for the
/// usage text alone (`--help`).
fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let (mut words, mut given, mut bless) = (Vec::new(), Vec::new(), false);
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--bless" => bless = true,
            "--help" | "-h" => return Err(String::new()),
            name if name.starts_with('-') => {
                let Some(flag) = FLAGS.iter().find(|f| f.name == name) else {
                    return Err(format!("unknown flag {name}"));
                };
                let arg = match flag.value {
                    Value::Switch => Some(Arg::Switch),
                    Value::Int(_) => args.next().and_then(|v| v.parse().ok()).map(Arg::Int),
                    Value::Positive(_) => {
                        args.next().and_then(|v| v.parse().ok()).filter(|&v| v > 0).map(Arg::Int)
                    }
                    Value::Path(..) => args.next().map(|p| Arg::Path(p.into())),
                };
                let needs = match flag.value {
                    Value::Switch => "",
                    Value::Int(_) => "an integer",
                    Value::Positive(_) => "a positive integer",
                    Value::Path(_, what) => what,
                };
                given.push((flag, arg.ok_or_else(|| format!("{name} needs {needs}"))?));
            }
            _ => words.push(a),
        }
    }
    let (cmd, name) = match (bless, words.first().map(String::as_str)) {
        (true, None) => (Bless, "--bless"),
        (true, Some(_)) => return Err("--bless takes no figure or subcommand".into()),
        (false, None) => return Err("no figure selected".into()),
        (false, Some(w @ "explain")) => (Explain, w),
        (false, Some(w @ "dump")) => (Dump, w),
        (false, Some(w @ "check")) => (Check, w),
        (false, Some(w @ "bench")) => (Bench, w),
        (false, Some(_)) if words.iter().any(|w| w == "ablate") => (Ablate, "ablate"),
        (false, Some(w)) => (Figure, w),
    };
    if let Some((flag, _)) = given.iter().find(|(f, _)| !f.read_by.contains(&cmd)) {
        let hint = if flag.name == "--trace-in" && matches!(cmd, Dump | Explain) {
            format!("; name the traces instead: {name} FILE.espt ...")
        } else {
            String::new()
        };
        return Err(format!("{name} does not take {}{hint}", flag.name));
    }
    Ok(Cli { cmd, words, given })
}

fn main() -> ExitCode {
    let cli = match parse(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => return usage(&e),
    };
    let threads = cli.int("--threads").map(|t| t as usize);
    let threads_or_default = threads.unwrap_or_else(esp_par::threads);
    let scale = cli.int("--scale").unwrap_or(400_000);
    let seed = cli.int("--seed").unwrap_or(42);
    // `check` and `dump` drive the simulator directly at the requested
    // scale, with no Runner involved.
    match cli.cmd {
        Bless => return bless_golden(threads_or_default),
        Dump => {
            let trace_out = cli.paths("--trace-out").last();
            return dump(scale, seed, threads_or_default, &cli.words[1..], trace_out);
        }
        Check => {
            let fuzz_cases = cli.int("--fuzz").unwrap_or(10) as usize;
            let espt_fuzz_cases = cli.int("--fuzz-espt").unwrap_or(500) as usize;
            return check(scale, seed, threads_or_default, fuzz_cases, espt_fuzz_cases);
        }
        _ => {}
    }
    // The grain is checked against the default period first, so the
    // error names the flag at fault.
    let sample_grain = cli.int("--sample-grain").unwrap_or(SampleParams::default().grain_instrs);
    let sample_period = cli.int("--sample-period");
    let default_period = SampleParams::default().period;
    if let Err(e) = SampleParams::try_new(sample_grain, default_period) {
        return usage(&format!("--sample-grain {sample_grain}: {e}"));
    }
    let period = sample_period.unwrap_or(default_period);
    let sample_params = match SampleParams::try_new(sample_grain, period) {
        Ok(p) => p,
        Err(e) => return usage(&format!("--sample-period {period}: {e}")),
    };
    // `bench` runs the timing protocol and is the one writer of
    // BENCH_repro.json.
    if cli.cmd == Bench {
        let repeat = cli.int("--repeat").unwrap_or(3) as usize;
        return bench(scale, seed, threads, cli.switch("--force"), repeat, sample_params);
    }
    // The slot list, resolved before any workload generation happens:
    // `explain`'s arguments (benchmark names or `.espt` trace paths);
    // else `--trace-in` (the run simulates exactly the imported traces,
    // in CLI order, and the generator never runs); otherwise the paper's
    // seven generated profiles. Figure names are checked up front too,
    // so a typo fails before any simulation.
    let specs: Vec<WorkloadSpec> = if cli.cmd == Explain {
        if cli.words.len() < 2 {
            return usage("explain needs at least one benchmark name or trace path");
        }
        match cli.words[1..].iter().map(|b| WorkloadSpec::resolve(b)).collect() {
            Ok(specs) => specs,
            Err(e) => return usage(&e.to_string()),
        }
    } else {
        for name in &cli.words {
            if name != "all" && name != "ablate" {
                if let Err(e) = figures::by_name(name) {
                    return usage(&e.to_string());
                }
            }
        }
        cli.paths("--trace-in").map(|p| WorkloadSpec::Import(p.to_path_buf())).collect()
    };

    let threads = threads_or_default;
    let t_start = Instant::now();
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
    }

    // Attach the trace sink before any simulation runs; refuse paths we
    // cannot create instead of failing mid-run.
    if let Some(path) = cli.paths("--trace").last() {
        if let Err(e) = runner.set_trace_output(path) {
            eprintln!("error: cannot create trace file {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("# tracing to {}", path.display());
    }
    if cli.cmd == Explain {
        // One slot per explain argument, in order — look each up by its
        // resolved slot name (imports report their recorded profile).
        for (spec, b) in specs.iter().zip(runner.names()) {
            let t = Instant::now();
            match explain::explain(&mut runner, &b) {
                Ok(rep) => {
                    let secs = t.elapsed().as_secs_f64();
                    eprintln!("# explain {} ({b}) in {secs:.2}s", spec.describe());
                    println!("{}", rep.render());
                }
                Err(e) => return usage(&e.to_string()),
            }
        }
        return ExitCode::SUCCESS;
    }

    for name in &cli.words {
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
        match names.iter().map(|n| WorkloadSpec::resolve(n)).collect() {
            Ok(specs) => specs,
            Err(e) => return usage(&e.to_string()),
        }
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
/// thread — the comparable trajectory number. Pass 2 reruns it with the
/// workload and arena caches warm at `threads` (default: `ESP_THREADS`
/// or the machine's parallelism), isolating simulation scaling from
/// one-time decode cost; when that count is one the pass is skipped and
/// a note names the count and where it came from (an "Nt" number
/// measured at one thread would just duplicate pass 1). Pass 3 reruns
/// the matrix warm in statistical-sampling mode (`--sample-grain` /
/// `--sample-period`, defaulting to the documented operating point) and
/// cross-checks its CPI against the exact reports of every profile ×
/// {base, runahead, esp_nl} — the per-profile error table goes to
/// stderr and to the JSON (`sampled.per_profile`), the max/mean and the
/// share of those cells whose 95% interval holds the exact CPI
/// (`ci95_coverage`) to the JSON. Pass 1 also records the bytes and
/// build time of the sidecars its runs built: the DCU trigger bits of
/// the next-line runs (`dcu_triggers`) and the branch outcomes of the
/// runs whose predictor sees only retired branches (`branch_outcomes`).
/// Each pass keeps the fastest of `repeat` repetitions ([`best_of`]).
/// All passes and the per-phase wall times land in `BENCH_repro.json`
/// (guarded against cross-scale overwrite). A final trace-I/O
/// measurement exports every family's arena to `.espt`, drops the memo,
/// re-imports from the files, and records both wall times next to the
/// generate/materialise cost they substitute for
/// (`docs/TRACE_FORMAT.md`).
fn bench(
    scale: u64,
    seed: u64,
    threads: Option<usize>,
    force: bool,
    repeat: usize,
    sp: SampleParams,
) -> ExitCode {
    let (threads_nt, threads_from) = match threads {
        Some(t) => (t, "--threads".to_string()),
        None => (esp_par::threads(), default_thread_source()),
    };
    if !bench_json_writable(scale, force) {
        return ExitCode::from(2);
    }
    let families = BenchmarkProfile::all_families();
    // The full matrix on `threads` workers, exact or sampled.
    let matrix = |threads: usize, sampling: Option<SampleParams>| {
        let mut r = Runner::with_profiles(&families, scale, seed, threads);
        r.set_sampling(sampling);
        r.ensure(ConfigKey::all());
        r
    };

    eprintln!(
        "# bench pass 1: cold, 1 thread (scale {scale}, seed {seed}, {} families), best of {repeat}...",
        families.len()
    );
    // A cold repetition regenerates and re-materialises everything:
    // drop the process-wide arena cache left by the previous one.
    let cold = || {
        esp_workload::arena::reset();
        matrix(1, None)
    };
    let dcu = |k: &SidecarKey| matches!(k, SidecarKey::DcuTriggers { .. });
    let (total_1t, (phases, arena_bytes, footprints, sims, instrs)) = best_of(repeat, cold, |r| {
        (
            r.phase_seconds(),
            r.arena_resident_bytes(),
            [r.sidecar_footprint(dcu), r.sidecar_footprint(|k| !dcu(k))],
            r.sims_run(),
            r.instructions_simulated(),
        )
    });
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

    // Pass 2 measures multi-thread scaling, so it only runs when more
    // than one thread was asked for: an "N-thread" number collected on
    // one thread is pass 1 with a misleading label.
    let nt_json = if threads_nt > 1 {
        eprintln!("# bench pass 2: warm arenas, {threads_nt} threads, best of {repeat}...");
        let (total_nt, phases_nt) =
            best_of(repeat, || matrix(threads_nt, None), |r| r.phase_seconds());
        format!(
            "\n  \"threads_nt\": {threads_nt},\n  \"total_seconds_nt\": {total_nt:.3},\n  \
             \"sims_per_sec_nt\": {:.3},\n  \"mips_nt\": {:.3},\n  \
             \"simulate_seconds_nt\": {:.3},",
            sims as f64 / total_nt.max(1e-9),
            instrs as f64 / total_nt.max(1e-9) / 1e6,
            phases_nt.simulate,
        )
    } else {
        let note = format!("N-thread pass skipped: {threads_from} gives 1 thread");
        eprintln!("# bench pass 2: {note}");
        format!("\n  \"threads_nt\": 1,\n  \"nt_note\": \"{note}\",")
    };

    // Pass 3: the same matrix in statistical-sampling mode, warm, one
    // thread — directly comparable to pass 1's simulate phase. Its
    // reports feed the error cross-check below.
    eprintln!(
        "# bench pass 3: sampled (grain {}, period {}), warm, 1 thread, best of {repeat}...",
        sp.grain_instrs, sp.period
    );
    let (total_s, sampled) = best_of(repeat, || matrix(1, Some(sp)), |r| r);
    let phases_s = sampled.phase_seconds();
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
    let cpi = |r: &esp_core::RunReport| r.busy_cycles() as f64 / r.engine.retired as f64;
    // Signed CPI errors in percent, profile-major; cells whose 95% CPI
    // interval holds the exact CPI (a cell without an estimate is not
    // covered); one JSON entry per profile.
    let (mut errs, mut covered, mut rows) = (Vec::new(), 0usize, Vec::new());
    eprintln!("# sampled CPI error vs exact (per profile; base / runahead / esp_nl):");
    for (i, name) in exact.names().iter().enumerate() {
        let mut row = format!("#   {name:<11}");
        let mut cells: Vec<String> = Vec::new();
        for (key, jkey) in MATRIX.into_iter().zip(["base", "runahead", "esp_nl"]) {
            let e_cpi = cpi(exact.cached(i, key).expect("ensured"));
            let err = 100.0 * (cpi(sampled.cached(i, key).expect("ensured")) - e_cpi) / e_cpi;
            errs.push(err);
            covered += usize::from(sampled.estimate(i, key).is_some_and(|e| e.cpi.covers(e_cpi)));
            row.push_str(&format!(" {err:+6.2}%"));
            cells.push(format!("\"{jkey}\": {err:.3}"));
        }
        eprintln!("{row}");
        rows.push(format!("\"{name}\": {{{}}}", cells.join(", ")));
    }
    let cells = errs.len();
    let max_err = errs.iter().fold(0f64, |m, e| m.max(e.abs()));
    let mean_err = errs.iter().map(|e| e.abs()).sum::<f64>() / cells as f64;
    let coverage = covered as f64 / cells as f64;
    eprintln!(
        "# sampled error: max |{max_err:.2}|%, mean |{mean_err:.2}|% over {cells} cells; \
         ci95 coverage {covered}/{cells}"
    );
    let per_profile_json = rows.join(",\n      ");
    // Read what the record needs from the sampled runner, then drop it:
    // a runner alive at the trace-I/O pass below keeps its arenas
    // resident next to the re-imported ones.
    let effective_mips = sampled.instructions_simulated() as f64 / total_s.max(1e-9) / 1e6;
    drop(sampled);

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
         \"per_profile\": {{\n      {per_profile_json}\n    }}}}\n}}\n",
        sims as f64 / total_1t.max(1e-9),
        sims as f64 / total_1t.max(1e-9),
        phases.generate,
        phases.materialise,
        phases.simulate,
        sp.grain_instrs,
        sp.period,
        phases_s.simulate,
        sims as f64 / total_s.max(1e-9),
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

/// Runs `pass` `repeat` times and returns the fastest repetition's wall
/// seconds with what `keep` takes from its runner. Every repetition
/// simulates the same deterministic work, so the minimum is the one
/// least disturbed by background load — the standard protocol for
/// shared machines.
fn best_of<T>(
    repeat: usize,
    mut pass: impl FnMut() -> Runner,
    mut keep: impl FnMut(Runner) -> T,
) -> (f64, T) {
    let mut best: Option<(f64, T)> = None;
    for rep in 1..=repeat {
        let t = Instant::now();
        let runner = pass();
        let total = t.elapsed().as_secs_f64();
        eprintln!(
            "#   rep {rep}: {total:.2}s ({:.3} sims/s)",
            runner.sims_run() as f64 / total.max(1e-9)
        );
        if best.as_ref().is_none_or(|(b, _)| total < *b) {
            best = Some((total, keep(runner)));
        }
    }
    best.expect("repeat >= 1")
}

/// Where `esp_par::threads` takes its count from: the `ESP_THREADS`
/// variable when it holds a positive integer, otherwise the machine.
fn default_thread_source() -> String {
    let env = esp_par::THREADS_ENV;
    match std::env::var(env) {
        Ok(v) if v.trim().parse::<usize>().is_ok_and(|n| n > 0) => format!("{env}={}", v.trim()),
        _ => "the machine's parallelism".to_string(),
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
    let flags: Vec<String> = FLAGS
        .iter()
        .map(|f| match f.value {
            Value::Switch => format!("[{}]", f.name),
            Value::Int(v) | Value::Positive(v) | Value::Path(v, _) => format!("[{} {v}]", f.name),
        })
        .collect();
    let figures: Vec<&str> = figures::FIGURES.iter().map(|(id, _)| *id).collect();
    eprintln!(
        "usage: repro {} <all | {} | ablate \
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
         check runs the differential oracle over all 9 families + a --fuzz N seeded\n\
         sweep + a --fuzz-espt N trace-decoder sweep (docs/TESTING.md);\n\
         dump prints every selected workload's RunReports for cross-process\n\
         determinism checks (default: all 9 families);\n\
         bench runs the full matrix cold at 1 thread, warm at --threads (skipped at\n\
         1 thread), warm in sampled mode with an error cross-check (each pass best\n\
         of --repeat, default 3), measures .espt export/import against\n\
         generate+materialise, and records all passes in BENCH_repro.json (the only\n\
         command that writes it; --force overwrites one recorded at a different scale;\n\
         docs/PERFORMANCE.md, docs/TRACE_FORMAT.md);\n\
         a flag the selected command does not read is a usage error",
        flags.join(" "),
        figures.join(" ")
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A command line selecting `cmd`.
    fn command_words(cmd: Cmd) -> &'static [&'static str] {
        match cmd {
            Figure => &["fig9"],
            Ablate => &["fig9", "ablate"],
            Explain => &["explain", "amazon"],
            Dump => &["dump"],
            Check => &["check"],
            Bench => &["bench"],
            Bless => &["--bless"],
        }
    }

    /// `flag` with a value it accepts, followed by `cmd`'s words.
    fn argv(flag: &Flag, cmd: Cmd) -> Vec<String> {
        let mut args = vec![flag.name.to_string()];
        match flag.value {
            Value::Switch => {}
            Value::Int(_) | Value::Positive(_) => args.push("1".into()),
            Value::Path(..) => args.push("x".into()),
        }
        args.extend(command_words(cmd).iter().map(|w| w.to_string()));
        args
    }

    #[test]
    fn every_command_refuses_each_flag_it_does_not_read() {
        for flag in &FLAGS {
            for cmd in EVERY.iter().copied() {
                let args = argv(flag, cmd);
                match parse(args.clone()) {
                    Ok(cli) if flag.read_by.contains(&cmd) => assert_eq!(cli.cmd, cmd, "{args:?}"),
                    Ok(_) => panic!("{args:?}: parsed, but {cmd:?} does not read {}", flag.name),
                    Err(e) if flag.read_by.contains(&cmd) => panic!("{args:?}: {e}"),
                    Err(e) => assert!(
                        e.contains(&format!("does not take {}", flag.name)),
                        "{args:?}: {e}"
                    ),
                }
            }
        }
    }

    #[test]
    fn a_repeated_flag_keeps_every_path_and_the_last_number() {
        let args = "--trace-in a --trace-in b --seed 1 --seed 2 fig9".split(' ');
        let cli = parse(args.map(String::from)).expect("valid command line");
        assert_eq!(cli.int("--seed"), Some(2));
        assert_eq!(cli.paths("--trace-in").collect::<Vec<_>>(), [Path::new("a"), Path::new("b")]);
    }
}
