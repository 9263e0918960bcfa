//! The traced pass: host time per layer, measured from outside the
//! simulator by timing calls into each layer's public functions, plus
//! the overhead of the benchmark's own span recording.
//!
//! Every call below is a span named `layer.what`; a layer's self time
//! is what its spans cover minus their children. Time per instruction
//! sums the per-family medians of `REPS` repetitions. Times are
//! nominal-host times (see `calib`), scaled by one host-speed factor
//! measured across the pass and reported as `bench.host_speed`.

use crate::calib::HostSpeed;
use crate::matrix::{self, attempt, guarded, Family, Mode, Outcome, Tally, ACCURACY_KEYS};
use crate::reference::Reference;
use crate::spans::Spans;
use crate::{median, Metric};
use esp_bench::ConfigKey;
use esp_core::{LearnParams, SimConfig, Simulator};
use esp_learn::{FeatureExtractor, Footprint, Model, FEATURE_DIM, TARGETS};
use esp_mem::MemoryHierarchy;
use esp_obs::{CpiObserver, TraceProbe};
use esp_trace::{Instr, PackedCursor, PackedWorkload, WarmSink, Workload};
use esp_types::{Cycle, LineAddr};
use esp_uarch::Engine;
use std::hint::black_box;
use std::time::Instant;

/// Repetitions of each timed layer call; the median is kept.
const REPS: usize = 3;
/// Calibration chunks run between layer groups.
const CALIBRATION: u32 = 50;
/// Feature vectors fed to the model fit/predict timing.
const MODEL_SAMPLES: usize = 4096;

/// The layers (this repository's crates) self time is reported for.
const SELF_TIME: [(&str, &str); 7] = [
    ("workload", "workload.self_s"),
    ("trace", "trace.self_s"),
    ("uarch", "uarch.self_s"),
    ("mem", "mem.self_s"),
    ("core", "core.self_s"),
    ("learn", "learn.self_s"),
    ("obs", "obs.self_s"),
];

/// A sink that only counts the warming callbacks it receives.
#[derive(Default)]
struct CountingSink(u64);

impl WarmSink for CountingSink {
    fn warm_fetch_line(&mut self, _line: u64) {
        self.0 += 1;
    }
    fn warm_load(&mut self, _pc: u64, _addr: u64) {
        self.0 += 1;
    }
    fn warm_store(&mut self, _addr: u64) {
        self.0 += 1;
    }
    fn warm_branch(&mut self, _instr: &Instr) {
        self.0 += 1;
    }
}

fn actual_cursors(w: &PackedWorkload) -> impl Iterator<Item = PackedCursor<'_>> {
    let arena = w.arena();
    (0..arena.len()).map(move |i| arena.event(i).actual().cursor())
}

/// The median of `REPS` timings of `f` inside the span `span`, and the
/// last repetition's state; `prep` builds each repetition's state
/// outside the timing.
fn median_time<S>(
    spans: &mut Spans,
    span: &'static str,
    mut prep: impl FnMut() -> S,
    mut f: impl FnMut(&mut S),
) -> (f64, S) {
    let mut t = Vec::with_capacity(REPS);
    let mut state = prep();
    for rep in 0..REPS {
        if rep > 0 {
            state = prep();
        }
        spans.enter(span);
        f(&mut state);
        t.push(spans.exit());
    }
    (median(&mut t), state)
}

/// Runs the traced pass on freshly set-up `families`, whose set-up
/// seconds are given; writes the spans to `spans_path`.
#[allow(clippy::too_many_arguments)]
pub fn traced(
    mode: Mode,
    families: &[Family],
    (generate_s, materialise_s): (f64, f64),
    seconds: f64,
    reference: Option<&Reference>,
    mut spans: Spans,
    spans_path: &std::path::Path,
    tally: &mut Tally,
) -> Vec<Metric> {
    let arena_bytes: u64 = families.iter().map(|f| f.packed.resident_bytes()).sum();
    let mut m = vec![
        ("workload.generate_s", generate_s, "s"),
        ("workload.materialise_s", materialise_s, "s"),
        (
            "workload.arena_mib",
            arena_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ];
    // One host-speed factor for the whole pass, from calibration chunks
    // run between the layer groups.
    let mut speed = HostSpeed::default();
    speed.sample(CALIBRATION);
    spans.enter("bench.layers");
    m.extend(walks(families, &mut spans));
    speed.sample(CALIBRATION);
    m.extend(exact_layers(families, reference, &mut spans, tally));
    speed.sample(CALIBRATION);
    m.extend(estimating_layers(families, &mut spans, tally));
    speed.sample(CALIBRATION);
    m.extend(model(families, &mut spans));
    spans.exit();
    speed.sample(CALIBRATION);
    m.push((
        "bench.trace_overhead_pct",
        span_overhead(mode, families, seconds, reference, &mut spans, tally),
        "%",
    ));
    let by_layer = spans.self_seconds();
    for (layer, name) in SELF_TIME {
        m.push((name, by_layer.get(layer).copied().unwrap_or(0.0), "s"));
    }
    for (_, value, unit) in &mut m {
        if matches!(*unit, "s" | "us" | "ns/instr" | "ns/line") {
            *value *= speed.relative();
        }
    }
    m.push(("bench.host_speed", speed.relative(), "ratio"));
    let written = spans.write_jsonl(spans_path).map_err(|e| e.to_string());
    if tally.count("writing the span file", written).is_some() {
        eprintln!(
            "perfbench: wrote {} spans to {}",
            spans.len(),
            spans_path.display()
        );
    }
    m
}

/// The trace walks and the walks that feed warming state.
fn walks(families: &[Family], spans: &mut Spans) -> Vec<Metric> {
    let line_bytes = SimConfig::base().engine.machine.hierarchy.l1i.line_bytes;
    let (mut instrs, mut lines) = (0u64, 0u64);
    let (mut drain, mut warm, mut skip, mut uarch_warm, mut reinstall) = (0.0, 0.0, 0.0, 0.0, 0.0);
    for family in families {
        let w = family.packed.as_ref();
        instrs += w.approx_total_instructions();
        drain += median_time(
            spans,
            "trace.drain",
            || 0u64,
            |acc| {
                let arena = w.arena();
                for i in 0..arena.len() {
                    let mut c = arena.event(i).actual_cursor();
                    while let Some(step) = c.next_raw() {
                        *acc = acc.wrapping_add(step.op);
                    }
                }
                black_box(*acc);
            },
        )
        .0;
        warm += median_time(spans, "trace.warm_walk", CountingSink::default, |sink| {
            for mut c in actual_cursors(w) {
                c.warm_walk_bounded(u64::MAX, line_bytes, sink);
            }
            black_box(sink.0);
        })
        .0;
        let (s, footprint) = median_time(
            spans,
            "trace.skip_walk",
            || Footprint::new(line_bytes),
            |fp| {
                for mut c in actual_cursors(w) {
                    c.skip_walk_observed(u64::MAX, line_bytes, fp);
                }
            },
        );
        skip += s;
        uarch_warm += median_time(
            spans,
            "uarch.warm",
            || Engine::new(SimConfig::base().engine),
            |engine| {
                for mut c in actual_cursors(w) {
                    c.warm_walk_bounded(u64::MAX, line_bytes, engine);
                }
                black_box(engine.now());
            },
        )
        .0;
        let (ilines, dlines): (Vec<u64>, Vec<u64>) =
            (footprint.i_lines().collect(), footprint.d_lines().collect());
        lines += (ilines.len() + dlines.len()) as u64;
        let hierarchy = SimConfig::base().engine.machine.hierarchy;
        reinstall += median_time(
            spans,
            "mem.reinstall",
            || MemoryHierarchy::new(hierarchy.clone()),
            |mem| {
                for &l in &ilines {
                    mem.warm_prefetch_instr(LineAddr::new(l), Cycle::ZERO);
                }
                for &l in &dlines {
                    mem.warm_prefetch_data(LineAddr::new(l), Cycle::ZERO);
                }
                black_box(&*mem);
            },
        )
        .0;
    }
    let per_instr = |s: f64| s * 1e9 / instrs as f64;
    vec![
        ("trace.drain_ns_per_instr", per_instr(drain), "ns/instr"),
        ("trace.warm_walk_ns_per_instr", per_instr(warm), "ns/instr"),
        ("trace.skip_walk_ns_per_instr", per_instr(skip), "ns/instr"),
        ("uarch.warm_ns_per_instr", per_instr(uarch_warm), "ns/instr"),
        (
            "mem.reinstall_ns_per_line",
            reinstall * 1e9 / lines.max(1) as f64,
            "ns/line",
        ),
    ]
}

/// Runs each of `probes` once per repetition, interleaved so that a
/// difference between two of them is taken between calls made close in
/// time; returns per probe the median seconds and the last passing
/// outcome.
fn interleaved<const N: usize>(
    probes: [(&'static str, Mode, ConfigKey); N],
    family: &Family,
    reference: Option<&Reference>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> [(f64, Option<Outcome>); N] {
    let mut times: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(REPS));
    let mut last: [Option<Outcome>; N] = std::array::from_fn(|_| None);
    for _ in 0..REPS {
        for (j, (span, mode, key)) in probes.into_iter().enumerate() {
            let (out, dt) = attempt(span, (mode, key), family, reference, spans, tally);
            times[j].push(dt);
            if out.is_some() {
                last[j] = out;
            }
        }
    }
    let mut times = times.into_iter();
    last.map(|out| {
        (
            median(&mut times.next().expect("one timing list per probe")),
            out,
        )
    })
}

/// Exact-mode layers, each isolated as a difference against the Base
/// run of the same family: the fused kernel, runahead episodes,
/// prefetchers, ESP window spending and list replay, and the JSONL
/// trace probe.
fn exact_layers(
    families: &[Family],
    reference: Option<&Reference>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> Vec<Metric> {
    let probes = [
        ("uarch.kernel", Mode::Exact, ConfigKey::Base),
        ("uarch.runahead", Mode::Exact, ConfigKey::Runahead),
        ("mem.prefetch", Mode::Exact, ConfigKey::NextLineStride),
        ("core.esp", Mode::Exact, ConfigKey::Esp),
    ];
    let (mut retired, mut base_s, mut ra_s, mut nls_s, mut esp_s) = (0u64, 0.0, 0.0, 0.0, 0.0);
    let (mut ra_instrs, mut spec, mut windows, mut replay) = (0u64, 0u64, 0u64, 0u64);
    let (mut offered, mut utilized) = (0u64, 0u64);
    let (mut plain_s, mut probed_s, mut trace_bytes, mut probed_runs) = (0.0, 0.0, 0u64, 0u64);
    for family in families {
        let [(base, Some(out)), (ra, Some(ra_out)), (nls, Some(_)), (esp, Some(esp_out))] =
            interleaved(probes, family, reference, spans, tally)
        else {
            continue;
        };
        retired += out.report.engine.retired;
        base_s += base;
        ra_s += ra;
        nls_s += nls;
        esp_s += esp;
        ra_instrs += ra_out.report.engine.runahead_instrs;
        let r = &esp_out.report;
        spec += r.esp.spec_instrs();
        windows += r.esp.windows;
        replay += r.replay.iprefetches + r.replay.dprefetches + r.replay.btrains;

        let w = family.packed.as_ref();
        let esp_sim = Simulator::new(ConfigKey::Esp.config());
        let (observed, _) = guarded("core.esp_observed", spans, || {
            let mut observer = CpiObserver::default();
            let report = esp_sim.run_probed(w, &mut observer);
            (
                Outcome {
                    report,
                    estimate: None,
                    learned: None,
                },
                observer,
            )
        });
        let observed = observed.and_then(|(out, o)| {
            matrix::check(Mode::Exact, ConfigKey::Esp, family, &out, reference).map(|()| o)
        });
        if let Some(o) = tally.count(&format!("{}/Esp (observed)", family.name), observed) {
            offered += o.offered_cycles;
            utilized += o.utilized_cycles;
        }

        // The JSONL trace probe against the same run unprobed, alternated.
        let key = ConfigKey::EspNl;
        let sim = Simulator::new(key.config());
        let (mut plain, mut probed) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            plain.push(
                attempt(
                    "core.esp_nl",
                    (Mode::Exact, key),
                    family,
                    reference,
                    spans,
                    tally,
                )
                .1,
            );
            let (result, dt) = guarded("obs.trace_probe", spans, || {
                let mut probe = TraceProbe::new(family.name, key.label());
                let report = sim.run_probed(w, &mut probe);
                (
                    Outcome {
                        report,
                        estimate: None,
                        learned: None,
                    },
                    probe.into_bytes(),
                )
            });
            let result = result.and_then(|(out, bytes)| {
                matrix::check(Mode::Exact, key, family, &out, reference).map(|()| bytes)
            });
            if let Some(bytes) =
                tally.count(&format!("{}/EspNl (trace probe)", family.name), result)
            {
                trace_bytes += bytes.len() as u64;
                probed_runs += 1;
            }
            probed.push(dt);
        }
        plain_s += median(&mut plain);
        probed_s += median(&mut probed);
    }
    let ns = |s: f64, n: u64| s * 1e9 / n.max(1) as f64;
    vec![
        ("uarch.kernel_ns_per_instr", ns(base_s, retired), "ns/instr"),
        (
            "uarch.runahead_ns_per_instr",
            ns(ra_s - base_s, ra_instrs),
            "ns/instr",
        ),
        ("uarch.runahead_instrs", ra_instrs as f64, "count"),
        (
            "mem.prefetch_ns_per_instr",
            ns(nls_s - base_s, retired),
            "ns/instr",
        ),
        (
            "core.esp_ns_per_spec_instr",
            ns(esp_s - base_s, spec),
            "ns/instr",
        ),
        ("core.esp_spec_instrs", spec as f64, "count"),
        ("core.esp_windows", windows as f64, "count"),
        (
            "core.esp_window_use",
            utilized as f64 / offered.max(1) as f64,
            "ratio",
        ),
        ("core.replay_entries", replay as f64, "count"),
        (
            "obs.trace_overhead_pct",
            100.0 * (probed_s - plain_s) / plain_s,
            "%",
        ),
        (
            "obs.trace_bytes_per_sim",
            trace_bytes as f64 / probed_runs.max(1) as f64,
            "B",
        ),
    ]
}

/// Plain sampled and learned runs over the accuracy cells: time per
/// whole-run instruction, and the learned controller's statistics.
fn estimating_layers(families: &[Family], spans: &mut Spans, tally: &mut Tally) -> Vec<Metric> {
    let (mut instrs, mut sampled_s, mut learned_s) = (0u64, 0.0, 0.0);
    let (mut cells, mut skip, mut fallback, mut reruns) = (0u64, 0.0, 0.0, 0u64);
    for family in families {
        for key in ACCURACY_KEYS {
            let probes = [
                ("core.sampled", Mode::Sampled, key),
                ("learn.sampled_learned", Mode::Learned, key),
            ];
            let [(s, Some(sampled)), (l, Some(learned))] =
                interleaved(probes, family, None, spans, tally)
            else {
                continue;
            };
            let stats = learned.learned.expect("checked learned outcome");
            instrs += sampled.report.engine.retired;
            sampled_s += s;
            learned_s += l;
            cells += 1;
            skip += stats.skip_fraction();
            fallback += stats.fallback_rate();
            reruns += u64::from(stats.rerun_full);
        }
    }
    let n = cells.max(1) as f64;
    let ns = |s: f64| s * 1e9 / instrs.max(1) as f64;
    vec![
        ("core.sampled_ns_per_instr", ns(sampled_s), "ns/instr"),
        ("learn.ns_per_instr", ns(learned_s), "ns/instr"),
        ("learn.skip_fraction", skip / n, "ratio"),
        ("learn.fallback_rate", fallback / n, "ratio"),
        ("learn.rerun_full_runs", reruns as f64, "count"),
    ]
}

/// `Model::observe` and `Model::predict` of the default model kind, on
/// per-event feature vectors extracted from the workloads.
fn model(families: &[Family], spans: &mut Spans) -> Vec<Metric> {
    let line_bytes = SimConfig::base().engine.machine.hierarchy.l1i.line_bytes;
    let mut samples: Vec<([f64; FEATURE_DIM], [f64; TARGETS])> = Vec::new();
    'outer: for family in families {
        let mut fx = FeatureExtractor::new(line_bytes);
        for mut c in actual_cursors(&family.packed) {
            if samples.len() == MODEL_SAMPLES {
                break 'outer;
            }
            fx.begin_stretch(0, 1.0);
            let walked = c.warm_walk_bounded(u64::MAX, line_bytes, &mut fx);
            fx.add_instrs(walked);
            fx.note_event();
            let x = fx.features();
            let y = std::array::from_fn(|t| x[1 + t]);
            samples.push((x, y));
        }
    }
    let kind = LearnParams::default().model;
    let (fit, fitted) = median_time(
        spans,
        "learn.fit",
        || Model::new(kind),
        |model| {
            for (x, y) in &samples {
                model.observe(x, y);
            }
        },
    );
    let predict = median_time(
        spans,
        "learn.predict",
        || 0.0,
        |acc| {
            for (x, _) in &samples {
                *acc += fitted.predict(x)[0];
            }
            black_box(*acc);
        },
    )
    .0;
    let n = samples.len().max(1) as f64;
    vec![
        ("learn.fit_us", fit * 1e6 / n, "us"),
        ("learn.predict_us", predict * 1e6 / n, "us"),
    ]
}

/// Alternates untraced and traced passes of the workload's matrix until
/// `seconds` would be overrun (one pair at least), and returns how much
/// lower the traced median sims/s is, in percent of the untraced one.
fn span_overhead(
    mode: Mode,
    families: &[Family],
    seconds: f64,
    reference: Option<&Reference>,
    spans: &mut Spans,
    tally: &mut Tally,
) -> f64 {
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    spans.enter("bench.matrix");
    let start = Instant::now();
    loop {
        for record in [false, true] {
            spans.set_record(record);
            let timed = matrix::timed_matrix(mode, families, 0.0, reference, spans, tally);
            let (s, _, n) = timed.passes[0];
            (if record { &mut traced } else { &mut untraced }).push(n as f64 / s);
        }
        let pairs = traced.len() as f64;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed * (pairs + 1.0) / pairs > seconds {
            break;
        }
    }
    spans.exit();
    let (u, t) = (median(&mut untraced), median(&mut traced));
    100.0 * (u - t) / u
}
