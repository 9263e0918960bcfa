//! The plan-then-execute simulation runner shared by all figures.
//!
//! Figures declare the `(profile, ConfigKey)` pairs they need via
//! [`Runner::ensure`]; the runner executes every missing pair across N
//! worker threads (each simulation is deterministic and independent, so
//! the fan-out is fidelity-free), and [`Runner::run`] /
//! [`Runner::improvements`] / [`Runner::metric`] become cache lookups.

use crate::source::WorkloadSpec;
use esp_core::{RunReport, SampleParams, SamplingEstimate, SimConfig, SimMode, Simulator};
use esp_obs::TraceProbe;
use esp_stats::Table;
use esp_trace::{PackedWorkload, SidecarKey, Workload};
use esp_uarch::PerfectFlags;
use esp_workload::{arena, BenchmarkProfile};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One planned simulation's outputs: the report, its serialised trace
/// bytes, and the sampling estimate when the run sampled.
type RunOutput = (RunReport, Vec<u8>, Option<SamplingEstimate>);

/// Every machine configuration the evaluation compares, as a nameable
/// key (so runs can be cached and reports labelled consistently).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ConfigKey {
    Base,
    NextLine,
    NextLineStride,
    Runahead,
    RunaheadNl,
    Esp,
    EspNl,
    NaiveEsp,
    NaiveEspNl,
    EspINl,
    EspIbNl,
    NlIOnly,
    NlDOnly,
    EspI,
    EspINlI,
    IdealEspINlI,
    RunaheadD,
    RunaheadDNlD,
    EspD,
    EspDNlD,
    IdealEspDNlD,
    EspBpShared,
    EspBpSeparateContext,
    EspBpSeparateTables,
    PerfectL1i,
    PerfectL1d,
    PerfectBranch,
    PerfectAll,
    EspDepthProbe,
}

/// The simulator configuration constructor behind a [`ConfigKey`].
type Preset = fn() -> SimConfig;

/// Every configuration key with its report label and preset, in
/// declaration order: row `i` holds the key whose discriminant is `i`,
/// so [`ConfigKey::label`] and [`ConfigKey::config`] index it directly.
const PRESETS: [(ConfigKey, &str, Preset); 29] = [
    (ConfigKey::Base, "base", SimConfig::base),
    (ConfigKey::NextLine, "NL", SimConfig::next_line),
    (ConfigKey::NextLineStride, "NL + S", SimConfig::next_line_stride),
    (ConfigKey::Runahead, "Runahead", SimConfig::runahead),
    (ConfigKey::RunaheadNl, "Runahead + NL", SimConfig::runahead_nl),
    (ConfigKey::Esp, "ESP", SimConfig::esp),
    (ConfigKey::EspNl, "ESP + NL", SimConfig::esp_nl),
    (ConfigKey::NaiveEsp, "Naive ESP", SimConfig::naive_esp),
    (ConfigKey::NaiveEspNl, "Naive ESP + NL", SimConfig::naive_esp_nl),
    (ConfigKey::EspINl, "ESP-I + NL", SimConfig::esp_i_nl),
    (ConfigKey::EspIbNl, "ESP-I,B + NL", SimConfig::esp_ib_nl),
    (ConfigKey::NlIOnly, "NL-I", SimConfig::nl_i_only),
    (ConfigKey::NlDOnly, "NL-D", SimConfig::nl_d_only),
    (ConfigKey::EspI, "ESP-I", SimConfig::esp_i),
    (ConfigKey::EspINlI, "ESP-I + NL-I", SimConfig::esp_i_nl_i),
    (ConfigKey::IdealEspINlI, "ideal ESP-I + NL-I", SimConfig::ideal_esp_i_nl_i),
    (ConfigKey::RunaheadD, "Runahead-D", SimConfig::runahead_d),
    (ConfigKey::RunaheadDNlD, "Runahead-D + NL-D", SimConfig::runahead_d_nl_d),
    (ConfigKey::EspD, "ESP-D", SimConfig::esp_d),
    (ConfigKey::EspDNlD, "ESP-D + NL-D", SimConfig::esp_d_nl_d),
    (ConfigKey::IdealEspDNlD, "ideal ESP-D + NL-D", SimConfig::ideal_esp_d_nl_d),
    (ConfigKey::EspBpShared, "no extra H/W", SimConfig::esp_bp_shared),
    (ConfigKey::EspBpSeparateContext, "separate context", SimConfig::esp_bp_separate_context),
    (
        ConfigKey::EspBpSeparateTables,
        "separate context and tables",
        SimConfig::esp_bp_separate_tables,
    ),
    (ConfigKey::PerfectL1i, "perfect L1I-cache", || {
        SimConfig::perfect(PerfectFlags::perfect_l1i())
    }),
    (ConfigKey::PerfectL1d, "perfect L1D-cache", || {
        SimConfig::perfect(PerfectFlags::perfect_l1d())
    }),
    (ConfigKey::PerfectBranch, "perfect Branch Predictor", || {
        SimConfig::perfect(PerfectFlags::perfect_branch())
    }),
    (ConfigKey::PerfectAll, "perfect All", || SimConfig::perfect(PerfectFlags::all())),
    (ConfigKey::EspDepthProbe, "ESP depth probe", SimConfig::esp_depth_probe),
];

/// The keys of [`PRESETS`], in its order.
const KEYS: [ConfigKey; PRESETS.len()] = {
    let mut keys = [ConfigKey::Base; PRESETS.len()];
    let mut i = 0;
    while i < keys.len() {
        keys[i] = PRESETS[i].0;
        i += 1;
    }
    keys
};

impl ConfigKey {
    /// Every configuration in the evaluation matrix, in declaration
    /// order — the full plan for a figure regeneration.
    pub fn all() -> &'static [ConfigKey] {
        &KEYS
    }

    /// The short label used in report rows.
    pub fn label(self) -> &'static str {
        PRESETS[self as usize].1
    }

    /// The simulator configuration this key denotes.
    pub fn config(self) -> SimConfig {
        (PRESETS[self as usize].2)()
    }
}

/// One regenerated figure or table: a title, one or more tables, and
/// explanatory notes (what the paper reported, for EXPERIMENTS.md).
#[derive(Clone, Debug)]
pub struct FigureReport {
    /// "Fig. 9", "Fig. 6 (table)", …
    pub id: &'static str,
    /// The figure's caption.
    pub title: &'static str,
    /// Captioned tables.
    pub tables: Vec<(String, Table)>,
    /// Comparison notes against the paper.
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Renders the report as plain text.
    pub fn render(&self) -> String {
        let mut out = format!("=== {} — {} ===\n", self.id, self.title);
        for (caption, table) in &self.tables {
            if !caption.is_empty() {
                out.push_str(caption);
                out.push('\n');
            }
            out.push_str(&table.to_string());
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str("note: ");
            out.push_str(n);
            out.push('\n');
        }
        out
    }
}

/// Wall-clock seconds a [`Runner`] spent in each phase of its lifetime:
/// generating workloads, materialising packed trace arenas, and running
/// simulations. Warm (memoised) phases report the near-zero cache-lookup
/// time actually spent, not the cost of the original cold build.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseSeconds {
    /// Seed → [`esp_workload::GeneratedWorkload`] generation.
    pub generate: f64,
    /// Walk → packed arena materialisation (decode-once).
    pub materialise: f64,
    /// Accumulated simulation time across every [`Runner::ensure`] batch.
    pub simulate: f64,
}

/// A caching simulation runner: one workload per benchmark profile, one
/// memoised [`RunReport`] per (profile, configuration), with parallel
/// batch execution of whatever the figures plan ahead via
/// [`Runner::ensure`].
///
/// Instruction streams are decoded once: construction materialises each
/// profile's workload into a packed [`TraceArena`](esp_trace::TraceArena)
/// (memoised process-wide in [`esp_workload::arena`], so a second runner
/// at the same scale/seed is warm), and every simulation replays the
/// shared arena through allocation-free cursors instead of regenerating
/// its streams — see `docs/PERFORMANCE.md`.
pub struct Runner {
    scale: u64,
    threads: usize,
    slots: Vec<Slot>,
    phases: PhaseSeconds,
    cache: HashMap<(usize, ConfigKey), RunReport>,
    sims_run: u64,
    /// When set, every simulation runs in statistical-sampling mode
    /// (`Simulator::run_sampled`) with these parameters instead of the
    /// exact interval loop; trace lines are tagged `"mode":"sampled"`.
    sampling: Option<SampleParams>,
    /// Sampling estimates per (slot, configuration), captured by
    /// [`Runner::ensure`] whenever `sampling` is active.
    estimates: HashMap<(usize, ConfigKey), SamplingEstimate>,
    /// JSONL trace sink; when set, every simulation runs with a
    /// [`TraceProbe`] and per-worker buffers are appended here in input
    /// order (so the file is byte-identical for any thread count).
    trace: Option<std::io::BufWriter<std::fs::File>>,
}

/// One benchmark seat in the runner: the display name, the built-in
/// profile behind it (`None` for a workload imported from an `.espt`
/// trace, which has no generative parameters), and the packed arena
/// every simulation replays. No generator is kept: once packed, nothing
/// reads it.
struct Slot {
    name: String,
    profile: Option<BenchmarkProfile>,
    packed: Arc<PackedWorkload>,
}

impl Runner {
    /// Builds workloads for the paper's seven profiles at `scale`
    /// instructions each, using [`esp_par::threads`] worker threads —
    /// the machine's parallelism, overridable through the `ESP_THREADS`
    /// environment variable.
    pub fn new(scale: u64, seed: u64) -> Self {
        Self::with_threads(scale, seed, esp_par::threads())
    }

    /// Like [`Runner::new`] with an explicit worker-thread count.
    pub fn with_threads(scale: u64, seed: u64, threads: usize) -> Self {
        Self::with_profiles(&BenchmarkProfile::all(), scale, seed, threads)
    }

    /// Builds a runner over an explicit profile list (e.g.
    /// [`BenchmarkProfile::all_families`] for the extended matrix). Each
    /// profile is scaled to `scale` instructions, generated, and
    /// materialised through the process-wide arena memo.
    pub fn with_profiles(
        profiles: &[BenchmarkProfile],
        scale: u64,
        seed: u64,
        threads: usize,
    ) -> Self {
        let specs: Vec<WorkloadSpec> =
            profiles.iter().map(|p| WorkloadSpec::Builtin(p.clone())).collect();
        Self::from_specs(&specs, scale, seed, threads)
            .expect("built-in profiles cannot fail to resolve")
    }

    /// Builds a runner over a mixed list of workload sources: built-in
    /// profiles are generated (at `scale`/`seed`) exactly as in
    /// [`Runner::with_profiles`]; `.espt` imports are read from disk and
    /// seated in the arena memo under their recorded provenance, taking
    /// the place of generation. Slots keep the spec order, so a
    /// `--trace-in` run simulates exactly the imported traces, in CLI
    /// order, with generation never invoked for them.
    ///
    /// # Errors
    ///
    /// [`esp_types::Error::InvalidWorkload`] when an import path cannot
    /// be read or fails ESPT validation (the underlying
    /// [`esp_trace::espt::EsptError`] is quoted in the message).
    pub fn from_specs(
        specs: &[WorkloadSpec],
        scale: u64,
        seed: u64,
        threads: usize,
    ) -> esp_types::Result<Self> {
        let threads = threads.max(1);
        // Profiles are generated and materialised one after another, so
        // at most one generator is alive at a time (packing releases it).
        // The per-event decode of each is fanned over the pool: events
        // outnumber profiles, so this balances better than one thread per
        // profile. A profile whose arena is already in the memo (a warm
        // runner) is not generated again. Imports are read in the
        // materialise phase, their decode being its analogue.
        let (mut generate, mut materialise) = (0.0, 0.0);
        let mut slots = Vec::with_capacity(specs.len());
        for spec in specs {
            let t = Instant::now();
            match spec {
                WorkloadSpec::Builtin(p) => {
                    let p = p.scaled(scale);
                    let g = arena::resident(&p, seed).is_none().then(|| arena::generated(&p, seed));
                    generate += t.elapsed().as_secs_f64();
                    let t = Instant::now();
                    let packed = match g {
                        Some(g) => arena::packed(&p, &g, seed, threads),
                        None => arena::packed_for(&p, seed, threads),
                    };
                    materialise += t.elapsed().as_secs_f64();
                    slots.push(Slot { name: p.name().to_string(), profile: Some(p), packed });
                }
                WorkloadSpec::Import(path) => {
                    let (meta, packed) = arena::import(path).map_err(|e| {
                        esp_types::Error::invalid_workload(format!(
                            "cannot import trace {}: {e}",
                            path.display()
                        ))
                    })?;
                    materialise += t.elapsed().as_secs_f64();
                    slots.push(Slot { name: meta.profile, profile: None, packed });
                }
            }
        }
        Ok(Runner {
            scale,
            threads,
            slots,
            phases: PhaseSeconds { generate, materialise, simulate: 0.0 },
            cache: HashMap::new(),
            sims_run: 0,
            sampling: None,
            estimates: HashMap::new(),
            trace: None,
        })
    }

    /// Switches every *subsequent* simulation to statistical-sampling
    /// mode (or back to exact with `None`). Cached exact reports are
    /// discarded so a matrix never mixes modes silently.
    pub fn set_sampling(&mut self, params: Option<SampleParams>) {
        if self.sampling != params {
            self.cache.clear();
            self.estimates.clear();
        }
        self.sampling = params;
    }

    /// The sampling estimate for `(i, key)`, if that cell was simulated
    /// in sampling mode.
    pub fn estimate(&self, i: usize, key: ConfigKey) -> Option<&SamplingEstimate> {
        self.estimates.get(&(i, key))
    }

    /// Routes a JSONL trace of every subsequent simulation to `path`
    /// (created or truncated eagerly, so an unwritable path fails here —
    /// before any simulation — rather than mid-run).
    pub fn set_trace_output(&mut self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        self.trace = Some(std::io::BufWriter::new(file));
        Ok(())
    }

    /// Whether a trace sink is currently attached.
    pub fn tracing(&self) -> bool {
        self.trace.is_some()
    }

    /// The instruction scale per benchmark.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Simulations executed so far (cache misses only).
    pub fn sims_run(&self) -> u64 {
        self.sims_run
    }

    /// Total instructions simulated across every cached report: retired
    /// plus ESP speculative pre-execution plus runahead re-execution —
    /// the numerator of the MIPS throughput metric. In sampling mode the
    /// reports carry whole-workload estimates, so the quotient is an
    /// *effective* MIPS (work represented per second, not instructions
    /// stepped in detail).
    pub fn instructions_simulated(&self) -> u64 {
        self.cache
            .values()
            .map(|r| r.engine.retired + r.esp.spec_instrs() + r.engine.runahead_instrs)
            .sum()
    }

    /// Benchmark names in presentation order (slot order). Imported
    /// slots report the profile name recorded in their trace metadata.
    pub fn names(&self) -> Vec<String> {
        self.slots.iter().map(|s| s.name.clone()).collect()
    }

    /// The built-in profiles and their packed workloads. Imported slots
    /// have no profile behind them and are skipped — consumers of this
    /// view (the Fig. 6 characteristics table) describe the generative
    /// parameters, which a raw trace does not carry.
    pub fn workloads(&self) -> impl Iterator<Item = (&BenchmarkProfile, &PackedWorkload)> {
        self.slots.iter().filter_map(|s| Some((s.profile.as_ref()?, s.packed.as_ref())))
    }

    /// The packed workload simulated in slot `i` (what every
    /// configuration replays — generated or imported alike).
    pub fn packed(&self, i: usize) -> &Arc<PackedWorkload> {
        &self.slots[i].packed
    }

    /// Wall-clock seconds spent per phase so far.
    pub fn phase_seconds(&self) -> PhaseSeconds {
        self.phases
    }

    /// Heap bytes resident in the packed trace arenas of all profiles.
    pub fn arena_resident_bytes(&self) -> u64 {
        self.slots.iter().map(|s| s.packed.resident_bytes()).sum()
    }

    /// Instructions in the actual streams of all profiles' packed
    /// arenas: what materialisation packed, less the speculative tails.
    pub fn arena_instructions(&self) -> u64 {
        self.slots.iter().map(|s| s.packed.arena().total_instructions()).sum()
    }

    /// `(bytes, build seconds)` of the sidecars built so far on all
    /// profiles' packed workloads whose key `select` accepts
    /// (`PackedWorkload::sidecar_footprint`).
    pub fn sidecar_footprint(&self, select: impl Fn(&SidecarKey) -> bool + Copy) -> (u64, f64) {
        self.slots.iter().map(|s| s.packed.sidecar_footprint(select)).fold(
            (0, 0.0),
            |(b, t), (sb, st)| (b + sb, t + st),
        )
    }

    /// Executes every not-yet-cached `(profile, key)` pair of the plan
    /// `keys × all profiles` on the worker pool and stores the reports in
    /// the cache. After `ensure`, [`Runner::run`] for any planned pair is
    /// a pure lookup.
    ///
    /// Results are identical to sequential execution for any thread
    /// count: each simulation owns its configuration and shares only the
    /// immutable workload.
    pub fn ensure(&mut self, keys: &[ConfigKey]) {
        let mut pairs: Vec<(usize, ConfigKey)> = Vec::new();
        for &key in keys {
            for i in 0..self.slots.len() {
                let pair = (i, key);
                if !self.cache.contains_key(&pair) && !pairs.contains(&pair) {
                    pairs.push(pair);
                }
            }
        }
        if pairs.is_empty() {
            return;
        }
        let slots = &self.slots;
        let tracing = self.trace.is_some();
        let sampling = self.sampling;
        // Longest-job-first dispatch: the worker pool pops jobs from a
        // shared queue, so the matrix tail is set by whichever job starts
        // last — dispatch the expensive ones first and the cheap ones
        // fill the tail. Cost is estimated from the profile's packed
        // instruction count weighted by the configuration's mode (ESP
        // pre-executes lookahead events, runahead re-executes stall
        // windows). Results are scattered back to input order, so the
        // cache and the trace file are byte-identical to the unsorted
        // (and to the sequential) execution.
        let cost = |&(i, key): &(usize, ConfigKey)| -> u64 {
            let weight = match key.config().mode {
                SimMode::Esp(_) => 4,
                SimMode::Runahead { .. } => 3,
                SimMode::Baseline => 2,
            };
            // Saturating: an imported trace's length hint may be as
            // large as `u64::MAX`.
            slots[i].packed.approx_total_instructions().saturating_mul(weight)
        };
        let mut order: Vec<usize> = (0..pairs.len()).collect();
        order.sort_by(|&a, &b| cost(&pairs[b]).cmp(&cost(&pairs[a])).then(a.cmp(&b)));
        let ordered: Vec<(usize, ConfigKey)> = order.iter().map(|&j| pairs[j]).collect();
        let t = Instant::now();
        let ljf_results = esp_par::parallel_map(self.threads, &ordered, |_, &(i, key)| {
            // Replay the shared packed arena.
            let workload: &PackedWorkload = &slots[i].packed;
            let sim = Simulator::new(key.config());
            match (sampling, tracing) {
                (None, false) => (sim.run(workload), Vec::new(), None),
                (None, true) => {
                    let mut probe = TraceProbe::new(&slots[i].name, key.label());
                    let report = sim.run_probed(workload, &mut probe);
                    (report, probe.into_bytes(), None)
                }
                (Some(p), false) => {
                    let run = sim.run_sampled(workload, p);
                    (run.report, Vec::new(), Some(run.estimate))
                }
                (Some(p), true) => {
                    let mut probe =
                        TraceProbe::new(&slots[i].name, key.label()).with_mode("sampled");
                    let run = sim.run_sampled_probed(workload, p, &mut probe);
                    (run.report, probe.into_bytes(), Some(run.estimate))
                }
            }
        });
        let mut slots: Vec<Option<RunOutput>> = Vec::new();
        slots.resize_with(pairs.len(), || None);
        for (j, r) in order.into_iter().zip(ljf_results) {
            slots[j] = Some(r);
        }
        let results: Vec<RunOutput> =
            slots.into_iter().map(|s| s.expect("every planned pair ran")).collect();
        self.phases.simulate += t.elapsed().as_secs_f64();
        self.sims_run += results.len() as u64;
        let mut write_err = None;
        if let Some(out) = self.trace.as_mut() {
            for (_, buf, ..) in &results {
                if let Err(e) = out.write_all(buf).and_then(|()| out.flush()) {
                    write_err = Some(e);
                    break;
                }
            }
        }
        if let Some(e) = write_err {
            // A sick trace sink must not corrupt the simulation results:
            // drop it, keep the reports.
            eprintln!("warning: trace output failed ({e}); tracing disabled");
            self.trace = None;
        }
        for (pair, (report, _, estimate)) in pairs.into_iter().zip(results) {
            if let Some(estimate) = estimate {
                self.estimates.insert(pair, estimate);
            }
            self.cache.insert(pair, report);
        }
    }

    /// The cached report for `(i, key)`, if one exists (no simulation is
    /// triggered).
    pub fn cached(&self, i: usize, key: ConfigKey) -> Option<&RunReport> {
        self.cache.get(&(i, key))
    }

    /// Recalls configuration `key` on profile index `i`, executing the
    /// key's whole profile row (in parallel) on a cache miss.
    pub fn run(&mut self, i: usize, key: ConfigKey) -> &RunReport {
        if !self.cache.contains_key(&(i, key)) {
            self.ensure(&[key]);
        }
        &self.cache[&(i, key)]
    }

    /// Per-benchmark performance improvement (%) of `key` over `base`,
    /// plus the harmonic mean in the last position.
    pub fn improvements(&mut self, key: ConfigKey, base: ConfigKey) -> Vec<f64> {
        self.ensure(&[key, base]);
        let mut vals = Vec::new();
        for i in 0..self.slots.len() {
            let b = self.run(i, base).busy_cycles();
            let t = self.run(i, key).busy_cycles();
            vals.push(esp_stats::improvement_pct(b, t));
        }
        vals.push(esp_stats::harmonic_mean_improvement(&vals));
        vals
    }

    /// Per-benchmark values of `metric`, plus the harmonic mean of the
    /// values (arithmetic fallback for non-positive entries, see
    /// [`esp_stats::harmonic_mean`]) in the last position.
    pub fn metric(&mut self, key: ConfigKey, metric: impl Fn(&RunReport) -> f64) -> Vec<f64> {
        self.ensure(&[key]);
        let mut vals = Vec::new();
        for i in 0..self.slots.len() {
            vals.push(metric(self.run(i, key)));
        }
        vals.push(esp_stats::harmonic_mean(&vals));
        vals
    }

    /// Column headers: benchmark names plus "HMean".
    pub fn headers(&self, first: &str) -> Vec<String> {
        let mut h = vec![first.to_string()];
        h.extend(self.names().iter().map(|s| s.to_string()));
        h.push("HMean".to_string());
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runner_caches_runs() {
        let mut r = Runner::new(20_000, 1);
        let c1 = r.run(0, ConfigKey::Base).total_cycles;
        let c2 = r.run(0, ConfigKey::Base).total_cycles;
        assert_eq!(c1, c2);
        // A miss fills the key's whole profile row, and only once.
        assert_eq!(r.cache.len(), 7);
        assert_eq!(r.sims_run(), 7);
        assert_eq!(r.names().len(), 7);
    }

    #[test]
    fn ensure_is_idempotent_and_deduplicates() {
        let mut r = Runner::new(20_000, 1);
        r.ensure(&[ConfigKey::Base, ConfigKey::Base, ConfigKey::NextLine]);
        assert_eq!(r.sims_run(), 14);
        r.ensure(&[ConfigKey::Base, ConfigKey::NextLine]);
        assert_eq!(r.sims_run(), 14, "already-cached pairs must not rerun");
    }

    #[test]
    fn each_preset_row_sits_at_its_keys_discriminant() {
        for (i, (key, ..)) in PRESETS.iter().enumerate() {
            assert_eq!(*key as usize, i, "{key:?}");
        }
    }

    #[test]
    fn all_keys_cover_the_matrix() {
        let keys = ConfigKey::all();
        assert_eq!(keys.len(), 29);
        let labels: std::collections::HashSet<_> = keys.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), keys.len(), "labels must stay unique");
    }

    #[test]
    fn improvements_include_hmean() {
        let mut r = Runner::new(20_000, 1);
        let v = r.improvements(ConfigKey::NextLine, ConfigKey::Base);
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn with_profiles_covers_the_extended_families() {
        let r = Runner::with_profiles(&BenchmarkProfile::all_families(), 20_000, 1, 2);
        let names = r.names();
        assert_eq!(names.len(), 9);
        assert!(names.iter().any(|n| n == "serverasync"));
        assert!(names.iter().any(|n| n == "iotfsm"));
    }

    #[test]
    fn from_specs_import_matches_builtin_reports() {
        // Export one profile, then build two runners — one generating,
        // one importing — and pin their reports identical.
        let profile = BenchmarkProfile::by_name("gdocs").unwrap();
        let dir = std::env::temp_dir().join(format!("esp-runner-import-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("gdocs.espt");
        let scaled = profile.scaled(20_000);
        let packed = arena::packed_for(&scaled, 1, 2);
        let meta = esp_trace::espt::TraceMeta {
            profile: scaled.name().to_string(),
            scale: 20_000,
            seed: 1,
        };
        esp_trace::espt::write_path(&path, &meta, &packed).unwrap();

        let mut generated = Runner::with_profiles(&[profile], 20_000, 1, 2);
        let want = generated.run(0, ConfigKey::EspNl).clone();

        arena::reset();
        let specs = [WorkloadSpec::Import(path.clone())];
        let mut imported = Runner::from_specs(&specs, 20_000, 1, 2).unwrap();
        assert_eq!(imported.names(), vec!["gdocs".to_string()]);
        assert!(
            imported.workloads().next().is_none(),
            "imports expose no generative view"
        );
        let got = imported.run(0, ConfigKey::EspNl).clone();
        assert_eq!(format!("{want:#?}"), format!("{got:#?}"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_maximal_length_hint_neither_overflows_dispatch_nor_sampling() {
        // One event hints `u64::MAX` instructions and the rest hint 0, so
        // the file is valid; dispatch cost and the sampled fallback test
        // scale that hint and must saturate rather than overflow.
        let dir = std::env::temp_dir().join(format!("esp-runner-hint-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hintmax.espt");
        let amazon = BenchmarkProfile::by_name("amazon").unwrap().scaled(20_000);
        let packed = arena::packed_for(&amazon, 1, 1);
        let mut records = packed.events().to_vec();
        for (i, r) in records.iter_mut().enumerate() {
            r.approx_len = if i == 0 { u64::MAX } else { 0 };
        }
        let forged = PackedWorkload::new(records, packed.arena().clone(), u64::MAX);
        let meta =
            esp_trace::espt::TraceMeta { profile: "hintmax".into(), scale: 20_000, seed: 1 };
        esp_trace::espt::write_path(&path, &meta, &forged).unwrap();

        let specs = [WorkloadSpec::Import(path)];
        let mut r = Runner::from_specs(&specs, 20_000, 1, 1).unwrap();
        r.ensure(&[ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl]);
        r.set_sampling(Some(SampleParams::new(2_000, 20)));
        r.ensure(&[ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl]);
        assert!(r.estimate(0, ConfigKey::EspNl).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn from_specs_surfaces_import_errors() {
        let specs = [WorkloadSpec::Import("no/such/file.espt".into())];
        let err = match Runner::from_specs(&specs, 20_000, 1, 1) {
            Err(e) => e,
            Ok(_) => panic!("importing a missing file must fail"),
        };
        assert!(err.to_string().contains("no/such/file.espt"));
    }
}
