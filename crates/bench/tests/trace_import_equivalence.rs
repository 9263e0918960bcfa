//! Trace import is a perfect substitute for generation.
//!
//! Every built-in family is exported to an `.espt` file, the arena memo
//! is cleared so nothing generated survives, and the files are imported
//! back. From then on the imported runner must be byte-identical to the
//! generated one through every execution mode: exact simulation at any
//! thread count, statistical sampling, the CPI stacks, and the JSONL
//! observability trace. A single diverging byte means the container
//! dropped information.
//!
//! Everything lives in one `#[test]` because the arena memo is
//! process-wide and this test calls `arena::reset()` — concurrent tests
//! in the same binary would race it.

use esp_bench::{ConfigKey, Runner, WorkloadSpec};
use esp_core::SampleParams;
use esp_obs::CpiStack;
use esp_trace::espt::{self, TraceMeta};
use esp_workload::{arena, BenchmarkProfile};
use std::path::PathBuf;

const SCALE: u64 = 18_000;
const SEED: u64 = 13;
const KEYS: [ConfigKey; 3] = [ConfigKey::Base, ConfigKey::Runahead, ConfigKey::EspNl];

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esp-import-equiv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Render every (slot, key) report to its full Debug form — the
/// strictest equality the type supports, covering every counter.
fn matrix_reports(runner: &mut Runner) -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..runner.names().len() {
        for key in KEYS {
            out.push(format!("{:#?}", runner.run(i, key)));
        }
    }
    out
}

/// Every (slot, key) CPI stack, in matrix order.
fn matrix_stacks(runner: &mut Runner) -> Vec<CpiStack> {
    let mut out = Vec::new();
    for i in 0..runner.names().len() {
        for key in KEYS {
            out.push(runner.run(i, key).cpi_stack);
        }
    }
    out
}

#[test]
fn imported_traces_are_byte_identical_to_generated() {
    let dir = scratch_dir();
    let families = BenchmarkProfile::all_families();

    // --- Generated reference: all nine families, exact mode, with a
    // JSONL trace attached and CPI stacks cached.
    let gen_trace = dir.join("generated.jsonl");
    let mut generated = Runner::with_profiles(&families, SCALE, SEED, 2);
    generated.set_trace_output(&gen_trace).expect("trace sink");
    generated.ensure(&KEYS);
    let want_names = generated.names();
    let want_reports = matrix_reports(&mut generated);
    let want_cpi = matrix_stacks(&mut generated);

    // Export every slot while the generated packed forms are still
    // seated, then drop the runner and clear the memo: past this point
    // the only way back is through the files.
    let mut paths = Vec::new();
    for (i, name) in want_names.iter().enumerate() {
        let meta = TraceMeta { profile: name.clone(), scale: SCALE, seed: SEED };
        let path = dir.join(format!("{name}.espt"));
        espt::write_path(&path, &meta, generated.packed(i).as_ref()).expect("export");
        paths.push(path);
    }
    drop(generated);
    arena::reset();

    // --- Imported runner: same slots, same order, nothing generated.
    let specs: Vec<WorkloadSpec> = paths.iter().cloned().map(WorkloadSpec::Import).collect();
    let imp_trace = dir.join("imported.jsonl");
    let mut imported = Runner::from_specs(&specs, SCALE, SEED, 2).expect("import");
    imported.set_trace_output(&imp_trace).expect("trace sink");
    imported.ensure(&KEYS);

    assert_eq!(imported.names(), want_names, "slot names and order");
    assert_eq!(
        imported.workloads().count(),
        0,
        "imported slots must not expose generator state"
    );
    let got_reports = matrix_reports(&mut imported);
    assert_eq!(got_reports.len(), want_reports.len());
    for (idx, (want, got)) in want_reports.iter().zip(&got_reports).enumerate() {
        let (slot, key) = (idx / KEYS.len(), KEYS[idx % KEYS.len()]);
        assert_eq!(
            want, got,
            "exact report diverged: slot {} key {:?}",
            want_names[slot], key
        );
    }
    assert_eq!(matrix_stacks(&mut imported), want_cpi, "CPI stacks diverged");

    // JSONL traces: flush both sinks by dropping the runners' writers
    // via a no-op set, then byte-compare. Both runners ran the same
    // matrix cold, so the span streams must match exactly.
    drop(imported);
    let want_jsonl = std::fs::read(&gen_trace).expect("generated trace");
    let got_jsonl = std::fs::read(&imp_trace).expect("imported trace");
    assert!(!want_jsonl.is_empty(), "trace sink produced no spans");
    assert_eq!(want_jsonl, got_jsonl, "JSONL observability traces diverged");

    // --- Thread-count invariance on the imported path: 1 worker and 4
    // workers must reproduce the 2-worker matrix byte-for-byte.
    for threads in [1usize, 4] {
        let mut r = Runner::from_specs(&specs, SCALE, SEED, threads).expect("import");
        r.ensure(&KEYS);
        let got = matrix_reports(&mut r);
        assert_eq!(got, want_reports, "thread count {threads} diverged");
    }

    // --- Sampled mode: the estimator sees the same packed bytes, so the
    // sampled reports must agree too.
    let sp = SampleParams::new(2_000, 5);
    let mut gen_sampled = Runner::with_profiles(&families, SCALE, SEED, 2);
    gen_sampled.set_sampling(Some(sp));
    gen_sampled.ensure(&[ConfigKey::EspNl]);
    let mut imp_sampled = Runner::from_specs(&specs, SCALE, SEED, 2).expect("import");
    imp_sampled.set_sampling(Some(sp));
    imp_sampled.ensure(&[ConfigKey::EspNl]);
    for (i, name) in want_names.iter().enumerate() {
        assert_eq!(
            format!("{:#?}", gen_sampled.run(i, ConfigKey::EspNl)),
            format!("{:#?}", imp_sampled.run(i, ConfigKey::EspNl)),
            "sampled report diverged: slot {name}"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
