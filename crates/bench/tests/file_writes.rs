//! `repro` writes files only where it is asked to: `bench` is the one
//! command that writes `BENCH_repro.json`, and figure, `explain`,
//! `ablate` and `dump` runs leave their working directory as they found
//! it.

use std::path::{Path, PathBuf};
use std::process::Command;

fn empty_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esp-file-writes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn repro_in(dir: &Path, args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("repro must spawn");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn figure_explain_ablate_and_dump_runs_write_no_file() {
    let cases: [&[&str]; 5] = [
        &["--scale", "5000", "fig7"],
        &["--scale", "5000", "explain", "amazon"],
        &["--scale", "5000", "ablate"],
        &["--scale", "5000", "--sample-period", "3", "fig9"],
        &["--scale", "5000", "dump", "amazon"],
    ];
    for (i, args) in cases.into_iter().enumerate() {
        let dir = empty_dir(&i.to_string());
        repro_in(&dir, args);
        let written: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// `bench` writes a record with exactly the committed record's top-level
/// keys. `--threads 2` runs the N-thread pass on any machine, as the
/// committed record did.
#[test]
fn bench_writes_the_committed_record_schema() {
    let keys = |text: &str| -> Vec<String> {
        match esp_check::Json::parse(text).expect("valid JSON") {
            esp_check::Json::Obj(fields) => fields.into_iter().map(|(k, _)| k).collect(),
            other => panic!("not an object: {other:?}"),
        }
    };
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_repro.json");
    let want = keys(&std::fs::read_to_string(committed).expect("committed record"));
    let dir = empty_dir("bench");
    repro_in(&dir, &["--scale", "5000", "--threads", "2", "--repeat", "1", "bench"]);
    let record = std::fs::read_to_string(dir.join("BENCH_repro.json")).expect("record written");
    let got = keys(&record);
    assert_eq!(got, want);
    std::fs::remove_dir_all(&dir).ok();
}
