//! Bad command lines fail as usage errors: exit code 2 with a message on
//! stderr, before any workload is generated or any file written — never a
//! panic. A flag the selected command does not read is one of them, so no
//! flag is silently ignored.

use std::process::Command;

#[test]
fn bad_argument_vectors_exit_2_without_panicking() {
    let cases: [&[&str]; 39] = [
        &["--scale", "0", "dump", "amazon"],
        &["--scale", "0", "check"],
        &["--trace-in", "x.espt", "dump"],
        &["--trace-in", "x.espt", "check"],
        // Flags the selected command never reads.
        &["--scale", "5000", "--trace", "t.jsonl", "dump", "amazon"],
        &["--sample-period", "20", "dump", "amazon"],
        &["--trace", "t.jsonl", "check"],
        &["--cpi-stack", "dump", "amazon"],
        &["--trace-out", "x", "fig9"],
        &["--repeat", "2", "fig9"],
        &["--fuzz", "3", "fig9"],
        &["--sample-period", "20", "ablate"],
        &["--trace-in", "x.espt", "ablate"],
        &["--trace", "t.jsonl", "fig9", "ablate"],
        &["--force", "fig9"],
        &["--force", "explain", "amazon"],
        &["--force", "ablate"],
        // Options that no longer exist.
        &["--intra-threads", "2", "bench"],
        &["--learn-model", "gbm", "--sample-period", "20", "fig9"],
        &["--cpi-stack", "fig9"],
        &["--learn-train", "0", "--sample-period", "20", "fig9"],
        &["--learn-suffix", "0", "--sample-period", "20", "fig9"],
        &["--learn-bound", "0", "--sample-period", "20", "fig9"],
        &["--learn-bound", "nan", "--sample-period", "20", "fig9"],
        &["--learn-bound", "inf", "--sample-period", "20", "fig9"],
        &["--learn", "fig9"],
        &["--learn-train", "0", "bench"],
        // One value at or just past each range bound.
        &["--sample-period", "2", "fig9"],
        &["--sample-grain", "0", "--sample-period", "20", "fig9"],
        &["--sample-grain", "0", "bench"],
        &["--sample-period", "18446744073709551616", "fig9"],
        &["--threads", "0", "fig9"],
        &["--repeat", "0", "bench"],
        &["--seed", "x", "fig9"],
        &["--scale", "-1", "fig9"],
        &["--fuzz", "x", "check"],
        &["--fuzz-espt", "x", "check"],
        // A value-taking flag at the end of argv.
        &["fig9", "--trace"],
        &["dump", "amazon", "--trace-out"],
    ];
    let dir = std::env::temp_dir().join(format!("esp-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("repro must spawn");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: want a usage error, got stderr:\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(stderr.contains("error: "), "{args:?}: no error message:\n{stderr}");
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert!(written.is_empty(), "{args:?} wrote {written:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
