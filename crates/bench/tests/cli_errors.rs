//! Bad command lines fail as usage errors: exit code 2 with a message on
//! stderr, before any workload is generated — never a panic.

use std::process::Command;

#[test]
fn bad_argument_vectors_exit_2_without_panicking() {
    let cases: [&[&str]; 4] = [
        &["--scale", "0", "dump", "amazon"],
        &["--scale", "0", "check"],
        &["--trace-in", "x.espt", "dump"],
        &["--trace-in", "x.espt", "check"],
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
    }
    std::fs::remove_dir_all(&dir).ok();
}
