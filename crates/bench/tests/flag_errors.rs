//! Flag-error contract of `cpla-bench` and `cpla-bench-check`: a usage
//! error — a malformed or missing value, an unknown flag, a flag
//! combination that cannot run — exits 2 with a message naming the
//! problem, instead of panicking or exiting 1 like a failed check.

use std::process::Command;

/// Runs `bin` with `args` and asserts exit 2 with `needle` on stderr.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(needle), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    for args in [&["--nets", "abc"][..], &["--ratio", "x"], &["--nets"]] {
        assert_usage_error(env!("CARGO_BIN_EXE_cpla-bench"), args, args[0]);
    }
}

#[test]
fn checker_usage_errors_exit_2() {
    let bin = env!("CARGO_BIN_EXE_cpla-bench-check");
    assert_usage_error(bin, &["--frobnicate"], "--frobnicate");
    assert_usage_error(bin, &["--bench"], "--bench");
    assert_usage_error(bin, &["--baseline", "BENCH_cpla.json"], "--baseline");
    assert_usage_error(bin, &[], "nothing to check");
}

#[test]
fn checker_failures_still_exit_1() {
    let out = Command::new(env!("CARGO_BIN_EXE_cpla-bench-check"))
        .args(["--bench", "no/such/BENCH_cpla.json"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}
