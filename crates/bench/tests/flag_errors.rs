//! Flag-error contract of `cpla-bench`: a malformed numeric value exits
//! 2 with a message naming the flag, like a missing value does, instead
//! of panicking.

use std::process::Command;

#[test]
fn bad_flag_values_exit_2_naming_the_flag() {
    for args in [&["--nets", "abc"][..], &["--ratio", "x"], &["--nets"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_cpla-bench"))
            .args(args)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(args[0]), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
