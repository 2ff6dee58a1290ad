//! The bench binaries reject a bad command line with one `error:` line and
//! exit status 2: never a panic, and never a run at a default the caller
//! did not ask for.

use std::process::Command;

/// Runs `exe` with `args` from a scratch directory under the target dir, so
/// a binary that wrongly starts a run cannot overwrite a committed
/// artifact, and asserts the usage-error contract.
fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = Command::new(exe)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn structurad_rejects_bad_flags() {
    let cases: [&[&str]; 7] = [
        &["--nodes", "0"],
        &["--nodes", "2"],
        &["--m", "0"],
        &["--nodes", "abc"],
        &["--bogus", "1"],
        &["--nodes", "100", "--queries", "18446744073709551615"],
        &["--nodes", "100", "--users", "18446744073709551615"],
    ];
    for args in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_structurad"), args);
    }
}

#[test]
fn perf_smoke_rejects_bad_flags() {
    let cases: [&[&str]; 4] =
        [&["--serve"], &["--bogus"], &["--scale", "--scale-nodes", "0"], &["--scale-nodes", "9"]];
    for args in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_perf_smoke"), args);
    }
}

#[test]
fn experiments_rejects_bad_flags() {
    let cases: [&[&str]; 4] =
        [&["--jobs", "0"], &["--jobs", "abc"], &["--exp", "e99"], &["--bogus"]];
    for args in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_experiments"), args);
    }
}
