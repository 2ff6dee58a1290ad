//! The bench binaries reject a bad command line with one `error:` line and
//! exit status 2: never a panic, and never a run at a default the caller
//! did not ask for. A good one runs to completion: `structurad` serves a
//! small workload and prints its exact counts.

use std::process::{Command, Output};

/// Runs `exe` with `args` from a scratch directory under the target dir, so
/// a binary that wrongly starts a run cannot overwrite a committed
/// artifact.
fn run(exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the binary starts")
}

/// Runs `exe` with `args` and asserts the usage-error contract.
fn assert_usage_error(exe: &str, args: &[&str]) {
    let out = run(exe, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.lines().any(|l| l.starts_with("error: ")), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
}

#[test]
fn structurad_rejects_bad_flags() {
    let cases: [&[&str]; 13] = [
        &["--nodes", "0"],
        &["--nodes", "2"],
        &["--m", "0"],
        &["--nodes", "abc"],
        &["--bogus", "1"],
        &["--nodes", "100", "--queries", "18446744073709551615"],
        &["--nodes", "100", "--users", "18446744073709551615"],
        // Sizes that fit the address space but no allocator.
        &["--nodes", "100", "--queries", "384307168202282325"],
        &["--nodes", "100", "--users", "1152921504606846975"],
        // Zipf exponents outside the finite, non-negative domain.
        &["--nodes", "100", "--zipf-users", "nan"],
        &["--nodes", "100", "--zipf-nodes", "-1"],
        // A worker or shard count of 0 would be clamped to 1 and misreported.
        &["--nodes", "100", "--jobs", "0"],
        &["--nodes", "100", "--shards", "0"],
    ];
    for args in cases {
        assert_usage_error(env!("CARGO_BIN_EXE_structurad"), args);
    }
}

/// A small full run: the exact counts pin the Zipf query stream, the
/// landmark fallbacks, the nodes their BFS runs reach and the journey
/// store's scan at the command line. A `--shards` past the batch length
/// cuts one piece per query, and the counts do not depend on it.
#[test]
fn structurad_serves_a_small_workload() {
    let args = [
        "--nodes",
        "500",
        "--queries",
        "3000",
        "--users",
        "100000",
        "--jobs",
        "2",
        "--shards",
        "18446744073709551615",
    ];
    let out = run(env!("CARGO_BIN_EXE_structurad"), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("structurad OK"), "{stderr}");
    for count in [
        "from 1178 distinct users",
        "fallbacks 400  nodes scanned 200000",
        "entries scanned 1411946",
    ] {
        assert!(stderr.contains(count), "missing {count:?}: {stderr}");
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
