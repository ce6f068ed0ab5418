//! Command-line contract of the `dynplat-bench` binary: usage errors exit 2
//! with the usage on stderr, E15's JSON does not depend on `--shards`, and
//! its stdout is the same on every run.

use std::process::{Command, Output};

fn dynplat_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dynplat-bench"))
        .args(args)
        .output()
        .expect("spawn dynplat-bench")
}

#[test]
fn usage_errors_exit_2_with_the_usage_on_stderr() {
    let cases: [&[&str]; 7] = [
        &[],
        &["e99_nonexistent"],
        &["fig1_consolidation", "--bogus"],
        &["e15_fleet_campaign", "--vehicles"],
        &["e15_fleet_campaign", "--shards", "0"],
        &["e13_detection_latency", "--horizon-ms", "0"],
        &["e14_uncertainty_adaptation", "--horizon-ms", "0"],
    ];
    for args in cases {
        let out = dynplat_bench(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: dynplat-bench <scenario>"),
            "{args:?}: {stderr}"
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} ran before rejecting its flags"
        );
    }
}

#[test]
fn e15_json_is_shard_invariant() {
    // (stdout, JSON) of one run.
    let report = |shards| {
        let path = format!(
            "{}/cli_e15_shards{shards}.json",
            env!("CARGO_TARGET_TMPDIR")
        );
        let args = [
            "e15_fleet_campaign",
            "--vehicles",
            "2000",
            "--out",
            &path,
            "--shards",
            shards,
        ];
        let out = dynplat_bench(&args);
        assert!(out.status.success(), "--shards {shards}");
        (out.stdout, std::fs::read(&path).expect("read E15 JSON"))
    };
    let (stdout, json) = report("1");
    assert_eq!(json, report("3").1);
    // Stdout carries no wall-clock figure, so a rerun prints the same bytes.
    assert_eq!(
        String::from_utf8_lossy(&stdout),
        String::from_utf8_lossy(&report("1").0)
    );
}
