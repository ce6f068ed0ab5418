//! Command-line contract of the `dynplat-bench` binary: usage errors exit 2
//! with the usage on stderr; E15's JSON does not depend on `--shards`, and
//! its stdout is the same on every run; `micro --quick` prints one
//! well-formed row per benchmark, and ends quietly when its reader closes
//! the pipe early.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};

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

#[test]
fn micro_quick_prints_one_timed_row_per_benchmark() {
    let out = dynplat_bench(&["micro", "--quick"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let mut lines = stdout.lines();
    assert_eq!(lines.next(), Some("benchmark\tns_per_iter\titers"));
    let mut names = Vec::new();
    for line in lines {
        let fields: Vec<&str> = line.split('\t').collect();
        let [name, ns, iters] = fields[..] else {
            panic!("not name<TAB>ns<TAB>iters: {line:?}");
        };
        ns.parse::<u128>()
            .unwrap_or_else(|_| panic!("ns not an integer: {line:?}"));
        let iters: u64 = iters
            .parse()
            .unwrap_or_else(|_| panic!("iters not an integer: {line:?}"));
        assert!(iters >= 1, "{line:?}");
        names.push(name);
    }
    for n in [10, 40] {
        let row = format!("sched/tt_synthesis/{n}");
        assert!(names.contains(&row.as_str()), "no {row} row in {names:?}");
    }
}

#[test]
fn a_reader_that_closes_the_pipe_early_ends_the_run_quietly() {
    // `micro` prints its rows as it times them, so rows are still to come
    // when the pipe closes after the header (`micro --quick | head -1`).
    let mut child = Command::new(env!("CARGO_BIN_EXE_dynplat-bench"))
        .args(["micro", "--quick"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn dynplat-bench");
    let mut header = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut header)
        .expect("read the header");
    assert_eq!(header, "benchmark\tns_per_iter\titers\n");
    let out = child.wait_with_output().expect("wait for dynplat-bench");
    assert!(
        out.status.success(),
        "{:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        out.stderr.is_empty(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
