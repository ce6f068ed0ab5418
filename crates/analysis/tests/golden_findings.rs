//! Golden-findings suite: every fixture under `tests/fixtures/` trips
//! exactly the `(rule, line)` pairs recorded here — no more, no fewer —
//! and the allowlist machinery suppresses or flags them as specified.
//!
//! The fixtures are plain `.rs` files that are never compiled (they are
//! not cargo targets, and `workspace::discover` skips directories named
//! `fixtures`), so they can violate every invariant at once.

use std::path::{Path, PathBuf};

use dynplat_analysis::lints::{
    lint_source, FileClass, SourceFile, RULE_FORBID_UNSAFE, RULE_NO_HASH_COLLECTIONS,
    RULE_NO_SNAPSHOT_HOT_PATH, RULE_NO_UNWRAP, RULE_NO_WALL_CLOCK, RULE_RELAXED_JUSTIFY,
};
use dynplat_analysis::workspace::{run, DiscoveredFile};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Lints one fixture as library code of `crate_name`, returning sorted
/// `(rule, line)` pairs.
fn lint_fixture(name: &str, crate_name: &str, is_root: bool) -> Vec<(&'static str, u32)> {
    let source = std::fs::read_to_string(fixture_path(name)).unwrap();
    let file = SourceFile {
        path: format!("crates/{crate_name}/src/{name}"),
        crate_name: crate_name.into(),
        class: FileClass::Lib,
        is_root,
    };
    let mut got: Vec<(&'static str, u32)> = lint_source(&file, &source)
        .iter()
        .map(|f| (f.rule, f.line))
        .collect();
    got.sort();
    got
}

#[test]
fn unsafe_fixture_trips_token_and_missing_root_attribute() {
    assert_eq!(
        lint_fixture("unsafe_and_root.rs", "comm", true),
        [(RULE_FORBID_UNSAFE, 4), (RULE_FORBID_UNSAFE, 5)],
        "line 4 = first code line missing the attribute, line 5 = `unsafe` token"
    );
}

#[test]
fn unwrap_fixture_trips_only_outside_cfg_test() {
    assert_eq!(
        lint_fixture("unwrap_panic.rs", "comm", false),
        [(RULE_NO_UNWRAP, 7), (RULE_NO_UNWRAP, 9)],
        "the `#[cfg(test)]` copies on lines 18-19 must not fire"
    );
}

#[test]
fn wall_clock_fixture_trips_in_determinism_critical_crate() {
    assert_eq!(
        lint_fixture("wall_clock.rs", "common", false),
        [(RULE_NO_WALL_CLOCK, 5), (RULE_NO_WALL_CLOCK, 8)]
    );
    // The same source in a non-critical crate is clean.
    assert_eq!(lint_fixture("wall_clock.rs", "obs", false), []);
}

#[test]
fn hash_map_fixture_trips_in_canonical_merge_crate() {
    assert_eq!(
        lint_fixture("hash_map.rs", "fleet", false),
        [
            (RULE_NO_HASH_COLLECTIONS, 5),
            (RULE_NO_HASH_COLLECTIONS, 8),
            (RULE_NO_HASH_COLLECTIONS, 8)
        ],
        "import line plus both mentions on the declaration line"
    );
    assert_eq!(lint_fixture("hash_map.rs", "obs", false), []);
}

#[test]
fn relaxed_fixture_trips_only_the_unjustified_site() {
    assert_eq!(
        lint_fixture("relaxed_bare.rs", "comm", false),
        [(RULE_RELAXED_JUSTIFY, 9)],
        "the annotated load on line 14 is clean; the doc-comment mention \
         of the keyword is out of reach of line 9"
    );
}

#[test]
fn snapshot_fixture_trips_in_hot_path_crates_only() {
    for crate_name in ["comm", "sched", "fleet"] {
        assert_eq!(
            lint_fixture("snapshot_hot_path.rs", crate_name, false),
            [
                (RULE_NO_SNAPSHOT_HOT_PATH, 7),
                (RULE_NO_SNAPSHOT_HOT_PATH, 11)
            ],
            "{crate_name}: both library-code snapshots fire, the cfg(test) copy on line 17 does not"
        );
    }
    // Cold crates (bench reduces, obs implements the snapshot) are exempt.
    assert_eq!(lint_fixture("snapshot_hot_path.rs", "bench", false), []);
    assert_eq!(lint_fixture("snapshot_hot_path.rs", "obs", false), []);
}

/// The new rule id participates in allowlist validation like the rest.
#[test]
fn snapshot_rule_is_allowlistable() {
    let files = [DiscoveredFile {
        meta: SourceFile {
            path: "crates/comm/src/snapshot_hot_path.rs".into(),
            crate_name: "comm".into(),
            class: FileClass::Lib,
            is_root: false,
        },
        abs_path: fixture_path("snapshot_hot_path.rs"),
    }];
    let allow = "no-snapshot-in-hot-path crates/comm/src/snapshot_hot_path.rs fixture: cold reporting edge\n";
    let report = run(&files, Some(allow)).unwrap();
    assert!(report.clean(), "active findings: {:?}", report.active);
    assert_eq!(report.suppressed.len(), 2, "both sites share the entry");
}

/// One fixture run through the full `workspace::run` pipeline with an
/// allowlist: the matching entry suppresses, a dead entry goes stale.
#[test]
fn allowlist_suppresses_live_findings_and_flags_stale_entries() {
    let files = [DiscoveredFile {
        meta: SourceFile {
            path: "crates/comm/src/relaxed_bare.rs".into(),
            crate_name: "comm".into(),
            class: FileClass::Lib,
            is_root: false,
        },
        abs_path: fixture_path("relaxed_bare.rs"),
    }];

    let live =
        "relaxed-justify crates/comm/src/relaxed_bare.rs fixture: reach is exercised elsewhere\n";
    let report = run(&files, Some(live)).unwrap();
    assert!(report.clean(), "active findings: {:?}", report.active);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.files_scanned, 1);

    let stale = "no-unwrap crates/comm/src/other.rs this entry matches nothing\n";
    let report = run(&files, Some(stale)).unwrap();
    assert!(!report.clean());
    let mut rules: Vec<&str> = report.active.iter().map(|f| f.rule).collect();
    rules.sort();
    assert_eq!(rules, ["relaxed-justify", "stale-allow"]);
}
