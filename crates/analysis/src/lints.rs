//! The workspace invariant lint pass.
//!
//! Six rules, each encoding an argument the rest of the tree already
//! relies on but no compiler checks (DESIGN.md §9):
//!
//! | rule | invariant |
//! |---|---|
//! | `forbid-unsafe` | every crate root opts into `#![forbid(unsafe_code)]`, and no scanned file contains an `unsafe` token |
//! | `no-unwrap` | library code never calls `.unwrap()` or bare `panic!` / `todo!` / `unimplemented!` — failures carry an actionable `expect` message or an error return |
//! | `no-wall-clock` | determinism-critical crates never read `std::time::Instant` / `SystemTime`; simulated time only (the E14/E15 byte-identity gates depend on it) |
//! | `no-hash-collections` | canonical-merge crates use `BTreeMap`/sorted structures, never `HashMap`/`HashSet`, so merged output is byte-identical across shard counts |
//! | `relaxed-justify` | every `Ordering::Relaxed` atomic op carries a `// relaxed:` comment justifying why the weakest ordering is sound there |
//! | `no-snapshot-in-hot-path` | hot-path crates never call `.snapshot()` in library code — a registry snapshot clones every metric map under the lock; flush sketches/counters and snapshot once per run at the reporting edge |
//!
//! Rules run over the token stream of [`crate::lexer`], so comments,
//! strings and doc text can never trip them. Code inside `#[cfg(test)]`
//! items is exempt from every rule except `forbid-unsafe`, as are files
//! under `tests/`, `benches/` and `examples/` directories — tests may
//! unwrap freely; the invariants protect shipped library paths.

use crate::lexer::{lex, Token, TokenKind};

/// Stable rule identifiers (these appear in the allowlist file and the
/// findings report, so they are part of the tool's interface).
pub const RULE_FORBID_UNSAFE: &str = "forbid-unsafe";
pub const RULE_NO_UNWRAP: &str = "no-unwrap";
pub const RULE_NO_WALL_CLOCK: &str = "no-wall-clock";
pub const RULE_NO_HASH_COLLECTIONS: &str = "no-hash-collections";
pub const RULE_RELAXED_JUSTIFY: &str = "relaxed-justify";
pub const RULE_NO_SNAPSHOT_HOT_PATH: &str = "no-snapshot-in-hot-path";

/// All rule ids, for allowlist validation.
pub const ALL_RULES: [&str; 6] = [
    RULE_FORBID_UNSAFE,
    RULE_NO_UNWRAP,
    RULE_NO_WALL_CLOCK,
    RULE_NO_HASH_COLLECTIONS,
    RULE_RELAXED_JUSTIFY,
    RULE_NO_SNAPSHOT_HOT_PATH,
];

/// Crates whose outputs are hashed, diffed or `cmp`-gated in CI: byte
/// determinism is part of their contract, so wall-clock reads and
/// iteration-order-dependent collections are banned outright.
pub const DETERMINISM_CRITICAL_CRATES: [&str; 8] = [
    "common", "sim", "fleet", "dse", "model", "sched", "faults", "monitor",
];

/// Crates whose steady-state loops are nanosecond-budgeted (the fabric
/// delivery loop, the dispatch loop, the shard kernel): aggregate through
/// striped histograms, sketches and local accumulators there, and take
/// registry snapshots only at the reporting edge — never per event.
pub const HOT_PATH_CRATES: [&str; 3] = ["comm", "sched", "fleet"];

/// How a file participates in the build, which decides rule applicability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileClass {
    /// A crate's library source (`crates/<name>/src/**`, root `src/`).
    Lib,
    /// A binary root or bin-only module (`src/bin/**`, `src/main.rs`).
    Bin,
    /// Integration tests, benches, examples: exempt from everything
    /// except the `unsafe` token scan.
    TestLike,
}

/// One file to lint: path (for reporting), crate name, class, and whether
/// it is a crate/bin root that must carry `#![forbid(unsafe_code)]`.
#[derive(Clone, Debug)]
pub struct SourceFile {
    pub path: String,
    pub crate_name: String,
    pub class: FileClass,
    pub is_root: bool,
}

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub path: String,
    pub line: u32,
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Lints one file's source text. This is the whole pass: classification
/// has already been decided by the caller (the CLI for real files, tests
/// for fixtures).
pub fn lint_source(file: &SourceFile, source: &str) -> Vec<Finding> {
    let tokens = lex(source);
    let test_spans = cfg_test_spans(&tokens);
    let in_test = |idx: usize| test_spans.iter().any(|s| s.contains(&idx));
    let mut findings = Vec::new();

    check_unsafe(file, &tokens, &mut findings, source);
    if file.class == FileClass::TestLike {
        return findings;
    }
    for (idx, tok) in tokens.iter().enumerate() {
        if in_test(idx) {
            continue;
        }
        if file.class == FileClass::Lib {
            check_unwrap(file, &tokens, idx, tok, &mut findings);
            check_wall_clock(file, tok, &mut findings);
            check_hash_collections(file, tok, &mut findings);
            check_snapshot_hot_path(file, &tokens, idx, tok, &mut findings);
        }
        check_relaxed(file, &tokens, idx, tok, &mut findings);
    }
    findings
}

/// `forbid-unsafe`: crate/bin roots must contain the inner attribute, and
/// no non-fixture file may contain an `unsafe` token at all (belt and
/// braces: the attribute makes the compiler enforce it for lib code, the
/// token scan extends the guarantee to bins, tests and benches).
fn check_unsafe(file: &SourceFile, tokens: &[Token], findings: &mut Vec<Finding>, source: &str) {
    for tok in tokens {
        if tok.is_ident("unsafe") {
            findings.push(Finding {
                rule: RULE_FORBID_UNSAFE,
                path: file.path.clone(),
                line: tok.line,
                message: "`unsafe` token in a workspace that forbids unsafe code".into(),
            });
        }
    }
    if file.is_root && !has_forbid_unsafe(tokens) {
        findings.push(Finding {
            rule: RULE_FORBID_UNSAFE,
            path: file.path.clone(),
            line: first_code_line(source),
            message: "crate root is missing `#![forbid(unsafe_code)]`".into(),
        });
    }
}

/// Matches `# ! [ forbid ( unsafe_code ) ]` anywhere in the stream.
fn has_forbid_unsafe(tokens: &[Token]) -> bool {
    let code: Vec<&Token> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    code.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident("forbid")
            && w[4].is_punct('(')
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(')')
    })
}

fn first_code_line(source: &str) -> u32 {
    for (i, l) in source.lines().enumerate() {
        let t = l.trim();
        if !t.is_empty() && !t.starts_with("//") {
            return i as u32 + 1;
        }
    }
    1
}

/// `no-unwrap`: `.unwrap()` receiver calls and the bare diverging macros.
fn check_unwrap(
    file: &SourceFile,
    tokens: &[Token],
    idx: usize,
    tok: &Token,
    findings: &mut Vec<Finding>,
) {
    let next_is = |c: char| tokens.get(idx + 1).is_some_and(|t| t.is_punct(c));
    let prev_is = |c: char| idx > 0 && tokens[idx - 1].is_punct(c);
    if tok.is_ident("unwrap") && prev_is('.') && next_is('(') {
        findings.push(Finding {
            rule: RULE_NO_UNWRAP,
            path: file.path.clone(),
            line: tok.line,
            message:
                "`.unwrap()` in library code — use `expect(\"why this holds\")` or return an error"
                    .into(),
        });
    }
    for mac in ["panic", "todo", "unimplemented"] {
        if tok.is_ident(mac) && next_is('!') {
            findings.push(Finding {
                rule: RULE_NO_UNWRAP,
                path: file.path.clone(),
                line: tok.line,
                message: format!(
                    "bare `{mac}!` in library code — return an error or use an `expect` with the invariant spelled out"
                ),
            });
        }
    }
}

/// `no-wall-clock`: any mention of the host-clock types in a
/// determinism-critical crate. Mentions in comments and strings are
/// invisible here by construction.
fn check_wall_clock(file: &SourceFile, tok: &Token, findings: &mut Vec<Finding>) {
    if !DETERMINISM_CRITICAL_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for ty in ["Instant", "SystemTime"] {
        if tok.is_ident(ty) {
            findings.push(Finding {
                rule: RULE_NO_WALL_CLOCK,
                path: file.path.clone(),
                line: tok.line,
                message: format!(
                    "`{ty}` in determinism-critical crate `{}` — use `SimTime`/logical clocks",
                    file.crate_name
                ),
            });
        }
    }
}

/// `no-hash-collections`: randomized-iteration-order collections in
/// canonical-merge crates.
fn check_hash_collections(file: &SourceFile, tok: &Token, findings: &mut Vec<Finding>) {
    if !DETERMINISM_CRITICAL_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for ty in ["HashMap", "HashSet"] {
        if tok.is_ident(ty) {
            findings.push(Finding {
                rule: RULE_NO_HASH_COLLECTIONS,
                path: file.path.clone(),
                line: tok.line,
                message: format!(
                    "`{ty}` in canonical-merge crate `{}` — iteration order is randomized; use `BTreeMap`/`BTreeSet` or a sorted `Vec`",
                    file.crate_name
                ),
            });
        }
    }
}

/// `no-snapshot-in-hot-path`: `.snapshot()` receiver calls in hot-path
/// crate library code. A `MetricsRegistry::snapshot` clones every
/// counter, gauge, histogram and sketch map under the registry lock —
/// fine once per run at the reporting edge, ruinous per delivery or per
/// dispatch (and the same argument covers per-metric snapshots in a
/// loop). Cold reporting paths that genuinely need one go through the
/// allowlist with their justification on record.
fn check_snapshot_hot_path(
    file: &SourceFile,
    tokens: &[Token],
    idx: usize,
    tok: &Token,
    findings: &mut Vec<Finding>,
) {
    if !HOT_PATH_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    let next_is = |c: char| tokens.get(idx + 1).is_some_and(|t| t.is_punct(c));
    let prev_is = |c: char| idx > 0 && tokens[idx - 1].is_punct(c);
    if tok.is_ident("snapshot") && prev_is('.') && next_is('(') {
        findings.push(Finding {
            rule: RULE_NO_SNAPSHOT_HOT_PATH,
            path: file.path.clone(),
            line: tok.line,
            message: format!(
                "`.snapshot()` in hot-path crate `{}` — snapshots clone whole metric maps; aggregate via sketches/striped histograms and snapshot once per run at the reporting edge (allowlist a cold path deliberately)",
                file.crate_name
            ),
        });
    }
}

/// How many lines below the end of a `// relaxed:` comment block the
/// `Ordering::Relaxed` token may sit. rustfmt wraps receiver chains, so
/// `cells[i]\n.value\n.fetch_add(n, Ordering::Relaxed)` puts the token up
/// to three lines under the comment that introduces the statement.
const RELAXED_COMMENT_REACH: u32 = 3;

/// `relaxed-justify`: every `Ordering :: Relaxed` token run must have a
/// comment containing `relaxed:` on its own line or within
/// [`RELAXED_COMMENT_REACH`] lines above. A multi-line comment block
/// counts as a unit: the justification reaches from the `relaxed:` line
/// through the end of the contiguous run of comment-bearing lines it
/// starts, plus the reach — so a wrapped explanation above a wrapped
/// statement still covers the `Relaxed` token.
fn check_relaxed(
    file: &SourceFile,
    tokens: &[Token],
    idx: usize,
    tok: &Token,
    findings: &mut Vec<Finding>,
) {
    if !tok.is_ident("Relaxed") {
        return;
    }
    let preceded = idx >= 3
        && tokens[idx - 1].is_punct(':')
        && tokens[idx - 2].is_punct(':')
        && tokens[idx - 3].is_ident("Ordering");
    if !preceded {
        return;
    }
    let comment_lines: std::collections::BTreeSet<u32> = tokens
        .iter()
        .filter(|t| matches!(t.kind, TokenKind::Comment(_)))
        .map(|t| t.line)
        .collect();
    let justified = tokens.iter().any(|t| match &t.kind {
        TokenKind::Comment(text) if text.contains("relaxed:") && t.line <= tok.line => {
            let mut block_end = t.line;
            while comment_lines.contains(&(block_end + 1)) {
                block_end += 1;
            }
            block_end + RELAXED_COMMENT_REACH >= tok.line
        }
        _ => false,
    });
    if !justified {
        findings.push(Finding {
            rule: RULE_RELAXED_JUSTIFY,
            path: file.path.clone(),
            line: tok.line,
            message: "`Ordering::Relaxed` without a `// relaxed:` justification comment".into(),
        });
    }
}

/// Token-index spans covered by `#[cfg(test)]` items.
///
/// The automaton recognizes the attribute token run `# [ cfg ( test ) ]`
/// (also as the first clause of `cfg(all(test, ...))`) and then extends
/// the span over the next item: through the first balanced `{ ... }`
/// block, or to a `;` for attribute-on-`use` forms. Attributes stacked
/// between the cfg and the item (`#[cfg(test)] #[derive(..)] mod t {}`)
/// stay inside the span because brace tracking only starts at the first
/// `{`.
fn cfg_test_spans(tokens: &[Token]) -> Vec<std::ops::Range<usize>> {
    let code: Vec<(usize, &Token)> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment(_)))
        .collect();
    let mut spans = Vec::new();
    let mut i = 0;
    while i + 4 < code.len() {
        let is_cfg_test = code[i].1.is_punct('#')
            && code[i + 1].1.is_punct('[')
            && code[i + 2].1.is_ident("cfg")
            && code[i + 3].1.is_punct('(')
            && (code[i + 4].1.is_ident("test")
                || (code[i + 4].1.is_ident("all")
                    && code.get(i + 6).is_some_and(|(_, t)| t.is_ident("test"))));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start = code[i].0;
        // Walk to the end of the annotated item.
        let mut j = i + 5;
        let mut depth = 0usize;
        let mut seen_brace = false;
        let end = loop {
            let Some((orig, t)) = code.get(j) else {
                break tokens.len();
            };
            match t.kind {
                TokenKind::Punct('{') => {
                    depth += 1;
                    seen_brace = true;
                }
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if seen_brace && depth == 0 {
                        break orig + 1;
                    }
                }
                TokenKind::Punct(';') if !seen_brace => break orig + 1,
                _ => {}
            }
            j += 1;
        };
        spans.push(start..end);
        // Continue scanning after the span (nested cfg(test) adds nothing).
        while i < code.len() && code[i].0 < end {
            i += 1;
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_file() -> SourceFile {
        SourceFile {
            path: "crates/x/src/lib.rs".into(),
            crate_name: "x".into(),
            class: FileClass::Lib,
            is_root: true,
        }
    }

    fn det_file() -> SourceFile {
        SourceFile {
            path: "crates/fleet/src/shard.rs".into(),
            crate_name: "fleet".into(),
            class: FileClass::Lib,
            is_root: false,
        }
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn clean_root_passes() {
        let src = "#![forbid(unsafe_code)]\npub fn f() -> Option<u8> { None }\n";
        assert!(lint_source(&lib_file(), src).is_empty());
    }

    #[test]
    fn missing_forbid_flagged_on_roots_only() {
        let src = "pub fn f() {}\n";
        assert_eq!(rules(&lint_source(&lib_file(), src)), [RULE_FORBID_UNSAFE]);
        assert!(lint_source(&det_file(), src).is_empty());
    }

    #[test]
    fn unwrap_and_bare_macros_flagged_outside_tests() {
        let src = "#![forbid(unsafe_code)]\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\nfn g() { panic!(\"boom\") }\n";
        assert_eq!(
            rules(&lint_source(&lib_file(), src)),
            [RULE_NO_UNWRAP, RULE_NO_UNWRAP]
        );
    }

    #[test]
    fn unwrap_family_false_positives_do_not_trip() {
        let src = "#![forbid(unsafe_code)]\nfn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }\nfn g(x: Option<u8>) -> u8 { x.unwrap_or_default() }\n// .unwrap() in a comment\nconst S: &str = \"panic!\";\n";
        assert!(lint_source(&lib_file(), src).is_empty());
    }

    #[test]
    fn cfg_test_module_is_exempt() {
        let src = "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); panic!(\"ok in tests\") }\n}\n";
        assert!(lint_source(&lib_file(), src).is_empty());
    }

    #[test]
    fn cfg_all_test_and_attribute_stacks_are_exempt() {
        let src = "#![forbid(unsafe_code)]\n#[cfg(all(test, feature = \"x\"))]\n#[allow(dead_code)]\nmod tests { fn t() { None::<u8>.unwrap(); } }\n#[cfg(test)]\nuse std::time::Instant;\n";
        let f = SourceFile {
            crate_name: "fleet".into(),
            ..lib_file()
        };
        assert!(lint_source(&f, src).is_empty());
    }

    #[test]
    fn code_after_a_test_module_is_still_linted() {
        let src = "#![forbid(unsafe_code)]\n#[cfg(test)]\nmod tests { fn t() {} }\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules(&lint_source(&lib_file(), src)), [RULE_NO_UNWRAP]);
    }

    #[test]
    fn wall_clock_and_hash_rules_scope_to_determinism_crates() {
        let src = "use std::time::Instant;\nuse std::collections::HashMap;\n";
        let in_fleet = lint_source(&det_file(), src);
        assert_eq!(
            rules(&in_fleet),
            [RULE_NO_WALL_CLOCK, RULE_NO_HASH_COLLECTIONS]
        );
        let in_obs = SourceFile {
            crate_name: "obs".into(),
            is_root: false,
            ..lib_file()
        };
        assert!(lint_source(&in_obs, src).is_empty());
    }

    #[test]
    fn relaxed_requires_justification_within_reach() {
        let bare = "fn f(a: &std::sync::atomic::AtomicU64) { a.load(Ordering::Relaxed); }";
        let f = SourceFile {
            is_root: false,
            ..lib_file()
        };
        assert_eq!(rules(&lint_source(&f, bare)), [RULE_RELAXED_JUSTIFY]);

        let same_line =
            "fn f(a: &A) { a.load(Ordering::Relaxed); // relaxed: single-owner cursor\n}";
        assert!(lint_source(&f, same_line).is_empty());

        let above =
            "fn f(a: &A) {\n    // relaxed: single-owner cursor\n    a.load(Ordering::Relaxed);\n}";
        assert!(lint_source(&f, above).is_empty());

        let too_far = "fn f(a: &A) {\n    // relaxed: single-owner cursor\n\n\n\n    a.load(Ordering::Relaxed);\n}";
        assert_eq!(rules(&lint_source(&f, too_far)), [RULE_RELAXED_JUSTIFY]);

        // A wrapped comment block counts as one unit: the `relaxed:`
        // keyword may sit on the first line of a contiguous block whose
        // tail is what falls within reach of a wrapped statement.
        let block = concat!(
            "fn f(a: &A) {\n",
            "    // relaxed: the stores are published as a unit by the\n",
            "    // Release store below; the consumer's Acquire load is\n",
            "    // what orders them.\n",
            "    a\n",
            "        .counter\n",
            "        .load(Ordering::Relaxed);\n",
            "}\n",
        );
        assert!(lint_source(&f, block).is_empty());

        // ...but a gap between the keyword line and an unrelated comment
        // closer to the token does not stitch the blocks together.
        let gapped = concat!(
            "fn f(a: &A) {\n",
            "    // relaxed: single-owner cursor\n",
            "    let x = 1;\n",
            "    let y = 2;\n",
            "    let z = 3;\n",
            "    a.load(Ordering::Relaxed);\n",
            "}\n",
        );
        assert_eq!(rules(&lint_source(&f, gapped)), [RULE_RELAXED_JUSTIFY]);
    }

    #[test]
    fn snapshot_flagged_only_in_hot_path_lib_code() {
        let src = "fn publish(r: &MetricsRegistry) { let _ = r.snapshot(); }";
        for crate_name in ["comm", "sched", "fleet"] {
            let f = SourceFile {
                path: format!("crates/{crate_name}/src/x.rs"),
                crate_name: crate_name.into(),
                class: FileClass::Lib,
                is_root: false,
            };
            assert_eq!(
                rules(&lint_source(&f, src)),
                [RULE_NO_SNAPSHOT_HOT_PATH],
                "{crate_name} library code must not snapshot"
            );
        }
        // Cold crates may snapshot freely.
        let in_bench = SourceFile {
            path: "crates/bench/src/x.rs".into(),
            crate_name: "bench".into(),
            class: FileClass::Lib,
            is_root: false,
        };
        assert!(lint_source(&in_bench, src).is_empty());
        // Tests inside hot-path crates may too.
        let in_test = "#[cfg(test)]\nmod tests { fn t(r: &R) { r.snapshot(); } }";
        let f = SourceFile {
            is_root: false,
            crate_name: "comm".into(),
            ..lib_file()
        };
        assert!(lint_source(&f, in_test).is_empty());
        // Non-call mentions (field access, a fn named snapshot) are clean.
        let not_calls = "fn snapshot() {}\nfn g(x: &S) -> u64 { x.snapshot }\n";
        assert!(lint_source(&f, not_calls).is_empty());
    }

    #[test]
    fn acquire_release_need_no_comment() {
        let src = "fn f(a: &A) { a.load(Ordering::Acquire); a.store(1, Ordering::Release); }";
        let f = SourceFile {
            is_root: false,
            ..lib_file()
        };
        assert!(lint_source(&f, src).is_empty());
    }

    #[test]
    fn unsafe_token_flagged_even_in_test_like_files() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        let f = SourceFile {
            path: "crates/x/tests/t.rs".into(),
            crate_name: "x".into(),
            class: FileClass::TestLike,
            is_root: false,
        };
        assert_eq!(rules(&lint_source(&f, src)), [RULE_FORBID_UNSAFE]);
    }

    #[test]
    fn bins_are_exempt_from_lib_rules_but_not_relaxed() {
        let src = "fn main() { Some(1).unwrap(); X.load(Ordering::Relaxed); }";
        let f = SourceFile {
            path: "crates/x/src/bin/tool.rs".into(),
            crate_name: "x".into(),
            class: FileClass::Bin,
            is_root: false,
        };
        assert_eq!(rules(&lint_source(&f, src)), [RULE_RELAXED_JUSTIFY]);
    }
}
