//! The checked-in lint allowlist.
//!
//! Format (`analysis-allow.list` at the repository root): one entry per
//! line, `#` comments and blank lines ignored.
//!
//! ```text
//! <rule-id> <path> <justification...>
//! ```
//!
//! Fields are separated by any run of spaces or tabs, so entries may be
//! column-aligned. The path is workspace-relative and matched exactly (no
//! globs: an allowlist that can silently widen is worse than none). The
//! justification is mandatory — an unexplained suppression is itself a
//! finding. Every entry must be *used* by the run it participates in;
//! stale entries (the violation was fixed but the suppression stayed) are
//! reported as `stale-allow` findings so the allowlist can only ever
//! shrink toward empty.

use crate::lints::{Finding, ALL_RULES};

/// One parsed allowlist entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    pub rule: String,
    pub path: String,
    pub justification: String,
    /// Line in the allowlist file, for stale-entry reporting.
    pub source_line: u32,
}

/// A parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses allowlist text. Malformed lines (missing fields, unknown
    /// rule ids) come back as findings against the allowlist file itself
    /// rather than being skipped.
    pub fn parse(text: &str, file_name: &str) -> (Allowlist, Vec<Finding>) {
        let mut entries = Vec::new();
        let mut findings = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line_no = i as u32 + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (rule, rest) = next_field(line);
            let (path, justification) = next_field(rest);
            if path.is_empty() || justification.is_empty() {
                findings.push(Finding {
                    rule: "bad-allow",
                    path: file_name.to_owned(),
                    line: line_no,
                    message: format!(
                        "malformed allowlist entry `{line}` — expected `<rule> <path> <justification>`"
                    ),
                });
                continue;
            }
            if !ALL_RULES.contains(&rule) {
                findings.push(Finding {
                    rule: "bad-allow",
                    path: file_name.to_owned(),
                    line: line_no,
                    message: format!("unknown rule id `{rule}` in allowlist"),
                });
                continue;
            }
            entries.push(AllowEntry {
                rule: rule.to_owned(),
                path: path.to_owned(),
                justification: justification.to_owned(),
                source_line: line_no,
            });
        }
        (Allowlist { entries }, findings)
    }

    /// Splits findings into (active, suppressed) and appends a
    /// `stale-allow` finding for every entry that suppressed nothing.
    pub fn apply(&self, findings: Vec<Finding>, file_name: &str) -> (Vec<Finding>, Vec<Finding>) {
        let mut used = vec![false; self.entries.len()];
        let mut active = Vec::new();
        let mut suppressed = Vec::new();
        for f in findings {
            let hit = self
                .entries
                .iter()
                .position(|e| e.rule == f.rule && e.path == f.path);
            match hit {
                Some(i) => {
                    used[i] = true;
                    suppressed.push(f);
                }
                None => active.push(f),
            }
        }
        for (e, used) in self.entries.iter().zip(used) {
            if !used {
                active.push(Finding {
                    rule: "stale-allow",
                    path: file_name.to_owned(),
                    line: e.source_line,
                    message: format!(
                        "allowlist entry `{} {}` suppresses nothing — delete it",
                        e.rule, e.path
                    ),
                });
            }
        }
        (active, suppressed)
    }
}

/// Splits `s` at its first run of whitespace: the field before it and
/// the rest after it (empty when there is no whitespace).
fn next_field(s: &str) -> (&str, &str) {
    match s.split_once(char::is_whitespace) {
        Some((field, rest)) => (field, rest.trim_start()),
        None => (s, ""),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::RULE_NO_UNWRAP;

    fn finding(rule: &'static str, path: &str) -> Finding {
        Finding {
            rule,
            path: path.to_owned(),
            line: 10,
            message: "m".into(),
        }
    }

    #[test]
    fn parse_accepts_comments_and_justified_entries() {
        // Single-spaced, column-aligned and tab-separated entries.
        let (al, errs) = Allowlist::parse(
            "# header\n\nno-unwrap crates/x/src/a.rs generated table, panics unreachable\n\
             no-unwrap  crates/x/src/a.rs   aligned columns\n\
             no-unwrap\tcrates/x/src/a.rs\ttab separated\n",
            "analysis-allow.list",
        );
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(al.entries.len(), 3);
        for e in &al.entries {
            assert_eq!(e.rule, "no-unwrap");
            assert_eq!(e.path, "crates/x/src/a.rs");
        }
        assert_eq!(al.entries[1].justification, "aligned columns");
        assert_eq!(al.entries[2].justification, "tab separated");
    }

    #[test]
    fn parse_rejects_missing_justification_and_unknown_rules() {
        let (al, errs) = Allowlist::parse(
            "no-unwrap crates/x/src/a.rs\nnot-a-rule p because reasons\n",
            "analysis-allow.list",
        );
        assert!(al.entries.is_empty());
        assert_eq!(errs.len(), 2);
        assert!(errs.iter().all(|f| f.rule == "bad-allow"));
    }

    #[test]
    fn apply_suppresses_matches_and_flags_stale_entries() {
        let (al, errs) = Allowlist::parse(
            "no-unwrap crates/x/src/a.rs justified\nno-unwrap crates/x/src/gone.rs was fixed\n",
            "analysis-allow.list",
        );
        assert!(errs.is_empty());
        let (active, suppressed) = al.apply(
            vec![
                finding(RULE_NO_UNWRAP, "crates/x/src/a.rs"),
                finding(RULE_NO_UNWRAP, "crates/x/src/b.rs"),
            ],
            "analysis-allow.list",
        );
        assert_eq!(suppressed.len(), 1);
        assert_eq!(active.len(), 2, "unsuppressed finding + stale entry");
        assert!(active
            .iter()
            .any(|f| f.rule == "stale-allow" && f.line == 2));
    }
}
