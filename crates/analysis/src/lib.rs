#![forbid(unsafe_code)]
//! # dynplat-analysis — the workspace invariant linter
//!
//! A zero-dependency lexer-based pass over the tree itself (DESIGN.md §9)
//! that enforces the project invariants no compiler checks: crate-wide
//! `#![forbid(unsafe_code)]`, no `.unwrap()`/bare `panic!` in library
//! code, no wall-clock reads or hash-ordered collections in
//! determinism-critical crates, and a `// relaxed:` justification on every
//! `Ordering::Relaxed` atomic operation. The rules live in [`lints`], run
//! over the files [`workspace`] discovers, and are driven by the
//! `dynplat-analysis` binary. Violations can only be suppressed through
//! the checked-in, justification-carrying [`allowlist`], and stale
//! suppressions are themselves findings.
//!
//! The linter runs in `scripts/ci.sh` as a gating step; its JSON report
//! (`dynplat.analysis.v1`, see [`report`]) is uploaded as a CI artifact on
//! failure.

pub mod allowlist;
pub mod lexer;
pub mod lints;
pub mod report;
pub mod workspace;
