#![forbid(unsafe_code)]
//! # dynplat-analysis — correctness tooling for the dynplat workspace
//!
//! Two executable analyses over the tree itself (DESIGN.md §9):
//!
//! 1. **The invariant linter** ([`lints`], driven by [`workspace`] and the
//!    `dynplat-analysis` binary): a zero-dependency lexer-based pass that
//!    enforces the project invariants no compiler checks — crate-wide
//!    `#![forbid(unsafe_code)]`, no `.unwrap()`/bare `panic!` in library
//!    code, no wall-clock reads or hash-ordered collections in
//!    determinism-critical crates, and a `// relaxed:` justification on
//!    every `Ordering::Relaxed` atomic operation. Violations can only be
//!    suppressed through the checked-in, justification-carrying
//!    [`allowlist`], and stale suppressions are themselves findings.
//!
//! 2. **The schedule-exploration model checker** ([`mc`]): virtual
//!    atomics with a release/acquire/relaxed view semantics plus a
//!    bounded-preemption DFS scheduler, exhaustively interleaving models
//!    of the metrics registry's striped and shared-field flushes
//!    ([`mc::stripe`]). The shipped protocols pass under every explored
//!    interleaving; a seeded weakening (a `Relaxed` join handshake) is
//!    caught with a concrete violating schedule.
//!
//! Both run in `scripts/ci.sh` as gating steps; the linter's JSON report
//! (`dynplat.analysis.v1`) is uploaded as a CI artifact on failure.

pub mod allowlist;
pub mod lexer;
pub mod lints;
pub mod mc;
pub mod report;
pub mod workspace;
