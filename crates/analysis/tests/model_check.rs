//! Model-checker regression suite for the fabric's lock-free protocols.
//!
//! Each test explores *every* interleaving of a two-thread protocol model
//! (within the default preemption bound) under the checker's C11-style
//! view semantics. The `correct` variants are the protocols the real code
//! in `crates/comm/src/ring.rs` and `crates/obs/src/metrics.rs` uses; the
//! `broken_*` variants re-inject ordering bugs (publishing `tail` with
//! `Relaxed`, storing lanes after the publish, flushing stripe flags
//! without `Release`) and must be caught with a concrete schedule trace.

use dynplat_analysis::mc::spsc::{SpscModel, StripeModel};
use dynplat_analysis::mc::{explore, Config};

#[test]
fn spsc_publish_protocol_is_safe_and_state_space_is_exhausted() {
    for pushes in 1..=3 {
        let ex = explore(SpscModel::correct(pushes), &Config::default());
        assert!(
            ex.complete,
            "state space must be exhausted (pushes={pushes})"
        );
        assert!(
            ex.terminal > 0,
            "no terminal state reached (pushes={pushes})"
        );
        assert!(
            ex.violation.is_none(),
            "SPSC protocol violated at pushes={pushes}: {:?}",
            ex.violation
        );
    }
}

#[test]
fn spsc_exploration_covers_nontrivial_interleaving_count() {
    // Guard against the scheduler silently degenerating to one schedule:
    // three pushes through a capacity-2 ring interleave in hundreds of
    // distinct states.
    let ex = explore(SpscModel::correct(3), &Config::default());
    assert!(ex.complete);
    assert!(
        ex.states > 100,
        "suspiciously small exploration: {} states",
        ex.states
    );
}

#[test]
fn relaxed_tail_publish_is_caught_with_a_trace() {
    let ex = explore(SpscModel::broken_relaxed_tail(2), &Config::default());
    let v = ex
        .violation
        .expect("publishing `tail` with Relaxed must produce a stale lane read");
    assert!(
        v.message.contains("stale lane read"),
        "unexpected violation: {}",
        v.message
    );
    assert!(!v.trace.is_empty(), "violation must carry its schedule");
}

#[test]
fn lane_stores_after_tail_publish_are_caught() {
    let ex = explore(SpscModel::broken_lanes_after_tail(2), &Config::default());
    let v = ex
        .violation
        .expect("storing lanes after the tail publish must be caught");
    assert!(
        v.message.contains("stale lane read"),
        "unexpected violation: {}",
        v.message
    );
}

#[test]
fn stripe_flush_protocol_is_safe_and_exhausted() {
    let ex = explore(StripeModel::correct(), &Config::default());
    assert!(ex.complete);
    assert!(
        ex.violation.is_none(),
        "stripe flush violated: {:?}",
        ex.violation
    );
}

#[test]
fn shared_field_flush_protocol_is_safe_and_exhausted() {
    // The histogram flush: both writers add into the same bucket and
    // count fields, then join.
    let ex = explore(StripeModel::shared_fields(), &Config::default());
    assert!(ex.complete);
    assert!(
        ex.violation.is_none(),
        "shared-field flush violated: {:?}",
        ex.violation
    );
}

#[test]
fn relaxed_stripe_flag_loses_counts() {
    let ex = explore(StripeModel::broken_relaxed_flag(), &Config::default());
    let v = ex
        .violation
        .expect("flushing the stripe flag with Relaxed must lose counts");
    assert!(
        v.message.contains("lost counts"),
        "unexpected violation: {}",
        v.message
    );
}
