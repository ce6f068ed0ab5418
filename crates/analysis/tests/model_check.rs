//! Model-checker regression suite for the metrics flush protocols.
//!
//! Each test explores *every* interleaving of a three-thread protocol
//! model (within the default preemption bound) under the checker's
//! C11-style view semantics. The `correct` and `shared_fields` variants
//! are the flushes the real code in `crates/obs/src/metrics.rs` uses; the
//! `broken_*` variant re-injects an ordering bug (announcing completion
//! without `Release`) and must be caught with a concrete schedule trace.

use dynplat_analysis::mc::stripe::StripeModel;
use dynplat_analysis::mc::{explore, Config};

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
