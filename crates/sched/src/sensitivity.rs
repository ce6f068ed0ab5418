//! Sensitivity analysis: how much execution-time growth a schedule
//! tolerates.
//!
//! The paper's core worry is *uncertainty*: execution times on a dynamic
//! platform are not pinned down at design time. The critical scaling factor
//! (Lehoczky-style) answers "by how much may every WCET grow before the
//! task set stops being schedulable?" — the backend uses it to decide how
//! much headroom a vehicle configuration has before admitting yet another
//! application, and the monitoring substrate uses it to set drift-warning
//! thresholds.

use crate::rta;
use crate::task::{TaskSet, TaskSpec};

/// Scales every WCET in `set` by `factor` (deadlines/periods untouched).
fn scaled(set: &TaskSet, factor: f64) -> TaskSet {
    set.tasks()
        .iter()
        .map(|t| {
            let wcet = t
                .wcet
                .mul_f64(factor)
                .max(dynplat_common::time::SimDuration::from_nanos(1))
                .min(t.period);
            let mut scaled_task = TaskSpec::periodic(t.id, t.name.clone(), t.period, wcet)
                .with_priority(t.priority)
                .with_offset(t.offset);
            scaled_task.deadline = t.deadline;
            scaled_task.kind = t.kind;
            scaled_task
        })
        .collect()
}

/// The critical scaling factor under fixed-priority scheduling: the largest
/// uniform WCET multiplier (within `precision`) for which the set stays
/// schedulable by response-time analysis. Returns `0.0` if the set is
/// already unschedulable, and caps the search at `16.0` for nearly empty
/// sets.
///
/// # Panics
///
/// Panics if `precision` is not positive.
pub fn critical_scaling_factor(set: &TaskSet, precision: f64) -> f64 {
    assert!(precision > 0.0, "precision must be positive");
    if set.is_empty() {
        return 16.0;
    }
    if !rta::is_schedulable(set) {
        return 0.0;
    }
    let mut lo = 1.0f64;
    let mut hi = 16.0f64;
    if schedulable_at(set, hi) {
        return hi;
    }
    while hi - lo > precision {
        let mid = (lo + hi) / 2.0;
        if schedulable_at(set, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// A scaling factor is feasible only if no WCET outgrows its period (the
/// clamp in [`scaled`] would otherwise mask the overload) and the scaled
/// set passes response-time analysis.
fn schedulable_at(set: &TaskSet, factor: f64) -> bool {
    let fits = set
        .tasks()
        .iter()
        .all(|t| t.wcet.mul_f64(factor) <= t.period);
    fits && rta::is_schedulable(&scaled(set, factor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::time::SimDuration;
    use dynplat_common::TaskId;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(id: u32, period_ms: u64, wcet_ms: u64) -> TaskSpec {
        TaskSpec::periodic(TaskId(id), format!("t{id}"), ms(period_ms), ms(wcet_ms))
            .with_priority(id)
    }

    #[test]
    fn lightly_loaded_set_has_large_headroom() {
        let set: TaskSet = [t(1, 100, 5), t(2, 200, 5)].into_iter().collect();
        let f = critical_scaling_factor(&set, 0.01);
        assert!(f > 10.0, "U = 0.075 tolerates >10x growth, got {f}");
    }

    #[test]
    fn nearly_full_set_has_little_headroom() {
        let set: TaskSet = [t(1, 10, 4), t(2, 20, 8)].into_iter().collect(); // U = 0.8
        let f = critical_scaling_factor(&set, 0.001);
        assert!((1.0..1.3).contains(&f), "got {f}");
        // The scaled set at the reported factor is indeed schedulable...
        assert!(rta::is_schedulable(&scaled(&set, f)));
        // ...and slightly above it is not.
        assert!(!rta::is_schedulable(&scaled(&set, f + 0.05)));
    }

    #[test]
    fn unschedulable_set_reports_zero() {
        let set: TaskSet = [t(1, 10, 6), t(2, 10, 6)].into_iter().collect();
        assert_eq!(critical_scaling_factor(&set, 0.01), 0.0);
    }

    #[test]
    fn empty_set_reports_the_cap() {
        assert_eq!(critical_scaling_factor(&TaskSet::new(), 0.01), 16.0);
    }

    #[test]
    fn slack_shrinks_with_scaling() {
        let set: TaskSet = [t(1, 10, 2), t(2, 20, 4)].into_iter().collect();
        let wcrts = |factor| -> Vec<SimDuration> {
            rta::response_times(&scaled(&set, factor))
                .into_iter()
                .map(|r| r.wcrt.expect("schedulable at this factor"))
                .collect()
        };
        let (at_1, at_2) = (wcrts(1.0), wcrts(2.0));
        assert_eq!(at_1.len(), 2);
        assert_eq!(at_2.len(), 2);
        // Deadlines stay put, so a longer response time is less slack.
        for (a, b) in at_1.iter().zip(&at_2) {
            assert!(b > a, "response time must grow: {a} -> {b}");
        }
    }

    #[test]
    fn factor_is_monotone_in_load() {
        let light: TaskSet = [t(1, 100, 2)].into_iter().collect();
        let heavy: TaskSet = [t(1, 100, 40)].into_iter().collect();
        assert!(critical_scaling_factor(&light, 0.01) > critical_scaling_factor(&heavy, 0.01));
    }
}
