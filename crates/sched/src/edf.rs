//! Earliest-deadline-first schedulability tests.
//!
//! Two standard tests: the exact utilization bound for implicit deadlines
//! (U ≤ 1) and the processor-demand criterion for constrained deadlines:
//! for all absolute deadlines `t` up to the analysis horizon,
//! `dbf(t) = Σ_i max(0, ⌊(t − D_i)/T_i⌋ + 1) · C_i ≤ t`.

use crate::task::TaskSet;
use dynplat_common::time::SimDuration;

/// Processor demand of `set` in any interval of length `t` (synchronous
/// release), per the demand bound function.
pub fn demand_bound(set: &TaskSet, t: SimDuration) -> SimDuration {
    set.tasks()
        .iter()
        .map(|task| {
            if t < task.deadline {
                SimDuration::ZERO
            } else {
                let jobs = (t - task.deadline) / task.period + 1;
                task.wcet * jobs
            }
        })
        .sum()
}

/// All testing points (absolute deadlines) up to `horizon`.
fn deadline_points(set: &TaskSet, horizon: SimDuration) -> Vec<SimDuration> {
    let mut points = Vec::new();
    for task in set.tasks() {
        let mut d = task.deadline;
        while d <= horizon {
            points.push(d);
            d += task.period;
        }
    }
    points.sort();
    points.dedup();
    points
}

/// Exact EDF schedulability for constrained-deadline periodic tasks.
///
/// Checks `U ≤ 1` and the processor-demand criterion at every absolute
/// deadline up to the hyperperiod (sufficient for synchronous periodic
/// sets). Returns `false` for over-utilized sets immediately.
pub fn is_edf_schedulable(set: &TaskSet) -> bool {
    if set.is_empty() {
        return true;
    }
    if set.utilization() > 1.0 + 1e-12 {
        return false;
    }
    let horizon = set.hyperperiod();
    deadline_points(set, horizon)
        .into_iter()
        .all(|t| demand_bound(set, t) <= t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;
    use dynplat_common::TaskId;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn implicit_deadline_full_utilization_is_schedulable() {
        let set: TaskSet = [
            TaskSpec::periodic(TaskId(1), "a", ms(4), ms(2)),
            TaskSpec::periodic(TaskId(2), "b", ms(8), ms(4)),
        ]
        .into_iter()
        .collect();
        assert!((set.utilization() - 1.0).abs() < 1e-12);
        assert!(is_edf_schedulable(&set));
    }

    #[test]
    fn over_utilization_fails() {
        let set: TaskSet = [
            TaskSpec::periodic(TaskId(1), "a", ms(4), ms(3)),
            TaskSpec::periodic(TaskId(2), "b", ms(8), ms(4)),
        ]
        .into_iter()
        .collect();
        assert!(!is_edf_schedulable(&set));
    }

    #[test]
    fn constrained_deadlines_tighten_the_test() {
        // U = 0.75 but both deadlines at 2 ms demand 3 ms of work by t=2.
        let set: TaskSet = [
            TaskSpec::periodic(TaskId(1), "a", ms(4), ms(1)).with_deadline(ms(2)),
            TaskSpec::periodic(TaskId(2), "b", ms(4), ms(2)).with_deadline(ms(2)),
        ]
        .into_iter()
        .collect();
        assert!(set.utilization() < 1.0);
        assert!(!is_edf_schedulable(&set));
    }

    #[test]
    fn demand_bound_values() {
        let set: TaskSet = [TaskSpec::periodic(TaskId(1), "a", ms(10), ms(3)).with_deadline(ms(5))]
            .into_iter()
            .collect();
        assert_eq!(demand_bound(&set, ms(4)), SimDuration::ZERO);
        assert_eq!(demand_bound(&set, ms(5)), ms(3));
        assert_eq!(demand_bound(&set, ms(14)), ms(3));
        assert_eq!(demand_bound(&set, ms(15)), ms(6));
    }

    #[test]
    fn empty_set_is_schedulable() {
        assert!(is_edf_schedulable(&TaskSet::new()));
    }
}
