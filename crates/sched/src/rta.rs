//! Fixed-priority preemptive response-time analysis.
//!
//! The classic recurrence (Joseph & Pandya / Audsley): the worst-case
//! response time of task *i* satisfies
//! `R_i = C_i + Σ_{j ∈ hp(i)} ⌈R_i / T_j⌉ · C_j`,
//! iterated from `R_i = C_i` until a fixed point or until `R_i > D_i`
//! (unschedulable). This is the admission test the dynamic platform runs in
//! the backend before accepting a new deterministic application (§3.1).

use crate::task::{TaskSet, TaskSpec};
use dynplat_common::time::SimDuration;
use dynplat_common::TaskId;

/// Analysis result for one task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtaResult {
    /// The analyzed task.
    pub id: TaskId,
    /// Worst-case response time, or `None` if the recurrence exceeded the
    /// deadline (task unschedulable at its priority).
    pub wcrt: Option<SimDuration>,
    /// The task's relative deadline, for convenience.
    pub deadline: SimDuration,
}

impl RtaResult {
    /// `true` if the task meets its deadline in the worst case.
    pub fn is_schedulable(&self) -> bool {
        self.wcrt.is_some()
    }
}

/// Computes worst-case response times for every task in `set` under
/// preemptive fixed-priority scheduling.
///
/// Ties in priority are broken by task id (lower id first), matching the
/// simulator in [`crate::simulate`].
pub fn response_times(set: &TaskSet) -> Vec<RtaResult> {
    set.tasks()
        .iter()
        .map(|task| {
            let hp: Vec<&TaskSpec> = set
                .tasks()
                .iter()
                .filter(|j| (j.priority, j.id.raw()) < (task.priority, task.id.raw()))
                .collect();
            let mut r = task.wcet;
            let wcrt = loop {
                let interference: SimDuration = hp
                    .iter()
                    .map(|j| j.wcet * r.as_nanos().div_ceil(j.period.as_nanos()))
                    .sum();
                let r_next = task.wcet + interference;
                if r_next == r {
                    break Some(r);
                }
                if r_next > task.deadline {
                    break None;
                }
                r = r_next;
            };
            RtaResult {
                id: task.id,
                wcrt,
                deadline: task.deadline,
            }
        })
        .collect()
}

/// `true` if every task in `set` is schedulable under fixed priorities.
pub fn is_schedulable(set: &TaskSet) -> bool {
    response_times(set).iter().all(RtaResult::is_schedulable)
}

/// Assigns deadline-monotonic priorities (shorter deadline → higher
/// priority, i.e. smaller priority number), which is optimal for
/// constrained-deadline synchronous task sets. Returns a new set; relative
/// order of equal deadlines follows task id.
pub fn assign_deadline_monotonic(set: &TaskSet) -> TaskSet {
    let mut tasks: Vec<TaskSpec> = set.tasks().to_vec();
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_key(|&i| (tasks[i].deadline, tasks[i].id.raw()));
    for (prio, &i) in order.iter().enumerate() {
        tasks[i].priority = prio as u32;
    }
    tasks.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(id: u32, period_ms: u64, wcet_ms: u64, prio: u32) -> TaskSpec {
        TaskSpec::periodic(TaskId(id), format!("t{id}"), ms(period_ms), ms(wcet_ms))
            .with_priority(prio)
    }

    #[test]
    fn textbook_example() {
        // Classic three-task example: T=(7,12,20), C=(3,3,5), RM priorities.
        let set: TaskSet = [t(1, 7, 3, 0), t(2, 12, 3, 1), t(3, 20, 5, 2)]
            .into_iter()
            .collect();
        let rts = response_times(&set);
        assert_eq!(rts[0].wcrt, Some(ms(3)));
        assert_eq!(rts[1].wcrt, Some(ms(6)));
        // R3: 5 + 2*3 + 1*3 = 14 -> iterate: 5, 11, 14, 17, 20, 20.
        assert_eq!(rts[2].wcrt, Some(ms(20)));
        assert!(is_schedulable(&set));
    }

    #[test]
    fn unschedulable_low_priority_task_detected() {
        let set: TaskSet = [t(1, 4, 2, 0), t(2, 8, 4, 1), t(3, 16, 2, 2)]
            .into_iter()
            .collect();
        // U = 0.5 + 0.5 + 0.125 > 1: lowest task cannot fit.
        let rts = response_times(&set);
        assert!(rts[0].is_schedulable());
        assert!(!rts[2].is_schedulable());
        assert!(!is_schedulable(&set));
        assert_eq!(rts[2].wcrt, None);
    }

    #[test]
    fn highest_priority_wcrt_is_own_wcet() {
        let set: TaskSet = [t(1, 100, 10, 0), t(2, 100, 50, 1)].into_iter().collect();
        let rts = response_times(&set);
        assert_eq!(rts[0].wcrt, Some(ms(10)));
        assert_eq!(rts[0].deadline, ms(100));
    }

    #[test]
    fn deadline_monotonic_assignment() {
        let set: TaskSet = [
            TaskSpec::periodic(TaskId(1), "slow", ms(100), ms(1)).with_deadline(ms(50)),
            TaskSpec::periodic(TaskId(2), "fast", ms(100), ms(1)).with_deadline(ms(5)),
            TaskSpec::periodic(TaskId(3), "mid", ms(100), ms(1)).with_deadline(ms(20)),
        ]
        .into_iter()
        .collect();
        let dm = assign_deadline_monotonic(&set);
        let prio_of = |id: u32| dm.get(TaskId(id)).unwrap().priority;
        assert!(prio_of(2) < prio_of(3));
        assert!(prio_of(3) < prio_of(1));
    }

    #[test]
    fn dm_recovers_schedulability() {
        // With inverted priorities this set fails; with DM it passes.
        let bad: TaskSet = [
            TaskSpec::periodic(TaskId(1), "fast", ms(5), ms(2)).with_priority(1),
            TaskSpec::periodic(TaskId(2), "slow", ms(50), ms(20)).with_priority(0),
        ]
        .into_iter()
        .collect();
        assert!(!is_schedulable(&bad));
        let dm = assign_deadline_monotonic(&bad);
        assert!(is_schedulable(&dm));
    }

    #[test]
    fn priority_ties_break_by_id() {
        let set: TaskSet = [t(2, 10, 3, 0), t(1, 10, 3, 0)].into_iter().collect();
        let rts = response_times(&set);
        // Task 1 (lower id) is treated as higher priority.
        let r1 = rts.iter().find(|r| r.id == TaskId(1)).unwrap();
        let r2 = rts.iter().find(|r| r.id == TaskId(2)).unwrap();
        assert_eq!(r1.wcrt, Some(ms(3)));
        assert_eq!(r2.wcrt, Some(ms(6)));
    }
}
