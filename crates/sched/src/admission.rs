//! Online admission control.
//!
//! "When the set of applications is changed at runtime, the schedule needs
//! to be adjusted accordingly encompassing the changed requirements of all
//! applications" (§3.1). Before the dynamic platform starts a new
//! application it runs an admission test over the CPU's current task set —
//! the "admission control … to check whether there is enough resources to
//! satisfy the timing requirements" of \[6\]/\[19\] in the related work.

use crate::edf::is_edf_schedulable;
use crate::rta;
use crate::task::{TaskSet, TaskSpec};
use dynplat_common::TaskId;
use std::fmt;

/// Which schedulability test gates admission.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum AdmissionTest {
    /// Fixed-priority response-time analysis (exact for FP scheduling).
    #[default]
    FixedPriorityRta,
    /// EDF processor-demand criterion.
    Edf,
    /// Plain utilization bound `U ≤ limit` — fast but only a necessary
    /// condition; used to demonstrate unsound admission in E10.
    UtilizationOnly {
        /// Admission threshold, canonically 1.0.
        limit_milli: u32,
    },
}

/// Outcome of an admission request.
#[derive(Clone, Debug, PartialEq)]
pub struct AdmissionDecision {
    /// The task that was tested.
    pub task: TaskId,
    /// Whether the task was admitted.
    pub admitted: bool,
    /// CPU utilization after the decision.
    pub utilization: f64,
    /// Human-readable reason for rejection, empty when admitted.
    pub reason: String,
}

/// Errors raised by the controller itself (not test rejections).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdmissionError {
    /// A task with this id is already admitted.
    DuplicateTask(TaskId),
    /// The task to remove is unknown.
    UnknownTask(TaskId),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::DuplicateTask(id) => write!(f, "task {id} already admitted"),
            AdmissionError::UnknownTask(id) => write!(f, "task {id} not admitted here"),
        }
    }
}

impl std::error::Error for AdmissionError {}

/// Stateful admission controller for one CPU.
///
/// # Examples
///
/// ```
/// use dynplat_common::time::SimDuration;
/// use dynplat_common::TaskId;
/// use dynplat_sched::admission::AdmissionController;
/// use dynplat_sched::task::TaskSpec;
///
/// let mut ctrl = AdmissionController::new();
/// let t = TaskSpec::periodic(TaskId(1), "ctrl", SimDuration::from_millis(10), SimDuration::from_millis(2));
/// let decision = ctrl.try_admit(t)?;
/// assert!(decision.admitted);
/// # Ok::<(), dynplat_sched::admission::AdmissionError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct AdmissionController {
    test: AdmissionTest,
    admitted: TaskSet,
}

impl AdmissionController {
    /// Creates a controller using [`AdmissionTest::FixedPriorityRta`].
    pub fn new() -> Self {
        AdmissionController::default()
    }

    /// Creates a controller with an explicit test.
    pub fn with_test(test: AdmissionTest) -> Self {
        AdmissionController {
            test,
            admitted: TaskSet::new(),
        }
    }

    /// The currently admitted task set.
    pub fn admitted(&self) -> &TaskSet {
        &self.admitted
    }

    /// Tests `task` against the current set; admits it (mutating the set)
    /// only if the test passes.
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::DuplicateTask`] if the id is taken. A
    /// failed schedulability test is *not* an error: it yields a decision
    /// with `admitted == false`.
    pub fn try_admit(&mut self, task: TaskSpec) -> Result<AdmissionDecision, AdmissionError> {
        if self.admitted.get(task.id).is_some() {
            return Err(AdmissionError::DuplicateTask(task.id));
        }
        let id = task.id;
        let mut candidate = self.admitted.clone();
        candidate.push(task);
        let (ok, reason) = match self.test {
            AdmissionTest::FixedPriorityRta => {
                let candidate_dm = rta::assign_deadline_monotonic(&candidate);
                if rta::is_schedulable(&candidate_dm) {
                    (true, String::new())
                } else {
                    (false, "response-time analysis failed".to_owned())
                }
            }
            AdmissionTest::Edf => {
                if is_edf_schedulable(&candidate) {
                    (true, String::new())
                } else {
                    (false, "EDF demand test failed".to_owned())
                }
            }
            AdmissionTest::UtilizationOnly { limit_milli } => {
                let limit = f64::from(limit_milli) / 1000.0;
                if candidate.utilization() <= limit {
                    (true, String::new())
                } else {
                    (
                        false,
                        format!(
                            "utilization {:.3} above {limit:.3}",
                            candidate.utilization()
                        ),
                    )
                }
            }
        };
        let utilization = if ok {
            candidate.utilization()
        } else {
            self.admitted.utilization()
        };
        if ok {
            self.admitted = candidate;
        }
        Ok(AdmissionDecision {
            task: id,
            admitted: ok,
            utilization,
            reason,
        })
    }

    /// Removes an admitted task (application stopped or updated away).
    ///
    /// # Errors
    ///
    /// Returns [`AdmissionError::UnknownTask`] if absent.
    pub fn release(&mut self, id: TaskId) -> Result<TaskSpec, AdmissionError> {
        self.admitted
            .remove(id)
            .ok_or(AdmissionError::UnknownTask(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::time::SimDuration;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(id: u32, period_ms: u64, wcet_ms: u64) -> TaskSpec {
        TaskSpec::periodic(TaskId(id), format!("t{id}"), ms(period_ms), ms(wcet_ms))
    }

    #[test]
    fn admits_until_capacity_then_rejects() {
        let mut ctrl = AdmissionController::new();
        assert!(ctrl.try_admit(t(1, 10, 4)).unwrap().admitted);
        assert!(ctrl.try_admit(t(2, 10, 4)).unwrap().admitted);
        let d = ctrl.try_admit(t(3, 10, 4)).unwrap();
        assert!(!d.admitted);
        assert!(!d.reason.is_empty());
        // Rejection must not change state.
        assert_eq!(ctrl.admitted().len(), 2);
        assert!((d.utilization - 0.8).abs() < 1e-12);
    }

    #[test]
    fn release_frees_capacity() {
        let mut ctrl = AdmissionController::new();
        ctrl.try_admit(t(1, 10, 5)).unwrap();
        ctrl.try_admit(t(2, 10, 4)).unwrap();
        assert!(!ctrl.try_admit(t(3, 10, 3)).unwrap().admitted);
        ctrl.release(TaskId(1)).unwrap();
        assert!(ctrl.try_admit(t(3, 10, 3)).unwrap().admitted);
        assert_eq!(
            ctrl.release(TaskId(1)),
            Err(AdmissionError::UnknownTask(TaskId(1)))
        );
    }

    #[test]
    fn duplicate_admission_is_an_error() {
        let mut ctrl = AdmissionController::new();
        ctrl.try_admit(t(1, 10, 1)).unwrap();
        assert_eq!(
            ctrl.try_admit(t(1, 20, 1)).unwrap_err(),
            AdmissionError::DuplicateTask(TaskId(1))
        );
    }

    #[test]
    fn utilization_only_test_is_unsound_for_constrained_deadlines() {
        // U = 0.75 ≤ 1 admits, but the 2 ms deadlines cannot both be met.
        let mut naive =
            AdmissionController::with_test(AdmissionTest::UtilizationOnly { limit_milli: 1000 });
        let a = t(1, 4, 1).with_deadline(ms(2));
        let b = t(2, 4, 2).with_deadline(ms(2));
        assert!(naive.try_admit(a.clone()).unwrap().admitted);
        assert!(
            naive.try_admit(b.clone()).unwrap().admitted,
            "unsound test admits"
        );

        let mut sound = AdmissionController::with_test(AdmissionTest::Edf);
        assert!(sound.try_admit(a).unwrap().admitted);
        assert!(!sound.try_admit(b).unwrap().admitted, "sound test rejects");
    }

    #[test]
    fn edf_admits_to_full_utilization() {
        let mut ctrl = AdmissionController::with_test(AdmissionTest::Edf);
        assert!(ctrl.try_admit(t(1, 4, 2)).unwrap().admitted);
        assert!(ctrl.try_admit(t(2, 8, 4)).unwrap().admitted);
        assert!((ctrl.admitted().utilization() - 1.0).abs() < 1e-12);
        assert!(!ctrl.try_admit(t(3, 100, 1)).unwrap().admitted);
    }

    #[test]
    fn rta_test_uses_dm_priorities() {
        // Even with unhelpful user priorities, admission reorders by DM.
        let mut ctrl = AdmissionController::new();
        assert!(
            ctrl.try_admit(t(1, 50, 20).with_priority(0))
                .unwrap()
                .admitted
        );
        assert!(
            ctrl.try_admit(t(2, 5, 2).with_priority(9))
                .unwrap()
                .admitted
        );
    }
}
