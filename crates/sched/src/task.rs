//! The periodic task model.
//!
//! A deterministic application (§3.1) is modeled as one or more periodic
//! tasks with fixed activation interval, worst-case execution time and a
//! deadline. Non-deterministic work appears either as sporadic tasks with
//! soft deadlines or as aggregate load inside a budget server.

use dynplat_common::time::{hyperperiod, SimDuration};
use dynplat_common::{AppKind, TaskId};

/// A periodic task.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskSpec {
    /// Task identifier.
    pub id: TaskId,
    /// Human-readable name.
    pub name: String,
    /// Deterministic or non-deterministic origin.
    pub kind: AppKind,
    /// Activation period.
    pub period: SimDuration,
    /// Worst-case execution time.
    pub wcet: SimDuration,
    /// Relative deadline (defaults to the period).
    pub deadline: SimDuration,
    /// First release offset from time zero.
    pub offset: SimDuration,
    /// Fixed priority; **lower value = higher priority**. Assigned by
    /// [`crate::rta::assign_deadline_monotonic`] when not set manually.
    pub priority: u32,
}

impl TaskSpec {
    /// Creates a deterministic periodic task with deadline = period, zero
    /// offset, and priority equal to its id.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `wcet` is zero, or `wcet > period`.
    pub fn periodic(
        id: TaskId,
        name: impl Into<String>,
        period: SimDuration,
        wcet: SimDuration,
    ) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        assert!(!wcet.is_zero(), "wcet must be non-zero");
        assert!(wcet <= period, "wcet must not exceed period");
        TaskSpec {
            id,
            name: name.into(),
            kind: AppKind::Deterministic,
            period,
            wcet,
            deadline: period,
            offset: SimDuration::ZERO,
            priority: id.raw(),
        }
    }

    /// Marks this task as non-deterministic background work.
    pub fn non_deterministic(mut self) -> Self {
        self.kind = AppKind::NonDeterministic;
        self
    }

    /// Sets a constrained relative deadline.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero or smaller than the WCET.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        assert!(
            !deadline.is_zero() && deadline >= self.wcet,
            "invalid deadline"
        );
        self.deadline = deadline;
        self
    }

    /// Sets the release offset.
    pub fn with_offset(mut self, offset: SimDuration) -> Self {
        self.offset = offset;
        self
    }

    /// Sets the fixed priority (lower value = higher priority).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// CPU utilization of this task.
    pub fn utilization(&self) -> f64 {
        self.wcet.as_nanos() as f64 / self.period.as_nanos() as f64
    }
}

/// An ordered collection of tasks bound to one CPU.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskSet {
    tasks: Vec<TaskSpec>,
}

impl TaskSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        TaskSet::default()
    }

    /// Adds a task.
    ///
    /// # Panics
    ///
    /// Panics if a task with the same id is already present.
    pub fn push(&mut self, task: TaskSpec) {
        assert!(
            !self.tasks.iter().any(|t| t.id == task.id),
            "duplicate task id {}",
            task.id
        );
        self.tasks.push(task);
    }

    /// Removes a task by id, returning it if present.
    pub fn remove(&mut self, id: TaskId) -> Option<TaskSpec> {
        let idx = self.tasks.iter().position(|t| t.id == id)?;
        Some(self.tasks.remove(idx))
    }

    /// The tasks in insertion order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Looks up a task by id.
    pub fn get(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total CPU utilization.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(TaskSpec::utilization).sum()
    }

    /// Hyperperiod (LCM of all periods); zero for an empty set.
    pub fn hyperperiod(&self) -> SimDuration {
        hyperperiod(self.tasks.iter().map(|t| t.period))
    }
}

impl FromIterator<TaskSpec> for TaskSet {
    fn from_iter<I: IntoIterator<Item = TaskSpec>>(iter: I) -> Self {
        let mut set = TaskSet::new();
        for t in iter {
            set.push(t);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn periodic_defaults() {
        let t = TaskSpec::periodic(TaskId(1), "ctrl", ms(10), ms(2));
        assert_eq!(t.deadline, ms(10));
        assert_eq!(t.offset, SimDuration::ZERO);
        assert_eq!(t.kind, AppKind::Deterministic);
        assert!((t.utilization() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "wcet must not exceed period")]
    fn overcommitted_task_panics() {
        TaskSpec::periodic(TaskId(1), "bad", ms(1), ms(2));
    }

    #[test]
    fn builder_methods() {
        let t = TaskSpec::periodic(TaskId(2), "x", ms(20), ms(1))
            .with_deadline(ms(5))
            .with_offset(ms(3))
            .with_priority(7)
            .non_deterministic();
        assert_eq!(t.deadline, ms(5));
        assert_eq!(t.offset, ms(3));
        assert_eq!(t.priority, 7);
        assert_eq!(t.kind, AppKind::NonDeterministic);
    }

    #[test]
    fn set_operations() {
        let mut set: TaskSet = [
            TaskSpec::periodic(TaskId(1), "a", ms(4), ms(1)),
            TaskSpec::periodic(TaskId(2), "b", ms(6), ms(1)),
        ]
        .into_iter()
        .collect();
        assert_eq!(set.len(), 2);
        assert_eq!(set.hyperperiod(), ms(12));
        assert!((set.utilization() - (0.25 + 1.0 / 6.0)).abs() < 1e-12);
        assert!(set.get(TaskId(1)).is_some());
        let removed = set.remove(TaskId(1)).unwrap();
        assert_eq!(removed.name, "a");
        assert_eq!(set.len(), 1);
        assert!(set.remove(TaskId(99)).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate task id")]
    fn duplicate_ids_panic() {
        let mut set = TaskSet::new();
        set.push(TaskSpec::periodic(TaskId(1), "a", ms(4), ms(1)));
        set.push(TaskSpec::periodic(TaskId(1), "b", ms(4), ms(1)));
    }

    #[test]
    fn kind_filters() {
        let set: TaskSet = [
            TaskSpec::periodic(TaskId(1), "da", ms(4), ms(1)),
            TaskSpec::periodic(TaskId(2), "nda", ms(6), ms(1)).non_deterministic(),
        ]
        .into_iter()
        .collect();
        let kinds: Vec<AppKind> = set.tasks().iter().map(|t| t.kind).collect();
        assert_eq!(kinds, [AppKind::Deterministic, AppKind::NonDeterministic]);
    }
}
