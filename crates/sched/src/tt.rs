//! Time-triggered schedule synthesis.
//!
//! The paper proposes to "generate a schedule from the model and test this
//! schedule in simulations in the backend" (§3.1). A time-triggered schedule
//! fixes, for every job of every deterministic task within the hyperperiod,
//! a non-preemptive execution slot. Synthesis here is an earliest-fit
//! heuristic in rate-monotonic order — fast enough for online use and
//! producing compact schedules; its output is validated structurally by
//! [`TtSchedule::validate`] and behaviorally by the simulator.
//!
//! Placement keeps the occupied slots in one sorted list for the whole
//! synthesis. A job binary-searches for the first slot that can delay it,
//! scans forward to the first gap that fits, and inserts its slot in
//! order. For `J` jobs in the hyperperiod that is `O(J log J)` searching
//! plus `O(J)` element shifts per insert, so `O(J²)` moves in the worst
//! case, against the `O(J² log J)` of re-sorting the table for every job.
//!
//! Two synthesis modes mirror the schedule-management framework of \[21\]:
//!
//! * [`synthesize`] — full resynthesis: may move every slot, packs best;
//! * [`insert_incremental`] — adds one task's jobs into the gaps of an
//!   existing schedule without touching any placed slot (zero disturbance
//!   to running applications).

use crate::task::{TaskSet, TaskSpec};
use dynplat_common::time::SimDuration;
use dynplat_common::TaskId;
use std::fmt;

/// One non-preemptive execution slot within the hyperperiod.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TtEntry {
    /// The task this slot belongs to.
    pub task: TaskId,
    /// Job index within the hyperperiod (k-th release).
    pub job: u64,
    /// Slot start offset from hyperperiod start.
    pub start: SimDuration,
    /// Slot length (the task's WCET).
    pub duration: SimDuration,
}

impl TtEntry {
    /// Slot end offset.
    pub fn end(&self) -> SimDuration {
        self.start + self.duration
    }
}

/// Errors from schedule synthesis or validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TtSynthesisError {
    /// No gap accommodates job `job` of the task within its release/deadline
    /// window.
    NoFeasibleSlot {
        /// Task that could not be placed.
        task: TaskId,
        /// Job index that failed.
        job: u64,
    },
    /// The task set exceeds CPU capacity (utilization > 1).
    OverUtilized,
    /// A task with the same id is already in the schedule.
    DuplicateTask(TaskId),
}

impl fmt::Display for TtSynthesisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TtSynthesisError::NoFeasibleSlot { task, job } => {
                write!(f, "no feasible slot for job {job} of {task}")
            }
            TtSynthesisError::OverUtilized => write!(f, "task set utilization exceeds 1"),
            TtSynthesisError::DuplicateTask(id) => write!(f, "task {id} already scheduled"),
        }
    }
}

impl std::error::Error for TtSynthesisError {}

/// A table's occupied slots as `(start, reach)`, sorted by start, where
/// `reach` is the latest end among this slot and every slot before it.
/// Reach is monotone even where slots overlap, as a slot that crosses the
/// hyperperiod boundary overlaps the next repetition's once
/// [`TtSchedule::expand_to`] replicates the table. So a binary search on
/// reach finds the first slot that can delay a job released at a given
/// time.
type Slots = Vec<(SimDuration, SimDuration)>;

/// A complete time-triggered table repeating every hyperperiod.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TtSchedule {
    hyperperiod: SimDuration,
    entries: Vec<TtEntry>,
}

impl TtSchedule {
    /// The table's repetition period.
    pub fn hyperperiod(&self) -> SimDuration {
        self.hyperperiod
    }

    /// All slots, sorted by start offset.
    pub fn entries(&self) -> &[TtEntry] {
        &self.entries
    }

    /// Total busy time within one hyperperiod.
    pub fn busy_time(&self) -> SimDuration {
        self.entries.iter().map(|e| e.duration).sum()
    }

    /// Utilization of the table (busy time / hyperperiod).
    pub fn utilization(&self) -> f64 {
        if self.hyperperiod.is_zero() {
            return 0.0;
        }
        self.busy_time().as_nanos() as f64 / self.hyperperiod.as_nanos() as f64
    }

    /// Structural validation against the task set that produced it.
    ///
    /// Checks: entries sorted and non-overlapping; every job of every task
    /// has exactly one slot of WCET length inside its `[release, release +
    /// deadline]` window; no foreign tasks.
    pub fn validate(&self, set: &TaskSet) -> Result<(), String> {
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|e| e.start);
        for pair in sorted.windows(2) {
            if pair[0].end() > pair[1].start {
                return Err(format!("slots overlap: {:?} and {:?}", pair[0], pair[1]));
            }
        }
        let tasks = set.tasks();
        let mut by_id: Vec<(TaskId, usize)> =
            tasks.iter().enumerate().map(|(i, t)| (t.id, i)).collect();
        by_id.sort_unstable();
        // `(task index, entry position)`: each task's entries, in table
        // order, form one run, and the runs follow the set's task order.
        let mut owned = Vec::with_capacity(self.entries.len());
        for (pos, e) in self.entries.iter().enumerate() {
            let Ok(k) = by_id.binary_search_by_key(&e.task, |&(id, _)| id) else {
                return Err(format!("foreign task {} in schedule", e.task));
            };
            owned.push((by_id[k].1, pos));
        }
        owned.sort_unstable();
        let mut rest = owned.as_slice();
        for (i, task) in tasks.iter().enumerate() {
            if self.hyperperiod % task.period != SimDuration::ZERO {
                return Err(format!(
                    "hyperperiod not a multiple of {}'s period",
                    task.id
                ));
            }
            let jobs = self.hyperperiod / task.period;
            let mut seen = vec![false; jobs as usize];
            let (mine, tail) = rest.split_at(rest.partition_point(|&(t, _)| t == i));
            rest = tail;
            for e in mine.iter().map(|&(_, pos)| &self.entries[pos]) {
                if e.job >= jobs {
                    return Err(format!("job index {} out of range for {}", e.job, task.id));
                }
                if seen[e.job as usize] {
                    return Err(format!("job {} of {} scheduled twice", e.job, task.id));
                }
                seen[e.job as usize] = true;
                if e.duration != task.wcet {
                    return Err(format!("slot length mismatch for {}", task.id));
                }
                let release = task.period * e.job + task.offset;
                if e.start < release || e.end() > release + task.deadline {
                    return Err(format!(
                        "job {} of {} outside its window: slot {}..{}",
                        e.job,
                        task.id,
                        e.start,
                        e.end()
                    ));
                }
            }
            if !seen.iter().all(|&s| s) {
                return Err(format!("missing jobs for {}", task.id));
            }
        }
        Ok(())
    }

    fn sort(&mut self) {
        self.entries.sort_by_key(|e| e.start);
    }

    /// Places all jobs of `task` into the gaps of `slots`, the table's
    /// occupied slots; used by both synthesis modes. Each job takes the
    /// earliest start at or after its release that fits before the next
    /// slot, and its slot joins `slots` in order. Pushes one entry per job
    /// and does not sort `entries`.
    fn place_task(&mut self, task: &TaskSpec, slots: &mut Slots) -> Result<(), TtSynthesisError> {
        let jobs = self.hyperperiod / task.period;
        for job in 0..jobs {
            let release = task.period * job + task.offset;
            let latest_start = release + task.deadline - task.wcet;
            let mut candidate = release;
            // Slots that reach no later than the release cannot delay the
            // job; scan the rest in start order for the first fitting gap.
            let mut at = slots.partition_point(|&(_, reach)| reach <= release);
            while let Some(&(start, reach)) = slots.get(at) {
                if candidate + task.wcet <= start {
                    break; // fits before this slot
                }
                candidate = candidate.max(reach);
                if candidate > latest_start {
                    return Err(TtSynthesisError::NoFeasibleSlot { task: task.id, job });
                }
                at += 1;
            }
            if candidate > latest_start {
                return Err(TtSynthesisError::NoFeasibleSlot { task: task.id, job });
            }
            // Every later slot starts at or after the new slot's end, so
            // only the new slot's own reach needs computing.
            let end = candidate + task.wcet;
            let reach = at.checked_sub(1).map_or(end, |prev| slots[prev].1.max(end));
            slots.insert(at, (candidate, reach));
            self.entries.push(TtEntry {
                task: task.id,
                job,
                start: candidate,
                duration: task.wcet,
            });
        }
        Ok(())
    }

    /// Expands this schedule to a larger hyperperiod by replication.
    ///
    /// # Panics
    ///
    /// Panics if `new_hp` is not a multiple of the current hyperperiod.
    pub fn expand_to(&self, new_hp: SimDuration) -> TtSchedule {
        if self.hyperperiod.is_zero() {
            return TtSchedule {
                hyperperiod: new_hp,
                entries: Vec::new(),
            };
        }
        assert!(
            new_hp % self.hyperperiod == SimDuration::ZERO,
            "new hyperperiod must be a multiple of the current one"
        );
        let reps = new_hp / self.hyperperiod;
        let jobs_per_rep: std::collections::BTreeMap<TaskId, u64> =
            self.entries
                .iter()
                .fold(std::collections::BTreeMap::new(), |mut m, e| {
                    let c = m.entry(e.task).or_insert(0);
                    *c = (*c).max(e.job + 1);
                    m
                });
        let mut entries = Vec::with_capacity(self.entries.len() * reps as usize);
        for rep in 0..reps {
            for e in &self.entries {
                entries.push(TtEntry {
                    task: e.task,
                    job: e.job + rep * jobs_per_rep[&e.task],
                    start: e.start + self.hyperperiod * rep,
                    duration: e.duration,
                });
            }
        }
        let mut out = TtSchedule {
            hyperperiod: new_hp,
            entries,
        };
        out.sort();
        out
    }
}

/// Full synthesis: earliest-fit placement in rate-monotonic order.
///
/// # Errors
///
/// Returns [`TtSynthesisError::OverUtilized`] if utilization exceeds 1, or
/// [`TtSynthesisError::NoFeasibleSlot`] if the heuristic cannot place a job
/// (the set may still be schedulable preemptively; non-preemptive TT is
/// stricter).
pub fn synthesize(set: &TaskSet) -> Result<TtSchedule, TtSynthesisError> {
    if set.utilization() > 1.0 + 1e-12 {
        return Err(TtSynthesisError::OverUtilized);
    }
    let mut schedule = TtSchedule {
        hyperperiod: set.hyperperiod(),
        entries: Vec::new(),
    };
    let mut tasks: Vec<&TaskSpec> = set.tasks().iter().collect();
    tasks.sort_by_key(|t| (t.period, t.id.raw()));
    let mut slots = Slots::new();
    for task in tasks {
        schedule.place_task(task, &mut slots)?;
    }
    schedule.sort();
    Ok(schedule)
}

/// Incremental insertion: adds `task` to `schedule` without moving any
/// existing slot — the zero-disturbance "local" mode of \[21\].
///
/// The hyperperiod grows to `lcm` of the old one and the task's period; the
/// existing table is replicated accordingly.
///
/// # Errors
///
/// Returns [`TtSynthesisError::DuplicateTask`] if the task is already
/// scheduled, or [`TtSynthesisError::NoFeasibleSlot`] if the gaps do not
/// suffice (the caller may then fall back to full resynthesis).
pub fn insert_incremental(
    schedule: &TtSchedule,
    task: &TaskSpec,
) -> Result<TtSchedule, TtSynthesisError> {
    if schedule.entries.iter().any(|e| e.task == task.id) {
        return Err(TtSynthesisError::DuplicateTask(task.id));
    }
    let new_hp = if schedule.hyperperiod.is_zero() {
        task.period
    } else {
        schedule.hyperperiod.lcm(task.period)
    };
    let mut expanded = schedule.expand_to(new_hp);
    let mut reach = SimDuration::ZERO;
    let mut slots: Slots = expanded
        .entries
        .iter()
        .map(|e| {
            reach = reach.max(e.end());
            (e.start, reach)
        })
        .collect();
    expanded.place_task(task, &mut slots)?;
    expanded.sort();
    Ok(expanded)
}

/// Counts how many slots of tasks common to both schedules moved — the
/// *disturbance* metric of the schedule-management experiments (E10).
///
/// Both schedules are compared over the LCM of their hyperperiods.
pub fn disturbance(old: &TtSchedule, new: &TtSchedule) -> usize {
    if old.hyperperiod.is_zero() || new.hyperperiod.is_zero() {
        return 0;
    }
    let common = old.hyperperiod.lcm(new.hyperperiod);
    let old_x = old.expand_to(common);
    let new_x = new.expand_to(common);
    // The new start of each `(task, job)`; the stable sort keeps a
    // repeated key's slots in table order, and the first one counts.
    let mut new_starts: Vec<((TaskId, u64), SimDuration)> = new_x
        .entries
        .iter()
        .map(|n| ((n.task, n.job), n.start))
        .collect();
    new_starts.sort_by_key(|&(key, _)| key);
    old_x
        .entries
        .iter()
        .filter(|e| {
            let key = (e.task, e.job);
            let at = new_starts.partition_point(|&(k, _)| k < key);
            // A task the new table dropped is not a disturbance.
            matches!(new_starts.get(at), Some(&(k, start)) if k == key && start != e.start)
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(id: u32, period_ms: u64, wcet_ms: u64) -> TaskSpec {
        TaskSpec::periodic(TaskId(id), format!("t{id}"), ms(period_ms), ms(wcet_ms))
    }

    #[test]
    fn synthesizes_and_validates_simple_set() {
        let set: TaskSet = [t(1, 4, 1), t(2, 8, 2), t(3, 8, 1)].into_iter().collect();
        let schedule = synthesize(&set).unwrap();
        assert_eq!(schedule.hyperperiod(), ms(8));
        schedule.validate(&set).unwrap();
        // 2 jobs of t1 + 1 of t2 + 1 of t3 = 4 entries.
        assert_eq!(schedule.entries().len(), 4);
        assert!((schedule.utilization() - (2.0 + 2.0 + 1.0) / 8.0).abs() < 1e-12);
    }

    #[test]
    fn over_utilized_set_is_rejected() {
        let set: TaskSet = [t(1, 4, 3), t(2, 8, 3)].into_iter().collect();
        assert_eq!(synthesize(&set), Err(TtSynthesisError::OverUtilized));
    }

    #[test]
    fn incremental_insert_preserves_existing_slots() {
        let set: TaskSet = [t(1, 4, 1), t(2, 8, 2)].into_iter().collect();
        let base = synthesize(&set).unwrap();
        let new_task = t(3, 8, 1);
        let grown = insert_incremental(&base, &new_task).unwrap();
        assert_eq!(
            disturbance(&base, &grown),
            0,
            "incremental mode must not move slots"
        );
        let mut full_set = set.clone();
        full_set.push(new_task);
        grown.validate(&full_set).unwrap();
    }

    #[test]
    fn incremental_insert_grows_hyperperiod() {
        let set: TaskSet = [t(1, 4, 1)].into_iter().collect();
        let base = synthesize(&set).unwrap();
        let grown = insert_incremental(&base, &t(2, 6, 1)).unwrap();
        assert_eq!(grown.hyperperiod(), ms(12));
        let mut full_set = set.clone();
        full_set.push(t(2, 6, 1));
        grown.validate(&full_set).unwrap();
    }

    #[test]
    fn insertion_skips_a_slot_that_crosses_the_hyperperiod() {
        // b's slot [8, 15) crosses the 10 ms hyperperiod, so the table
        // expanded to 20 ms holds it around a's second slot [10, 13).
        let b = t(2, 10, 7).with_offset(ms(8));
        let set: TaskSet = [t(1, 10, 3), b].into_iter().collect();
        let base = synthesize(&set).unwrap();
        assert_eq!(base.entries()[1].end(), ms(15));
        // Released at 13 ms, inside b's slot: the first gap opens at 15 ms.
        let late = t(3, 20, 1).with_offset(ms(13)).with_deadline(ms(7));
        let grown = insert_incremental(&base, &late).unwrap();
        let slot = grown
            .entries()
            .iter()
            .find(|e| e.task == TaskId(3))
            .unwrap();
        assert_eq!(slot.start, ms(15));
    }

    #[test]
    fn incremental_rejects_duplicates_and_overfull() {
        let set: TaskSet = [t(1, 4, 1)].into_iter().collect();
        let base = synthesize(&set).unwrap();
        assert_eq!(
            insert_incremental(&base, &t(1, 4, 1)),
            Err(TtSynthesisError::DuplicateTask(TaskId(1)))
        );
        // A task needing a 4 ms slot every 4 ms cannot fit next to t1.
        let fat = t(9, 4, 4);
        assert!(matches!(
            insert_incremental(&base, &fat),
            Err(TtSynthesisError::NoFeasibleSlot { .. })
        ));
    }

    #[test]
    fn full_resynthesis_may_disturb() {
        let set: TaskSet = [t(1, 8, 2), t(2, 8, 2)].into_iter().collect();
        let base = synthesize(&set).unwrap();
        // Resynthesize with an extra short-period task: RM order changes
        // placement of the old tasks.
        let mut bigger = set.clone();
        bigger.push(t(3, 4, 1));
        let full = synthesize(&bigger).unwrap();
        full.validate(&bigger).unwrap();
        assert!(
            disturbance(&base, &full) > 0,
            "full resynthesis moves old slots"
        );
    }

    #[test]
    fn validate_catches_corruption() {
        let set: TaskSet = [t(1, 4, 1)].into_iter().collect();
        let mut schedule = synthesize(&set).unwrap();
        schedule.entries[0].start = ms(3); // outside [0, 4-1] window start is fine but overlaps? job0 window is [0,4]; start=3, end=4 ok.
                                           // Make it actually invalid: shift beyond deadline window.
        schedule.entries[0].start = ms(4);
        assert!(schedule.validate(&set).is_err());
    }

    #[test]
    fn expand_replicates_entries() {
        let set: TaskSet = [t(1, 4, 1)].into_iter().collect();
        let base = synthesize(&set).unwrap();
        let doubled = base.expand_to(ms(8));
        assert_eq!(doubled.entries().len(), 2);
        assert_eq!(doubled.entries()[1].start, ms(4));
        assert_eq!(doubled.entries()[1].job, 1);
        doubled.validate(&set).unwrap();
    }

    #[test]
    fn offsets_are_respected() {
        let set: TaskSet = [TaskSpec::periodic(TaskId(1), "a", ms(10), ms(2)).with_offset(ms(5))]
            .into_iter()
            .collect();
        let schedule = synthesize(&set).unwrap();
        assert!(schedule.entries()[0].start >= ms(5));
        schedule.validate(&set).unwrap();
    }
}
