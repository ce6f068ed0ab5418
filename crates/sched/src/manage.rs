//! Schedule management: local incremental vs. cloud-based synthesis.
//!
//! Reference \[21\] of the paper (Zhang et al., RTCSA 2016) proposes a "mixed
//! local and cloud-based framework" for online time-triggered schedule
//! synthesis, with "incremental design techniques … to reduce the
//! disturbance to existing applications". [`ScheduleManager`] reproduces
//! that trade space:
//!
//! * [`SynthesisBackend::Local`] — incremental insertion on the ECU: fast
//!   (no network round trip), never moves existing slots, but may fail on
//!   fragmented schedules;
//! * [`SynthesisBackend::Cloud`] — full resynthesis in the backend: always
//!   succeeds when the set is feasible for the heuristic, but pays a
//!   network round trip and may move (disturb) existing slots, each of
//!   which requires a coordinated slot migration on the vehicle.

use crate::task::{TaskSet, TaskSpec};
use crate::tt::{self, TtSchedule, TtSynthesisError};
use dynplat_common::time::SimDuration;

/// Where schedule synthesis runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthesisBackend {
    /// On the ECU: incremental insertion only.
    Local,
    /// In the OEM backend: full resynthesis, `round_trip` of network and
    /// queueing latency.
    Cloud {
        /// Modeled backend round-trip time.
        round_trip: SimDuration,
    },
}

/// Result of one synthesis request.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthesisOutcome {
    /// The new schedule.
    pub schedule: TtSchedule,
    /// Number of pre-existing slots that moved (slot migrations needed).
    pub disturbance: usize,
    /// Modeled end-to-end latency of the request: placement work plus any
    /// backend round trip.
    pub latency: SimDuration,
    /// Which backend produced it.
    pub backend: SynthesisBackend,
}

/// Per-slot placement cost model: how long considering one candidate slot
/// takes on ECU-class hardware (used to model synthesis latency).
const LOCAL_COST_PER_ENTRY: SimDuration = SimDuration::from_micros(50);
/// Cloud hardware is modeled an order of magnitude faster per entry.
const CLOUD_COST_PER_ENTRY: SimDuration = SimDuration::from_micros(5);

/// Maintains the running time-triggered schedule of one CPU and serves
/// add-application requests through either backend.
#[derive(Clone, Debug, Default)]
pub struct ScheduleManager {
    tasks: TaskSet,
    schedule: TtSchedule,
}

impl ScheduleManager {
    /// Creates a manager for an already-deployed task set.
    ///
    /// # Errors
    ///
    /// Forwards synthesis errors for the initial set.
    pub fn with_initial(set: TaskSet) -> Result<Self, TtSynthesisError> {
        let schedule = tt::synthesize(&set)?;
        Ok(ScheduleManager {
            tasks: set,
            schedule,
        })
    }

    /// The currently scheduled task set.
    pub fn tasks(&self) -> &TaskSet {
        &self.tasks
    }

    /// Adds `task` via the chosen backend.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`TtSynthesisError`] if the backend cannot
    /// place the task. On [`SynthesisBackend::Local`] failure, callers
    /// typically retry with [`SynthesisBackend::Cloud`].
    pub fn add_task(
        &mut self,
        task: TaskSpec,
        backend: SynthesisBackend,
    ) -> Result<SynthesisOutcome, TtSynthesisError> {
        match backend {
            SynthesisBackend::Local => {
                let new_schedule = tt::insert_incremental(&self.schedule, &task)?;
                let latency = LOCAL_COST_PER_ENTRY * (new_schedule.entries().len() as u64);
                self.tasks.push(task);
                let disturbance = tt::disturbance(&self.schedule, &new_schedule);
                debug_assert_eq!(disturbance, 0, "incremental insertion never disturbs");
                self.schedule = new_schedule;
                Ok(SynthesisOutcome {
                    schedule: self.schedule.clone(),
                    disturbance,
                    latency,
                    backend,
                })
            }
            SynthesisBackend::Cloud { round_trip } => {
                let mut candidate_set = self.tasks.clone();
                candidate_set.push(task);
                let new_schedule = tt::synthesize(&candidate_set)?;
                let disturbance = tt::disturbance(&self.schedule, &new_schedule);
                let latency =
                    round_trip + CLOUD_COST_PER_ENTRY * (new_schedule.entries().len() as u64);
                self.tasks = candidate_set;
                self.schedule = new_schedule;
                Ok(SynthesisOutcome {
                    schedule: self.schedule.clone(),
                    disturbance,
                    latency,
                    backend,
                })
            }
        }
    }

    /// Adds `task`, preferring the local backend and falling back to the
    /// cloud — the mixed strategy of \[21\]. Returns the outcome of whichever
    /// backend succeeded.
    ///
    /// # Errors
    ///
    /// Returns the cloud backend's error if both fail.
    pub fn add_task_mixed(
        &mut self,
        task: TaskSpec,
        round_trip: SimDuration,
    ) -> Result<SynthesisOutcome, TtSynthesisError> {
        match self.add_task(task.clone(), SynthesisBackend::Local) {
            Ok(outcome) => Ok(outcome),
            Err(TtSynthesisError::DuplicateTask(id)) => Err(TtSynthesisError::DuplicateTask(id)),
            Err(_) => self.add_task(task, SynthesisBackend::Cloud { round_trip }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::TaskId;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(id: u32, period_ms: u64, wcet_ms: u64) -> TaskSpec {
        TaskSpec::periodic(TaskId(id), format!("t{id}"), ms(period_ms), ms(wcet_ms))
    }

    #[test]
    fn local_insert_has_zero_disturbance() {
        let set: TaskSet = [t(1, 4, 1), t(2, 8, 2)].into_iter().collect();
        let mut mgr = ScheduleManager::with_initial(set).unwrap();
        let outcome = mgr.add_task(t(3, 8, 1), SynthesisBackend::Local).unwrap();
        assert_eq!(outcome.disturbance, 0);
        assert_eq!(outcome.backend, SynthesisBackend::Local);
    }

    #[test]
    fn cloud_resynthesis_pays_round_trip_but_packs() {
        let set: TaskSet = [t(1, 8, 2), t(2, 8, 2)].into_iter().collect();
        let mut mgr = ScheduleManager::with_initial(set).unwrap();
        let rt = ms(120);
        let outcome = mgr
            .add_task(t(3, 4, 1), SynthesisBackend::Cloud { round_trip: rt })
            .unwrap();
        assert!(outcome.latency >= rt);
        // Full resynthesis re-sorts by period: old slots move.
        assert!(outcome.disturbance > 0);
    }

    #[test]
    fn mixed_strategy_prefers_local() {
        let set: TaskSet = [t(1, 4, 1)].into_iter().collect();
        let mut mgr = ScheduleManager::with_initial(set).unwrap();
        let outcome = mgr.add_task_mixed(t(2, 8, 2), ms(120)).unwrap();
        assert_eq!(outcome.backend, SynthesisBackend::Local);
        assert!(outcome.latency < ms(120));
    }

    #[test]
    fn mixed_strategy_falls_back_to_cloud() {
        // Fill the schedule so the incremental gaps get tight, then ask for
        // a task the fragmented layout cannot take but a repack can.
        let set: TaskSet = [t(1, 8, 3), t(2, 8, 3)].into_iter().collect();
        let mut mgr = ScheduleManager::with_initial(set).unwrap();
        // Gaps: [6,8) in each 8 ms cycle. A 1 ms-per-4 ms task needs a slot
        // in [0,4) too — incremental fails, cloud repacks.
        let outcome = mgr.add_task_mixed(t(3, 4, 1), ms(100)).unwrap();
        assert!(matches!(outcome.backend, SynthesisBackend::Cloud { .. }));
        assert!(outcome.disturbance > 0);
    }

    #[test]
    fn duplicate_is_reported_not_retried() {
        let set: TaskSet = [t(1, 4, 1)].into_iter().collect();
        let mut mgr = ScheduleManager::with_initial(set).unwrap();
        assert_eq!(
            mgr.add_task_mixed(t(1, 4, 1), ms(10)),
            Err(TtSynthesisError::DuplicateTask(TaskId(1)))
        );
    }
}
