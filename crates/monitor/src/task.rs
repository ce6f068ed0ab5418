//! Per-task runtime observers.
//!
//! A [`TaskMonitor`] is configured from the application manifest's declared
//! bounds ([`MonitorSpec`]) and fed the raw activation/completion/memory
//! events of one task. It detects violations online and emits [`Fault`]s
//! into a recorder, while keeping running statistics for diagnostics.

use crate::fault::{Fault, FaultKind, FaultRecorder};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::TaskId;

/// Declared bounds a deterministic application promises in its manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MonitorSpec {
    /// Monitored task.
    pub task: TaskId,
    /// Expected activation period.
    pub period: SimDuration,
    /// Relative deadline per activation.
    pub deadline: SimDuration,
    /// Allowed response-time spread (max − min).
    pub jitter_bound: SimDuration,
    /// Memory budget in bytes.
    pub memory_budget: u64,
}

impl MonitorSpec {
    /// Creates a spec with a 10% period tolerance and jitter bound equal to
    /// the deadline.
    pub fn new(
        task: TaskId,
        period: SimDuration,
        deadline: SimDuration,
        memory_budget: u64,
    ) -> Self {
        MonitorSpec {
            task,
            period,
            deadline,
            jitter_bound: deadline,
            memory_budget,
        }
    }

    /// Allowed deviation of inter-activation times from the period: 10%.
    fn period_tolerance(&self) -> SimDuration {
        self.period / 10
    }

    /// Overrides the jitter bound.
    pub fn with_jitter_bound(mut self, bound: SimDuration) -> Self {
        self.jitter_bound = bound;
        self
    }
}

/// One raw observation fed to the monitor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TaskObservation {
    /// The task was activated (job release observed).
    Activation(SimTime),
    /// The job released at `release` completed at `completion`.
    Completion {
        /// Release time of the job.
        release: SimTime,
        /// Completion time of the job.
        completion: SimTime,
    },
    /// Memory usage sample in bytes.
    Memory(SimTime, u64),
}

/// Online monitor for one task.
#[derive(Clone, Debug)]
pub struct TaskMonitor {
    spec: MonitorSpec,
    last_activation: Option<SimTime>,
    activations: u64,
    completions: u64,
    response_min: SimDuration,
    response_max: SimDuration,
    response_sum: SimDuration,
    memory_peak: u64,
}

impl TaskMonitor {
    /// Creates a monitor for `spec`.
    pub fn new(spec: MonitorSpec) -> Self {
        TaskMonitor {
            spec,
            last_activation: None,
            activations: 0,
            completions: 0,
            response_min: SimDuration::MAX,
            response_max: SimDuration::ZERO,
            response_sum: SimDuration::ZERO,
            memory_peak: 0,
        }
    }

    /// The monitored spec.
    pub fn spec(&self) -> &MonitorSpec {
        &self.spec
    }

    /// Number of observed activations.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Number of observed completions.
    pub fn completions(&self) -> u64 {
        self.completions
    }

    /// Observed response-time jitter so far.
    pub fn observed_jitter(&self) -> SimDuration {
        if self.completions < 2 {
            SimDuration::ZERO
        } else {
            self.response_max.saturating_sub(self.response_min)
        }
    }

    /// Peak observed memory usage.
    pub fn memory_peak(&self) -> u64 {
        self.memory_peak
    }

    /// Mean observed response time.
    pub fn response_mean(&self) -> SimDuration {
        if self.completions == 0 {
            SimDuration::ZERO
        } else {
            self.response_sum / self.completions
        }
    }

    /// Largest observed response time.
    pub fn response_max(&self) -> SimDuration {
        self.response_max
    }

    /// Feeds one observation; any detected faults go into `recorder`.
    /// Returns the number of faults raised by this observation.
    pub fn observe(&mut self, obs: TaskObservation, recorder: &mut FaultRecorder) -> usize {
        let mut raised = 0;
        match obs {
            TaskObservation::Activation(t) => {
                self.activations += 1;
                if let Some(last) = self.last_activation {
                    let gap = t.saturating_since(last);
                    let tolerance = self.spec.period_tolerance();
                    let lo = self.spec.period.saturating_sub(tolerance);
                    let hi = self.spec.period + tolerance;
                    if gap < lo || gap > hi {
                        recorder.record(Fault {
                            time: t,
                            task: self.spec.task,
                            kind: FaultKind::PeriodViolation,
                            detail: format!(
                                "inter-activation {gap}, expected {} ± {tolerance}",
                                self.spec.period
                            ),
                        });
                        raised += 1;
                    }
                }
                self.last_activation = Some(t);
            }
            TaskObservation::Completion {
                release,
                completion,
            } => {
                self.completions += 1;
                let response = completion.saturating_since(release);
                self.response_min = self.response_min.min(response);
                self.response_max = self.response_max.max(response);
                self.response_sum += response;
                dynplat_obs::histogram!("monitor.task.response_ns").record(response.as_nanos());
                if response > self.spec.deadline {
                    recorder.record(Fault {
                        time: completion,
                        task: self.spec.task,
                        kind: FaultKind::DeadlineMiss,
                        detail: format!("response {response} > deadline {}", self.spec.deadline),
                    });
                    raised += 1;
                }
                if self.observed_jitter() > self.spec.jitter_bound {
                    recorder.record(Fault {
                        time: completion,
                        task: self.spec.task,
                        kind: FaultKind::JitterViolation,
                        detail: format!(
                            "jitter {} > bound {}",
                            self.observed_jitter(),
                            self.spec.jitter_bound
                        ),
                    });
                    raised += 1;
                }
            }
            TaskObservation::Memory(t, bytes) => {
                self.memory_peak = self.memory_peak.max(bytes);
                if bytes > self.spec.memory_budget {
                    recorder.record(Fault {
                        time: t,
                        task: self.spec.task,
                        kind: FaultKind::MemoryOverrun,
                        detail: format!("usage {bytes} B > budget {} B", self.spec.memory_budget),
                    });
                    raised += 1;
                }
            }
        }
        raised
    }

    /// Watchdog check: raises [`FaultKind::Silence`] if no activation was
    /// seen within two periods (plus tolerance) before `now`.
    pub fn check_liveness(&self, now: SimTime, recorder: &mut FaultRecorder) -> bool {
        let Some(last) = self.last_activation else {
            return true; // never started: lifecycle's problem, not ours
        };
        let bound = self.spec.period * 2 + self.spec.period_tolerance();
        if now.saturating_since(last) > bound {
            recorder.record(Fault {
                time: now,
                task: self.spec.task,
                kind: FaultKind::Silence,
                detail: format!("no activation for {}", now.saturating_since(last)),
            });
            false
        } else {
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn spec() -> MonitorSpec {
        MonitorSpec::new(TaskId(3), ms(10), ms(10), 4096).with_jitter_bound(ms(4))
    }

    #[test]
    fn healthy_task_raises_no_faults() {
        let mut mon = TaskMonitor::new(spec());
        let mut rec = FaultRecorder::default();
        for k in 0..20u64 {
            let t = SimTime::from_millis(k * 10);
            assert_eq!(mon.observe(TaskObservation::Activation(t), &mut rec), 0);
            assert_eq!(
                mon.observe(
                    TaskObservation::Completion {
                        release: t,
                        completion: t + ms(2)
                    },
                    &mut rec
                ),
                0
            );
        }
        assert_eq!(rec.total(), 0);
        assert_eq!(mon.activations(), 20);
        assert_eq!(mon.completions(), 20);
        assert_eq!(mon.observed_jitter(), SimDuration::ZERO);
        assert_eq!(mon.response_mean(), ms(2));
    }

    #[test]
    fn period_violation_detected() {
        let mut mon = TaskMonitor::new(spec());
        let mut rec = FaultRecorder::default();
        mon.observe(
            TaskObservation::Activation(SimTime::from_millis(0)),
            &mut rec,
        );
        // 15 ms gap with 10 ± 1 ms bound.
        mon.observe(
            TaskObservation::Activation(SimTime::from_millis(15)),
            &mut rec,
        );
        assert_eq!(rec.count(FaultKind::PeriodViolation), 1);
        // Early activation also violates.
        mon.observe(
            TaskObservation::Activation(SimTime::from_millis(17)),
            &mut rec,
        );
        assert_eq!(rec.count(FaultKind::PeriodViolation), 2);
    }

    #[test]
    fn deadline_miss_detected() {
        let mut mon = TaskMonitor::new(spec());
        let mut rec = FaultRecorder::default();
        let r = SimTime::from_millis(0);
        mon.observe(
            TaskObservation::Completion {
                release: r,
                completion: r + ms(12),
            },
            &mut rec,
        );
        assert_eq!(rec.count(FaultKind::DeadlineMiss), 1);
        assert!(!rec.faults()[0].detail.is_empty());
    }

    #[test]
    fn jitter_violation_detected() {
        let mut mon = TaskMonitor::new(spec()); // jitter bound 4 ms
        let mut rec = FaultRecorder::default();
        let r0 = SimTime::from_millis(0);
        mon.observe(
            TaskObservation::Completion {
                release: r0,
                completion: r0 + ms(1),
            },
            &mut rec,
        );
        let r1 = SimTime::from_millis(10);
        mon.observe(
            TaskObservation::Completion {
                release: r1,
                completion: r1 + ms(8),
            },
            &mut rec,
        );
        assert_eq!(rec.count(FaultKind::JitterViolation), 1);
        assert_eq!(mon.observed_jitter(), ms(7));
    }

    #[test]
    fn memory_overrun_detected() {
        let mut mon = TaskMonitor::new(spec());
        let mut rec = FaultRecorder::default();
        mon.observe(
            TaskObservation::Memory(SimTime::from_millis(1), 4096),
            &mut rec,
        );
        assert_eq!(rec.count(FaultKind::MemoryOverrun), 0);
        mon.observe(
            TaskObservation::Memory(SimTime::from_millis(2), 5000),
            &mut rec,
        );
        assert_eq!(rec.count(FaultKind::MemoryOverrun), 1);
        assert_eq!(mon.memory_peak(), 5000);
    }

    #[test]
    fn watchdog_detects_silence() {
        let mut mon = TaskMonitor::new(spec());
        let mut rec = FaultRecorder::default();
        // Never activated: liveness passes (not our responsibility).
        assert!(mon.check_liveness(SimTime::from_millis(100), &mut rec));
        mon.observe(
            TaskObservation::Activation(SimTime::from_millis(0)),
            &mut rec,
        );
        assert!(mon.check_liveness(SimTime::from_millis(20), &mut rec));
        assert!(!mon.check_liveness(SimTime::from_millis(30), &mut rec));
        assert_eq!(rec.count(FaultKind::Silence), 1);
    }
}
