//! Diagnostic reporting and certification data sets.
//!
//! The closing claim of §3.4: monitoring data is "transferred to the
//! manufacturer for further examinations" and "can generate data sets,
//! efficiently supporting the safety certification processes".
//! [`DiagnosticReport`] is the transfer unit; [`CertificationDataSet`]
//! aggregates response-time histograms over a fleet of reports.

use crate::fault::{Fault, FaultKind, FaultRecorder};
use crate::task::TaskMonitor;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{DegradationLevel, TaskId, VehicleId};
use std::collections::BTreeMap;

/// Snapshot of one task's health, as shipped to the backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskHealth {
    /// Task identifier.
    pub task: TaskId,
    /// Activations observed.
    pub activations: u64,
    /// Completions observed.
    pub completions: u64,
    /// Mean response time.
    pub response_mean: SimDuration,
    /// Maximum response time.
    pub response_max: SimDuration,
    /// Observed jitter.
    pub jitter: SimDuration,
    /// Peak memory.
    pub memory_peak: u64,
}

impl From<&TaskMonitor> for TaskHealth {
    fn from(m: &TaskMonitor) -> Self {
        TaskHealth {
            task: m.spec().task,
            activations: m.activations(),
            completions: m.completions(),
            response_mean: m.response_mean(),
            response_max: m.response_max(),
            jitter: m.observed_jitter(),
            memory_peak: m.memory_peak(),
        }
    }
}

/// One degradation-ladder transition, as logged by the platform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DegradationTransition {
    /// When the platform switched levels.
    pub time: SimTime,
    /// The level entered.
    pub level: DegradationLevel,
}

/// One vehicle's diagnostic upload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiagnosticReport {
    /// Reporting vehicle.
    pub vehicle: VehicleId,
    /// Capture time.
    pub captured_at: SimTime,
    /// Health of every monitored task.
    pub tasks: Vec<TaskHealth>,
    /// Faults drained from the recorder.
    pub faults: Vec<Fault>,
    /// Lifetime per-kind fault totals (survive recorder drains).
    pub fault_counts: BTreeMap<FaultKind, u64>,
    /// Degradation-level transitions since the previous report.
    pub degradation: Vec<DegradationTransition>,
}

impl DiagnosticReport {
    /// Builds a report from live monitors and drained faults.
    pub fn capture(
        vehicle: VehicleId,
        captured_at: SimTime,
        monitors: &[&TaskMonitor],
        faults: Vec<Fault>,
    ) -> Self {
        DiagnosticReport {
            vehicle,
            captured_at,
            tasks: monitors.iter().map(|m| TaskHealth::from(*m)).collect(),
            faults,
            fault_counts: BTreeMap::new(),
            degradation: Vec::new(),
        }
    }

    /// Attaches the recorder's lifetime per-kind counters (builder style).
    pub fn with_fault_counts(mut self, recorder: &FaultRecorder) -> Self {
        self.fault_counts = recorder.counts();
        self
    }

    /// Attaches degradation-ladder transitions (builder style).
    pub fn with_degradation(
        mut self,
        transitions: impl IntoIterator<Item = (SimTime, DegradationLevel)>,
    ) -> Self {
        self.degradation = transitions
            .into_iter()
            .map(|(time, level)| DegradationTransition { time, level })
            .collect();
        self
    }

    /// Per-kind counter rows in stable [`FaultKind::ALL`] order, zeros
    /// skipped — the one table shape shared by the monitoring and chaos
    /// experiments.
    pub fn fault_summary(&self) -> Vec<(FaultKind, u64)> {
        FaultKind::ALL
            .iter()
            .filter_map(|k| {
                let n = self.fault_counts.get(k).copied().unwrap_or(0);
                (n > 0).then_some((*k, n))
            })
            .collect()
    }
}

/// Fleet-level aggregation: per-task response-time histograms with fixed
/// bucket width, plus fault totals — the raw material for certification
/// arguments ("in N·10⁶ activations the 10 ms loop never exceeded 8 ms").
#[derive(Clone, Debug, Default)]
pub struct CertificationDataSet {
    bucket_width: SimDuration,
    histograms: BTreeMap<TaskId, Vec<u64>>,
    total_activations: BTreeMap<TaskId, u64>,
    total_faults: u64,
    reports: u64,
}

impl CertificationDataSet {
    /// Creates a data set with the given histogram bucket width.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width` is zero.
    pub fn new(bucket_width: SimDuration) -> Self {
        assert!(!bucket_width.is_zero(), "bucket width must be non-zero");
        CertificationDataSet {
            bucket_width,
            ..Default::default()
        }
    }

    /// Ingests one diagnostic report.
    pub fn ingest(&mut self, report: &DiagnosticReport) {
        self.reports += 1;
        self.total_faults += report.faults.len() as u64;
        for th in &report.tasks {
            let bucket = (th.response_max / self.bucket_width) as usize;
            let hist = self.histograms.entry(th.task).or_default();
            if hist.len() <= bucket {
                hist.resize(bucket + 1, 0);
            }
            hist[bucket] += 1;
            *self.total_activations.entry(th.task).or_insert(0) += th.activations;
        }
    }

    /// Total faults across the fleet.
    pub fn total_faults(&self) -> u64 {
        self.total_faults
    }

    /// Total activations of `task` across the fleet.
    pub fn activations(&self, task: TaskId) -> u64 {
        self.total_activations.get(&task).copied().unwrap_or(0)
    }

    /// The smallest bound `b` such that a `quantile` fraction of reports
    /// had `response_max < b`.
    pub fn response_bound(&self, task: TaskId, quantile: f64) -> Option<SimDuration> {
        let hist = self.histograms.get(&task)?;
        let total: u64 = hist.iter().sum();
        if total == 0 {
            return None;
        }
        let target = (total as f64 * quantile).ceil() as u64;
        let mut acc = 0;
        for (i, count) in hist.iter().enumerate() {
            acc += count;
            if acc >= target {
                return Some(self.bucket_width * (i as u64 + 1));
            }
        }
        Some(self.bucket_width * hist.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultRecorder};
    use crate::task::{MonitorSpec, TaskMonitor, TaskObservation};

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn monitor_with_history(responses_ms: &[u64]) -> TaskMonitor {
        let mut mon = TaskMonitor::new(MonitorSpec::new(TaskId(1), ms(10), ms(100), 1 << 20));
        let mut rec = FaultRecorder::default();
        for (k, &r) in responses_ms.iter().enumerate() {
            let rel = SimTime::from_millis(k as u64 * 10);
            mon.observe(TaskObservation::Activation(rel), &mut rec);
            mon.observe(
                TaskObservation::Completion {
                    release: rel,
                    completion: rel + ms(r),
                },
                &mut rec,
            );
        }
        mon
    }

    #[test]
    fn report_capture_snapshots_monitors() {
        let mon = monitor_with_history(&[2, 3, 4]);
        let report =
            DiagnosticReport::capture(VehicleId(9), SimTime::from_secs(1), &[&mon], vec![]);
        assert_eq!(report.tasks.len(), 1);
        assert_eq!(report.tasks[0].activations, 3);
        assert_eq!(report.tasks[0].response_max, ms(4));
        assert!(report.faults.is_empty());
    }

    #[test]
    fn report_with_faults() {
        let mut rec = FaultRecorder::default();
        let mut mon = monitor_with_history(&[]);
        mon.observe(
            TaskObservation::Completion {
                release: SimTime::ZERO,
                completion: SimTime::from_millis(200),
            },
            &mut rec,
        );
        let report =
            DiagnosticReport::capture(VehicleId(1), SimTime::from_secs(1), &[&mon], rec.drain());
        assert!(!report.faults.is_empty());
        assert_eq!(report.faults[0].kind, FaultKind::DeadlineMiss);
    }

    #[test]
    fn certification_set_aggregates_fleet() {
        let mut set = CertificationDataSet::new(ms(1));
        for worst in [3u64, 4, 4, 5, 9] {
            let mon = monitor_with_history(&[2, worst]);
            let report = DiagnosticReport::capture(
                VehicleId(worst as u32),
                SimTime::from_secs(1),
                &[&mon],
                vec![],
            );
            set.ingest(&report);
        }
        assert_eq!(set.reports, 5);
        assert_eq!(set.activations(TaskId(1)), 10);
        let hist = &set.histograms[&TaskId(1)];
        assert_eq!(hist.iter().sum::<u64>(), 5);
        // 80% of vehicles stayed below 6 ms.
        assert_eq!(set.response_bound(TaskId(1), 0.8), Some(ms(6)));
        assert_eq!(set.response_bound(TaskId(1), 1.0), Some(ms(10)));
        assert_eq!(set.response_bound(TaskId(99), 0.5), None);
    }

    #[test]
    fn fault_totals_accumulate() {
        let mut set = CertificationDataSet::new(ms(1));
        let fault = Fault {
            time: SimTime::ZERO,
            task: TaskId(1),
            kind: FaultKind::MemoryOverrun,
            detail: String::new(),
        };
        let report = DiagnosticReport {
            vehicle: VehicleId(1),
            captured_at: SimTime::ZERO,
            tasks: vec![],
            faults: vec![fault.clone(), fault],
            fault_counts: BTreeMap::new(),
            degradation: vec![],
        };
        set.ingest(&report);
        assert_eq!(set.total_faults(), 2);
    }

    #[test]
    fn fault_counts_and_degradation_surface_in_reports() {
        let mut rec = FaultRecorder::default();
        for kind in [
            FaultKind::MessageLoss,
            FaultKind::MessageLoss,
            FaultKind::NodeFailure,
        ] {
            rec.record(Fault {
                time: SimTime::ZERO,
                task: TaskId(1),
                kind,
                detail: String::new(),
            });
        }
        let report = DiagnosticReport::capture(VehicleId(1), SimTime::from_secs(1), &[], vec![])
            .with_fault_counts(&rec)
            .with_degradation([
                (SimTime::from_millis(100), DegradationLevel::Degraded),
                (SimTime::from_millis(900), DegradationLevel::Full),
            ]);
        assert_eq!(
            report.fault_summary(),
            vec![(FaultKind::MessageLoss, 2), (FaultKind::NodeFailure, 1)]
        );
        let levels: Vec<DegradationLevel> = report.degradation.iter().map(|t| t.level).collect();
        assert_eq!(levels, [DegradationLevel::Degraded, DegradationLevel::Full]);
        // Drains do not reset the surfaced counters.
        let mut rec2 = rec.clone();
        rec2.drain();
        let after = DiagnosticReport::capture(VehicleId(1), SimTime::from_secs(2), &[], vec![])
            .with_fault_counts(&rec2);
        assert_eq!(after.fault_summary(), report.fault_summary());
    }
}
