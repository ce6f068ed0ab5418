//! Fault records and the bounded fault recorder.
//!
//! Per-kind counting is delegated to a [`MetricsRegistry`] rather than a
//! private map: by default each recorder counts into its own registry
//! (hermetic, exact per-instance counts), and
//! [`FaultRecorder::with_registry`] plugs a recorder into a shared
//! registry — e.g. [`dynplat_obs::global_arc`] — so fault counters show
//! up in the same snapshot as every other platform metric.

use dynplat_common::time::SimTime;
use dynplat_common::TaskId;
use dynplat_obs::{Counter, FlightRecorder, MetricsRegistry, TraceCtx};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// What went wrong.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Inter-activation time left the declared period tolerance.
    PeriodViolation,
    /// A job completed after (or never before) its deadline.
    DeadlineMiss,
    /// Response-time spread exceeded the declared jitter bound.
    JitterViolation,
    /// Memory usage exceeded the declared budget.
    MemoryOverrun,
    /// The task stopped producing activations (watchdog).
    Silence,
    /// A message never reached its destination (dropped, partitioned or
    /// crowded out by a babbling sender).
    MessageLoss,
    /// A message arrived with a failed integrity check.
    MessageCorruption,
    /// An ECU crashed or hung; everything it hosted went silent.
    NodeFailure,
    /// A node's clock ran measurably fast or slow against the fleet.
    ClockDrift,
}

impl FaultKind {
    /// The metric name this kind counts under in an obs registry.
    pub const fn metric_name(self) -> &'static str {
        match self {
            FaultKind::PeriodViolation => "monitor.fault.period_violation",
            FaultKind::DeadlineMiss => "monitor.fault.deadline_miss",
            FaultKind::JitterViolation => "monitor.fault.jitter_violation",
            FaultKind::MemoryOverrun => "monitor.fault.memory_overrun",
            FaultKind::Silence => "monitor.fault.silence",
            FaultKind::MessageLoss => "monitor.fault.message_loss",
            FaultKind::MessageCorruption => "monitor.fault.message_corruption",
            FaultKind::NodeFailure => "monitor.fault.node_failure",
            FaultKind::ClockDrift => "monitor.fault.clock_drift",
        }
    }

    /// Every fault class, in declaration order (stable report layout).
    pub const ALL: [FaultKind; 9] = [
        FaultKind::PeriodViolation,
        FaultKind::DeadlineMiss,
        FaultKind::JitterViolation,
        FaultKind::MemoryOverrun,
        FaultKind::Silence,
        FaultKind::MessageLoss,
        FaultKind::MessageCorruption,
        FaultKind::NodeFailure,
        FaultKind::ClockDrift,
    ];
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::PeriodViolation => write!(f, "period violation"),
            FaultKind::DeadlineMiss => write!(f, "deadline miss"),
            FaultKind::JitterViolation => write!(f, "jitter violation"),
            FaultKind::MemoryOverrun => write!(f, "memory overrun"),
            FaultKind::Silence => write!(f, "task silent"),
            FaultKind::MessageLoss => write!(f, "message loss"),
            FaultKind::MessageCorruption => write!(f, "message corruption"),
            FaultKind::NodeFailure => write!(f, "node failure"),
            FaultKind::ClockDrift => write!(f, "clock drift"),
        }
    }
}

/// One detected fault, with the conditions that led to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Detection time.
    pub time: SimTime,
    /// Affected task.
    pub task: TaskId,
    /// Fault class.
    pub kind: FaultKind,
    /// Human-readable detail ("observed 12ms, bound 10ms").
    pub detail: String,
}

/// Bounded in-memory fault store: keeps the most recent `capacity` faults,
/// counts everything (the recording half of §3.4). Counting is backed by
/// an obs [`MetricsRegistry`] — private by default, shareable via
/// [`FaultRecorder::with_registry`].
#[derive(Clone, Debug)]
pub struct FaultRecorder {
    capacity: usize,
    faults: Vec<Fault>,
    counters: [Arc<Counter>; FaultKind::ALL.len()],
    flight: Option<Arc<FlightRecorder>>,
}

impl FaultRecorder {
    /// Creates a recorder retaining up to `capacity` faults, counting
    /// into its own private registry.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        FaultRecorder::with_registry(capacity, Arc::new(MetricsRegistry::new()))
    }

    /// Creates a recorder that counts into `registry` (one counter per
    /// [`FaultKind::metric_name`]). Several recorders may share a
    /// registry; their counts then merge, which is exactly what a
    /// platform-wide snapshot wants.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_registry(capacity: usize, registry: Arc<MetricsRegistry>) -> Self {
        assert!(capacity > 0, "capacity must be non-zero");
        let counters = FaultKind::ALL.map(|k| registry.counter(k.metric_name()));
        FaultRecorder {
            capacity,
            faults: Vec::new(),
            counters,
            flight: None,
        }
    }

    /// Attaches a flight recorder. Every recorded fault lands in its
    /// event ring (stage `monitor.fault`), and — because detection is the
    /// moment a black box should freeze — fires
    /// [`FlightRecorder::trigger`] with the fault as the reason.
    #[must_use]
    pub fn with_flight(mut self, flight: Arc<FlightRecorder>) -> Self {
        self.flight = Some(flight);
        self
    }

    /// Records a fault.
    pub fn record(&mut self, fault: Fault) {
        self.counters[fault.kind as usize].inc();
        if let Some(fr) = &self.flight {
            let t = fault.time.as_nanos();
            fr.record(
                t,
                TraceCtx::NONE,
                "monitor.fault",
                format!("{}: {}", fault.kind, fault.detail),
            );
            fr.trigger(t, &format!("fault detected: {}", fault.kind));
        }
        self.faults.push(fault);
        if self.faults.len() > self.capacity {
            let excess = self.faults.len() - self.capacity;
            self.faults.drain(0..excess);
        }
    }

    /// Total number of faults of `kind` ever recorded.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.counters[kind as usize].get()
    }

    /// Per-kind totals over the recorder's whole lifetime (not just the
    /// retained window) — the counters surfaced by diagnostic reports.
    /// Kinds never recorded are omitted.
    pub fn counts(&self) -> BTreeMap<FaultKind, u64> {
        FaultKind::ALL
            .iter()
            .filter_map(|&k| {
                let n = self.count(k);
                (n > 0).then_some((k, n))
            })
            .collect()
    }

    /// Drains retained faults for transfer to the backend; counters are
    /// preserved.
    pub fn drain(&mut self) -> Vec<Fault> {
        std::mem::take(&mut self.faults)
    }
}

impl Default for FaultRecorder {
    fn default() -> Self {
        FaultRecorder::new(1024)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(r: &FaultRecorder) -> u64 {
        r.counters.iter().map(|c| c.get()).sum()
    }

    fn fault(ms: u64, kind: FaultKind) -> Fault {
        Fault {
            time: SimTime::from_millis(ms),
            task: TaskId(1),
            kind,
            detail: String::new(),
        }
    }

    #[test]
    fn records_and_counts() {
        let mut r = FaultRecorder::new(10);
        r.record(fault(1, FaultKind::DeadlineMiss));
        r.record(fault(2, FaultKind::DeadlineMiss));
        r.record(fault(3, FaultKind::MemoryOverrun));
        assert_eq!(r.count(FaultKind::DeadlineMiss), 2);
        assert_eq!(r.count(FaultKind::Silence), 0);
        assert_eq!(total(&r), 3);
        assert_eq!(r.faults.len(), 3);
    }

    #[test]
    fn ring_behavior_keeps_latest() {
        let mut r = FaultRecorder::new(2);
        for i in 0..5 {
            r.record(fault(i, FaultKind::PeriodViolation));
        }
        assert_eq!(r.faults.len(), 2);
        assert_eq!(r.faults[0].time, SimTime::from_millis(3));
        assert_eq!(total(&r), 5);
    }

    #[test]
    fn drain_transfers_but_keeps_counts() {
        let mut r = FaultRecorder::new(10);
        r.record(fault(1, FaultKind::JitterViolation));
        let drained = r.drain();
        assert_eq!(drained.len(), 1);
        assert!(r.faults.is_empty());
        assert_eq!(r.count(FaultKind::JitterViolation), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_panics() {
        FaultRecorder::new(0);
    }

    #[test]
    fn flight_recorder_sees_faults_and_armed_trigger_freezes_a_dump() {
        let flight = Arc::new(FlightRecorder::new(64));
        flight.arm();
        let mut r = FaultRecorder::new(10).with_flight(flight.clone());
        r.record(fault(5, FaultKind::MessageLoss));
        let dumps = flight.dumps();
        assert_eq!(dumps.len(), 1, "armed trigger freezes exactly one dump");
        assert_eq!(dumps[0].reason, "fault detected: message loss");
        assert_eq!(dumps[0].time_ns, SimTime::from_millis(5).as_nanos());
        assert_eq!(dumps[0].events.len(), 1);
        assert_eq!(dumps[0].events[0].stage, "monitor.fault");
        // An unarmed recorder is disabled: faults leave no flight trace.
        let idle = Arc::new(FlightRecorder::new(64));
        let mut r = FaultRecorder::new(10).with_flight(idle.clone());
        r.record(fault(6, FaultKind::DeadlineMiss));
        assert!(idle.dumps().is_empty());
        assert!(idle.events().is_empty());
        assert_eq!(total(&r), 1, "the fault counters still see everything");
    }
}
