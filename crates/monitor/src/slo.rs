//! SLO burn-rate gating under uncertainty.
//!
//! A bare threshold ("this batch's failure fraction crossed 5 %") pages
//! on sampling noise and says nothing about budget consumption. An
//! [`SloSpec`] reframes the same signal as an **error budget**: the
//! objective allows a `budget` fraction of bad events, and the *burn
//! rate* is how fast that budget is being spent (`burn = bad_fraction /
//! budget`; 1.0 = exactly on budget).
//!
//! [`SloBurnGate`] keeps the per-batch `(good, bad)` counts of the last
//! 16 batches and reports the burn over the newest batch, a **fast**
//! window of 4 (reacts quickly, recovers quickly) and a **slow** window
//! of 16 (the sustained picture). The moment the fast burn reaches 1.0
//! it arms the attached [`FlightRecorder`], and it disarms once the fast
//! burn falls below half that level — so by the time a trip fires, the
//! causal window leading up to it is already on tape.
//!
//! A burn rate is a noisy point sample, and tripping on a point is
//! exactly the hair-trigger behaviour the paper's uncertainty management
//! replaces. So the gate does not trip on the burn itself: each batch's
//! burn is ingested by a [`BoundaryEstimator`] against the natural
//! boundary **burn = 1.0**, and the gate trips only when the estimator is
//! 95 % confident the burn rate exceeds it.
//!
//! Because every [`BoundaryConfig`] parameter scales linearly with its
//! boundary, estimating `fraction / budget` against boundary 1.0 is
//! mathematically identical to estimating `fraction` against boundary
//! `budget` — so a consumer that migrates from a bare failure-rate gate
//! (e.g. `fleet::UpdateMaster`) keeps its trip timing bit-for-bit while
//! gaining burn-rate arming, flight capture and SLO vocabulary.
//!
//! On the rising trip edge the gate fires the flight recorder, and every
//! trip is paired with a `dynplat.flight.v1` dump (the recorder is armed
//! unconditionally on the edge, so a trip that outran the fast window
//! still captures).

use std::collections::VecDeque;
use std::sync::Arc;

use dynplat_common::time::SimTime;
use dynplat_common::uncertainty::UncertaintyEstimate;
use dynplat_obs::{FlightDump, FlightRecorder, TraceCtx};

use crate::uncertainty::{BoundaryConfig, BoundaryEstimator};

/// Fast-window length in observation batches.
const FAST_WINDOW: usize = 4;
/// Slow-window length in observation batches (the whole kept window).
const SLOW_WINDOW: usize = 16;
/// Fast burn at or above which the flight recorder arms.
const ARM_BURN: f64 = 1.0;
/// Estimator confidence at which the gate trips.
const TRIP_CONFIDENCE: f64 = 0.95;

/// One declarative objective: at most `budget` of events may be bad.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SloSpec {
    /// Objective name, used in flight-recorder events and dump reasons.
    pub name: &'static str,
    /// Error budget as a fraction of events in `(0, 1)`.
    pub budget: f64,
}

impl SloSpec {
    /// An error-fraction objective: bad events / total events must stay
    /// under `budget`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < budget < 1`.
    pub fn error_fraction(name: &'static str, budget: f64) -> Self {
        assert!(
            budget > 0.0 && budget < 1.0,
            "error budget must be a fraction in (0, 1)"
        );
        SloSpec { name, budget }
    }
}

/// One gated observation batch: the burn rates, the estimator's belief,
/// and the trip decision.
#[derive(Clone, Debug)]
pub struct SloVerdict {
    /// Burn rate of this batch alone (`fraction / budget`).
    pub batch_burn: f64,
    /// Burn rate over the fast window.
    pub fast_burn: f64,
    /// Burn rate over the slow window.
    pub slow_burn: f64,
    /// The estimator's belief that the burn rate exceeds 1.0.
    pub estimate: UncertaintyEstimate,
    /// `true` while the estimator is confident the objective is violated.
    pub tripped: bool,
    /// `true` on the rising edge only — the batch that flipped the gate.
    pub trip_edge: bool,
    /// The flight dump frozen on this trip edge, if a recorder is
    /// attached and its dump quota is not exhausted.
    pub dump: Option<FlightDump>,
}

/// An SLO gate: multi-window burn tracking fused with boundary-exceedance
/// estimation.
///
/// # Examples
///
/// ```
/// use dynplat_common::time::SimTime;
/// use dynplat_monitor::slo::{SloBurnGate, SloSpec};
///
/// let mut gate = SloBurnGate::new(SloSpec::error_fraction("doc.gate", 0.05));
/// // A noisy-but-healthy stream: one bad in 32 is 0.625x budget.
/// let mut t = SimTime::from_millis(1);
/// for _ in 0..8 {
///     let v = gate.observe(t, 31, 1);
///     assert!(v.batch_burn < 1.0);
///     assert!(!v.tripped);
///     t = t + dynplat_common::time::SimDuration::from_millis(10);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct SloBurnGate {
    spec: SloSpec,
    /// `(good, bad)` per batch, newest last; at most [`SLOW_WINDOW`].
    window: VecDeque<(u64, u64)>,
    armed: bool,
    estimator: BoundaryEstimator,
    flight: Option<Arc<FlightRecorder>>,
    was_tripped: bool,
    trips: u64,
    dumps: u64,
}

impl SloBurnGate {
    /// A gate for `spec`, estimating burn against boundary 1.0.
    pub fn new(spec: SloSpec) -> Self {
        SloBurnGate {
            spec,
            window: VecDeque::with_capacity(SLOW_WINDOW),
            armed: false,
            estimator: BoundaryEstimator::new(BoundaryConfig::for_boundary(1.0)),
            flight: None,
            was_tripped: false,
            trips: 0,
            dumps: 0,
        }
    }

    /// Rising trip edges seen since construction (reset does not clear).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Flight dumps captured on trip edges since construction.
    pub fn dumps(&self) -> u64 {
        self.dumps
    }

    /// Attaches a flight recorder: the gate arms it on fast-burn
    /// crossings and triggers a dump on every trip edge; the estimator
    /// records its own gate crossings into it.
    pub fn attach_flight_recorder(&mut self, flight: Arc<FlightRecorder>) {
        self.estimator.attach_flight_recorder(Arc::clone(&flight));
        self.flight = Some(flight);
    }

    /// Ingests one `(good, bad)` observation batch at `at` and returns
    /// the verdict. Once tripped, the gate stays tripped until the
    /// estimator's belief decays below the confidence gate (recovery) or
    /// [`SloBurnGate::reset`] starts a fresh episode.
    pub fn observe(&mut self, at: SimTime, good: u64, bad: u64) -> SloVerdict {
        if self.window.len() == SLOW_WINDOW {
            self.window.pop_front();
        }
        self.window.push_back((good, bad));
        let batch_burn = self.burn_over(1);
        let fast_burn = self.burn_over(FAST_WINDOW);
        let slow_burn = self.burn_over(SLOW_WINDOW);
        // Arm on the fast window (react fast), clear on it too (recover
        // fast): hysteresis at half the arming level prevents flapping.
        if !self.armed && fast_burn >= ARM_BURN {
            self.armed = true;
            if let Some(fr) = &self.flight {
                fr.arm();
                fr.record(
                    at.as_nanos(),
                    TraceCtx::NONE,
                    "obs.slo.burn",
                    format!(
                        "slo {} armed: fast burn {:.3} >= {:.3}",
                        self.spec.name, fast_burn, ARM_BURN
                    ),
                );
            }
        } else if self.armed && fast_burn < ARM_BURN * 0.5 {
            self.armed = false;
        }

        let estimate = self.estimator.ingest(at, batch_burn);
        let tripped = estimate.exceeds_with_confidence(TRIP_CONFIDENCE);
        let trip_edge = tripped && !self.was_tripped;
        self.was_tripped = tripped;
        let mut dump = None;
        if trip_edge {
            self.trips += 1;
            if let Some(fr) = &self.flight {
                // Arm unconditionally so the trip always captures, even if
                // the fast window never crossed the arming level (e.g. a
                // slow sustained burn).
                fr.arm();
                dump = fr.trigger_if_armed(
                    at.as_nanos(),
                    &format!(
                        "slo {} burn-rate trip: burn {:.3} exceed {:.3}",
                        self.spec.name, batch_burn, estimate.exceed
                    ),
                );
                if dump.is_some() {
                    self.dumps += 1;
                }
            }
        }
        SloVerdict {
            batch_burn,
            fast_burn,
            slow_burn,
            estimate,
            tripped,
            trip_edge,
            dump,
        }
    }

    /// Starts a fresh gating episode: the burn window, the arming latch,
    /// the estimator's belief and the trip latch are cleared (trip/dump
    /// totals are kept).
    pub fn reset(&mut self) {
        self.window.clear();
        self.armed = false;
        self.estimator.reset();
        self.was_tripped = false;
    }

    /// Burn rate over the newest `batches` batches (all batches when
    /// fewer have been observed); 0.0 before any events.
    fn burn_over(&self, batches: usize) -> f64 {
        let start = self.window.len().saturating_sub(batches);
        let (good, bad) = self
            .window
            .range(start..)
            .fold((0u64, 0u64), |(g, b), &(good, bad)| (g + good, b + bad));
        let total = good + bad;
        if total == 0 {
            return 0.0;
        }
        (bad as f64 / total as f64) / self.spec.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::time::SimDuration;

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn spec() -> SloSpec {
        SloSpec::error_fraction("slo.test", 0.05)
    }

    /// Flight events the gate's fast-burn arming recorded for `name`.
    fn arming_events(flight: &FlightRecorder, name: &str) -> usize {
        flight
            .events()
            .iter()
            .filter(|e| e.stage == "obs.slo.burn" && e.detail.contains(name))
            .count()
    }

    #[test]
    fn burn_is_fraction_over_budget() {
        let mut gate = SloBurnGate::new(SloSpec::error_fraction("t", 0.10));
        let v = gate.observe(at(1), 90, 10); // fraction 0.10 == budget
        assert!((v.batch_burn - 1.0).abs() < 1e-12);
        assert!((v.fast_burn - 1.0).abs() < 1e-12);
        let v = gate.observe(at(2), 50, 50);
        assert!((v.batch_burn - 5.0).abs() < 1e-12);
        // Fast window (4) now spans both batches: 60/200 bad over 0.10.
        assert!((v.fast_burn - 3.0).abs() < 1e-12);
    }

    #[test]
    fn fast_and_slow_windows_diverge() {
        let mut gate = SloBurnGate::new(SloSpec::error_fraction("t", 0.10));
        let mut t = at(1);
        for _ in 0..16 {
            gate.observe(t, 100, 0);
            t += SimDuration::from_millis(10);
        }
        let mut last = gate.observe(t, 0, 100);
        for _ in 0..3 {
            t += SimDuration::from_millis(10);
            last = gate.observe(t, 0, 100);
        }
        assert!(
            (last.fast_burn - 10.0).abs() < 1e-12,
            "fast window is all-bad: {last:?}"
        );
        assert!(
            last.slow_burn < 3.0,
            "slow window still mostly clean: {last:?}"
        );
    }

    #[test]
    fn arming_follows_fast_burn_with_hysteresis() {
        let flight = Arc::new(FlightRecorder::new(64));
        let mut gate = SloBurnGate::new(SloSpec::error_fraction("arm.test", 0.10));
        gate.attach_flight_recorder(flight.clone());
        let mut t = 0;
        let mut feed = |good, bad| {
            t += 10;
            gate.observe(at(t), good, bad)
        };
        feed(100, 0);
        assert!(!flight.is_armed(), "a clean batch must not arm");
        let v = feed(0, 100);
        assert!(flight.is_armed(), "fast burn {} should arm", v.fast_burn);
        assert_eq!(arming_events(&flight, "arm.test"), 1);
        // Fast burn 0.7 is under the arming level but not under half of
        // it: the gate stays armed, so the next spike is no new crossing.
        let mut v = feed(93, 7);
        for _ in 0..3 {
            v = feed(93, 7);
        }
        assert!((v.fast_burn - 0.7).abs() < 1e-9, "{v:?}");
        feed(0, 100);
        assert_eq!(arming_events(&flight, "arm.test"), 1);
        // Fast burn 0.3 is under half the level: the gate disarms, and
        // the next spike is a fresh crossing.
        for _ in 0..4 {
            v = feed(97, 3);
        }
        assert!((v.fast_burn - 0.3).abs() < 1e-9, "{v:?}");
        feed(0, 100);
        assert_eq!(
            arming_events(&flight, "arm.test"),
            2,
            "a disarmed gate must re-arm on the next crossing"
        );
    }

    #[test]
    fn reset_clears_windows_and_arming() {
        let flight = Arc::new(FlightRecorder::new(16));
        let mut gate = SloBurnGate::new(spec());
        gate.attach_flight_recorder(flight.clone());
        gate.observe(at(1), 0, 100);
        assert_eq!(arming_events(&flight, "slo.test"), 1);
        gate.reset();
        // Without the reset the gate would still be armed and stay
        // silent on this batch.
        gate.observe(at(2), 0, 100);
        assert_eq!(arming_events(&flight, "slo.test"), 2);
        gate.reset();
        let v = gate.observe(at(3), 100, 0);
        assert_eq!(v.slow_burn, 0.0);
    }

    #[test]
    #[should_panic(expected = "error budget must be a fraction")]
    fn whole_budget_panics() {
        SloSpec::error_fraction("bad", 1.0);
    }

    #[test]
    fn healthy_noise_never_trips() {
        let mut gate = SloBurnGate::new(spec());
        let mut t = at(1);
        for i in 0..64u64 {
            // One bad vehicle in some batches: 1/32 = 0.625x budget.
            let bad = u64::from(i % 3 == 0);
            let v = gate.observe(t, 32 - bad, bad);
            assert!(!v.tripped, "healthy stream tripped at batch {i}: {v:?}");
            t += SimDuration::from_millis(10);
        }
        assert_eq!(gate.trips(), 0);
    }

    #[test]
    fn catastrophic_burn_trips_once_with_a_dump() {
        let flight = Arc::new(FlightRecorder::new(64));
        let mut gate = SloBurnGate::new(spec());
        gate.attach_flight_recorder(Arc::clone(&flight));
        let mut t = at(1);
        for _ in 0..8 {
            assert!(!gate.observe(t, 32, 0).tripped);
            t += SimDuration::from_millis(10);
        }
        let mut edges = 0u64;
        let mut dumps = 0u64;
        for _ in 0..4 {
            let v = gate.observe(t, 8, 24); // 75% bad = 15x budget
            assert!(v.batch_burn > 10.0);
            if v.trip_edge {
                edges += 1;
                assert!(v.tripped);
                assert!(v.dump.is_some(), "trip edge must pair with a dump");
                dumps += 1;
            }
            t += SimDuration::from_millis(10);
        }
        assert_eq!(edges, 1, "edge fires exactly once per episode");
        assert_eq!(gate.trips(), 1);
        assert_eq!(gate.dumps(), dumps);
        assert_eq!(flight.dumps().len(), 1);
        assert!(flight.dumps()[0].reason.contains("slo.test"));
    }

    #[test]
    fn equivalent_to_raw_fraction_gate_at_budget_boundary() {
        // The linearity argument in the module docs, checked numerically:
        // burn/1.0 and fraction/budget gates trip on the same batch.
        let budget = 0.05;
        let mut burn_gate = SloBurnGate::new(SloSpec::error_fraction("eq", budget));
        let mut raw = BoundaryEstimator::new(BoundaryConfig::for_boundary(budget));
        let series: Vec<(u64, u64)> = (0..24)
            .map(|i| if i < 12 { (32, 0) } else { (26, 6) })
            .collect();
        let mut t = at(1);
        let (mut burn_trip, mut raw_trip) = (None, None);
        for (i, &(good, bad)) in series.iter().enumerate() {
            let v = burn_gate.observe(t, good, bad);
            if v.tripped && burn_trip.is_none() {
                burn_trip = Some(i);
            }
            let fraction = bad as f64 / (good + bad) as f64;
            let e = raw.ingest(t, fraction);
            if e.exceeds_with_confidence(0.95) && raw_trip.is_none() {
                raw_trip = Some(i);
            }
            t += SimDuration::from_millis(10);
        }
        assert!(burn_trip.is_some(), "degraded stream must trip");
        assert_eq!(burn_trip, raw_trip, "gates must trip on the same batch");
    }

    #[test]
    fn reset_starts_a_new_episode() {
        let mut gate = SloBurnGate::new(spec());
        let mut t = at(1);
        for _ in 0..8 {
            gate.observe(t, 0, 32);
            t += SimDuration::from_millis(10);
        }
        assert!(gate.observe(t, 0, 32).tripped);
        gate.reset();
        let v = gate.observe(t + SimDuration::from_millis(10), 32, 0);
        assert!(!v.tripped, "fresh episode must not inherit belief");
        assert_eq!(gate.trips(), 1, "trip total survives the reset");
    }
}
