//! Criticality-aware degradation ladder (§3.3).
//!
//! When fault pressure rises — lost messages, failed nodes, missed
//! deadlines — the platform walks the ladder Full → Degraded → LimpHome,
//! shedding non-deterministic (infotainment) load first so deterministic
//! control functions keep their resources. Escalation is immediate;
//! recovery is guarded by hysteresis (pressure must stay below a fraction
//! of the entry threshold for a hold period) so a flapping fault source
//! cannot bounce the vehicle between levels.
//!
//! The shedding policy is [`DegradationLevel::admits`], asked through
//! [`DegradationManager::admits`]: the E12 chaos run checks it for every
//! application on every round, and a round the level does not admit
//! sends nothing.

use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppKind, Asil, DegradationLevel, UncertaintyEstimate};
use dynplat_obs::{FlightRecorder, TraceCtx};
use std::sync::Arc;

/// Fault pressure at or above which the platform enters
/// [`DegradationLevel::Degraded`].
pub const DEGRADED_THRESHOLD: f64 = 0.10;
/// Fault pressure at or above which the platform enters
/// [`DegradationLevel::LimpHome`].
const LIMP_THRESHOLD: f64 = 0.35;
/// Recovery hysteresis: pressure must fall below `RECOVERY_MARGIN x` the
/// entry threshold of the current level before the hold timer starts.
const RECOVERY_MARGIN: f64 = 0.5;
/// How long pressure must stay below the recovery floor before the
/// platform steps one level back up.
const RECOVERY_HOLD: SimDuration = SimDuration::from_millis(500);

// Gates of the uncertainty-driven ladder mode
// ([`DegradationManager::observe_estimate`]): instead of comparing a point
// pressure against a threshold, the ladder descends when the *probability*
// of a boundary exceedance clears a confidence gate, and ascends only when
// that probability has collapsed **and** the confidence band has
// tightened — hysteresis in probability space rather than value space.

/// Exceedance probability at or above which the ladder descends.
pub const TRIP_CONFIDENCE: f64 = 0.95;
/// Exceedance probability at or below which recovery may begin.
const CLEAR_CONFIDENCE: f64 = 0.10;
/// Recovery also requires the confidence band half-width to have tightened
/// to at most this fraction of the degraded threshold — a low exceedance
/// estimate with a wide band is ignorance, not health.
const TIGHTEN_FRACTION: f64 = 0.5;

/// The ladder's state machine. Feed it a fault-pressure signal (any
/// monotone badness measure in `[0, 1]`, e.g. the loss rate over the last
/// observation window) and it yields level transitions.
#[derive(Clone, Debug)]
pub struct DegradationManager {
    level: DegradationLevel,
    below_floor_since: Option<SimTime>,
    transitions: Vec<(SimTime, DegradationLevel)>,
    flight: Option<Arc<FlightRecorder>>,
}

impl DegradationManager {
    /// Creates a manager at [`DegradationLevel::Full`].
    pub fn new() -> Self {
        DegradationManager {
            level: DegradationLevel::Full,
            below_floor_since: None,
            transitions: Vec::new(),
            flight: None,
        }
    }

    /// Attaches a flight recorder: every ladder transition lands in its
    /// event ring (stage `core.degradation`) and, when the recorder is
    /// armed, freezes an incident dump — a level change is exactly the
    /// moment the preceding event window matters.
    pub fn attach_flight_recorder(&mut self, flight: Arc<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// The current level.
    pub fn level(&self) -> DegradationLevel {
        self.level
    }

    /// Every transition so far, in time order.
    pub fn transitions(&self) -> &[(SimTime, DegradationLevel)] {
        &self.transitions
    }

    /// `true` if an application of `kind` at `asil` may run right now.
    pub fn admits(&self, kind: AppKind, asil: Asil) -> bool {
        self.level.admits(kind, asil)
    }

    /// The pressure below which recovery from the current level may begin.
    fn recovery_floor(&self) -> f64 {
        let entry = match self.level {
            DegradationLevel::Full => return f64::INFINITY, // nothing to recover from
            DegradationLevel::Degraded => DEGRADED_THRESHOLD,
            DegradationLevel::LimpHome => LIMP_THRESHOLD,
        };
        entry * RECOVERY_MARGIN
    }

    /// Feeds one pressure observation at `now`. Returns the new level if
    /// this observation caused a transition.
    ///
    /// Escalation takes effect immediately (and may jump straight to
    /// limp-home); recovery steps down one level at a time after the
    /// pressure has stayed under the recovery floor for the recovery
    /// hold.
    pub fn observe(&mut self, now: SimTime, pressure: f64) -> Option<DegradationLevel> {
        let target = if pressure >= LIMP_THRESHOLD {
            DegradationLevel::LimpHome
        } else if pressure >= DEGRADED_THRESHOLD {
            DegradationLevel::Degraded
        } else {
            DegradationLevel::Full
        };
        if target > self.level {
            self.level = target;
            self.below_floor_since = None;
            self.transitions.push((now, target));
            observe_transition(target);
            self.flight_transition(now, target, pressure);
            return Some(target);
        }
        if self.level == DegradationLevel::Full {
            return None;
        }
        if pressure < self.recovery_floor() {
            let since = *self.below_floor_since.get_or_insert(now);
            if now.saturating_since(since) >= RECOVERY_HOLD {
                let next = match self.level {
                    DegradationLevel::LimpHome => DegradationLevel::Degraded,
                    _ => DegradationLevel::Full,
                };
                self.level = next;
                self.below_floor_since = Some(now);
                self.transitions.push((now, next));
                observe_transition(next);
                self.flight_transition(now, next, pressure);
                return Some(next);
            }
        } else {
            // Pressure bounced back above the floor: restart the hold.
            self.below_floor_since = None;
        }
        None
    }

    /// Feeds one distribution-valued observation at `now` — the
    /// uncertainty-driven mode. Returns the new level if this observation
    /// caused a transition.
    ///
    /// Descent fires when the estimate's boundary-exceedance probability
    /// reaches [`TRIP_CONFIDENCE`] (targeting limp-home when even the
    /// estimated *level* is past the limp threshold); an unconverged
    /// estimate never descends. Ascent requires the exceedance probability
    /// at or below 0.10 **and** the band tightened to half the degraded
    /// threshold, sustained for the recovery hold — the probability-space
    /// analogue of [`DegradationManager::observe`]'s hysteresis.
    pub fn observe_estimate(
        &mut self,
        now: SimTime,
        est: &UncertaintyEstimate,
    ) -> Option<DegradationLevel> {
        if est.exceeds_with_confidence(TRIP_CONFIDENCE) {
            let target = if est.mean >= LIMP_THRESHOLD {
                DegradationLevel::LimpHome
            } else {
                DegradationLevel::Degraded
            };
            if target > self.level {
                self.level = target;
                self.below_floor_since = None;
                self.transitions.push((now, target));
                observe_transition(target);
                self.flight_transition(now, target, est.exceed);
                return Some(target);
            }
        }
        if self.level == DegradationLevel::Full {
            return None;
        }
        let band_tight = est.band <= TIGHTEN_FRACTION * DEGRADED_THRESHOLD;
        let cleared = est.converged && est.exceed <= CLEAR_CONFIDENCE && band_tight;
        if cleared {
            let since = *self.below_floor_since.get_or_insert(now);
            if now.saturating_since(since) >= RECOVERY_HOLD {
                let next = match self.level {
                    DegradationLevel::LimpHome => DegradationLevel::Degraded,
                    _ => DegradationLevel::Full,
                };
                self.level = next;
                self.below_floor_since = Some(now);
                self.transitions.push((now, next));
                observe_transition(next);
                self.flight_transition(now, next, est.exceed);
                return Some(next);
            }
        } else {
            // Belief bounced back up (or the band re-widened): restart.
            self.below_floor_since = None;
        }
        None
    }

    fn flight_transition(&self, now: SimTime, level: DegradationLevel, pressure: f64) {
        if let Some(fr) = &self.flight {
            let t = now.as_nanos();
            fr.record(
                t,
                TraceCtx::NONE,
                "core.degradation",
                format!("-> {level:?} (pressure {pressure:.3})"),
            );
            fr.trigger(t, &format!("ladder transition -> {level:?}"));
        }
    }
}

impl Default for DegradationManager {
    fn default() -> Self {
        DegradationManager::new()
    }
}

/// Emits one ladder transition into the observability registry: a
/// transition counter (total plus per direction) and a level gauge
/// (0 = Full, 1 = Degraded, 2 = LimpHome).
fn observe_transition(level: DegradationLevel) {
    dynplat_obs::counter!("core.degradation.transitions").inc();
    match level {
        DegradationLevel::Full => dynplat_obs::counter!("core.degradation.to_full").inc(),
        DegradationLevel::Degraded => dynplat_obs::counter!("core.degradation.to_degraded").inc(),
        DegradationLevel::LimpHome => dynplat_obs::counter!("core.degradation.to_limp_home").inc(),
    }
    let ordinal = match level {
        DegradationLevel::Full => 0,
        DegradationLevel::Degraded => 1,
        DegradationLevel::LimpHome => 2,
    };
    dynplat_obs::gauge!("core.degradation.level").set(ordinal);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn manager() -> DegradationManager {
        DegradationManager::new()
    }

    #[test]
    fn escalates_immediately_and_in_jumps() {
        let mut m = manager();
        assert_eq!(m.observe(ms(0), 0.05), None);
        assert_eq!(m.observe(ms(1), 0.2), Some(DegradationLevel::Degraded));
        assert_eq!(m.observe(ms(2), 0.9), Some(DegradationLevel::LimpHome));
        // Straight jump from Full works too.
        let mut j = manager();
        assert_eq!(j.observe(ms(0), 0.9), Some(DegradationLevel::LimpHome));
    }

    #[test]
    fn recovery_requires_hold_below_floor() {
        let mut m = manager();
        m.observe(ms(0), 0.2);
        assert_eq!(m.level(), DegradationLevel::Degraded);
        // Floor is 0.05; 0.07 does not start recovery.
        assert_eq!(m.observe(ms(10), 0.07), None);
        assert_eq!(m.observe(ms(200), 0.07), None);
        // Below the floor, but the 500 ms hold has not elapsed yet.
        assert_eq!(m.observe(ms(210), 0.01), None);
        assert_eq!(m.observe(ms(700), 0.01), None);
        // Hold elapsed: one step back up.
        assert_eq!(m.observe(ms(710), 0.01), Some(DegradationLevel::Full));
    }

    #[test]
    fn flapping_pressure_restarts_the_hold() {
        let mut m = manager();
        m.observe(ms(0), 0.5);
        assert_eq!(m.level(), DegradationLevel::LimpHome);
        assert_eq!(m.observe(ms(10), 0.01), None);
        // A spike above the floor (0.175) resets the timer...
        assert_eq!(m.observe(ms(60), 0.25), None);
        assert_eq!(m.observe(ms(110), 0.01), None);
        // ...so 500 ms from the *first* quiet sample is not enough.
        assert_eq!(m.observe(ms(510), 0.01), None);
        // 500 ms after the restart it steps down one level only.
        assert_eq!(m.observe(ms(610), 0.01), Some(DegradationLevel::Degraded));
        assert_eq!(m.level(), DegradationLevel::Degraded);
    }

    #[test]
    fn transitions_are_logged_in_order() {
        let mut m = manager();
        m.observe(ms(0), 0.2);
        m.observe(ms(5), 0.9);
        m.observe(ms(10), 0.0);
        m.observe(ms(510), 0.0);
        let levels: Vec<DegradationLevel> = m.transitions().iter().map(|(_, l)| *l).collect();
        assert_eq!(
            levels,
            vec![
                DegradationLevel::Degraded,
                DegradationLevel::LimpHome,
                DegradationLevel::Degraded
            ]
        );
    }

    #[test]
    fn ladder_transitions_freeze_flight_dumps() {
        let flight = Arc::new(FlightRecorder::new(32));
        flight.arm();
        let mut m = manager();
        m.attach_flight_recorder(flight.clone());
        m.observe(ms(0), 0.2); // -> Degraded
        m.observe(ms(5), 0.9); // -> LimpHome
        let dumps = flight.dumps();
        assert_eq!(dumps.len(), 2);
        assert_eq!(dumps[0].reason, "ladder transition -> Degraded");
        assert_eq!(dumps[1].reason, "ladder transition -> LimpHome");
        // The second dump's window contains the first transition's event.
        assert!(dumps[1]
            .events
            .iter()
            .any(|e| e.stage == "core.degradation" && e.detail.contains("Degraded")));
    }

    fn est(at: SimTime, mean: f64, band: f64, exceed: f64, converged: bool) -> UncertaintyEstimate {
        UncertaintyEstimate {
            at,
            mean,
            sigma: band / 2.0,
            band,
            exceed,
            samples: if converged { 40 } else { 2 },
            converged,
        }
    }

    #[test]
    fn estimate_mode_descends_only_with_confidence() {
        let mut m = manager();
        // High mean but modest exceedance probability: no descent — the
        // point-threshold mode would already have tripped here.
        assert_eq!(
            m.observe_estimate(ms(0), &est(ms(0), 0.15, 0.1, 0.6, true)),
            None
        );
        // Confident exceedance of the degraded boundary descends...
        assert_eq!(
            m.observe_estimate(ms(1), &est(ms(1), 0.15, 0.05, 0.97, true)),
            Some(DegradationLevel::Degraded)
        );
        // ...and a confidently limp-scale mean jumps to limp-home.
        assert_eq!(
            m.observe_estimate(ms(2), &est(ms(2), 0.8, 0.05, 0.99, true)),
            Some(DegradationLevel::LimpHome)
        );
    }

    #[test]
    fn estimate_mode_never_descends_unconverged() {
        let mut m = manager();
        // Even certain-looking exceedance is ignored during warm-up.
        assert_eq!(
            m.observe_estimate(ms(0), &est(ms(0), 0.9, 1.0, 1.0, false)),
            None
        );
        assert_eq!(m.level(), DegradationLevel::Full);
    }

    #[test]
    fn estimate_mode_ascends_only_when_band_has_tightened() {
        let mut m = manager();
        m.observe_estimate(ms(0), &est(ms(0), 0.2, 0.05, 0.99, true));
        assert_eq!(m.level(), DegradationLevel::Degraded);
        // Low exceedance but a wide band (> 0.5 * 0.1): ignorance, no hold.
        assert_eq!(
            m.observe_estimate(ms(10), &est(ms(10), 0.02, 0.2, 0.05, true)),
            None
        );
        assert_eq!(
            m.observe_estimate(ms(200), &est(ms(200), 0.02, 0.2, 0.05, true)),
            None
        );
        // Band tight: hold starts now, not at ms(10).
        assert_eq!(
            m.observe_estimate(ms(210), &est(ms(210), 0.02, 0.03, 0.05, true)),
            None
        );
        assert_eq!(
            m.observe_estimate(ms(710), &est(ms(710), 0.02, 0.03, 0.05, true)),
            Some(DegradationLevel::Full)
        );
    }

    #[test]
    fn estimate_mode_hold_restarts_on_belief_bounce() {
        let mut m = manager();
        m.observe_estimate(ms(0), &est(ms(0), 0.5, 0.05, 0.99, true));
        assert_eq!(m.level(), DegradationLevel::LimpHome);
        assert_eq!(
            m.observe_estimate(ms(10), &est(ms(10), 0.02, 0.03, 0.05, true)),
            None
        );
        // Belief bounces to ambiguous mid-hold: restart.
        assert_eq!(
            m.observe_estimate(ms(60), &est(ms(60), 0.06, 0.03, 0.5, true)),
            None
        );
        assert_eq!(
            m.observe_estimate(ms(110), &est(ms(110), 0.02, 0.03, 0.05, true)),
            None
        );
        // One step at a time, 500 ms after the restart.
        assert_eq!(
            m.observe_estimate(ms(610), &est(ms(610), 0.02, 0.03, 0.05, true)),
            Some(DegradationLevel::Degraded)
        );
    }
}
