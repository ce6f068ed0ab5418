//! A three-vehicle V2X platoon over the chaos fabric.
//!
//! The paper's uncertainty story is not confined to one ECU: a platoon's
//! cooperative adaptive cruise control (CACC) holds a tight gap *because*
//! each follower receives the leader's state over V2X. When that link
//! degrades, the follower must fall back to radar-only ACC and a larger
//! gap — and the decision to fall back is exactly a boundary-exceedance
//! question about an uncertain, noisy signal. This module drives a leader
//! and two followers over a shared "air" bus, perturbs the beacons with a
//! [`FaultPlan`] (background loss plus a hard V2X outage starting at the
//! E13 onset), and lets a [`BoundaryEstimator`] per follower decide the
//! CACC → ACC switch. The same beacon-loss series is replayed through a
//! point-threshold rule, so the platoon reports the mode-switching
//! analogue of E14's ladder comparison:
//!
//! * a **spurious fallback** (leaving CACC while the link is healthy)
//!   costs efficiency — the platoon opens to the ACC gap for nothing;
//! * a **late fallback** (holding CACC into a real outage) costs safety —
//!   the follower is closing at a stale target.
//!
//! Radar range measurements carry [`GaussianNoise`], the estimator's
//! flight-recorder hook captures every mode flip with the beacon's
//! [`TraceCtx`], and the whole run is a pure function of its seed.

use crate::detect::onset;
use dynplat_comm::fabric::{Fabric, MessageSend};
use dynplat_common::jitter::GaussianNoise;
use dynplat_common::rng::{seeded_rng, split_seed};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{BusId, EcuId};
use dynplat_faults::{ChaosFabric, FaultPlan};
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat_monitor::uncertainty::BoundaryEstimator;
use dynplat_net::TrafficClass;
use dynplat_obs::{FlightRecorder, TraceCtx};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Longitudinal control mode of a follower.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ControlMode {
    /// Cooperative ACC: V2X beacons fresh, tight gap.
    Cacc,
    /// Radar-only ACC: V2X distrusted, extended gap.
    Acc,
}

/// Platoon workload configuration.
#[derive(Clone, Debug)]
pub struct PlatoonConfig {
    /// Master seed.
    pub seed: u64,
    /// Run length.
    pub horizon: SimDuration,
    /// Leader beacon period (100 ms ⇒ 10 Hz, the V2X CAM default).
    pub beacon_period: SimDuration,
    /// Mode-decision window: beacon losses are aggregated per window.
    pub window: SimDuration,
    /// Background beacon drop rate (channel noise).
    pub noise_drop: f64,
    /// Inject a hard V2X outage over the E13 fault span (⅓ → ⅔ of the
    /// horizon).
    pub outage: bool,
    /// Windowed beacon-loss ratio above which CACC is no longer safe.
    pub loss_boundary: f64,
    /// Confidence the estimator must reach before a follower leaves CACC.
    pub trip_confidence: f64,
    /// Belief at or below which (with a tight band) CACC resumes.
    pub clear_confidence: f64,
    /// Radar range noise (meters, 1σ).
    pub radar_sigma_m: f64,
}

impl PlatoonConfig {
    /// The standard platoon: 9 s horizon, 10 Hz beacons, 500 ms windows,
    /// outage on.
    pub fn new(seed: u64) -> Self {
        PlatoonConfig {
            seed,
            horizon: SimDuration::from_secs(9),
            beacon_period: SimDuration::from_millis(100),
            window: SimDuration::from_millis(500),
            noise_drop: 0.05,
            outage: true,
            loss_boundary: 0.5,
            trip_confidence: 0.95,
            clear_confidence: 0.10,
            radar_sigma_m: 0.3,
        }
    }
}

/// What one switching rule did over one follower's beacon-loss series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwitchStats {
    /// CACC → ACC transitions.
    pub fallbacks: u64,
    /// Fallbacks charged to windows outside the injected outage.
    pub spurious_fallbacks: u64,
    /// Outage onset to the first fallback inside the outage (`None` when
    /// the rule never fell back, or no outage was injected).
    pub fallback_latency: Option<SimDuration>,
    /// Outage windows ridden out in CACC — closing on stale leader state.
    pub unsafe_windows: u64,
    /// Healthy windows spent in ACC — gap opened for nothing.
    pub inefficient_windows: u64,
}

/// Outcome of one platoon run.
#[derive(Clone, Debug)]
pub struct PlatoonOutcome {
    /// Beacons transmitted per follower.
    pub beacons_per_follower: u64,
    /// Beacons lost, summed over both followers.
    pub beacons_lost: u64,
    /// Decision windows per follower.
    pub windows: u64,
    /// Point-threshold switching, aggregated over both followers.
    pub threshold: SwitchStats,
    /// Estimator-driven switching, aggregated over both followers.
    pub uncertainty: SwitchStats,
    /// Mean absolute radar-range measurement error (m) — the Gaussian
    /// sensor model's contribution, reported for the example output.
    pub mean_radar_error_m: f64,
}

/// veh0 (leader) — veh1, veh2 (followers), all on one shared V2X channel.
fn platoon_topology() -> HwTopology {
    HwTopology::from_parts(
        [
            EcuSpec::of_class(EcuId(0), "veh0-obu", EcuClass::Domain),
            EcuSpec::of_class(EcuId(1), "veh1-obu", EcuClass::Domain),
            EcuSpec::of_class(EcuId(2), "veh2-obu", EcuClass::Domain),
        ],
        [BusSpec::new(
            BusId(0),
            "v2x-air",
            BusKind::ethernet_100m(),
            [EcuId(0), EcuId(1), EcuId(2)],
        )],
    )
    .expect("static platoon topology is valid")
}

// Beacon id layout: | follower (bits 32..) | sequence (0..32) |
fn beacon_id(follower: u64, seq: u64) -> u64 {
    (follower << 32) | seq
}

fn apply_rule(
    losses: &[(SimTime, f64)],
    decide: &mut dyn FnMut(SimTime, f64) -> ControlMode,
    outage_span: Option<(SimTime, SimTime)>,
    window: SimDuration,
) -> SwitchStats {
    let mut stats = SwitchStats {
        fallbacks: 0,
        spurious_fallbacks: 0,
        fallback_latency: None,
        unsafe_windows: 0,
        inefficient_windows: 0,
    };
    let in_outage = |w_end: SimTime| {
        outage_span.is_some_and(|(from, until)| w_end > from && w_end - window < until)
    };
    let mut mode = ControlMode::Cacc;
    for &(w_end, loss) in losses {
        let next = decide(w_end, loss);
        let faulty = in_outage(w_end);
        if next == ControlMode::Acc && mode == ControlMode::Cacc {
            stats.fallbacks += 1;
            if faulty {
                if let Some((from, _)) = outage_span {
                    stats
                        .fallback_latency
                        .get_or_insert(w_end.saturating_since(from));
                }
            } else {
                stats.spurious_fallbacks += 1;
            }
        }
        mode = next;
        match (faulty, mode) {
            (true, ControlMode::Cacc) => stats.unsafe_windows += 1,
            (false, ControlMode::Acc) => stats.inefficient_windows += 1,
            _ => {}
        }
    }
    stats
}

fn merge(a: SwitchStats, b: SwitchStats) -> SwitchStats {
    SwitchStats {
        fallbacks: a.fallbacks + b.fallbacks,
        spurious_fallbacks: a.spurious_fallbacks + b.spurious_fallbacks,
        fallback_latency: match (a.fallback_latency, b.fallback_latency) {
            (Some(x), Some(y)) => Some(x.max(y)), // report the worse follower
            (x, y) => x.or(y),
        },
        unsafe_windows: a.unsafe_windows + b.unsafe_windows,
        inefficient_windows: a.inefficient_windows + b.inefficient_windows,
    }
}

/// Runs one platoon to completion.
///
/// # Panics
///
/// Panics if the config's periods are degenerate (window shorter than the
/// beacon period, zero horizon).
pub fn run_platoon(cfg: &PlatoonConfig, flight: Option<Arc<FlightRecorder>>) -> PlatoonOutcome {
    assert!(
        cfg.window >= cfg.beacon_period,
        "window must hold at least one beacon"
    );
    assert!(!cfg.horizon.is_zero(), "horizon must be non-zero");

    let outage_span = cfg
        .outage
        // The outage starts at the E13 onset but lasts half the E13 span:
        // re-engaging CACC takes roughly as many clean windows as the
        // outage fed the estimator, so the shorter span leaves the
        // recovery visible inside the horizon.
        .then(|| (onset(cfg.horizon), onset(cfg.horizon) + cfg.horizon / 6));
    let mut plan = FaultPlan::quiet(cfg.seed);
    if cfg.noise_drop > 0.0 {
        plan = plan.with_message_faults(cfg.noise_drop, 0.0, 0.0);
    }
    if let Some((from, until)) = outage_span {
        plan = plan.partition(BusId(0), from, until);
    }
    let mut chaos = ChaosFabric::new(Fabric::new(platoon_topology()), plan);
    if let Some(fr) = &flight {
        chaos.attach_flight_recorder(fr.clone());
    }

    // The leader unicasts its state beacon to each follower (the fabric is
    // point-to-point; the shared medium is the bus underneath).
    let beacons = cfg.horizon.as_nanos() / cfg.beacon_period.as_nanos();
    let mut sends = Vec::with_capacity((beacons * 2) as usize);
    for seq in 0..beacons {
        let t = SimTime::ZERO + cfg.beacon_period * seq;
        for follower in 1..=2u64 {
            sends.push(MessageSend {
                id: beacon_id(follower, seq),
                time: t,
                src: EcuId(0),
                dst: EcuId(follower as u16),
                payload: 48, // CAM-sized state vector
                class: TrafficClass::Critical,
                priority: 1,
                // One causal chain per beacon sequence; the follower is
                // the span.
                trace: TraceCtx::new(seq + 1, follower),
            });
        }
    }
    let deliveries = chaos.run(sends, |_| Vec::new());
    let mut received: BTreeSet<u64> = BTreeSet::new();
    for d in &deliveries {
        received.insert(d.id);
    }

    // Per-follower, per-window beacon-loss ratio.
    let windows = cfg.horizon.as_nanos().div_ceil(cfg.window.as_nanos());
    let per_window = (cfg.window.as_nanos() / cfg.beacon_period.as_nanos()).max(1);
    let mut beacons_lost = 0u64;
    let mut loss_series: [Vec<(SimTime, f64)>; 2] = [Vec::new(), Vec::new()];
    for w in 0..windows {
        let w_end = SimTime::ZERO + cfg.window * (w + 1);
        for follower in 1..=2u64 {
            let mut lost = 0u64;
            let mut expected = 0u64;
            for k in 0..per_window {
                let seq = w * per_window + k;
                if seq >= beacons {
                    break;
                }
                expected += 1;
                if !received.contains(&beacon_id(follower, seq)) {
                    lost += 1;
                }
            }
            if expected == 0 {
                continue;
            }
            beacons_lost += lost;
            loss_series[(follower - 1) as usize].push((w_end, lost as f64 / expected as f64));
        }
    }

    // Radar model: each follower ranges the vehicle ahead every window;
    // the Gaussian error is what ACC must tolerate that CACC's V2X state
    // exchange avoids.
    let radar = GaussianNoise::centered(cfg.radar_sigma_m);
    let mut radar_rng = seeded_rng(split_seed(cfg.seed, 0xDA_DA));
    let mut radar_error = 0.0;
    let mut radar_samples = 0u64;
    for _ in 0..windows * 2 {
        radar_error += radar.sample(&mut radar_rng).abs();
        radar_samples += 1;
    }

    // Both rules over each follower's series, aggregated.
    let mut thr = None;
    let mut unc = None;
    for series in &loss_series {
        let boundary = cfg.loss_boundary;
        let mut thr_decide = |_: SimTime, loss: f64| {
            if loss >= boundary {
                ControlMode::Acc
            } else {
                ControlMode::Cacc
            }
        };
        let t = apply_rule(series, &mut thr_decide, outage_span, cfg.window);

        let mut estimator = BoundaryEstimator::new(boundary);
        if let Some(fr) = &flight {
            estimator.attach_flight_recorder(fr.clone());
        }
        let mut mode = ControlMode::Cacc;
        let clear = cfg.clear_confidence;
        let trip = cfg.trip_confidence;
        let mut unc_decide = |w_end: SimTime, loss: f64| {
            let est = estimator.ingest_traced(w_end, loss, TraceCtx::new(w_end.as_nanos(), 0));
            mode = match mode {
                // A totally silent window is the CACC timeout watchdog —
                // a hard signal, not a statistical question. The estimator
                // decides the ambiguous regime below it.
                ControlMode::Cacc if loss >= 1.0 => ControlMode::Acc,
                ControlMode::Cacc if est.exceeds_with_confidence(trip) => ControlMode::Acc,
                // Re-engage on belief hysteresis alone: the exceedance
                // must clear well below the trip gate, but waiting for the
                // regression band to also forget the outage samples would
                // hold the gap open for a full ring length. The stricter
                // band-tightening gate belongs to the in-vehicle
                // degradation ladder, not the CACC re-engage.
                ControlMode::Acc if est.converged && est.exceed <= clear => ControlMode::Cacc,
                m => m,
            };
            mode
        };
        let u = apply_rule(series, &mut unc_decide, outage_span, cfg.window);

        thr = Some(thr.map_or(t, |prev| merge(prev, t)));
        unc = Some(unc.map_or(u, |prev| merge(prev, u)));
    }

    PlatoonOutcome {
        beacons_per_follower: beacons,
        beacons_lost,
        windows,
        threshold: thr.expect("two followers"),
        uncertainty: unc.expect("two followers"),
        mean_radar_error_m: if radar_samples == 0 {
            0.0
        } else {
            radar_error / radar_samples as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platoon_is_deterministic() {
        let cfg = PlatoonConfig::new(0xCACC);
        let a = run_platoon(&cfg, None);
        let b = run_platoon(&cfg, None);
        assert_eq!(a.threshold, b.threshold);
        assert_eq!(a.uncertainty, b.uncertainty);
        assert_eq!(a.beacons_lost, b.beacons_lost);
    }

    #[test]
    fn outage_forces_fallback_and_recovery() {
        let cfg = PlatoonConfig::new(0xCACC);
        let o = run_platoon(&cfg, None);
        assert!(o.beacons_lost > 0, "outage must cost beacons");
        for (name, s) in [("threshold", o.threshold), ("uncertainty", o.uncertainty)] {
            assert!(s.fallbacks >= 2, "{name}: both followers must fall back");
            assert!(
                s.fallback_latency.is_some(),
                "{name}: fallback latency must be measured"
            );
        }
    }

    #[test]
    fn estimator_switching_is_less_jumpy_on_a_noisy_link() {
        // Heavy channel noise, no outage: the point rule flaps into ACC on
        // every bad window; the estimator holds CACC.
        let mut cfg = PlatoonConfig::new(0xCACC);
        cfg.outage = false;
        cfg.noise_drop = 0.25;
        let o = run_platoon(&cfg, None);
        assert!(
            o.uncertainty.spurious_fallbacks < o.threshold.spurious_fallbacks,
            "uncertainty {} vs threshold {} spurious fallbacks",
            o.uncertainty.spurious_fallbacks,
            o.threshold.spurious_fallbacks
        );
        assert!(
            o.uncertainty.inefficient_windows <= o.threshold.inefficient_windows,
            "estimator must not spend more healthy time in ACC"
        );
    }

    #[test]
    fn uncertainty_fallback_is_not_late() {
        let cfg = PlatoonConfig::new(0xCACC);
        let o = run_platoon(&cfg, None);
        let (t, u) = (
            o.threshold.fallback_latency.expect("threshold falls back"),
            o.uncertainty
                .fallback_latency
                .expect("estimator falls back"),
        );
        // The outage is total (loss ratio 1.0): the silence watchdog must
        // fall back in the same window as the point rule — statistical
        // caution is not allowed to cost safety margin.
        assert!(u <= t, "uncertainty latency {u} worse than threshold {t}");
        assert_eq!(o.uncertainty.unsafe_windows, o.threshold.unsafe_windows);
    }

    #[test]
    fn mode_flips_are_flight_recorded() {
        let flight = Arc::new(FlightRecorder::new(256));
        flight.arm();
        let cfg = PlatoonConfig::new(0xCACC);
        run_platoon(&cfg, Some(flight.clone()));
        assert!(
            flight
                .events()
                .iter()
                .any(|e| e.stage == "monitor.uncertainty" && e.detail.contains("asserted")),
            "estimator crossings must land in the flight ring"
        );
    }
}
