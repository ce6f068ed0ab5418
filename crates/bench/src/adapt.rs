//! The E14 uncertainty-adaptation experiment core.
//!
//! E12/E13 established *that* the robustness substrate detects and survives
//! faults. E14 asks the question behind the paper's title: what does the
//! platform gain by managing **uncertainty** — adapting on distributions —
//! instead of comparing points against thresholds?
//!
//! One experiment point runs the E12 chaos workload at a configured
//! background noise level with an Ethernet partition injected over the E13
//! fault span (onset at ⅓ of the horizon, offset at ⅔). The campaign's
//! per-window fault-pressure series is then replayed through two
//! adaptation modes over the *same* degradation ladder:
//!
//! * **threshold** — the classic [`DegradationManager::observe`]: one
//!   window at or above the threshold descends the ladder;
//! * **uncertainty** — a [`BoundaryEstimator`] turns the series into
//!   boundary-exceedance probabilities and
//!   [`DegradationManager::observe_estimate`] descends only on confident
//!   exceedance, ascending when the belief has cleared *and* the band has
//!   tightened.
//!
//! Replaying one shared series keeps the comparison exact: both modes see
//! byte-identical inputs, so every divergence is attributable to the
//! adaptation rule alone. The metrics are the false-degradation rate
//! (descents charged to clean windows, per clean window) and the detection
//! latency (fault onset to the first window whose trip condition fires).

use crate::chaos::{run_campaign_traced, sweep_plan, CampaignConfig, WINDOW};
use crate::detect::{offset, onset};
use crate::Table;
use dynplat_comm::retry::RetryPolicy;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::BusId;
use dynplat_core::degradation::{DegradationManager, DEGRADED_THRESHOLD, TRIP_CONFIDENCE};
use dynplat_monitor::uncertainty::BoundaryEstimator;

/// One background-noise level of the E14 sweep.
#[derive(Clone, Copy, Debug)]
pub struct NoisePoint {
    /// Sweep label (`low` / `mid` / `high`).
    pub name: &'static str,
    /// Per-message drop rate of the background noise plan.
    pub drop_rate: f64,
}

/// The standard sweep: background loss from negligible to just under the
/// degradation threshold. At `high`, window-to-window sampling noise makes
/// individual windows cross the threshold regularly while the underlying
/// signal stays healthy — exactly the regime where a point comparison
/// false-trips and a distribution does not.
pub fn noise_points() -> Vec<NoisePoint> {
    vec![
        NoisePoint {
            name: "low",
            drop_rate: 0.01,
        },
        NoisePoint {
            name: "mid",
            drop_rate: 0.02,
        },
        NoisePoint {
            name: "high",
            // Every attempt's request AND response cross the chaos fabric
            // (and corrupted copies count as losses), so the effective
            // per-attempt loss is ≈2.5× the per-message drop rate: 0.035
            // keeps the clean mean pressure just under the 0.10 boundary.
            drop_rate: 0.035,
        },
    ]
}

/// What one adaptation mode did over one replayed pressure series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ModeStats {
    /// Ladder descents (transitions to a worse level).
    pub descents: u64,
    /// Descents charged to windows outside the injected fault span —
    /// adaptations the workload never asked for.
    pub false_descents: u64,
    /// Fault onset to the first fault-span window whose trip condition
    /// fired (`None` if the mode never detected the fault).
    pub detection_latency: Option<SimDuration>,
}

impl ModeStats {
    /// False descents per clean window.
    pub fn false_rate(&self, clean_windows: u64) -> f64 {
        if clean_windows == 0 {
            0.0
        } else {
            self.false_descents as f64 / clean_windows as f64
        }
    }
}

/// One sweep point: both modes over the same campaign.
#[derive(Clone, Debug)]
pub struct AdaptationResult {
    /// Noise label.
    pub noise: &'static str,
    /// Drop rate behind the label.
    pub drop_rate: f64,
    /// Windows replayed.
    pub windows: u64,
    /// Windows entirely outside the fault span.
    pub clean_windows: u64,
    /// Mean pressure over the clean windows (sweep sanity: must stay below
    /// the degradation threshold or the "false" in false-degradation is
    /// meaningless).
    pub mean_clean_pressure: f64,
    /// The point-threshold mode.
    pub threshold: ModeStats,
    /// The distribution mode.
    pub uncertainty: ModeStats,
}

impl AdaptationResult {
    /// Table row (stable formatting).
    pub fn row(&self) -> Vec<String> {
        let lat = |l: Option<SimDuration>| match l {
            Some(d) => format!("{:.1}", d.as_nanos() as f64 / 1e6),
            None => "-".to_owned(),
        };
        vec![
            self.noise.to_owned(),
            format!("{:.3}", self.drop_rate),
            format!("{:.4}", self.mean_clean_pressure),
            format!("{:.4}", self.threshold.false_rate(self.clean_windows)),
            format!("{:.4}", self.uncertainty.false_rate(self.clean_windows)),
            lat(self.threshold.detection_latency),
            lat(self.uncertainty.detection_latency),
            self.threshold.descents.to_string(),
            self.uncertainty.descents.to_string(),
        ]
    }

    /// Header matching [`AdaptationResult::row`].
    pub fn columns() -> [&'static str; 9] {
        [
            "noise",
            "drop_rate",
            "clean_pressure",
            "thr_false_rate",
            "unc_false_rate",
            "thr_detect_ms",
            "unc_detect_ms",
            "thr_descents",
            "unc_descents",
        ]
    }

    /// Prints this result as one row of `table`.
    pub fn print_row(&self, table: &Table) {
        table.row(&self.row());
    }

    /// One JSON object (hand-rolled like every snapshot in the workspace,
    /// schema `dynplat.e14.v1` fields).
    pub fn to_json(&self) -> String {
        let lat = |l: Option<SimDuration>| match l {
            Some(d) => format!("{}", d.as_nanos()),
            None => "null".to_owned(),
        };
        format!(
            concat!(
                "{{\"noise\":\"{}\",\"drop_rate\":{},\"windows\":{},",
                "\"clean_windows\":{},\"mean_clean_pressure\":{:.6},",
                "\"threshold\":{{\"descents\":{},\"false_descents\":{},\"detect_ns\":{}}},",
                "\"uncertainty\":{{\"descents\":{},\"false_descents\":{},\"detect_ns\":{}}}}}"
            ),
            self.noise,
            self.drop_rate,
            self.windows,
            self.clean_windows,
            self.mean_clean_pressure,
            self.threshold.descents,
            self.threshold.false_descents,
            lat(self.threshold.detection_latency),
            self.uncertainty.descents,
            self.uncertainty.false_descents,
            lat(self.uncertainty.detection_latency),
        )
    }
}

/// Serializes a whole sweep as a JSON document (schema `dynplat.e14.v1`).
pub fn sweep_to_json(seed: u64, results: &[AdaptationResult]) -> String {
    let rows: Vec<String> = results.iter().map(AdaptationResult::to_json).collect();
    format!(
        "{{\"schema\":\"dynplat.e14.v1\",\"seed\":{},\"points\":[{}]}}\n",
        seed,
        rows.join(",")
    )
}

/// Runs one E14 point: the E12 workload at `noise` background loss with an
/// Ethernet partition over the E13 fault span, replayed through both
/// adaptation modes.
///
/// # Panics
///
/// Panics if the horizon is too short to hold the fault span.
pub fn run_point(seed: u64, noise: NoisePoint, horizon: SimDuration) -> AdaptationResult {
    let from = onset(horizon);
    let until = offset(horizon);
    assert!(until > from, "horizon too short for a fault span");
    let plan = sweep_plan(seed, noise.drop_rate).partition(BusId(1), from, until);
    let mut cfg = CampaignConfig::new(seed, plan, RetryPolicy::standard(), "standard");
    cfg.horizon = horizon;
    let outcome = run_campaign_traced(&cfg, None);

    let boundary = DEGRADED_THRESHOLD;
    // A window is inside the fault span if its (exclusive-start, inclusive-
    // end] span intersects [from, until).
    let faulty = |w_end: SimTime| w_end > from && w_end - WINDOW < until;

    let mut clean_windows = 0u64;
    let mut clean_pressure = 0.0;
    for &(w_end, p) in &outcome.pressures {
        if !faulty(w_end) {
            clean_windows += 1;
            clean_pressure += p;
        }
    }

    // Threshold mode: the ladder as E12 runs it.
    let mut thr_ladder = DegradationManager::new();
    let mut thr = ModeStats {
        descents: 0,
        false_descents: 0,
        detection_latency: None,
    };
    let mut prev = thr_ladder.level();
    for &(w_end, p) in &outcome.pressures {
        if faulty(w_end) && thr.detection_latency.is_none() && p >= boundary {
            thr.detection_latency = Some(w_end.saturating_since(from));
        }
        if let Some(level) = thr_ladder.observe(w_end, p) {
            if level > prev {
                thr.descents += 1;
                if !faulty(w_end) {
                    thr.false_descents += 1;
                }
            }
            prev = level;
        }
    }

    // Uncertainty mode: same series, same ladder parameters, but the
    // estimator sits between the signal and the ladder.
    let mut unc_ladder = DegradationManager::new();
    let mut estimator = BoundaryEstimator::new(boundary);
    let mut unc = ModeStats {
        descents: 0,
        false_descents: 0,
        detection_latency: None,
    };
    let mut prev = unc_ladder.level();
    for &(w_end, p) in &outcome.pressures {
        let est = estimator.ingest(w_end, p);
        if faulty(w_end)
            && unc.detection_latency.is_none()
            && est.exceeds_with_confidence(TRIP_CONFIDENCE)
        {
            unc.detection_latency = Some(w_end.saturating_since(from));
        }
        if let Some(level) = unc_ladder.observe_estimate(w_end, &est) {
            if level > prev {
                unc.descents += 1;
                if !faulty(w_end) {
                    unc.false_descents += 1;
                }
            }
            prev = level;
        }
    }

    AdaptationResult {
        noise: noise.name,
        drop_rate: noise.drop_rate,
        windows: outcome.pressures.len() as u64,
        clean_windows,
        mean_clean_pressure: if clean_windows == 0 {
            0.0
        } else {
            clean_pressure / clean_windows as f64
        },
        threshold: thr,
        uncertainty: unc,
    }
}

/// Runs the full noise sweep.
pub fn run_sweep(seed: u64, horizon: SimDuration) -> Vec<AdaptationResult> {
    noise_points()
        .into_iter()
        .map(|n| run_point(seed, n, horizon))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xE14_5EED;

    #[test]
    fn sweep_is_deterministic() {
        let h = SimDuration::from_secs(3);
        let a: Vec<String> = run_sweep(SEED, h).iter().map(|r| r.to_json()).collect();
        let b: Vec<String> = run_sweep(SEED, h).iter().map(|r| r.to_json()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn clean_pressure_stays_below_the_boundary() {
        for r in run_sweep(SEED, SimDuration::from_secs(6)) {
            assert!(
                r.mean_clean_pressure < 0.10,
                "{}: clean mean {} not below the threshold — the sweep point \
                 is mis-calibrated",
                r.noise,
                r.mean_clean_pressure
            );
        }
    }

    #[test]
    fn both_modes_detect_the_partition() {
        for r in run_sweep(SEED, SimDuration::from_secs(6)) {
            assert!(
                r.threshold.detection_latency.is_some(),
                "{}: threshold mode missed the partition",
                r.noise
            );
            assert!(
                r.uncertainty.detection_latency.is_some(),
                "{}: uncertainty mode missed the partition",
                r.noise
            );
        }
    }

    #[test]
    fn uncertainty_mode_wins_on_false_degradations_at_noise() {
        // The acceptance criterion of E14: at mid and high noise the
        // distribution-driven ladder produces strictly fewer false
        // degradations at equal-or-better detection latency.
        for r in run_sweep(SEED, SimDuration::from_secs(6)) {
            if r.noise == "low" {
                continue;
            }
            assert!(
                r.uncertainty.false_descents < r.threshold.false_descents,
                "{}: uncertainty {} vs threshold {} false descents",
                r.noise,
                r.uncertainty.false_descents,
                r.threshold.false_descents
            );
            let (t, u) = (
                r.threshold
                    .detection_latency
                    .expect("threshold mode detects"),
                r.uncertainty
                    .detection_latency
                    .expect("uncertainty mode detects"),
            );
            assert!(
                u <= t,
                "{}: uncertainty latency {u} worse than threshold {t}",
                r.noise
            );
        }
    }
}
