//! Trend-based anomaly detection.
//!
//! Hard threshold monitors ([`crate::task`]) fire only once a bound is
//! already violated. §3.4's promise that "faults can easily be detected,
//! the conditions leading to such faults recorded" also needs the *leading*
//! part: a detector that flags a metric drifting toward its bound before
//! the first hard violation. [`DriftDetector`] keeps exponentially weighted
//! moving estimates of mean and variance (EWMA/EWMV) and raises an anomaly
//! when a sample leaves the adaptive band, or when the mean itself crosses
//! a fixed fraction of the hard bound.

/// Verdict for one ingested sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriftVerdict {
    /// Within the adaptive band and below the warning line.
    Normal,
    /// Statistically surprising sample (outside `k · σ` of the EWMA).
    Outlier,
    /// The moving mean crossed the warning fraction of the hard bound —
    /// the metric is trending into its limit.
    Drifting,
}

/// Samples before the EWMA is considered converged: until then the
/// detector emits neither `Outlier` nor `Drifting` — an unconverged mean
/// crossing the warning line is an artifact of initialization, not a
/// trend, and a hard verdict off it would trigger spurious degradation.
const WARMUP_SAMPLES: u64 = 8;
/// EWMA smoothing factor.
const ALPHA: f64 = 0.1;
/// Band half-width in standard deviations.
const SIGMA_K: f64 = 3.0;
/// Fraction of the hard bound at which a drifting mean raises
/// [`DriftVerdict::Drifting`].
const WARN_FRACTION: f64 = 0.8;

/// EWMA/EWMV drift detector over a scalar metric (response time in
/// nanoseconds, memory in bytes, …).
#[derive(Clone, Debug)]
pub struct DriftDetector {
    hard_bound: f64,
    mean: f64,
    variance: f64,
    samples: u64,
    outliers: u64,
}

impl DriftDetector {
    /// A response-time detector for a metric whose hard limit is
    /// `hard_bound`: α = 0.1, 3σ band, warn at 80 % of the bound.
    ///
    /// # Panics
    ///
    /// Panics if `hard_bound` is not positive.
    pub fn for_bound(hard_bound: f64) -> Self {
        assert!(hard_bound > 0.0, "hard bound must be positive");
        DriftDetector {
            hard_bound,
            mean: 0.0,
            variance: 0.0,
            samples: 0,
            outliers: 0,
        }
    }

    /// Current moving standard deviation.
    pub fn sigma(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// Ingests one sample and classifies it.
    pub fn ingest(&mut self, sample: f64) -> DriftVerdict {
        self.samples += 1;
        if self.samples == 1 {
            self.mean = sample;
            self.variance = 0.0;
            return DriftVerdict::Normal;
        }
        let deviation = sample - self.mean;
        let sigma = self.sigma();
        // Warm-up: need a few samples before the band is meaningful. With
        // zero observed variance (a perfectly regular metric) any deviation
        // beyond float noise is anomalous — the band degenerates to a
        // relative epsilon instead of switching the check off.
        let band = (SIGMA_K * sigma).max(self.mean.abs() * 1e-9);
        let warmed_up = self.samples > WARMUP_SAMPLES;
        let is_outlier = warmed_up && deviation.abs() > band;
        // Update estimates (outliers included, with the same weight — a
        // persistent shift must eventually move the mean).
        self.mean += ALPHA * deviation;
        self.variance = (1.0 - ALPHA) * (self.variance + ALPHA * deviation * deviation);
        if warmed_up && self.mean > WARN_FRACTION * self.hard_bound {
            dynplat_obs::counter!("monitor.drift.drifting").inc();
            DriftVerdict::Drifting
        } else if is_outlier {
            self.outliers += 1;
            dynplat_obs::counter!("monitor.drift.outliers").inc();
            DriftVerdict::Outlier
        } else {
            DriftVerdict::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::rng::seeded_rng;
    use dynplat_common::rng::Rng;

    fn noisy(rng: &mut impl Rng, center: f64, spread: f64) -> f64 {
        center + rng.gen_range(-spread..spread)
    }

    #[test]
    fn stable_metric_stays_normal() {
        let mut d = DriftDetector::for_bound(10_000.0);
        let mut rng = seeded_rng(1);
        for _ in 0..500 {
            let v = d.ingest(noisy(&mut rng, 2_000.0, 100.0));
            assert_eq!(v, DriftVerdict::Normal);
        }
        assert!((d.mean - 2_000.0).abs() < 100.0);
    }

    #[test]
    fn single_spike_is_an_outlier_not_a_drift() {
        let mut d = DriftDetector::for_bound(10_000.0);
        let mut rng = seeded_rng(2);
        for _ in 0..100 {
            d.ingest(noisy(&mut rng, 2_000.0, 50.0));
        }
        assert_eq!(d.ingest(4_000.0), DriftVerdict::Outlier);
        // And the detector recovers.
        let v = d.ingest(noisy(&mut rng, 2_000.0, 50.0));
        assert_ne!(v, DriftVerdict::Drifting);
        assert_eq!(d.outliers, 1);
    }

    #[test]
    fn creeping_degradation_raises_drift_before_the_bound() {
        // Response time creeps from 2 ms toward the 10 ms bound; the
        // detector must warn before any sample actually violates it.
        let mut d = DriftDetector::for_bound(10_000.0);
        let mut rng = seeded_rng(3);
        let mut warned_at: Option<(u64, f64)> = None;
        for k in 0..1_000u64 {
            let center = 2_000.0 + k as f64 * 8.0; // +8 us per activation
            let sample = noisy(&mut rng, center, 100.0);
            if d.ingest(sample) == DriftVerdict::Drifting && warned_at.is_none() {
                warned_at = Some((k, sample));
            }
        }
        let (k, sample_at_warning) = warned_at.expect("drift must be detected");
        assert!(
            sample_at_warning < 10_000.0,
            "warning must precede the hard violation (sample {sample_at_warning})"
        );
        assert!(k > 100, "no premature warning while healthy");
    }

    #[test]
    fn zero_variance_series_flags_any_deviation() {
        // A deterministic platform produces byte-identical rounds; the
        // first divergence must register even though sigma is exactly 0.
        let mut d = DriftDetector::for_bound(100_000.0);
        for _ in 0..20 {
            assert_eq!(d.ingest(5_000.0), DriftVerdict::Normal);
        }
        assert_eq!(d.ingest(5_400.0), DriftVerdict::Outlier);
    }

    #[test]
    fn warm_up_produces_no_outliers() {
        let mut d = DriftDetector::for_bound(1_000.0);
        for v in [10.0, 500.0, 20.0, 300.0, 15.0] {
            assert_ne!(
                d.ingest(v),
                DriftVerdict::Outlier,
                "warm-up suppresses outliers"
            );
        }
    }

    #[test]
    fn estimates_track_shifted_load() {
        let mut d = DriftDetector::for_bound(100_000.0);
        let mut rng = seeded_rng(4);
        for _ in 0..200 {
            d.ingest(noisy(&mut rng, 1_000.0, 10.0));
        }
        for _ in 0..400 {
            d.ingest(noisy(&mut rng, 5_000.0, 10.0));
        }
        assert!(
            (d.mean - 5_000.0).abs() < 200.0,
            "mean tracked the shift: {}",
            d.mean
        );
    }

    #[test]
    fn warm_up_emits_no_hard_verdicts_off_an_unconverged_ewma() {
        // The first sample of this ramp already sits above the warning
        // line (80 % of the bound); before the fix the detector flagged
        // `Drifting` from sample 2 onward, purely off the unconverged
        // mean. Warm-up must hold all hard verdicts back.
        let mut d = DriftDetector::for_bound(1_000.0);
        for k in 0..WARMUP_SAMPLES {
            let v = d.ingest(850.0 + k as f64);
            assert_eq!(v, DriftVerdict::Normal, "sample {k} is inside warm-up");
        }
        // Once warmed up, the (still high) mean is a legitimate verdict.
        assert_eq!(d.ingest(860.0), DriftVerdict::Drifting);
    }

    #[test]
    fn ramp_verdict_sequence_is_pinned() {
        // Regression pin: a seeded ramp from a healthy level into the
        // bound must produce exactly Normal* (warm-up + healthy), then
        // Drifting once the EWMA crosses the warning line — never a hard
        // verdict inside the warm-up window.
        let mut d = DriftDetector::for_bound(10_000.0);
        let mut rng = seeded_rng(0xA);
        let mut verdicts = Vec::new();
        for k in 0..240u64 {
            let center = 7_500.0 + k as f64 * 8.0;
            verdicts.push(d.ingest(noisy(&mut rng, center, 50.0)));
        }
        let first_drift = verdicts
            .iter()
            .position(|v| *v == DriftVerdict::Drifting)
            .expect("ramp must eventually drift");
        assert!(
            first_drift as u64 >= WARMUP_SAMPLES,
            "hard verdict at sample {first_drift} is inside warm-up"
        );
        assert!(
            verdicts[..first_drift]
                .iter()
                .all(|v| *v == DriftVerdict::Normal),
            "no outliers expected on the smooth ramp before the warning"
        );
        assert!(
            verdicts[first_drift..]
                .iter()
                .all(|v| *v == DriftVerdict::Drifting),
            "once the mean is past the warning line the ramp keeps drifting"
        );
    }
}
