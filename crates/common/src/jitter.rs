//! Uncertainty models: execution-time jitter and imperfect clocks.
//!
//! The paper's central theme is *uncertainty management*: once applications
//! are added and updated dynamically, execution times, communication delays
//! and clock agreement can no longer be pinned down at design time. This
//! module provides the uncertainty sources every experiment injects:
//!
//! * [`ExecutionModel`] — stochastic execution times between a best-case and
//!   a worst-case bound;
//! * [`ClockModel`] — per-ECU clock offset and drift, used by the update
//!   experiments (§3.2) to show why a centrally synchronized version switch
//!   "requires high accuracy clock synchronization";
//! * [`GaussianNoise`] — additive measurement noise for workloads whose
//!   *signals* are uncertain, not just their timing (the V2X platoon's
//!   range and delay sensors).
//!
//! Each simulator in the workspace runs its own event loop and draws from
//! these models: the scheduler simulation in `dynplat-sched` samples
//! execution times, the update orchestration in `dynplat-core` drifts ECU
//! clocks, and the benchmarks add sensor noise.

use crate::rng::truncated_normal_factor;
use crate::rng::Rng;
use crate::time::{SimDuration, SimTime};

/// Stochastic execution-time model for a task.
///
/// Samples are drawn as `nominal * factor` where `factor` follows a
/// truncated normal around 1.0, clamped so results stay within
/// `[bcet, wcet]`.
///
/// # Examples
///
/// ```
/// use dynplat_common::time::SimDuration;
/// use dynplat_common::jitter::ExecutionModel;
///
/// let model = ExecutionModel::new(
///     SimDuration::from_micros(800),
///     SimDuration::from_micros(1000),
///     0.05,
/// );
/// let mut rng = dynplat_common::rng::seeded_rng(1);
/// let sample = model.sample(&mut rng);
/// assert!(sample >= SimDuration::from_micros(800));
/// assert!(sample <= SimDuration::from_micros(1000));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ExecutionModel {
    bcet: SimDuration,
    wcet: SimDuration,
    sigma: f64,
}

impl ExecutionModel {
    /// Creates a model with best-case `bcet`, worst-case `wcet` and relative
    /// standard deviation `sigma` (fraction of the nominal time).
    ///
    /// # Panics
    ///
    /// Panics if `bcet > wcet`, `wcet` is zero, or `sigma` is negative.
    pub fn new(bcet: SimDuration, wcet: SimDuration, sigma: f64) -> Self {
        assert!(bcet <= wcet, "bcet must not exceed wcet");
        assert!(!wcet.is_zero(), "wcet must be non-zero");
        assert!(sigma >= 0.0, "sigma must be non-negative");
        ExecutionModel { bcet, wcet, sigma }
    }

    /// Nominal (midpoint) execution time.
    pub fn nominal(self) -> SimDuration {
        (self.bcet + self.wcet) / 2
    }

    /// Draws one execution time, always within `[bcet, wcet]`.
    pub fn sample<R: Rng>(self, rng: &mut R) -> SimDuration {
        if self.bcet == self.wcet {
            return self.wcet;
        }
        let nominal = self.nominal();
        let min = self.bcet.as_nanos() as f64 / nominal.as_nanos() as f64;
        let max = self.wcet.as_nanos() as f64 / nominal.as_nanos() as f64;
        let factor = truncated_normal_factor(rng, self.sigma, min, max);
        nominal.mul_f64(factor)
    }
}

/// An imperfect per-ECU clock: `local = global * (1 + drift_ppm e-6) + offset`.
///
/// Offset may be negative (the clock runs behind). Drift accumulates with
/// elapsed global time, modeling crystal-oscillator tolerance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClockModel {
    offset_ns: i64,
    drift_ppm: f64,
}

impl ClockModel {
    /// A perfect clock (zero offset, zero drift).
    pub const PERFECT: ClockModel = ClockModel {
        offset_ns: 0,
        drift_ppm: 0.0,
    };

    /// Creates a clock with a fixed offset (ns, may be negative) and a drift
    /// rate in parts per million.
    pub fn new(offset_ns: i64, drift_ppm: f64) -> Self {
        ClockModel {
            offset_ns,
            drift_ppm,
        }
    }

    /// When, in global time, this clock shows `local_target`.
    ///
    /// This is the instant a "switch at local time T" command actually fires
    /// on an ECU with this clock — the quantity that makes centralized
    /// switch-over updates fragile (§3.2).
    pub fn global_time_showing(self, local_target: SimTime) -> SimTime {
        let l = local_target.as_nanos() as f64;
        let g = (l - self.offset_ns as f64) / (1.0 + self.drift_ppm * 1e-6);
        SimTime::from_nanos(g.max(0.0) as u64)
    }
}

/// Additive Gaussian measurement noise `mean + sigma · z`, with `z` drawn
/// by a Box–Muller transform from the seeded stream — the standard sensor
/// model for signal-level uncertainty (range radar, V2X age measurements).
/// Deterministic per seed, like every other model in this module.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GaussianNoise {
    mean: f64,
    sigma: f64,
}

impl GaussianNoise {
    /// Creates a noise source centered on `mean` with standard deviation
    /// `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        GaussianNoise { mean, sigma }
    }

    /// Zero-mean noise — the usual additive-disturbance form.
    pub fn centered(sigma: f64) -> Self {
        GaussianNoise::new(0.0, sigma)
    }

    /// Draws one sample.
    pub fn sample<R: Rng>(self, rng: &mut R) -> f64 {
        if self.sigma == 0.0 {
            return self.mean;
        }
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        self.mean + self.sigma * z
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded_rng;

    #[test]
    fn samples_respect_bounds() {
        let m = ExecutionModel::new(
            SimDuration::from_micros(500),
            SimDuration::from_micros(1500),
            0.3,
        );
        let mut rng = seeded_rng(4);
        for _ in 0..2000 {
            let s = m.sample(&mut rng);
            assert!(s >= m.bcet && s <= m.wcet);
        }
    }

    #[test]
    fn constant_model_never_varies() {
        let wcet = SimDuration::from_micros(100);
        let m = ExecutionModel::new(wcet, wcet, 0.0);
        let mut rng = seeded_rng(4);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_micros(100));
        }
    }

    #[test]
    #[should_panic(expected = "bcet must not exceed wcet")]
    fn inverted_bounds_panic() {
        ExecutionModel::new(
            SimDuration::from_micros(2),
            SimDuration::from_micros(1),
            0.1,
        );
    }

    #[test]
    fn perfect_clock_is_identity() {
        let t = SimTime::from_secs(100);
        assert_eq!(ClockModel::PERFECT.global_time_showing(t), t);
    }

    #[test]
    fn offset_shifts_local_time() {
        let c = ClockModel::new(1_000_000, 0.0); // +1 ms
        let t = SimTime::from_secs(1);
        assert_eq!(c.global_time_showing(t + SimDuration::from_millis(1)), t);
        // A reading the clock showed before global zero saturates there.
        assert_eq!(
            c.global_time_showing(SimTime::from_micros(500)),
            SimTime::ZERO
        );
    }

    #[test]
    fn drift_accumulates() {
        let c = ClockModel::new(0, 100.0); // 100 ppm fast
        let t = SimTime::from_secs(10);
        // 100 ppm over 10 s: the clock shows 10 s about 1 ms early.
        let early = t - c.global_time_showing(t);
        assert!(early >= SimDuration::from_micros(999) && early <= SimDuration::from_micros(1001));
    }

    #[test]
    fn gaussian_noise_recovers_its_moments() {
        let n = GaussianNoise::new(5.0, 0.5);
        let mut rng = seeded_rng(21);
        let samples: Vec<f64> = (0..5000).map(|_| n.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / samples.len() as f64;
        assert!((mean - 5.0).abs() < 0.05, "sample mean {mean}");
        assert!(
            (var.sqrt() - 0.5).abs() < 0.05,
            "sample sigma {}",
            var.sqrt()
        );
    }

    #[test]
    fn gaussian_noise_is_deterministic() {
        let n = GaussianNoise::centered(1.0);
        let a: Vec<f64> = {
            let mut rng = seeded_rng(7);
            (0..50).map(|_| n.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = seeded_rng(7);
            (0..50).map(|_| n.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
        let mut rng = seeded_rng(8);
        assert_eq!(GaussianNoise::new(3.0, 0.0).sample(&mut rng), 3.0);
    }
}
