//! Confidence-interval estimation over monitored parameters.
//!
//! The hard-threshold monitors ([`crate::task`]) and the EWMA drift
//! detector ([`crate::anomaly`]) both react to *points*: one sample either
//! violates a bound or it does not. Uncertainty management (the paper's
//! title) needs the monitor to carry a *distribution* instead: how noisy is
//! the signal, how wide is the confidence band around its level, and how
//! probable is a violation of the operational boundary right now. This
//! module supplies that layer:
//!
//! * [`RollingRegression`] — an ordinary-least-squares fit over a bounded
//!   window of `(t, x)` samples, yielding a level prediction, its standard
//!   error, and a residual noise estimate;
//! * [`BoundaryEstimator`] — a boundary-aware estimator combining the
//!   regression band with a sequential log-likelihood-ratio accumulator,
//!   producing one [`UncertaintyEstimate`] per sample;
//! * [`normal_cdf`] — the deterministic Φ used for every exceedance
//!   probability (Abramowitz–Stegun erf, no libm dispersion).
//!
//! Everything is deterministic and allocation-free after construction, so
//! estimators can run inside seeded campaigns without perturbing replay.
//! Estimators are *off* the fabric hot path by design: they ingest
//! per-round or per-window aggregates, never per-message events.

use dynplat_common::time::SimTime;
use dynplat_common::uncertainty::UncertaintyEstimate;
use dynplat_obs::{FlightRecorder, TraceCtx};
use std::sync::Arc;

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf approximation
/// (|error| < 1.5e-7), fully deterministic across platforms.
pub fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    let signed = if x < 0.0 { -erf } else { erf };
    0.5 * (1.0 + signed)
}

/// Ordinary-least-squares regression `x = a + b·t` over a bounded ring of
/// the most recent samples.
///
/// Provides the predicted level at any time, the standard error of that
/// prediction (which grows under extrapolation), and the residual standard
/// deviation — the raw material of every confidence band.
#[derive(Clone, Debug)]
pub struct RollingRegression {
    window: usize,
    ring: Vec<(f64, f64)>,
    head: usize,
    total: u64,
}

impl RollingRegression {
    /// Creates a regression over the `window` most recent samples.
    ///
    /// # Panics
    ///
    /// Panics if `window < 3` (a line through fewer points has no residual).
    pub fn new(window: usize) -> Self {
        assert!(window >= 3, "regression window must hold >= 3 samples");
        RollingRegression {
            window,
            ring: Vec::with_capacity(window),
            head: 0,
            total: 0,
        }
    }

    /// Ingests one `(t, x)` sample, evicting the oldest when full.
    pub fn ingest(&mut self, t: SimTime, x: f64) {
        let ts = t.as_nanos() as f64 / 1e9;
        if self.ring.len() < self.window {
            self.ring.push((ts, x));
        } else {
            self.ring[self.head] = (ts, x);
            self.head = (self.head + 1) % self.window;
        }
        self.total += 1;
    }

    /// Samples currently inside the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` before the first sample.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples ingested over the estimator's lifetime.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The fitted line `(intercept, slope)` plus residual standard
    /// deviation, or `None` with fewer than 3 samples.
    pub fn fit(&self) -> Option<Fit> {
        let n = self.ring.len();
        if n < 3 {
            return None;
        }
        let nf = n as f64;
        let (mut st, mut sx) = (0.0, 0.0);
        for &(t, x) in &self.ring {
            st += t;
            sx += x;
        }
        let (tbar, xbar) = (st / nf, sx / nf);
        let (mut stt, mut stx) = (0.0, 0.0);
        for &(t, x) in &self.ring {
            stt += (t - tbar) * (t - tbar);
            stx += (t - tbar) * (x - xbar);
        }
        // Degenerate time spread (all samples at one instant): fall back to
        // a constant fit around the mean.
        let slope = if stt > 1e-18 { stx / stt } else { 0.0 };
        let intercept = xbar - slope * tbar;
        // Residual sum of squares from the residuals themselves — the
        // closed form `sse_mean - slope*stx` cancels catastrophically on
        // near-perfect fits and reports phantom noise.
        let mut sse = 0.0;
        for &(t, x) in &self.ring {
            let r = x - (intercept + slope * t);
            sse += r * r;
        }
        let sigma = (sse / (nf - 2.0)).sqrt();
        Some(Fit {
            intercept,
            slope,
            sigma,
            n,
            tbar,
            stt,
        })
    }

    /// Predicted level and standard error of the *mean* at `t`, or `None`
    /// while under-sampled. The standard error grows with distance from the
    /// window's center of mass — extrapolation is penalized.
    pub fn predict(&self, t: SimTime) -> Option<(f64, f64)> {
        let fit = self.fit()?;
        let ts = t.as_nanos() as f64 / 1e9;
        let mean = fit.intercept + fit.slope * ts;
        let lever = if fit.stt > 1e-18 {
            (ts - fit.tbar) * (ts - fit.tbar) / fit.stt
        } else {
            0.0
        };
        let se = fit.sigma * (1.0 / fit.n as f64 + lever).sqrt();
        Some((mean, se))
    }
}

/// One least-squares fit: `x ≈ intercept + slope · t` with residual
/// standard deviation `sigma` over `n` samples.
#[derive(Clone, Copy, Debug)]
pub struct Fit {
    /// Level at `t = 0`.
    pub intercept: f64,
    /// Level change per second.
    pub slope: f64,
    /// Residual standard deviation around the fitted line.
    pub sigma: f64,
    /// Samples in the fit.
    pub n: usize,
    tbar: f64,
    stt: f64,
}

// The estimator's fixed tuning. The boundary is the only setting; every
// other parameter is either a sample count or scales with the boundary.

/// Rolling-regression window (samples).
const WINDOW: usize = 16;
/// Samples before the estimate reports `converged` — no consumer trips off
/// an unconverged estimate.
const MIN_SAMPLES: u64 = 5;
/// Warm-up widening constant `c`: bands are scaled by `sqrt(1 + c/n)`, so
/// early estimates are wide and tighten as evidence accumulates.
const WARMUP_WIDENING: f64 = 8.0;
/// Noise floor as a fraction of the boundary — keeps the band and the
/// likelihood ratio finite on zero-variance (perfectly regular) signals.
const SIGMA_FLOOR_FRAC: f64 = 0.02;
/// Clamp on the accumulated exceedance log-odds; bounds how much
/// quiet-time evidence a real fault must first overcome.
const MAX_LOG_ODDS: f64 = 6.0;
/// Per-sample clamp on the evidence step — one ambiguous sample can never
/// flip the belief on its own (robustness against heavy-tailed outliers
/// the Gaussian model does not cover).
const STEP_CAP: f64 = 2.5;
/// Evidence scale floor as a fraction of the boundary: exceedance z-scores
/// are measured against at least `REL_FLOOR · boundary`, so "how far past
/// the boundary" is always judged at boundary scale, however quiet the
/// healthy signal was.
const REL_FLOOR: f64 = 0.15;
/// Exceedance z at or above which a single sample is unambiguous and
/// saturates the belief immediately (the fast path for hard faults).
const SATURATION_Z: f64 = 6.0;
/// Confidence multiplier of the reported band (`z* = 1.96` ≈ 95 %).
const BAND_Z: f64 = 1.96;

/// Boundary-aware uncertainty estimator over one monitored parameter.
///
/// Per sample it maintains:
///
/// * a [`RollingRegression`] band around the signal level (noise →
///   regression bands, per Snippet 3's API set);
/// * a sequential exceedance accumulator: each sample contributes a
///   bounded log-odds step proportional to its exceedance z-score against
///   the boundary (a robust, deterministic SPRT-style test — the
///   probability that the boundary has been crossed, kept in odds space);
///   a sample whose exceedance is unambiguous (`z ≥ saturation_z`)
///   saturates the belief immediately, so hard faults are detected in the
///   very sample that carries them;
/// * the resulting [`UncertaintyEstimate`], whose `exceed` is the maximum
///   of the band-based tail probability and the accumulated sequential
///   evidence — the band term captures a drifted mean, the sequential term
///   captures a sudden excursion in the very sample that carries it.
///
/// Estimator state is exported through `monitor.uncertainty.*` gauges
/// (values in parts-per-million of the boundary) and, when a flight
/// recorder is attached, every exceedance-gate crossing lands in the
/// incident ring with the ingesting sample's [`TraceCtx`].
#[derive(Clone, Debug)]
pub struct BoundaryEstimator {
    boundary: f64,
    regression: RollingRegression,
    log_odds: f64,
    last: UncertaintyEstimate,
    flight: Option<Arc<FlightRecorder>>,
    /// Whether the previous estimate was past the ½ mark, for edge-triggered
    /// flight events.
    was_exceeding: bool,
}

impl BoundaryEstimator {
    /// Creates an estimator for a "badness" signal that must stay below
    /// `boundary`.
    ///
    /// # Panics
    ///
    /// Panics if `boundary` is not positive.
    pub fn new(boundary: f64) -> Self {
        assert!(boundary > 0.0, "operational boundary must be positive");
        BoundaryEstimator {
            boundary,
            regression: RollingRegression::new(WINDOW),
            log_odds: -MAX_LOG_ODDS,
            last: UncertaintyEstimate::unknown(SimTime::ZERO),
            flight: None,
            was_exceeding: false,
        }
    }

    /// Attaches a flight recorder: estimator gate crossings land in the
    /// event ring (stage `monitor.uncertainty`) with the crossing sample's
    /// trace context.
    pub fn attach_flight_recorder(&mut self, flight: Arc<FlightRecorder>) {
        self.flight = Some(flight);
    }

    /// Discards all accumulated evidence, returning the estimator to its
    /// just-constructed state (boundary and attached flight recorder are
    /// kept). Consumers that gate a *sequence* of independent episodes —
    /// e.g. an update master judging one rollout wave after another — reset
    /// between episodes so stale belief from a healthy wave cannot mask a
    /// broken one.
    pub fn reset(&mut self) {
        self.regression = RollingRegression::new(WINDOW);
        self.log_odds = -MAX_LOG_ODDS;
        self.last = UncertaintyEstimate::unknown(SimTime::ZERO);
        self.was_exceeding = false;
    }

    /// Ingests one sample without trace attribution.
    pub fn ingest(&mut self, now: SimTime, sample: f64) -> UncertaintyEstimate {
        self.ingest_traced(now, sample, TraceCtx::NONE)
    }

    /// Ingests one sample and returns the updated estimate; `ctx` is the
    /// causal context of whatever produced the sample (a control round, a
    /// V2X reception) and rides along into flight-recorder events.
    pub fn ingest_traced(
        &mut self,
        now: SimTime,
        sample: f64,
        ctx: TraceCtx,
    ) -> UncertaintyEstimate {
        let b = self.boundary;
        let floor = b * SIGMA_FLOOR_FRAC;
        // Healthy-noise estimate *before* this sample — the excursion the
        // sample may carry must not inflate its own evidence scale.
        let prior_sigma = self.regression.fit().map(|f| f.sigma);
        self.regression.ingest(now, sample);
        let n_window = self.regression.len() as f64;
        let n_total = self.regression.total();
        let widen = (1.0 + WARMUP_WIDENING / n_window).sqrt();

        let (mean, se, sigma) = match self.regression.predict(now) {
            Some((mean, se)) => {
                let sigma = self
                    .regression
                    .fit()
                    .map(|f| f.sigma)
                    .unwrap_or(0.0)
                    .max(floor);
                (mean, se.max(floor / n_window.sqrt()), sigma)
            }
            // Fewer than 3 samples: only the raw value, maximal width.
            None => (sample, b, b),
        };

        // Sequential exceedance evidence. Above the boundary the step is
        // the sample's exceedance z against max(healthy noise, boundary
        // scale), warm-up-widened; an unambiguous sample saturates the
        // belief outright. Below the boundary the step is judged at
        // boundary scale alone — a clearly-healthy sample is direct
        // evidence of non-exceedance no matter how wild the recent window
        // looked — so recovery is never hostage to fault-inflated noise.
        let rel = b * REL_FLOOR;
        if sample >= b {
            let scale = prior_sigma.unwrap_or(b).max(rel) * widen;
            let z = (sample - b) / scale;
            if z >= SATURATION_Z {
                self.log_odds = MAX_LOG_ODDS;
            } else {
                self.log_odds += z.min(STEP_CAP);
            }
        } else {
            self.log_odds += ((sample - b) / rel).max(-STEP_CAP);
        }
        self.log_odds = self.log_odds.clamp(-MAX_LOG_ODDS, MAX_LOG_ODDS);
        let p_seq = 1.0 / (1.0 + (-self.log_odds).exp());

        // Band exceedance: probability the *level* sits past the boundary,
        // from the regression's standard error, widened during warm-up.
        let band = BAND_Z * se * widen;
        let p_band = normal_cdf((mean - b) / (se * widen).max(floor / 10.0));

        let converged = n_total >= MIN_SAMPLES;
        let exceed = if converged { p_seq.max(p_band) } else { 0.5 };
        let est = UncertaintyEstimate {
            at: now,
            mean,
            sigma,
            band,
            exceed,
            samples: n_total,
            converged,
        };
        self.last = est;
        self.export_gauges(&est);
        self.flight_crossing(now, &est, ctx);
        est
    }

    /// Exports the estimator state as `monitor.uncertainty.*` gauges.
    /// Values are scaled to parts-per-million of the boundary (gauges are
    /// integers), except `exceed_ppm` which is ppm of probability 1.
    fn export_gauges(&self, est: &UncertaintyEstimate) {
        let b = self.boundary;
        let ppm = |v: f64| ((v / b) * 1e6) as i64;
        dynplat_obs::gauge!("monitor.uncertainty.mean_ppm").set(ppm(est.mean));
        dynplat_obs::gauge!("monitor.uncertainty.band_ppm").set(ppm(est.band));
        dynplat_obs::gauge!("monitor.uncertainty.sigma_ppm").set(ppm(est.sigma));
        dynplat_obs::gauge!("monitor.uncertainty.exceed_ppm").set((est.exceed * 1e6) as i64);
        dynplat_obs::gauge!("monitor.uncertainty.samples").set(est.samples as i64);
    }

    /// Edge-triggered flight events on the ½-probability crossing, both
    /// directions — the moments the belief flips are exactly what a
    /// post-mortem needs in the window.
    fn flight_crossing(&mut self, now: SimTime, est: &UncertaintyEstimate, ctx: TraceCtx) {
        let exceeding = est.converged && est.exceed > 0.5;
        if exceeding != self.was_exceeding {
            if let Some(fr) = &self.flight {
                fr.record(
                    now.as_nanos(),
                    ctx,
                    "monitor.uncertainty",
                    format!(
                        "exceedance {} (p {:.3}, mean {:.4}, band {:.4}, n {})",
                        if exceeding { "asserted" } else { "cleared" },
                        est.exceed,
                        est.mean,
                        est.band,
                        est.samples
                    ),
                );
            }
            dynplat_obs::counter!("monitor.uncertainty.crossings").inc();
        }
        self.was_exceeding = exceeding;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::rng::{seeded_rng, Rng};

    fn s(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn normal_cdf_matches_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((normal_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(normal_cdf(8.0) > 0.999_999);
        assert!(normal_cdf(-8.0) < 1e-6);
    }

    #[test]
    fn regression_recovers_a_clean_line() {
        let mut r = RollingRegression::new(16);
        for k in 0..16u64 {
            r.ingest(s(k * 100), 2.0 + 0.5 * (k as f64 * 0.1));
        }
        let fit = r.fit().unwrap();
        assert!((fit.slope - 0.5).abs() < 1e-9, "slope {}", fit.slope);
        assert!(fit.sigma < 1e-9);
        let (mean, se) = r.predict(s(1_500)).unwrap();
        assert!((mean - 2.75).abs() < 1e-9);
        assert!(se < 1e-9);
    }

    #[test]
    fn regression_window_forgets_old_samples() {
        let mut r = RollingRegression::new(8);
        for k in 0..8u64 {
            r.ingest(s(k * 100), 1.0);
        }
        for k in 8..16u64 {
            r.ingest(s(k * 100), 3.0);
        }
        let (mean, _) = r.predict(s(1_500)).unwrap();
        assert!((mean - 3.0).abs() < 1e-6, "window must purge the old level");
        assert_eq!(r.len(), 8);
        assert_eq!(r.total(), 16);
    }

    #[test]
    fn warm_up_is_unconverged_and_neutral() {
        let mut e = BoundaryEstimator::new(1.0);
        for k in 0..4u64 {
            let est = e.ingest(s(k * 100), 0.2);
            assert!(!est.converged, "sample {k} still warming up");
            assert_eq!(est.exceed, 0.5);
            assert!(!est.exceeds_with_confidence(0.9));
        }
        let est = e.ingest(s(400), 0.2);
        assert!(est.converged, "min_samples reached");
        assert!(est.exceed < 0.1, "quiet signal, low exceedance");
    }

    #[test]
    fn reset_replays_like_a_fresh_estimator() {
        let mut fresh = BoundaryEstimator::new(0.10);
        let mut reused = BoundaryEstimator::new(0.10);
        // Poison the reused estimator with a saturated fault episode.
        for k in 0..20u64 {
            reused.ingest(s(k * 100), 0.9);
        }
        assert!(reused.last.exceeds_with_confidence(0.9));
        reused.reset();
        assert_eq!(reused.last, UncertaintyEstimate::unknown(SimTime::ZERO));
        // The next episode must evolve exactly like a fresh estimator's.
        for k in 0..12u64 {
            let a = fresh.ingest(s(k * 250), 0.03);
            let b = reused.ingest(s(k * 250), 0.03);
            assert_eq!(a, b, "sample {k} diverged after reset");
        }
    }

    #[test]
    fn quiet_noise_never_trips_but_a_jump_trips_immediately() {
        let mut e = BoundaryEstimator::new(0.10);
        let mut rng = seeded_rng(0xE14);
        let mut t = 0u64;
        for _ in 0..60 {
            let x = 0.03 + rng.gen_range(-0.02..0.02);
            let est = e.ingest(s(t), x.max(0.0));
            assert!(
                !est.exceeds_with_confidence(0.9),
                "noise sample tripped at t={t}: {est:?}"
            );
            t += 250;
        }
        // The partition hits: the very first saturated sample must carry
        // enough evidence on its own.
        let est = e.ingest(s(t), 0.95);
        assert!(
            est.exceeds_with_confidence(0.9),
            "jump must trip in-sample: {est:?}"
        );
    }

    #[test]
    fn single_moderate_spike_is_absorbed() {
        let mut e = BoundaryEstimator::new(0.10);
        let mut t = 0u64;
        for _ in 0..40 {
            e.ingest(s(t), 0.04);
            t += 250;
        }
        let est = e.ingest(s(t), 0.13);
        assert!(
            !est.exceeds_with_confidence(0.9),
            "one spike is not a fault: {est:?}"
        );
        t += 250;
        let est = e.ingest(s(t), 0.04);
        assert!(est.exceed < 0.5, "belief must fall back after the spike");
    }

    #[test]
    fn persistent_drift_is_detected_before_the_boundary() {
        // The signal creeps toward the boundary; the band-based exceedance
        // must fire while samples are still below it.
        let mut e = BoundaryEstimator::new(0.10);
        let mut tripped_at: Option<f64> = None;
        let mut level = 0.02;
        let mut t = 0u64;
        while level < 0.15 {
            let est = e.ingest(s(t), level);
            if est.exceeds_with_confidence(0.9) && tripped_at.is_none() {
                tripped_at = Some(level);
            }
            level += 0.002;
            t += 250;
        }
        let at = tripped_at.expect("drift toward the boundary must trip");
        assert!(at < 0.13, "tripped only at {at}");
    }

    #[test]
    fn recovery_clears_and_band_tightens() {
        let mut e = BoundaryEstimator::new(0.10);
        let mut t = 0u64;
        for _ in 0..30 {
            e.ingest(s(t), 0.03);
            t += 250;
        }
        for _ in 0..10 {
            e.ingest(s(t), 0.9);
            t += 250;
        }
        assert!(e.last.exceed > 0.9);
        let band_during = e.last.band;
        for _ in 0..40 {
            e.ingest(s(t), 0.03);
            t += 250;
        }
        let est = e.last;
        assert!(
            est.exceed < 0.2,
            "belief must clear after recovery: {est:?}"
        );
        assert!(
            est.band < band_during,
            "band must tighten once the window is clean again"
        );
    }

    #[test]
    fn estimates_are_deterministic() {
        let run = || {
            let mut e = BoundaryEstimator::new(0.10);
            let mut rng = seeded_rng(77);
            let mut out = Vec::new();
            for k in 0..100u64 {
                let x: f64 = rng.gen_range(0.0..0.08);
                out.push(e.ingest(s(k * 250), x));
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn gate_crossings_land_in_the_flight_ring() {
        let flight = Arc::new(FlightRecorder::new(64));
        let mut e = BoundaryEstimator::new(0.10);
        e.attach_flight_recorder(flight.clone());
        let ctx = TraceCtx::new(0xBEEF, 1);
        flight.arm(); // recording only happens while enabled
        let mut t = 0u64;
        for _ in 0..20 {
            e.ingest_traced(s(t), 0.02, ctx);
            t += 250;
        }
        for _ in 0..3 {
            e.ingest_traced(s(t), 0.95, ctx);
            t += 250;
        }
        flight.arm();
        flight.trigger(SimTime::from_millis(t).as_nanos(), "test freeze");
        let dumps = flight.dumps();
        assert_eq!(dumps.len(), 1);
        let ev = dumps[0]
            .events
            .iter()
            .find(|e| e.stage == "monitor.uncertainty")
            .expect("crossing event recorded");
        assert!(ev.detail.contains("asserted"));
        assert_eq!(ev.trace.trace_id, 0xBEEF, "trace attribution rides along");
    }

    #[test]
    #[should_panic(expected = "operational boundary must be positive")]
    fn zero_boundary_panics() {
        BoundaryEstimator::new(0.0);
    }
}
