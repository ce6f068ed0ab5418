//! The shared vocabulary of uncertainty-aware adaptation.
//!
//! The paper's title promises uncertainty *management*, which needs more
//! than point signals: an adaptation consumer (the degradation ladder,
//! the SLO burn gate) must be able to ask not "what is the value?" but
//! "how sure are we, and how likely is a boundary violation?".
//! [`UncertaintyEstimate`] is the answer type the estimators in
//! `dynplat-monitor` produce and those consumers read. It lives here, in
//! the foundation crate, as plain data that any layer can pass around
//! without depending on the estimators.

use crate::time::SimTime;

/// One distribution-valued observation of a monitored parameter: the
/// estimator's belief about the signal at `at`, against one operational
/// boundary.
///
/// All fields are plain `f64` state so the estimate can cross crate
/// boundaries without dragging estimator internals along. Estimates are
/// deterministic functions of the ingested sample stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UncertaintyEstimate {
    /// When the estimate was produced.
    pub at: SimTime,
    /// Estimated signal level (regression prediction at `at`).
    pub mean: f64,
    /// Residual standard deviation of the fitted signal.
    pub sigma: f64,
    /// Half-width of the confidence band around `mean`, already widened
    /// for small sample counts (warm-up).
    pub band: f64,
    /// Probability that the monitored parameter currently exceeds its
    /// operational boundary, in `[0, 1]`.
    pub exceed: f64,
    /// Samples the estimator has ingested so far.
    pub samples: u64,
    /// `false` while the estimator is still warming up; consumers must not
    /// take irreversible decisions (trips, descents) off an unconverged
    /// estimate.
    pub converged: bool,
}

impl UncertaintyEstimate {
    /// A neutral, unconverged estimate: maximum ignorance about the
    /// monitored parameter. `exceed` is ½ — no evidence either way.
    pub fn unknown(at: SimTime) -> Self {
        UncertaintyEstimate {
            at,
            mean: 0.0,
            sigma: 0.0,
            band: f64::INFINITY,
            exceed: 0.5,
            samples: 0,
            converged: false,
        }
    }

    /// `true` once the estimate is converged *and* its exceedance
    /// probability clears `gate` — the standard trip condition shared by
    /// the degradation ladder and the SLO burn gate.
    ///
    /// # Panics
    ///
    /// Panics unless `gate` is in `[0, 1]`.
    pub fn exceeds_with_confidence(&self, gate: f64) -> bool {
        assert!((0.0..=1.0).contains(&gate), "confidence gate in [0, 1]");
        self.converged && self.exceed >= gate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_is_neutral_and_never_trips() {
        let e = UncertaintyEstimate::unknown(SimTime::ZERO);
        assert!(!e.converged);
        assert!(!e.exceeds_with_confidence(0.0));
        assert_eq!(e.exceed, 0.5);
        assert!(e.band.is_infinite());
    }

    #[test]
    fn band_edges_bracket_the_mean() {
        let e = UncertaintyEstimate {
            at: SimTime::ZERO,
            mean: 0.4,
            sigma: 0.05,
            band: 0.1,
            exceed: 0.97,
            samples: 50,
            converged: true,
        };
        assert!(e.exceeds_with_confidence(0.95));
        assert!(!e.exceeds_with_confidence(0.99));
    }

    #[test]
    #[should_panic(expected = "confidence gate in [0, 1]")]
    fn invalid_gate_panics() {
        let e = UncertaintyEstimate::unknown(SimTime::ZERO);
        e.exceeds_with_confidence(1.5);
    }
}
