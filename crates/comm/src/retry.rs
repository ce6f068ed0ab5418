//! Client-side robustness: retry with capped exponential backoff and a
//! per-service circuit breaker.
//!
//! The dynamic platform promises to keep services usable while the network
//! underneath misbehaves (§3.3/§3.4). This module supplies the client half
//! of that promise: a [`RetryPolicy`] turns one logical request into a
//! bounded, deterministically jittered attempt schedule, and a
//! [`CircuitBreaker`] declares a provider dead after a run of consecutive
//! failed round trips, so the client can fail over.
//!
//! Everything is seed-driven: the same `(policy, seed)` pair always yields
//! the same backoff schedule, so chaos campaigns replay bit-identically.

use dynplat_common::rng::{seeded_rng, split_seed, Rng};
use dynplat_common::time::{SimDuration, SimTime};

/// Retry configuration for one logical request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Per-attempt response timeout.
    pub timeout: SimDuration,
    /// Total attempts, the first transmission included. `1` disables
    /// retries.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per further retry.
    pub base_backoff: SimDuration,
    /// Upper bound on any single backoff interval.
    pub max_backoff: SimDuration,
    /// Fraction of the (capped) backoff added as deterministic jitter in
    /// `[0, jitter_frac)`, de-synchronizing clients that fail together.
    pub jitter_frac: f64,
}

impl RetryPolicy {
    /// No retries: one attempt, fail on first timeout.
    pub fn none() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(10),
            max_attempts: 1,
            base_backoff: SimDuration::ZERO,
            max_backoff: SimDuration::ZERO,
            jitter_frac: 0.0,
        }
    }

    /// Sensible middle ground: three attempts, 5 ms base backoff capped at
    /// 40 ms, 25 % jitter.
    pub fn standard() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(10),
            max_attempts: 3,
            base_backoff: SimDuration::from_millis(5),
            max_backoff: SimDuration::from_millis(40),
            jitter_frac: 0.25,
        }
    }

    /// Fast, persistent retries for short-deadline traffic: five attempts,
    /// 2 ms base backoff capped at 16 ms.
    pub fn aggressive() -> Self {
        RetryPolicy {
            timeout: SimDuration::from_millis(5),
            max_attempts: 5,
            base_backoff: SimDuration::from_millis(2),
            max_backoff: SimDuration::from_millis(16),
            jitter_frac: 0.25,
        }
    }

    /// Backoff to wait before retry number `retry` (1-based), including
    /// the deterministic jitter derived from `seed`.
    pub fn backoff_before(&self, retry: u32, seed: u64) -> SimDuration {
        let exp = retry.saturating_sub(1).min(20);
        let uncapped = self.base_backoff * (1u64 << exp);
        let capped = uncapped.min(self.max_backoff);
        if self.jitter_frac <= 0.0 || capped.is_zero() {
            return capped;
        }
        let mut rng = seeded_rng(split_seed(seed, u64::from(retry)));
        let jitter = capped.as_secs_f64() * self.jitter_frac * rng.gen::<f64>();
        capped + SimDuration::from_secs_f64(jitter)
    }

    /// The full deterministic attempt schedule for one request sent at
    /// `t0`: when each attempt is transmitted and when it times out.
    pub fn schedule(&self, t0: SimTime, seed: u64) -> Vec<Attempt> {
        let mut attempts = Vec::with_capacity(self.max_attempts.max(1) as usize);
        let mut at = t0;
        for retry in 0..self.max_attempts.max(1) {
            if retry > 0 {
                at += self.backoff_before(retry, seed);
            }
            attempts.push(Attempt {
                number: retry + 1,
                send_at: at,
                deadline: at + self.timeout,
            });
            at += self.timeout;
        }
        attempts
    }
}

/// One planned transmission of a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attempt {
    /// Attempt number, 1-based.
    pub number: u32,
    /// Transmission time.
    pub send_at: SimTime,
    /// Latest useful response arrival; after this the attempt counts as
    /// timed out.
    pub deadline: SimTime,
}

/// Consecutive-failure circuit breaker for one (client, service) edge: it
/// trips after `failure_threshold` failed round trips in a row, and a trip
/// starts the count afresh.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    consecutive_failures: u32,
}

impl CircuitBreaker {
    /// Trips after `failure_threshold` consecutive failures.
    ///
    /// # Panics
    ///
    /// Panics if `failure_threshold` is zero.
    pub fn new(failure_threshold: u32) -> Self {
        assert!(failure_threshold > 0, "failure threshold must be non-zero");
        CircuitBreaker {
            failure_threshold,
            consecutive_failures: 0,
        }
    }

    /// Reports a successful round trip: the failure count restarts.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
    }

    /// Reports a failed round trip (all retries exhausted). Returns `true`
    /// if this report tripped the breaker.
    pub fn on_failure(&mut self) -> bool {
        self.consecutive_failures += 1;
        if self.consecutive_failures < self.failure_threshold {
            return false;
        }
        self.consecutive_failures = 0;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let policy = RetryPolicy::standard();
        let a = policy.schedule(SimTime::ZERO, 42);
        let b = policy.schedule(SimTime::ZERO, 42);
        assert_eq!(a, b);
        let c = policy.schedule(SimTime::ZERO, 43);
        assert_ne!(a, c, "different seeds should jitter differently");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy {
            timeout: ms(10),
            max_attempts: 6,
            base_backoff: ms(5),
            max_backoff: ms(20),
            jitter_frac: 0.0,
        };
        assert_eq!(policy.backoff_before(1, 0), ms(5));
        assert_eq!(policy.backoff_before(2, 0), ms(10));
        assert_eq!(policy.backoff_before(3, 0), ms(20));
        assert_eq!(policy.backoff_before(4, 0), ms(20), "capped");
    }

    #[test]
    fn jitter_stays_within_fraction() {
        let policy = RetryPolicy::standard();
        for seed in 0..50u64 {
            let b = policy.backoff_before(1, seed);
            assert!(b >= policy.base_backoff);
            let limit = policy.base_backoff.as_secs_f64() * (1.0 + policy.jitter_frac);
            assert!(b.as_secs_f64() < limit + 1e-12, "jitter out of range: {b}");
        }
    }

    #[test]
    fn none_policy_is_a_single_attempt() {
        let attempts = RetryPolicy::none().schedule(SimTime::from_millis(3), 7);
        assert_eq!(attempts.len(), 1);
        assert_eq!(attempts[0].send_at, SimTime::from_millis(3));
    }

    #[test]
    fn attempts_are_ordered_and_timeout_spaced() {
        let policy = RetryPolicy::aggressive();
        let attempts = policy.schedule(SimTime::ZERO, 9);
        assert_eq!(attempts.len(), 5);
        for pair in attempts.windows(2) {
            assert!(
                pair[1].send_at >= pair[0].deadline,
                "retry before prior timeout"
            );
        }
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3);
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        b.on_success();
        assert!(!b.on_failure());
        assert!(!b.on_failure());
        assert!(b.on_failure(), "third failure in a row trips");
        assert!(!b.on_failure(), "a trip restarts the count");
        assert!(!b.on_failure());
        assert!(b.on_failure());
    }
}
