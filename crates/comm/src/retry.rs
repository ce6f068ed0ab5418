//! Client-side robustness: retry with capped exponential backoff and a
//! per-service circuit breaker.
//!
//! The dynamic platform promises to keep services usable while the network
//! underneath misbehaves (§3.3/§3.4). This module supplies the client half
//! of that promise: a [`RetryPolicy`] turns one logical request into a
//! bounded, deterministically jittered attempt schedule, and a
//! [`CircuitBreaker`] stops a client from hammering a provider that has
//! demonstrably failed, converting repeated timeouts into an immediate
//! local error until a cool-down elapses.
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

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::standard()
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

/// Circuit-breaker states, after the classic pattern.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BreakerState {
    /// Requests flow; failures are counted.
    #[default]
    Closed,
    /// Requests are rejected locally until the cool-down elapses.
    Open,
    /// One probe request is allowed through; its outcome decides.
    HalfOpen,
}

/// Failure-counting circuit breaker for one (client, service) edge.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    failure_threshold: u32,
    cooldown: SimDuration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
    trips: u64,
    half_open_probes: u64,
}

impl CircuitBreaker {
    /// Opens after `failure_threshold` consecutive failures; probes again
    /// after `cooldown`.
    ///
    /// # Panics
    ///
    /// Panics if `failure_threshold` is zero.
    pub fn new(failure_threshold: u32, cooldown: SimDuration) -> Self {
        assert!(failure_threshold > 0, "failure threshold must be non-zero");
        CircuitBreaker {
            failure_threshold,
            cooldown,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
            trips: 0,
            half_open_probes: 0,
        }
    }

    /// Current state, advancing Open → HalfOpen when the cool-down has
    /// elapsed at `now`. Each such advance admits exactly one probe and is
    /// counted (`comm.breaker.half_open_probes`).
    pub fn state(&mut self, now: SimTime) -> BreakerState {
        if self.state == BreakerState::Open && now >= self.opened_at + self.cooldown {
            self.state = BreakerState::HalfOpen;
            self.half_open_probes += 1;
            dynplat_obs::counter!("comm.breaker.half_open_probes").inc();
        }
        self.state
    }

    /// `true` if a request may be sent at `now`. In half-open state this
    /// admits the probe (further calls stay admitted until an outcome is
    /// reported).
    pub fn allows(&mut self, now: SimTime) -> bool {
        self.state(now) != BreakerState::Open
    }

    /// Reports a successful round trip: the circuit closes.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Reports a failed round trip (all retries exhausted). Returns `true`
    /// if this report tripped the circuit open.
    pub fn on_failure(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to open.
                self.state = BreakerState::Open;
                self.opened_at = now;
                self.trips += 1;
                true
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.failure_threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.trips += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }

    /// How often the circuit has tripped open.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Half-open probes admitted so far (one per Open → HalfOpen advance).
    pub fn probes(&self) -> u64 {
        self.half_open_probes
    }
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker::new(3, SimDuration::from_millis(100))
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
    fn breaker_trips_after_threshold_and_recovers() {
        let mut b = CircuitBreaker::new(3, ms(100));
        let t = SimTime::ZERO;
        assert!(b.allows(t));
        assert!(!b.on_failure(t));
        assert!(!b.on_failure(t));
        assert!(b.on_failure(t), "third failure trips");
        assert!(!b.allows(t + ms(50)), "open rejects");
        assert!(b.allows(t + ms(100)), "half-open admits a probe");
        assert_eq!(b.state(t + ms(100)), BreakerState::HalfOpen);
        b.on_success();
        assert_eq!(b.state(t + ms(100)), BreakerState::Closed);
        assert_eq!(b.trips(), 1);
    }

    #[test]
    fn half_open_probes_are_counted_per_recovery_cycle() {
        let mut b = CircuitBreaker::new(1, ms(100));
        assert_eq!(b.probes(), 0);
        b.on_failure(SimTime::ZERO);
        assert!(b.allows(SimTime::from_millis(100)), "probe 1 admitted");
        // Repeated state reads in half-open do not inflate the counter.
        assert!(b.allows(SimTime::from_millis(101)));
        assert_eq!(b.probes(), 1);
        assert!(b.on_failure(SimTime::from_millis(101)), "probe 1 fails");
        assert!(b.allows(SimTime::from_millis(201)), "probe 2 admitted");
        assert_eq!(b.probes(), 2);
        b.on_success();
        assert_eq!(b.state(SimTime::from_millis(202)), BreakerState::Closed);
        assert_eq!(b.probes(), 2, "closing does not probe");
    }

    #[test]
    fn failed_probe_reopens_immediately() {
        let mut b = CircuitBreaker::new(1, ms(100));
        b.on_failure(SimTime::ZERO);
        assert!(b.allows(SimTime::from_millis(100)));
        assert!(b.on_failure(SimTime::from_millis(100)));
        assert!(!b.allows(SimTime::from_millis(150)));
        assert!(b.allows(SimTime::from_millis(200)));
        assert_eq!(b.trips(), 2);
    }
}
