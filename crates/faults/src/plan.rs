//! Declarative fault plans.
//!
//! A [`FaultPlan`] is the complete, seed-driven description of what a chaos
//! run does to the system: stochastic per-message perturbations (drop,
//! corrupt, duplicate, delay spikes) plus scheduled structural faults
//! (bus partitions, babbling idiots, ECU crashes and hangs, clock drift).
//! Plans are plain data — building one performs no injection; feed it to
//! [`crate::inject::ChaosFabric`] to act on a communication fabric.

use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{BusId, EcuId};
use std::fmt;

/// A bus that carries no traffic during a time window (harness break,
/// switch reboot, cable cut).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BusPartition {
    /// Partitioned bus.
    pub bus: BusId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

impl BusPartition {
    /// `true` while the partition is active.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A node flooding a bus with highest-priority traffic — the classic
/// babbling-idiot failure mode of shared automotive buses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BabblingIdiot {
    /// The misbehaving sender.
    pub src: EcuId,
    /// A reachable victim ECU the babble is addressed to (any peer on the
    /// shared segment works — the load is what matters).
    pub dst: EcuId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
    /// Inter-message gap of the flood.
    pub period: SimDuration,
    /// Payload bytes of each flood message.
    pub payload: usize,
}

/// A fail-stop ECU crash at a point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcuCrash {
    /// Crashing ECU.
    pub ecu: EcuId,
    /// Crash instant; the ECU neither sends nor receives from here on.
    pub at: SimTime,
}

/// A transient ECU hang: outgoing traffic freezes during the window and
/// flushes when it ends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcuHang {
    /// Hanging ECU.
    pub ecu: EcuId,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive); queued sends resume here.
    pub until: SimTime,
}

impl EcuHang {
    /// `true` while the hang is active.
    pub fn active_at(&self, t: SimTime) -> bool {
        self.from <= t && t < self.until
    }
}

/// A node clock running fast or slow against the fleet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockDrift {
    /// Drifting ECU.
    pub ecu: EcuId,
    /// Drift in parts per million; positive = the node's events happen
    /// late, negative = early.
    pub ppm: i64,
}

/// Errors of plan validation.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanError {
    /// A stochastic rate is outside `[0, 1]`.
    RateOutOfRange {
        /// Which rate.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A scheduled fault window is empty or inverted.
    EmptyWindow {
        /// Which fault.
        name: &'static str,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::RateOutOfRange { name, value } => {
                write!(f, "{name} = {value} is outside [0, 1]")
            }
            PlanError::EmptyWindow { name } => write!(f, "{name} window is empty"),
        }
    }
}

impl std::error::Error for PlanError {}

/// The complete description of one chaos run.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every stochastic decision derives from it.
    pub seed: u64,
    /// Probability that a message is silently dropped.
    pub drop_rate: f64,
    /// Probability that a message arrives with a failed integrity check
    /// (it still burns bus time).
    pub corrupt_rate: f64,
    /// Probability that a message is delivered twice.
    pub duplicate_rate: f64,
    /// Probability that a message's injection is delayed by a spike.
    pub delay_spike_rate: f64,
    /// Maximum spike magnitude; the actual spike is uniform in
    /// `(0, delay_spike]`.
    pub delay_spike: SimDuration,
    /// Scheduled bus partitions.
    pub partitions: Vec<BusPartition>,
    /// Scheduled babbling idiots.
    pub babblers: Vec<BabblingIdiot>,
    /// Scheduled fail-stop crashes.
    pub crashes: Vec<EcuCrash>,
    /// Scheduled transient hangs.
    pub hangs: Vec<EcuHang>,
    /// Permanent clock drifts.
    pub drifts: Vec<ClockDrift>,
}

impl FaultPlan {
    /// A plan that injects nothing (the control arm of a campaign).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_rate: 0.0,
            corrupt_rate: 0.0,
            duplicate_rate: 0.0,
            delay_spike_rate: 0.0,
            delay_spike: SimDuration::ZERO,
            partitions: Vec::new(),
            babblers: Vec::new(),
            crashes: Vec::new(),
            hangs: Vec::new(),
            drifts: Vec::new(),
        }
    }

    /// Sets the stochastic per-message rates (builder style).
    pub fn with_message_faults(mut self, drop: f64, corrupt: f64, duplicate: f64) -> Self {
        self.drop_rate = drop;
        self.corrupt_rate = corrupt;
        self.duplicate_rate = duplicate;
        self
    }

    /// Enables delay spikes (builder style).
    pub fn with_delay_spikes(mut self, rate: f64, magnitude: SimDuration) -> Self {
        self.delay_spike_rate = rate;
        self.delay_spike = magnitude;
        self
    }

    /// Schedules a bus partition (builder style).
    pub fn partition(mut self, bus: BusId, from: SimTime, until: SimTime) -> Self {
        self.partitions.push(BusPartition { bus, from, until });
        self
    }

    /// Schedules a babbling idiot (builder style).
    pub fn babble(mut self, babbler: BabblingIdiot) -> Self {
        self.babblers.push(babbler);
        self
    }

    /// Schedules a fail-stop crash (builder style).
    pub fn crash(mut self, ecu: EcuId, at: SimTime) -> Self {
        self.crashes.push(EcuCrash { ecu, at });
        self
    }

    /// Schedules a transient hang (builder style).
    pub fn hang(mut self, ecu: EcuId, from: SimTime, until: SimTime) -> Self {
        self.hangs.push(EcuHang { ecu, from, until });
        self
    }

    /// Adds a permanent clock drift (builder style).
    pub fn drift(mut self, ecu: EcuId, ppm: i64) -> Self {
        self.drifts.push(ClockDrift { ecu, ppm });
        self
    }

    /// Checks every rate and window.
    ///
    /// # Errors
    ///
    /// [`PlanError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), PlanError> {
        for (name, value) in [
            ("drop_rate", self.drop_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("duplicate_rate", self.duplicate_rate),
            ("delay_spike_rate", self.delay_spike_rate),
        ] {
            if !(0.0..=1.0).contains(&value) {
                return Err(PlanError::RateOutOfRange { name, value });
            }
        }
        for p in &self.partitions {
            if p.until <= p.from {
                return Err(PlanError::EmptyWindow { name: "partition" });
            }
        }
        for b in &self.babblers {
            if b.until <= b.from || b.period.is_zero() {
                return Err(PlanError::EmptyWindow { name: "babbler" });
            }
        }
        for h in &self.hangs {
            if h.until <= h.from {
                return Err(PlanError::EmptyWindow { name: "hang" });
            }
        }
        Ok(())
    }

    /// Earliest instant at or after `t` at which `bus` carries traffic
    /// again — `t` itself when no partition of `bus` is active. Chained or
    /// overlapping partition windows are skipped in one call, so download
    /// and retry models can ask "when may I transmit?" without scanning
    /// windows themselves.
    pub fn clear_of_partitions(&self, bus: BusId, t: SimTime) -> SimTime {
        let mut clear = t;
        // Windows may abut or overlap in any order; iterate to a fixpoint.
        // Each pass either leaves `clear` alone (done) or moves it strictly
        // forward past at least one window, so this terminates after at
        // most `partitions.len()` passes.
        loop {
            let mut moved = false;
            for p in &self.partitions {
                if p.bus == bus && p.active_at(clear) {
                    clear = p.until;
                    moved = true;
                }
            }
            if !moved {
                return clear;
            }
        }
    }

    /// The latest `until` among `bus`'s partitions ([`SimTime::ZERO`] when
    /// it has none). No partition of `bus` is active at or after it, so
    /// [`FaultPlan::clear_of_partitions`] returns its argument unchanged
    /// from there on: a model whose clock only grows may stop asking once
    /// it passes the horizon.
    pub fn partition_horizon(&self, bus: BusId) -> SimTime {
        self.partitions
            .iter()
            .filter(|p| p.bus == bus)
            .map(|p| p.until)
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn quiet_plan_is_quiet_and_valid() {
        let plan = FaultPlan::quiet(1);
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::quiet(7)
            .with_message_faults(0.1, 0.02, 0.05)
            .with_delay_spikes(0.05, SimDuration::from_millis(2))
            .partition(BusId(0), ms(100), ms(200))
            .crash(EcuId(2), ms(500))
            .hang(EcuId(1), ms(300), ms(350))
            .drift(EcuId(0), 150);
        assert!(plan.validate().is_ok());
        assert!(plan.partitions[0].active_at(ms(150)));
        assert!(!plan.partitions[0].active_at(ms(200)));
    }

    #[test]
    fn clear_of_partitions_skips_chained_windows() {
        let plan = FaultPlan::quiet(1)
            .partition(BusId(0), ms(100), ms(200))
            .partition(BusId(0), ms(200), ms(300)) // abuts the first
            .partition(BusId(0), ms(250), ms(400)) // overlaps the second
            .partition(BusId(1), ms(0), ms(1_000)); // other bus, ignored
        assert_eq!(plan.clear_of_partitions(BusId(0), ms(50)), ms(50));
        assert_eq!(plan.clear_of_partitions(BusId(0), ms(100)), ms(400));
        assert_eq!(plan.clear_of_partitions(BusId(0), ms(399)), ms(400));
        assert_eq!(plan.clear_of_partitions(BusId(0), ms(400)), ms(400));
        assert_eq!(plan.clear_of_partitions(BusId(2), ms(150)), ms(150));
    }

    #[test]
    fn nothing_is_partitioned_past_the_horizon() {
        let plan = FaultPlan::quiet(1)
            .partition(BusId(0), ms(250), ms(400))
            .partition(BusId(0), ms(100), ms(200))
            .partition(BusId(1), ms(0), ms(1_000));
        assert_eq!(plan.partition_horizon(BusId(0)), ms(400));
        assert_eq!(plan.partition_horizon(BusId(1)), ms(1_000));
        assert_eq!(plan.partition_horizon(BusId(2)), SimTime::ZERO);
        for t in (0..1_200).step_by(50).map(ms) {
            let past = t >= plan.partition_horizon(BusId(0));
            assert!(!past || plan.clear_of_partitions(BusId(0), t) == t);
        }
    }

    #[test]
    fn validation_catches_bad_fields() {
        let bad_rate = FaultPlan::quiet(1).with_message_faults(1.5, 0.0, 0.0);
        assert!(matches!(
            bad_rate.validate(),
            Err(PlanError::RateOutOfRange {
                name: "drop_rate",
                ..
            })
        ));
        let bad_window = FaultPlan::quiet(1).partition(BusId(0), ms(200), ms(100));
        assert!(matches!(
            bad_window.validate(),
            Err(PlanError::EmptyWindow { name: "partition" })
        ));
    }
}
