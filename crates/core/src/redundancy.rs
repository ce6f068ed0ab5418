//! Fail-operational redundancy (§3.3).
//!
//! "The fail-safe state of an autonomous vehicle is not necessarily a safe
//! shutdown. … the dynamic platform needs to support instantiating
//! applications multiple times. It might be necessary to install multiple
//! ECUs running the dynamic platform and synchronized applications across
//! these ECUs." — and the RACE-style master/slave execution of §5.3.
//!
//! A [`RedundancyGroup`] supervises the replicas of one application via
//! heartbeats: the master serves; when its heartbeats stop for
//! `tolerated_misses` periods, the next healthy replica is promoted. The
//! group tracks the control-output gap (time without a serving master), the
//! metric of experiment E6.

use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::InstanceId;
use std::collections::BTreeMap;
use std::fmt;

/// Role of one replica in the group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    /// Actively producing outputs.
    Master,
    /// Hot standby, state-synchronized.
    Slave,
    /// Declared dead after missed heartbeats.
    Failed,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Role::Master => write!(f, "master"),
            Role::Slave => write!(f, "slave"),
            Role::Failed => write!(f, "failed"),
        }
    }
}

/// Errors of redundancy management.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RedundancyError {
    /// The replica is not part of this group.
    UnknownReplica(InstanceId),
    /// All replicas have failed: the function is lost (the vehicle must
    /// degrade to its minimal-risk condition).
    AllReplicasFailed,
    /// A replica with this instance id is already registered.
    DuplicateReplica(InstanceId),
}

impl fmt::Display for RedundancyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RedundancyError::UnknownReplica(i) => write!(f, "unknown replica {i}"),
            RedundancyError::AllReplicasFailed => write!(f, "all replicas failed"),
            RedundancyError::DuplicateReplica(i) => write!(f, "replica {i} already registered"),
        }
    }
}

impl std::error::Error for RedundancyError {}

#[derive(Clone, Debug)]
struct Replica {
    role: Role,
    last_heartbeat: SimTime,
}

/// Heartbeat-supervised master/slave group for one application.
#[derive(Clone, Debug)]
pub struct RedundancyGroup {
    heartbeat_period: SimDuration,
    tolerated_misses: u32,
    replicas: BTreeMap<InstanceId, Replica>,
    /// Global time at which the current master was promoted.
    master_since: SimTime,
    /// Accumulated time without any master (the control-output gap).
    output_gap: SimDuration,
    /// Number of failovers performed.
    failovers: u32,
}

impl RedundancyGroup {
    /// Creates a group whose replicas' miss tolerance defaults to 2
    /// heartbeat periods.
    ///
    /// # Panics
    ///
    /// Panics if `heartbeat_period` is zero.
    pub fn new(heartbeat_period: SimDuration) -> Self {
        assert!(
            !heartbeat_period.is_zero(),
            "heartbeat period must be non-zero"
        );
        RedundancyGroup {
            heartbeat_period,
            tolerated_misses: 2,
            replicas: BTreeMap::new(),
            master_since: SimTime::ZERO,
            output_gap: SimDuration::ZERO,
            failovers: 0,
        }
    }

    /// Overrides the tolerated number of missed heartbeats before failover.
    ///
    /// # Panics
    ///
    /// Panics if `misses` is zero.
    pub fn with_tolerated_misses(mut self, misses: u32) -> Self {
        assert!(misses > 0, "must tolerate at least one miss");
        self.tolerated_misses = misses;
        self
    }

    /// Registers a replica; the first becomes master, later ones slaves.
    ///
    /// # Errors
    ///
    /// [`RedundancyError::DuplicateReplica`].
    pub fn register(
        &mut self,
        now: SimTime,
        instance: InstanceId,
    ) -> Result<Role, RedundancyError> {
        if self.replicas.contains_key(&instance) {
            return Err(RedundancyError::DuplicateReplica(instance));
        }
        let role = if self.master().is_none() {
            Role::Master
        } else {
            Role::Slave
        };
        if role == Role::Master {
            self.master_since = now;
        }
        self.replicas.insert(
            instance,
            Replica {
                role,
                last_heartbeat: now,
            },
        );
        Ok(role)
    }

    /// The current master, if any.
    pub fn master(&self) -> Option<InstanceId> {
        self.replicas
            .iter()
            .find(|(_, r)| r.role == Role::Master)
            .map(|(&i, _)| i)
    }

    /// Role of a replica.
    pub fn role_of(&self, instance: InstanceId) -> Option<Role> {
        self.replicas.get(&instance).map(|r| r.role)
    }

    /// Healthy replica count (master + slaves).
    pub fn healthy(&self) -> usize {
        self.replicas
            .values()
            .filter(|r| r.role != Role::Failed)
            .count()
    }

    /// Number of failovers so far.
    pub fn failovers(&self) -> u32 {
        self.failovers
    }

    /// Accumulated time without a serving master.
    pub fn output_gap(&self) -> SimDuration {
        self.output_gap
    }

    /// Records a heartbeat from `instance` at `now`.
    ///
    /// # Errors
    ///
    /// [`RedundancyError::UnknownReplica`].
    pub fn heartbeat(&mut self, now: SimTime, instance: InstanceId) -> Result<(), RedundancyError> {
        let r = self
            .replicas
            .get_mut(&instance)
            .ok_or(RedundancyError::UnknownReplica(instance))?;
        if r.role != Role::Failed {
            r.last_heartbeat = now;
        }
        Ok(())
    }

    /// Supervision tick: declares silent replicas failed and promotes a
    /// slave when the master is gone. Returns the newly promoted master, if
    /// a failover happened at this tick.
    ///
    /// # Errors
    ///
    /// [`RedundancyError::AllReplicasFailed`] when nothing is left to
    /// promote.
    pub fn supervise(&mut self, now: SimTime) -> Result<Option<InstanceId>, RedundancyError> {
        let deadline = self.heartbeat_period * u64::from(self.tolerated_misses);
        let mut master_lost_at: Option<SimTime> = None;
        for r in self.replicas.values_mut() {
            if r.role == Role::Failed {
                continue;
            }
            let silence = now.saturating_since(r.last_heartbeat);
            if silence > deadline {
                if r.role == Role::Master {
                    // The master actually died when its heartbeats stopped;
                    // we only *detect* it now.
                    master_lost_at = Some(r.last_heartbeat);
                }
                r.role = Role::Failed;
            }
        }
        if self.master().is_some() {
            return Ok(None);
        }
        self.promote_next(now, master_lost_at)
    }

    /// Promotes the lowest-id healthy slave (deterministic choice),
    /// charging the output gap from `master_lost_at` when known.
    fn promote_next(
        &mut self,
        now: SimTime,
        master_lost_at: Option<SimTime>,
    ) -> Result<Option<InstanceId>, RedundancyError> {
        let candidate = self
            .replicas
            .iter()
            .find(|(_, r)| r.role == Role::Slave)
            .map(|(&i, _)| i);
        match candidate {
            Some(next) => {
                if let Some(lost) = master_lost_at {
                    self.output_gap += now.saturating_since(lost);
                }
                self.replicas.get_mut(&next).expect("candidate exists").role = Role::Master;
                self.master_since = now;
                self.failovers += 1;
                dynplat_obs::counter!("core.redundancy.failovers").inc();
                Ok(Some(next))
            }
            None => Err(RedundancyError::AllReplicasFailed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn t(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    fn group_with_replicas(n: u64) -> RedundancyGroup {
        let mut g = RedundancyGroup::new(ms(10));
        for i in 0..n {
            g.register(t(0), InstanceId(i)).unwrap();
        }
        g
    }

    #[test]
    fn first_replica_is_master_rest_are_slaves() {
        let g = group_with_replicas(3);
        assert_eq!(g.master(), Some(InstanceId(0)));
        assert_eq!(g.role_of(InstanceId(1)), Some(Role::Slave));
        assert_eq!(g.role_of(InstanceId(2)), Some(Role::Slave));
        assert_eq!(g.healthy(), 3);
    }

    #[test]
    fn exactly_one_master_at_all_times() {
        let mut g = group_with_replicas(3);
        for step in 1..=20u64 {
            let now = t(step * 10);
            // All alive: heartbeats from everyone.
            for i in 0..3 {
                g.heartbeat(now, InstanceId(i)).unwrap();
            }
            g.supervise(now).unwrap();
            let masters = (0..3)
                .filter(|&i| g.role_of(InstanceId(i)) == Some(Role::Master))
                .count();
            assert_eq!(masters, 1);
        }
        assert_eq!(g.failovers(), 0);
    }

    #[test]
    fn silent_master_triggers_failover() {
        let mut g = group_with_replicas(2);
        // Slave keeps beating; master goes silent after t=0.
        for step in 1..=5u64 {
            let now = t(step * 10);
            g.heartbeat(now, InstanceId(1)).unwrap();
            let promoted = g.supervise(now).unwrap();
            if now <= t(20) {
                assert_eq!(promoted, None, "within tolerance at {now}");
            } else {
                // Detection at the first tick past 2 missed periods.
                assert_eq!(promoted, Some(InstanceId(1)));
                assert_eq!(g.master(), Some(InstanceId(1)));
                assert_eq!(g.failovers(), 1);
                // Gap counted from last heartbeat to detection.
                assert_eq!(g.output_gap(), now.saturating_since(t(0)));
                return;
            }
        }
        panic!("failover never happened");
    }

    #[test]
    fn all_replicas_failing_is_reported() {
        let mut g = group_with_replicas(2);
        let err = g.supervise(t(100)).unwrap_err();
        assert_eq!(err, RedundancyError::AllReplicasFailed);
    }

    #[test]
    fn failed_replicas_cannot_heartbeat_back_to_life() {
        let mut g = group_with_replicas(2);
        g.heartbeat(t(30), InstanceId(1)).unwrap();
        assert_eq!(g.supervise(t(30)).unwrap(), Some(InstanceId(1)));
        g.heartbeat(t(40), InstanceId(0)).unwrap();
        assert_eq!(g.role_of(InstanceId(0)), Some(Role::Failed));
    }

    #[test]
    fn duplicate_and_unknown_replicas_rejected() {
        let mut g = group_with_replicas(1);
        assert_eq!(
            g.register(t(0), InstanceId(0)),
            Err(RedundancyError::DuplicateReplica(InstanceId(0)))
        );
        assert_eq!(
            g.heartbeat(t(0), InstanceId(9)),
            Err(RedundancyError::UnknownReplica(InstanceId(9)))
        );
    }

    #[test]
    fn failover_latency_shrinks_with_faster_heartbeat() {
        // Detection bound = heartbeat period * tolerated misses; verify the
        // mechanism honors it for two configurations.
        for (period_ms, misses) in [(10u64, 2u32), (2, 2)] {
            let mut g = RedundancyGroup::new(ms(period_ms)).with_tolerated_misses(misses);
            g.register(t(0), InstanceId(0)).unwrap();
            g.register(t(0), InstanceId(1)).unwrap();
            // Master dies at t=0; slave beats every period; supervise at
            // every period boundary.
            let mut detected_at = None;
            for step in 1..=50 {
                let now = t(step * period_ms);
                g.heartbeat(now, InstanceId(1)).unwrap();
                if g.supervise(now).unwrap().is_some() {
                    detected_at = Some(now);
                    break;
                }
            }
            let bound = ms(period_ms) * u64::from(misses) + ms(period_ms);
            let detected = detected_at.expect("failover must happen");
            assert!(
                detected.saturating_since(t(0)) <= bound,
                "period {period_ms} ms: detected {detected} > bound {bound}"
            );
        }
    }
}
