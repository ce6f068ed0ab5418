//! Periodic-resource servers and compositional admission.
//!
//! To give non-deterministic applications CPU time without letting them
//! disturb deterministic ones (§3.1 "freedom of interference"), the platform
//! sandboxes NDA load in a *periodic server*: a budget of Θ time units
//! replenished every Π. The deterministic side sees the server as one more
//! periodic task of WCET Θ and period Π; the NDA side receives a guaranteed
//! *supply bound function* and can be admission-tested compositionally
//! against it (Shin & Lee's periodic resource model), which is the
//! "compositional analysis approach" admission control of \[6\] in the
//! paper's related work.

use crate::edf::demand_bound;
use crate::task::{TaskSet, TaskSpec};
use dynplat_common::time::SimDuration;
use dynplat_common::TaskId;

/// A periodic resource: `budget` units of CPU guaranteed every `period`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeriodicServer {
    /// Guaranteed execution budget per replenishment period.
    pub budget: SimDuration,
    /// Replenishment period.
    pub period: SimDuration,
}

impl PeriodicServer {
    /// Creates a server.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero or `budget > period`.
    pub fn new(budget: SimDuration, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "server period must be non-zero");
        assert!(budget <= period, "budget cannot exceed period");
        PeriodicServer { budget, period }
    }

    /// Fraction of the CPU this server reserves.
    pub fn bandwidth(self) -> f64 {
        self.budget.as_nanos() as f64 / self.period.as_nanos() as f64
    }

    /// The supply bound function: minimum CPU time guaranteed in *any*
    /// interval of length `t` (Shin & Lee, RTSS 2003).
    pub fn supply_bound(self, t: SimDuration) -> SimDuration {
        let theta = self.budget.as_nanos() as i128;
        let pi = self.period.as_nanos() as i128;
        let t = t.as_nanos() as i128;
        let blackout = pi - theta;
        if t <= blackout {
            return SimDuration::ZERO;
        }
        let y = (t - blackout) / pi;
        let supply = y * theta + 0.max(t - 2 * blackout - y * pi);
        SimDuration::from_nanos(supply.max(0) as u64)
    }

    /// The periodic task the *host* schedule must reserve for this server.
    pub fn as_host_task(self, id: TaskId, name: impl Into<String>) -> TaskSpec {
        TaskSpec::periodic(id, name, self.period, self.budget)
    }
}

/// Compositional admission of a child task set onto a periodic server.
#[derive(Clone, Debug)]
pub struct ServerAnalysis {
    server: PeriodicServer,
}

impl ServerAnalysis {
    /// Creates an analysis for `server`.
    pub fn new(server: PeriodicServer) -> Self {
        ServerAnalysis { server }
    }

    /// The analyzed server.
    pub fn server(&self) -> PeriodicServer {
        self.server
    }

    /// `true` if `child` (scheduled EDF inside the server) is guaranteed
    /// enough supply: `dbf(t) ≤ sbf(t)` at every absolute deadline up to
    /// the child hyperperiod plus one server period.
    pub fn admits(&self, child: &TaskSet) -> bool {
        if child.is_empty() {
            return true;
        }
        if child.utilization() > self.server.bandwidth() + 1e-12 {
            return false;
        }
        let horizon = child.hyperperiod() + self.server.period * 2;
        let mut points: Vec<SimDuration> = Vec::new();
        for task in child.tasks() {
            let mut d = task.deadline;
            while d <= horizon {
                points.push(d);
                d += task.period;
            }
        }
        points.sort();
        points.dedup();
        points
            .into_iter()
            .all(|t| demand_bound(child, t) <= self.server.supply_bound(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    #[test]
    fn supply_bound_shape() {
        let s = PeriodicServer::new(ms(2), ms(5));
        // Blackout: worst case 2*(Π−Θ) = 6 ms without supply... sbf(3)=0.
        assert_eq!(s.supply_bound(ms(3)), SimDuration::ZERO);
        assert_eq!(s.supply_bound(ms(5) - ms(2)), SimDuration::ZERO);
        // At t = Π - Θ + Π = 8 ms: one full budget guaranteed.
        assert_eq!(s.supply_bound(ms(8)), ms(2));
        // Long horizon: supply approaches bandwidth * t.
        let t = ms(1000);
        let sup = s.supply_bound(t);
        let expect = t.as_nanos() as f64 * s.bandwidth();
        assert!((sup.as_nanos() as f64 - expect).abs() / expect < 0.02);
    }

    #[test]
    fn supply_bound_is_monotone() {
        let s = PeriodicServer::new(ms(3), ms(10));
        let mut last = SimDuration::ZERO;
        for k in 0..200 {
            let sup = s.supply_bound(SimDuration::from_micros(k * 137));
            assert!(sup >= last);
            last = sup;
        }
    }

    #[test]
    fn admits_light_child_rejects_heavy() {
        let server = PeriodicServer::new(ms(4), ms(10)); // 40% bandwidth
        let analysis = ServerAnalysis::new(server);
        let light: TaskSet = [TaskSpec::periodic(TaskId(1), "l", ms(100), ms(10))]
            .into_iter()
            .collect();
        assert!(analysis.admits(&light));
        let heavy: TaskSet = [TaskSpec::periodic(TaskId(1), "h", ms(10), ms(5))]
            .into_iter()
            .collect();
        assert!(!analysis.admits(&heavy), "50% demand exceeds 40% bandwidth");
        // Bandwidth is necessary but not sufficient: tight deadline fails too.
        let tight: TaskSet =
            [TaskSpec::periodic(TaskId(1), "t", ms(100), ms(3)).with_deadline(ms(5))]
                .into_iter()
                .collect();
        assert!(
            !analysis.admits(&tight),
            "deadline shorter than worst-case blackout"
        );
    }

    #[test]
    fn empty_child_is_admitted() {
        let analysis = ServerAnalysis::new(PeriodicServer::new(ms(1), ms(10)));
        assert!(analysis.admits(&TaskSet::new()));
    }

    #[test]
    fn host_task_matches_reservation() {
        let s = PeriodicServer::new(ms(2), ms(8));
        let host = s.as_host_task(TaskId(99), "nda-server");
        assert_eq!(host.period, ms(8));
        assert_eq!(host.wcet, ms(2));
        assert!((s.bandwidth() - 0.25).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "budget cannot exceed period")]
    fn oversized_budget_panics() {
        PeriodicServer::new(ms(11), ms(10));
    }
}
