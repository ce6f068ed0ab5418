//! Cost/utilization Pareto archive.

use crate::objective::{Assignment, Objectives};

/// A feasible design point kept in the archive.
#[derive(Clone, Debug, PartialEq)]
pub struct ParetoPoint {
    /// The mapping.
    pub assignment: Assignment,
    /// Its objectives.
    pub objectives: Objectives,
}

/// `a` dominates `b` if it is no worse in both objectives and strictly
/// better in at least one (cost ↓, peak utilization ↓).
fn dominates(a: &Objectives, b: &Objectives) -> bool {
    let no_worse = a.used_cost <= b.used_cost && a.peak_utilization <= b.peak_utilization + 1e-12;
    let better = a.used_cost < b.used_cost || a.peak_utilization + 1e-12 < b.peak_utilization;
    no_worse && better
}

/// Archive of mutually non-dominated feasible designs.
#[derive(Clone, Debug, Default)]
pub struct ParetoArchive {
    points: Vec<ParetoPoint>,
}

impl ParetoArchive {
    /// Creates an empty archive.
    pub fn new() -> Self {
        ParetoArchive::default()
    }

    /// Offers a design point; infeasible and dominated points are refused.
    /// Returns whether the point was accepted.
    pub fn offer(&mut self, assignment: Assignment, objectives: Objectives) -> bool {
        if !objectives.is_feasible() {
            return false;
        }
        if self
            .points
            .iter()
            .any(|p| dominates(&p.objectives, &objectives) || p.objectives == objectives)
        {
            return false;
        }
        self.points
            .retain(|p| !dominates(&objectives, &p.objectives));
        self.points.push(ParetoPoint {
            assignment,
            objectives,
        });
        true
    }

    /// Archive contents.
    pub fn points(&self) -> &[ParetoPoint] {
        &self.points
    }

    /// Number of archived designs.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn obj(cost: u64, peak: f64) -> Objectives {
        Objectives {
            violations: 0,
            used_cost: cost,
            used_ecus: 1,
            peak_utilization: peak,
            mean_utilization: peak,
        }
    }

    #[test]
    fn archive_keeps_only_non_dominated() {
        let mut a = ParetoArchive::new();
        assert!(a.offer(BTreeMap::new(), obj(100, 0.5)));
        // Dominated (worse in both): refused.
        assert!(!a.offer(BTreeMap::new(), obj(120, 0.6)));
        // Trade-off point: accepted.
        assert!(a.offer(BTreeMap::new(), obj(80, 0.8)));
        assert_eq!(a.len(), 2);
        // Dominating point evicts both.
        assert!(a.offer(BTreeMap::new(), obj(70, 0.4)));
        assert_eq!(a.len(), 1);
        assert_eq!(a.points()[0].objectives.used_cost, 70);
    }

    #[test]
    fn infeasible_points_are_refused() {
        let mut a = ParetoArchive::new();
        let mut bad = obj(10, 0.1);
        bad.violations = 1;
        assert!(!a.offer(BTreeMap::new(), bad));
        assert!(a.is_empty());
    }

    #[test]
    fn duplicate_objectives_are_refused() {
        let mut a = ParetoArchive::new();
        assert!(a.offer(BTreeMap::new(), obj(100, 0.5)));
        assert!(!a.offer(BTreeMap::new(), obj(100, 0.5)));
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn mutual_non_domination_invariant() {
        let mut a = ParetoArchive::new();
        for (c, u) in [(100, 0.9), (90, 0.95), (110, 0.5), (50, 0.99), (105, 0.45)] {
            a.offer(BTreeMap::new(), obj(c, u));
        }
        for (i, p) in a.points().iter().enumerate() {
            for (j, q) in a.points().iter().enumerate() {
                if i != j {
                    assert!(
                        !dominates(&p.objectives, &q.objectives),
                        "{:?} dominates {:?}",
                        p.objectives,
                        q.objectives
                    );
                }
            }
        }
    }
}
