//! Test harness, suites and fault injection across XiL levels.

use crate::control::VirtualControlUnit;
use crate::level::TestLevel;
use dynplat_common::time::SimDuration;
use dynplat_common::Asil;

/// One closed-loop test case: drive the unit to `setpoint` for `steps`
/// samples; pass when the final tracking error is within `tolerance`.
#[derive(Clone, Debug, PartialEq)]
pub struct TestCase {
    /// Name for reports.
    pub name: String,
    /// Commanded setpoint.
    pub setpoint: f64,
    /// Samples to run.
    pub steps: u32,
    /// Accepted final absolute error.
    pub tolerance: f64,
}

impl TestCase {
    /// Creates a test case.
    pub fn new(name: impl Into<String>, setpoint: f64, steps: u32, tolerance: f64) -> Self {
        TestCase {
            name: name.into(),
            setpoint,
            steps,
            tolerance,
        }
    }
}

/// Result of one test case.
#[derive(Clone, Debug, PartialEq)]
pub struct TestOutcome {
    /// Test name.
    pub name: String,
    /// Whether the pass criterion held.
    pub passed: bool,
    /// Final tracking error.
    pub final_error: f64,
    /// Samples executed (may stop early on divergence).
    pub executed_steps: u32,
}

/// Aggregated result of a suite run at one level.
#[derive(Clone, Debug, PartialEq)]
pub struct TestRunReport {
    /// Level the suite ran at.
    pub level: TestLevel,
    /// Per-case outcomes.
    pub outcomes: Vec<TestOutcome>,
    /// Modeled wall-clock cost of the whole run (setup + execution).
    pub wall_clock: SimDuration,
}

impl TestRunReport {
    /// Number of failed cases.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.passed).count()
    }
}

/// Fault injection request: flip the unit to its buggy variant from a given
/// sample onward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultInjection {
    /// Sample index at which the defect becomes active.
    pub at_step: u32,
}

/// The XiL harness: runs suites of closed-loop tests against a virtual
/// control unit at a chosen level, accounting modeled wall-clock costs.
#[derive(Clone, Debug)]
pub struct TestHarness {
    unit: VirtualControlUnit,
    buggy_unit: Option<VirtualControlUnit>,
}

impl TestHarness {
    /// Creates a harness over the unit under test.
    pub fn new(unit: VirtualControlUnit) -> Self {
        TestHarness {
            unit,
            buggy_unit: None,
        }
    }

    /// Configures the defective variant used by fault injection.
    pub fn with_buggy_variant(mut self, buggy: VirtualControlUnit) -> Self {
        self.buggy_unit = Some(buggy);
        self
    }

    /// Runs a suite at `level`.
    pub fn run_suite(&self, level: TestLevel, cases: &[TestCase]) -> TestRunReport {
        let mut outcomes = Vec::with_capacity(cases.len());
        let mut wall = level.setup_cost();
        for case in cases {
            let (outcome, steps) = self.run_case(case, None);
            wall += level.step_cost() * u64::from(steps);
            outcomes.push(outcome);
        }
        TestRunReport {
            level,
            outcomes,
            wall_clock: wall,
        }
    }

    /// Certification-style effort estimate: suite cost scaled by the
    /// ASIL-dependent test-effort factor (repeated runs, reviews,
    /// documentation — the "rigorous testing" of §1).
    pub fn certification_cost(
        &self,
        level: TestLevel,
        cases: &[TestCase],
        asil: Asil,
    ) -> SimDuration {
        let base = self.run_suite(level, cases).wall_clock;
        base.mul_f64(asil.test_effort_factor())
    }

    /// Reproduces an injected error at `level`: reruns the scenario with
    /// the buggy variant active from `injection.at_step`, stopping at the
    /// first sample whose tracking error exceeds `detect_threshold`.
    ///
    /// Returns the modeled wall clock to reproduce (setup + samples until
    /// detection) and the detection step, or `None` if the error never
    /// became observable within the scenario.
    ///
    /// # Panics
    ///
    /// Panics if no buggy variant is configured.
    pub fn reproduce_error(
        &self,
        level: TestLevel,
        case: &TestCase,
        injection: FaultInjection,
        detect_threshold: f64,
    ) -> Option<(SimDuration, u32)> {
        assert!(self.buggy_unit.is_some(), "no buggy variant configured");
        let (outcome, steps) = self.run_case_with_detection(case, injection, detect_threshold);
        let wall = level.setup_cost() + level.step_cost() * u64::from(steps);
        if outcome {
            Some((wall, steps))
        } else {
            None
        }
    }

    fn run_case(&self, case: &TestCase, injection: Option<FaultInjection>) -> (TestOutcome, u32) {
        let mut unit = self.unit.clone();
        unit.reset();
        let mut buggy = self.buggy_unit.clone();
        if let Some(b) = &mut buggy {
            b.reset();
        }
        let mut y = 0.0;
        let mut executed = 0;
        for step in 0..case.steps {
            let active: &mut VirtualControlUnit = match (&injection, &mut buggy) {
                (Some(inj), Some(b)) if step >= inj.at_step => {
                    // Carry over plant state at the injection point.
                    if step == inj.at_step {
                        b.plant = unit.plant.clone();
                        b.controller.reset();
                    }
                    b
                }
                _ => &mut unit,
            };
            y = active.step(case.setpoint);
            executed += 1;
            if !y.is_finite() || y.abs() > case.setpoint.abs() * 1e6 + 1e6 {
                break; // divergence: stop early
            }
        }
        let final_error = (y - case.setpoint).abs();
        (
            TestOutcome {
                name: case.name.clone(),
                passed: final_error <= case.tolerance && executed == case.steps,
                final_error,
                executed_steps: executed,
            },
            executed,
        )
    }

    fn run_case_with_detection(
        &self,
        case: &TestCase,
        injection: FaultInjection,
        detect_threshold: f64,
    ) -> (bool, u32) {
        let mut unit = self.unit.clone();
        unit.reset();
        let mut buggy = self.buggy_unit.clone().expect("checked by caller");
        buggy.reset();
        let mut executed = 0;
        for step in 0..case.steps {
            let y = if step >= injection.at_step {
                if step == injection.at_step {
                    buggy.plant = unit.plant.clone();
                }
                buggy.step(case.setpoint)
            } else {
                unit.step(case.setpoint)
            };
            executed += 1;
            if step > injection.at_step && (y - case.setpoint).abs() > detect_threshold {
                return (true, executed);
            }
            if !y.is_finite() {
                return (true, executed);
            }
        }
        (false, executed)
    }
}

/// A representative regression suite for the cruise-control unit.
pub fn cruise_suite() -> Vec<TestCase> {
    vec![
        TestCase::new("step-to-30", 30.0, 5_000, 0.5),
        TestCase::new("step-to-80", 80.0, 5_000, 1.0),
        TestCase::new("crawl-to-5", 5.0, 4_000, 0.25),
        TestCase::new("hold-zero", 0.0, 1_000, 0.1),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::VirtualControlUnit;

    fn harness() -> TestHarness {
        TestHarness::new(VirtualControlUnit::cruise_control())
            .with_buggy_variant(VirtualControlUnit::cruise_control_buggy())
    }

    #[test]
    fn tuned_unit_passes_the_suite_at_every_level() {
        let h = harness();
        for level in TestLevel::ALL {
            let report = h.run_suite(level, &cruise_suite());
            assert_eq!(report.failures(), 0, "{level}: {:?}", report.outcomes);
        }
    }

    #[test]
    fn suite_cost_orders_mil_sil_hil() {
        let h = harness();
        let suite = cruise_suite();
        let mil = h.run_suite(TestLevel::Mil, &suite).wall_clock;
        let sil = h.run_suite(TestLevel::Sil, &suite).wall_clock;
        let hil = h.run_suite(TestLevel::Hil, &suite).wall_clock;
        assert!(mil < sil && sil < hil);
        // HiL pays flash programming + real time: at least 10x SiL here.
        assert!(hil.as_nanos() > sil.as_nanos() * 5);
    }

    #[test]
    fn buggy_unit_fails_the_suite() {
        let h = TestHarness::new(VirtualControlUnit::cruise_control_buggy());
        let report = h.run_suite(TestLevel::Sil, &cruise_suite());
        assert!(report.failures() > 0);
    }

    #[test]
    fn error_reproduction_is_cheapest_at_mil() {
        let h = harness();
        let case = TestCase::new("repro", 30.0, 10_000, 0.5);
        let injection = FaultInjection { at_step: 2_000 };
        let mil = h
            .reproduce_error(TestLevel::Mil, &case, injection, 5.0)
            .unwrap();
        let hil = h
            .reproduce_error(TestLevel::Hil, &case, injection, 5.0)
            .unwrap();
        assert_eq!(mil.1, hil.1, "same defect, same detection step");
        assert!(mil.0 < hil.0 / 10, "MiL {} vs HiL {}", mil.0, hil.0);
    }

    #[test]
    fn unobservable_fault_reports_none() {
        let h = harness();
        // Injection after the scenario ends: never observable.
        let case = TestCase::new("late", 30.0, 100, 0.5);
        let injection = FaultInjection { at_step: 99 };
        assert!(h
            .reproduce_error(TestLevel::Mil, &case, injection, 1e9)
            .is_none());
    }

    #[test]
    fn certification_cost_scales_with_asil() {
        let h = harness();
        let suite = cruise_suite();
        let qm = h.certification_cost(TestLevel::Sil, &suite, Asil::Qm);
        let d = h.certification_cost(TestLevel::Sil, &suite, Asil::D);
        assert_eq!(d, qm.mul_f64(10.0));
    }

    #[test]
    fn fault_injection_inside_run_case_fails_test() {
        let h = harness();
        let case = TestCase::new("inj", 30.0, 6_000, 0.5);
        let (outcome, _) = h.run_case(&case, Some(FaultInjection { at_step: 1_000 }));
        assert!(!outcome.passed);
    }
}
