//! E11 (§2.4): XiL testing — the same regression suite and the same
//! injected defect at MiL, SiL and HiL.
//!
//! Expected shape: suite wall clock and error-reproduction time are
//! dominated by the level's execution factor and setup cost, so MiL/SiL are
//! one to two orders of magnitude cheaper than HiL (flash programming +
//! real time) — the paper's argument for shifting testing to earlier
//! stages; certification effort multiplies with ASIL.

use dynplat_bench::Table;
use dynplat_common::Asil;
use dynplat_xil::control::VirtualControlUnit;
use dynplat_xil::harness::{cruise_suite, FaultInjection, TestCase, TestHarness};
use dynplat_xil::TestLevel;

pub fn run() {
    let harness = TestHarness::new(VirtualControlUnit::cruise_control())
        .with_buggy_variant(VirtualControlUnit::cruise_control_buggy());
    let suite = cruise_suite();

    // -- regression suite cost per level ---------------------------------------
    let table = Table::new(
        "E11a — regression suite (4 cases) per level",
        &["level", "passed", "wall_clock_s", "speedup_vs_hil"],
    );
    let hil_cost = harness.run_suite(TestLevel::Hil, &suite).wall_clock;
    for level in TestLevel::ALL {
        let report = harness.run_suite(level, &suite);
        table.row(&[
            level.to_string(),
            format!(
                "{}/{}",
                report.outcomes.len() - report.failures(),
                report.outcomes.len()
            ),
            format!("{:.1}", report.wall_clock.as_secs_f64()),
            format!(
                "{:.1}x",
                hil_cost.as_secs_f64() / report.wall_clock.as_secs_f64()
            ),
        ]);
    }

    // -- error reproduction ------------------------------------------------------
    let table = Table::new(
        "E11b — reproducing an injected defect (10 debug iterations)",
        &["level", "single_repro_s", "ten_iterations_s"],
    );
    let case = TestCase::new("repro", 30.0, 10_000, 0.5);
    let injection = FaultInjection { at_step: 2_000 };
    for level in TestLevel::ALL {
        let (wall, _step) = harness
            .reproduce_error(level, &case, injection, 5.0)
            .expect("defect observable");
        table.row(&[
            level.to_string(),
            format!("{:.1}", wall.as_secs_f64()),
            format!("{:.1}", wall.as_secs_f64() * 10.0),
        ]);
    }

    // -- certification effort by ASIL ----------------------------------------------
    let table = Table::new(
        "E11c — certification effort (suite at SiL, scaled by ASIL factor)",
        &["asil", "effort_s"],
    );
    for asil in Asil::ALL {
        let cost = harness.certification_cost(TestLevel::Sil, &suite, asil);
        table.row(&[asil.to_string(), format!("{:.1}", cost.as_secs_f64())]);
    }

    // -- coverage note ----------------------------------------------------------
    println!(
        "# coverage: MiL covers model only; SiL adds production software; HiL adds target hardware"
    );
}
