//! E7 (§3.4): runtime monitoring — fault detection latency and
//! certification data-set aggregation over a simulated fleet. The
//! per-observation cost is the `monitor/observe_pair` row of `micro`.
//!
//! Expected shape: detection latency for period/deadline/memory violations
//! is a single observation; fleet aggregation yields response-time
//! quantile bounds usable for certification arguments.

use dynplat_bench::Table;
use dynplat_common::rng::seeded_rng;
use dynplat_common::rng::Rng;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{TaskId, VehicleId};
use dynplat_monitor::report::{CertificationDataSet, DiagnosticReport};
use dynplat_monitor::{FaultKind, FaultRecorder, MonitorSpec, TaskMonitor, TaskObservation};

pub fn run() {
    let spec = MonitorSpec::new(
        TaskId(1),
        SimDuration::from_millis(10),
        SimDuration::from_millis(10),
        1 << 20,
    );

    // -- detection latency per fault class ------------------------------------
    let table = Table::new(
        "E7b — fault detection latency (observations until detection)",
        &["fault", "observations_to_detect"],
    );
    // Period violation: detected on the first late activation.
    let mut m = TaskMonitor::new(spec.clone());
    let mut r = FaultRecorder::default();
    m.observe(TaskObservation::Activation(SimTime::ZERO), &mut r);
    m.observe(
        TaskObservation::Activation(SimTime::from_millis(25)),
        &mut r,
    );
    table.row(&["period_violation".into(), format!("{}", 1)]);
    assert_eq!(r.count(FaultKind::PeriodViolation), 1);
    // Deadline miss: first late completion.
    let mut m = TaskMonitor::new(spec.clone());
    let mut r = FaultRecorder::default();
    m.observe(
        TaskObservation::Completion {
            release: SimTime::ZERO,
            completion: SimTime::from_millis(30),
        },
        &mut r,
    );
    table.row(&["deadline_miss".into(), format!("{}", 1)]);
    assert_eq!(r.count(FaultKind::DeadlineMiss), 1);
    // Memory overrun: first overrunning sample.
    let mut m = TaskMonitor::new(spec.clone());
    let mut r = FaultRecorder::default();
    m.observe(TaskObservation::Memory(SimTime::ZERO, 2 << 20), &mut r);
    table.row(&["memory_overrun".into(), format!("{}", 1)]);
    assert_eq!(r.count(FaultKind::MemoryOverrun), 1);
    // Silence: bounded by the watchdog horizon (2 periods + tolerance).
    let mut m = TaskMonitor::new(spec);
    let mut r = FaultRecorder::default();
    m.observe(TaskObservation::Activation(SimTime::ZERO), &mut r);
    let mut checks = 0;
    let mut t = SimTime::ZERO;
    loop {
        t += SimDuration::from_millis(10);
        checks += 1;
        if !m.check_liveness(t, &mut r) {
            break;
        }
    }
    table.row(&["silence_watchdog".into(), format!("{checks}")]);

    // -- fleet certification data set ------------------------------------------
    let mut set = CertificationDataSet::new(SimDuration::from_micros(500));
    let mut rng = seeded_rng(11);
    let vehicles = 500u32;
    for v in 0..vehicles {
        let mut m = TaskMonitor::new(MonitorSpec::new(
            TaskId(1),
            SimDuration::from_millis(10),
            SimDuration::from_millis(10),
            1 << 20,
        ));
        let mut r = FaultRecorder::default();
        // Per-vehicle spread: some vehicles run hotter than others.
        let spread = 500 + u64::from(v % 50) * 120;
        for k in 0..100u64 {
            let rel = SimTime::from_millis(k * 10);
            let resp = SimDuration::from_micros(1_000 + rng.gen_range(0..spread));
            m.observe(TaskObservation::Activation(rel), &mut r);
            m.observe(
                TaskObservation::Completion {
                    release: rel,
                    completion: rel + resp,
                },
                &mut r,
            );
        }
        let report =
            DiagnosticReport::capture(VehicleId(v), SimTime::from_secs(1), &[&m], r.drain());
        set.ingest(&report);
    }
    let table = Table::new(
        "E7c — fleet certification data set (500 vehicles x 100 activations)",
        &["metric", "value"],
    );
    table.row(&[
        "total_activations".into(),
        set.activations(TaskId(1)).to_string(),
    ]);
    table.row(&["total_faults".into(), set.total_faults().to_string()]);
    for q in [0.5, 0.9, 0.99, 1.0] {
        let bound = set.response_bound(TaskId(1), q).expect("data present");
        table.row(&[format!("response_bound_q{q}"), format!("{bound}")]);
    }
}
