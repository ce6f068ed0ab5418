//! Shape guards: every qualitative claim EXPERIMENTS.md makes about the
//! paper's predictions is asserted here on scaled-down workloads, so a
//! regression that flips an experiment's outcome fails CI instead of
//! silently invalidating the write-up.

use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{AppId, EcuId, MessageId, TaskId};
use dynplat::dse::consolidate::{consolidated_architecture, federated_architecture};
use dynplat::dse::search::DseConfig;
use dynplat::net::ethernet::{ethernet_frame_time, FifoPort, StrictPriorityPort};
use dynplat::net::{simulate, Frame, GateControlList, TrafficClass, TsnGatedPort, TxEvent};
use dynplat::sched::server::PeriodicServer;
use dynplat::sched::simulate::{simulate_schedule, Policy, SchedSimConfig};
use dynplat::sched::task::{TaskSet, TaskSpec};
use dynplat::xil::control::VirtualControlUnit;
use dynplat::xil::harness::{cruise_suite, TestHarness};
use dynplat::xil::TestLevel;

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// E1: consolidation reduces ECU count and (at fleet scale) cost.
#[test]
fn e1_shape_consolidation_wins_at_scale() {
    let apps = dynplat_bench_functions(24);
    let (_, fed) = federated_architecture(&apps);
    let cfg = DseConfig {
        iterations: 600,
        seed: 7,
        ..Default::default()
    };
    let (_, _, cons) = consolidated_architecture(&apps, 3, &cfg);
    assert!(cons.feasible);
    assert!(cons.ecus < fed.ecus);
    assert!(cons.cost < fed.cost);
}

// A local copy of the bench workload generator (the bench crate is not a
// dependency of the facade).
fn dynplat_bench_functions(n: u32) -> Vec<dynplat::model::ir::AppModel> {
    use dynplat::common::{AppKind, Asil};
    (0..n)
        .map(|i| dynplat::model::ir::AppModel {
            id: AppId(i + 1),
            name: format!("fn{}", i + 1),
            kind: if i % 3 != 2 {
                AppKind::Deterministic
            } else {
                AppKind::NonDeterministic
            },
            asil: Asil::ALL[(i % 5) as usize],
            provides: vec![],
            consumes: vec![],
            period: ms(10 + u64::from(i % 4) * 10),
            work_mi: 0.5 + f64::from(i % 5) * 0.4,
            memory_kib: 128 + (i % 8) * 128,
            needs_gpu: false,
        })
        .collect()
}

/// E2: FIFO misses DA deadlines under NDA load; platform policies do not.
#[test]
fn e2_shape_isolation_protects_deterministic_apps() {
    let set: TaskSet = [
        TaskSpec::periodic(TaskId(1), "da", ms(10), ms(2)).with_priority(0),
        TaskSpec::periodic(TaskId(50), "nda", ms(40), ms(25))
            .with_priority(100)
            .non_deterministic(),
    ]
    .into_iter()
    .collect();
    let cfg = SchedSimConfig {
        horizon: ms(400),
        ..Default::default()
    };
    let fifo = simulate_schedule(&set, &Policy::NonPreemptiveFifo, &cfg);
    assert!(
        fifo.deterministic_miss_rate() > 0.1,
        "baseline must interfere"
    );
    for policy in [
        Policy::FixedPriorityPreemptive,
        Policy::FpWithServer(PeriodicServer::new(ms(5), ms(10))),
    ] {
        let stats = simulate_schedule(&set, &policy, &cfg);
        assert_eq!(stats.deterministic_miss_rate(), 0.0, "{policy:?}");
        assert!(
            stats.non_deterministic_throughput() > 0,
            "{policy:?} starves NDA"
        );
    }
}

/// E4: urgent-frame latency — FIFO grows with backlog, 802.1p bounded by
/// one frame, TSN load-independent.
#[test]
fn e4_shape_urgent_frame_isolation() {
    const MBIT100: u64 = 100_000_000;
    let scenario = |n: u64| -> Vec<TxEvent> {
        let mut events: Vec<TxEvent> = (0..n)
            .map(|i| TxEvent {
                arrival: SimTime::from_micros(i * 50),
                frame: Frame::new(MessageId(100 + i as u32), 1500).with_priority(6),
            })
            .collect();
        // Fixed phase within the 1 ms gating cycle so TSN latency depends
        // only on the gates, never on the backlog.
        let urgent_at = ((n * 25) / 1000 + 1) * 1000 + 10;
        events.push(TxEvent {
            arrival: SimTime::from_micros(urgent_at),
            frame: Frame::new(MessageId(1), 64)
                .with_priority(0)
                .with_class(TrafficClass::Critical),
        });
        events
    };
    let urgent = |done: Vec<dynplat::net::Transmission>| {
        done.into_iter()
            .find(|t| t.frame.id == MessageId(1))
            .expect("delivered")
            .latency()
    };

    let fifo_small = urgent(simulate(&mut FifoPort::new(MBIT100), scenario(50)));
    let fifo_large = urgent(simulate(&mut FifoPort::new(MBIT100), scenario(500)));
    assert!(
        fifo_large > fifo_small * 5,
        "FIFO latency grows with backlog"
    );

    let bound = ethernet_frame_time(1500, MBIT100) + ethernet_frame_time(64, MBIT100);
    let prio = urgent(simulate(
        &mut StrictPriorityPort::new(MBIT100),
        scenario(500),
    ));
    assert!(prio <= bound, "802.1p bounded by one frame of blocking");

    let gcl = GateControlList::mixed_criticality(ms(1), 0.3);
    let tsn_small = urgent(simulate(
        &mut TsnGatedPort::new(MBIT100, gcl.clone()),
        scenario(50),
    ));
    let tsn_large = urgent(simulate(
        &mut TsnGatedPort::new(MBIT100, gcl),
        scenario(500),
    ));
    assert_eq!(
        tsn_small, tsn_large,
        "TSN critical latency is load-independent"
    );
}

/// E5: staged update zero outage; stop-restart outage > 0 (already covered
/// in unit tests); the centralized-switch window scales with clock error.
#[test]
fn e5_shape_centralized_switch_window_scales() {
    use dynplat::core::update::centralized_switch_update;
    use dynplat::sim::jitter::ClockModel;
    use std::collections::BTreeMap;
    let window = |err_ms: i64| {
        let clocks: BTreeMap<EcuId, ClockModel> = [
            (EcuId(0), ClockModel::new(err_ms * 1_000_000, 0.0)),
            (EcuId(1), ClockModel::new(-err_ms * 1_000_000, 0.0)),
        ]
        .into_iter()
        .collect();
        centralized_switch_update(&clocks, SimTime::from_secs(10), false)
            .0
            .mixed_version_window
    };
    assert_eq!(window(0), SimDuration::ZERO);
    assert_eq!(window(5), ms(10));
    assert!(window(20) == ms(40) && window(20) > window(5));
}

/// E5d: admission rejects misconfigured vehicles before any flash, a
/// healthy image promotes every wave, and a broken one halts early enough
/// to strand most of the fleet.
#[test]
fn e5d_shape_fleet_campaign_rejects_then_halts() {
    use dynplat::fleet::{Reject, UpdateMaster, VehicleVerdict};
    use dynplat_bench::fleet::{e5d_spec, E5D_VEHICLES};
    use std::collections::BTreeSet;
    let run = |pct| UpdateMaster::new(e5d_spec(pct), 2).run();
    let fleet = u64::from(E5D_VEHICLES);
    for pct in [0, 2] {
        let report = run(pct);
        assert!(!report.halted, "{pct}%: a healthy image must not halt");
        assert_eq!(report.waves.len(), 3);
        assert!(report.waves.iter().all(|w| w.promoted));
        assert_eq!(report.skipped, 0);
        let rejects: BTreeSet<Reject> = report
            .outcomes
            .iter()
            .filter_map(|o| match o.verdict {
                VehicleVerdict::Rejected(reject) => Some(reject),
                _ => None,
            })
            .collect();
        assert!(!rejects.contains(&Reject::Flash));
        assert!(
            rejects.len() >= 2,
            "{pct}%: the mix must hit several configuration checks: {rejects:?}"
        );
    }
    // 40 %: the canary's gate trips and the rest of the fleet is never
    // offered the image.
    let report = run(40);
    assert!(report.halted);
    assert_eq!(report.waves.len(), 1, "40% must halt after the canary");
    assert!(report.skipped * 100 >= fleet * 95);
    // 10 %: the 200-vehicle canary is too small for the gate to be
    // confident at this rate on every seed, so the halt may come after the
    // ramp; the last 80 % of the fleet is never offered the image.
    let report = run(10);
    assert!(report.halted);
    assert!(
        report.waves.len() <= 2,
        "10% must halt before the last wave"
    );
    assert!(report.skipped * 100 >= fleet * 80);
}

/// E11: the same defect reproduces at the same step on every level, with
/// MiL ≪ SiL ≪ HiL wall clock.
#[test]
fn e11_shape_xil_cost_ordering() {
    let harness = TestHarness::new(VirtualControlUnit::cruise_control())
        .with_buggy_variant(VirtualControlUnit::cruise_control_buggy());
    let suite = cruise_suite();
    let mil = harness.run_suite(TestLevel::Mil, &suite);
    let sil = harness.run_suite(TestLevel::Sil, &suite);
    let hil = harness.run_suite(TestLevel::Hil, &suite);
    assert_eq!(mil.failures() + sil.failures() + hil.failures(), 0);
    assert!(mil.wall_clock < sil.wall_clock);
    assert!(sil.wall_clock < hil.wall_clock);
    assert!(hil.wall_clock.as_nanos() > mil.wall_clock.as_nanos() * 50);
}

/// E10: the utilization-only admission test is unsound where the EDF test
/// is exact (constrained deadlines).
#[test]
fn e10_shape_admission_soundness_gap() {
    use dynplat::sched::admission::{AdmissionController, AdmissionTest};
    let a = TaskSpec::periodic(TaskId(1), "a", ms(4), ms(1)).with_deadline(ms(2));
    let b = TaskSpec::periodic(TaskId(2), "b", ms(4), ms(2)).with_deadline(ms(2));
    let mut naive =
        AdmissionController::with_test(AdmissionTest::UtilizationOnly { limit_milli: 1000 });
    assert!(naive.try_admit(a.clone()).unwrap().admitted);
    assert!(
        naive.try_admit(b.clone()).unwrap().admitted,
        "unsound admit"
    );
    assert!(!dynplat::sched::edf::is_edf_schedulable(naive.admitted()));
    let mut exact = AdmissionController::with_test(AdmissionTest::Edf);
    assert!(exact.try_admit(a).unwrap().admitted);
    assert!(!exact.try_admit(b).unwrap().admitted, "exact test rejects");
}

/// Gate-delay analysis bounds the TSN behavior the E3/E4 experiments rely on.
#[test]
fn tsn_gate_bound_consistency() {
    use dynplat::net::analysis::worst_case_gate_delay;
    const MBIT100: u64 = 100_000_000;
    let gcl = GateControlList::mixed_criticality(ms(1), 0.25);
    let tx = ethernet_frame_time(200, MBIT100);
    let bound = worst_case_gate_delay(&gcl, TrafficClass::Critical, tx).expect("fits");
    // Probe arrival phases on an idle port; waits never exceed the bound.
    for phase in (0..1000).step_by(13) {
        let mut port = TsnGatedPort::new(MBIT100, gcl.clone());
        let done = simulate(
            &mut port,
            vec![TxEvent {
                arrival: SimTime::from_micros(phase),
                frame: Frame::new(MessageId(1), 200)
                    .with_priority(0)
                    .with_class(TrafficClass::Critical),
            }],
        );
        let wait = done[0].latency().saturating_sub(tx);
        assert!(wait <= bound, "phase {phase}: {wait} > {bound}");
    }
}
