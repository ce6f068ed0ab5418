//! E10 (§2.3 + §3.1): design-space exploration quality, admission control
//! soundness, and the local-vs-cloud schedule management trade of \[21\].
//! The DSE runtimes are the `dse/*` rows of `micro`.
//!
//! Expected shape: greedy can be beaten on cost; simulated annealing
//! matches or beats random search at equal budget; the unsound
//! utilization-only admission test accepts task sets the exact test
//! rejects; incremental (local) synthesis has zero disturbance but fails on
//! fragmented schedules where cloud resynthesis succeeds at the price of
//! slot migrations and a network round trip.

use dynplat_bench::{ms, outln, vehicle_functions, Table};
use dynplat_common::time::SimDuration;
use dynplat_common::{EcuId, TaskId};
use dynplat_dse::search::{
    explore, greedy_first_fit, random_search, simulated_annealing, DseConfig,
};
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat_model::ir::{Deployment, MappingChoice, SystemModel};
use dynplat_sched::admission::{AdmissionController, AdmissionTest};
use dynplat_sched::manage::{ScheduleManager, SynthesisBackend};
use dynplat_sched::rta;
use dynplat_sched::task::{TaskSet, TaskSpec};

/// `n_apps` vehicle functions, each free to map onto any ECU of a
/// `pool`-sized domain-class pool on one gigabit backbone.
pub fn platform_model(n_apps: u32, pool: u16) -> SystemModel {
    let mut hardware = HwTopology::new();
    let ids: Vec<EcuId> = (0..pool).map(EcuId).collect();
    for &id in &ids {
        hardware
            .add_ecu(EcuSpec::of_class(
                id,
                format!("p{}", id.raw()),
                EcuClass::Domain,
            ))
            .expect("fresh");
    }
    hardware
        .add_bus(BusSpec::new(
            dynplat_common::BusId(0),
            "bb",
            BusKind::ethernet_1g(),
            ids.clone(),
        ))
        .expect("fresh");
    let applications = vehicle_functions(n_apps);
    let mut deployment = Deployment::default();
    for app in &applications {
        deployment
            .mapping
            .insert(app.id, MappingChoice::AnyOf(ids.clone()));
    }
    SystemModel {
        hardware,
        interfaces: vec![],
        applications,
        deployment,
    }
}

pub fn run() {
    // -- DSE quality -------------------------------------------------------------
    let table = Table::new(
        "E10a — DSE algorithms over growing architectures",
        &["apps", "algorithm", "feasible", "cost", "peak_U", "evals"],
    );
    for n in [10u32, 30, 60] {
        let model = platform_model(n, (n / 6).clamp(2, 10) as u16);
        let cfg = DseConfig {
            iterations: 1200,
            seed: 3,
            ..Default::default()
        };

        for (name, result) in [
            ("greedy", greedy_first_fit(&model)),
            ("random", random_search(&model, &cfg)),
            ("annealing", simulated_annealing(&model, &cfg)),
            ("annealing-x4", explore(&model, &cfg)),
        ] {
            let (_, obj) = result.best.expect("candidate exists");
            table.row(&[
                n.to_string(),
                name.to_owned(),
                obj.is_feasible().to_string(),
                obj.used_cost.to_string(),
                format!("{:.3}", obj.peak_utilization),
                result.evaluations.to_string(),
            ]);
        }
    }

    // -- admission soundness -------------------------------------------------------
    // Constrained-deadline sets: utilization-only admission is unsound.
    let table = Table::new(
        "E10b — admission tests on 200 random constrained-deadline task sets",
        &["test", "admitted_sets", "of_which_unschedulable"],
    );
    let mut rng = dynplat_common::rng::seeded_rng(17);
    use dynplat_common::rng::Rng;
    let mut results: Vec<(&str, u32, u32)> = vec![("utilization<=1", 0, 0), ("edf_exact", 0, 0)];
    for _ in 0..200 {
        let set: TaskSet = (0..4u32)
            .map(|i| {
                let period = SimDuration::from_millis(rng.gen_range(4u64..20));
                let wcet = SimDuration::from_millis(rng.gen_range(1u64..4)).min(period);
                let deadline = wcet.max(period / rng.gen_range(1u64..4));
                TaskSpec::periodic(TaskId(i), format!("t{i}"), period, wcet).with_deadline(deadline)
            })
            .collect();
        let truly_schedulable = dynplat_sched::edf::is_edf_schedulable(&set);
        for (idx, test) in [
            AdmissionTest::UtilizationOnly { limit_milli: 1000 },
            AdmissionTest::Edf,
        ]
        .into_iter()
        .enumerate()
        {
            let mut ctrl = AdmissionController::with_test(test);
            let all_admitted = set.tasks().iter().all(|t| {
                ctrl.try_admit(t.clone())
                    .map(|d| d.admitted)
                    .unwrap_or(false)
            });
            if all_admitted {
                results[idx].1 += 1;
                if !truly_schedulable {
                    results[idx].2 += 1;
                }
            }
        }
    }
    for (name, admitted, unsound) in results {
        table.row(&[name.to_owned(), admitted.to_string(), unsound.to_string()]);
    }

    // -- local vs cloud schedule management ([21]) -----------------------------------
    let table = Table::new(
        "E10c — schedule management: local incremental vs cloud resynthesis",
        &["scenario", "backend", "ok", "disturbance", "latency_ms"],
    );
    // Scenario A: plenty of slack — local insertion succeeds.
    let base: TaskSet = (0..4u32)
        .map(|i| {
            TaskSpec::periodic(
                TaskId(i),
                format!("t{i}"),
                SimDuration::from_millis(20),
                SimDuration::from_millis(1),
            )
        })
        .collect();
    let new_task = TaskSpec::periodic(
        TaskId(100),
        "added",
        SimDuration::from_millis(10),
        SimDuration::from_millis(1),
    );
    for backend in [
        SynthesisBackend::Local,
        SynthesisBackend::Cloud {
            round_trip: SimDuration::from_millis(120),
        },
    ] {
        let mut mgr = ScheduleManager::with_initial(base.clone()).expect("base synthesizes");
        match mgr.add_task(new_task.clone(), backend) {
            Ok(outcome) => table.row(&[
                "slack".into(),
                format!("{backend:?}"),
                "true".into(),
                outcome.disturbance.to_string(),
                ms(outcome.latency),
            ]),
            Err(e) => table.row(&[
                "slack".into(),
                format!("{backend:?}"),
                format!("false ({e})"),
                "-".into(),
                "-".into(),
            ]),
        }
    }
    // Scenario B: fragmented — local fails, mixed strategy falls back to cloud.
    let fragmented: TaskSet = [
        TaskSpec::periodic(
            TaskId(0),
            "a",
            SimDuration::from_millis(8),
            SimDuration::from_millis(3),
        ),
        TaskSpec::periodic(
            TaskId(1),
            "b",
            SimDuration::from_millis(8),
            SimDuration::from_millis(3),
        ),
    ]
    .into_iter()
    .collect();
    let tight = TaskSpec::periodic(
        TaskId(100),
        "tight",
        SimDuration::from_millis(4),
        SimDuration::from_millis(1),
    );
    let mut mgr = ScheduleManager::with_initial(fragmented).expect("synthesizes");
    let local_fails = mgr
        .add_task(tight.clone(), SynthesisBackend::Local)
        .is_err();
    let outcome = mgr
        .add_task_mixed(tight, SimDuration::from_millis(120))
        .expect("mixed strategy succeeds");
    table.row(&[
        "fragmented".into(),
        "Local".into(),
        format!("{}", !local_fails),
        "-".into(),
        "-".into(),
    ]);
    table.row(&[
        "fragmented".into(),
        format!("{:?}(fallback)", outcome.backend),
        "true".into(),
        outcome.disturbance.to_string(),
        ms(outcome.latency),
    ]);

    // Sanity: every schedule the manager holds is still analyzable.
    let dm = rta::assign_deadline_monotonic(mgr.tasks());
    outln!(
        "# post-update RTA schedulable: {}",
        rta::is_schedulable(&dm)
    );
}
