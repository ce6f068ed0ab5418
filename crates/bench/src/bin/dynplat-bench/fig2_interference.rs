//! E2 (Fig. 2): mixed-criticality freedom of interference on one ECU.
//!
//! Deterministic control tasks share a CPU with growing non-deterministic
//! load under four policies. Expected shape: the no-isolation FIFO baseline
//! misses DA deadlines as soon as NDA jobs are long; preemptive fixed
//! priority, the budget server and the time-triggered table keep the DA
//! miss rate at zero at any NDA load, with TT additionally minimizing DA
//! jitter; the platform still gives NDA work bounded throughput.

use dynplat_bench::{ms, Table};
use dynplat_common::time::SimDuration;
use dynplat_common::TaskId;
use dynplat_sched::server::PeriodicServer;
use dynplat_sched::simulate::{simulate_schedule, Policy, SchedSimConfig};
use dynplat_sched::task::{TaskSet, TaskSpec};
use dynplat_sched::tt;

fn da_tasks() -> Vec<TaskSpec> {
    vec![
        TaskSpec::periodic(
            TaskId(1),
            "ctrl-2ms",
            SimDuration::from_millis(2),
            SimDuration::from_micros(200),
        )
        .with_priority(0),
        TaskSpec::periodic(
            TaskId(2),
            "ctrl-10ms",
            SimDuration::from_millis(10),
            SimDuration::from_millis(1),
        )
        .with_priority(1),
        TaskSpec::periodic(
            TaskId(3),
            "adas-20ms",
            SimDuration::from_millis(20),
            SimDuration::from_micros(1500),
        )
        .with_priority(2),
    ]
}

fn set_with_nda(nda_wcet_ms: u64) -> TaskSet {
    let mut set: TaskSet = da_tasks().into_iter().collect();
    if nda_wcet_ms > 0 {
        set.push(
            TaskSpec::periodic(
                TaskId(50),
                "infotainment",
                SimDuration::from_millis(40),
                SimDuration::from_millis(nda_wcet_ms),
            )
            .with_priority(100)
            .non_deterministic(),
        );
    }
    set
}

pub fn run() {
    let cfg = SchedSimConfig {
        horizon: SimDuration::from_millis(2000),
        ..Default::default()
    };
    let da_only: TaskSet = da_tasks().into_iter().collect();
    let schedule = tt::synthesize(&da_only).expect("DA set synthesizes");

    let table = Table::new(
        "E2 / Fig.2 — DA deadline misses vs NDA load under four policies",
        &[
            "nda_wcet_ms",
            "nda_load",
            "policy",
            "da_miss_rate",
            "da_jitter_ms",
            "nda_completions",
        ],
    );
    for nda_ms in [0u64, 5, 10, 20, 30] {
        let set = set_with_nda(nda_ms);
        let nda_load = nda_ms as f64 / 40.0;
        let policies: Vec<(&str, Policy)> = vec![
            ("fifo-no-isolation", Policy::NonPreemptiveFifo),
            ("fixed-priority", Policy::FixedPriorityPreemptive),
            (
                "fp+server",
                Policy::FpWithServer(PeriodicServer::new(
                    SimDuration::from_millis(15),
                    SimDuration::from_millis(40),
                )),
            ),
            ("time-triggered", Policy::TimeTriggered(schedule.clone())),
        ];
        for (name, policy) in policies {
            let stats = simulate_schedule(&set, &policy, &cfg);
            table.row(&[
                nda_ms.to_string(),
                format!("{nda_load:.2}"),
                name.to_owned(),
                format!("{:.4}", stats.deterministic_miss_rate()),
                ms(stats.max_deterministic_jitter()),
                stats.non_deterministic_throughput().to_string(),
            ]);
        }
    }
}
