//! Fleet operations day-in-the-life: the backend side of the dynamic
//! platform.
//!
//! 1. build the reference vehicle network and measure its scheduling
//!    headroom (critical scaling factor — how much WCET uncertainty the
//!    configuration absorbs);
//! 2. watch a vehicle's monitoring telemetry drift toward its deadline and
//!    catch it *before* the first hard violation;
//! 3. roll the fix out at fleet scale through the staged update master:
//!    per-variant admission (flash, then configuration) with a rejection
//!    triage, canary wave and automatic halt if the fix misbehaves in the
//!    field, the waves read as an SLO burn-rate summary, and the worst
//!    completion latencies chased by exemplar trace id.
//!
//! Run with: `cargo run --example fleet_operations`

use dynplat::common::rng::seeded_rng;
use dynplat::common::time::SimDuration;
use dynplat::common::TaskId;
use dynplat::faults::FaultPlan;
use dynplat::fleet::{CampaignSpec, ImageSpec, Reject, UpdateMaster, VehicleVerdict};
use dynplat::hw::reference::{ecus, reference_vehicle};
use dynplat::monitor::anomaly::{DriftDetector, DriftVerdict};
use dynplat::obs::TraceCtx;
use dynplat::sched::sensitivity::critical_scaling_factor;
use dynplat::sched::task::{TaskSet, TaskSpec};
use dynplat_common::rng::Rng;
use std::collections::BTreeMap;

fn main() {
    // -- 1. configuration headroom -------------------------------------------
    let vehicle = reference_vehicle();
    let platform_a = vehicle.ecu(ecus::PLATFORM_A).expect("reference ECU");
    println!(
        "reference vehicle: {} ECUs, platform host = {}",
        vehicle.ecu_count(),
        platform_a
    );

    let deployed: TaskSet = [
        TaskSpec::periodic(
            TaskId(1),
            "lane-keep",
            SimDuration::from_millis(20),
            SimDuration::from_millis(4),
        ),
        TaskSpec::periodic(
            TaskId(2),
            "fusion",
            SimDuration::from_millis(33),
            SimDuration::from_millis(8),
        ),
        TaskSpec::periodic(
            TaskId(3),
            "planner",
            SimDuration::from_millis(100),
            SimDuration::from_millis(15),
        ),
    ]
    .into_iter()
    .collect();
    let headroom = critical_scaling_factor(&deployed, 0.01);
    println!(
        "deployed DA set on {}: U = {:.2}, critical scaling factor = {:.2}x",
        platform_a.name(),
        deployed.utilization(),
        headroom
    );

    // -- 2. drift detection on telemetry ---------------------------------------
    // lane-keep's responses creep up in the field (say, a map-data
    // regression); the drift detector warns while deadlines still hold.
    let deadline_ns = 20e6;
    let mut detector = DriftDetector::for_bound(deadline_ns);
    let mut rng = seeded_rng(5);
    let mut first_warning = None;
    let mut first_violation = None;
    for k in 0..4_000u64 {
        let creep = k as f64 * 4_000.0; // +4 us per activation
        let sample = 4e6 + creep + rng.gen_range(-2e5..2e5);
        if sample > deadline_ns && first_violation.is_none() {
            first_violation = Some(k);
        }
        if detector.ingest(sample) == DriftVerdict::Drifting && first_warning.is_none() {
            first_warning = Some(k);
        }
    }
    let warn = first_warning.expect("drift detected");
    println!(
        "\ntelemetry drift: warned at activation {warn}, first hard violation would be at {:?}",
        first_violation
    );
    assert!(first_violation.is_none_or(|v| warn < v));

    // -- 3. the fix ships as a staged fleet campaign ---------------------------
    // The sharded update master checks every vehicle's variant against the
    // image before offering it: A/B flash, then the configuration (the fix
    // needs a 64 MiB staged overlap, more than the low-end variant has
    // free). Admitted vehicles roll out in waves, and each wave promotes
    // only while the burn-rate gate stays under the verification error
    // budget.
    let plan = FaultPlan::quiet(23).with_message_faults(0.02, 0.05, 0.0);
    let spec = CampaignSpec {
        image: ImageSpec {
            staged_memory_kib: 64 * 1024,
            ..ImageSpec::standard()
        },
        ..CampaignSpec::standard(23, 20_000, plan)
    };
    let report = UpdateMaster::new(spec, 4).run();
    println!(
        "\nstaged rollout over {} vehicles ({} updated, halted: {}):",
        report.vehicles, report.totals.updated, report.halted
    );
    print!("{}", report.slo_summary());
    let mut triage: BTreeMap<Reject, u64> = BTreeMap::new();
    for o in &report.outcomes {
        if let VehicleVerdict::Rejected(reject) = o.verdict {
            *triage.entry(reject).or_default() += 1;
        }
    }
    println!("rejection triage:");
    for (reject, n) in triage {
        println!("  {n:5} × {reject:?}");
    }

    // The slowest end-to-end completions, each tagged with a trace id
    // derived from the vehicle id — the handle an operator would feed to
    // the flight recorder / Chrome-trace lookup to see *why* that vehicle
    // sat in the tail.
    let exemplars = dynplat::obs::global().exemplars("fleet.campaign.e2e_ns");
    for o in &report.outcomes {
        let e2e = o.completed.as_nanos().saturating_sub(o.started.as_nanos());
        exemplars.offer(e2e, TraceCtx::root(u64::from(o.vehicle.raw()) + 1));
    }
    println!("worst completion latencies (exemplar -> trace id):");
    for (metric, top) in dynplat::obs::global().exemplar_snapshot() {
        for e in top.iter().take(3) {
            println!(
                "  {metric}: {:6.1} s  trace {:#x}",
                e.value as f64 / 1e9,
                e.trace.trace_id
            );
        }
    }
}
