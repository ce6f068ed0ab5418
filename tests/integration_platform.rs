//! End-to-end integration: DSL model → verification → generated artifacts →
//! secured deployment on the dynamic platform → staged update → redundancy
//! → runtime monitoring. Exercises every crate of the workspace together.

use dynplat::common::ids::ServiceInstance;
use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{AppId, EcuId, EventGroupId, ServiceId, TaskId};
use dynplat::core::app::AppManifest;
use dynplat::core::redundancy::RedundancyGroup;
use dynplat::core::update::staged_update;
use dynplat::core::{DynamicPlatform, LifecycleState};
use dynplat::model::dsl::parse_model;
use dynplat::model::generate::{access_matrix, middleware_config, task_sets};
use dynplat::model::ir::SystemModel;
use dynplat::model::verify::verify;
use dynplat::monitor::{FaultKind, MonitorSpec, TaskMonitor, TaskObservation};
use dynplat::security::authz::Permission;
use dynplat::security::package::{KeyRegistry, SignedPackage, UpdatePackage, Version};
use dynplat::security::sign::KeyPair;
use std::collections::BTreeMap;

const VEHICLE: &str = r#"
system {
  hardware {
    ecu "gateway" { id 1 class domain }
    ecu "adas-a"  { id 2 class high }
    ecu "adas-b"  { id 3 class high }
    bus "eth0" { id 0 ethernet 1000000000 attach [1 2 3] }
  }
  interface "vehicle-state" {
    id 10 owner 1 version 1
    event "speed" { id 1 payload {speed_kmh: f64} latency 10ms critical }
  }
  application "state-server" {
    id 1 deterministic asil C provides [10] period 10ms work 2 memory 1024
  }
  application "lane-keep" {
    id 3 deterministic asil C consumes [10 event 1] period 20ms work 40 memory 65536
  }
  deployment {
    app 1 on 1
    app 3 on any [2 3]
  }
}
"#;

fn fixture() -> (SystemModel, BTreeMap<AppId, EcuId>) {
    let model = parse_model(VEHICLE).expect("model parses");
    let assignment: BTreeMap<AppId, EcuId> = [(AppId(1), EcuId(1)), (AppId(3), EcuId(2))]
        .into_iter()
        .collect();
    assert!(
        verify(&model, &assignment).is_empty(),
        "fixture model must verify"
    );
    (model, assignment)
}

fn build_platform(model: &SystemModel, authority: &KeyPair) -> DynamicPlatform {
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());
    let mut platform = DynamicPlatform::new(registry);
    for ecu in model.hardware.ecus() {
        platform.add_node(ecu.clone());
    }
    platform.set_access_matrix(access_matrix(model));
    platform
}

fn deploy_all(
    platform: &mut DynamicPlatform,
    model: &SystemModel,
    assignment: &BTreeMap<AppId, EcuId>,
    authority: &KeyPair,
) {
    for (k, app) in model.applications.iter().enumerate() {
        let package =
            UpdatePackage::new(app.id, Version::new(1, 0, 0), k as u64 + 1, vec![0xAA; 128]);
        let signed = SignedPackage::create(&package, authority);
        platform
            .deploy(SimTime::ZERO, assignment[&app.id], app.clone(), &signed)
            .unwrap_or_else(|e| panic!("deploy {} failed: {e}", app.name));
    }
}

#[test]
fn model_to_running_platform() {
    let (model, assignment) = fixture();
    let authority = KeyPair::from_seed(b"integration authority");
    let mut platform = build_platform(&model, &authority);
    deploy_all(&mut platform, &model, &assignment, &authority);

    // Offers and subscriptions materialized from the manifests.
    let now = SimTime::ZERO;
    assert_eq!(platform.directory().find(now, ServiceId(10)).len(), 1);
    let mut subs = Vec::new();
    platform.directory().for_each_subscriber(
        now,
        ServiceInstance::new(ServiceId(10), 0),
        EventGroupId(1),
        |s| subs.push(s.clone()),
    );
    assert_eq!(subs.len(), 1);
    assert_eq!(subs[0].subscriber, AppId(3));

    // The model-derived matrix authorizes exactly the declared binding.
    assert!(platform
        .bind(now, AppId(3), ServiceId(10), Permission::Subscribe)
        .is_ok());
    assert!(platform
        .bind(now, AppId(1), ServiceId(10), Permission::Subscribe)
        .is_err());

    // Generated task sets are schedulable and synthesizable per ECU.
    for (ecu, set) in task_sets(&model, &assignment) {
        let schedule = dynplat::sched::tt::synthesize(&set)
            .unwrap_or_else(|e| panic!("TT synthesis on {ecu}: {e}"));
        schedule.validate(&set).expect("schedule validates");
    }

    // Middleware config matches what the platform announced.
    let entries = middleware_config(&model, &assignment, SimDuration::from_secs(5));
    assert_eq!(entries.len(), 2, "one offer + one subscription");
}

#[test]
fn staged_update_preserves_service_through_the_whole_procedure() {
    let (model, assignment) = fixture();
    let authority = KeyPair::from_seed(b"integration authority");
    let mut platform = build_platform(&model, &authority);
    deploy_all(&mut platform, &model, &assignment, &authority);

    let provider = model.application(AppId(1)).expect("present").clone();
    let new_manifest = AppManifest::new(provider, Version::new(1, 1, 0), [1; 32]);
    let report = staged_update(
        &mut platform,
        SimTime::from_secs(10),
        EcuId(1),
        new_manifest,
        4096,
    )
    .expect("staged update runs");
    assert_eq!(report.outage, SimDuration::ZERO);

    // The offer survived the update and the new version serves.
    let after = report.completed_at;
    platform.refresh_directory(after);
    assert_eq!(platform.directory().find(after, ServiceId(10)).len(), 1);
    let node = platform.node(EcuId(1)).expect("node");
    let serving = node.serving_instances_of(AppId(1));
    assert_eq!(serving.len(), 1);
    let (_, instance) = node
        .instances()
        .find(|(i, _)| *i == serving[0])
        .expect("inst");
    assert_eq!(instance.manifest.version, Version::new(1, 1, 0));
}

#[test]
fn redundancy_group_survives_ecu_loss_with_platform_state_in_sync() {
    let (model, _) = fixture();
    let authority = KeyPair::from_seed(b"integration authority");
    let mut platform = build_platform(&model, &authority);

    // Lane-keep replicated on both ADAS ECUs.
    let app = model.application(AppId(3)).expect("present").clone();
    let manifest = AppManifest::new(app, Version::new(1, 0, 0), [2; 32]);
    let mut group = RedundancyGroup::new(SimDuration::from_millis(20));
    for ecu in [EcuId(2), EcuId(3)] {
        let instance = platform
            .node_mut(ecu)
            .expect("node")
            .launch(manifest.clone())
            .expect("replica deploys");
        group.register(SimTime::ZERO, instance).expect("registers");
    }

    let t = SimTime::from_millis(500);
    let lost = platform.fail_ecu(t, EcuId(2));
    assert!(lost.is_empty(), "app 3 still served by the replica on ecu3");
    // The replica on ecu3 keeps beating; the master on ecu2 fell silent.
    let still_serving = platform
        .node(EcuId(3))
        .expect("node")
        .serving_instances_of(AppId(3));
    assert_eq!(still_serving.len(), 1);
    let now = t + SimDuration::from_millis(20);
    group
        .heartbeat(now, still_serving[0])
        .expect("known replica");
    let promoted = group.supervise(now).expect("failover possible");
    // The promoted replica is the one the platform still serves.
    assert_eq!(promoted, Some(still_serving[0]));
    assert_eq!(group.healthy(), 1);
    assert_eq!(group.master(), Some(still_serving[0]));
}

#[test]
fn monitoring_detects_injected_runtime_faults() {
    let (model, assignment) = fixture();
    let authority = KeyPair::from_seed(b"integration authority");
    let mut platform = build_platform(&model, &authority);
    deploy_all(&mut platform, &model, &assignment, &authority);

    let node = platform.node(EcuId(1)).expect("node");
    let instance = node.serving_instances_of(AppId(1))[0];
    let (_, deployed) = node
        .instances()
        .find(|(i, _)| *i == instance)
        .expect("inst");
    // The app's monitor: its period as the implicit deadline, its memory
    // budget as the watermark.
    let manifest = &deployed.manifest;
    let mut monitor = TaskMonitor::new(MonitorSpec::new(
        TaskId(instance.raw() as u32),
        manifest.period(),
        manifest.period(),
        u64::from(manifest.memory_kib()) * 1024,
    ));
    // Healthy activations for a while...
    let mut faults = dynplat::monitor::FaultRecorder::default();
    {
        for k in 0..50u64 {
            let t = SimTime::from_millis(k * 10);
            monitor.observe(TaskObservation::Activation(t), &mut faults);
            monitor.observe(
                TaskObservation::Completion {
                    release: t,
                    completion: t + SimDuration::from_millis(2),
                },
                &mut faults,
            );
        }
        assert!(FaultKind::ALL.iter().all(|&k| faults.count(k) == 0));
        // ...then a deadline overrun and a memory spike.
        let t = SimTime::from_millis(500);
        monitor.observe(
            TaskObservation::Completion {
                release: t,
                completion: t + SimDuration::from_millis(15),
            },
            &mut faults,
        );
        monitor.observe(TaskObservation::Memory(t, 10 * 1024 * 1024), &mut faults);
    }
    assert_eq!(faults.count(FaultKind::DeadlineMiss), 1);
    assert_eq!(faults.count(FaultKind::MemoryOverrun), 1);

    // Diagnostics snapshot for the backend.
    let report = dynplat::monitor::DiagnosticReport::capture(
        dynplat::common::VehicleId(1),
        SimTime::from_secs(1),
        &[&monitor],
        faults.drain(),
    );
    assert!(!report.faults.is_empty());
    assert_eq!(report.tasks[0].task, TaskId(instance.raw() as u32));
    assert_eq!(report.tasks[0].activations, 50);
    assert_eq!(
        report.tasks[0].completions, 51,
        "50 healthy + 1 late completion"
    );
}

#[test]
fn lifecycle_is_consistent_after_stop_and_redeploy() {
    let (model, assignment) = fixture();
    let authority = KeyPair::from_seed(b"integration authority");
    let mut platform = build_platform(&model, &authority);
    deploy_all(&mut platform, &model, &assignment, &authority);

    let now = SimTime::from_secs(1);
    assert_eq!(platform.stop_app(now, AppId(3)).expect("stops"), 1);
    let node = platform.node(EcuId(2)).expect("node");
    assert!(node.serving_instances_of(AppId(3)).is_empty());
    assert_eq!(node.memory_used_kib(), 0);

    // Redeploy with a fresh (higher-counter) package.
    let app = model.application(AppId(3)).expect("present").clone();
    let package = UpdatePackage::new(AppId(3), Version::new(1, 0, 1), 10, vec![0xBB; 64]);
    let signed = SignedPackage::create(&package, &authority);
    let instance = platform
        .deploy(now, EcuId(3), app, &signed)
        .expect("redeploys");
    let node = platform.node(EcuId(3)).expect("node");
    let (_, deployed) = node
        .instances()
        .find(|(i, _)| *i == instance)
        .expect("inst");
    assert_eq!(deployed.state, LifecycleState::Running);
}
