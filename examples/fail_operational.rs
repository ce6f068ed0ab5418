//! Fail-operational highway scenario (§3.3): the trajectory-following app
//! runs as a redundant master/slave group across three platform ECUs. At
//! t = 2 s the master's ECU dies; heartbeat supervision detects the silence
//! and promotes a synchronized slave. The vehicle keeps driving — the
//! fail-safe state of an autonomous vehicle is *not* a shutdown.
//!
//! Run with: `cargo run --example fail_operational`

use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{AppId, AppKind, Asil, EcuId, InstanceId};
use dynplat::core::app::AppManifest;
use dynplat::core::redundancy::{RedundancyGroup, Role};
use dynplat::core::DynamicPlatform;
use dynplat::hw::ecu::{EcuClass, EcuSpec};
use dynplat::model::ir::AppModel;
use dynplat::security::package::{KeyRegistry, Version};

fn trajectory_app() -> AppManifest {
    AppManifest::new(
        AppModel {
            id: AppId(7),
            name: "trajectory".into(),
            kind: AppKind::Deterministic,
            asil: Asil::D,
            provides: vec![],
            consumes: vec![],
            period: SimDuration::from_millis(20),
            work_mi: 40.0,
            memory_kib: 64 * 1024,
            needs_gpu: false,
        },
        Version::new(3, 2, 0),
        [0; 32],
    )
}

fn main() {
    // Three high-performance platform ECUs, one replica each.
    let mut platform = DynamicPlatform::new(KeyRegistry::new());
    for i in 0..3u16 {
        platform.add_node(EcuSpec::of_class(
            EcuId(i),
            format!("platform-{i}"),
            EcuClass::HighPerformance,
        ));
    }

    let heartbeat = SimDuration::from_millis(20);
    let mut group = RedundancyGroup::new(heartbeat);
    let mut replicas: Vec<(InstanceId, EcuId)> = Vec::new();
    for i in 0..3u16 {
        let node = platform.node_mut(EcuId(i)).expect("node exists");
        let instance = node.launch(trajectory_app()).expect("replica deploys");
        let role = group.register(SimTime::ZERO, instance).expect("registers");
        replicas.push((instance, EcuId(i)));
        println!("replica {instance} on ecu{i}: {role}");
    }
    assert_eq!(group.role_of(replicas[0].0), Some(Role::Master));

    // Drive: heartbeats every 20 ms; ecu0 dies at t = 2 s.
    let crash_at = SimTime::from_secs(2);
    let horizon = SimTime::from_secs(4);
    let mut t = SimTime::ZERO;
    let mut crashed = false;
    let mut promoted_at: Option<SimTime> = None;
    while t <= horizon {
        t += heartbeat;
        if !crashed && t >= crash_at {
            crashed = true;
            let lost = platform.fail_ecu(t, EcuId(0));
            println!("\n[{t}] ecu0 failed! apps without serving instance: {lost:?}");
        }
        for &(instance, ecu) in &replicas {
            let alive = !crashed || ecu != EcuId(0);
            if alive {
                group.heartbeat(t, instance).expect("known replica");
            }
        }
        if let Some(new_master) = group.supervise(t).expect("replicas remain") {
            promoted_at = Some(t);
            println!("[{t}] failover: {new_master} promoted to master");
        }
    }

    let detect_latency = promoted_at
        .expect("failover must have happened")
        .saturating_since(crash_at);
    println!("\nfailover detection latency : {detect_latency}");
    println!("control output gap         : {}", group.output_gap());
    println!("healthy replicas remaining : {}", group.healthy());
    println!("failovers performed        : {}", group.failovers());
    assert!(group.healthy() >= 2, "vehicle still fail-operational");
    assert!(
        detect_latency <= heartbeat * 3 + SimDuration::from_millis(1),
        "detection bounded by heartbeat supervision"
    );
    println!("\nvehicle continued operating through the ECU loss — fail-operational.");
}
