//! Over-the-air update walkthrough (§3.2 + §4.1):
//!
//! 1. the OEM authority signs an update package;
//! 2. a tampered copy and a replayed package are rejected;
//! 3. a crypto-less body ECU receives the package through the redundant
//!    update master;
//! 4. the running deterministic app is updated with the 4-phase staged
//!    procedure (zero outage), compared against stop–restart and against a
//!    centrally synchronized switch under clock error.
//!
//! Run with: `cargo run --example ota_update`

use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{AppId, AppKind, Asil, EcuId};
use dynplat::core::app::AppManifest;
use dynplat::core::update::{centralized_switch_update, staged_update, stop_restart_update};
use dynplat::core::DynamicPlatform;
use dynplat::hw::ecu::{EcuClass, EcuSpec};
use dynplat::model::ir::AppModel;
use dynplat::security::master::{RedundantMasters, VoucherIssuer, WeakEcuVerifier};
use dynplat::security::package::{KeyRegistry, SignedPackage, UpdatePackage, Version};
use dynplat::security::sign::KeyPair;
use dynplat::sim::jitter::ClockModel;
use std::collections::BTreeMap;

fn cruise(version: Version) -> AppManifest {
    AppManifest::new(
        AppModel {
            id: AppId(1),
            name: "cruise".into(),
            kind: AppKind::Deterministic,
            asil: Asil::C,
            provides: vec![],
            consumes: vec![],
            period: SimDuration::from_millis(10),
            work_mi: 2.0,
            memory_kib: 512,
            needs_gpu: false,
        },
        version,
        [0; 32],
    )
}

fn main() {
    let authority = KeyPair::from_seed(b"oem release authority");
    let mut registry = KeyRegistry::new();
    registry.trust(authority.public());

    // -- package security ---------------------------------------------------
    let package = UpdatePackage::new(AppId(1), Version::new(1, 1, 0), 2, vec![0xF1; 4096])
        .with_metadata("changelog", "improved rain handling");
    let signed = SignedPackage::create(&package, &authority);
    println!("package verifies: {}", signed.verify(&registry).is_ok());

    let mut tampered = signed.clone();
    tampered.package_bytes[100] ^= 0x01;
    println!(
        "tampered copy rejected: {:?}",
        tampered.verify(&registry).err().unwrap()
    );

    // -- update master for the crypto-less ECU -------------------------------
    let psk = [0x42u8; 32];
    let mut m1 = VoucherIssuer::new(registry.clone());
    let mut m2 = VoucherIssuer::new(registry.clone());
    m1.enroll(EcuId(0), psk);
    m2.enroll(EcuId(0), psk);
    let mut masters = RedundantMasters::new(vec![m1, m2]);
    let (_, voucher) = masters
        .verify_for(&signed, EcuId(0))
        .expect("master verifies");
    let weak = WeakEcuVerifier::new(EcuId(0), psk);
    println!(
        "weak ECU accepts master voucher: {}",
        weak.accept(&signed.package_bytes, &voucher)
    );
    masters.fail(0);
    let (_, voucher) = masters
        .verify_for(&signed, EcuId(0))
        .expect("backup master serves");
    println!(
        "after primary master failure, backup voucher still accepted: {}",
        weak.accept(&signed.package_bytes, &voucher)
    );

    // -- staged vs stop-restart ----------------------------------------------
    let mut platform = DynamicPlatform::new(registry);
    platform.add_node(EcuSpec::of_class(EcuId(1), "zone", EcuClass::Domain));
    platform
        .node_mut(EcuId(1))
        .unwrap()
        .launch(cruise(Version::new(1, 0, 0)))
        .expect("initial deployment");

    let now = SimTime::from_secs(100);
    let staged = staged_update(
        &mut platform,
        now,
        EcuId(1),
        cruise(Version::new(1, 1, 0)),
        2048, // KiB of state to synchronize
    )
    .expect("staged update");
    println!(
        "\nstaged update    : outage {}, overlap {}",
        staged.outage, staged.overlap
    );
    for (phase, at) in &staged.phases {
        println!("  {at}: {phase}");
    }

    let naive = stop_restart_update(
        &mut platform,
        staged.completed_at + SimDuration::from_secs(1),
        EcuId(1),
        cruise(Version::new(1, 2, 0)),
    )
    .expect("stop-restart update");
    println!(
        "stop-restart     : outage {} (service down the whole window)",
        naive.outage
    );

    // -- the fragile centralized switch ---------------------------------------
    let commanded = SimTime::from_secs(200);
    for max_offset_ms in [0i64, 1, 5, 20] {
        // Worst-case spread: one replica max-early, one max-late.
        let offsets = [0, max_offset_ms, -max_offset_ms, max_offset_ms / 2];
        let clocks: BTreeMap<EcuId, ClockModel> = offsets
            .iter()
            .enumerate()
            .map(|(i, &off_ms)| (EcuId(i as u16), ClockModel::new(off_ms * 1_000_000, 0.0)))
            .collect();
        let (report, _) = centralized_switch_update(&clocks, commanded, false);
        println!(
            "centralized switch, clock error ±{max_offset_ms} ms: mixed-version window {}",
            report.mixed_version_window
        );
    }
    let (failed, _) = centralized_switch_update(&BTreeMap::new(), commanded, true);
    println!(
        "centralized switch with failed coordinator: phases {:?}",
        failed.phases
    );
}
