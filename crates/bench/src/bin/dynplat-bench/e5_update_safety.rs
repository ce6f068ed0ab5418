//! E5 (§3.2): update safety — staged 4-phase update vs stop–restart vs the
//! centrally synchronized switch.
//!
//! Expected shape: staged updates have zero outage at the price of a
//! double-resource overlap that grows with the state to synchronize;
//! stop–restart outage is constant and large; the centralized switch's
//! mixed-version window grows linearly with clock error and collapses
//! entirely when the coordinator fails.

use dynplat_bench::{ms, Table};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::VehicleId;
use dynplat_common::{AppId, AppKind, Asil, EcuId};
use dynplat_core::app::AppManifest;
use dynplat_core::campaign::{CampaignPolicy, UpdateCampaign, UpdateRequirements, VehicleConfig};
use dynplat_core::update::{
    centralized_switch_update, staged_update, stop_restart_update, StagedParams, StopRestartParams,
};
use dynplat_core::DynamicPlatform;
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_model::ir::AppModel;
use dynplat_security::package::{KeyRegistry, Version};
use dynplat_sim::jitter::ClockModel;
use std::collections::BTreeMap;

fn manifest(version: Version) -> AppManifest {
    AppManifest::new(
        AppModel {
            id: AppId(1),
            name: "ctrl".into(),
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

fn fresh_platform() -> DynamicPlatform {
    let mut p = DynamicPlatform::new(KeyRegistry::new());
    p.add_node(EcuSpec::of_class(EcuId(1), "zone", EcuClass::Domain));
    p.node_mut(EcuId(1))
        .expect("node")
        .launch(manifest(Version::new(1, 0, 0)))
        .expect("initial deploy");
    p
}

pub fn run() {
    // -- staged vs stop-restart over state size -----------------------------
    let table = Table::new(
        "E5a — staged vs stop-restart: outage and overlap vs state size",
        &[
            "state_kib",
            "staged_outage_ms",
            "staged_overlap_ms",
            "stop_restart_outage_ms",
        ],
    );
    for state_kib in [0u64, 1024, 16 * 1024, 128 * 1024] {
        let mut p = fresh_platform();
        let staged = staged_update(
            &mut p,
            SimTime::from_secs(1),
            EcuId(1),
            manifest(Version::new(1, 1, 0)),
            state_kib,
            &StagedParams::default(),
        )
        .expect("staged update");
        let mut p2 = fresh_platform();
        let naive = stop_restart_update(
            &mut p2,
            SimTime::from_secs(1),
            EcuId(1),
            manifest(Version::new(1, 1, 0)),
            &StopRestartParams::default(),
        )
        .expect("stop-restart update");
        table.row(&[
            state_kib.to_string(),
            ms(staged.outage),
            ms(staged.overlap),
            ms(naive.outage),
        ]);
    }

    // -- centralized switch vs clock error -----------------------------------
    let table = Table::new(
        "E5b — centralized switch: mixed-version window vs clock error (4 replicas)",
        &["clock_error_ms", "mixed_window_ms"],
    );
    for err_ms in [0i64, 1, 2, 5, 10, 50] {
        let clocks: BTreeMap<EcuId, ClockModel> = [
            (EcuId(0), ClockModel::new(0, 0.0)),
            (EcuId(1), ClockModel::new(err_ms * 1_000_000, 0.0)),
            (EcuId(2), ClockModel::new(-err_ms * 1_000_000, 0.0)),
            (EcuId(3), ClockModel::new(err_ms * 500_000, 0.0)),
        ]
        .into_iter()
        .collect();
        let (report, _) = centralized_switch_update(&clocks, SimTime::from_secs(100), false);
        table.row(&[err_ms.to_string(), ms(report.mixed_version_window)]);
    }

    // -- the single point of failure -----------------------------------------
    let clocks: BTreeMap<EcuId, ClockModel> =
        [(EcuId(0), ClockModel::PERFECT)].into_iter().collect();
    let (failed, switched) = centralized_switch_update(&clocks, SimTime::from_secs(100), true);
    println!(
        "# E5c — coordinator failure: replicas switched = {}, phases = {:?}",
        switched.len(),
        failed.phases
    );

    // -- fleet campaign: per-vehicle backend validation + canary halt ---------
    let table = Table::new(
        "E5d — fleet campaign (1000 heterogeneous vehicles) vs field failure rate",
        &[
            "field_failure_pct",
            "updated",
            "rejected",
            "failed",
            "protected",
            "halted",
        ],
    );
    let fleet: Vec<VehicleConfig> = (0..1000u32)
        .map(|i| {
            let mut v = VehicleConfig::new(
                VehicleId(i),
                if i % 17 == 0 { 256 } else { 4096 }, // some lack overlap memory
                0.5,
            );
            if i % 23 != 0 {
                // most have the app installed; a few never got v1
                v.installed.insert(AppId(1), Version::new(1, 0, 0));
            }
            v
        })
        .collect();
    for failure_pct in [0u32, 2, 10, 40] {
        let req = UpdateRequirements {
            app: AppId(1),
            version: Version::new(1, 1, 0),
            staged_memory_kib: 1024,
            utilization: 0.2,
            depends_on: BTreeMap::new(),
        };
        let report = UpdateCampaign::new(req)
            .with_field_failures(f64::from(failure_pct) / 100.0, 77)
            .with_policy(CampaignPolicy {
                waves: vec![0.02, 0.2, 1.0],
                max_wave_failure_rate: 0.05,
            })
            .run(&fleet);
        let protected = fleet.len() - report.updated() - report.failed() - report.rejected();
        table.row(&[
            failure_pct.to_string(),
            report.updated().to_string(),
            report.rejected().to_string(),
            report.failed().to_string(),
            protected.to_string(),
            report.halted.to_string(),
        ]);
    }
}
