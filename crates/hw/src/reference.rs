//! A reference vehicle architecture.
//!
//! Experiments, examples and tests need a realistic multi-domain network
//! without repeating forty lines of setup: [`reference_vehicle`] builds the
//! canonical transition-era E/E architecture of the paper's Fig. 1 — legacy
//! domain buses bridged by gateways into an Ethernet backbone that connects
//! the consolidated platform ECUs.

use crate::ecu::{CryptoSupport, EcuClass, EcuSpec};
use crate::topology::{BusKind, BusSpec, HwTopology};

/// Well-known ECU ids of the reference vehicle.
pub mod ecus {
    use dynplat_common::EcuId;

    /// Body controller (doors, lights) on the body CAN.
    pub const BODY: EcuId = EcuId(0);
    /// Powertrain controller on the powertrain CAN.
    pub const POWERTRAIN: EcuId = EcuId(1);
    /// Chassis controller on FlexRay.
    pub const CHASSIS: EcuId = EcuId(2);
    /// Central gateway bridging every domain bus to the backbone.
    pub const GATEWAY: EcuId = EcuId(3);
    /// First consolidated platform ECU (dynamic platform host).
    pub const PLATFORM_A: EcuId = EcuId(4);
    /// Second consolidated platform ECU (redundancy partner).
    pub const PLATFORM_B: EcuId = EcuId(5);
    /// Infotainment head unit on the backbone.
    pub const HEAD_UNIT: EcuId = EcuId(6);
}

/// Well-known bus ids of the reference vehicle.
pub mod buses {
    use dynplat_common::BusId;

    /// 500 kbit/s body CAN.
    pub const BODY_CAN: BusId = BusId(0);
    /// 500 kbit/s powertrain CAN.
    pub const POWERTRAIN_CAN: BusId = BusId(1);
    /// 10 Mbit/s chassis FlexRay.
    pub const CHASSIS_FLEXRAY: BusId = BusId(2);
    /// 1 Gbit/s Ethernet backbone.
    pub const BACKBONE: BusId = BusId(3);
}

/// Builds the reference vehicle: three legacy domain buses, a central
/// gateway, two high-performance platform ECUs and a head unit on a
/// 1 Gbit/s backbone.
///
/// ```text
/// body ──CAN──┐
/// powertrain ─CAN──┤
/// chassis ─FlexRay─┤─ gateway ══ Ethernet backbone ══ platform-a / platform-b / head-unit
/// ```
pub fn reference_vehicle() -> HwTopology {
    let ecus = [
        EcuSpec::builder(ecus::BODY, "body")
            .class(EcuClass::LowEnd)
            .build(),
        EcuSpec::builder(ecus::POWERTRAIN, "powertrain")
            .class(EcuClass::LowEnd)
            .crypto(CryptoSupport::Software)
            .build(),
        EcuSpec::builder(ecus::CHASSIS, "chassis")
            .class(EcuClass::Domain)
            .build(),
        EcuSpec::builder(ecus::GATEWAY, "gateway")
            .class(EcuClass::Domain)
            .crypto(CryptoSupport::Hsm)
            .build(),
        EcuSpec::builder(ecus::PLATFORM_A, "platform-a")
            .class(EcuClass::HighPerformance)
            .build(),
        EcuSpec::builder(ecus::PLATFORM_B, "platform-b")
            .class(EcuClass::HighPerformance)
            .build(),
        EcuSpec::builder(ecus::HEAD_UNIT, "head-unit")
            .class(EcuClass::HighPerformance)
            .crypto(CryptoSupport::Accelerator)
            .cost(120)
            .build(),
    ];
    let buses_list = [
        BusSpec::new(
            buses::BODY_CAN,
            "body-can",
            BusKind::can_500k(),
            [ecus::BODY, ecus::GATEWAY],
        ),
        BusSpec::new(
            buses::POWERTRAIN_CAN,
            "powertrain-can",
            BusKind::can_500k(),
            [ecus::POWERTRAIN, ecus::GATEWAY],
        ),
        BusSpec::new(
            buses::CHASSIS_FLEXRAY,
            "chassis-flexray",
            BusKind::flexray_10m(),
            [ecus::CHASSIS, ecus::GATEWAY],
        ),
        BusSpec::new(
            buses::BACKBONE,
            "backbone",
            BusKind::ethernet_1g(),
            [
                ecus::GATEWAY,
                ecus::PLATFORM_A,
                ecus::PLATFORM_B,
                ecus::HEAD_UNIT,
            ],
        ),
    ];
    HwTopology::from_parts(ecus, buses_list).expect("reference vehicle is consistent")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::EcuId;

    #[test]
    fn reference_vehicle_is_fully_connected() {
        let topo = reference_vehicle();
        assert_eq!(topo.ecu_count(), 7);
        let ids: Vec<EcuId> = topo.ecus().map(|e| e.id()).collect();
        for &a in &ids {
            for &b in &ids {
                assert!(topo.route(a, b).is_ok(), "no route {a} -> {b}");
            }
        }
    }

    #[test]
    fn gateway_bridges_every_domain() {
        let topo = reference_vehicle();
        assert_eq!(topo.buses_of(ecus::GATEWAY).count(), 4);
        // Body to platform crosses exactly CAN + backbone.
        let route = topo.route(ecus::BODY, ecus::PLATFORM_A).unwrap();
        assert_eq!(route.buses, vec![buses::BODY_CAN, buses::BACKBONE]);
    }

    #[test]
    fn crypto_tiers_match_roles() {
        let topo = reference_vehicle();
        assert!(!topo.ecu(ecus::BODY).unwrap().crypto().can_verify());
        assert_eq!(
            topo.ecu(ecus::GATEWAY).unwrap().crypto(),
            CryptoSupport::Hsm,
            "the gateway is the natural update master"
        );
        assert!(topo.ecu(ecus::PLATFORM_A).unwrap().has_gpu());
    }

    #[test]
    fn bus_ids_constants_are_consistent() {
        let topo = reference_vehicle();
        assert_eq!(
            topo.bus(buses::BACKBONE).unwrap().kind.bitrate(),
            1_000_000_000
        );
        assert_eq!(topo.bus(buses::BODY_CAN).unwrap().kind.bitrate(), 500_000);
    }
}
