//! Network topology: buses and the ECUs attached to them.
//!
//! A vehicle network is modeled as a bipartite graph of ECUs and buses; an
//! ECU attached to two buses acts as a gateway. [`HwTopology::route`] finds
//! the bus sequence a message must traverse between two ECUs, which the
//! verification engine and the middleware both use.

use crate::ecu::EcuSpec;
use dynplat_common::{BusId, EcuId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// The physical layer of a bus segment, with its headline rate in bit/s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BusKind {
    /// Controller Area Network; classic rates are 125/250/500 kbit/s, 1 Mbit/s.
    Can {
        /// Raw bit rate in bit/s.
        bitrate: u64,
    },
    /// FlexRay, 10 Mbit/s per channel, with a static TDMA and a dynamic
    /// minislot segment.
    FlexRay {
        /// Raw bit rate in bit/s.
        bitrate: u64,
    },
    /// Switched Ethernet (100BASE-T1 / 1000BASE-T1), optionally with TSN
    /// time-aware shaping configured in the `dynplat-net` crate.
    Ethernet {
        /// Raw bit rate in bit/s.
        bitrate: u64,
    },
}

impl BusKind {
    /// The raw bit rate of this segment in bit/s.
    pub fn bitrate(self) -> u64 {
        match self {
            BusKind::Can { bitrate }
            | BusKind::FlexRay { bitrate }
            | BusKind::Ethernet { bitrate } => bitrate,
        }
    }

    /// 500 kbit/s CAN, the most common configuration.
    pub const fn can_500k() -> BusKind {
        BusKind::Can { bitrate: 500_000 }
    }

    /// 10 Mbit/s FlexRay.
    pub const fn flexray_10m() -> BusKind {
        BusKind::FlexRay {
            bitrate: 10_000_000,
        }
    }

    /// 100 Mbit/s automotive Ethernet.
    pub const fn ethernet_100m() -> BusKind {
        BusKind::Ethernet {
            bitrate: 100_000_000,
        }
    }

    /// 1 Gbit/s automotive Ethernet.
    pub const fn ethernet_1g() -> BusKind {
        BusKind::Ethernet {
            bitrate: 1_000_000_000,
        }
    }
}

/// A bus segment and its attached ECUs.
#[derive(Clone, Debug, PartialEq)]
pub struct BusSpec {
    /// Segment identifier.
    pub id: BusId,
    /// Human-readable name.
    pub name: String,
    /// Physical layer.
    pub kind: BusKind,
    /// ECUs attached to this segment.
    pub attached: BTreeSet<EcuId>,
}

impl BusSpec {
    /// Creates a bus spec.
    pub fn new(
        id: BusId,
        name: impl Into<String>,
        kind: BusKind,
        attached: impl IntoIterator<Item = EcuId>,
    ) -> Self {
        BusSpec {
            id,
            name: name.into(),
            kind,
            attached: attached.into_iter().collect(),
        }
    }
}

/// A hop-by-hop path between two ECUs, as a sequence of buses.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Route {
    /// Buses traversed in order; empty means source and destination are the
    /// same ECU (local delivery).
    pub buses: Vec<BusId>,
}

impl Route {
    /// `true` for same-ECU delivery.
    pub fn is_local(&self) -> bool {
        self.buses.is_empty()
    }
}

/// Errors raised by topology construction and queries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// A bus referenced an ECU that is not part of the topology.
    UnknownEcu(EcuId),
    /// Two ECUs share the same identifier.
    DuplicateEcu(EcuId),
    /// Two buses share the same identifier.
    DuplicateBus(BusId),
    /// No path exists between the two ECUs.
    NoRoute(EcuId, EcuId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownEcu(id) => write!(f, "bus references unknown ECU {id}"),
            TopologyError::DuplicateEcu(id) => write!(f, "duplicate ECU id {id}"),
            TopologyError::DuplicateBus(id) => write!(f, "duplicate bus id {id}"),
            TopologyError::NoRoute(a, b) => write!(f, "no route between {a} and {b}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// The complete hardware architecture: ECUs plus the interconnecting network.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HwTopology {
    ecus: BTreeMap<EcuId, EcuSpec>,
    buses: BTreeMap<BusId, BusSpec>,
}

impl HwTopology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        HwTopology::default()
    }

    /// Builds a topology from parts, validating referential integrity.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateEcu`], [`TopologyError::DuplicateBus`]
    /// or [`TopologyError::UnknownEcu`] on inconsistent input.
    pub fn from_parts(
        ecus: impl IntoIterator<Item = EcuSpec>,
        buses: impl IntoIterator<Item = BusSpec>,
    ) -> Result<Self, TopologyError> {
        let mut topo = HwTopology::new();
        for ecu in ecus {
            topo.add_ecu(ecu)?;
        }
        for bus in buses {
            topo.add_bus(bus)?;
        }
        Ok(topo)
    }

    /// Adds an ECU.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateEcu`] if the id is taken.
    pub fn add_ecu(&mut self, ecu: EcuSpec) -> Result<(), TopologyError> {
        if self.ecus.contains_key(&ecu.id()) {
            return Err(TopologyError::DuplicateEcu(ecu.id()));
        }
        self.ecus.insert(ecu.id(), ecu);
        Ok(())
    }

    /// Adds a bus, checking all attached ECUs exist.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::DuplicateBus`] or [`TopologyError::UnknownEcu`].
    pub fn add_bus(&mut self, bus: BusSpec) -> Result<(), TopologyError> {
        if self.buses.contains_key(&bus.id) {
            return Err(TopologyError::DuplicateBus(bus.id));
        }
        for ecu in &bus.attached {
            if !self.ecus.contains_key(ecu) {
                return Err(TopologyError::UnknownEcu(*ecu));
            }
        }
        self.buses.insert(bus.id, bus);
        Ok(())
    }

    /// Looks up an ECU.
    pub fn ecu(&self, id: EcuId) -> Option<&EcuSpec> {
        self.ecus.get(&id)
    }

    /// Looks up a bus.
    pub fn bus(&self, id: BusId) -> Option<&BusSpec> {
        self.buses.get(&id)
    }

    /// All ECUs, ordered by id.
    pub fn ecus(&self) -> impl Iterator<Item = &EcuSpec> {
        self.ecus.values()
    }

    /// All buses, ordered by id.
    pub fn buses(&self) -> impl Iterator<Item = &BusSpec> {
        self.buses.values()
    }

    /// Number of ECUs.
    pub fn ecu_count(&self) -> usize {
        self.ecus.len()
    }

    /// Buses the given ECU is attached to.
    pub fn buses_of(&self, ecu: EcuId) -> impl Iterator<Item = &BusSpec> {
        self.buses
            .values()
            .filter(move |b| b.attached.contains(&ecu))
    }

    /// Finds the minimum-hop bus path from `src` to `dst` by breadth-first
    /// search over the ECU/bus bipartite graph.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownEcu`] for unknown endpoints and
    /// [`TopologyError::NoRoute`] for disconnected ones.
    pub fn route(&self, src: EcuId, dst: EcuId) -> Result<Route, TopologyError> {
        if !self.ecus.contains_key(&src) {
            return Err(TopologyError::UnknownEcu(src));
        }
        if !self.ecus.contains_key(&dst) {
            return Err(TopologyError::UnknownEcu(dst));
        }
        if src == dst {
            return Ok(Route::default());
        }
        // BFS over ECUs; remember the bus taken to reach each ECU.
        let mut prev: BTreeMap<EcuId, (EcuId, BusId)> = BTreeMap::new();
        let mut visited: BTreeSet<EcuId> = BTreeSet::new();
        let mut queue = VecDeque::new();
        visited.insert(src);
        queue.push_back(src);
        'search: while let Some(cur) = queue.pop_front() {
            for bus in self.buses_of(cur) {
                for &next in &bus.attached {
                    if visited.insert(next) {
                        prev.insert(next, (cur, bus.id));
                        if next == dst {
                            break 'search;
                        }
                        queue.push_back(next);
                    }
                }
            }
        }
        if !prev.contains_key(&dst) {
            return Err(TopologyError::NoRoute(src, dst));
        }
        let mut buses = Vec::new();
        let mut cur = dst;
        while cur != src {
            let (p, bus) = prev[&cur];
            buses.push(bus);
            cur = p;
        }
        buses.reverse();
        Ok(Route { buses })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecu::EcuClass;

    fn three_ecu_two_bus() -> HwTopology {
        // ecu0 --can-- ecu1(gateway) --eth-- ecu2
        let ecus = [
            EcuSpec::of_class(EcuId(0), "body", EcuClass::LowEnd),
            EcuSpec::of_class(EcuId(1), "gateway", EcuClass::Domain),
            EcuSpec::of_class(EcuId(2), "adas", EcuClass::HighPerformance),
        ];
        let buses = [
            BusSpec::new(BusId(0), "can0", BusKind::can_500k(), [EcuId(0), EcuId(1)]),
            BusSpec::new(
                BusId(1),
                "eth0",
                BusKind::ethernet_100m(),
                [EcuId(1), EcuId(2)],
            ),
        ];
        HwTopology::from_parts(ecus, buses).unwrap()
    }

    #[test]
    fn direct_route_is_single_hop() {
        let t = three_ecu_two_bus();
        let r = t.route(EcuId(0), EcuId(1)).unwrap();
        assert_eq!(r.buses, vec![BusId(0)]);
    }

    #[test]
    fn gateway_route_is_two_hops() {
        let t = three_ecu_two_bus();
        let r = t.route(EcuId(0), EcuId(2)).unwrap();
        assert_eq!(r.buses, vec![BusId(0), BusId(1)]);
        assert_eq!(t.buses_of(EcuId(1)).count(), 2, "ecu1 bridges both buses");
        assert_eq!(t.buses_of(EcuId(0)).count(), 1);
    }

    #[test]
    fn local_route_is_empty() {
        let t = three_ecu_two_bus();
        let r = t.route(EcuId(2), EcuId(2)).unwrap();
        assert!(r.is_local());
    }

    #[test]
    fn disconnected_ecus_have_no_route() {
        let mut t = three_ecu_two_bus();
        t.add_ecu(EcuSpec::of_class(EcuId(9), "island", EcuClass::LowEnd))
            .unwrap();
        assert_eq!(
            t.route(EcuId(0), EcuId(9)),
            Err(TopologyError::NoRoute(EcuId(0), EcuId(9)))
        );
    }

    #[test]
    fn unknown_endpoints_are_rejected() {
        let t = three_ecu_two_bus();
        assert_eq!(
            t.route(EcuId(7), EcuId(0)),
            Err(TopologyError::UnknownEcu(EcuId(7)))
        );
        assert_eq!(
            t.route(EcuId(0), EcuId(7)),
            Err(TopologyError::UnknownEcu(EcuId(7)))
        );
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let mut t = three_ecu_two_bus();
        let dup = EcuSpec::of_class(EcuId(0), "dup", EcuClass::LowEnd);
        assert_eq!(t.add_ecu(dup), Err(TopologyError::DuplicateEcu(EcuId(0))));
        let dup_bus = BusSpec::new(BusId(0), "dup", BusKind::can_500k(), [EcuId(0)]);
        assert_eq!(
            t.add_bus(dup_bus),
            Err(TopologyError::DuplicateBus(BusId(0)))
        );
    }

    #[test]
    fn bus_referencing_unknown_ecu_is_rejected() {
        let mut t = HwTopology::new();
        let bus = BusSpec::new(BusId(0), "b", BusKind::can_500k(), [EcuId(5)]);
        assert_eq!(t.add_bus(bus), Err(TopologyError::UnknownEcu(EcuId(5))));
    }

    #[test]
    fn bus_kind_accessors() {
        assert_eq!(BusKind::can_500k().bitrate(), 500_000);
        assert_eq!(BusKind::ethernet_1g().bitrate(), 1_000_000_000);
        assert_eq!(BusKind::flexray_10m().bitrate(), 10_000_000);
    }
}
