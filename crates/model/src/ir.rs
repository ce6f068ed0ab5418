//! The in-memory system model (intermediate representation).

use dynplat_comm::QosSpec;
use dynplat_common::time::SimDuration;
use dynplat_common::value::DataType;
use dynplat_common::{AppId, AppKind, Asil, EcuId, EventGroupId, MethodId, ServiceId};
use dynplat_hw::HwTopology;
use std::collections::BTreeMap;

/// An RPC method of a service interface.
#[derive(Clone, Debug, PartialEq)]
pub struct MethodDef {
    /// Method identifier within the service.
    pub id: MethodId,
    /// Name.
    pub name: String,
    /// Request payload type.
    pub request: DataType,
    /// Response payload type.
    pub response: DataType,
    /// Requirements on the call.
    pub qos: QosSpec,
}

/// An event (notification topic) of a service interface.
#[derive(Clone, Debug, PartialEq)]
pub struct EventDef {
    /// Event group identifier.
    pub id: EventGroupId,
    /// Name.
    pub name: String,
    /// Payload type.
    pub payload: DataType,
    /// Requirements on delivery.
    pub qos: QosSpec,
}

/// A stream of a service interface.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamDef {
    /// Stream identifier (shares the event-group id space).
    pub id: EventGroupId,
    /// Name.
    pub name: String,
    /// Per-frame payload type.
    pub frame: DataType,
    /// Requirements (typically bandwidth).
    pub qos: QosSpec,
}

/// A service interface with a designated owner (§2.1: "we assume an owner
/// for every interface, who controls interface description, version, etc.").
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceInterface {
    /// Service identifier.
    pub id: ServiceId,
    /// Name.
    pub name: String,
    /// Owning application (producer for events, consumer/provider for
    /// methods per §2.1).
    pub owner: AppId,
    /// Interface major version.
    pub version: u8,
    /// RPC methods.
    pub methods: Vec<MethodDef>,
    /// Events.
    pub events: Vec<EventDef>,
    /// Streams.
    pub streams: Vec<StreamDef>,
}

impl ServiceInterface {
    /// Looks up a method by id.
    pub fn method(&self, id: MethodId) -> Option<&MethodDef> {
        self.methods.iter().find(|m| m.id == id)
    }

    /// Looks up an event by id.
    pub fn event(&self, id: EventGroupId) -> Option<&EventDef> {
        self.events.iter().find(|e| e.id == id)
    }

    /// Looks up a stream by id.
    pub fn stream(&self, id: EventGroupId) -> Option<&StreamDef> {
        self.streams.iter().find(|s| s.id == id)
    }
}

/// Which part of a service a consumer binds to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PortKind {
    /// Subscribe to an event group.
    Event(EventGroupId),
    /// Call a method.
    Method(MethodId),
    /// Receive a stream.
    Stream(EventGroupId),
}

/// A consumed port: this app uses that part of that service.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConsumedPort {
    /// The providing service.
    pub service: ServiceId,
    /// What is consumed.
    pub kind: PortKind,
}

/// An application model (§1.1: the app is the smallest unit of addition and
/// update).
#[derive(Clone, Debug, PartialEq)]
pub struct AppModel {
    /// Application identifier.
    pub id: AppId,
    /// Name.
    pub name: String,
    /// Deterministic or non-deterministic (§3.1).
    pub kind: AppKind,
    /// Safety level.
    pub asil: Asil,
    /// Services this app provides (it must own them).
    pub provides: Vec<ServiceId>,
    /// Ports this app consumes.
    pub consumes: Vec<ConsumedPort>,
    /// Activation period of the app's main task.
    pub period: SimDuration,
    /// Computational work per activation, in million instructions; the
    /// concrete WCET on an ECU is `work / ecu.mips` (hardware-dependent).
    pub work_mi: f64,
    /// Memory footprint in KiB.
    pub memory_kib: u32,
    /// Whether the app needs a GPU (neural-network workloads, §1).
    pub needs_gpu: bool,
}

impl AppModel {
    /// Concrete WCET of the main task on a given CPU.
    pub fn wcet_on(&self, cpu: &dynplat_hw::CpuSpec) -> SimDuration {
        cpu.exec_time(self.work_mi)
    }
}

/// Mapping variability for one application (§2.3: "it can be necessary to
/// include variances in the model and not define every mapping … uniquely.
/// The final mapping might only be applied in the vehicle on the road.").
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MappingChoice {
    /// Pinned to one ECU.
    Fixed(EcuId),
    /// May run on any of these ECUs.
    AnyOf(Vec<EcuId>),
}

impl MappingChoice {
    /// The candidate ECUs.
    pub fn candidates(&self) -> &[EcuId] {
        match self {
            MappingChoice::Fixed(e) => std::slice::from_ref(e),
            MappingChoice::AnyOf(list) => list,
        }
    }
}

/// The deployment model: per-app mapping choices plus fail-operational
/// replica requirements (§3.3).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Deployment {
    /// Mapping choice per application.
    pub mapping: BTreeMap<AppId, MappingChoice>,
    /// Required replica count per application; absent means 1 (no
    /// redundancy). Fail-operational functions (§3.3) demand ≥ 2 replicas
    /// on distinct ECUs.
    pub replicas: BTreeMap<AppId, u8>,
}

impl Deployment {
    /// Required replicas of `app` (1 when not configured).
    pub fn replicas_of(&self, app: AppId) -> u8 {
        self.replicas.get(&app).copied().unwrap_or(1).max(1)
    }

    /// Number of concrete mapping combinations this deployment admits.
    pub fn variant_count(&self) -> u64 {
        self.mapping
            .values()
            .map(|c| c.candidates().len() as u64)
            .product()
    }

    /// Enumerates all concrete assignments, up to `cap` of them.
    pub fn variants(&self, cap: usize) -> Vec<BTreeMap<AppId, EcuId>> {
        let apps: Vec<(&AppId, &MappingChoice)> = self.mapping.iter().collect();
        let mut out: Vec<BTreeMap<AppId, EcuId>> = vec![BTreeMap::new()];
        for (app, choice) in apps {
            let mut next = Vec::new();
            for partial in &out {
                for &ecu in choice.candidates() {
                    let mut m = partial.clone();
                    m.insert(*app, ecu);
                    next.push(m);
                    if next.len() >= cap {
                        break;
                    }
                }
                if next.len() >= cap {
                    break;
                }
            }
            out = next;
        }
        out
    }
}

/// The complete system model the DSLs describe.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SystemModel {
    /// Hardware architecture.
    pub hardware: HwTopology,
    /// Interface definitions.
    pub interfaces: Vec<ServiceInterface>,
    /// Applications.
    pub applications: Vec<AppModel>,
    /// Deployment with variability.
    pub deployment: Deployment,
}

impl SystemModel {
    /// Looks up an interface.
    pub fn interface(&self, id: ServiceId) -> Option<&ServiceInterface> {
        self.interfaces.iter().find(|i| i.id == id)
    }

    /// Looks up an application.
    pub fn application(&self, id: AppId) -> Option<&AppModel> {
        self.applications.iter().find(|a| a.id == id)
    }

    /// The provider application of a service (by ownership).
    pub fn provider_of(&self, service: ServiceId) -> Option<&AppModel> {
        let iface = self.interface(service)?;
        self.application(iface.owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_enumeration() {
        let mut d = Deployment::default();
        d.mapping.insert(AppId(1), MappingChoice::Fixed(EcuId(0)));
        d.mapping
            .insert(AppId(2), MappingChoice::AnyOf(vec![EcuId(0), EcuId(1)]));
        d.mapping
            .insert(AppId(3), MappingChoice::AnyOf(vec![EcuId(1), EcuId(2)]));
        assert_eq!(d.variant_count(), 4);
        let variants = d.variants(100);
        assert_eq!(variants.len(), 4);
        for v in &variants {
            assert_eq!(v[&AppId(1)], EcuId(0));
        }
        // Cap limits enumeration.
        assert_eq!(d.variants(2).len(), 2);
    }

    #[test]
    fn wcet_depends_on_cpu() {
        let app = AppModel {
            id: AppId(1),
            name: "ctrl".into(),
            kind: AppKind::Deterministic,
            asil: Asil::C,
            provides: vec![],
            consumes: vec![],
            period: SimDuration::from_millis(10),
            work_mi: 16.0,
            memory_kib: 128,
            needs_gpu: false,
        };
        let slow = dynplat_hw::CpuSpec::new(160, 1, 160);
        let fast = dynplat_hw::CpuSpec::new(2000, 8, 24_000);
        assert!(app.wcet_on(&slow) > app.wcet_on(&fast));
        assert_eq!(app.wcet_on(&slow), SimDuration::from_millis(100));
    }

    #[test]
    fn lookups() {
        let iface = ServiceInterface {
            id: ServiceId(1),
            name: "speed".into(),
            owner: AppId(1),
            version: 1,
            methods: vec![MethodDef {
                id: MethodId(1),
                name: "set".into(),
                request: DataType::U32,
                response: DataType::Bool,
                qos: QosSpec::best_effort(),
            }],
            events: vec![],
            streams: vec![],
        };
        assert!(iface.method(MethodId(1)).is_some());
        assert!(iface.method(MethodId(2)).is_none());
        assert!(iface.event(EventGroupId(1)).is_none());
    }
}
