//! Strongly typed identifiers.
//!
//! Every entity class in the workspace gets its own newtype identifier so the
//! compiler keeps ECUs, apps, services, tasks and buses apart (C-NEWTYPE).
//! All identifiers are small `Copy` integers with `Display` in a short,
//! greppable format (`ecu3`, `app17`, ...).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal, $repr:ty) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $repr);

        impl $name {
            /// Returns the raw numeric value of this identifier.
            pub const fn raw(self) -> $repr {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(raw: $repr) -> Self {
                $name(raw)
            }
        }
    };
}

id_type!(
    /// Identifier of a physical Electronic Control Unit.
    EcuId, "ecu", u16
);
id_type!(
    /// Identifier of an application (the smallest unit of addition/update,
    /// §1.1 of the paper).
    AppId, "app", u32
);
id_type!(
    /// Identifier of a running application instance. One app may have several
    /// instances at once: during a staged update (§3.2) or for redundancy
    /// (§3.3).
    InstanceId, "inst", u64
);
id_type!(
    /// Identifier of a middleware service.
    ServiceId, "svc", u16
);
id_type!(
    /// Identifier of a method within a service (RPC paradigm).
    MethodId, "mth", u16
);
id_type!(
    /// Identifier of an event group within a service (Event paradigm).
    EventGroupId, "evg", u16
);
id_type!(
    /// Identifier of a schedulable task.
    TaskId, "task", u32
);
id_type!(
    /// Identifier of a communication bus or network segment.
    BusId, "bus", u16
);
id_type!(
    /// Identifier of a point-to-point link or switch port.
    LinkId, "link", u16
);
id_type!(
    /// Identifier of a message/frame flow on a bus.
    MessageId, "msg", u32
);
id_type!(
    /// Identifier of a dynamic-platform node (one per participating ECU).
    NodeId, "node", u16
);
id_type!(
    /// Identifier of a vehicle in a fleet (update campaigns, §3.2).
    VehicleId, "veh", u32
);
id_type!(
    /// Identifier of a fleet-simulation shard (one sim kernel per shard).
    ShardId, "shard", u16
);

/// A combined service + instance address, as used by service discovery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceInstance {
    /// The service type offered.
    pub service: ServiceId,
    /// Discriminates multiple providers of the same service type.
    pub instance: u16,
}

impl ServiceInstance {
    /// Creates a service-instance address.
    pub const fn new(service: ServiceId, instance: u16) -> Self {
        ServiceInstance { service, instance }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(EcuId(3).to_string(), "ecu3");
        assert_eq!(AppId(17).to_string(), "app17");
    }

    #[test]
    fn newtypes_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(TaskId(1));
        set.insert(TaskId(1));
        set.insert(TaskId(2));
        assert_eq!(set.len(), 2);
        assert!(TaskId(1) < TaskId(2));
    }

    #[test]
    fn raw_roundtrip() {
        assert_eq!(EcuId::from(9).raw(), 9);
        assert_eq!(InstanceId(42).raw(), 42);
    }
}
