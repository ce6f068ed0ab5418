//! # dynplat — Dynamic Platforms for Uncertainty Management in Future Automotive E/E Architectures
//!
//! A from-scratch Rust implementation of the system described in
//! Mundhenk et al., *"INVITED: Dynamic Platforms for Uncertainty Management
//! in Future Automotive E/E Architectures"*, DAC 2017 — the dynamic
//! platform that hosts deterministic and non-deterministic automotive
//! applications side by side with freedom of interference, staged runtime
//! updates, fail-operational redundancy, runtime monitoring, and a secured
//! service-oriented communication layer; plus every substrate that system
//! needs: execution-time and clock uncertainty models, ECU/bus hardware
//! models, CAN / FlexRay / Ethernet / TSN media, an RTOS scheduling
//! toolbox, a SOME/IP-style middleware, the modeling DSLs with a
//! verification engine, a security stack, design-space exploration and XiL
//! testing.
//!
//! This facade crate re-exports the whole workspace under one name:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`common`] | `dynplat-common` | ids, time, ASIL, typed values |
//! | [`sim`] | `dynplat_common::jitter` | execution-time, clock & noise uncertainty models |
//! | [`hw`] | `dynplat-hw` | ECU & topology models |
//! | [`net`] | `dynplat-net` | CAN / FlexRay / Ethernet / TSN |
//! | [`sched`] | `dynplat-sched` | RTA, EDF, TT synthesis, servers, admission |
//! | [`comm`] | `dynplat-comm` | SOME/IP-style middleware & fabric |
//! | [`faults`] | `dynplat-faults` | seed-driven fault injection & chaos fabric |
//! | [`fleet`] | `dynplat-fleet` | sharded fleet engine, staged OTA campaigns |
//! | [`model`] | `dynplat-model` | DSLs, verification engine, generators |
//! | [`security`] | `dynplat-security` | packages, update master, authn/authz |
//! | [`obs`] | `dynplat-obs` | metrics registry, causal tracing, snapshots |
//! | [`monitor`] | `dynplat-monitor` | runtime monitoring, fault recording |
//! | [`core`] | `dynplat-core` | **the dynamic platform** |
//! | [`dse`] | `dynplat-dse` | design-space exploration |
//! | [`xil`] | `dynplat-xil` | MiL/SiL/HiL testing |
//!
//! # Quickstart
//!
//! ```
//! use dynplat::core::DynamicPlatform;
//! use dynplat::common::{AppId, EcuId};
//! use dynplat::common::time::SimTime;
//! use dynplat::hw::ecu::{EcuClass, EcuSpec};
//! use dynplat::security::package::{KeyRegistry, SignedPackage, UpdatePackage, Version};
//! use dynplat::security::sign::KeyPair;
//!
//! # fn main() {
//! // Trust an OEM signing authority and build a one-ECU platform.
//! let authority = KeyPair::from_seed(b"oem release key");
//! let mut registry = KeyRegistry::new();
//! registry.trust(authority.public());
//! let mut platform = DynamicPlatform::new(registry);
//! platform.add_node(EcuSpec::of_class(EcuId(1), "zone", EcuClass::Domain));
//!
//! // Ship a signed application package and deploy it.
//! let model = dynplat::model::ir::AppModel {
//!     id: AppId(1),
//!     name: "cruise".into(),
//!     kind: dynplat::common::AppKind::Deterministic,
//!     asil: dynplat::common::Asil::C,
//!     provides: vec![],
//!     consumes: vec![],
//!     period: dynplat::common::time::SimDuration::from_millis(10),
//!     work_mi: 2.0,
//!     memory_kib: 256,
//!     needs_gpu: false,
//! };
//! let package = UpdatePackage::new(AppId(1), Version::new(1, 0, 0), 1, vec![0xAB]);
//! let signed = SignedPackage::create(&package, &authority);
//! let instance = platform.deploy(SimTime::ZERO, EcuId(1), model, &signed).unwrap();
//! let node = platform.node(EcuId(1)).unwrap();
//! assert_eq!(node.serving_instances_of(AppId(1)), vec![instance]);
//! # }
//! ```

#![forbid(unsafe_code)]

pub use dynplat_comm as comm;
pub use dynplat_common as common;
pub use dynplat_core as core;
pub use dynplat_dse as dse;
pub use dynplat_faults as faults;
pub use dynplat_fleet as fleet;
pub use dynplat_hw as hw;
pub use dynplat_model as model;
pub use dynplat_monitor as monitor;
pub use dynplat_net as net;
pub use dynplat_obs as obs;
pub use dynplat_sched as sched;
pub use dynplat_security as security;
pub use dynplat_xil as xil;

/// The uncertainty models of `dynplat-common`, reachable as
/// `dynplat::sim::jitter`, the path the examples and tests use.
pub mod sim {
    pub use dynplat_common::jitter;
}
