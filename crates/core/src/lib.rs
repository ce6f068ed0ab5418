//! The dynamic platform — the paper's primary contribution (§1.1, Fig. 2).
//!
//! "These applications are hosted on the dynamic platform, which forms the
//! core of the new E/E architecture. This dynamic platform can logically be
//! located across multiple hardware elements and operating systems. … The
//! dynamic platform integrates functionality common to multiple
//! applications": communication services, scheduling of deterministic and
//! non-deterministic tasks, logging, persistence and diagnosis.
//!
//! * [`app`] — application manifests and the lifecycle state machine (the
//!   app is the smallest unit of addition and update);
//! * [`process`] — memory freedom-of-interference: process-group
//!   assignment driven by MMU availability (§3.1 "Memory");
//! * [`node`] — one platform node per ECU: admission control, process
//!   manager, instances;
//! * [`platform`] — the multi-node platform: secure installation (signed
//!   packages, update master for weak ECUs), service offers/subscriptions,
//!   authorized binding (§4.2), lifecycle commands;
//! * [`update`] — update safety (§3.2): the 4-phase staged update, the
//!   stop-update-restart baseline, the fragile centralized clock-switch
//!   baseline, and dependency-ordered distributed update paths;
//! * [`redundancy`] — fail-operational behavior (§3.3): master/slave
//!   instance groups with heartbeat supervision and failover;
//! * [`degradation`] — the criticality-aware degradation ladder (§3.3):
//!   Full → Degraded → LimpHome under fault pressure, shedding
//!   non-deterministic load before deterministic load, with hysteresis on
//!   recovery.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod degradation;
pub mod node;
pub mod platform;
pub mod process;
pub mod redundancy;
pub mod update;

pub use app::{AppManifest, LifecycleState};
pub use degradation::DegradationManager;
pub use node::{NodeError, PlatformNode};
pub use platform::{DynamicPlatform, PlatformError};
pub use process::{ProcessGroupId, ProcessManager};
pub use redundancy::{RedundancyError, RedundancyGroup, Role};
pub use update::{
    centralized_switch_update, staged_update, stop_restart_update, UpdateReport, UpdateStrategy,
};
