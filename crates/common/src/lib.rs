//! Common foundation types for the `dynplat` workspace.
//!
//! This crate collects the vocabulary shared by every other `dynplat` crate:
//!
//! * [`time`] — simulated time ([`SimTime`], [`SimDuration`]) with nanosecond
//!   resolution, the base clock of all discrete-event simulations;
//! * [`ids`] — strongly typed identifiers for ECUs, applications, services,
//!   tasks, buses and so on (newtypes per C-NEWTYPE);
//! * [`criticality`] — ASIL levels and the deterministic / non-deterministic
//!   application split of the paper's §3.1 application model;
//! * [`codec`] — small big-endian byte reader/writer used by every wire
//!   format in the workspace;
//! * [`value`] — the "complex objects, defined by complex data types" of the
//!   paper's §2.2 interface model: a self-describing [`DataType`] schema and
//!   matching [`Value`] runtime representation with binary codecs;
//! * [`rng`] — deterministic random-number helpers so every experiment is
//!   reproducible from a seed;
//! * [`jitter`] — the execution-time, clock and measurement-noise
//!   uncertainty models the simulators draw from;
//! * [`uncertainty`] — the distribution-valued observation type
//!   ([`UncertaintyEstimate`]) the uncertainty-aware adaptation layer
//!   exchanges between monitor, core and comm.
//!
//! # Examples
//!
//! ```
//! use dynplat_common::time::{SimDuration, SimTime};
//!
//! let t = SimTime::ZERO + SimDuration::from_millis(10);
//! assert_eq!(t.as_nanos(), 10_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod criticality;
pub mod ids;
pub mod jitter;
pub mod rng;
pub mod time;
pub mod uncertainty;
pub mod value;

pub use codec::{ByteReader, ByteWriter, CodecError};
pub use criticality::{AppKind, Asil, DegradationLevel};
pub use ids::{
    AppId, BusId, EcuId, EventGroupId, InstanceId, LinkId, MessageId, MethodId, NodeId, ServiceId,
    ShardId, TaskId, VehicleId,
};
pub use time::{SimDuration, SimTime};
pub use uncertainty::UncertaintyEstimate;
pub use value::{DataType, Value};
