//! Sharded fleet engine and staged OTA campaign backend (§3.2, §4.1).
//!
//! The paper's update master is not a per-vehicle tool: §4.1 frames
//! software updates as a *fleet* operation, where the backend must manage
//! uncertainty at scale — heterogeneous hardware variants, vehicles that
//! are offline or starved for flash, lossy and partitioned networks, and
//! images that turn out to be broken only once thousands of vehicles have
//! verified them. This crate reproduces that backend over the repo's
//! deterministic substrate:
//!
//! * [`variant`] — heterogeneous [`HwVariant`]s and per-variant admission
//!   ([`HwVariant::admit`]): A/B flash headroom, then §3.2's check of the
//!   update "against the current configuration of the installing vehicle"
//!   (installed versions, overlap memory and CPU, dependencies) — the
//!   scaling problem of fleet campaigns;
//! * [`vehicle`] — the closed-form per-vehicle OTA pipeline (admission →
//!   chunked download → install → verify) under a `dynplat_faults`
//!   [`FaultPlan`](dynplat_faults::FaultPlan), with all randomness keyed
//!   by vehicle id;
//! * [`shard`] — the [`ShardPool`]: one sim kernel per thread, each wave
//!   tiled into contiguous vehicle-id slices, so the merge is a
//!   concatenation that is byte-identical across shard counts;
//! * [`campaign`] — the [`UpdateMaster`]: staged rollout waves, a
//!   wave-promotion gate driven by `dynplat_monitor`'s
//!   [`BoundaryEstimator`](dynplat_monitor::uncertainty::BoundaryEstimator)
//!   over the verification failure-rate distribution, and the rollback
//!   storm a tripped gate produces.
//!
//! Experiment **E15** (`dynplat-bench`) runs three campaign arms — quiet,
//! degraded network, broken image — over 10⁵-vehicle fleets and emits the
//! `dynplat.e15.v1` report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod shard;
pub mod variant;
pub mod vehicle;

pub use campaign::{CampaignReport, CampaignSpec, SpecError, UpdateMaster, WaveGate, WaveReport};
pub use shard::{ShardMetrics, ShardPool};
pub use variant::{pick_variant, standard_mix, HwVariant, ImageSpec, Reject};
pub use vehicle::{region_of, simulate_vehicle, VehicleOutcome, VehicleVerdict};
