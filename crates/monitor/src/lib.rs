//! Runtime monitoring (§3.4 of the paper).
//!
//! "Such monitoring capabilities need to especially target the key
//! parameters of deterministic applications, such as period, deadline,
//! jitter, memory usage, etc. With such monitoring capabilities, faults can
//! easily be detected, the conditions leading to such faults recorded and,
//! if an internet connection is available, be transferred to the
//! manufacturer for further examinations."
//!
//! * [`task`] — per-task observers checking period, deadline, jitter and
//!   memory against the application manifest's declared bounds;
//! * [`fault`] — fault records and the bounded fault recorder;
//! * [`report`] — diagnostic snapshots for the manufacturer backend and
//!   certification data sets;
//! * [`anomaly`] — EWMA drift detection that warns while the "conditions
//!   leading to such faults" are still building up;
//! * [`uncertainty`] — confidence-interval estimators (regression bands,
//!   boundary-exceedance probabilities) that turn monitored parameters
//!   into the distributions the uncertainty-driven adaptation layer
//!   consumes;
//! * [`slo`] — burn-rate SLO gating: error-budget objectives whose
//!   multi-window burn rates arm the flight recorder and feed a
//!   [`BoundaryEstimator`], tripping on confident budget violation and
//!   pairing every trip with a flight-recorder dump.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod anomaly;
pub mod fault;
pub mod report;
pub mod slo;
pub mod task;
pub mod uncertainty;

pub use anomaly::{DriftDetector, DriftVerdict};
pub use fault::{Fault, FaultKind, FaultRecorder};
pub use report::{CertificationDataSet, DiagnosticReport};
pub use slo::{SloBurnGate, SloSpec, SloVerdict};
pub use task::{MonitorSpec, TaskMonitor, TaskObservation};
pub use uncertainty::{normal_cdf, BoundaryEstimator, RollingRegression};
