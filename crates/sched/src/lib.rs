//! RTOS scheduling substrate for the dynamic platform.
//!
//! §3.1 of the paper ("CPU") demands that deterministic applications with
//! fixed activation intervals and computation deadlines keep their schedule
//! even when non-deterministic applications run side-by-side, and that new
//! schedules for changed application sets are synthesized and validated in
//! the backend. This crate provides the full toolbox:
//!
//! * [`task`] — the periodic task model shared by all analyses;
//! * [`rta`] — fixed-priority preemptive response-time analysis;
//! * [`edf`] — EDF utilization and processor-demand tests;
//! * [`tt`] — time-triggered schedule synthesis on the hyperperiod, with
//!   incremental insertion (minimal disturbance) and full resynthesis;
//! * [`server`] — periodic-resource (budget) servers and the compositional
//!   supply/demand admission test used to sandbox NDA load;
//! * [`simulate`] — a scheduler simulator measuring response times,
//!   jitter and deadline misses under several policies (the E2 engine);
//! * [`admission`] — online admission control for new applications;
//! * [`manage`] — the schedule-management framework of \[21\]: local
//!   incremental synthesis vs. cloud-based full resynthesis;
//! * [`sensitivity`] — critical scaling factors: how much WCET uncertainty
//!   a configuration absorbs before becoming unschedulable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod edf;
pub mod manage;
pub mod rta;
pub mod sensitivity;
pub mod server;
pub mod simulate;
pub mod task;
pub mod tt;

pub use admission::{AdmissionController, AdmissionDecision, AdmissionError};
pub use manage::{ScheduleManager, SynthesisBackend, SynthesisOutcome};
pub use rta::{assign_deadline_monotonic, response_times, RtaResult};
pub use sensitivity::critical_scaling_factor;
pub use server::{PeriodicServer, ServerAnalysis};
pub use simulate::{simulate_schedule, Policy, SchedSimConfig, SchedStats, Simulator};
pub use task::{TaskSet, TaskSpec};
pub use tt::{TtEntry, TtSchedule, TtSynthesisError};
