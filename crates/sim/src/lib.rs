//! Uncertainty models for the `dynplat` simulations.
//!
//! The paper (§2.3) calls for simulation as the assurance instrument for
//! dynamic platforms: every possible mapping must be shown functional, safe
//! and secure before it is allowed on the road. Each simulator in the
//! workspace runs its own event loop; what they share is the [`jitter`]
//! module's execution-time, clock and measurement-noise models, the
//! "uncertainty" of the paper's title made concrete. The scheduler
//! simulation in `dynplat-sched` draws execution times from them, the
//! update orchestration in `dynplat-core` drifts ECU clocks with them, and
//! the benchmarks add sensor noise with them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jitter;
