//! Observability substrate for the dynamic platform (§3.4).
//!
//! The paper makes runtime monitoring of "the key parameters of
//! deterministic applications, such as period, deadline, jitter, memory
//! usage" a platform duty, and the ROADMAP's north star — "as fast as the
//! hardware allows" — is unverifiable without a measurement substrate.
//! This crate is that substrate, dependency-free by construction:
//!
//! * [`metrics`] — a [`MetricsRegistry`] of counters, gauges and
//!   histograms keyed by static names. Registration locks briefly once
//!   per call site; every update afterwards is a few relaxed atomics,
//!   cheap enough for the fabric's delivery loop;
//! * [`mod@sketch`] — the one log-linear bucket layout (≤ 1/32 relative
//!   quantile error) shared by [`Histogram`], [`LocalHistogram`] and the
//!   sparse [`Sketch`], whose merge is associative and commutative, so
//!   fleet-wide aggregates are byte-identical no matter how vehicles
//!   were sharded;
//! * [`snapshot`] — point-in-time copies of a registry, with one
//!   [`HistogramSnapshot`] type for every quantile structure and two
//!   encoders: Prometheus text exposition and the machine-readable
//!   `BENCH_*.json` shape the CI perf gate diffs against a checked-in
//!   baseline;
//! * [`json`] — the minimal JSON reader backing snapshot round-trips;
//! * [`timeseries`] — fixed-capacity delta-encoded rings of periodic
//!   registry snapshots (`dynplat.telemetry.v1`);
//! * [`exemplar`] — top-K worst-value [`TraceCtx`] exemplars linking
//!   tail latencies back to concrete traces;
//! * [`trace`] — causal [`TraceCtx`] stamps and the [`FlightRecorder`]
//!   black box that freezes incident windows as [`FlightDump`]s;
//! * [`chrome`] — Chrome-trace export of [`SpanRecord`] trees.
//!
//! Instrumented crates (`comm`, `sched`, `core`, `faults`, `monitor`,
//! `bench`) emit into the process-wide [`global`] registry through the
//! [`counter!`], [`gauge!`] and [`histogram!`] macros,
//! which cache the resolved handle in a per-call-site `OnceLock`:
//!
//! ```
//! dynplat_obs::counter!("doc.example.events").inc();
//! dynplat_obs::histogram!("doc.example.latency_ns").record(1_250);
//! assert!(dynplat_obs::global().snapshot().counters["doc.example.events"] >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod exemplar;
pub mod json;
pub mod metrics;
pub mod sketch;
pub mod snapshot;
pub mod timeseries;
pub mod trace;

pub use chrome::SpanRecord;
pub use exemplar::{Exemplar, ExemplarSet, LocalExemplars, DEFAULT_EXEMPLARS};
pub use metrics::{Counter, Gauge, Histogram, LocalHistogram, MetricsRegistry, COUNTER_STRIPES};
pub use sketch::{
    sketch_bucket_index, sketch_bucket_lower, sketch_bucket_upper, Sketch, SKETCH_MAX_INDEX,
    SKETCH_SUB, SKETCH_SUBBITS,
};
pub use snapshot::{HistogramSnapshot, MetricsSnapshot, SNAPSHOT_SCHEMA};
pub use timeseries::{SeriesPoint, TelemetryRing, TELEMETRY_SCHEMA};
pub use trace::{FlightDump, FlightRecorder, TraceCtx, TraceEvent, FLIGHT_SCHEMA};

use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<MetricsRegistry>> = OnceLock::new();
static GLOBAL_FLIGHT: OnceLock<Arc<FlightRecorder>> = OnceLock::new();

/// The process-wide registry every instrumented crate emits into.
pub fn global() -> &'static MetricsRegistry {
    global_arc()
}

/// The process-wide registry as a shareable handle (e.g. to back a
/// `monitor::FaultRecorder`).
pub fn global_arc() -> &'static Arc<MetricsRegistry> {
    GLOBAL.get_or_init(|| Arc::new(MetricsRegistry::new()))
}

/// The process-wide flight recorder (ring capacity 4096, snapshots the
/// [`global`] registry). Disabled until [`FlightRecorder::arm`] is
/// called, so instrumented hot paths pay one atomic load by default.
pub fn flight_recorder() -> &'static Arc<FlightRecorder> {
    GLOBAL_FLIGHT
        .get_or_init(|| Arc::new(FlightRecorder::with_registry(4096, global_arc().clone())))
}

/// Resolves a counter in the [`global`] registry, caching the handle in a
/// per-call-site static.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Resolves a gauge in the [`global`] registry, caching the handle in a
/// per-call-site static.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Resolves a histogram in the [`global`] registry, caching the handle in
/// a per-call-site static.
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Histogram>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name))
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_hit_the_global_registry() {
        counter!("obs.test.counter").add(2);
        gauge!("obs.test.gauge").set(9);
        histogram!("obs.test.hist").record(123);
        let snap = crate::global().snapshot();
        assert!(snap.counters["obs.test.counter"] >= 2);
        assert_eq!(snap.gauges["obs.test.gauge"], 9);
        assert!(snap.histograms["obs.test.hist"].count >= 1);
    }
}
