//! Causal trace contexts and the black-box flight recorder.
//!
//! [`TraceCtx`] is the unit of cross-crate causality: a `(trace_id, span)`
//! pair stamped on a message when it enters the platform and inherited by
//! everything that message causes — fabric hops, RPC responses, stream
//! chunks, scheduler dispatch, degradation transitions. One trace id then
//! reconstructs the full cross-ECU chain from any event log.
//!
//! [`FlightRecorder`] is the aircraft-style black box: a bounded ring of
//! trace-stamped [`TraceEvent`]s that keeps recording in steady state and,
//! when a trigger fires (fault detection, deadline miss, degradation
//! ladder transition), freezes a [`FlightDump`] — the last-N events plus a
//! point-in-time metrics snapshot — so the window *around* an incident
//! survives even though the ring itself keeps rolling.
//!
//! Everything is deterministic: timestamps are simulated nanoseconds
//! supplied by the caller, never wall time.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::json;
use crate::metrics::MetricsRegistry;
use crate::snapshot::MetricsSnapshot;

/// Schema tag stamped into every flight-dump JSON document.
pub const FLIGHT_SCHEMA: &str = "dynplat.flight.v1";

/// A causal trace context: trace id plus the id of the span (or message
/// leg) that produced the current work item.
///
/// `trace_id == 0` is reserved for "untraced" ([`TraceCtx::NONE`]); the
/// wire codec and the fabric skip all trace work for such messages, which
/// keeps the PR 3 fast path at a single branch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceCtx {
    /// Identifies the causal chain; stable across hops, responses and
    /// chunks. Zero means "no trace".
    pub trace_id: u64,
    /// Parent span (or message-leg) id within the trace.
    pub span: u64,
}

impl TraceCtx {
    /// The untraced context: carried for free, recorded nowhere.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span: 0,
    };

    /// A context with an explicit trace id and span.
    pub const fn new(trace_id: u64, span: u64) -> Self {
        TraceCtx { trace_id, span }
    }

    /// The root context of a new trace (span 0).
    pub const fn root(trace_id: u64) -> Self {
        TraceCtx { trace_id, span: 0 }
    }

    /// Whether this context belongs to a real trace.
    pub const fn is_active(self) -> bool {
        self.trace_id != 0
    }

    /// The same trace continued under a new span id — e.g. an RPC
    /// response inheriting the request's trace, or a stream chunk index.
    pub const fn child(self, span: u64) -> Self {
        TraceCtx {
            trace_id: self.trace_id,
            span,
        }
    }
}

/// One trace-stamped platform event in the flight-recorder ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time in nanoseconds.
    pub time_ns: u64,
    /// Causal context of the event ([`TraceCtx::NONE`] for platform-level
    /// events such as fault injections).
    pub trace: TraceCtx,
    /// Which pipeline stage emitted the event (e.g. `"comm.fabric.send"`).
    pub stage: &'static str,
    /// Free-form detail ("src=1 dst=2 class=Critical").
    pub detail: String,
}

/// A frozen incident window: the events that led up to a trigger plus the
/// metric state at that instant.
#[derive(Clone, Debug, PartialEq)]
pub struct FlightDump {
    /// Dump sequence number within the recorder (0 = first incident).
    pub seq: u64,
    /// Trigger time in simulated nanoseconds.
    pub time_ns: u64,
    /// Why the dump was frozen ("deadline miss", "ladder transition", …).
    pub reason: String,
    /// The ring contents at trigger time, oldest first.
    pub events: Vec<TraceEvent>,
    /// Point-in-time metrics (empty when the recorder has no registry).
    pub metrics: MetricsSnapshot,
}

impl FlightDump {
    /// Serializes the dump as a JSON document (schema
    /// [`FLIGHT_SCHEMA`]), parseable by [`crate::json::parse`].
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{FLIGHT_SCHEMA}\",");
        let _ = writeln!(out, "  \"seq\": {},", self.seq);
        let _ = writeln!(out, "  \"time_ns\": {},", self.time_ns);
        let _ = writeln!(out, "  \"reason\": \"{}\",", json::escape(&self.reason));
        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"time_ns\": {}, \"trace_id\": {}, \"span\": {}, \
                 \"stage\": \"{}\", \"detail\": \"{}\"}}",
                e.time_ns,
                e.trace.trace_id,
                e.trace.span,
                json::escape(e.stage),
                json::escape(&e.detail)
            );
        }
        out.push_str(if self.events.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        // Embed the snapshot document, re-indented to nest cleanly.
        out.push_str("  \"metrics\": ");
        let snap = self.metrics.to_json();
        for (i, line) in snap.trim_end().lines().enumerate() {
            if i > 0 {
                out.push_str("\n  ");
            }
            out.push_str(line);
        }
        out.push_str("\n}\n");
        out
    }
}

#[derive(Debug)]
struct FlightInner {
    events: VecDeque<TraceEvent>,
    total_events: u64,
    dumps: Vec<FlightDump>,
    dumps_suppressed: u64,
}

/// Incident dumps a [`FlightRecorder`] keeps; later triggers are counted.
const MAX_DUMPS: usize = 8;

/// A bounded, trigger-freezing event recorder.
///
/// Disabled by default so idle instrumentation costs one atomic load;
/// [`FlightRecorder::arm`] enables recording *and* allows triggers to
/// freeze dumps. The first eight incidents (`MAX_DUMPS`) are
/// kept (a black box preserves the *first* failure; later triggers are
/// usually consequences) and counted thereafter.
///
/// # Examples
///
/// ```
/// use dynplat_obs::{FlightRecorder, TraceCtx};
///
/// let fr = FlightRecorder::new(64);
/// fr.arm();
/// fr.record(10, TraceCtx::root(7), "comm.fabric.send", "dst=2");
/// fr.record(25, TraceCtx::root(7), "comm.fabric.deliver", "hops=1");
/// assert!(fr.trigger(30, "deadline miss").is_some());
/// let dumps = fr.dumps();
/// assert_eq!(dumps.len(), 1);
/// assert_eq!(dumps[0].events.len(), 2);
/// ```
#[derive(Debug)]
pub struct FlightRecorder {
    armed: AtomicBool,
    capacity: usize,
    registry: Option<Arc<MetricsRegistry>>,
    inner: Mutex<FlightInner>,
}

impl FlightRecorder {
    /// A recorder retaining the `capacity` most recent events, with no
    /// metrics registry (dumps carry an empty snapshot).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder::build(capacity, None)
    }

    /// A recorder whose dumps snapshot `registry` at trigger time.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_registry(capacity: usize, registry: Arc<MetricsRegistry>) -> Self {
        FlightRecorder::build(capacity, Some(registry))
    }

    fn build(capacity: usize, registry: Option<Arc<MetricsRegistry>>) -> Self {
        assert!(capacity > 0, "ring capacity must be non-zero");
        FlightRecorder {
            armed: AtomicBool::new(false),
            capacity,
            registry,
            inner: Mutex::new(FlightInner {
                events: VecDeque::with_capacity(capacity.min(1024)),
                total_events: 0,
                dumps: Vec::new(),
                dumps_suppressed: 0,
            }),
        }
    }

    /// Enables recording and arms triggers. There is no way back: a
    /// recorder stays armed for its lifetime.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Whether [`FlightRecorder::record`] stores events and triggers
    /// freeze dumps.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Records one event; a no-op unless the recorder is armed.
    pub fn record(
        &self,
        time_ns: u64,
        trace: TraceCtx,
        stage: &'static str,
        detail: impl Into<String>,
    ) {
        if !self.is_armed() {
            return;
        }
        let mut inner = self.inner.lock().expect("flight lock");
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(TraceEvent {
            time_ns,
            trace,
            stage,
            detail: detail.into(),
        });
        inner.total_events += 1;
    }

    /// Freezes a dump of the current ring (plus a metrics snapshot) — the
    /// hook instrumented code calls at incident sites. `None` when the
    /// recorder is not armed or the dump quota is exhausted.
    pub fn trigger(&self, time_ns: u64, reason: &str) -> Option<FlightDump> {
        if !self.is_armed() {
            return None;
        }
        let mut inner = self.inner.lock().expect("flight lock");
        if inner.dumps.len() >= MAX_DUMPS {
            inner.dumps_suppressed += 1;
            return None;
        }
        let dump = FlightDump {
            seq: inner.dumps.len() as u64,
            time_ns,
            reason: reason.to_owned(),
            events: inner.events.iter().cloned().collect(),
            metrics: self
                .registry
                .as_deref()
                .map(MetricsRegistry::snapshot)
                .unwrap_or_default(),
        };
        inner.dumps.push(dump.clone());
        Some(dump)
    }

    /// The frozen dumps, in trigger order.
    pub fn dumps(&self) -> Vec<FlightDump> {
        self.inner.lock().expect("flight lock").dumps.clone()
    }

    /// Current ring contents, oldest first.
    pub fn events(&self) -> Vec<TraceEvent> {
        let inner = self.inner.lock().expect("flight lock");
        inner.events.iter().cloned().collect()
    }

    /// Clears events and dumps; the armed state is unchanged.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("flight lock");
        inner.events.clear();
        inner.total_events = 0;
        inner.dumps.clear();
        inner.dumps_suppressed = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_children_share_trace_id() {
        assert!(!TraceCtx::NONE.is_active());
        let root = TraceCtx::root(9);
        assert!(root.is_active());
        let child = root.child(4);
        assert_eq!(child.trace_id, 9);
        assert_eq!(child.span, 4);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let fr = FlightRecorder::new(8);
        fr.record(1, TraceCtx::root(1), "stage", "detail");
        assert!(fr.events().is_empty());
        assert!(fr.trigger(2, "incident").is_none());
    }

    #[test]
    fn ring_evicts_oldest_and_dump_freezes_window() {
        let fr = FlightRecorder::new(3);
        fr.arm();
        for i in 0..5u64 {
            fr.record(i, TraceCtx::root(1).child(i), "s", format!("e{i}"));
        }
        assert_eq!(fr.inner.lock().unwrap().total_events, 5);
        let dump = fr.trigger(9, "overflow").expect("dump");
        assert_eq!(dump.events.len(), 3);
        assert_eq!(dump.events[0].detail, "e2");
        assert_eq!(dump.events[2].detail, "e4");
        // The ring keeps rolling after the freeze.
        fr.record(6, TraceCtx::NONE, "s", "e5");
        assert_eq!(fr.events().last().unwrap().detail, "e5");
        assert_eq!(fr.dumps().len(), 1);
    }

    #[test]
    fn dump_quota_keeps_first_incidents() {
        let fr = FlightRecorder::new(4);
        fr.arm();
        for i in 0..20u64 {
            fr.trigger(i, "t");
        }
        let dumps = fr.dumps();
        assert_eq!(dumps.len(), MAX_DUMPS);
        assert_eq!(dumps[0].time_ns, 0);
        assert_eq!(dumps.last().unwrap().time_ns, MAX_DUMPS as u64 - 1);
        assert_eq!(
            fr.inner.lock().unwrap().dumps_suppressed,
            20 - MAX_DUMPS as u64
        );
    }

    #[test]
    fn dump_json_parses_and_carries_metrics() {
        let registry = Arc::new(MetricsRegistry::new());
        registry.counter("flight.test.counter").add(7);
        let fr = FlightRecorder::with_registry(8, registry);
        fr.arm();
        fr.record(5, TraceCtx::new(3, 1), "comm.send", "needs \"escaping\"\n");
        let dump = fr.trigger(6, "why: \"quoted\"").expect("dump");
        let doc = json::parse(&dump.to_json()).expect("valid json");
        let obj = doc.as_object().expect("object");
        assert_eq!(
            obj.get("schema").and_then(|v| v.as_str()),
            Some(FLIGHT_SCHEMA)
        );
        assert_eq!(obj.get("time_ns").and_then(|v| v.as_u64()), Some(6));
        assert_eq!(
            obj.get("reason").and_then(|v| v.as_str()),
            Some("why: \"quoted\"")
        );
        let events = obj
            .get("events")
            .and_then(|v| v.as_array())
            .expect("events");
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].get("detail").and_then(|v| v.as_str()),
            Some("needs \"escaping\"\n")
        );
        let metrics = obj.get("metrics").expect("metrics");
        let counters = metrics.get("counters").and_then(|v| v.as_object()).unwrap();
        assert_eq!(
            counters.get("flight.test.counter").and_then(|v| v.as_u64()),
            Some(7)
        );
    }

    #[test]
    fn clear_resets_but_keeps_armed_state() {
        let fr = FlightRecorder::new(4);
        fr.arm();
        fr.record(1, TraceCtx::root(2), "s", "d");
        fr.trigger(2, "t");
        fr.clear();
        assert_eq!(fr.inner.lock().unwrap().total_events, 0);
        assert!(fr.dumps().is_empty());
        assert!(fr.is_armed());
    }
}
