//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark's own code around each call
//! into a layer (and around the isolated sub-layer replays). Unlike
//! `dynplat_obs::Tracer`, which stamps spans with logical ticks, this one
//! reads the wall clock: its spans are host time in ns since the recorder
//! was made. Closed spans are kept in memory as `dynplat_obs::SpanRecord`s
//! (id and parent id) and written out with `dynplat_obs::chrome` when the
//! run ends. Self time (a span's duration minus the part its child spans
//! cover) is folded into per-name totals as spans close. With tracing off
//! every call is a single branch.

use dynplat_obs::SpanRecord;
use std::time::Instant;

/// Spans kept for the trace file; totals keep counting past this.
const KEPT_SPANS: usize = 1 << 20;

/// Accumulated time of all spans sharing one name.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Summed span durations, ns.
    pub ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: u64,
    child_ns: u64,
}

/// The span recorder. Disabled recorders ignore every call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<Open>,
    records: Vec<SpanRecord>,
    totals: Vec<(&'static str, Totals)>,
}

impl Tracer {
    /// A recorder; `on = false` makes every call a no-op.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: 0,
            stack: Vec::with_capacity(16),
            records: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
            totals: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        self.next_id += 1;
        let parent = self.stack.last().map(|o| o.id);
        let start = self.now();
        self.stack.push(Open {
            name,
            id: self.next_id,
            parent,
            start,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let open = self.stack.pop().expect("end() without a matching begin()");
        let dur = end - open.start;
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = match self.totals.iter_mut().find(|(n, _)| *n == open.name) {
            Some((_, t)) => t,
            None => {
                self.totals.push((open.name, Totals::default()));
                &mut self.totals.last_mut().expect("just pushed").1
            }
        };
        t.ns += dur;
        t.self_ns += dur.saturating_sub(open.child_ns);
        t.count += 1;
        if self.records.len() < KEPT_SPANS {
            self.records.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start: open.start,
                end,
            });
        }
    }

    /// Totals of the spans named `name` (zero if none closed).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Totals::default, |(_, t)| *t)
    }

    /// Totals summed over every span name starting with `prefix`.
    pub fn totals_prefix(&self, prefix: &str) -> Totals {
        self.totals
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .fold(Totals::default(), |a, (_, t)| Totals {
                ns: a.ns + t.ns,
                self_ns: a.self_ns + t.self_ns,
                count: a.count + t.count,
            })
    }

    /// The kept spans, in closing order.
    pub fn finished(&self) -> &[SpanRecord] {
        &self.records
    }
}
