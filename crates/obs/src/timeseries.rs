//! Fixed-capacity time series of registry snapshots
//! (`dynplat.telemetry.v1`).
//!
//! A [`crate::MetricsSnapshot`] is one instant; fleet operations need the
//! *trajectory* — error fractions per wave, queue depths per window —
//! without shipping a full snapshot per sample. A [`TelemetryRing`] keeps
//! the last `capacity` periodic samples of counters and gauges (a
//! histogram's quantile trajectory rides along as a gauge) and
//! exports them delta-encoded: the first point is absolute, every later
//! point carries only the names whose values changed, counters as
//! wrapping `u64` deltas (lossless even across resets, since
//! `prev.wrapping_add(delta)` inverts `cur.wrapping_sub(prev)` exactly)
//! and gauges as absolute values.
//!
//! Encoding is deterministic (sorted names, fixed layout), so the merged
//! fleet telemetry of a seeded campaign is byte-identical across shard
//! counts and reruns — the same invariant CI pins for E15 results.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, JsonValue};
use crate::snapshot::MetricsSnapshot;

/// Schema tag stamped into every telemetry JSON document.
pub const TELEMETRY_SCHEMA: &str = "dynplat.telemetry.v1";

/// One absolute sample: every counter and gauge value at `t_ns`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeriesPoint {
    /// Sample time in simulated nanoseconds.
    pub t_ns: u64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
}

/// A bounded ring of periodic snapshot samples.
///
/// # Examples
///
/// ```
/// use dynplat_obs::{MetricsRegistry, TelemetryRing};
///
/// let registry = MetricsRegistry::new();
/// let mut ring = TelemetryRing::new(16);
/// registry.counter("doc.events").add(3);
/// ring.sample(1_000, &registry.snapshot());
/// registry.counter("doc.events").add(2);
/// ring.sample(2_000, &registry.snapshot());
/// let encoded = ring.to_json();
/// let decoded = TelemetryRing::from_json(&encoded).unwrap();
/// assert_eq!(decoded, ring);
/// assert_eq!(decoded.to_json(), encoded);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryRing {
    capacity: usize,
    points: Vec<SeriesPoint>,
}

impl TelemetryRing {
    /// A ring retaining the `capacity` most recent samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "telemetry ring capacity must be non-zero");
        TelemetryRing {
            capacity,
            points: Vec::new(),
        }
    }

    /// Records one sample of `snapshot` at `t_ns`, evicting the oldest
    /// sample when full. Histograms are not carried per point — flush
    /// the quantiles you need into gauges first (that is the sanctioned
    /// histogram/timeseries path; see the `no-snapshot-in-hot-path`
    /// lint).
    pub fn sample(&mut self, t_ns: u64, snapshot: &MetricsSnapshot) {
        self.push(SeriesPoint {
            t_ns,
            counters: snapshot.counters.clone(),
            gauges: snapshot.gauges.clone(),
        });
    }

    /// Appends a pre-built point, evicting the oldest when full.
    pub fn push(&mut self, point: SeriesPoint) {
        if self.points.len() == self.capacity {
            self.points.remove(0);
        }
        self.points.push(point);
    }

    /// The delta-encoded JSON document (schema [`TELEMETRY_SCHEMA`]).
    ///
    /// Layout: the first point is absolute (`counters`/`gauges`); every
    /// later point lists only changed names — counters under `dc` as
    /// wrapping deltas, gauges under `dg` as absolute values. Names never
    /// seen before delta against 0; names omitted carry forward.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{TELEMETRY_SCHEMA}\",");
        let _ = writeln!(out, "  \"capacity\": {},", self.capacity);
        out.push_str("  \"points\": [");
        let mut prev: Option<&SeriesPoint> = None;
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {{\"t_ns\": {}", p.t_ns);
            match prev {
                None => {
                    write_map(&mut out, "counters", p.counters.iter());
                    write_map(&mut out, "gauges", p.gauges.iter());
                }
                Some(base) => {
                    let dc: Vec<(&String, u64)> = p
                        .counters
                        .iter()
                        .filter(|(k, v)| base.counters.get(*k) != Some(v))
                        .map(|(k, v)| {
                            (
                                k,
                                v.wrapping_sub(base.counters.get(k).copied().unwrap_or(0)),
                            )
                        })
                        .collect();
                    let dg: Vec<(&String, i64)> = p
                        .gauges
                        .iter()
                        .filter(|(k, v)| base.gauges.get(*k) != Some(v))
                        .map(|(k, v)| (k, *v))
                        .collect();
                    write_map(&mut out, "dc", dc.iter().map(|(k, v)| (*k, v)));
                    write_map(&mut out, "dg", dg.iter().map(|(k, v)| (*k, v)));
                }
            }
            out.push('}');
            prev = Some(p);
        }
        out.push_str(if self.points.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }

    /// Parses a telemetry document back into absolute points.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed element.
    pub fn from_json(input: &str) -> Result<TelemetryRing, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let obj = doc.as_object().ok_or("telemetry must be a JSON object")?;
        let schema = obj
            .get("schema")
            .and_then(JsonValue::as_str)
            .ok_or("telemetry missing schema")?;
        if schema != TELEMETRY_SCHEMA {
            return Err(format!("unknown telemetry schema {schema:?}"));
        }
        let capacity = obj
            .get("capacity")
            .and_then(JsonValue::as_u64)
            .ok_or("telemetry missing capacity")? as usize;
        if capacity == 0 {
            return Err("telemetry capacity must be non-zero".to_owned());
        }
        let mut ring = TelemetryRing::new(capacity);
        let points = obj
            .get("points")
            .and_then(JsonValue::as_array)
            .ok_or("telemetry missing points")?;
        let mut prev: Option<SeriesPoint> = None;
        for (i, pt) in points.iter().enumerate() {
            let t_ns = pt
                .get("t_ns")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("point {i} missing t_ns"))?;
            let mut point = match &prev {
                None => SeriesPoint {
                    t_ns,
                    counters: read_u64_map(pt, "counters", i)?,
                    gauges: read_i64_map(pt, "gauges", i)?,
                },
                Some(base) => {
                    let mut point = SeriesPoint {
                        t_ns,
                        counters: base.counters.clone(),
                        gauges: base.gauges.clone(),
                    };
                    for (k, d) in read_u64_map(pt, "dc", i)? {
                        let cur = point.counters.get(&k).copied().unwrap_or(0);
                        point.counters.insert(k, cur.wrapping_add(d));
                    }
                    for (k, v) in read_i64_map(pt, "dg", i)? {
                        point.gauges.insert(k, v);
                    }
                    point
                }
            };
            point.t_ns = t_ns;
            prev = Some(point.clone());
            ring.push(point);
        }
        Ok(ring)
    }
}

fn write_map<'a, V: std::fmt::Display + 'a>(
    out: &mut String,
    key: &str,
    entries: impl Iterator<Item = (&'a String, V)>,
) {
    let _ = write!(out, ", \"{key}\": {{");
    for (i, (name, value)) in entries.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": {}", json::escape(name), value);
    }
    out.push('}');
}

fn read_u64_map(pt: &JsonValue, key: &str, i: usize) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    if let Some(m) = pt.get(key) {
        let m = m
            .as_object()
            .ok_or_else(|| format!("point {i} {key} must be an object"))?;
        for (k, v) in m {
            let v = v
                .as_u64()
                .ok_or_else(|| format!("point {i} {key} {k} not u64"))?;
            out.insert(k.clone(), v);
        }
    }
    Ok(out)
}

fn read_i64_map(pt: &JsonValue, key: &str, i: usize) -> Result<BTreeMap<String, i64>, String> {
    let mut out = BTreeMap::new();
    if let Some(m) = pt.get(key) {
        let m = m
            .as_object()
            .ok_or_else(|| format!("point {i} {key} must be an object"))?;
        for (k, v) in m {
            let v = v
                .as_i64()
                .ok_or_else(|| format!("point {i} {key} {k} not i64"))?;
            out.insert(k.clone(), v);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    fn ring_of(registry: &MetricsRegistry, steps: &[(u64, u64)]) -> TelemetryRing {
        let mut ring = TelemetryRing::new(8);
        let c = registry.counter("ts.test.events");
        let g = registry.gauge("ts.test.level");
        for &(t, add) in steps {
            c.add(add);
            g.set(add as i64 - 1);
            ring.sample(t, &registry.snapshot());
        }
        ring
    }

    #[test]
    fn round_trip_is_lossless_and_byte_stable() {
        let registry = MetricsRegistry::new();
        let ring = ring_of(&registry, &[(100, 3), (200, 0), (300, 7)]);
        let encoded = ring.to_json();
        let decoded = TelemetryRing::from_json(&encoded).expect("parse");
        assert_eq!(decoded.points, ring.points);
        assert_eq!(decoded.capacity, ring.capacity);
        assert_eq!(decoded.to_json(), encoded, "re-encoding is byte-identical");
    }

    #[test]
    fn unchanged_values_are_omitted_from_deltas() {
        let registry = MetricsRegistry::new();
        let ring = ring_of(&registry, &[(100, 3), (200, 0)]);
        let encoded = ring.to_json();
        // The second point changed the gauge (3-1=2 -> -1) but not the
        // counter, so `dc` must be empty while `dg` carries the gauge.
        let second = encoded
            .split("{\"t_ns\": 200")
            .nth(1)
            .expect("second point");
        assert!(second.starts_with(", \"dc\": {}"), "got {second}");
        assert!(second.contains("\"dg\": {\"ts.test.level\": -1}"));
    }

    #[test]
    fn counter_reset_survives_via_wrapping_deltas() {
        let mut ring = TelemetryRing::new(4);
        let mut p1 = SeriesPoint {
            t_ns: 1,
            ..Default::default()
        };
        p1.counters.insert("c".into(), 10);
        let mut p2 = SeriesPoint {
            t_ns: 2,
            ..Default::default()
        };
        p2.counters.insert("c".into(), 3); // registry was reset mid-series
        ring.push(p1);
        ring.push(p2);
        let decoded = TelemetryRing::from_json(&ring.to_json()).expect("parse");
        assert_eq!(decoded.points[1].counters["c"], 3);
    }

    #[test]
    fn ring_evicts_oldest() {
        let registry = MetricsRegistry::new();
        let mut ring = TelemetryRing::new(2);
        for t in 1..=5u64 {
            registry.counter("ts.evict").inc();
            ring.sample(t, &registry.snapshot());
        }
        assert_eq!(ring.points.len(), 2);
        assert_eq!(ring.points[0].t_ns, 4);
        assert_eq!(ring.points[1].counters["ts.evict"], 5);
    }

    #[test]
    fn late_appearing_names_delta_against_zero() {
        let mut ring = TelemetryRing::new(4);
        ring.push(SeriesPoint {
            t_ns: 1,
            ..Default::default()
        });
        let mut p2 = SeriesPoint {
            t_ns: 2,
            ..Default::default()
        };
        p2.counters.insert("born.late".into(), 9);
        ring.push(p2);
        let decoded = TelemetryRing::from_json(&ring.to_json()).expect("parse");
        assert_eq!(decoded.points[1].counters["born.late"], 9);
        assert!(decoded.points[0].counters.is_empty());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(TelemetryRing::from_json("[]").is_err());
        assert!(TelemetryRing::from_json("{\"schema\": \"other.v1\"}").is_err());
        assert!(TelemetryRing::from_json(
            "{\"schema\": \"dynplat.telemetry.v1\", \"capacity\": 0, \"points\": []}"
        )
        .is_err());
        assert!(TelemetryRing::from_json(
            "{\"schema\": \"dynplat.telemetry.v1\", \"capacity\": 2, \"points\": [{\"t_ns\": 1, \"counters\": {\"a\": -4}}]}"
        )
        .is_err());
    }

    #[test]
    fn empty_ring_round_trips() {
        let ring = TelemetryRing::new(3);
        let decoded = TelemetryRing::from_json(&ring.to_json()).expect("parse");
        assert_eq!(decoded, ring);
    }
}
