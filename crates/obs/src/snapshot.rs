//! Point-in-time metric snapshots and their encoders.
//!
//! Two output shapes, one source of truth:
//!
//! * **Prometheus exposition** ([`MetricsSnapshot::to_prometheus`]) for
//!   humans and scrapers — names are sanitized (`.` → `_`), and every
//!   histogram is one Prometheus `histogram` with cumulative
//!   `_bucket{le=…}` rows over its non-empty buckets;
//! * **`BENCH_*.json`** ([`MetricsSnapshot::to_json`] /
//!   [`MetricsSnapshot::from_json`]) — the machine-readable benchmark
//!   artifact CI uploads and the perf gate diffs. The JSON round-trips
//!   losslessly (see tests), so a checked-in baseline can be compared
//!   field by field, and the decoder rejects histograms whose buckets do
//!   not add up.
//!
//! [`HistogramSnapshot`] is the one snapshot type of every quantile
//! structure: [`crate::Histogram::snapshot`] produces it, and a
//! [`crate::Sketch`] reaches it through [`crate::Histogram::merge`].

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, JsonValue};

/// Schema tag stamped into every JSON snapshot.
pub const SNAPSHOT_SCHEMA: &str = "dynplat.bench.v1";

/// Aggregate state of one histogram or sketch at snapshot time.
///
/// Buckets are layout-independent `(upper_bound, count)` pairs (inclusive
/// upper bounds, strictly ascending, non-empty only), so snapshots decode
/// and merge without knowing the bucket layout that produced them. The
/// quantiles follow one rule: the upper bound of the bucket holding the
/// nearest-rank observation, clamped to `[min, max]`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations (the sum of the bucket counts).
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median (bucket upper bound, clamped to `[min, max]`).
    pub p50: u64,
    /// 95th percentile (bucket upper bound, clamped to `[min, max]`).
    pub p95: u64,
    /// 99th percentile (bucket upper bound, clamped to `[min, max]`).
    pub p99: u64,
    /// Non-empty `(upper_bound, count)` buckets, ascending by bound.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Builds a snapshot from its buckets: `count` is their total and the
    /// stored quantiles are ranked against that same read, so
    /// [`HistogramSnapshot::quantile`] reproduces them exactly.
    pub(crate) fn from_buckets(buckets: Vec<(u64, u64)>, sum: u64, min: u64, max: u64) -> Self {
        let mut snap = HistogramSnapshot {
            count: buckets.iter().fold(0, |acc, &(_, n)| acc.saturating_add(n)),
            sum,
            min,
            max,
            buckets,
            ..Default::default()
        };
        snap.p50 = snap.quantile(0.50);
        snap.p95 = snap.quantile(0.95);
        snap.p99 = snap.quantile(0.99);
        snap
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank quantile recomputed from the stored buckets (`q` in
    /// `[0, 1]`), clamped to `[min, max]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        nearest_rank(
            self.buckets.iter().copied(),
            self.count,
            q,
            self.min,
            self.max,
        )
    }

    /// Folds `other` into `self`, summing counts bucket-wise and
    /// recomputing the derived quantiles. Associative and commutative
    /// like [`crate::Sketch::merge`], so per-shard snapshots can be merged
    /// in any tree without changing the aggregate.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        *self = HistogramSnapshot::from_buckets(
            merge_buckets(&self.buckets, &other.buckets),
            self.sum.saturating_add(other.sum),
            self.min.min(other.min),
            self.max.max(other.max),
        );
    }
}

/// The one quantile rule: the upper bound of the bucket holding the
/// nearest-rank observation out of `count`, clamped to `[min, max]`; 0
/// when empty. `buckets` yields `(upper_bound, count)` in ascending order.
pub(crate) fn nearest_rank(
    buckets: impl IntoIterator<Item = (u64, u64)>,
    count: u64,
    q: f64,
    min: u64,
    max: u64,
) -> u64 {
    if count == 0 {
        return 0;
    }
    let target = ((count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
    let mut acc = 0u64;
    for (upper, n) in buckets {
        acc = acc.saturating_add(n);
        if acc >= target {
            // Not `clamp`: a snapshot racing concurrent flushes may read
            // `min` newer than `max`, and a quantile must not panic.
            return upper.max(min).min(max);
        }
    }
    max
}

/// Merges two bucket lists sorted by key, summing the counts of equal
/// keys. Associative and commutative.
pub(crate) fn merge_buckets<K: Ord + Copy>(a: &[(K, u64)], b: &[(K, u64)]) -> Vec<(K, u64)> {
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut a, mut b) = (a.iter().peekable(), b.iter().peekable());
    loop {
        let next = match (a.peek(), b.peek()) {
            (Some(&&(ka, na)), Some(&&(kb, nb))) => match ka.cmp(&kb) {
                std::cmp::Ordering::Less => a.next().copied(),
                std::cmp::Ordering::Greater => b.next().copied(),
                std::cmp::Ordering::Equal => {
                    a.next();
                    b.next();
                    Some((ka, na.saturating_add(nb)))
                }
            },
            _ => a.next().or_else(|| b.next()).copied(),
        };
        match next {
            Some(e) => merged.push(e),
            None => return merged,
        }
    }
}

/// A point-in-time copy of a whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Replaces every character outside `[a-zA-Z0-9_:]` with `_` (Prometheus
/// metric-name charset).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

impl MetricsSnapshot {
    /// Prometheus text exposition of the snapshot.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n}_total counter");
            let _ = writeln!(out, "{n}_total {value}");
        }
        for (name, value) in &self.gauges {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {value}");
        }
        for (name, h) in &self.histograms {
            let n = sanitize(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut acc = 0u64;
            for (bound, count) in &h.buckets {
                acc += count;
                if *bound == u64::MAX {
                    continue; // folded into +Inf below
                }
                let _ = writeln!(out, "{n}_bucket{{le=\"{bound}\"}} {acc}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        out
    }

    /// The `BENCH_*.json` encoding (deterministic key order, 2-space
    /// indent).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{SNAPSHOT_SCHEMA}\",");
        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, value) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json::escape(name), value);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        let mut first = true;
        for (name, value) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json::escape(name), value);
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                json::escape(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
            for (i, (bound, count)) in h.buckets.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{bound}, {count}]");
            }
            out.push_str("]}");
        }
        out.push_str(if first { "}\n" } else { "\n  }\n" });
        out.push_str("}\n");
        out
    }

    /// Parses a snapshot back from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed element.
    pub fn from_json(input: &str) -> Result<MetricsSnapshot, String> {
        let doc = json::parse(input).map_err(|e| e.to_string())?;
        let obj = doc.as_object().ok_or("snapshot must be a JSON object")?;
        if let Some(schema) = obj.get("schema") {
            let s = schema.as_str().ok_or("schema must be a string")?;
            if s != SNAPSHOT_SCHEMA {
                return Err(format!("unknown snapshot schema {s:?}"));
            }
        }
        let mut snap = MetricsSnapshot::default();
        if let Some(counters) = obj.get("counters") {
            let m = counters.as_object().ok_or("counters must be an object")?;
            for (k, v) in m {
                let v = v.as_u64().ok_or_else(|| format!("counter {k} not u64"))?;
                snap.counters.insert(k.clone(), v);
            }
        }
        if let Some(gauges) = obj.get("gauges") {
            let m = gauges.as_object().ok_or("gauges must be an object")?;
            for (k, v) in m {
                let v = v.as_i64().ok_or_else(|| format!("gauge {k} not i64"))?;
                snap.gauges.insert(k.clone(), v);
            }
        }
        if let Some(histograms) = obj.get("histograms") {
            let m = histograms
                .as_object()
                .ok_or("histograms must be an object")?;
            for (k, v) in m {
                let field = |name: &str| -> Result<u64, String> {
                    v.get(name)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| format!("histogram {k} missing {name}"))
                };
                let mut h = HistogramSnapshot {
                    count: field("count")?,
                    sum: field("sum")?,
                    min: field("min")?,
                    max: field("max")?,
                    p50: field("p50")?,
                    p95: field("p95")?,
                    p99: field("p99")?,
                    buckets: Vec::new(),
                };
                let mut total = 0u64;
                if let Some(buckets) = v.get("buckets") {
                    for pair in buckets
                        .as_array()
                        .ok_or_else(|| format!("histogram {k} buckets must be an array"))?
                    {
                        let pair = pair
                            .as_array()
                            .ok_or_else(|| format!("histogram {k} bucket must be a pair"))?;
                        if pair.len() != 2 {
                            return Err(format!("histogram {k} bucket must be a pair"));
                        }
                        let bound = pair[0]
                            .as_u64()
                            .ok_or_else(|| format!("histogram {k} bucket bound not u64"))?;
                        let count = pair[1]
                            .as_u64()
                            .ok_or_else(|| format!("histogram {k} bucket count not u64"))?;
                        if h.buckets.last().is_some_and(|&(prev, _)| prev >= bound) {
                            return Err(format!(
                                "histogram {k} bucket bounds not strictly ascending"
                            ));
                        }
                        total = total
                            .checked_add(count)
                            .ok_or_else(|| format!("histogram {k} bucket counts overflow"))?;
                        h.buckets.push((bound, count));
                    }
                }
                if total != h.count {
                    return Err(format!(
                        "histogram {k} bucket counts sum to {total}, not count {}",
                        h.count
                    ));
                }
                if h.count > 0 && h.min > h.max {
                    return Err(format!("histogram {k} min {} > max {}", h.min, h.max));
                }
                snap.histograms.insert(k.clone(), h);
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("comm.fabric.sends".into(), 120);
        snap.counters.insert("sched.dispatch.jobs".into(), 40);
        snap.gauges.insert("bench.ops_per_sec".into(), -5);
        snap.histograms.insert(
            "comm.fabric.latency_ns".into(),
            HistogramSnapshot {
                count: 3,
                sum: 60,
                min: 10,
                max: 30,
                p50: 20,
                p95: 30,
                p99: 30,
                buckets: vec![(10, 1), (20, 1), (50, 1)],
            },
        );
        let mut sk = crate::Sketch::default();
        for v in [100u64, 200, 900] {
            sk.record(v);
        }
        let h = crate::Histogram::default();
        h.merge(&sk);
        snap.histograms
            .insert("fleet.stage.download_ms".into(), h.snapshot());
        snap
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let snap = sample();
        let encoded = snap.to_json();
        let decoded = MetricsSnapshot::from_json(&encoded).unwrap();
        assert_eq!(decoded, snap);
        // And the re-encoding is byte-identical (deterministic order).
        assert_eq!(decoded.to_json(), encoded);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        let decoded = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let text = sample().to_prometheus();
        assert!(text.contains("comm_fabric_sends_total 120"));
        assert!(text.contains("# TYPE bench_ops_per_sec gauge"));
        assert!(text.contains("bench_ops_per_sec -5"));
        // Cumulative buckets.
        assert!(text.contains("comm_fabric_latency_ns_bucket{le=\"10\"} 1"));
        assert!(text.contains("comm_fabric_latency_ns_bucket{le=\"20\"} 2"));
        assert!(text.contains("comm_fabric_latency_ns_bucket{le=\"50\"} 3"));
        assert!(text.contains("comm_fabric_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("comm_fabric_latency_ns_sum 60"));
        assert!(text.contains("comm_fabric_latency_ns_count 3"));
        // A sketch's snapshot is a histogram like any other, its rows at
        // the log-linear bucket upper bounds.
        assert!(text.contains("# TYPE fleet_stage_download_ms histogram"));
        assert!(text.contains("fleet_stage_download_ms_bucket{le=\"101\"} 1"));
        assert!(text.contains("fleet_stage_download_ms_bucket{le=\"203\"} 2"));
        assert!(text.contains("fleet_stage_download_ms_bucket{le=\"911\"} 3"));
        assert!(text.contains("fleet_stage_download_ms_count 3"));
        assert!(!text.contains("summary"));
    }

    #[test]
    fn histogram_snapshot_merge_is_order_invariant_and_conserving() {
        let h = |values: &[u64]| {
            let hist = crate::Histogram::default();
            for &v in values {
                hist.record(v);
            }
            hist.snapshot()
        };
        let parts = [
            h(&[1, 2, 3]),
            h(&[500, 900]),
            h(&[]),
            h(&[7, 7, 7, 1_000_000]),
        ];
        let mut fwd = HistogramSnapshot::default();
        for p in &parts {
            fwd.merge(p);
        }
        let mut rev = HistogramSnapshot::default();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev);
        let direct = h(&[1, 2, 3, 500, 900, 7, 7, 7, 1_000_000]);
        assert_eq!(fwd, direct, "merged snapshot equals direct recording");
        assert_eq!(fwd.count, 9);
        assert_eq!(fwd.quantile(0.95), fwd.p95);
    }

    #[test]
    fn wrong_schema_rejected() {
        let bad = r#"{"schema": "other.v9", "counters": {}}"#;
        assert!(MetricsSnapshot::from_json(bad).is_err());
    }

    #[test]
    fn malformed_fields_rejected() {
        assert!(MetricsSnapshot::from_json(r#"{"counters": {"a": "x"}}"#).is_err());
        assert!(MetricsSnapshot::from_json(r#"{"histograms": {"h": {"count": 1}}}"#).is_err());
        assert!(MetricsSnapshot::from_json("[]").is_err());
    }

    #[test]
    fn inconsistent_histogram_buckets_rejected() {
        // Bucket counts that overflow `u64` on the way to `count`: a
        // later quantile or merge would overflow on them.
        let overflow = r#"{"histograms":{"h":{"count":18446744073709551615,"sum":0,"min":1,"max":2,"p50":1,"p95":2,"p99":2,"buckets":[[1,10],[2,18446744073709551615]]}}}"#;
        assert!(MetricsSnapshot::from_json(overflow).is_err());
        let entry = |count: u64, min: u64, buckets: &str| {
            format!(
                r#"{{"histograms":{{"h":{{"count":{count},"sum":0,"min":{min},"max":2,"p50":1,"p95":2,"p99":2,"buckets":{buckets}}}}}}}"#
            )
        };
        assert!(MetricsSnapshot::from_json(&entry(2, 1, "[[1,1],[2,1]]")).is_ok());
        for (count, min, buckets) in [
            (5, 1, "[[1,1],[2,1]]"), // counts do not sum to `count`
            (2, 1, "[[2,1],[1,1]]"), // bounds descending
            (2, 1, "[[2,1],[2,1]]"), // bounds repeated
            (2, 3, "[[1,1],[2,1]]"), // min > max
        ] {
            let doc = entry(count, min, buckets);
            assert!(MetricsSnapshot::from_json(&doc).is_err(), "{doc}");
        }
        // The checked-in perf baseline still loads.
        let baseline = include_str!("../../../BENCH_baseline.json");
        assert!(MetricsSnapshot::from_json(baseline).is_ok());
    }

    #[test]
    fn mean_handles_empty() {
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
        let h = HistogramSnapshot {
            count: 4,
            sum: 10,
            ..Default::default()
        };
        assert!((h.mean() - 2.5).abs() < 1e-12);
    }
}
