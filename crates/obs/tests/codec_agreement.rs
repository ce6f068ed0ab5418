//! Property test: the Prometheus and JSON snapshot codecs agree.
//!
//! For randomized registries, every value that both encodings carry —
//! counter totals, gauge levels, histogram bucket counts, sums and
//! counts — must parse back identical from the Prometheus text and the
//! JSON document. Histograms are fed every way the library offers
//! (`Histogram::record`, `LocalHistogram` flushes, `Histogram::merge` of a
//! `Sketch`), and all of them share the one snapshot type and encoder.
//! The JSON side is held to the stronger bar (lossless round-trip); the
//! Prometheus side is decoded by reversing its cumulative-bucket encoding.
//! Time-series rings sampled from the same registries must round-trip
//! their `dynplat.telemetry.v1` encoding losslessly too, point for point.

use std::collections::BTreeMap;

use dynplat_common::rng::{seeded_rng, split_seed, Rng};
use dynplat_obs::{
    LocalHistogram, MetricsRegistry, MetricsSnapshot, SeriesPoint, Sketch, TelemetryRing,
};

/// Registry names are `&'static str`, so randomized registries draw from
/// static pools. Prefixes keep the sanitized Prometheus names (and the
/// counter `_total` suffix) collision-free across metric types.
const COUNTER_NAMES: [&str; 6] = [
    "ctr.alpha",
    "ctr.beta",
    "ctr.gamma:sub",
    "ctr.delta-dash",
    "ctr.epsilon",
    "ctr.zeta.deep.path",
];
const GAUGE_NAMES: [&str; 5] = [
    "gga.alpha",
    "gga.beta",
    "gga.gamma",
    "gga.delta space",
    "gga.epsilon",
];
const HISTOGRAM_NAMES: [&str; 6] = [
    "hst.alpha",
    "hst.beta",
    "hst.gamma",
    "hst.delta",
    "hst.epsilon:sub",
    "hst.zeta-dash",
];

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

fn random_registry(seed: u64) -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    let mut rng = seeded_rng(seed);
    for name in COUNTER_NAMES {
        if rng.gen_bool(0.7) {
            registry.counter(name).add(rng.gen_range(0..1_000_000u64));
        }
    }
    for name in GAUGE_NAMES {
        if rng.gen_bool(0.7) {
            registry
                .gauge(name)
                .set(rng.gen_range(-1_000_000..1_000_000i64));
        }
    }
    for name in HISTOGRAM_NAMES {
        if !rng.gen_bool(0.8) {
            continue;
        }
        // Spread over every magnitude, including the last bucket (upper
        // bound u64::MAX).
        let values: Vec<u64> = (0..rng.gen_range(0..200u32))
            .map(|_| match rng.gen_range(0..20u32) {
                19 => u64::MAX - rng.gen_range(0..1_000u64),
                magnitude => rng.gen_range(0..10u64.pow(magnitude).max(1)),
            })
            .collect();
        let h = registry.histogram(name);
        match rng.gen_range(0..3u32) {
            0 => values.iter().for_each(|&v| h.record(v)),
            1 => {
                let mut local = LocalHistogram::new();
                for &v in &values {
                    local.record(v);
                }
                local.flush_into(&h);
            }
            _ => {
                let mut sketch = Sketch::default();
                for &v in &values {
                    sketch.record(v);
                }
                h.merge(&sketch);
            }
        }
    }
    registry
}

/// Parses Prometheus text exposition into `metric line key -> value`,
/// e.g. `ctr_alpha_total -> 42`, `hst_beta_bucket{le="10"} -> 3`.
fn parse_prometheus(text: &str) -> BTreeMap<String, i128> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let (key, value) = line.rsplit_once(' ').expect("metric line has a value");
        let parsed: i128 = value.parse().expect("numeric sample value");
        assert!(
            out.insert(key.to_owned(), parsed).is_none(),
            "duplicate exposition key {key}"
        );
    }
    out
}

/// Asserts every shared value matches between `snap` and its Prometheus
/// exposition.
fn assert_prometheus_agrees(snap: &MetricsSnapshot, prom: &BTreeMap<String, i128>) {
    for (name, value) in &snap.counters {
        let key = format!("{}_total", sanitize(name));
        assert_eq!(prom.get(&key), Some(&i128::from(*value)), "counter {name}");
    }
    for (name, value) in &snap.gauges {
        let key = sanitize(name);
        assert_eq!(prom.get(&key), Some(&i128::from(*value)), "gauge {name}");
    }
    for (name, h) in &snap.histograms {
        let n = sanitize(name);
        assert_eq!(
            prom.get(&format!("{n}_sum")),
            Some(&i128::from(h.sum)),
            "histogram {name} sum"
        );
        assert_eq!(
            prom.get(&format!("{n}_count")),
            Some(&i128::from(h.count)),
            "histogram {name} count"
        );
        assert_eq!(
            prom.get(&format!("{n}_bucket{{le=\"+Inf\"}}")),
            Some(&i128::from(h.count)),
            "histogram {name} +Inf"
        );
        // Reverse the cumulative encoding bucket by bucket. The last
        // bucket (bound u64::MAX) is folded into +Inf by the encoder, so
        // its count must equal what +Inf adds beyond the last finite row.
        let mut acc: u64 = 0;
        let mut finite_total: u64 = 0;
        for (bound, count) in &h.buckets {
            if *bound == u64::MAX {
                assert_eq!(
                    h.count - finite_total,
                    *count,
                    "histogram {name} last bucket"
                );
                continue;
            }
            acc += count;
            finite_total += count;
            assert_eq!(
                prom.get(&format!("{n}_bucket{{le=\"{bound}\"}}")),
                Some(&i128::from(acc)),
                "histogram {name} bucket le={bound}"
            );
        }
    }
}

#[test]
fn prometheus_and_json_codecs_agree_on_random_registries() {
    let root = 0xC0DEC_A62EEu64;
    for case in 0..64u64 {
        let registry = random_registry(split_seed(root, case));
        let snap = registry.snapshot();

        // JSON must round-trip losslessly…
        let decoded = MetricsSnapshot::from_json(&snap.to_json())
            .unwrap_or_else(|e| panic!("case {case}: json round-trip failed: {e}"));
        assert_eq!(decoded, snap, "case {case}: json decode diverged");

        // …and the Prometheus exposition must agree with it value for
        // value, on both the original and the round-tripped snapshot.
        let prom = parse_prometheus(&snap.to_prometheus());
        assert_prometheus_agrees(&snap, &prom);
        assert_prometheus_agrees(&decoded, &prom);
        assert_eq!(decoded.to_prometheus(), snap.to_prometheus());
    }
}

#[test]
fn codecs_agree_on_the_empty_registry() {
    let snap = MetricsRegistry::new().snapshot();
    assert!(snap.to_prometheus().is_empty());
    let decoded = MetricsSnapshot::from_json(&snap.to_json()).expect("round-trip");
    assert_eq!(decoded, snap);
}

#[test]
fn telemetry_ring_json_round_trips_random_sample_series() {
    // Rings sampled from one randomly-evolving registry — more samples
    // than ring capacity, so eviction is exercised too — must round-trip
    // their `dynplat.telemetry.v1` delta encoding losslessly: same
    // points, same re-encoded bytes, and every retained point still
    // carries the exact counter/gauge values of the snapshot it was
    // sampled from. (The delta encoding carries omitted names forward,
    // so its contract is repeated samples of one registry — the only way
    // the library produces rings — not unrelated snapshots per point.)
    let root = 0x71ED_C0DECu64;
    for case in 0..32u64 {
        let mut rng = seeded_rng(split_seed(root, case));
        let capacity = rng.gen_range(1..12) as usize;
        let samples = rng.gen_range(1..20) as usize;
        let registry = random_registry(split_seed(root, case));
        let mut ring = TelemetryRing::new(capacity);
        let mut taken: Vec<(u64, MetricsSnapshot)> = Vec::new();
        let mut t_ns = 0u64;
        for _ in 0..samples {
            t_ns += rng.gen_range(1..1_000_000u64);
            // Advance a random subset of metrics between samples, so some
            // points delta on every name and some on none.
            for name in COUNTER_NAMES {
                if rng.gen_bool(0.4) {
                    registry.counter(name).add(rng.gen_range(0..10_000u64));
                }
            }
            for name in GAUGE_NAMES {
                if rng.gen_bool(0.4) {
                    registry.gauge(name).set(rng.gen_range(-10_000..10_000i64));
                }
            }
            let snap = registry.snapshot();
            ring.sample(t_ns, &snap);
            taken.push((t_ns, snap));
        }
        // The ring keeps the newest `capacity` samples in order, verbatim.
        let mut newest = TelemetryRing::new(capacity);
        for (at, snap) in &taken[samples.saturating_sub(capacity)..] {
            newest.push(SeriesPoint {
                t_ns: *at,
                counters: snap.counters.clone(),
                gauges: snap.gauges.clone(),
            });
        }
        assert_eq!(ring, newest, "case {case}: ring contents");

        let encoded = ring.to_json();
        let decoded = TelemetryRing::from_json(&encoded)
            .unwrap_or_else(|e| panic!("case {case}: telemetry round-trip failed: {e}"));
        assert_eq!(decoded, ring, "case {case}: points diverged");
        assert_eq!(
            decoded.to_json(),
            encoded,
            "case {case}: re-encode diverged"
        );
    }
}

#[test]
fn telemetry_ring_rejects_malformed_documents() {
    assert!(TelemetryRing::from_json("[]").is_err());
    assert!(TelemetryRing::from_json(r#"{"schema": "other.v9", "points": []}"#).is_err());
}
