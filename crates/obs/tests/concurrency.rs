//! Concurrency smoke tests: the registry must stay consistent under
//! parallel writers (shard-friendliness claim of the obs layer).

use dynplat_obs::MetricsRegistry;
use std::sync::Arc;

#[test]
fn registry_counts_exactly_under_contention() {
    let registry = Arc::new(MetricsRegistry::new());
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 20_000;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let registry = Arc::clone(&registry);
            std::thread::spawn(move || {
                let counter = registry.counter("smoke.ops");
                let hist = registry.histogram("smoke.latency_ns");
                let gauge = registry.gauge("smoke.level");
                for i in 0..PER_THREAD {
                    counter.inc();
                    hist.record(1 + (i % 1000));
                    gauge.set(t as i64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = registry.snapshot();
    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(snap.counters["smoke.ops"], expected);
    let h = &snap.histograms["smoke.latency_ns"];
    assert_eq!(h.count, expected);
    assert_eq!(h.min, 1);
    assert_eq!(h.max, 1000);
    // Sum of per-bucket counts equals the total count.
    let bucket_total: u64 = h.buckets.iter().map(|(_, n)| n).sum();
    assert_eq!(bucket_total, expected);
    assert!((0..THREADS as i64).contains(&snap.gauges["smoke.level"]));
}

#[test]
fn snapshot_while_writing_does_not_tear_invariants() {
    let registry = Arc::new(MetricsRegistry::new());
    let writer = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            let hist = registry.histogram("tear.h");
            for i in 0..50_000u64 {
                hist.record(i % 97 + 1);
            }
        })
    };
    // Snapshots taken mid-write must stay internally plausible.
    for _ in 0..50 {
        let snap = registry.snapshot();
        if let Some(h) = snap.histograms.get("tear.h") {
            assert!(h.p50 <= h.p95);
            assert!(h.p95 <= h.p99);
            assert!(h.min <= h.max || h.count == 0);
        }
    }
    writer.join().unwrap();
    let h = &registry.snapshot().histograms["tear.h"];
    assert_eq!(h.count, 50_000);
}
