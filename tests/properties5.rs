//! Property-based tests, part 5: the fixed-capacity event ring, the
//! frame-id recycling contract behind the zero-copy fabric fast path, and
//! the one quantile structure of `obs`.
//!
//! * FIFO order survives arbitrary push/pop interleavings across many
//!   wrap-arounds of a small ring (checked against a model deque);
//! * slab-slot frame ids recycle across hundreds of thousands of
//!   messages without truncation collisions: every batch conserves its
//!   sends exactly, and the peak slot count stays bounded by in-flight
//!   messages, not by message count;
//! * the telemetry merge algebra holds: [`Sketch::merge`] and
//!   [`HistogramSnapshot::merge`] conserve count/sum/min/max and are
//!   order-invariant over arbitrary shardings and merge trees — the
//!   property that makes fleet aggregates byte-identical across shard
//!   counts;
//! * the one bucket layout is accurate and shared: snapshot p50/p95/p99
//!   lie within 1/32 of the exact nearest-rank quantile, and
//!   `Histogram::record`, ragged `LocalHistogram` flushes,
//!   `Histogram::merge` of ragged sketches and of one whole sketch give
//!   equal snapshots of the same multiset;
//! * histogram snapshots stay self-consistent under concurrent striped
//!   flushes: every mid-flight snapshot's quantiles derive from the same
//!   bucket read as its count (the quantile/snapshot drift regression),
//!   and the snapshot after the writers are joined equals a one-thread
//!   fold of the same streams.
//!
//! Implemented as seeded-random loop tests on `dynplat::common::rng` (no
//! external property-testing dependency).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};

use dynplat::comm::fabric::{Fabric, MessageSend};
use dynplat::comm::ring::{RingEntry, SpscRing};
use dynplat::common::rng::{seeded_rng, split_seed, Rng, SplitMix64};
use dynplat::common::time::SimTime;
use dynplat::common::{BusId, EcuId};
use dynplat::hw::ecu::{EcuClass, EcuSpec};
use dynplat::hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat::net::TrafficClass;
use dynplat::obs::{Histogram, HistogramSnapshot, LocalHistogram, Sketch, TraceCtx};

const SUITE_SEED: u64 = 0x5EED_0005;

/// One deterministic RNG per (test, case) pair.
fn case_rng(test: u64, case: u64) -> SplitMix64 {
    seeded_rng(split_seed(split_seed(SUITE_SEED, test), case))
}

fn entry(n: u64) -> RingEntry {
    RingEntry {
        time: SimTime::from_nanos(n * 3),
        seq: n,
        slot: (n % 1024) as u32,
    }
}

/// A sketch's snapshot, taken the way programs take it: merged into a
/// histogram, then [`Histogram::snapshot`].
fn sketch_snapshot(sketch: &Sketch) -> HistogramSnapshot {
    let h = Histogram::default();
    h.merge(sketch);
    h.snapshot()
}

// ------------------------------------------------------------ wraparound --

#[test]
fn fifo_survives_random_interleavings_across_wraparounds() {
    for case in 0..32u64 {
        let mut rng = case_rng(1, case);
        let cap = 1usize << rng.gen_range(1..6); // 2..=32 entries
        let mut ring = SpscRing::new(cap);
        let mut model: VecDeque<RingEntry> = VecDeque::new();
        let mut next = 0u64;
        let mut popped = 0u64;
        for _ in 0..5_000 {
            if rng.gen_bool(0.55) {
                let e = entry(next);
                let accepted = ring.try_push(e);
                assert_eq!(
                    accepted,
                    model.len() < cap,
                    "push must succeed exactly when the model has room"
                );
                if accepted {
                    model.push_back(e);
                    next += 1;
                }
            } else {
                assert_eq!(ring.peek(), model.front().copied());
                assert_eq!(ring.pop(), model.pop_front());
                popped += 1;
            }
            assert_eq!(ring.len(), model.len());
            assert_eq!(ring.is_empty(), model.is_empty());
        }
        assert!(next > 2 * cap as u64, "must wrap the ring several times");
        assert!(popped > 0);
        while let Some(e) = ring.pop() {
            assert_eq!(Some(e), model.pop_front());
        }
        assert!(model.is_empty(), "ring and model must drain together");
    }
}

// ------------------------------------------------------- frame-id recycling --

fn four_ecu_bus() -> HwTopology {
    let mut topo = HwTopology::new();
    for i in 0..4u16 {
        topo.add_ecu(EcuSpec::of_class(
            EcuId(i),
            format!("e{i}"),
            EcuClass::Domain,
        ))
        .expect("fresh ids");
    }
    topo.add_bus(BusSpec::new(
        BusId(0),
        "eth",
        BusKind::ethernet_100m(),
        [EcuId(0), EcuId(1), EcuId(2), EcuId(3)],
    ))
    .expect("fresh bus");
    topo
}

#[test]
fn frame_ids_recycle_without_truncation_over_many_batches() {
    // The regression this guards: frame ids derived from a monotone
    // counter truncated `as u32` collide after enough messages and make a
    // `TxDone` decrement a *different* message's segment count. Slab-slot
    // ids must instead stay bounded by peak in-flight messages while every
    // batch keeps conserving its sends exactly.
    let mut rng = case_rng(4, 0);
    let topo = four_ecu_bus();
    let mut fabric = Fabric::new(topo);
    let mut deliveries = Vec::new();
    let mut total = 0u64;
    for _batch in 0..300 {
        let n = rng.gen_range(50..150);
        let sends: Vec<MessageSend> = (0..n)
            .map(|k| MessageSend {
                id: k,
                time: SimTime::from_micros(k * rng.gen_range(1u64..40)),
                src: EcuId(rng.gen_range(0u64..4) as u16),
                dst: EcuId(rng.gen_range(0u64..4) as u16),
                // Sometimes multi-segment, to exercise per-segment TxDones
                // against the same recycled id space.
                payload: if rng.gen_bool(0.2) { 4000 } else { 200 },
                class: TrafficClass::Critical,
                priority: 1,
                trace: TraceCtx::NONE,
            })
            .collect();
        deliveries.clear();
        fabric.run_batch(&sends, &mut deliveries, |_, _| {});
        total += n;
        let mut ids: Vec<u64> = deliveries.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        assert_eq!(
            ids,
            (0..n).collect::<Vec<_>>(),
            "every send must be delivered exactly once per batch"
        );
        for d in &deliveries {
            assert!(d.delivered >= d.sent, "causality per delivery");
        }
    }
    assert!(
        total > 25_000,
        "the id space must be reused many times over"
    );
    assert!(
        fabric.peak_slab_capacity() < 256,
        "slot ids must be bounded by peak in-flight, got {}",
        fabric.peak_slab_capacity()
    );
}

// ----------------------------------------------------- telemetry merge algebra --

/// A random value with a heavy tail, so sketches and histograms populate
/// buckets across many exponent ranges.
fn tailed_value(rng: &mut SplitMix64) -> u64 {
    let shift: u64 = rng.gen_range(0..40);
    rng.gen_range(0..1u64 << shift.max(1))
}

/// A seeded stream of one of three shapes: uniform, heavy-tailed, or all
/// below 32 (the exact buckets).
fn stream(rng: &mut SplitMix64, n: usize) -> Vec<u64> {
    let shape = rng.gen_range(0..3u32);
    (0..n)
        .map(|_| match shape {
            0 => rng.gen_range(0..1_000_000u64),
            1 => tailed_value(rng),
            _ => rng.gen_range(0..32u64),
        })
        .collect()
}

#[test]
fn sketch_merge_conserves_and_is_order_invariant() {
    for case in 0..24u64 {
        let mut rng = case_rng(5, case);
        let n = rng.gen_range(1..2_000) as usize;
        let values: Vec<u64> = (0..n).map(|_| tailed_value(&mut rng)).collect();

        // Direct fold: one sketch over all values.
        let mut direct = Sketch::default();
        for &v in &values {
            direct.record(v);
        }

        // Random sharding of the same values.
        let shards_n = rng.gen_range(1..9) as usize;
        let mut shards = vec![Sketch::default(); shards_n];
        for &v in &values {
            shards[rng.gen_range(0..shards_n as u64) as usize].record(v);
        }

        // Merge forward, merge reversed, and merge as a pairwise tree:
        // all three must equal the direct fold exactly.
        let fold = |order: &[&Sketch]| {
            let mut acc = Sketch::default();
            for s in order {
                acc.merge(s);
            }
            acc
        };
        let fwd: Vec<&Sketch> = shards.iter().collect();
        let rev: Vec<&Sketch> = shards.iter().rev().collect();
        let mut tree: Vec<Sketch> = shards.clone();
        while tree.len() > 1 {
            let b = tree.pop().expect("len > 1");
            let idx = rng.gen_range(0..tree.len() as u64) as usize;
            tree[idx].merge(&b);
        }
        for merged in [fold(&fwd), fold(&rev), tree.pop().expect("one left")] {
            assert_eq!(merged, direct, "case {case}: merge must equal direct fold");
            assert_eq!(merged.count(), n as u64);
            assert_eq!(merged.sum(), values.iter().copied().sum::<u64>());
            assert_eq!(merged.min(), values.iter().copied().min().unwrap_or(0));
            assert_eq!(merged.max(), values.iter().copied().max().unwrap_or(0));
        }

        // Snapshot merge commutes with sketch merge.
        let mut snap = sketch_snapshot(&shards[0]);
        for s in &shards[1..] {
            snap.merge(&sketch_snapshot(s));
        }
        assert_eq!(snap, sketch_snapshot(&direct));
    }
}

#[test]
fn histogram_snapshot_merge_conserves_and_is_order_invariant() {
    for case in 0..24u64 {
        let mut rng = case_rng(6, case);
        let n = rng.gen_range(1..2_000) as usize;
        let values: Vec<u64> = (0..n).map(|_| tailed_value(&mut rng)).collect();

        // A random sharding of the values, kept as sketches (the fleet
        // shards' accumulator) and as histograms.
        let shards_n = rng.gen_range(1..9) as usize;
        let mut sketches = vec![Sketch::default(); shards_n];
        let histograms: Vec<Histogram> = (0..shards_n).map(|_| Histogram::default()).collect();
        let mut direct = Sketch::default();
        for &v in &values {
            let shard = rng.gen_range(0..shards_n as u64) as usize;
            sketches[shard].record(v);
            histograms[shard].record(v);
            direct.record(v);
        }

        // Snapshot merges of either source, in either order, equal the
        // direct snapshot, and their quantiles rederive from the merged
        // buckets exactly like a direct snapshot's do.
        let expect = sketch_snapshot(&direct);
        let snaps: Vec<HistogramSnapshot> = sketches
            .iter()
            .map(sketch_snapshot)
            .chain(histograms.iter().map(Histogram::snapshot))
            .collect();
        for (label, order) in [
            ("sketches", snaps[..shards_n].iter().collect::<Vec<_>>()),
            (
                "histograms reversed",
                snaps[shards_n..].iter().rev().collect(),
            ),
        ] {
            let mut acc = HistogramSnapshot::default();
            for s in order {
                acc.merge(s);
            }
            assert_eq!(acc, expect, "case {case}: {label} merge equals direct fold");
            assert_eq!(acc.count, n as u64);
            assert_eq!(acc.sum, values.iter().copied().sum::<u64>());
            assert_eq!(acc.p50, acc.quantile(0.50));
            assert_eq!(acc.p95, acc.quantile(0.95));
            assert_eq!(acc.p99, acc.quantile(0.99));
        }
    }
}

#[test]
fn snapshot_quantiles_stay_within_one_32nd_of_exact() {
    for case in 0..48u64 {
        let mut rng = case_rng(8, case);
        let n = rng.gen_range(1..3_000) as usize;
        let values = stream(&mut rng, n);
        let h = Histogram::default();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for (q, est) in [(0.50, snap.p50), (0.95, snap.p95), (0.99, snap.p99)] {
            let rank = ((n as f64) * q).ceil().max(1.0) as usize;
            let exact = sorted[rank - 1];
            // The estimate is the bucket's upper bound, never below the
            // exact value, and a bucket spans less than 1/32 of its lower
            // bound.
            assert!(
                est >= exact && u128::from(est - exact) * 32 <= u128::from(exact),
                "case {case}: q{q} estimate {est} vs exact {exact}"
            );
        }
    }
}

#[test]
fn every_feed_path_gives_the_same_snapshot() {
    for case in 0..32u64 {
        let mut rng = case_rng(9, case);
        let n = rng.gen_range(0..3_000) as usize;
        let values = stream(&mut rng, n);

        let recorded = Histogram::default();
        let flushed = Histogram::default();
        let merged = Histogram::default();
        let mut local = LocalHistogram::new();
        let mut sketch = Sketch::default();
        let mut whole = Sketch::default();
        for &v in &values {
            recorded.record(v);
            local.record(v);
            sketch.record(v);
            whole.record(v);
            // Ragged batches: flush the local accumulator and publish the
            // sketch at random points, so partial buckets meet partial
            // buckets.
            if rng.gen_bool(0.05) {
                local.flush_into(&flushed);
            }
            if rng.gen_bool(0.05) {
                merged.merge(&sketch);
                sketch = Sketch::default();
            }
        }
        local.flush_into(&flushed);
        merged.merge(&sketch);

        let expect = recorded.snapshot();
        assert_eq!(expect.count, n as u64);
        assert_eq!(
            flushed.snapshot(),
            expect,
            "case {case}: LocalHistogram flushes"
        );
        assert_eq!(
            merged.snapshot(),
            expect,
            "case {case}: Histogram::merge(&Sketch)"
        );
        assert_eq!(
            sketch_snapshot(&whole),
            expect,
            "case {case}: Histogram::merge of the whole sketch"
        );
    }
}

#[test]
fn snapshots_stay_self_consistent_under_concurrent_striped_flushes() {
    // The drift regression this guards: a snapshot that reads the bucket
    // array and the quantile summary in two passes can pair a newer count
    // with older buckets while writers flush concurrently. Snapshots must
    // instead derive count and quantiles from one bucket read: at every
    // instant `count == Σ buckets` and the stored p50/p95/p99 equal the
    // quantiles recomputed from the very same buckets.
    const WRITERS: u64 = 4;
    const PER_WRITER: u64 = 12_000;
    let hist = Histogram::default();
    let done = AtomicBool::new(false);
    let reader_started = AtomicBool::new(false);
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            let hist = &hist;
            let reader_started = &reader_started;
            s.spawn(move || {
                // Hold the writers until the reader has taken its first
                // snapshot, so it cannot miss the race entirely.
                while !reader_started.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                let mut rng = case_rng(7, w);
                let mut local = LocalHistogram::new();
                for i in 0..PER_WRITER {
                    local.record(tailed_value(&mut rng));
                    // Flush in ragged bursts so snapshots race mid-merge.
                    if i % rng.gen_range(3u64..40) == 0 {
                        local.flush_into(hist);
                    }
                }
                local.flush_into(hist);
            });
        }
        let reader = s.spawn(|| {
            let mut observed = 0u64;
            let mut last_count = 0u64;
            while !done.load(Ordering::Acquire) {
                let snap = hist.snapshot();
                let bucket_total: u64 = snap.buckets.iter().map(|&(_, c)| c).sum();
                assert_eq!(
                    snap.count, bucket_total,
                    "count must equal the bucket sum it was read with"
                );
                assert_eq!(snap.p50, snap.quantile(0.50), "p50 drifted from buckets");
                assert_eq!(snap.p95, snap.quantile(0.95), "p95 drifted from buckets");
                assert_eq!(snap.p99, snap.quantile(0.99), "p99 drifted from buckets");
                assert!(snap.count >= last_count, "flushed counts never regress");
                last_count = snap.count;
                observed += 1;
                reader_started.store(true, Ordering::Release);
            }
            observed
        });
        // Scope joins the writers; signal the reader afterwards would be
        // too late, so join writers explicitly here.
        while hist.snapshot().count < WRITERS * PER_WRITER {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Release);
        let observed = reader.join().expect("reader must not panic");
        assert!(observed > 0, "the reader must race at least one snapshot");
    });
    assert_eq!(hist.snapshot().count, WRITERS * PER_WRITER);
    let final_snap = hist.snapshot();
    assert_eq!(final_snap.count, WRITERS * PER_WRITER);
    assert_eq!(
        final_snap.sum,
        hist.sum(),
        "quiescent snapshot reads the exact totals"
    );
    // The scope end happens-before this read, so every relaxed per-field
    // add of every flush is visible: the snapshot equals a one-thread fold
    // of the same writer streams. The replay draws the flush cadence too,
    // to stay on each writer's draw sequence.
    let mut fold = LocalHistogram::new();
    for w in 0..WRITERS {
        let mut rng = case_rng(7, w);
        for _ in 0..PER_WRITER {
            fold.record(tailed_value(&mut rng));
            rng.gen_range(3u64..40);
        }
    }
    assert_eq!(
        final_snap,
        sketch_snapshot(&fold.to_sketch()),
        "after the join, buckets, count, sum, min and max equal the one-thread fold"
    );
}
