//! The metrics registry: counters, gauges and histograms.
//!
//! Design constraints (§3.4 of the paper applied to a host-side
//! reproduction): instrumentation must be cheap enough to live in the hot
//! paths of the fabric and the scheduler simulator, deterministic in its
//! bucket layout, and dependency-free. Histograms use the one log-linear
//! bucket layout of [`crate::sketch`]: [`Histogram`] is its dense atomic
//! form, [`LocalHistogram`] the single-owner form hot loops flush in
//! batches, and [`Sketch`] the sparse form fleet shards merge.
//!
//! Every metric is keyed by a `&'static str` name; registration takes a
//! short-lived lock once per call site, after which all updates are
//! single atomic operations on a shared handle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::exemplar::{Exemplar, ExemplarSet};
use crate::sketch::{sketch_bucket_index, sketch_bucket_upper, Sketch, SKETCH_MAX_INDEX};
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// Number of per-thread cells a [`Counter`] is striped over. Each thread
/// hashes to one cell, so concurrent increments from different workers land
/// on different cache lines instead of ping-ponging one shared line.
pub const COUNTER_STRIPES: usize = 8;

/// One cache-line-aligned counter cell, padded so adjacent cells never
/// share a line (the whole point of striping).
#[repr(align(64))]
#[derive(Debug, Default)]
struct CounterCell {
    value: AtomicU64,
}

/// The cell index of the calling thread: assigned round-robin on first use
/// and cached in a thread-local, so the steady-state cost is one TLS read.
fn thread_stripe() -> usize {
    use std::cell::Cell;
    thread_local! {
        static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    STRIPE.with(|s| {
        let cached = s.get();
        if cached != usize::MAX {
            return cached;
        }
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        // relaxed: a round-robin ticket; only uniqueness matters, no
        // memory is published through it.
        let mine = NEXT.fetch_add(1, Ordering::Relaxed) % COUNTER_STRIPES;
        s.set(mine);
        mine
    })
}

/// A monotonically increasing counter, striped over per-thread cells.
///
/// Increments go to the calling thread's cell (a relaxed add on a cache
/// line no other thread writes); [`Counter::get`] sums the cells. This is
/// what keeps `counter!` off the contended profile when the bench runs
/// with `--threads N`: N workers hammering the same counter name touch N
/// different cache lines.
#[derive(Debug)]
pub struct Counter {
    cells: [CounterCell; COUNTER_STRIPES],
}

impl Default for Counter {
    fn default() -> Self {
        Counter {
            cells: std::array::from_fn(|_| CounterCell::default()),
        }
    }
}

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        // relaxed: counters are monotone event tallies, not publication
        // flags; the exact read comes after the writers' thread join or
        // scope end, which happens-before it, so every add is visible
        // (`striped_counter_sums_across_threads` and
        // `registry_counts_exactly_under_contention` check this).
        self.cells[thread_stripe()]
            .value
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Current value: the sum over all per-thread cells.
    pub fn get(&self) -> u64 {
        // relaxed: a statistical snapshot read; exactness is only
        // guaranteed after the writers are joined (see `Counter::add`).
        self.cells
            .iter()
            .map(|c| c.value.load(Ordering::Relaxed))
            .sum()
    }

    fn reset(&self) {
        // relaxed: reset is documented as quiescent-only (between bench
        // phases); there are no concurrent writers to order against.
        for c in &self.cells {
            c.value.store(0, Ordering::Relaxed);
        }
    }
}

/// A gauge: a signed value that can move in both directions.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        // relaxed: a gauge is a single self-contained word; readers take
        // whichever value is newest, nothing else is published with it.
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        // relaxed: snapshot read of a self-contained word.
        self.value.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        // relaxed: quiescent-only, as for `Counter::reset`.
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: the [`crate::sketch`] layout's index range.
const BUCKETS: usize = SKETCH_MAX_INDEX as usize;

/// A histogram with exact count/sum/min/max and bucketed quantiles, on the
/// log-linear layout of [`crate::sketch`] (p50/p95/p99 within 1/32 of the
/// true nearest-rank value). The buckets are a dense atomic array, so a
/// record is a handful of relaxed adds and never locks.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations in one shot — the merge primitive
    /// for pre-aggregated data (per-shard fleet results, replayed series),
    /// where recording each observation individually would put millions of
    /// redundant atomic operations on the merge path.
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        // relaxed: each field is an independent exact tally (atomic RMW
        // loses nothing); a concurrent snapshot may see the fields
        // mid-update, which histogram consumers tolerate by contract —
        // exact reads happen after writers are synchronized externally.
        self.buckets[sketch_bucket_index(value) as usize].fetch_add(n, Ordering::Relaxed);
        self.add_totals(n, value.saturating_mul(n), value, value);
    }

    /// Folds a pre-aggregated [`Sketch`] into this shared histogram — the
    /// flush primitive for per-worker sketches (fleet shards). Both sides
    /// use the same bucket index, so the merge is exact.
    pub fn merge(&self, sketch: &Sketch) {
        if sketch.is_empty() {
            return;
        }
        for &(idx, n) in sketch.nonzero_buckets() {
            // relaxed: the same per-field tallies as `record_n`.
            self.buckets[idx as usize].fetch_add(n, Ordering::Relaxed);
        }
        self.add_totals(sketch.count(), sketch.sum(), sketch.min(), sketch.max());
    }

    /// Merges a thread-local accumulator into this shared histogram and
    /// clears the local side. One call replaces `local.count` individual
    /// `record` calls — the flush primitive that lets hot loops (the fabric
    /// deliver path, the dispatcher) observe into a plain `u64` array and
    /// touch atomics once per batch instead of once per observation.
    pub fn merge_local(&self, local: &mut LocalHistogram) {
        if local.count == 0 {
            return;
        }
        let range = local.occupied();
        for (shared, &n) in self.buckets[range.clone()]
            .iter()
            .zip(&local.buckets[range])
        {
            if n > 0 {
                // relaxed: the flush is a batch of the same per-field
                // tallies as `record_n`; the exact snapshot comes after the
                // writers' join or scope end, which happens-before it
                // (`snapshots_stay_self_consistent_under_concurrent_striped_flushes`
                // in `tests/properties5.rs` checks it against a one-thread fold).
                shared.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.add_totals(local.count, local.sum, local.min, local.max);
        local.clear();
    }

    /// The non-bucket half of every update: count, sum, min and max.
    fn add_totals(&self, count: u64, sum: u64, min: u64, max: u64) {
        // relaxed: independent exact tallies, as argued in `record_n`.
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed); // relaxed: see above
        self.min.fetch_min(min, Ordering::Relaxed); // relaxed: see above
        self.max.fetch_max(max, Ordering::Relaxed); // relaxed: see above
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        // relaxed: snapshot read; see `record_n`.
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        // relaxed: snapshot read; see `record_n`.
        let v = self.min.load(Ordering::Relaxed);
        if v == u64::MAX {
            0
        } else {
            v
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        // relaxed: snapshot read; see `record_n`.
        self.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank `q`-quantile (`q` in `[0, 1]`): the upper bound of the
    /// bucket holding it, clamped to `[min, max]`; 0 when empty. Taken
    /// from one [`Histogram::snapshot`], so it is self-consistent even
    /// while striped [`Histogram::merge_local`] flushes land concurrently.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Snapshot of this histogram's aggregate state.
    ///
    /// The whole snapshot derives from **one** read of the bucket array:
    /// `count` is that read's total and `p50`/`p95`/`p99` are ranked
    /// against it, so recomputing a quantile from the snapshot's own
    /// `buckets` ([`HistogramSnapshot::quantile`]) reproduces the stored
    /// percentiles exactly — there is no drift between `quantile()` and
    /// `snapshot()` under concurrent striped flushes. (`sum`, `min` and
    /// `max` are separate atomics and may trail the buckets mid-flush;
    /// they are exact once writers are synchronized, like every other
    /// tally here.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                // relaxed: snapshot read; see `record_n`.
                let n = b.load(Ordering::Relaxed);
                (n > 0).then(|| (sketch_bucket_upper(i as u16), n))
            })
            .collect();
        HistogramSnapshot::from_buckets(buckets, self.sum(), self.min(), self.max())
    }

    fn reset(&self) {
        // relaxed: quiescent-only, as for `Counter::reset`.
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // relaxed: see above
        }
        self.count.store(0, Ordering::Relaxed); // relaxed: see above
        self.sum.store(0, Ordering::Relaxed); // relaxed: see above
        self.min.store(u64::MAX, Ordering::Relaxed); // relaxed: see above
        self.max.store(0, Ordering::Relaxed); // relaxed: see above
    }
}

/// A single-owner histogram accumulator: the same bucket layout as
/// [`Histogram`], but plain `u64`s with no atomics. Hot loops record into
/// one of these and [`Histogram::merge_local`] folds it into the shared
/// registry handle once per batch, so per-observation cost is an array
/// increment instead of five atomic read-modify-writes. Flush and clear
/// touch only the buckets between the indices of `min` and `max`, and
/// nothing allocates. Its sum saturates, as a [`Sketch`]'s does, so
/// [`LocalHistogram::to_sketch`] equals the per-observation fold.
#[derive(Clone, Debug)]
pub struct LocalHistogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        LocalHistogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl LocalHistogram {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        LocalHistogram::default()
    }

    /// Records one observation (no atomics).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[sketch_bucket_index(value) as usize] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The accumulated observations as a sparse [`Sketch`]: equal to
    /// recording every observation into an empty sketch one by one, at
    /// one pass over the occupied buckets instead of a binary search per
    /// observation. The accumulator is left as it was.
    pub fn to_sketch(&self) -> Sketch {
        let range = self.occupied();
        let buckets = self.buckets[range.clone()]
            .iter()
            .zip(range)
            .filter(|&(&n, _)| n > 0)
            .map(|(&n, i)| (i as u16, n))
            .collect();
        Sketch::from_parts(buckets, self.count, self.sum, self.min, self.max)
    }

    /// The bucket indices that can be non-zero: those of `min` to `max`.
    fn occupied(&self) -> std::ops::Range<usize> {
        if self.count == 0 {
            return 0..0;
        }
        sketch_bucket_index(self.min) as usize..sketch_bucket_index(self.max) as usize + 1
    }

    /// Empties the accumulator without flushing.
    pub fn clear(&mut self) {
        let range = self.occupied();
        self.buckets[range].fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Flushes into `target` and clears; convenience for
    /// [`Histogram::merge_local`].
    pub fn flush_into(&mut self, target: &Histogram) {
        target.merge_local(self);
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<&'static str, Arc<Counter>>,
    gauges: BTreeMap<&'static str, Arc<Gauge>>,
    histograms: BTreeMap<&'static str, Arc<Histogram>>,
    exemplars: BTreeMap<&'static str, Arc<ExemplarSet>>,
}

/// The registry: name → metric handle. Handles are `Arc`s, so the lock is
/// only held while resolving a name; updates through a resolved handle are
/// lock-free.
///
/// # Examples
///
/// ```
/// use dynplat_obs::MetricsRegistry;
///
/// let registry = MetricsRegistry::new();
/// let sends = registry.counter("comm.fabric.sends");
/// sends.add(3);
/// let lat = registry.histogram("comm.fabric.latency_ns");
/// lat.record(1_500);
/// let snap = registry.snapshot();
/// assert_eq!(snap.counters["comm.fabric.sends"], 3);
/// assert_eq!(snap.histograms["comm.fabric.latency_ns"].count, 1);
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Resolves (creating on first use) the counter `name`.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        if let Some(c) = self.inner.read().expect("registry lock").counters.get(name) {
            return Arc::clone(c);
        }
        let mut inner = self.inner.write().expect("registry lock");
        Arc::clone(inner.counters.entry(name).or_default())
    }

    /// Resolves (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        if let Some(g) = self.inner.read().expect("registry lock").gauges.get(name) {
            return Arc::clone(g);
        }
        let mut inner = self.inner.write().expect("registry lock");
        Arc::clone(inner.gauges.entry(name).or_default())
    }

    /// Resolves (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        if let Some(h) = self
            .inner
            .read()
            .expect("registry lock")
            .histograms
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut inner = self.inner.write().expect("registry lock");
        Arc::clone(inner.histograms.entry(name).or_default())
    }

    /// Resolves (creating on first use) the exemplar set `name`
    /// (default top-K capacity, [`crate::exemplar::DEFAULT_EXEMPLARS`]).
    pub fn exemplars(&self, name: &'static str) -> Arc<ExemplarSet> {
        if let Some(e) = self
            .inner
            .read()
            .expect("registry lock")
            .exemplars
            .get(name)
        {
            return Arc::clone(e);
        }
        let mut inner = self.inner.write().expect("registry lock");
        Arc::clone(inner.exemplars.entry(name).or_default())
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read().expect("registry lock");
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| ((*k).to_owned(), v.snapshot()))
                .collect(),
        }
    }

    /// The retained exemplars of every registered set, by name (kept out
    /// of [`MetricsSnapshot`]: exemplars link to traces, not to the perf
    /// baseline the CI gate diffs).
    pub fn exemplar_snapshot(&self) -> BTreeMap<String, Vec<Exemplar>> {
        let inner = self.inner.read().expect("registry lock");
        inner
            .exemplars
            .iter()
            .map(|(k, v)| ((*k).to_owned(), v.snapshot()))
            .collect()
    }

    /// Zeroes every metric *in place*: handles already resolved by call
    /// sites stay valid, which is what makes back-to-back hermetic bench
    /// phases possible.
    pub fn reset(&self) {
        let inner = self.inner.read().expect("registry lock");
        for c in inner.counters.values() {
            c.reset();
        }
        for g in inner.gauges.values() {
            g.reset();
        }
        for h in inner.histograms.values() {
            h.reset();
        }
        for e in inner.exemplars.values() {
            e.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let r = MetricsRegistry::new();
        r.counter("a").inc();
        r.counter("a").add(4);
        r.gauge("g").set(-3);
        assert_eq!(r.counter("a").get(), 5);
        assert_eq!(r.gauge("g").get(), -3);
    }

    #[test]
    fn same_name_same_handle() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        assert_eq!(b.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn record_n_matches_n_individual_records() {
        let r = MetricsRegistry::new();
        let bulk = r.histogram("bulk");
        let one_by_one = r.histogram("single");
        for (value, n) in [(7u64, 3u64), (1_200, 5), (0, 2), (999_999, 1)] {
            bulk.record_n(value, n);
            for _ in 0..n {
                one_by_one.record(value);
            }
        }
        bulk.record_n(42, 0); // a zero-count merge is a no-op
        assert_eq!(bulk.snapshot(), one_by_one.snapshot());
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let r = MetricsRegistry::new();
        let c = r.counter("striped");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        c.add(5);
        assert_eq!(c.get(), 40_005);
        r.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn local_histogram_flush_matches_direct_records() {
        let direct = Histogram::default();
        let shared = Histogram::default();
        let mut local = LocalHistogram::new();
        for v in [1u64, 3, 50, 999, 1_000_000, 0, 7_000_000_000_000_000_000] {
            direct.record(v);
            local.record(v);
        }
        assert_eq!(local.count, 7);
        local.flush_into(&shared);
        assert_eq!(local.count, 0, "flush clears the local side");
        assert_eq!(shared.snapshot(), direct.snapshot());
        // Flushing an empty accumulator is a no-op.
        local.flush_into(&shared);
        assert_eq!(shared.snapshot().count, 7);
    }

    #[test]
    fn local_histogram_to_sketch_equals_the_record_fold() {
        let mut local = LocalHistogram::new();
        assert_eq!(
            local.to_sketch(),
            Sketch::default(),
            "empty converts to empty"
        );
        let mut direct = Sketch::default();
        let mut v = 7u64;
        for i in 0..5_000u64 {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Mostly small latencies, some huge ones so the sum saturates.
            let x = if i % 97 == 0 { v } else { v >> (40 + i % 24) };
            local.record(x);
            direct.record(x);
        }
        assert_eq!(local.to_sketch(), direct);
        assert_eq!(direct.sum(), u64::MAX, "the probe must saturate the sum");
        assert_eq!(local.count, 5_000, "conversion leaves the accumulator");
    }

    #[test]
    fn histogram_quantiles_land_in_correct_buckets() {
        let h = Histogram::default();
        // 100 values: 1..=100. Buckets are exact below 64 and two wide
        // up to 128, so p95 -> 95th value = 95 lands in [94, 95].
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.snapshot().count, 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert_eq!(h.quantile(0.5), 50);
        assert_eq!(h.quantile(0.95), 95);
        assert_eq!(h.quantile(0.99), 99);
        assert_eq!(h.quantile(1.0), 100);
    }

    #[test]
    fn histogram_quantile_clamped_to_observed_max() {
        let h = Histogram::default();
        h.record(1_000); // bucket [992, 1023]
        assert_eq!(h.quantile(0.5), 1_000, "bound must clamp to observed max");
        assert_eq!(h.quantile(0.0), 1_000);
    }

    #[test]
    fn histogram_overflow_bucket_reports_max() {
        let h = Histogram::default();
        let big = u64::MAX - 7; // in the last bucket, bound u64::MAX
        h.record(big);
        assert_eq!(h.quantile(0.99), big);
        assert_eq!(h.snapshot().buckets, vec![(u64::MAX, 1)]);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().count, 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn sketches_and_exemplars_live_in_the_registry() {
        // A worker's sketch is published by merging it into a registry
        // histogram; the result equals the snapshot of a histogram that
        // recorded the same values.
        let r = MetricsRegistry::new();
        let mut sketch = Sketch::default();
        sketch.record_n(100, 4);
        sketch.record(5_000);
        let h = r.histogram("reg.sketch");
        h.merge(&sketch);
        h.merge(&Sketch::default()); // merging an empty sketch is a no-op
        let e = r.exemplars("reg.exemplars");
        e.offer(9_000, crate::TraceCtx::new(0xAB, 2));
        let snap = r.snapshot();
        let recorded = Histogram::default();
        recorded.record_n(100, 4);
        recorded.record(5_000);
        assert_eq!(snap.histograms["reg.sketch"], recorded.snapshot());
        let ex = r.exemplar_snapshot();
        assert_eq!(ex["reg.exemplars"][0].value, 9_000);
        r.reset();
        assert_eq!(r.histogram("reg.sketch").snapshot().count, 0);
        assert!(r.exemplar_snapshot()["reg.exemplars"].is_empty());
    }

    #[test]
    fn snapshot_quantiles_recompute_from_their_own_buckets() {
        // The drift fix: a snapshot's p50/p95/p99 must be derivable from
        // the snapshot's own buckets, even while striped flushes land.
        let h = Arc::new(Histogram::default());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for worker in 0..3u64 {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    let mut local = LocalHistogram::new();
                    let mut v = worker + 1;
                    // relaxed: test-only stop flag, no data published.
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            v = v.wrapping_mul(6364136223846793005).wrapping_add(worker);
                            local.record(v % 1_000_000);
                        }
                        local.flush_into(&h);
                    }
                });
            }
            for _ in 0..200 {
                let snap = h.snapshot();
                for (q, expect) in [(0.50, snap.p50), (0.95, snap.p95), (0.99, snap.p99)] {
                    assert_eq!(
                        snap.quantile(q),
                        expect,
                        "snapshot internally inconsistent at q{q}: {snap:?}"
                    );
                }
            }
            // relaxed: see above.
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn reset_zeroes_in_place() {
        let r = MetricsRegistry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(7);
        h.record(10);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(h.snapshot().count, 0);
        // The pre-reset handle still feeds the registry.
        c.inc();
        assert_eq!(r.snapshot().counters["c"], 1);
    }
}
