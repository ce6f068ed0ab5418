//! Mergeable log-bucketed quantile sketches (DDSketch-style, integer-only).
//!
//! The fixed 1–2–5 [`crate::Histogram`] answers "what is p99 on *this*
//! process", but a fleet campaign needs quantiles over 10⁵–10⁶ vehicles
//! whose observations were aggregated per shard and merged afterwards.
//! That demands a sketch whose merge is **associative and commutative** —
//! any shard count, any merge order, byte-identical aggregate — and whose
//! bucket mapping is exact integer arithmetic, because a `log()` call is
//! exactly the kind of libm dispersion the workspace bans from
//! deterministic paths (see [`crate::trace`] on wall time and
//! `monitor::uncertainty::normal_cdf` on erf).
//!
//! The mapping is HDR-style log-linear: values below 32 are exact, and
//! every power-of-two range above is split into 32 linear sub-buckets, so
//! the relative quantile error is bounded by 1/32 ≈ 3.1 % over the whole
//! `u64` range. Buckets are kept sparse (sorted `(index, count)` pairs):
//! an empty sketch is 5 words, and a latency distribution typically
//! occupies a few dozen buckets, cheap enough to embed one per pipeline
//! stage in every `fleet::ShardMetrics`.

use std::sync::Mutex;

/// Number of linear sub-buckets per power-of-two range, as a bit count.
pub const SKETCH_SUBBITS: u32 = 5;

/// Number of linear sub-buckets per power-of-two range (32).
pub const SKETCH_SUB: u64 = 1 << SKETCH_SUBBITS;

/// Exclusive upper bound on sketch bucket indices: values 0–31 map to
/// exact buckets 0–31, and each of the 59 covered exponent ranges above
/// contributes [`SKETCH_SUB`] sub-buckets (`32 + 59·32 = 1920`).
pub const SKETCH_MAX_INDEX: u16 = (SKETCH_SUB + (64 - SKETCH_SUBBITS as u64) * SKETCH_SUB) as u16;

/// Bucket index of `value`: exact below [`SKETCH_SUB`], log-linear above.
/// Pure integer arithmetic — no floats, no libm, no platform dispersion.
#[inline]
pub fn sketch_bucket_index(value: u64) -> u16 {
    if value < SKETCH_SUB {
        return value as u16;
    }
    let exp = 63 - value.leading_zeros(); // >= SKETCH_SUBBITS here
    let sub = (value >> (exp - SKETCH_SUBBITS)) - SKETCH_SUB;
    (SKETCH_SUB + (exp - SKETCH_SUBBITS) as u64 * SKETCH_SUB + sub) as u16
}

/// Smallest value mapping to bucket `index`.
#[inline]
pub fn sketch_bucket_lower(index: u16) -> u64 {
    let i = index as u64;
    if i < SKETCH_SUB {
        return i;
    }
    let exp = (i - SKETCH_SUB) / SKETCH_SUB;
    let sub = (i - SKETCH_SUB) % SKETCH_SUB;
    (SKETCH_SUB + sub) << exp
}

/// Largest value mapping to bucket `index` (inclusive).
#[inline]
pub fn sketch_bucket_upper(index: u16) -> u64 {
    if index as u32 + 1 >= SKETCH_MAX_INDEX as u32 {
        return u64::MAX;
    }
    sketch_bucket_lower(index + 1) - 1
}

/// A mergeable quantile sketch over `u64` observations.
///
/// Count, sum, min and max are exact; quantiles are bucketed with relative
/// error ≤ 1/32. [`Sketch::merge`] is associative and commutative, and two
/// sketches built from the same multiset of observations — regardless of
/// recording order or merge tree — compare equal, which is what keeps
/// fleet aggregates byte-identical across shard counts.
///
/// # Examples
///
/// ```
/// use dynplat_obs::Sketch;
///
/// let mut a = Sketch::new();
/// let mut b = Sketch::new();
/// for v in 1..=600u64 {
///     if v % 2 == 0 { a.record(v) } else { b.record(v) }
/// }
/// let mut merged = a.clone();
/// merged.merge(&b);
/// assert_eq!(merged.count(), 600);
/// let p50 = merged.quantile(0.5);
/// assert!((270..=330).contains(&p50), "p50 {p50} within 1/32 of 300");
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sketch {
    /// Sparse non-empty buckets, sorted by index.
    buckets: Vec<(u16, u64)>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Sketch {
    fn default() -> Self {
        Sketch {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Sketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        Sketch::default()
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical observations in one shot (the pre-aggregated
    /// merge primitive, mirroring [`crate::Histogram::record_n`]).
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = sketch_bucket_index(value);
        match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
            Ok(pos) => self.buckets[pos].1 += n,
            Err(pos) => self.buckets.insert(pos, (idx, n)),
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`. Associative and commutative: any merge
    /// tree over the same sketches yields the identical result.
    pub fn merge(&mut self, other: &Sketch) {
        if other.count == 0 {
            return;
        }
        let mut merged = Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (
            self.buckets.iter().peekable(),
            other.buckets.iter().peekable(),
        );
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ia, na)), Some(&&(ib, nb))) => {
                    if ia < ib {
                        merged.push((ia, na));
                        a.next();
                    } else if ib < ia {
                        merged.push((ib, nb));
                        b.next();
                    } else {
                        merged.push((ia, na + nb));
                        a.next();
                        b.next();
                    }
                }
                (Some(&&e), None) => {
                    merged.push(e);
                    a.next();
                }
                (None, Some(&&e)) => {
                    merged.push(e);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// `true` before the first observation.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile observation
    /// (nearest rank, `q` in `[0, 1]`), clamped to the exact observed
    /// min/max; 0 when empty. Relative error ≤ 1/32.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for &(idx, n) in &self.buckets {
            acc += n;
            if acc >= target {
                return sketch_bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Observations in buckets that lie entirely at or above `threshold`
    /// — the "slow request" counter behind latency SLOs. Boundary-bucket
    /// observations are excluded, so the count can undershoot by at most
    /// the one bucket straddling `threshold` (≤ 1/32 relative error in the
    /// threshold itself).
    pub fn count_over(&self, threshold: u64) -> u64 {
        let first = sketch_bucket_index(threshold);
        // Buckets strictly above `first` lie entirely >= threshold;
        // `first` itself qualifies only when the threshold sits on its
        // lower edge.
        let exact = sketch_bucket_lower(first) == threshold;
        self.buckets
            .iter()
            .filter(|&&(i, _)| i > first || (exact && i == first))
            .map(|&(_, n)| n)
            .sum()
    }

    /// Sparse non-empty `(bucket_index, count)` pairs, sorted by index.
    pub fn nonzero_buckets(&self) -> &[(u16, u64)] {
        &self.buckets
    }

    /// A serializable point-in-time copy.
    pub fn to_snapshot(&self) -> SketchSnapshot {
        SketchSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min(),
            max: self.max,
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self.buckets.clone(),
        }
    }
}

/// Aggregate state of one [`Sketch`] at snapshot time. The derived
/// quantiles (`p50`/`p95`/`p99`) are recomputed on merge, so a merged
/// snapshot equals the snapshot of the merged sketch.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SketchSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (saturating).
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Median estimate (bucket upper bound, clamped to `[min, max]`).
    pub p50: u64,
    /// 95th-percentile estimate.
    pub p95: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
    /// Sparse non-empty `(bucket_index, count)` pairs, sorted by index.
    pub buckets: Vec<(u16, u64)>,
}

impl SketchSnapshot {
    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate recomputed from the stored buckets (nearest
    /// rank), clamped to `[min, max]`; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for &(idx, n) in &self.buckets {
            acc += n;
            if acc >= target {
                return sketch_bucket_upper(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` into `self`, recomputing the derived quantiles.
    /// Associative and commutative like [`Sketch::merge`].
    pub fn merge(&mut self, other: &SketchSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut sk = Sketch {
            buckets: std::mem::take(&mut self.buckets),
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { u64::MAX } else { self.min },
            max: self.max,
        };
        let rhs = Sketch {
            buckets: other.buckets.clone(),
            count: other.count,
            sum: other.sum,
            min: other.min,
            max: other.max,
        };
        sk.merge(&rhs);
        *self = sk.to_snapshot();
    }
}

/// A shared, thread-safe sketch handle for the
/// [`crate::MetricsRegistry`]. Sketches are coarse-grained (a short
/// mutex-guarded update, not a hot-path atomic): the sanctioned pattern is
/// to accumulate into an owned [`Sketch`] per worker and merge once per
/// batch, exactly like [`crate::LocalHistogram`] flushes.
#[derive(Debug, Default)]
pub struct SketchCell {
    inner: Mutex<Sketch>,
}

impl SketchCell {
    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.inner.lock().expect("sketch lock").record(value);
    }

    /// Records `n` identical observations.
    pub fn record_n(&self, value: u64, n: u64) {
        self.inner.lock().expect("sketch lock").record_n(value, n);
    }

    /// Folds a pre-aggregated sketch into the shared cell — the flush
    /// primitive for per-worker accumulators.
    pub fn merge(&self, other: &Sketch) {
        self.inner.lock().expect("sketch lock").merge(other);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.inner.lock().expect("sketch lock").count()
    }

    /// Quantile estimate (see [`Sketch::quantile`]).
    pub fn quantile(&self, q: f64) -> u64 {
        self.inner.lock().expect("sketch lock").quantile(q)
    }

    /// A serializable point-in-time copy.
    pub fn snapshot(&self) -> SketchSnapshot {
        self.inner.lock().expect("sketch lock").to_snapshot()
    }

    pub(crate) fn reset(&self) {
        *self.inner.lock().expect("sketch lock") = Sketch::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SKETCH_SUB {
            assert_eq!(sketch_bucket_index(v) as u64, v);
            assert_eq!(sketch_bucket_lower(v as u16), v);
            if v + 1 < SKETCH_SUB {
                assert_eq!(sketch_bucket_upper(v as u16), v);
            }
        }
    }

    #[test]
    fn bucket_mapping_is_monotone_and_self_consistent() {
        let probes = [
            0u64,
            1,
            31,
            32,
            33,
            63,
            64,
            65,
            1_000,
            1_000_000,
            u32::MAX as u64,
            1 << 40,
            (1 << 40) + 12345,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut last = 0u16;
        for (k, &v) in probes.iter().enumerate() {
            let idx = sketch_bucket_index(v);
            assert!(
                sketch_bucket_lower(idx) <= v && v <= sketch_bucket_upper(idx),
                "value {v} outside its bucket {idx}"
            );
            if k > 0 {
                assert!(idx >= last, "index not monotone at {v}");
            }
            last = idx;
        }
        assert!(sketch_bucket_index(u64::MAX) < SKETCH_MAX_INDEX);
    }

    #[test]
    fn relative_error_is_bounded() {
        // Every bucket above the exact range spans < 1/32 of its lower
        // bound, so the quantile's relative error stays under ~3.1 %.
        for idx in SKETCH_SUB as u16..SKETCH_MAX_INDEX - 1 {
            let lo = sketch_bucket_lower(idx);
            let hi = sketch_bucket_upper(idx);
            assert!(hi - lo < lo / (SKETCH_SUB - 1) + 1, "bucket {idx} too wide");
        }
    }

    #[test]
    fn quantiles_track_a_uniform_stream() {
        let mut s = Sketch::new();
        for v in 1..=10_000u64 {
            s.record(v);
        }
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.sum(), 50_005_000);
        assert_eq!(s.min(), 1);
        assert_eq!(s.max(), 10_000);
        for (q, truth) in [(0.5, 5_000u64), (0.95, 9_500), (0.99, 9_900)] {
            let est = s.quantile(q);
            let err = est.abs_diff(truth) as f64 / truth as f64;
            assert!(err <= 1.0 / 31.0, "q{q}: {est} vs {truth} (err {err})");
        }
    }

    #[test]
    fn merge_is_order_invariant_and_conserving() {
        let mut parts: Vec<Sketch> = (0..4).map(|_| Sketch::new()).collect();
        let mut whole = Sketch::new();
        for v in 0..1_000u64 {
            let x = v * v % 7_919 + 1;
            parts[(v % 4) as usize].record(x);
            whole.record(x);
        }
        let mut fwd = Sketch::new();
        for p in &parts {
            fwd.merge(&p.clone());
        }
        let mut rev = Sketch::new();
        for p in parts.iter().rev() {
            rev.merge(p);
        }
        assert_eq!(fwd, rev, "merge must be commutative");
        assert_eq!(fwd, whole, "merge must equal direct recording");
        assert_eq!(fwd.count(), 1_000);
        assert_eq!(fwd.sum(), whole.sum());
    }

    #[test]
    fn empty_sketch_is_all_zero_and_merge_identity() {
        let empty = Sketch::new();
        assert!(empty.is_empty());
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.min(), 0);
        let mut s = Sketch::new();
        s.record(42);
        let before = s.clone();
        s.merge(&empty);
        assert_eq!(s, before, "merging an empty sketch is the identity");
    }

    #[test]
    fn count_over_splits_at_bucket_edges() {
        let mut s = Sketch::new();
        for v in [10u64, 20, 30, 40, 100, 1_000] {
            s.record(v);
        }
        assert_eq!(s.count_over(0), 6);
        assert_eq!(s.count_over(30), 4, "exact edge includes its bucket");
        assert_eq!(s.count_over(1_001), 0);
        assert_eq!(Sketch::new().count_over(5), 0);
    }

    #[test]
    fn snapshot_merge_matches_sketch_merge() {
        let mut a = Sketch::new();
        let mut b = Sketch::new();
        for v in 0..500u64 {
            if v % 3 == 0 {
                a.record(v * 17 + 1);
            } else {
                b.record(v * 13 + 5);
            }
        }
        let mut via_snapshot = a.to_snapshot();
        via_snapshot.merge(&b.to_snapshot());
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(via_snapshot, direct.to_snapshot());
        assert_eq!(via_snapshot.quantile(0.95), via_snapshot.p95);
    }

    #[test]
    fn cell_roundtrips_and_resets() {
        let cell = SketchCell::default();
        cell.record(5);
        cell.record_n(50, 3);
        let mut local = Sketch::new();
        local.record(500);
        cell.merge(&local);
        assert_eq!(cell.count(), 5);
        let snap = cell.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.max, 500);
        cell.reset();
        assert_eq!(cell.count(), 0);
    }
}
