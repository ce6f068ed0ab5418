//! The one bucket layout of the crate, and the sparse mergeable sketch.
//!
//! Every quantile structure here — the atomic [`crate::Histogram`], the
//! single-owner [`crate::LocalHistogram`] and the sparse [`Sketch`] —
//! indexes its buckets through [`sketch_bucket_index`]. The mapping is
//! HDR-style log-linear and pure integer arithmetic: values below 32 are
//! exact, and every power-of-two range above is split into 32 linear
//! sub-buckets, so the relative quantile error is bounded by 1/32 ≈ 3.1 %
//! over the whole `u64` range, and the index range is bounded by
//! [`SKETCH_MAX_INDEX`] (1920), small enough for a dense array. No `log()`
//! call is involved, because libm dispersion is exactly what the workspace
//! bans from deterministic paths (see [`crate::trace`] on wall time and
//! `monitor::uncertainty::normal_cdf` on erf).
//!
//! [`Sketch`] keeps the same buckets sparse (sorted `(index, count)`
//! pairs): an empty sketch is 5 words, and a latency distribution
//! typically occupies a few dozen buckets, cheap enough to clone, compare
//! and embed one per pipeline stage in every `fleet::ShardMetrics`. Its
//! merge is **associative and commutative** — any shard count, any merge
//! order, identical aggregate — which is what keeps fleet aggregates
//! byte-identical across shard counts. A merged sketch is published into a
//! registry [`crate::Histogram`] with [`crate::Histogram::merge`].

use crate::snapshot::{merge_buckets, nearest_rank, HistogramSnapshot};

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
        self.buckets = merge_buckets(&self.buckets, &other.buckets);
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
        nearest_rank(
            self.buckets
                .iter()
                .map(|&(i, n)| (sketch_bucket_upper(i), n)),
            self.count,
            q,
            self.min,
            self.max,
        )
    }

    /// Sparse non-empty `(bucket_index, count)` pairs, sorted by index.
    pub fn nonzero_buckets(&self) -> &[(u16, u64)] {
        &self.buckets
    }

    /// A serializable point-in-time copy, in the same layout-independent
    /// shape a [`crate::Histogram`] snapshot has.
    pub fn to_snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot::from_buckets(
            self.buckets
                .iter()
                .map(|&(i, n)| (sketch_bucket_upper(i), n))
                .collect(),
            self.sum,
            self.min(),
            self.max,
        )
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
}
