//! Deterministic randomness helpers.
//!
//! Every experiment in the workspace must be reproducible from a seed, so all
//! stochastic components (workload generators, jitter models, simulated
//! annealing, fault injection) draw from [`seeded_rng`] or from streams split
//! off a parent seed with [`split_seed`].
//!
//! The generator is implemented in-repo (a SplitMix64 stream, the same
//! finalizer [`split_seed`] uses) so the workspace builds with no external
//! dependencies and fault campaigns replay byte-identically on every
//! toolchain. The [`Rng`] trait mirrors the small slice of the `rand` API
//! the workspace uses (`gen`, `gen_range`, `gen_bool`).

use std::ops::{Range, RangeInclusive};

/// The minimal random-number interface used across the workspace.
///
/// Mirrors the `rand::Rng` surface the crates rely on so generic samplers
/// (`fn sample<R: Rng>(rng: &mut R)`) read identically.
pub trait Rng {
    /// Returns the next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Samples a uniformly distributed value of `T`.
    fn gen<T: Sample>(&mut self) -> T
    where
        Self: Sized,
    {
        T::sample(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T, S>(&mut self, range: S) -> T
    where
        S: SampleRange<T>,
        Self: Sized,
    {
        range.sample_in(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        Bernoulli::new(p).sample(self)
    }
}

/// Types that can be sampled uniformly from an [`Rng`].
pub trait Sample: Sized {
    /// Draws one uniformly distributed value.
    fn sample<R: Rng>(rng: &mut R) -> Self;
}

macro_rules! impl_sample_uint {
    ($($ty:ty),*) => {$(
        impl Sample for $ty {
            fn sample<R: Rng>(rng: &mut R) -> Self {
                // Truncation keeps the uniform distribution of the low bits.
                rng.next_u64() as $ty
            }
        }
    )*};
}

impl_sample_uint!(u8, u16, u32, u64, usize, i64);

impl Sample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn sample<R: Rng>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// A coin with probability `p` of `true`, validated once and drawn with
/// integer arithmetic only.
///
/// [`Bernoulli::new`] stores the exact threshold `⌈p·2⁵³⌉`, and
/// [`Bernoulli::sample`] compares the top 53 bits of one draw against it.
/// That is the same decision as the float test `u < p` on the unit draw
/// `u = (bits >> 11)·2⁻⁵³` ([`Sample`] for `f64`), for every `p` and every
/// draw: `u·2⁵³` is the integer `bits >> 11`, scaling `p` by a power of
/// two is exact, and an integer is below `p·2⁵³` iff it is below its
/// ceiling. Hot loops build their coins once and sample them many times;
/// [`Rng::gen_bool`] is a one-shot coin.
///
/// # Examples
///
/// ```
/// use dynplat_common::rng::{seeded_rng, Bernoulli, Rng};
///
/// let coin = Bernoulli::new(0.3);
/// let (mut a, mut b) = (seeded_rng(4), seeded_rng(4));
/// for _ in 0..100 {
///     assert_eq!(coin.sample(&mut a), b.gen::<f64>() < 0.3);
/// }
/// assert!(Bernoulli::new(0.0).is_never());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bernoulli {
    /// `⌈p·2⁵³⌉`: a draw's top 53 bits below it mean `true`.
    threshold: u64,
}

impl Bernoulli {
    /// A coin that lands `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        // Exact: `p ≤ 1`, and scaling by a power of two only moves the
        // exponent (a subnormal `p` comes out normal). The ceiling is
        // taken without libm: truncate, then add one if that dropped a
        // fraction.
        let x = p * (1u64 << 53) as f64;
        let floor = x as u64;
        Bernoulli {
            threshold: floor + u64::from((floor as f64) < x),
        }
    }

    /// `true` iff the coin can never land `true` (`p == 0`), so a caller
    /// may skip the draw without changing any later one.
    pub fn is_never(&self) -> bool {
        self.threshold == 0
    }

    /// Draws the coin: one `next_u64`, one shift, one compare.
    #[inline]
    pub fn sample<R: Rng>(&self, rng: &mut R) -> bool {
        rng.next_u64() >> 11 < self.threshold
    }
}

/// Ranges that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_in<R: Rng>(self, rng: &mut R) -> T;
}

/// Maps 64 random bits onto `[0, span)` by widening multiply (no modulo
/// skew worth speaking of at simulation scales).
fn bounded(bits: u64, span: u64) -> u64 {
    ((u128::from(bits) * u128::from(span)) >> 64) as u64
}

macro_rules! impl_sample_range_int {
    ($($ty:ty),*) => {$(
        impl SampleRange<$ty> for Range<$ty> {
            fn sample_in<R: Rng>(self, rng: &mut R) -> $ty {
                assert!(self.start < self.end, "cannot sample from empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + bounded(rng.next_u64(), span) as i128) as $ty
            }
        }
        impl SampleRange<$ty> for RangeInclusive<$ty> {
            fn sample_in<R: Rng>(self, rng: &mut R) -> $ty {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample from empty range");
                let span = (end as i128 - start as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $ty;
                }
                (start as i128 + bounded(rng.next_u64(), span + 1) as i128) as $ty
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64);

impl SampleRange<f64> for Range<f64> {
    fn sample_in<R: Rng>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample from empty range");
        let u = f64::sample(rng);
        let out = self.start + u * (self.end - self.start);
        // Guard against rounding up to the excluded endpoint.
        if out < self.end {
            out
        } else {
            self.start
        }
    }
}

/// A deterministic SplitMix64 random-number generator.
///
/// Tiny state, fast fixed-cost steps, and — critical for the fault-injection
/// layer — the same stream on every platform and toolchain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives an independent generator for a labeled stream, equivalent to
    /// `seeded_rng(split_seed(seed, stream))`.
    pub fn stream(&self, stream: u64) -> SplitMix64 {
        SplitMix64::new(split_seed(self.state, stream))
    }
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use dynplat_common::rng::Rng;
///
/// let mut a = dynplat_common::rng::seeded_rng(7);
/// let mut b = dynplat_common::rng::seeded_rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> SplitMix64 {
    SplitMix64::new(seed)
}

/// Derives an independent child seed from a parent seed and a stream label.
///
/// Uses the SplitMix64 finalizer, which decorrelates nearby inputs, so
/// `split_seed(s, 0)` and `split_seed(s, 1)` yield unrelated streams.
pub fn split_seed(parent: u64, stream: u64) -> u64 {
    let mut z = parent ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Samples a truncated-normal duration multiplier in `[min, max]`.
///
/// Used by jitter models: a nominal duration is scaled by a factor around
/// 1.0. Sampling is by rejection with a Box–Muller transform; falls back to
/// the clamped mean after 64 rejections (pathological bounds).
///
/// # Panics
///
/// Panics if `min > max` or `sigma` is negative.
pub fn truncated_normal_factor<R: Rng>(rng: &mut R, sigma: f64, min: f64, max: f64) -> f64 {
    assert!(min <= max, "min must not exceed max");
    assert!(sigma >= 0.0, "sigma must be non-negative");
    if sigma == 0.0 {
        return 1.0f64.clamp(min, max);
    }
    for _ in 0..64 {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let x = 1.0 + sigma * z;
        if x >= min && x <= max {
            return x;
        }
    }
    1.0f64.clamp(min, max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let mut a = seeded_rng(123);
        let mut b = seeded_rng(123);
        for _ in 0..10 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn split_seed_decorrelates_streams() {
        let s = 42;
        assert_ne!(split_seed(s, 0), split_seed(s, 1));
        assert_ne!(split_seed(s, 0), split_seed(s + 1, 0));
        // Deterministic.
        assert_eq!(split_seed(s, 3), split_seed(s, 3));
    }

    #[test]
    fn stream_matches_split_seed() {
        let mut direct = seeded_rng(split_seed(9, 4));
        let mut via_stream = seeded_rng(9).stream(4);
        assert_eq!(direct.next_u64(), via_stream.next_u64());
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = seeded_rng(7);
        for _ in 0..2000 {
            let a = rng.gen_range(3u64..17);
            assert!((3..17).contains(&a));
            let b = rng.gen_range(-5i64..=5);
            assert!((-5..=5).contains(&b));
            let c = rng.gen_range(0usize..3);
            assert!(c < 3);
            let d = rng.gen_range(-1.5f64..1.5);
            assert!((-1.5..1.5).contains(&d));
        }
    }

    #[test]
    fn gen_range_covers_small_domains() {
        // Every value of a small range is hit (sanity against off-by-one).
        let mut rng = seeded_rng(3);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unit_interval_is_half_open() {
        let mut rng = seeded_rng(21);
        for _ in 0..5000 {
            let u = rng.gen::<f64>();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = seeded_rng(5);
        let n = 10_000;
        let hits = (0..n).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / f64::from(n);
        assert!((rate - 0.3).abs() < 0.02, "rate {rate} too far from 0.3");
    }

    /// An `Rng` that replays queued draws, last first.
    struct Replay(Vec<u64>);

    impl Rng for Replay {
        fn next_u64(&mut self) -> u64 {
            self.0.pop().expect("a draw is queued")
        }
    }

    /// The float coin `gen_bool` used to be: the unit draw against `p`.
    fn float_coin(bits: u64, p: f64) -> bool {
        ((bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
    }

    #[test]
    fn bernoulli_matches_the_float_formula_at_its_threshold() {
        let ulp = |x: f64, step: i64| f64::from_bits(x.to_bits().wrapping_add_signed(step));
        let tiny = 1.0 / (1u64 << 53) as f64;
        let mut ps = vec![
            0.0,
            5e-324,
            ulp(tiny, -1),
            tiny,
            ulp(tiny, 1),
            0.5,
            1.0 - f64::EPSILON,
            ulp(1.0, -1),
            1.0,
        ];
        let mut rng = seeded_rng(0xB0);
        ps.extend((0..2_000).map(|_| rng.gen::<f64>()));
        ps.extend((0..200).map(|_| rng.gen::<f64>() * tiny * 64.0));
        let top = (1u64 << 53) - 1;
        for p in ps {
            let coin = Bernoulli::new(p);
            assert_eq!(coin.is_never(), p == 0.0, "p {p:e}");
            let t = coin.threshold;
            for m in [t.wrapping_sub(1), t, t + 1, 0, top] {
                if m > top {
                    continue;
                }
                // The 11 bits below the unit draw never matter.
                for low in [0u64, 0x7FF] {
                    let bits = m << 11 | low;
                    assert_eq!(
                        coin.sample(&mut Replay(vec![bits])),
                        float_coin(bits, p),
                        "p {p:e}, top bits {m}"
                    );
                }
            }
        }
    }

    #[test]
    fn gen_bool_keeps_the_float_draw_sequence() {
        let (mut a, mut b) = (seeded_rng(17), seeded_rng(17));
        for i in 0..4_000u32 {
            let p = f64::from(i % 101) / 100.0;
            assert_eq!(a.gen_bool(p), b.gen::<f64>() < p, "draw {i}");
        }
        assert_eq!(a, b, "one draw per coin");
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn bernoulli_rejects_a_rate_above_one() {
        let _ = Bernoulli::new(1.5);
    }

    #[test]
    fn truncated_normal_stays_in_bounds() {
        let mut rng = seeded_rng(9);
        for _ in 0..1000 {
            let x = truncated_normal_factor(&mut rng, 0.2, 0.5, 1.5);
            assert!((0.5..=1.5).contains(&x));
        }
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let mut rng = seeded_rng(9);
        assert_eq!(truncated_normal_factor(&mut rng, 0.0, 0.9, 1.1), 1.0);
        assert_eq!(truncated_normal_factor(&mut rng, 0.0, 1.2, 1.4), 1.2);
    }

    #[test]
    fn mean_is_near_one() {
        let mut rng = seeded_rng(5);
        let n = 5000;
        let sum: f64 = (0..n)
            .map(|_| truncated_normal_factor(&mut rng, 0.1, 0.0, 2.0))
            .sum();
        let mean = sum / f64::from(n);
        assert!((mean - 1.0).abs() < 0.02, "mean {mean} too far from 1.0");
    }
}
