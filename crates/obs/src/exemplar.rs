//! Top-K worst-value exemplars linking metrics back to traces.
//!
//! A histogram tells you p99 regressed; it cannot tell you *which
//! message* sat in the tail. An [`ExemplarSet`] keeps the K largest
//! observed values together with the [`TraceCtx`] that produced each, so
//! the worst latencies in a run are one trace-id lookup away from their
//! full causal chain (flight-recorder events, Chrome trace spans).
//!
//! Hot-path discipline: keeping top-K is a *max* operation —
//! commutative and order-insensitive — so shards and threads can offer
//! concurrently and the final set is deterministic (ties broken by trace
//! context). The shared set screens offers against a relaxed atomic
//! floor (one load + compare once the set is full), and the fabric's
//! steady-state loop uses the lock-free [`LocalExemplars`] accumulator
//! flushed once per run, mirroring [`crate::LocalHistogram`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::trace::TraceCtx;

/// Default number of exemplars a set retains.
pub const DEFAULT_EXEMPLARS: usize = 8;

/// One exemplar: an observed value and the trace that produced it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exemplar {
    /// The observation (typically latency in nanoseconds).
    pub value: u64,
    /// Causal context of the observation.
    pub trace: TraceCtx,
}

impl Exemplar {
    /// Descending by value, then ascending by trace context — the one
    /// deterministic order every set and snapshot uses.
    fn rank(&self) -> (std::cmp::Reverse<u64>, u64, u64) {
        (
            std::cmp::Reverse(self.value),
            self.trace.trace_id,
            self.trace.span,
        )
    }
}

/// Inserts `e` into the descending-sorted `buf`, truncating to `k`.
/// Returns the new floor (smallest retained value once full, else 0).
fn offer_sorted(buf: &mut Vec<Exemplar>, k: usize, e: Exemplar) -> u64 {
    let pos = buf.partition_point(|x| x.rank() <= e.rank());
    if pos < k {
        buf.insert(pos, e);
        buf.truncate(k);
    }
    if buf.len() == k {
        buf[k - 1].value
    } else {
        0
    }
}

/// A shared top-K exemplar set (registry handle).
#[derive(Debug)]
pub struct ExemplarSet {
    k: usize,
    /// Values strictly below this floor cannot enter a full set (ties at
    /// the floor go to the slow path so rank order stays deterministic);
    /// stale reads only cost a slow-path lock, never a lost exemplar.
    floor: AtomicU64,
    inner: Mutex<Vec<Exemplar>>,
}

impl Default for ExemplarSet {
    fn default() -> Self {
        ExemplarSet::new(DEFAULT_EXEMPLARS)
    }
}

impl ExemplarSet {
    /// A set retaining the `k` largest offers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "exemplar capacity must be non-zero");
        ExemplarSet {
            k,
            floor: AtomicU64::new(0),
            inner: Mutex::new(Vec::with_capacity(k + 1)),
        }
    }

    /// Offers one observation. Untraced contexts are ignored (an exemplar
    /// without a trace links to nothing). Once the set is full, offers
    /// strictly below the current floor return after one relaxed load.
    pub fn offer(&self, value: u64, trace: TraceCtx) {
        if !trace.is_active() {
            return;
        }
        // relaxed: the floor is an admission hint, monotone under the
        // lock below; a stale read admits a loser to the slow path where
        // the sorted insert rejects it exactly. Strict `<` so floor ties
        // are ranked by trace context, keeping results order-invariant.
        if value < self.floor.load(Ordering::Relaxed) {
            return;
        }
        let mut inner = self.inner.lock().expect("exemplar lock");
        let floor = offer_sorted(&mut inner, self.k, Exemplar { value, trace });
        // relaxed: see above — published under the same mutex.
        self.floor.store(floor, Ordering::Relaxed);
    }

    /// Folds a local accumulator into the set and clears it.
    pub fn merge_local(&self, local: &mut LocalExemplars) {
        let mut inner = self.inner.lock().expect("exemplar lock");
        let mut floor = 0;
        for &e in &local.buf {
            floor = offer_sorted(&mut inner, self.k, e);
        }
        if inner.len() == self.k {
            // relaxed: admission hint, published under the mutex.
            self.floor
                .store(floor.max(inner[self.k - 1].value), Ordering::Relaxed);
        }
        local.clear();
    }

    /// The retained exemplars, largest value first (deterministic
    /// tie-break by trace context).
    pub fn snapshot(&self) -> Vec<Exemplar> {
        self.inner.lock().expect("exemplar lock").clone()
    }

    pub(crate) fn reset(&self) {
        let mut inner = self.inner.lock().expect("exemplar lock");
        inner.clear();
        // relaxed: quiescent-only, like every registry reset.
        self.floor.store(0, Ordering::Relaxed);
    }
}

/// A single-owner top-K accumulator: no atomics, no locks, no
/// allocation after construction — safe inside the fabric's
/// zero-allocation delivery loop. Flush with [`ExemplarSet::merge_local`]
/// once per run.
#[derive(Clone, Debug)]
pub struct LocalExemplars {
    k: usize,
    buf: Vec<Exemplar>,
}

impl Default for LocalExemplars {
    fn default() -> Self {
        LocalExemplars::new(DEFAULT_EXEMPLARS)
    }
}

impl LocalExemplars {
    /// An accumulator retaining the `k` largest offers.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "exemplar capacity must be non-zero");
        LocalExemplars {
            k,
            buf: Vec::with_capacity(k + 1),
        }
    }

    /// Offers one observation (untraced contexts ignored).
    #[inline]
    pub fn offer(&mut self, value: u64, trace: TraceCtx) {
        if !trace.is_active() {
            return;
        }
        // Strict `<` so ties at the floor rank by trace, matching
        // `ExemplarSet::offer` exactly.
        if self.buf.len() == self.k && value < self.buf[self.k - 1].value {
            return;
        }
        offer_sorted(&mut self.buf, self.k, Exemplar { value, trace });
    }

    /// Empties the accumulator.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TraceCtx {
        TraceCtx::new(id, id)
    }

    #[test]
    fn keeps_the_k_largest_in_order() {
        let set = ExemplarSet::new(3);
        for v in [5u64, 1, 9, 3, 7, 2, 8] {
            set.offer(v, t(v));
        }
        let snap = set.snapshot();
        let values: Vec<u64> = snap.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![9, 8, 7]);
        assert_eq!(snap[0].trace.trace_id, 9);
    }

    #[test]
    fn untraced_offers_are_ignored() {
        let set = ExemplarSet::new(2);
        set.offer(100, TraceCtx::NONE);
        assert!(set.snapshot().is_empty());
    }

    #[test]
    fn result_is_offer_order_invariant() {
        let offers: Vec<(u64, TraceCtx)> = (0..64u64).map(|i| (i * 37 % 50, t(i + 1))).collect();
        let fwd = ExemplarSet::new(5);
        let rev = ExemplarSet::new(5);
        for &(v, tr) in &offers {
            fwd.offer(v, tr);
        }
        for &(v, tr) in offers.iter().rev() {
            rev.offer(v, tr);
        }
        assert_eq!(fwd.snapshot(), rev.snapshot());
    }

    #[test]
    fn ties_break_deterministically_by_trace() {
        let set = ExemplarSet::new(2);
        set.offer(7, t(30));
        set.offer(7, t(10));
        set.offer(7, t(20));
        let snap = set.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].trace.trace_id, 10, "smallest trace id wins ties");
        assert_eq!(snap[1].trace.trace_id, 20);
    }

    #[test]
    fn local_flush_matches_direct_offers() {
        let direct = ExemplarSet::new(4);
        let via_local = ExemplarSet::new(4);
        let mut local = LocalExemplars::new(4);
        for v in [10u64, 40, 20, 50, 30, 60, 5] {
            direct.offer(v, t(v));
            local.offer(v, t(v));
        }
        via_local.merge_local(&mut local);
        assert!(local.buf.is_empty(), "flush clears the local side");
        assert_eq!(direct.snapshot(), via_local.snapshot());
    }

    #[test]
    fn reset_empties_and_reopens_the_floor() {
        let set = ExemplarSet::new(1);
        set.offer(100, t(1));
        set.reset();
        assert!(set.snapshot().is_empty());
        set.offer(5, t(2));
        assert_eq!(set.snapshot()[0].value, 5, "floor must reopen after reset");
    }
}
