//! What every workload provides to the driver, plus the pieces the three
//! workloads share: the output digest, the per-layer metric sink and the
//! scheduler-layer figures.

use crate::trace::Tracer;
use dynplat_common::rng::{Rng, SplitMix64};
use dynplat_common::time::SimDuration;
use dynplat_common::{AppKind, TaskId};
use dynplat_sched::simulate::SchedStats;
use dynplat_sched::task::{TaskSet, TaskSpec};

/// The outcome of checking one unit's simulated outputs.
#[derive(Clone, Copy, Debug)]
pub struct UnitCheck {
    /// Digest of the unit's simulated outputs.
    pub digest: u64,
    /// Every invariant of the unit held.
    pub ok: bool,
    /// Simulated events the unit produced (the `events_per_s` numerator).
    pub events: u64,
    /// Simulated time the unit covered, ns.
    pub sim_ns: u64,
}

/// Simulated statistics of one pass over the pool (fixed per seed).
#[derive(Clone, Copy, Debug, Default)]
pub struct SimStats {
    /// p99 of the simulated brake-command latency, µs.
    pub brake_us_p99: Option<f64>,
    /// DA deadline misses over DA jobs released, isolating policies only.
    pub da_miss_frac: Option<f64>,
}

/// A closed-loop workload over a fixed, seed-generated input pool.
pub trait Workload {
    /// Number of inputs in the pool; unit `n` runs input `n % pool_len`.
    fn pool_len(&self) -> usize;

    /// Runs one unit on pool input `i`. This is the timed part: it calls
    /// into the layers, recording a span around each call when `tr` is on.
    fn run_unit(&mut self, i: usize, tr: &mut Tracer);

    /// Traced run only: replays the layers below the unit just run, each in
    /// isolation and inside its own span, and counts their work.
    fn replay(&mut self, i: usize, tr: &mut Tracer);

    /// Checks the outputs of the unit just run on input `i` and digests
    /// them. `collect` folds them into the pool's [`SimStats`] (done once,
    /// on the warm-up pass).
    fn inspect(&mut self, i: usize, collect: bool) -> UnitCheck;

    /// Checks made while setting up (e.g. shard-count invariance).
    fn setup_ok(&self) -> bool {
        true
    }

    /// Simulated statistics gathered on the warm-up pass.
    fn sim_stats(&self) -> SimStats;

    /// Writes this workload's per-layer metrics for a traced phase of
    /// `units` units.
    fn layer_metrics(&self, tr: &Tracer, units: f64, m: &mut Metrics);
}

/// FNV-1a over little-endian words: a stable digest of simulated outputs.
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds one word in.
    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Ordered `(name, value)` metric sink.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets (or overwrites) metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Span names of the four scheduling policies, in [`POLICY_METRICS`] order.
pub const POLICY_SPANS: [&str; 4] = [
    "sched.simulate.fifo",
    "sched.simulate.fp",
    "sched.simulate.fp_server",
    "sched.simulate.tt",
];

/// Per-policy metric names: calls per unit, jobs per call, ns per job,
/// ns per call.
pub const POLICY_METRICS: [[&str; 4]; 4] = [
    [
        "sched.simulate.fifo.calls",
        "sched.simulate.fifo.jobs",
        "sched.simulate.fifo.ns_per_job",
        "sched.simulate.fifo.ns_per_call",
    ],
    [
        "sched.simulate.fp.calls",
        "sched.simulate.fp.jobs",
        "sched.simulate.fp.ns_per_job",
        "sched.simulate.fp.ns_per_call",
    ],
    [
        "sched.simulate.fp_server.calls",
        "sched.simulate.fp_server.jobs",
        "sched.simulate.fp_server.ns_per_job",
        "sched.simulate.fp_server.ns_per_call",
    ],
    [
        "sched.simulate.tt.calls",
        "sched.simulate.tt.jobs",
        "sched.simulate.tt.ns_per_job",
        "sched.simulate.tt.ns_per_call",
    ],
];

/// Jobs released in one simulation run.
pub fn jobs_of(stats: &SchedStats) -> u64 {
    stats.tasks.iter().map(|t| t.activations).sum()
}

/// Writes the `sched.simulate.*` metrics from the policy spans and the
/// per-policy job counts of a traced phase.
pub fn sched_metrics(tr: &Tracer, jobs: &[u64; 4], units: f64, m: &mut Metrics) {
    for (k, names) in POLICY_METRICS.iter().enumerate() {
        let t = tr.totals(POLICY_SPANS[k]);
        let calls = t.count as f64;
        m.set(names[0], per(calls, units));
        m.set(names[1], per(jobs[k] as f64, calls));
        m.set(names[2], per(t.ns as f64, jobs[k] as f64));
        m.set(names[3], per(t.ns as f64, calls));
    }
}

/// Folds a schedule's per-task statistics into `d` and checks that no task
/// completed more jobs than it released.
pub fn digest_sched(stats: &SchedStats, d: &mut Digest) -> bool {
    let mut ok = true;
    for t in &stats.tasks {
        ok &= t.completions <= t.activations;
        for v in [
            u64::from(t.id.raw()),
            t.activations,
            t.completions,
            t.deadline_misses,
            t.response_min.as_nanos(),
            t.response_max.as_nanos(),
            t.response_mean.as_nanos(),
        ] {
            d.word(v);
        }
    }
    ok
}

/// `(DA misses, DA jobs released)` of one run.
pub fn da_misses(stats: &SchedStats) -> (u64, u64) {
    stats
        .tasks
        .iter()
        .filter(|t| t.kind == AppKind::Deterministic)
        .fold((0, 0), |(m, a), t| {
            (m + t.deadline_misses, a + t.activations)
        })
}

/// UUniFast: `n` utilisations summing to `total`, none above `cap`.
fn uunifast(rng: &mut SplitMix64, n: usize, total: f64, cap: f64) -> Vec<f64> {
    loop {
        let mut out = Vec::with_capacity(n);
        let mut sum = total;
        for i in 1..n {
            let next = sum * rng.gen::<f64>().powf(1.0 / (n - i) as f64);
            out.push(sum - next);
            sum = next;
        }
        out.push(sum);
        if out.iter().all(|&u| u <= cap) {
            return out;
        }
    }
}

/// Shape of a generated DA/NDA task set. The periods are fixed, so every
/// set releases the same number of jobs; utilisations are drawn.
pub struct SetShape {
    /// DA task periods (ms, one per task) and total DA utilisation.
    pub da: (&'static [u64], f64),
    /// NDA task periods (ms, one per task) and total NDA utilisation.
    pub nda: (&'static [u64], f64),
}

/// Draws a mixed task set: DA tasks with rate-monotonic priorities, then
/// NDA tasks below every DA priority. Returns the whole set and its DA part.
pub fn task_set(rng: &mut SplitMix64, shape: &SetShape) -> (TaskSet, TaskSet) {
    let task = |id: u32, period_ms: u64, u: f64| {
        let wcet_us = ((period_ms * 1000) as f64 * u) as u64;
        TaskSpec::periodic(
            TaskId(id),
            format!("t{id}"),
            SimDuration::from_millis(period_ms),
            SimDuration::from_micros(wcet_us.max(10)),
        )
    };
    let (da_periods, da_u) = shape.da;
    let mut da: Vec<TaskSpec> = uunifast(rng, da_periods.len(), da_u, 0.2)
        .into_iter()
        .zip(da_periods)
        .enumerate()
        .map(|(k, (u, &p))| task(1 + k as u32, p, u))
        .collect();
    da.sort_by_key(|t| (t.period, t.id.raw()));
    let da: TaskSet = da
        .into_iter()
        .enumerate()
        .map(|(rank, t)| t.with_priority(rank as u32))
        .collect();
    let mut set = da.clone();
    let (nda_periods, nda_u) = shape.nda;
    for (k, (u, &p)) in uunifast(rng, nda_periods.len(), nda_u, 0.5)
        .into_iter()
        .zip(nda_periods)
        .enumerate()
    {
        set.push(
            task(101 + k as u32, p, u)
                .with_priority(100 + k as u32)
                .non_deterministic(),
        );
    }
    (set, da)
}
