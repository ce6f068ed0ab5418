//! Scheduler simulation.
//!
//! The behavioral counterpart of the analyses: releases jobs over a horizon,
//! runs them under a chosen [`Policy`], and reports response times, jitter
//! and deadline misses per task. This is the engine behind experiment E2
//! (Fig. 2): deterministic and non-deterministic applications side by side,
//! with and without the dynamic platform's isolation mechanisms.
//!
//! Policies:
//!
//! * [`Policy::NonPreemptiveFifo`] — the no-isolation baseline: jobs run to
//!   completion in arrival order, so one long NDA job delays every DA task
//!   behind it;
//! * [`Policy::FixedPriorityPreemptive`] — RTOS priority scheduling;
//! * [`Policy::TimeTriggered`] — deterministic tasks execute in their
//!   synthesized slots; NDA work drains in the idle time;
//! * [`Policy::FpWithServer`] — deterministic tasks under preemptive fixed
//!   priority; NDA work sandboxed in a budget server that only consumes
//!   idle time, up to its budget per period.
//!
//! Engine layout: jobs live *task-major* in one store (task `i`'s jobs are
//! one contiguous, release-ordered slice), so a time-triggered slot finds
//! its job by index and the statistics are one walk over the store.
//! Arrival order across tasks is one `(release, task index)`-sorted list,
//! merged from the per-task slices when the jobs are drawn, which each
//! policy walks (whole, or its DA or NDA part) as a cursor. The
//! fixed-priority ready set is a binary heap keyed by priority, and idle
//! time flows from the busy segments through the server budget into the
//! NDA drain as one lazy pipeline.
//! Response and slack samples go into local histograms flushed once per
//! run. A [`Simulator`] keeps all of that scratch between runs, and its
//! draws too: a run whose generation inputs (horizon, execution-time
//! model, seed, and each task's timing parameters) equal the previous
//! run's resets the stored jobs instead of redrawing their execution
//! times or re-merging their arrival order. E2 runs one task set under all
//! four policies, so three of every four draws and merges are skipped.
//! [`simulate_schedule`] runs on one simulator per thread.

use crate::server::PeriodicServer;
use crate::task::{TaskSet, TaskSpec};
use crate::tt::TtSchedule;
use dynplat_common::jitter::ExecutionModel;
use dynplat_common::rng::seeded_rng;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppKind, TaskId};
use dynplat_obs::{ExemplarSet, LocalExemplars, LocalHistogram, TraceCtx};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::{Arc, OnceLock};

/// Scheduling policy under simulation.
#[derive(Clone, Debug)]
pub enum Policy {
    /// Run-to-completion in arrival order (no isolation).
    NonPreemptiveFifo,
    /// Preemptive fixed-priority (lower `priority` value runs first).
    FixedPriorityPreemptive,
    /// Deterministic tasks in time-triggered slots; NDA in idle time.
    TimeTriggered(TtSchedule),
    /// Deterministic tasks preemptive fixed-priority; NDA inside a budget
    /// server that runs in idle time only.
    FpWithServer(PeriodicServer),
}

/// Configuration of one simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SchedSimConfig {
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Best-case execution time as a fraction of WCET (jobs sample in
    /// `[bcet_frac * wcet, wcet]`).
    pub bcet_frac: f64,
    /// Relative standard deviation of execution times.
    pub exec_sigma: f64,
    /// RNG seed.
    pub seed: u64,
    /// Causal context of the run. When active (and the global flight
    /// recorder is enabled), dispatch-level incidents — deadline misses —
    /// are recorded as children of this context, tying scheduler behavior
    /// into the same trace as the messages that drove it.
    pub trace: TraceCtx,
}

impl Default for SchedSimConfig {
    fn default() -> Self {
        SchedSimConfig {
            horizon: SimDuration::from_secs(1),
            bcet_frac: 0.7,
            exec_sigma: 0.1,
            seed: 1,
            trace: TraceCtx::NONE,
        }
    }
}

/// Per-task outcome statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskStats {
    /// Task identifier.
    pub id: TaskId,
    /// Deterministic or non-deterministic.
    pub kind: AppKind,
    /// Jobs released within the horizon.
    pub activations: u64,
    /// Jobs that completed within the horizon.
    pub completions: u64,
    /// Jobs that missed their deadline (completed late, or whose deadline
    /// passed inside the horizon without completion).
    pub deadline_misses: u64,
    /// Smallest observed response time.
    pub response_min: SimDuration,
    /// Largest observed response time.
    pub response_max: SimDuration,
    /// Mean observed response time.
    pub response_mean: SimDuration,
}

impl TaskStats {
    /// Response jitter: spread between fastest and slowest response.
    pub fn jitter(&self) -> SimDuration {
        self.response_max.saturating_sub(self.response_min)
    }
}

/// Results of a simulation run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SchedStats {
    /// Statistics per task, in task-set order.
    pub tasks: Vec<TaskStats>,
}

impl SchedStats {
    /// Aggregate miss rate over all deterministic tasks.
    pub fn deterministic_miss_rate(&self) -> f64 {
        let (miss, act) = self
            .tasks
            .iter()
            .filter(|t| t.kind == AppKind::Deterministic)
            .fold((0u64, 0u64), |(m, a), t| {
                (m + t.deadline_misses, a + t.activations)
            });
        if act == 0 {
            0.0
        } else {
            miss as f64 / act as f64
        }
    }

    /// Total completed NDA jobs — the throughput the sandbox still allows.
    pub fn non_deterministic_throughput(&self) -> u64 {
        self.tasks
            .iter()
            .filter(|t| t.kind == AppKind::NonDeterministic)
            .map(|t| t.completions)
            .sum()
    }

    /// Largest deterministic response jitter.
    pub fn max_deterministic_jitter(&self) -> SimDuration {
        self.tasks
            .iter()
            .filter(|t| t.kind == AppKind::Deterministic)
            .map(TaskStats::jitter)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// One released job. Its task and its index within that task are
/// positional in the [`JobStore`], not stored.
#[derive(Clone, Copy, Debug)]
struct Job {
    release: SimTime,
    deadline: SimTime,
    exec: SimDuration,
    remaining: SimDuration,
    completed: Option<SimTime>,
}

/// Every job released within the horizon, task-major: task `i`'s jobs are
/// `jobs[start[i]..start[i + 1]]` in release order.
#[derive(Debug, Default)]
struct JobStore {
    jobs: Vec<Job>,
    start: Vec<usize>,
    /// Arrival order: `(release, task index, store position)` of every
    /// job, sorted by `(release, task index)`. Part of the generation memo.
    order: Vec<(SimTime, usize, usize)>,
    /// Scratch of the k-way merge that builds `order`: `(next release,
    /// task index, store position, end of the task's range)` per task.
    merge: BinaryHeap<Reverse<(SimTime, usize, usize, usize)>>,
    /// The generation inputs `jobs` was drawn from; `None` while a
    /// generation is in flight or before the first.
    key: Option<GenKey>,
}

/// Everything [`JobStore::generate`] reads, compared exactly (the `f64`s
/// by bits). Two runs with equal keys release and draw equal jobs.
#[derive(Debug, Default)]
struct GenKey {
    horizon: SimDuration,
    bcet_frac: u64,
    exec_sigma: u64,
    seed: u64,
    /// `(offset, period, deadline, wcet)` of each task, in set order.
    tasks: Vec<[SimDuration; 4]>,
}

impl GenKey {
    fn task(task: &TaskSpec) -> [SimDuration; 4] {
        [task.offset, task.period, task.deadline, task.wcet]
    }

    fn matches(&self, set: &TaskSet, cfg: &SchedSimConfig) -> bool {
        self.horizon == cfg.horizon
            && self.bcet_frac == cfg.bcet_frac.to_bits()
            && self.exec_sigma == cfg.exec_sigma.to_bits()
            && self.seed == cfg.seed
            && self.tasks.len() == set.len()
            && self
                .tasks
                .iter()
                .zip(set.tasks())
                .all(|(k, t)| *k == GenKey::task(t))
    }

    fn record(&mut self, set: &TaskSet, cfg: &SchedSimConfig) {
        self.horizon = cfg.horizon;
        self.bcet_frac = cfg.bcet_frac.to_bits();
        self.exec_sigma = cfg.exec_sigma.to_bits();
        self.seed = cfg.seed;
        self.tasks.clear();
        self.tasks.extend(set.tasks().iter().map(GenKey::task));
    }
}

impl JobStore {
    /// Releases every job of `set` within the horizon. Execution times come
    /// from one seeded stream drawn task by task, each task's jobs in
    /// release order. When the generation inputs equal the last run's, the
    /// jobs already hold exactly those draws and `order` their arrival
    /// order: the jobs are only reset to unstarted, and nothing is drawn.
    fn generate(&mut self, set: &TaskSet, cfg: &SchedSimConfig) {
        if self.key.as_ref().is_some_and(|k| k.matches(set, cfg)) {
            for job in &mut self.jobs {
                job.remaining = job.exec;
                job.completed = None;
            }
            return;
        }
        // Cleared first, so a panic below cannot leave a stale key.
        let mut key = self.key.take().unwrap_or_default();
        // Exact job count, so the store grows at most once per run.
        let released: u64 = set
            .tasks()
            .iter()
            .map(|t| {
                let span = cfg.horizon.saturating_sub(t.offset).as_nanos();
                span.div_ceil(t.period.as_nanos())
            })
            .sum();
        self.jobs.clear();
        self.jobs.reserve(released as usize);
        self.start.clear();
        self.start.reserve(set.len() + 1);
        let mut rng = seeded_rng(cfg.seed);
        let end = SimTime::ZERO + cfg.horizon;
        for task in set.tasks() {
            self.start.push(self.jobs.len());
            let model = ExecutionModel::new(
                task.wcet.mul_f64(cfg.bcet_frac.clamp(0.01, 1.0)),
                task.wcet,
                cfg.exec_sigma,
            );
            let mut release = SimTime::ZERO + task.offset;
            while release < end {
                let exec = model.sample(&mut rng);
                self.jobs.push(Job {
                    release,
                    deadline: release + task.deadline,
                    exec,
                    remaining: exec,
                    completed: None,
                });
                release += task.period;
            }
        }
        self.start.push(self.jobs.len());
        // One k-way merge of the per-task slices, holding one heap entry
        // per task instead of one per job.
        self.order.clear();
        self.order.reserve(self.jobs.len());
        self.merge.clear();
        for (task, w) in self.start.windows(2).enumerate() {
            if w[0] < w[1] {
                self.merge
                    .push(Reverse((self.jobs[w[0]].release, task, w[0], w[1])));
            }
        }
        while let Some(mut top) = self.merge.peek_mut() {
            let Reverse((release, task, pos, end)) = *top;
            self.order.push((release, task, pos));
            if pos + 1 < end {
                *top = Reverse((self.jobs[pos + 1].release, task, pos + 1, end));
            } else {
                PeekMut::pop(top);
            }
        }
        key.record(set, cfg);
        self.key = Some(key);
    }

    /// Store positions of task `task`'s jobs.
    fn range(&self, task: usize) -> Range<usize> {
        self.start[task]..self.start[task + 1]
    }
}

/// Cursor over the store's arrival order, restricted to a subset of its
/// tasks. Yields jobs in `(release, task index)` order.
#[derive(Debug, Default)]
struct Releases {
    /// The subset's `(release, task index, store position)` entries.
    due: Vec<(SimTime, usize, usize)>,
    next: usize,
}

impl Releases {
    /// Restarts the cursor over the tasks `include` selects.
    fn reset(&mut self, store: &JobStore, include: impl Fn(usize) -> bool) {
        self.due.clear();
        self.due
            .extend(store.order.iter().filter(|&&(_, task, _)| include(task)));
        self.next = 0;
    }

    /// Release time of the next job, if any remain.
    fn peek(&self) -> Option<SimTime> {
        self.due.get(self.next).map(|e| e.0)
    }

    /// Takes the next job as `(task index, store position)`.
    fn pop(&mut self) -> Option<(usize, usize)> {
        let &(_, task, pos) = self.due.get(self.next)?;
        self.next += 1;
        Some((task, pos))
    }

    /// Takes the next job if it is released at or before `t`.
    fn pop_due(&mut self, t: SimTime) -> Option<(usize, usize)> {
        if self.peek()? <= t {
            self.pop()
        } else {
            None
        }
    }
}

/// A reusable scheduler simulator. It owns the job store with its arrival
/// order and merge heap, the release cursor, the ready heap, the
/// busy-segment list, the time-triggered slot lookups and the output
/// buffer, so back-to-back runs allocate nothing once these have grown to
/// the largest task set seen. Back-to-back runs of one task set and
/// config, under any policies, draw its execution times and merge its
/// arrival order once. [`simulate_schedule`] is the one-shot form.
///
/// # Examples
///
/// ```
/// use dynplat_common::time::SimDuration;
/// use dynplat_common::TaskId;
/// use dynplat_sched::simulate::{Policy, SchedSimConfig, Simulator};
/// use dynplat_sched::task::{TaskSet, TaskSpec};
///
/// let set: TaskSet = [TaskSpec::periodic(
///     TaskId(1),
///     "ctrl",
///     SimDuration::from_millis(10),
///     SimDuration::from_millis(2),
/// )]
/// .into_iter()
/// .collect();
/// let mut sim = Simulator::new();
/// let stats = sim.run(&set, &Policy::FixedPriorityPreemptive, &SchedSimConfig::default());
/// assert_eq!(stats.tasks[0].activations, 100);
/// assert_eq!(stats.deterministic_miss_rate(), 0.0);
/// ```
#[derive(Debug, Default)]
pub struct Simulator {
    store: JobStore,
    releases: Releases,
    /// Fixed-priority ready set, `(priority, task id, store position)`;
    /// the top is the running job. Store positions order a task's jobs by
    /// release, so they break ties the way job indices would.
    ready: BinaryHeap<Reverse<(u32, u32, usize)>>,
    /// Busy segments `(start, end)`, sorted by start.
    busy: Vec<(SimTime, SimTime)>,
    /// Time-triggered lookups: `(task id, task index)` sorted by id, each
    /// table entry's task index, and each task's slot count.
    by_id: Vec<(TaskId, usize)>,
    slot_task: Vec<Option<usize>>,
    slots_of: Vec<u64>,
    stats: SchedStats,
}

impl Simulator {
    /// An empty simulator.
    pub fn new() -> Self {
        Simulator::default()
    }

    /// Runs `set` under `policy` for the configured horizon and returns the
    /// per-task statistics, valid until the next run.
    ///
    /// The job store is regenerated only when an input it is drawn from
    /// differs from the previous run's: `cfg`'s horizon, `bcet_frac`,
    /// `exec_sigma` or seed, or a task's offset, period, deadline or WCET,
    /// or the task list itself. Otherwise the stored execution times are
    /// reused, which draws exactly what regeneration would. Either way the
    /// result equals a fresh simulator's.
    ///
    /// # Panics
    ///
    /// Panics if [`Policy::TimeTriggered`] is used with a schedule that does
    /// not cover all deterministic tasks of `set`.
    pub fn run(&mut self, set: &TaskSet, policy: &Policy, cfg: &SchedSimConfig) -> &SchedStats {
        let horizon = SimTime::ZERO + cfg.horizon;
        let tasks = set.tasks();
        let of_kind = |kind: AppKind| move |i: usize| tasks[i].kind == kind;
        self.store.generate(set, cfg);
        match policy {
            Policy::NonPreemptiveFifo => {
                self.releases.reset(&self.store, |_| true);
                run_fifo(&mut self.store.jobs, &mut self.releases, horizon);
            }
            Policy::FixedPriorityPreemptive => {
                self.releases.reset(&self.store, |_| true);
                self.run_fp(set, horizon);
            }
            Policy::TimeTriggered(schedule) => {
                // Deterministic jobs execute in their slots; NDA jobs
                // drain in the idle time.
                self.place_slots(set, schedule, horizon);
                self.releases
                    .reset(&self.store, of_kind(AppKind::NonDeterministic));
                let idle = idle_gaps(&self.busy, horizon);
                drain_fifo(&mut self.store.jobs, &mut self.releases, idle, horizon);
            }
            Policy::FpWithServer(server) => {
                // Deterministic side runs alone under FP; NDA gets the idle
                // time clipped to the server budget.
                self.releases
                    .reset(&self.store, of_kind(AppKind::Deterministic));
                self.run_fp(set, horizon);
                self.releases
                    .reset(&self.store, of_kind(AppKind::NonDeterministic));
                let usable = server_supply(idle_gaps(&self.busy, horizon), *server, horizon);
                drain_fifo(&mut self.store.jobs, &mut self.releases, usable, horizon);
            }
        }
        collect_stats(set, &self.store, horizon, cfg.trace, &mut self.stats.tasks);
        &self.stats
    }

    /// Preemptive fixed-priority dispatch of the jobs `self.releases`
    /// yields, recording the busy segments they consume in `self.busy`.
    fn run_fp(&mut self, set: &TaskSet, horizon: SimTime) {
        let tasks = set.tasks();
        let jobs = self.store.jobs.as_mut_slice();
        self.ready.clear();
        self.ready.reserve(tasks.len());
        self.busy.clear();
        self.busy.reserve(jobs.len());
        let mut t = SimTime::ZERO;
        loop {
            while let Some((task, pos)) = self.releases.pop_due(t) {
                let spec = &tasks[task];
                self.ready
                    .push(Reverse((spec.priority, spec.id.raw(), pos)));
            }
            // A zero-length job is never dispatched, so never completes.
            while let Some(&Reverse((_, _, pos))) = self.ready.peek() {
                if !jobs[pos].remaining.is_zero() {
                    break;
                }
                self.ready.pop();
            }
            let Some(&Reverse((_, _, pos))) = self.ready.peek() else {
                match self.releases.peek() {
                    Some(next) if next < horizon => {
                        t = next;
                        continue;
                    }
                    _ => break,
                }
            };
            let next_release = self.releases.peek().unwrap_or(SimTime::MAX);
            let job = &mut jobs[pos];
            let until = (t + job.remaining).min(next_release).min(horizon);
            job.remaining = job.remaining.saturating_sub(until.saturating_since(t));
            match self.busy.last_mut() {
                Some(last) if last.1 == t => last.1 = until,
                _ => self.busy.push((t, until)),
            }
            t = until;
            if job.remaining.is_zero() {
                job.completed = Some(t);
                self.ready.pop();
            }
            if t >= horizon {
                break;
            }
        }
    }

    /// Completes every deterministic job in its time-triggered slot and
    /// records the slots, sorted, in `self.busy`.
    fn place_slots(&mut self, set: &TaskSet, schedule: &TtSchedule, horizon: SimTime) {
        let hp = schedule.hyperperiod();
        assert!(!hp.is_zero(), "empty schedule for time-triggered policy");
        let tasks = set.tasks();
        self.by_id.clear();
        self.by_id
            .extend(tasks.iter().enumerate().map(|(i, t)| (t.id, i)));
        self.by_id.sort_unstable();
        let by_id = &self.by_id;
        // Each entry's task index, or `None` for a task not in `set`.
        self.slot_task.clear();
        self.slot_task.extend(schedule.entries().iter().map(|e| {
            by_id
                .binary_search_by_key(&e.task, |&(id, _)| id)
                .ok()
                .map(|k| by_id[k].1)
        }));
        self.slots_of.clear();
        self.slots_of.resize(tasks.len(), 0);
        for &i in self.slot_task.iter().flatten() {
            self.slots_of[i] += 1;
        }
        for (task, &slots) in tasks.iter().zip(&self.slots_of) {
            if task.kind == AppKind::Deterministic {
                assert!(
                    slots == hp / task.period,
                    "schedule does not cover task {}",
                    task.id
                );
            }
        }
        self.busy.clear();
        for (entry, &task_idx) in schedule.entries().iter().zip(&self.slot_task) {
            let task_idx = task_idx.expect("schedule validated against set");
            let task = &tasks[task_idx];
            let range = self.store.range(task_idx);
            let mine = &mut self.store.jobs[range];
            let jobs_per_hp = hp / task.period;
            let mut rep = 0u64;
            loop {
                let slot_start = SimTime::ZERO + entry.start + hp * rep;
                if slot_start >= horizon {
                    break;
                }
                let k = entry.job + rep * jobs_per_hp;
                if let Some(job) = mine.get_mut(k as usize) {
                    let fin = slot_start + job.exec;
                    if fin <= horizon {
                        job.remaining = SimDuration::ZERO;
                        job.completed = Some(fin);
                    }
                }
                self.busy.push((slot_start, slot_start + entry.duration));
                rep += 1;
            }
        }
        self.busy.sort_unstable();
    }
}

/// Run-to-completion in arrival order; stops at the first job that cannot
/// finish within the horizon.
fn run_fifo(jobs: &mut [Job], releases: &mut Releases, horizon: SimTime) {
    let mut t = SimTime::ZERO;
    while let Some((_, pos)) = releases.pop() {
        let job = &mut jobs[pos];
        t = t.max(job.release);
        let fin = t + job.remaining;
        if fin > horizon {
            break;
        }
        job.remaining = SimDuration::ZERO;
        job.completed = Some(fin);
        t = fin;
    }
}

/// Drains the jobs `releases` yields (FIFO by release) in the given usable
/// intervals; a job may span several intervals (it is preempted at
/// interval ends).
fn drain_fifo(
    jobs: &mut [Job],
    releases: &mut Releases,
    intervals: impl Iterator<Item = (SimTime, SimTime)>,
    horizon: SimTime,
) {
    let mut head = releases.pop();
    for (mut lo, hi) in intervals {
        while let Some((_, pos)) = head {
            if lo >= hi || lo >= horizon {
                break;
            }
            let job = &mut jobs[pos];
            if job.remaining.is_zero() {
                head = releases.pop();
                continue;
            }
            if job.release > lo {
                // FIFO head not yet released: nothing later is either.
                if job.release >= hi {
                    break;
                }
                lo = job.release;
            }
            let run = job.remaining.min(hi.saturating_since(lo));
            job.remaining -= run;
            lo += run;
            if job.remaining.is_zero() {
                job.completed = Some(lo);
                head = releases.pop();
            }
        }
        if head.is_none() {
            break;
        }
    }
}

/// The gaps between `busy` segments (sorted by start) up to `horizon`.
fn idle_gaps(
    busy: &[(SimTime, SimTime)],
    horizon: SimTime,
) -> impl Iterator<Item = (SimTime, SimTime)> + '_ {
    let mut cursor = SimTime::ZERO;
    busy.iter()
        .map(Some)
        .chain([None])
        .filter_map(move |segment| match segment {
            Some(&(s, e)) => {
                let gap = (s > cursor).then_some((cursor, s));
                cursor = cursor.max(e);
                gap
            }
            None => (cursor < horizon).then_some((cursor, horizon)),
        })
}

/// Clips idle intervals to what a budget server may use: at most `budget`
/// per server period, counted from each period start.
fn server_supply(
    mut idle: impl Iterator<Item = (SimTime, SimTime)>,
    server: PeriodicServer,
    horizon: SimTime,
) -> impl Iterator<Item = (SimTime, SimTime)> {
    let period = server.period.as_nanos();
    // Unconsumed rest `[cur, hi)` of the current idle interval.
    let (mut cur, mut hi) = (SimTime::ZERO, SimTime::ZERO);
    let mut period_idx = 0u64;
    let mut used_in_period = SimDuration::ZERO;
    std::iter::from_fn(move || loop {
        if cur >= hi || cur >= horizon {
            (cur, hi) = idle.next()?;
            continue;
        }
        let my_period = cur.as_nanos() / period;
        if my_period != period_idx {
            period_idx = my_period;
            used_in_period = SimDuration::ZERO;
        }
        let period_end = SimTime::from_nanos((my_period + 1) * period);
        let budget_left = server.budget.saturating_sub(used_in_period);
        if budget_left.is_zero() {
            cur = period_end;
            continue;
        }
        let start = cur;
        cur = hi.min(period_end).min(start + budget_left);
        used_in_period += cur.saturating_since(start);
        return Some((start, cur));
    })
}

/// The registry's response-time exemplar set, resolved once.
fn response_exemplars() -> &'static ExemplarSet {
    static HANDLE: OnceLock<Arc<ExemplarSet>> = OnceLock::new();
    HANDLE.get_or_init(|| dynplat_obs::global().exemplars("sched.dispatch.response_ns"))
}

/// One pass over the task-major store: per-task statistics into `out`,
/// response and slack samples into local histograms, counter totals into
/// locals — each flushed to the global registry once per run.
fn collect_stats(
    set: &TaskSet,
    store: &JobStore,
    horizon: SimTime,
    trace: TraceCtx,
    out: &mut Vec<TaskStats>,
) {
    let flight = dynplat_obs::flight_recorder();
    let mut response = LocalHistogram::new();
    let mut slack = LocalHistogram::new();
    // Worst response times keep their causal context: the top-K offers
    // land as exemplars next to the histogram, linkable via the run's
    // trace id in flight dumps and Chrome traces. Untraced offers are
    // ignored anyway, so an untraced run keeps no accumulator.
    let mut exemplars = trace.is_active().then(LocalExemplars::default);
    let (mut all_completions, mut all_misses) = (0u64, 0u64);
    out.clear();
    out.reserve(set.len());
    for (idx, task) in set.tasks().iter().enumerate() {
        let mine = &store.jobs[store.range(idx)];
        let mut misses = 0u64;
        let mut completions = 0u64;
        let mut rmin = SimDuration::MAX;
        let mut rmax = SimDuration::ZERO;
        let mut rsum = SimDuration::ZERO;
        for (k, job) in mine.iter().enumerate() {
            let missed_at = match job.completed {
                Some(t) => {
                    completions += 1;
                    let resp = t.saturating_since(job.release);
                    response.record(resp.as_nanos());
                    if let Some(ex) = &mut exemplars {
                        ex.offer(resp.as_nanos(), trace);
                    }
                    slack.record(job.deadline.saturating_since(t).as_nanos());
                    rmin = rmin.min(resp);
                    rmax = rmax.max(resp);
                    rsum += resp;
                    (t > job.deadline).then_some(t)
                }
                None => (job.deadline <= horizon).then_some(job.deadline),
            };
            if let Some(at) = missed_at {
                misses += 1;
                if flight.is_armed() {
                    let ctx = if trace.is_active() {
                        trace.child(k as u64)
                    } else {
                        TraceCtx::NONE
                    };
                    let t = at.as_nanos();
                    flight.record(
                        t,
                        ctx,
                        "sched.deadline_miss",
                        format!("task {} job {}", task.id, k),
                    );
                    flight.trigger(t, &format!("deadline miss: task {}", task.id));
                }
            }
        }
        all_completions += completions;
        all_misses += misses;
        let mean = if completions > 0 {
            rsum / completions
        } else {
            SimDuration::ZERO
        };
        out.push(TaskStats {
            id: task.id,
            kind: task.kind,
            activations: mine.len() as u64,
            completions,
            deadline_misses: misses,
            response_min: if completions > 0 {
                rmin
            } else {
                SimDuration::ZERO
            },
            response_max: rmax,
            response_mean: mean,
        });
    }
    dynplat_obs::counter!("sched.dispatch.activations").add(store.jobs.len() as u64);
    dynplat_obs::counter!("sched.dispatch.completions").add(all_completions);
    dynplat_obs::counter!("sched.dispatch.deadline_misses").add(all_misses);
    response.flush_into(dynplat_obs::histogram!("sched.dispatch.response_ns"));
    slack.flush_into(dynplat_obs::histogram!("sched.dispatch.slack_ns"));
    // Resolved on untraced runs too: `exemplar_snapshot` lists every
    // registered set, empty ones included.
    let exemplar_set = response_exemplars();
    if let Some(ex) = &mut exemplars {
        exemplar_set.merge_local(ex);
    }
}

/// Runs `set` under `policy` for the configured horizon and returns the
/// per-task statistics. One-shot form of [`Simulator::run`]: it runs on a
/// per-thread [`Simulator`], so back-to-back calls reuse its buffers, and
/// calls that repeat a `(set, cfg)` — the same workload under several
/// policies — reuse its execution-time draws. That simulator's buffers
/// stay sized to the largest task set the thread has run until the thread
/// exits; a caller that needs the memory back runs its own [`Simulator`]
/// and drops it.
///
/// # Panics
///
/// Panics if [`Policy::TimeTriggered`] is used with a schedule that does not
/// cover all deterministic tasks of `set`. The panic leaves the per-thread
/// simulator usable: the next call on the thread returns what a fresh
/// [`Simulator`] would.
pub fn simulate_schedule(set: &TaskSet, policy: &Policy, cfg: &SchedSimConfig) -> SchedStats {
    thread_local! {
        static SIM: RefCell<Simulator> = RefCell::new(Simulator::new());
    }
    SIM.with(|sim| sim.borrow_mut().run(set, policy, cfg).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tt::synthesize;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn da(id: u32, period_ms: u64, wcet_ms: u64) -> TaskSpec {
        TaskSpec::periodic(TaskId(id), format!("da{id}"), ms(period_ms), ms(wcet_ms))
            .with_priority(id)
    }

    fn nda(id: u32, period_ms: u64, wcet_ms: u64) -> TaskSpec {
        TaskSpec::periodic(TaskId(id), format!("nda{id}"), ms(period_ms), ms(wcet_ms))
            .with_priority(100 + id)
            .non_deterministic()
    }

    fn cfg() -> SchedSimConfig {
        SchedSimConfig {
            horizon: SimDuration::from_millis(400),
            ..Default::default()
        }
    }

    fn mixed_set() -> TaskSet {
        // DA: 10 ms control loop; NDA: 40 ms chunky infotainment job.
        [da(1, 10, 2), nda(50, 40, 25)].into_iter().collect()
    }

    #[test]
    fn fifo_baseline_misses_deterministic_deadlines() {
        let stats = simulate_schedule(&mixed_set(), &Policy::NonPreemptiveFifo, &cfg());
        assert!(
            stats.deterministic_miss_rate() > 0.15,
            "25 ms NDA jobs must starve the 10 ms DA task, got miss rate {}",
            stats.deterministic_miss_rate()
        );
    }

    #[test]
    fn fixed_priority_protects_deterministic_tasks() {
        let stats = simulate_schedule(&mixed_set(), &Policy::FixedPriorityPreemptive, &cfg());
        assert_eq!(stats.deterministic_miss_rate(), 0.0);
        // NDA still runs in the slack (U_da = 0.2).
        assert!(stats.non_deterministic_throughput() > 0);
    }

    #[test]
    fn server_policy_protects_da_and_bounds_nda() {
        let server = PeriodicServer::new(ms(5), ms(10));
        let stats = simulate_schedule(&mixed_set(), &Policy::FpWithServer(server), &cfg());
        assert_eq!(stats.deterministic_miss_rate(), 0.0);
        let nda_stats = stats.tasks.iter().find(|t| t.id == TaskId(50)).unwrap();
        // 25 ms of work per 40 ms at 50% bandwidth: finishes, slowly.
        assert!(nda_stats.completions >= 1);
    }

    #[test]
    fn tt_policy_runs_da_in_slots_with_low_jitter() {
        let da_only: TaskSet = [da(1, 10, 2), da(2, 20, 4)].into_iter().collect();
        let schedule = synthesize(&da_only).unwrap();
        let mut set = da_only.clone();
        set.push(nda(50, 40, 10));
        let stats = simulate_schedule(&set, &Policy::TimeTriggered(schedule), &cfg());
        assert_eq!(stats.deterministic_miss_rate(), 0.0);
        // TT slots start at fixed offsets: response jitter only from exec
        // variation, bounded by wcet - bcet.
        let jitter = stats.max_deterministic_jitter();
        assert!(jitter <= ms(2), "TT jitter should be small, got {jitter}");
        assert!(stats.non_deterministic_throughput() > 0);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let stats = simulate_schedule(&mixed_set(), &Policy::FixedPriorityPreemptive, &cfg());
        for t in &stats.tasks {
            assert!(t.completions <= t.activations);
            assert!(t.response_min <= t.response_max);
            assert!(t.response_mean <= t.response_max);
            assert!(t.deadline_misses <= t.activations);
        }
        // 400 ms / 10 ms period = 40 activations of the DA task.
        assert_eq!(
            stats
                .tasks
                .iter()
                .find(|t| t.id == TaskId(1))
                .unwrap()
                .activations,
            40
        );
    }

    #[test]
    fn deterministic_seed_reproduces_results() {
        // Two fresh simulators, so each run draws from the seed itself
        // rather than reusing the other's stored draws.
        let run = || {
            Simulator::new()
                .run(&mixed_set(), &Policy::FixedPriorityPreemptive, &cfg())
                .clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn higher_nda_load_degrades_fifo_more() {
        let light: TaskSet = [da(1, 10, 2), nda(50, 40, 5)].into_iter().collect();
        let heavy: TaskSet = [da(1, 10, 2), nda(50, 40, 30)].into_iter().collect();
        let light_miss =
            simulate_schedule(&light, &Policy::NonPreemptiveFifo, &cfg()).deterministic_miss_rate();
        let heavy_miss =
            simulate_schedule(&heavy, &Policy::NonPreemptiveFifo, &cfg()).deterministic_miss_rate();
        assert!(heavy_miss > light_miss);
    }

    #[test]
    fn e2_sweep_outputs_are_pinned() {
        // Every statistic of an E2-shaped sweep — offsets, a constrained
        // deadline, NDA load from light to starving, all four policies —
        // folded into one FNV-1a digest. An engine change that is meant to
        // be behavior-preserving must leave it untouched.
        let da_only: TaskSet = [
            da(1, 5, 1),
            da(2, 10, 2),
            da(3, 20, 3),
            da(4, 40, 4).with_offset(ms(3)).with_deadline(ms(30)),
        ]
        .into_iter()
        .collect();
        let schedule = synthesize(&da_only).unwrap();
        let mut digest = 0xCBF2_9CE4_8422_2325u64;
        let mut sim = Simulator::new();
        for (k, nda_ms) in [5u64, 15, 30].into_iter().enumerate() {
            let mut set = da_only.clone();
            set.push(nda(50, 40, nda_ms));
            set.push(nda(51, 25, 6).with_offset(ms(7)));
            let cfg = SchedSimConfig {
                horizon: SimDuration::from_secs(1),
                seed: k as u64 + 1,
                ..SchedSimConfig::default()
            };
            for policy in [
                Policy::NonPreemptiveFifo,
                Policy::FixedPriorityPreemptive,
                Policy::FpWithServer(PeriodicServer::new(ms(5), ms(10))),
                Policy::TimeTriggered(schedule.clone()),
            ] {
                for t in &sim.run(&set, &policy, &cfg).tasks {
                    for v in [
                        u64::from(t.id.raw()),
                        t.activations,
                        t.completions,
                        t.deadline_misses,
                        t.response_min.as_nanos(),
                        t.response_max.as_nanos(),
                        t.response_mean.as_nanos(),
                    ] {
                        for b in v.to_le_bytes() {
                            digest = (digest ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
                        }
                    }
                }
            }
        }
        assert_eq!(digest, 17_111_274_414_076_403_007, "E2 sweep digest moved");
    }

    /// The arrival order as a per-task next-release heap yields it, one
    /// entry per task advanced job by job: the order the simulator walked
    /// before it kept the order in the generation memo.
    fn heap_merge_order(store: &JobStore, include: impl Fn(usize) -> bool) -> Vec<(usize, usize)> {
        let mut heap = BinaryHeap::new();
        for task in 0..store.start.len() - 1 {
            let Range { start, end } = store.range(task);
            if start < end && include(task) {
                heap.push(Reverse((store.jobs[start].release, task, start, end)));
            }
        }
        let mut order = Vec::new();
        while let Some(mut top) = heap.peek_mut() {
            let Reverse((_, task, pos, end)) = *top;
            order.push((task, pos));
            if pos + 1 < end {
                *top = Reverse((store.jobs[pos + 1].release, task, pos + 1, end));
            } else {
                PeekMut::pop(top);
            }
        }
        order
    }

    #[test]
    fn memoized_arrival_order_matches_the_per_task_heap_merge() {
        use dynplat_common::rng::Rng;
        let mut rng = seeded_rng(0x5EED_0A11);
        let mut store = JobStore::default();
        let (mut ties, mut jobless, mut largest) = (0, 0, 0);
        for case in 0..240u64 {
            let n = match case % 4 {
                0 => 1,
                1 => rng.gen_range(65..90),
                _ => rng.gen_range(2..12),
            };
            let horizon_ms = rng.gen_range(4..40);
            // Periods and offsets on a 1 ms grid, so releases of different
            // tasks tie; some offsets reach the horizon or pass it.
            let set: TaskSet = (0..n)
                .map(|i| {
                    let task = TaskSpec::periodic(
                        TaskId(i as u32),
                        format!("t{i}"),
                        ms(rng.gen_range(1..9)),
                        SimDuration::from_micros(500),
                    )
                    .with_offset(ms(rng.gen_range(0..horizon_ms + 3)));
                    if rng.gen_bool(0.5) {
                        task.non_deterministic()
                    } else {
                        task
                    }
                })
                .collect();
            let cfg = SchedSimConfig {
                horizon: ms(horizon_ms),
                seed: case,
                ..SchedSimConfig::default()
            };
            store.generate(&set, &cfg);
            let tasks = set.tasks();
            jobless += tasks.iter().filter(|t| t.offset >= cfg.horizon).count();
            ties += store.order.windows(2).filter(|w| w[0].0 == w[1].0).count();
            largest = largest.max(n);
            let kind = |kind: AppKind| move |i: usize| tasks[i].kind == kind;
            let subsets: [&dyn Fn(usize) -> bool; 3] = [
                &|_| true,
                &kind(AppKind::Deterministic),
                &kind(AppKind::NonDeterministic),
            ];
            for (k, include) in subsets.into_iter().enumerate() {
                let mut cursor = Releases::default();
                cursor.reset(&store, include);
                let mut walked = Vec::new();
                while let Some(release) = cursor.peek() {
                    let (task, pos) = cursor.pop().expect("peeked");
                    assert_eq!(release, store.jobs[pos].release, "case {case}");
                    walked.push((task, pos));
                }
                assert_eq!(
                    walked,
                    heap_merge_order(&store, include),
                    "case {case} subset {k}"
                );
            }
        }
        assert!(
            ties > 0 && jobless > 0 && largest > 64,
            "{ties} {jobless} {largest}"
        );
    }

    #[test]
    fn fp_matches_rta_bound() {
        let set: TaskSet = [da(1, 10, 2), da(2, 20, 5), da(3, 40, 8)]
            .into_iter()
            .collect();
        let rts = crate::rta::response_times(&set);
        let stats = simulate_schedule(
            &set,
            &Policy::FixedPriorityPreemptive,
            &SchedSimConfig {
                horizon: ms(400),
                bcet_frac: 1.0,
                exec_sigma: 0.0,
                seed: 7,
                trace: TraceCtx::NONE,
            },
        );
        for (r, s) in rts.iter().zip(&stats.tasks) {
            let bound = r.wcrt.expect("schedulable");
            assert!(
                s.response_max <= bound,
                "simulated {} exceeds analytic {} for {}",
                s.response_max,
                bound,
                s.id
            );
        }
    }
}
