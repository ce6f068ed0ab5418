//! `sched_mix`: the E2 (Fig. 2) interference sweep. One unit runs one task
//! set of the pool (16 DA tasks at about 70% utilisation plus 8 NDA tasks)
//! under all four scheduling policies over a 1 s horizon. The TT tables are
//! synthesised during set-up.

use crate::trace::Tracer;
use crate::workload::{
    da_misses, digest_sched, jobs_of, per, sched_metrics, task_set, Digest, Metrics, SetShape,
    SimStats, UnitCheck, Workload, POLICY_SPANS,
};
use dynplat_common::rng::{split_seed, Rng, SplitMix64};
use dynplat_common::time::SimDuration;
use dynplat_obs::{Histogram, MetricsRegistry};
use dynplat_sched::server::PeriodicServer;
use dynplat_sched::simulate::{simulate_schedule, Policy, SchedSimConfig, SchedStats};
use dynplat_sched::task::TaskSet;
use dynplat_sched::tt;
use std::sync::Arc;
use std::time::Instant;

/// Task sets in the pool.
const POOL: usize = 64;
/// Simulated horizon of each policy run.
const HORIZON: SimDuration = SimDuration::from_secs(1);

const SHAPE: SetShape = SetShape {
    da: (
        &[
            5, 5, 10, 10, 10, 20, 20, 20, 25, 25, 50, 50, 50, 100, 100, 100,
        ],
        0.70,
    ),
    nda: (&[20, 20, 40, 40, 50, 50, 100, 100], 0.35),
};

struct Item {
    set: TaskSet,
    /// FIFO, FP, FP + server, TT — in [`POLICY_SPANS`] order.
    policies: [Policy; 4],
    cfg: SchedSimConfig,
}

/// The `sched_mix` workload.
pub struct SchedMix {
    pool: Vec<Item>,
    stats: [Option<SchedStats>; 4],
    synth_ms: f64,
    da: (u64, u64),
    jobs: [u64; 4],
    records: u64,
    target: Arc<Histogram>,
}

impl SchedMix {
    /// Draws the seed's task sets and synthesises their TT tables; a set
    /// whose table cannot be synthesised is redrawn.
    pub fn new(seed: u64) -> Self {
        let mut rng = SplitMix64::new(split_seed(seed, 0x5C4E));
        let mut synth = std::time::Duration::ZERO;
        let pool = (0..POOL)
            .map(|_| loop {
                let (set, da) = task_set(&mut rng, &SHAPE);
                let t0 = Instant::now();
                let table = tt::synthesize(&da);
                synth += t0.elapsed();
                let Ok(table) = table else { continue };
                break Item {
                    set,
                    policies: [
                        Policy::NonPreemptiveFifo,
                        Policy::FixedPriorityPreemptive,
                        Policy::FpWithServer(PeriodicServer::new(
                            SimDuration::from_millis(5),
                            SimDuration::from_millis(20),
                        )),
                        Policy::TimeTriggered(table),
                    ],
                    cfg: SchedSimConfig {
                        horizon: HORIZON,
                        seed: rng.gen(),
                        ..SchedSimConfig::default()
                    },
                };
            })
            .collect();
        SchedMix {
            pool,
            stats: [None, None, None, None],
            synth_ms: synth.as_secs_f64() * 1e3,
            da: (0, 0),
            jobs: [0; 4],
            records: 0,
            target: MetricsRegistry::new().histogram("replay.response_ns"),
        }
    }
}

impl Workload for SchedMix {
    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn run_unit(&mut self, i: usize, tr: &mut Tracer) {
        let item = &self.pool[i];
        for (k, policy) in item.policies.iter().enumerate() {
            tr.begin(POLICY_SPANS[k]);
            let stats = simulate_schedule(&item.set, policy, &item.cfg);
            tr.end();
            self.stats[k] = Some(stats);
        }
    }

    fn replay(&mut self, _i: usize, tr: &mut Tracer) {
        // Histogram records as the scheduler makes them: one response and
        // one slack sample per completed job, straight into the shared
        // atomic histogram.
        let mut records = 0u64;
        tr.begin("obs.metrics");
        for stats in self.stats.iter().flatten() {
            for t in &stats.tasks {
                for _ in 0..t.completions {
                    self.target.record(t.response_mean.as_nanos());
                    self.target.record(t.response_max.as_nanos());
                }
                records += 2 * t.completions;
            }
        }
        tr.end();
        self.records += records;
        for (k, stats) in self.stats.iter().enumerate() {
            self.jobs[k] += stats.as_ref().map_or(0, jobs_of);
        }
    }

    fn inspect(&mut self, _i: usize, collect: bool) -> UnitCheck {
        let mut d = Digest::new();
        let mut ok = true;
        let mut completions = 0u64;
        for (k, slot) in self.stats.iter_mut().enumerate() {
            let stats = slot.take().expect("unit ran");
            ok &= digest_sched(&stats, &mut d);
            completions += stats.tasks.iter().map(|t| t.completions).sum::<u64>();
            // FIFO is the no-isolation baseline; the other three isolate.
            if collect && k > 0 {
                let (m, a) = da_misses(&stats);
                self.da.0 += m;
                self.da.1 += a;
            }
        }
        UnitCheck {
            digest: d.finish(),
            ok,
            events: completions,
            sim_ns: 4 * HORIZON.as_nanos(),
        }
    }

    fn sim_stats(&self) -> SimStats {
        SimStats {
            brake_us_p99: None,
            da_miss_frac: Some(per(self.da.0 as f64, self.da.1 as f64)),
        }
    }

    fn layer_metrics(&self, tr: &Tracer, units: f64, m: &mut Metrics) {
        sched_metrics(tr, &self.jobs, units, m);
        m.set("sched.tt.synth_ms", self.synth_ms);
        m.set("obs.metrics.records", per(self.records as f64, units));
        m.set(
            "obs.metrics.ns_per_record",
            per(tr.totals("obs.metrics").ns as f64, self.records as f64),
        );
    }
}
