//! `fleet_rollout`: E15 `degraded`-arm campaigns over 100k vehicles on
//! `nproc` shards, cycling through a pool of campaign seeds. Only the
//! degraded arm is used: the broken arm halts after the 1% canary, and
//! mixing the two would make the unit time bimodal.

use crate::trace::Tracer;
use crate::workload::{per, Digest, Metrics, SimStats, UnitCheck, Workload};
use dynplat_bench::fleet::{arms_to_json, fleet_arms, FleetResult};
use dynplat_common::rng::split_seed;
use dynplat_common::VehicleId;
use dynplat_fleet::{
    simulate_vehicle, CampaignReport, CampaignSpec, ShardPool, UpdateMaster, VehicleVerdict,
};
use dynplat_monitor::slo::SloBurnGate;
use dynplat_obs::Sketch;
use std::hint::black_box;
use std::sync::Arc;

/// Fleet size of every campaign.
const VEHICLES: u32 = 100_000;
/// Campaign seeds in the pool.
const POOL: u64 = 8;
/// The E15 arm the campaigns run under.
const ARM: &str = "degraded";

/// Work counted during a traced phase.
#[derive(Default)]
struct Counts {
    waves: u64,
    vehicles: u64,
    sketch_records: u64,
    sketch_merges: u64,
    batches: u64,
    trips: u64,
}

/// The `fleet_rollout` workload.
pub struct Fleet {
    shards: usize,
    pool: Vec<CampaignSpec>,
    last: Option<CampaignReport>,
    shard_invariant: bool,
    replay_ok: bool,
    c: Counts,
}

/// Digest of a campaign: its E15 report JSON plus the merged counters.
fn report_digest(spec: &CampaignSpec, r: &CampaignReport) -> u64 {
    let mut d = Digest::new();
    let result = FleetResult::from_report(ARM, r);
    d.bytes(arms_to_json(spec.seed, spec.vehicles, &[result]).as_bytes());
    let t = &r.totals;
    for v in [
        t.simulated,
        t.admitted,
        t.rejected_flash,
        t.offline,
        t.updated,
        t.verify_failed,
        t.retries,
        t.stall_ns,
    ] {
        d.word(v);
    }
    d.finish()
}

impl Fleet {
    /// Builds the campaign pool and checks that the first campaign gives
    /// the same digest on one shard and on `shards` shards.
    pub fn new(seed: u64, shards: usize) -> Self {
        let pool: Vec<CampaignSpec> = (0..POOL)
            .map(|k| {
                let campaign_seed = split_seed(seed, 0xF1EE7 + k);
                let plan = fleet_arms(campaign_seed)
                    .into_iter()
                    .find(|a| a.name == ARM)
                    .expect("E15 defines the degraded arm")
                    .plan;
                CampaignSpec::standard(campaign_seed, VEHICLES, plan)
            })
            .collect();
        let one = UpdateMaster::new(pool[0].clone(), 1).run();
        let many = UpdateMaster::new(pool[0].clone(), shards).run();
        let shard_invariant = report_digest(&pool[0], &one) == report_digest(&pool[0], &many);
        Fleet {
            shards,
            pool,
            last: None,
            shard_invariant,
            replay_ok: true,
            c: Counts::default(),
        }
    }
}

impl Workload for Fleet {
    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn run_unit(&mut self, i: usize, tr: &mut Tracer) {
        let spec = self.pool[i].clone();
        tr.begin("fleet.spawn");
        let master = UpdateMaster::new(spec, self.shards);
        tr.end();
        tr.begin("fleet.campaign");
        let report = master.run();
        tr.end();
        self.last = Some(report);
    }

    fn replay(&mut self, i: usize, tr: &mut Tracer) {
        let r = self.last.as_ref().expect("unit ran");
        let spec = Arc::new(self.pool[i].clone());
        let shards = self.shards;

        // Each wave again through a fresh shard pool.
        let mut pool = ShardPool::spawn(Arc::clone(&spec), shards);
        for w in &r.waves {
            tr.begin("fleet.shard");
            let (outcomes, metrics) = pool.run_wave(w.index, w.lo, w.hi, w.started);
            tr.end();
            self.replay_ok &=
                metrics.admitted == w.admitted && outcomes.len() as u32 == w.hi - w.lo;
            self.c.waves += 1;
        }
        drop(pool);

        // The per-vehicle kernel, serially.
        tr.begin("fleet.vehicle");
        let mut acc = 0u64;
        for w in &r.waves {
            for v in w.lo..w.hi {
                let o = simulate_vehicle(&spec, VehicleId(v), w.started);
                acc = acc.wrapping_add(o.completed.as_nanos());
            }
        }
        tr.end();
        black_box(acc);
        self.c.vehicles += r.waves.iter().map(|w| u64::from(w.hi - w.lo)).sum::<u64>();

        // Stage sketches: recorded per shard, merged wave by wave.
        let mut totals: [Sketch; 4] = Default::default();
        let mut per_shard: Vec<[Sketch; 4]> = vec![Default::default(); shards];
        for w in &r.waves {
            let outcomes = &r.outcomes[w.lo as usize..w.hi as usize];
            self.replay_ok &= outcomes.first().map(|o| o.vehicle) == Some(VehicleId(w.lo));
            for s in &mut per_shard {
                *s = Default::default();
            }
            tr.begin("obs.sketch.record");
            for o in outcomes.iter().filter(|o| o.admitted()) {
                let s = &mut per_shard[o.vehicle.raw() as usize % shards];
                s[0].record(o.download_time().as_millis());
                s[1].record(o.finalize_time().as_millis());
                s[2].record(o.stall.as_millis());
                s[3].record(o.duration().as_millis());
                self.c.sketch_records += 4;
            }
            tr.end();
            tr.begin("obs.sketch.merge");
            for s in &per_shard {
                for (total, part) in totals.iter_mut().zip(s) {
                    total.merge(part);
                }
            }
            tr.end();
            self.c.sketch_merges += 4 * shards as u64;
        }
        let t = &r.totals;
        self.replay_ok &= totals[0] == t.download_ms
            && totals[1] == t.finalize_ms
            && totals[2] == t.stall_ms
            && totals[3] == t.e2e_ms;

        // The wave gate over each wave's verification stream.
        let mut gate = SloBurnGate::new(spec.gate.slo_spec());
        let mut finished = Vec::new();
        for w in &r.waves {
            finished.clear();
            finished.extend(
                r.outcomes[w.lo as usize..w.hi as usize]
                    .iter()
                    .filter(|o| o.admitted())
                    .map(|o| (o.completed, o.verdict == VehicleVerdict::VerifyFailed)),
            );
            finished.sort_unstable();
            gate.reset();
            let mut tripped = false;
            tr.begin("monitor.slo");
            for batch in finished.chunks(spec.gate.batch.max(1)) {
                let bad = batch.iter().filter(|&&(_, failed)| failed).count() as u64;
                let at = batch[batch.len() - 1].0;
                tripped |= gate.observe(at, batch.len() as u64 - bad, bad).tripped;
                self.c.batches += 1;
            }
            tr.end();
            self.replay_ok &= tripped != w.promoted;
        }
        self.c.trips += gate.trips();
    }

    fn inspect(&mut self, i: usize, _collect: bool) -> UnitCheck {
        let spec = &self.pool[i];
        let r = self.last.take().expect("unit ran");
        let ok = r.totals.conserves()
            && r.outcomes.len() as u64 + r.skipped == u64::from(spec.vehicles)
            && self.replay_ok;
        UnitCheck {
            digest: report_digest(spec, &r),
            ok,
            events: r.totals.simulated,
            sim_ns: r.completed_at.as_nanos(),
        }
    }

    fn setup_ok(&self) -> bool {
        self.shard_invariant
    }

    fn sim_stats(&self) -> SimStats {
        SimStats::default()
    }

    fn layer_metrics(&self, tr: &Tracer, units: f64, m: &mut Metrics) {
        let c = &self.c;
        let ns = |name: &str| tr.totals(name).ns as f64;
        let kernel_ns = ns("fleet.vehicle");
        let wave_ns = ns("fleet.shard");
        let campaign_ns = ns("fleet.campaign");
        m.set("fleet.vehicle.count", per(c.vehicles as f64, units));
        m.set(
            "fleet.vehicle.ns_per_vehicle",
            per(kernel_ns, c.vehicles as f64),
        );
        m.set("fleet.shard.waves", per(c.waves as f64, units));
        m.set("fleet.shard.ns_per_wave", per(wave_ns, c.waves as f64));
        m.set(
            "fleet.shard.parallel_eff",
            per(kernel_ns, self.shards as f64 * wave_ns),
        );
        m.set(
            "fleet.campaign.self_frac",
            per(campaign_ns - wave_ns, campaign_ns),
        );
        m.set("monitor.slo.batches", per(c.batches as f64, units));
        m.set(
            "monitor.slo.ns_per_batch",
            per(ns("monitor.slo"), c.batches as f64),
        );
        m.set("monitor.slo.trips", per(c.trips as f64, units));
        m.set("obs.sketch.records", per(c.sketch_records as f64, units));
        m.set(
            "obs.sketch.ns_per_record",
            per(ns("obs.sketch.record"), c.sketch_records as f64),
        );
        m.set("obs.sketch.merges", per(c.sketch_merges as f64, units));
        m.set(
            "obs.sketch.ns_per_merge",
            per(ns("obs.sketch.merge"), c.sketch_merges as f64),
        );
    }
}
