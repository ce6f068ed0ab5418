//! The update-master backend: staged OTA campaigns over a sharded fleet.
//!
//! The paper's §3.2/§4.1 update master is a backend service that pushes a
//! new software version *across a fleet*, not onto one vehicle. This
//! module runs that campaign as the paper sketches it:
//!
//! 1. **Rollout waves** — the fleet is split into staged waves (canary →
//!    early → broad → rest). A wave's vehicles are admission-checked per
//!    hardware variant (A/B flash, then the vehicle configuration the
//!    image requires), offered the image spread over a window, and
//!    simulated to their terminal state on the shard pool;
//! 2. **Verification gating** — per-vehicle verification verdicts are
//!    folded into `(good, bad)` batches in completion order and fed to a
//!    [`SloBurnGate`] from `monitor::slo`: the failure boundary becomes
//!    an error budget, each batch's burn rate is judged by a
//!    `BoundaryEstimator` against burn 1.0, and the flight recorder is
//!    armed the moment the fast-window burn crosses the budget — so a
//!    trip ships with the causal window that led to it. Because every
//!    estimator parameter scales with its boundary, the trip timing is
//!    identical to the previous raw failure-rate gate — adaptation on a
//!    distribution, not on a point, exactly as in E14;
//! 3. **Rollback policy** — a tripped gate rolls back every updated
//!    vehicle of the wave (the rollback storm) and halts the campaign;
//!    individually failed vehicles roll back on their own either way.
//!
//! Everything runs on the simulated clock and is a deterministic function
//! of the campaign seed: reports serialize byte-identically across reruns
//! and across shard counts.

use crate::shard::{GateSample, ShardMetrics, ShardPool};
use crate::variant::{standard_mix, HwVariant, ImageSpec};
use crate::vehicle::{VehicleOutcome, VehicleVerdict};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_faults::FaultPlan;
use dynplat_monitor::slo::{SloBurnGate, SloSpec};
use dynplat_obs::{FlightRecorder, MetricsRegistry};
use std::fmt::Write as _;
use std::sync::Arc;

/// How a wave's verification verdicts gate its promotion.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaveGate {
    /// Verification failure rate the campaign must stay below.
    pub failure_boundary: f64,
    /// Vehicles per failure-rate sample (batched in completion order).
    pub batch: usize,
}

impl Default for WaveGate {
    fn default() -> Self {
        WaveGate {
            failure_boundary: 0.05,
            batch: 32,
        }
    }
}

impl WaveGate {
    /// The gate as a declarative SLO: the failure boundary is the error
    /// budget of the `fleet.wave.verify` objective.
    pub fn slo_spec(&self) -> SloSpec {
        SloSpec::error_fraction("fleet.wave.verify", self.failure_boundary)
    }
}

/// The complete, seed-driven description of one fleet campaign.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign master seed; every per-vehicle stream derives from it.
    pub seed: u64,
    /// Fleet size.
    pub vehicles: u32,
    /// Region buses the fleet downloads over (partition targets).
    pub regions: u16,
    /// Probability a vehicle is unreachable when its wave opens.
    pub offline_rate: f64,
    /// Hardware variant mix.
    pub mix: Vec<HwVariant>,
    /// The image being rolled out.
    pub image: ImageSpec,
    /// Wave sizes as fleet fractions (normalized over their sum; waves
    /// cover the fleet in vehicle-id order).
    pub waves: Vec<f64>,
    /// Window over which one wave's offers are spread.
    pub wave_spread: SimDuration,
    /// Pause between a promoted wave and the next wave's first offer.
    pub soak: SimDuration,
    /// Promotion gate.
    pub gate: WaveGate,
    /// Fault injection plan (drop/corrupt/delay rates, region partitions).
    pub plan: FaultPlan,
}

impl CampaignSpec {
    /// The standard staged campaign over `vehicles` vehicles: the
    /// [`standard_mix`] fleet in 8 regions, a 1% canary, 5% early, 25%
    /// broad and 69% rest wave, offers spread over 60 s per wave.
    pub fn standard(seed: u64, vehicles: u32, plan: FaultPlan) -> Self {
        CampaignSpec {
            seed,
            vehicles,
            regions: 8,
            offline_rate: 0.02,
            mix: standard_mix(),
            image: ImageSpec::standard(),
            waves: vec![0.01, 0.05, 0.25, 0.69],
            wave_spread: SimDuration::from_secs(60),
            soak: SimDuration::from_secs(5),
            gate: WaveGate::default(),
            plan,
        }
    }

    /// Wave boundaries as `[lo, hi)` vehicle-id ranges covering the whole
    /// fleet in order. Fractions are normalized over their sum; the last
    /// wave absorbs rounding.
    ///
    /// # Panics
    ///
    /// Panics if `waves` is empty or sums to zero.
    pub fn wave_bounds(&self) -> Vec<(u32, u32)> {
        let total: f64 = self.waves.iter().sum();
        assert!(
            !self.waves.is_empty() && total > 0.0,
            "campaign needs at least one wave with positive size"
        );
        let mut bounds = Vec::with_capacity(self.waves.len());
        let mut lo = 0u32;
        let mut acc = 0.0;
        for (i, w) in self.waves.iter().enumerate() {
            acc += w / total;
            let hi = if i + 1 == self.waves.len() {
                self.vehicles
            } else {
                ((f64::from(self.vehicles) * acc).round() as u32).clamp(lo, self.vehicles)
            };
            bounds.push((lo, hi));
            lo = hi;
        }
        bounds
    }
}

/// What one rollout wave did.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WaveReport {
    /// Wave index (0 = canary).
    pub index: u32,
    /// Vehicle-id range `[lo, hi)`.
    pub lo: u32,
    /// Exclusive upper bound of the range.
    pub hi: u32,
    /// Vehicles that passed admission and ran the pipeline.
    pub admitted: u64,
    /// Vehicles rejected at admission (flash too small for A/B).
    pub rejected_flash: u64,
    /// Vehicles rejected at admission for their configuration.
    pub rejected_config: u64,
    /// Vehicles unreachable at wave open.
    pub offline: u64,
    /// Vehicles that verified the new version.
    pub updated: u64,
    /// Vehicles whose verification failed (individual rollbacks).
    pub verify_failed: u64,
    /// Observed verification failure rate of the wave.
    pub failure_rate: f64,
    /// Peak converged boundary-exceedance belief the estimator reached
    /// while the wave's verification stream came in (0 if it never
    /// converged — e.g. a canary too small for the gate's batch size).
    pub exceed: f64,
    /// Peak fast-window burn rate (bad fraction over budget) the SLO gate
    /// saw during the wave.
    pub fast_burn_peak: f64,
    /// Peak slow-window burn rate during the wave.
    pub slow_burn_peak: f64,
    /// `true` if the gate promoted the wave; `false` fails the campaign.
    pub promoted: bool,
    /// Updated vehicles rolled back because the wave gate tripped.
    pub rolled_back: u64,
    /// First offer instant of the wave.
    pub started: SimTime,
    /// Last vehicle terminal instant of the wave.
    pub completed: SimTime,
}

/// The merged, deterministic result of one campaign.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Campaign seed.
    pub seed: u64,
    /// Fleet size.
    pub vehicles: u32,
    /// Per-wave summaries, in rollout order (absent waves were never
    /// opened because an earlier gate halted the campaign).
    pub waves: Vec<WaveReport>,
    /// Cross-shard merged pipeline counters.
    pub totals: ShardMetrics,
    /// Every simulated vehicle's outcome, sorted by vehicle id (wave-gate
    /// rollbacks already applied).
    pub outcomes: Vec<VehicleOutcome>,
    /// Vehicles never offered the image because the campaign halted.
    pub skipped: u64,
    /// `true` if a wave gate tripped and halted the campaign.
    pub halted: bool,
    /// Last terminal instant of the campaign.
    pub completed_at: SimTime,
}

impl CampaignReport {
    /// Vehicles rolled back by wave gates (the storm total).
    pub fn storm_total(&self) -> u64 {
        self.waves.iter().map(|w| w.rolled_back).sum()
    }

    /// Largest single-wave rollback (the storm peak).
    pub fn storm_peak(&self) -> u64 {
        self.waves.iter().map(|w| w.rolled_back).max().unwrap_or(0)
    }

    /// Offer-to-verified durations (ms, sorted ascending) of every vehicle
    /// that completed the full update pipeline successfully — the
    /// campaign's completion-time distribution. Wave-rolled-back vehicles
    /// completed the pipeline too (the gate, not the vehicle, reversed
    /// them), so they stay in the distribution.
    pub fn completion_ms_sorted(&self) -> Vec<u64> {
        let mut ms: Vec<u64> = self
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.verdict,
                    VehicleVerdict::Updated | VehicleVerdict::WaveRolledBack
                )
            })
            .map(|o| o.duration().as_millis())
            .collect();
        ms.sort_unstable();
        ms
    }

    /// Vehicles whose completion took more than `factor` × the median —
    /// the straggler tail a partitioned region produces.
    pub fn straggler_count(&self, factor: f64) -> u64 {
        Self::stragglers_in(&self.completion_ms_sorted(), factor)
    }

    /// [`CampaignReport::straggler_count`] over an already sorted
    /// completion distribution (as [`CampaignReport::completion_ms_sorted`]
    /// returns it), for callers that hold one.
    pub fn stragglers_in(sorted_ms: &[u64], factor: f64) -> u64 {
        let Some(&median) = sorted_ms.get(sorted_ms.len() / 2) else {
            return 0;
        };
        let bound = median as f64 * factor;
        sorted_ms.iter().filter(|&&d| d as f64 > bound).count() as u64
    }

    /// Admission throughput on the simulated clock: vehicles admitted per
    /// simulated second over the whole campaign.
    pub fn admitted_per_sim_sec(&self) -> f64 {
        let secs = self.completed_at.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.totals.admitted as f64 / secs
        }
    }

    /// One line per wave: failure rate, burn peaks, exceedance belief and
    /// the gate decision — the operator-facing SLO picture of the
    /// campaign.
    pub fn slo_summary(&self) -> String {
        let mut out = String::new();
        for w in &self.waves {
            let _ = writeln!(
                out,
                "wave {}: vehicles {:>6} fail {:.4} fast-burn {:>6.2}x slow-burn {:>6.2}x \
                 exceed {:.3} -> {}",
                w.index,
                w.hi - w.lo,
                w.failure_rate,
                w.fast_burn_peak,
                w.slow_burn_peak,
                w.exceed,
                if w.promoted {
                    "promoted"
                } else {
                    "ROLLED BACK"
                }
            );
        }
        out
    }

    /// Publishes the merged campaign into a metrics registry under
    /// `fleet.*` — counters for every pipeline verdict, the wave ledger,
    /// the completion-time distribution as a histogram (bulk-merged with
    /// `record_n`, one call per distinct millisecond value), and the
    /// per-stage latency sketches merged into histograms of the same
    /// bucket layout.
    pub fn publish(&self, registry: &MetricsRegistry) {
        let t = &self.totals;
        registry
            .counter("fleet.vehicles.simulated")
            .add(t.simulated);
        registry.counter("fleet.vehicles.admitted").add(t.admitted);
        registry
            .counter("fleet.vehicles.rejected_flash")
            .add(t.rejected_flash);
        registry
            .counter("fleet.vehicles.rejected_config")
            .add(t.rejected_config);
        registry.counter("fleet.vehicles.offline").add(t.offline);
        registry.counter("fleet.vehicles.updated").add(t.updated);
        registry
            .counter("fleet.vehicles.verify_failed")
            .add(t.verify_failed);
        registry
            .counter("fleet.vehicles.wave_rolled_back")
            .add(self.storm_total());
        registry.counter("fleet.vehicles.skipped").add(self.skipped);
        let promoted = self.waves.iter().filter(|w| w.promoted).count() as u64;
        registry.counter("fleet.waves.promoted").add(promoted);
        registry
            .counter("fleet.waves.rolled_back")
            .add(self.waves.len() as u64 - promoted);
        registry
            .gauge("fleet.campaign.sim_duration_ms")
            .set(self.completed_at.as_millis() as i64);
        registry
            .gauge("fleet.campaign.admitted_per_sim_sec_milli")
            .set((self.admitted_per_sim_sec() * 1e3) as i64);
        let hist = registry.histogram("fleet.vehicle.completion_ms");
        let sorted = self.completion_ms_sorted();
        let mut i = 0usize;
        while i < sorted.len() {
            let mut j = i + 1;
            while j < sorted.len() && sorted[j] == sorted[i] {
                j += 1;
            }
            hist.record_n(sorted[i], (j - i) as u64);
            i = j;
        }
        registry
            .histogram("fleet.stage.download_ms")
            .merge(&self.totals.download_ms);
        registry
            .histogram("fleet.stage.finalize_ms")
            .merge(&self.totals.finalize_ms);
        registry
            .histogram("fleet.stage.stall_ms")
            .merge(&self.totals.stall_ms);
        registry
            .histogram("fleet.stage.e2e_ms")
            .merge(&self.totals.e2e_ms);
    }
}

/// The staged-campaign driver: owns the shard pool and walks the waves.
pub struct UpdateMaster {
    spec: Arc<CampaignSpec>,
    pool: ShardPool,
    gate: SloBurnGate,
}

impl UpdateMaster {
    /// Creates a master over `shards` sim kernels.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero or the fault plan is invalid.
    pub fn new(spec: CampaignSpec, shards: usize) -> Self {
        spec.plan
            .validate()
            .expect("campaign fault plan is invalid");
        let gate = SloBurnGate::new(spec.gate.slo_spec());
        let spec = Arc::new(spec);
        UpdateMaster {
            pool: ShardPool::spawn(Arc::clone(&spec), shards),
            gate,
            spec,
        }
    }

    /// Attaches a flight recorder to the wave gate: the fast-window burn
    /// arms it, and every gate trip freezes a `dynplat.flight.v1` dump.
    pub fn attach_flight_recorder(&mut self, flight: Arc<FlightRecorder>) {
        self.gate.attach_flight_recorder(flight);
    }

    /// Runs the campaign to completion (or to its halting wave) and
    /// returns the merged report.
    pub fn run(mut self) -> CampaignReport {
        let spec = Arc::clone(&self.spec);
        let mut now = SimTime::ZERO;
        let mut waves = Vec::new();
        let mut outcomes: Vec<VehicleOutcome> = Vec::with_capacity(spec.vehicles as usize);
        let mut finished: Vec<GateSample> = Vec::new();
        let mut totals = ShardMetrics::default();
        let mut halted = false;
        let mut skipped = 0u64;
        let mut completed_at = SimTime::ZERO;

        for (index, (lo, hi)) in spec.wave_bounds().into_iter().enumerate() {
            if halted {
                skipped += u64::from(hi - lo);
                continue;
            }
            // Failure-rate series: admitted vehicles in completion order,
            // batched; the estimator judges the wave on the distribution.
            let wave_at = outcomes.len();
            let metrics = self.pool.run_wave_into(
                index as u32,
                lo,
                hi,
                now,
                &mut outcomes,
                Some(&mut finished),
            );
            totals.merge(&metrics);
            let wave_outcomes = &mut outcomes[wave_at..];
            self.gate.reset();
            // The gate is edge-triggered: a live master watches the
            // failure stream and halts the moment the estimator is
            // confident, so the wave fails if ANY point of the stream
            // tripped. (Verify failures complete faster than successes —
            // they skip install+verify — so they cluster early; judging
            // only the end of the stream would let the estimator "recover"
            // on the trailing successes and wave a broken image through.)
            let mut tripped = false;
            let mut exceed_peak = 0.0f64;
            let mut fast_burn_peak = 0.0f64;
            let mut slow_burn_peak = 0.0f64;
            for batch in finished.chunks(spec.gate.batch.max(1)) {
                let failures = batch.iter().filter(|&&(_, failed)| failed).count() as u64;
                let at = batch.last().expect("chunks are non-empty").0;
                let verdict = self
                    .gate
                    .observe(at, batch.len() as u64 - failures, failures);
                if verdict.estimate.converged {
                    exceed_peak = exceed_peak.max(verdict.estimate.exceed);
                }
                fast_burn_peak = fast_burn_peak.max(verdict.fast_burn);
                slow_burn_peak = slow_burn_peak.max(verdict.slow_burn);
                tripped |= verdict.tripped;
            }

            let wave_end = wave_outcomes
                .iter()
                .map(|o| o.completed)
                .max()
                .unwrap_or(now);
            let mut rolled_back = 0u64;
            if tripped {
                for o in wave_outcomes.iter_mut() {
                    if o.verdict == VehicleVerdict::Updated {
                        o.verdict = VehicleVerdict::WaveRolledBack;
                        rolled_back += 1;
                    }
                }
                halted = true;
            }
            let failure_rate = if metrics.admitted == 0 {
                0.0
            } else {
                metrics.verify_failed as f64 / metrics.admitted as f64
            };
            waves.push(WaveReport {
                index: index as u32,
                lo,
                hi,
                admitted: metrics.admitted,
                rejected_flash: metrics.rejected_flash,
                rejected_config: metrics.rejected_config,
                offline: metrics.offline,
                updated: metrics.updated,
                verify_failed: metrics.verify_failed,
                failure_rate,
                exceed: exceed_peak,
                fast_burn_peak,
                slow_burn_peak,
                promoted: !tripped,
                rolled_back,
                started: now,
                completed: wave_end,
            });
            completed_at = completed_at.max(wave_end);
            now = wave_end.max(now) + spec.soak;
        }

        debug_assert!(
            outcomes.windows(2).all(|w| w[0].vehicle < w[1].vehicle),
            "waves tile the fleet in id order, so outcomes arrive sorted"
        );
        CampaignReport {
            seed: spec.seed,
            vehicles: spec.vehicles,
            waves,
            totals,
            outcomes,
            skipped,
            halted,
            completed_at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::BusId;

    const SEED: u64 = 0xE15_5EED;

    fn run(vehicles: u32, shards: usize, plan: FaultPlan) -> CampaignReport {
        UpdateMaster::new(CampaignSpec::standard(SEED, vehicles, plan), shards).run()
    }

    #[test]
    fn wave_bounds_tile_the_fleet() {
        let spec = CampaignSpec::standard(SEED, 10_000, FaultPlan::quiet(SEED));
        let bounds = spec.wave_bounds();
        assert_eq!(bounds.len(), 4);
        assert_eq!(bounds[0].0, 0);
        assert_eq!(bounds.last().expect("non-empty").1, 10_000);
        for w in bounds.windows(2) {
            assert_eq!(w[0].1, w[1].0, "waves must abut");
        }
        assert_eq!(bounds[0].1 - bounds[0].0, 100, "1% canary of 10k");
    }

    #[test]
    fn quiet_campaign_promotes_every_wave() {
        let report = run(6_000, 2, FaultPlan::quiet(SEED));
        assert!(!report.halted);
        assert_eq!(report.skipped, 0);
        assert_eq!(report.waves.len(), 4);
        assert!(report.waves.iter().all(|w| w.promoted));
        assert_eq!(report.storm_total(), 0);
        assert_eq!(report.outcomes.len(), 6_000);
        assert!(report.totals.conserves());
        // The legacy variant (2/12 of the mix) is rejected at admission,
        // for flash; every standard variant fits the image's configuration.
        assert_eq!(report.totals.rejected_config, 0);
        let rejected = report.totals.rejected_flash as f64 / report.totals.simulated as f64;
        assert!(
            (rejected - 2.0 / 12.0).abs() < 0.03,
            "rejection share {rejected} far from the legacy share"
        );
        assert!(report.admitted_per_sim_sec() > 0.0);
    }

    #[test]
    fn broken_image_trips_a_gate_and_storms() {
        // 35% corruption → ~12% double-corruption verify failures, far
        // over the 5% boundary: some wave must fail with confidence, roll
        // its updated vehicles back and halt the campaign.
        let report = run(
            6_000,
            2,
            FaultPlan::quiet(SEED).with_message_faults(0.0, 0.35, 0.0),
        );
        assert!(report.halted);
        assert!(report.skipped > 0, "halt must strand the remaining waves");
        let failed_wave = report
            .waves
            .iter()
            .find(|w| !w.promoted)
            .expect("a wave must trip");
        assert!(failed_wave.exceed >= 0.95);
        assert!(
            failed_wave.fast_burn_peak > 1.0,
            "a tripping wave must burn past its budget: {failed_wave:?}"
        );
        assert!(failed_wave.rolled_back > 0);
        assert_eq!(report.storm_peak(), failed_wave.rolled_back);
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.verdict == VehicleVerdict::WaveRolledBack),
            "storm verdicts must land in the merged outcomes"
        );
        // Waves after the tripped one were never opened.
        assert_eq!(
            report.waves.last().expect("non-empty").index,
            failed_wave.index
        );
    }

    #[test]
    fn partitions_produce_a_straggler_tail() {
        let plan = FaultPlan::quiet(SEED)
            .partition(BusId(0), SimTime::from_secs(30), SimTime::from_secs(500))
            .partition(BusId(1), SimTime::from_secs(30), SimTime::from_secs(500));
        let quiet = run(4_000, 2, FaultPlan::quiet(SEED));
        let faulted = run(4_000, 2, plan);
        assert!(!faulted.halted, "stragglers are slow, not broken");
        assert!(
            faulted.straggler_count(4.0) > quiet.straggler_count(4.0),
            "partitioned regions must stretch the tail"
        );
        let q_max = *quiet.completion_ms_sorted().last().expect("non-empty");
        let f_max = *faulted.completion_ms_sorted().last().expect("non-empty");
        assert!(f_max > q_max);
    }

    #[test]
    fn report_conserves_vehicles_across_waves_and_halt() {
        let report = run(
            5_000,
            3,
            FaultPlan::quiet(SEED).with_message_faults(0.0, 0.35, 0.0),
        );
        assert_eq!(
            report.outcomes.len() as u64 + report.skipped,
            u64::from(report.vehicles)
        );
        assert_eq!(report.totals.simulated, report.outcomes.len() as u64);
        let wave_admitted: u64 = report.waves.iter().map(|w| w.admitted).sum();
        assert_eq!(wave_admitted, report.totals.admitted);
    }

    #[test]
    fn publish_exports_conserving_counters() {
        let report = run(3_000, 2, FaultPlan::quiet(SEED));
        let registry = MetricsRegistry::new();
        report.publish(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters["fleet.vehicles.simulated"], 3_000);
        assert_eq!(
            snap.counters["fleet.vehicles.admitted"]
                + snap.counters["fleet.vehicles.rejected_flash"]
                + snap.counters["fleet.vehicles.rejected_config"]
                + snap.counters["fleet.vehicles.offline"],
            snap.counters["fleet.vehicles.simulated"]
        );
        assert_eq!(
            snap.histograms["fleet.vehicle.completion_ms"].count,
            snap.counters["fleet.vehicles.updated"]
        );
        assert_eq!(snap.counters["fleet.waves.promoted"], 4);
        for stage in [
            "fleet.stage.download_ms",
            "fleet.stage.finalize_ms",
            "fleet.stage.stall_ms",
            "fleet.stage.e2e_ms",
        ] {
            assert_eq!(
                snap.histograms[stage].count, snap.counters["fleet.vehicles.admitted"],
                "{stage} must hold one sample per admitted vehicle"
            );
        }
        assert!(!report.slo_summary().is_empty());
    }

    #[test]
    fn gate_trip_pairs_with_a_flight_dump() {
        let mut master = UpdateMaster::new(
            CampaignSpec::standard(
                SEED,
                6_000,
                FaultPlan::quiet(SEED).with_message_faults(0.0, 0.35, 0.0),
            ),
            2,
        );
        let flight = Arc::new(dynplat_obs::FlightRecorder::new(256));
        master.attach_flight_recorder(Arc::clone(&flight));
        let report = master.run();
        assert!(report.halted);
        let dumps = flight.dumps();
        assert!(!dumps.is_empty(), "a halting campaign must capture");
        for d in &dumps {
            assert!(d.reason.contains("fleet.wave.verify"));
        }
        assert!(
            dumps[0]
                .events
                .iter()
                .any(|e| e.stage == "obs.slo.burn" && e.detail.contains("fleet.wave.verify")),
            "the arming crossing must be on tape before the trip"
        );
    }
}
