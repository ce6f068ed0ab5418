//! The E16 SLO-telemetry experiment core.
//!
//! E15 proved the wave gate halts a broken rollout; E16 asks the
//! *observability* question: what should page the fleet operator? Two
//! detectors watch the identical completion-ordered stream of 32-vehicle
//! verification batches:
//!
//! * **threshold** — the classic rule: page whenever one batch's failure
//!   fraction crosses the error budget. On a healthy-but-noisy fleet
//!   (~1.5 % baseline failures from marginal flash and occasional image
//!   re-fetches) a 32-vehicle batch crosses a 5 % budget whenever it
//!   carries ≥ 2 failures — several percent of all batches — so the pager
//!   fires all night for nothing;
//! * **burn** — the SLO pipeline: [`SloBurnGate`] folds each batch into
//!   multi-window burn rates and trips only when the
//!   `BoundaryEstimator` is *confident* burn > 1.0, arming and firing the
//!   flight recorder so every trip is paired with a `dynplat.flight.v1`
//!   dump of the window leading up to it.
//!
//! Each arm runs a clean warm-up phase (baseline noise) followed by a
//! fault phase: **quiet** keeps the baseline, **degraded** adds loss and
//! delay spikes (slow, not broken — stage sketches stretch, no alert
//! should fire), **broken** ships a badly corrupted image (~64 %
//! verification failures — both detectors must catch it, the burn gate at
//! no time-to-detect penalty). Per arm the merged stage sketches and a
//! delta-encoded [`TelemetryRing`] form the telemetry artifact whose size
//! prices the pipeline in bytes per vehicle; the artifact is byte-identical
//! across shard counts (schema `dynplat.e16.v1`, pinned by CI like E15).
//!
//! [`SloBurnGate`]: dynplat_monitor::slo::SloBurnGate

use std::sync::Arc;

use crate::Table;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_faults::FaultPlan;
use dynplat_fleet::{CampaignSpec, ShardMetrics, ShardPool, VehicleOutcome, VehicleVerdict};
use dynplat_monitor::slo::{SloBurnGate, SloSpec};
use dynplat_obs::{FlightRecorder, MetricsRegistry, Sketch, TelemetryRing};

/// Vehicles per verification batch offered to both detectors.
pub const E16_BATCH: usize = 32;

/// Error budget of the verification SLO (fraction of admitted vehicles
/// that may fail verification).
pub const E16_BUDGET: f64 = 0.05;

/// The four stage sketches exported per arm, with the gauge names their
/// p99 trajectory is flushed into for the telemetry ring (the sanctioned
/// histogram→timeseries path).
const STAGES: [(&str, &str); 4] = [
    ("fleet.stage.download_ms", "fleet.stage.download_ms.p99"),
    ("fleet.stage.finalize_ms", "fleet.stage.finalize_ms.p99"),
    ("fleet.stage.stall_ms", "fleet.stage.stall_ms.p99"),
    ("fleet.stage.e2e_ms", "fleet.stage.e2e_ms.p99"),
];

/// Baseline fleet noise: light image corruption (single re-fetches, the
/// occasional double-corrupt rollback) on top of the per-variant verify
/// noise floor — ~1.5 % failures, well inside a 5 % budget, yet enough
/// for a 32-vehicle batch to cross it regularly.
pub fn baseline_plan(seed: u64) -> FaultPlan {
    FaultPlan::quiet(seed).with_message_faults(0.0, 0.11, 0.0)
}

/// One arm of the E16 experiment.
#[derive(Clone, Debug)]
pub struct TelemetryArm {
    /// Arm label (`quiet` / `degraded` / `broken`).
    pub name: &'static str,
    /// Fault plan of the fault phase (the warm-up always runs
    /// [`baseline_plan`]).
    pub plan: FaultPlan,
    /// Whether the fault phase genuinely violates the SLO: alarms during
    /// it count as detection instead of false alarms.
    pub breaks: bool,
}

/// The standard three arms over `seed`.
pub fn telemetry_arms(seed: u64) -> Vec<TelemetryArm> {
    vec![
        TelemetryArm {
            name: "quiet",
            plan: baseline_plan(seed),
            breaks: false,
        },
        TelemetryArm {
            name: "degraded",
            // Lossy links and latency spikes on top of the baseline:
            // downloads stretch (the stage sketches show it) but the
            // verification failure rate stays at the noise floor, so a
            // correct detector stays silent.
            plan: baseline_plan(seed)
                .with_message_faults(0.10, 0.11, 0.0)
                .with_delay_spikes(0.05, SimDuration::from_secs(2)),
            breaks: false,
        },
        TelemetryArm {
            name: "broken",
            // A catastrophically corrupted image: double-corruption drives
            // ~64 % of admitted vehicles into verification failure.
            plan: FaultPlan::quiet(seed).with_message_faults(0.0, 0.80, 0.0),
            breaks: true,
        },
    ]
}

/// One completion-ordered batch of verification outcomes.
#[derive(Clone, Copy, Debug)]
struct Batch {
    /// Completion time of the batch's last vehicle (the evaluation
    /// instant for both detectors).
    at: SimTime,
    good: u64,
    bad: u64,
}

/// Groups admitted outcomes into completion-ordered batches of
/// [`E16_BATCH`] (ties broken by vehicle id, so the series is canonical
/// whatever the shard count).
fn batch_series(outcomes: &[VehicleOutcome]) -> Vec<Batch> {
    let mut done: Vec<(SimTime, u32, bool)> = outcomes
        .iter()
        .filter(|o| o.admitted())
        .map(|o| {
            (
                o.completed,
                o.vehicle.raw(),
                o.verdict == VehicleVerdict::VerifyFailed,
            )
        })
        .collect();
    done.sort_unstable();
    done.chunks(E16_BATCH)
        .map(|chunk| {
            let bad = chunk.iter().filter(|&&(_, _, failed)| failed).count() as u64;
            Batch {
                at: chunk.last().expect("chunks are non-empty").0,
                good: chunk.len() as u64 - bad,
                bad,
            }
        })
        .collect()
}

/// Alarm bookkeeping for one detector.
#[derive(Clone, Copy, Debug, Default)]
struct DetectorStats {
    false_alarms: u64,
    detected_at: Option<SimTime>,
}

impl DetectorStats {
    /// Folds one alarm decision. During a genuinely broken fault phase
    /// the first alarm is the detection and follow-ups are legitimate
    /// re-pages; everywhere else an alarm is a false page.
    fn observe(&mut self, alarm: bool, at: SimTime, incident: bool) {
        if !alarm {
            return;
        }
        if incident {
            self.detected_at.get_or_insert(at);
        } else {
            self.false_alarms += 1;
        }
    }

    fn ttd_ms(&self, onset: SimTime) -> Option<u64> {
        self.detected_at
            .map(|t| t.saturating_since(onset).as_millis())
    }
}

/// One arm's replay, reduced to the E16 figures.
#[derive(Clone, Debug)]
pub struct TelemetryResult {
    /// Arm label.
    pub arm: &'static str,
    /// Fleet size per phase.
    pub vehicles: u32,
    /// Batches in the clean warm-up phase.
    pub clean_batches: u64,
    /// Batches in the fault phase.
    pub fault_batches: u64,
    /// False pages from the bare per-batch threshold.
    pub threshold_false_alarms: u64,
    /// Threshold time-to-detect from fault onset, ms (broken arm only).
    pub threshold_ttd_ms: Option<u64>,
    /// False pages from the SLO burn gate.
    pub burn_false_alarms: u64,
    /// Burn-gate time-to-detect from fault onset, ms (broken arm only).
    pub burn_ttd_ms: Option<u64>,
    /// Burn-gate trip edges over the whole replay.
    pub trips: u64,
    /// Flight dumps captured on those trips (must pair 1:1).
    pub dumps: u64,
    /// Verification failures in the fault phase (ground truth).
    pub fault_verify_failed: u64,
    /// p99 download-stage duration in the fault phase, ms.
    pub fault_download_p99_ms: u64,
    /// Size of the merged telemetry artifact, bytes.
    pub telemetry_bytes: u64,
    /// The telemetry artifact itself: merged registry snapshot (stage
    /// histograms included) plus the delta-encoded ring, byte-identical
    /// across shard counts. Not part of [`TelemetryResult::to_json`];
    /// written separately for the CI shard-flip `cmp`.
    pub telemetry: String,
}

/// Publishes one phase's merged shard metrics into the registry.
fn publish_phase(registry: &MetricsRegistry, metrics: &ShardMetrics) {
    registry
        .counter("e16.vehicles.simulated")
        .add(metrics.simulated);
    registry
        .counter("e16.vehicles.admitted")
        .add(metrics.admitted);
    registry
        .counter("e16.vehicles.updated")
        .add(metrics.updated);
    registry
        .counter("e16.vehicles.verify_failed")
        .add(metrics.verify_failed);
    registry.counter("e16.chunk.retries").add(metrics.retries);
    let sketches: [&Sketch; 4] = [
        &metrics.download_ms,
        &metrics.finalize_ms,
        &metrics.stall_ms,
        &metrics.e2e_ms,
    ];
    for ((name, _), sketch) in STAGES.iter().zip(sketches) {
        registry.histogram(name).merge(sketch);
    }
}

/// Flushes stage-histogram p99s into gauges and samples the ring.
fn sample_ring(registry: &MetricsRegistry, ring: &mut TelemetryRing, at: SimTime) {
    for (name, p99_gauge) in STAGES {
        let p99 = registry.histogram(name).quantile(0.99);
        registry.gauge(p99_gauge).set(p99 as i64);
    }
    ring.sample(at.as_nanos(), &registry.snapshot());
}

impl TelemetryResult {
    /// Table row (stable formatting).
    pub fn row(&self) -> Vec<String> {
        let ttd = |t: Option<u64>| t.map_or_else(|| "-".to_owned(), |v| v.to_string());
        vec![
            self.arm.to_owned(),
            format!("{}/{}", self.clean_batches, self.fault_batches),
            self.threshold_false_alarms.to_string(),
            ttd(self.threshold_ttd_ms),
            self.burn_false_alarms.to_string(),
            ttd(self.burn_ttd_ms),
            self.trips.to_string(),
            self.dumps.to_string(),
            self.fault_verify_failed.to_string(),
            self.fault_download_p99_ms.to_string(),
            self.telemetry_bytes.to_string(),
        ]
    }

    /// Header matching [`TelemetryResult::row`].
    pub fn columns() -> [&'static str; 11] {
        [
            "arm",
            "batches",
            "thr_false",
            "thr_ttd_ms",
            "burn_false",
            "burn_ttd_ms",
            "trips",
            "dumps",
            "fault_vfail",
            "dl_p99_ms",
            "tel_bytes",
        ]
    }

    /// Prints this result as one row of `table`.
    pub fn print_row(&self, table: &Table) {
        table.row(&self.row());
    }

    /// One JSON object (hand-rolled like every snapshot in the workspace,
    /// schema `dynplat.e16.v1` fields). Sim-clock quantities only: no
    /// wall-clock value may enter, or rerun/shard-count byte-identity dies.
    pub fn to_json(&self) -> String {
        let ttd = |t: Option<u64>| t.map_or_else(|| "null".to_owned(), |v| v.to_string());
        format!(
            concat!(
                "{{\"arm\":\"{}\",\"vehicles\":{},",
                "\"batches\":{{\"clean\":{},\"fault\":{}}},",
                "\"threshold\":{{\"false_alarms\":{},\"ttd_ms\":{}}},",
                "\"burn\":{{\"false_alarms\":{},\"ttd_ms\":{},\"trips\":{},\"dumps\":{}}},",
                "\"fault\":{{\"verify_failed\":{},\"download_p99_ms\":{}}},",
                "\"telemetry_bytes\":{}}}"
            ),
            self.arm,
            self.vehicles,
            self.clean_batches,
            self.fault_batches,
            self.threshold_false_alarms,
            ttd(self.threshold_ttd_ms),
            self.burn_false_alarms,
            ttd(self.burn_ttd_ms),
            self.trips,
            self.dumps,
            self.fault_verify_failed,
            self.fault_download_p99_ms,
            self.telemetry_bytes,
        )
    }
}

/// Serializes a whole E16 run as a JSON document (schema `dynplat.e16.v1`).
pub fn telemetry_arms_to_json(seed: u64, vehicles: u32, results: &[TelemetryResult]) -> String {
    let rows: Vec<String> = results.iter().map(TelemetryResult::to_json).collect();
    format!(
        concat!(
            "{{\"schema\":\"dynplat.e16.v1\",\"seed\":{},\"vehicles\":{},",
            "\"budget\":0.05,\"batch\":32,\"arms\":[{}]}}\n"
        ),
        seed,
        vehicles,
        rows.join(",")
    )
}

/// Runs one E16 arm: baseline warm-up wave, fault wave, detector replay
/// and telemetry reduction, all on `shards` shards.
pub fn run_telemetry_arm(
    seed: u64,
    vehicles: u32,
    shards: usize,
    arm: &TelemetryArm,
) -> TelemetryResult {
    // Phase 1: the clean warm-up every arm shares — it seeds the burn
    // gate's belief about baseline noise and hands the threshold detector
    // every chance to page on it.
    let clean_spec = Arc::new(CampaignSpec::standard(seed, vehicles, baseline_plan(seed)));
    let mut pool = ShardPool::spawn(clean_spec, shards);
    let (clean_outcomes, clean_metrics) = pool.run_wave(0, 0, vehicles, SimTime::ZERO);
    drop(pool);
    let onset = clean_outcomes
        .iter()
        .map(|o| o.completed)
        .max()
        .unwrap_or(SimTime::ZERO);

    // Phase 2: the same fleet under the arm's fault plan, offered at the
    // moment the warm-up drained.
    let fault_spec = Arc::new(CampaignSpec::standard(seed, vehicles, arm.plan.clone()));
    let mut pool = ShardPool::spawn(fault_spec, shards);
    let (fault_outcomes, fault_metrics) = pool.run_wave(1, 0, vehicles, onset);
    drop(pool);
    let fault_end = fault_outcomes
        .iter()
        .map(|o| o.completed)
        .max()
        .unwrap_or(onset);

    // Both detectors replay the identical batch series.
    let clean_batches = batch_series(&clean_outcomes);
    let fault_batches = batch_series(&fault_outcomes);
    let flight = Arc::new(FlightRecorder::new(256));
    let mut gate = SloBurnGate::new(SloSpec::error_fraction("e16.fleet.verify", E16_BUDGET));
    gate.attach_flight_recorder(Arc::clone(&flight));
    let mut threshold = DetectorStats::default();
    let mut burn = DetectorStats::default();
    for (series, incident) in [(&clean_batches, false), (&fault_batches, arm.breaks)] {
        for b in series {
            let fraction = b.bad as f64 / (b.good + b.bad) as f64;
            threshold.observe(fraction > E16_BUDGET, b.at, incident);
            let verdict = gate.observe(b.at, b.good, b.bad);
            burn.observe(verdict.trip_edge, b.at, incident);
        }
    }

    // The telemetry artifact: merged counters and stage histograms plus the
    // p99 trajectory ring, sampled once per phase.
    let registry = MetricsRegistry::new();
    let mut ring = TelemetryRing::new(8);
    publish_phase(&registry, &clean_metrics);
    sample_ring(&registry, &mut ring, onset);
    publish_phase(&registry, &fault_metrics);
    sample_ring(&registry, &mut ring, fault_end);
    let telemetry = format!(
        "{{\"arm\":\"{}\",\"snapshot\":{},\"series\":{}}}\n",
        arm.name,
        registry.snapshot().to_json().trim_end(),
        ring.to_json().trim_end(),
    );

    TelemetryResult {
        arm: arm.name,
        vehicles,
        clean_batches: clean_batches.len() as u64,
        fault_batches: fault_batches.len() as u64,
        threshold_false_alarms: threshold.false_alarms,
        threshold_ttd_ms: threshold.ttd_ms(onset),
        burn_false_alarms: burn.false_alarms,
        burn_ttd_ms: burn.ttd_ms(onset),
        trips: gate.trips(),
        dumps: gate.dumps(),
        fault_verify_failed: fault_metrics.verify_failed,
        fault_download_p99_ms: fault_metrics.download_ms.quantile(0.99),
        telemetry_bytes: telemetry.len() as u64,
        telemetry,
    }
}

/// Runs the standard three-arm E16 set.
pub fn run_telemetry_arms(seed: u64, vehicles: u32, shards: usize) -> Vec<TelemetryResult> {
    telemetry_arms(seed)
        .iter()
        .map(|arm| run_telemetry_arm(seed, vehicles, shards, arm))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xE16_5EED;

    #[test]
    fn arms_are_deterministic_across_shard_counts() {
        let a = run_telemetry_arms(SEED, 3_000, 1);
        let b = run_telemetry_arms(SEED, 3_000, 3);
        assert_eq!(
            telemetry_arms_to_json(SEED, 3_000, &a),
            telemetry_arms_to_json(SEED, 3_000, &b),
            "E16 JSON must not depend on the shard count"
        );
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                x.telemetry, y.telemetry,
                "{}: merged telemetry differs",
                x.arm
            );
        }
    }

    #[test]
    fn burn_gate_beats_threshold_without_losing_detection() {
        let results = run_telemetry_arms(SEED, 3_000, 2);
        let by_name = |n: &str| results.iter().find(|r| r.arm == n).expect("arm present");
        let thr_false: u64 = results.iter().map(|r| r.threshold_false_alarms).sum();
        let burn_false: u64 = results.iter().map(|r| r.burn_false_alarms).sum();
        assert!(
            thr_false > 0,
            "baseline noise must page the threshold detector"
        );
        assert!(
            burn_false < thr_false,
            "burn gate must page less: burn {burn_false} vs threshold {thr_false}"
        );

        let broken = by_name("broken");
        let (thr_ttd, burn_ttd) = (
            broken.threshold_ttd_ms.expect("threshold detects"),
            broken.burn_ttd_ms.expect("burn gate detects"),
        );
        assert!(
            burn_ttd <= thr_ttd,
            "burn gate must not detect later: burn {burn_ttd} vs threshold {thr_ttd}"
        );
        assert!(by_name("quiet").burn_ttd_ms.is_none());
        assert!(by_name("degraded").burn_ttd_ms.is_none());
    }

    #[test]
    fn every_trip_is_paired_with_a_dump() {
        for r in run_telemetry_arms(SEED, 3_000, 2) {
            assert_eq!(r.trips, r.dumps, "{}: trips must pair with dumps", r.arm);
        }
    }

    #[test]
    fn degraded_is_slow_not_broken() {
        let results = run_telemetry_arms(SEED, 3_000, 2);
        let by_name = |n: &str| results.iter().find(|r| r.arm == n).expect("arm present");
        let (quiet, degraded) = (by_name("quiet"), by_name("degraded"));
        assert_eq!(degraded.trips, 0, "loss and delay must not trip the SLO");
        assert!(
            degraded.fault_download_p99_ms > quiet.fault_download_p99_ms,
            "stage sketches must show the stretch: degraded {} vs quiet {}",
            degraded.fault_download_p99_ms,
            quiet.fault_download_p99_ms
        );
    }

    #[test]
    fn telemetry_artifact_round_trips() {
        let r = run_telemetry_arm(SEED, 1_000, 2, &telemetry_arms(SEED)[0]);
        assert_eq!(r.telemetry_bytes as usize, r.telemetry.len());
        let series = r
            .telemetry
            .split("\"series\":")
            .nth(1)
            .expect("series section");
        let series = &series[..series.rfind('}').expect("closing brace")];
        TelemetryRing::from_json(series).expect("ring parses back");
        assert_eq!(
            series.matches("\"t_ns\"").count(),
            2,
            "one sample per phase"
        );
    }
}
