//! The E15 fleet-campaign experiment core.
//!
//! E14 showed uncertainty-driven adaptation on one vehicle; E15 scales the
//! same machinery to the place the paper actually aims it (§4.1): an
//! update master rolling a release across 10⁵–10⁶ vehicles. Three arms run
//! the identical staged campaign (same seed, same fleet, same waves) under
//! different fault plans:
//!
//! * **quiet** — healthy fleet and network: every wave promotes, the
//!   completion distribution is tight;
//! * **degraded** — lossy links, latency spikes and two partitioned
//!   region buses: the campaign still promotes, but the straggler tail
//!   stretches by orders of magnitude;
//! * **broken** — a corrupted image: per-vehicle verification failures
//!   stream into the wave gate, the [`BoundaryEstimator`] trips with
//!   confidence, and the master rolls the wave back (the rollback storm)
//!   instead of pushing the release to the rest of the fleet.
//!
//! All reported quantities live on the *simulated* clock so the JSON
//! (schema `dynplat.e15.v1`) is byte-identical across reruns **and across
//! shard counts** — the CI gate pins both.
//!
//! [`BoundaryEstimator`]: dynplat_monitor::uncertainty::BoundaryEstimator

use crate::Table;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::BusId;
use dynplat_faults::FaultPlan;
use dynplat_fleet::{standard_mix, CampaignReport, CampaignSpec, HwVariant, UpdateMaster};

/// One arm of the E15 experiment.
#[derive(Clone, Debug)]
pub struct FleetArm {
    /// Arm label (`quiet` / `degraded` / `broken`).
    pub name: &'static str,
    /// The fault plan the campaign runs under.
    pub plan: FaultPlan,
}

/// The standard three arms over `seed`.
pub fn fleet_arms(seed: u64) -> Vec<FleetArm> {
    vec![
        FleetArm {
            name: "quiet",
            plan: FaultPlan::quiet(seed),
        },
        FleetArm {
            name: "degraded",
            // Lossy cellular links with latency spikes, plus two region
            // buses partitioned for thirteen minutes across the canary
            // wave: vehicles caught mid-download wait the window out, and
            // the completion tail stretches by most of an order of
            // magnitude (the straggler arm).
            plan: FaultPlan::quiet(seed)
                .with_message_faults(0.08, 0.0, 0.0)
                .with_delay_spikes(0.05, SimDuration::from_secs(2))
                .partition(BusId(0), SimTime::from_secs(100), SimTime::from_secs(900))
                .partition(BusId(1), SimTime::from_secs(100), SimTime::from_secs(900)),
        },
        FleetArm {
            name: "broken",
            // A bad release: heavy image corruption drives verification
            // failures far past the wave gate's boundary.
            plan: FaultPlan::quiet(seed).with_message_faults(0.02, 0.35, 0.0),
        },
    ]
}

/// One arm's merged campaign, reduced to the E15 figures.
#[derive(Clone, Debug)]
pub struct FleetResult {
    /// Arm label.
    pub arm: &'static str,
    /// Fleet size offered the campaign.
    pub vehicles: u32,
    /// Vehicles that passed admission.
    pub admitted: u64,
    /// Vehicles running the new version at campaign end.
    pub updated: u64,
    /// Individual verification failures (vehicle-local rollbacks).
    pub verify_failed: u64,
    /// Vehicles reversed by wave-gate rollbacks (the storm total).
    pub storm: u64,
    /// Vehicles never offered the image because the campaign halted.
    pub skipped: u64,
    /// Waves promoted / waves opened.
    pub waves_promoted: u32,
    /// Waves opened before the campaign finished or halted.
    pub waves_opened: u32,
    /// `true` if a wave gate halted the campaign.
    pub halted: bool,
    /// Admission throughput on the simulated clock (vehicles per
    /// simulated second).
    pub admitted_per_sim_sec: f64,
    /// Completion-time distribution percentiles, in sim-clock ms.
    pub p50_ms: u64,
    /// 90th percentile completion, ms.
    pub p90_ms: u64,
    /// 99th percentile completion, ms.
    pub p99_ms: u64,
    /// Slowest completion, ms.
    pub max_ms: u64,
    /// Vehicles slower than 4× the median completion — the straggler tail.
    pub stragglers: u64,
    /// Campaign end on the simulated clock, ms.
    pub sim_end_ms: u64,
}

/// Percentile of a sorted sample set (nearest-rank; 0 for empty input).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

impl FleetResult {
    /// Reduces a merged campaign report to the E15 figures.
    pub fn from_report(arm: &'static str, report: &CampaignReport) -> Self {
        let ms = report.completion_ms_sorted();
        FleetResult {
            arm,
            vehicles: report.vehicles,
            admitted: report.totals.admitted,
            updated: report.totals.updated.saturating_sub(report.storm_total()),
            verify_failed: report.totals.verify_failed,
            storm: report.storm_total(),
            skipped: report.skipped,
            waves_promoted: report.waves.iter().filter(|w| w.promoted).count() as u32,
            waves_opened: report.waves.len() as u32,
            halted: report.halted,
            admitted_per_sim_sec: report.admitted_per_sim_sec(),
            p50_ms: percentile(&ms, 0.50),
            p90_ms: percentile(&ms, 0.90),
            p99_ms: percentile(&ms, 0.99),
            max_ms: ms.last().copied().unwrap_or(0),
            stragglers: CampaignReport::stragglers_in(&ms, 4.0),
            sim_end_ms: report.completed_at.as_millis(),
        }
    }

    /// Table row (stable formatting).
    pub fn row(&self) -> Vec<String> {
        vec![
            self.arm.to_owned(),
            self.vehicles.to_string(),
            self.admitted.to_string(),
            self.updated.to_string(),
            self.verify_failed.to_string(),
            self.storm.to_string(),
            self.skipped.to_string(),
            format!("{}/{}", self.waves_promoted, self.waves_opened),
            format!("{:.1}", self.admitted_per_sim_sec),
            self.p50_ms.to_string(),
            self.p99_ms.to_string(),
            self.max_ms.to_string(),
            self.stragglers.to_string(),
        ]
    }

    /// Header matching [`FleetResult::row`].
    pub fn columns() -> [&'static str; 13] {
        [
            "arm",
            "vehicles",
            "admitted",
            "updated",
            "verify_failed",
            "storm",
            "skipped",
            "waves",
            "adm_per_sim_s",
            "p50_ms",
            "p99_ms",
            "max_ms",
            "stragglers",
        ]
    }

    /// Prints this result as one row of `table`.
    pub fn print_row(&self, table: &Table) {
        table.row(&self.row());
    }

    /// One JSON object (hand-rolled like every snapshot in the workspace,
    /// schema `dynplat.e15.v1` fields). Sim-clock quantities only: no
    /// wall-clock value may enter, or rerun/shard-count byte-identity dies.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"arm\":\"{}\",\"vehicles\":{},\"admitted\":{},\"updated\":{},",
                "\"verify_failed\":{},\"storm\":{},\"skipped\":{},",
                "\"waves_promoted\":{},\"waves_opened\":{},\"halted\":{},",
                "\"admitted_per_sim_sec\":{:.6},",
                "\"completion_ms\":{{\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}},",
                "\"stragglers\":{},\"sim_end_ms\":{}}}"
            ),
            self.arm,
            self.vehicles,
            self.admitted,
            self.updated,
            self.verify_failed,
            self.storm,
            self.skipped,
            self.waves_promoted,
            self.waves_opened,
            self.halted,
            self.admitted_per_sim_sec,
            self.p50_ms,
            self.p90_ms,
            self.p99_ms,
            self.max_ms,
            self.stragglers,
            self.sim_end_ms,
        )
    }
}

/// Serializes a whole E15 run as a JSON document (schema `dynplat.e15.v1`).
pub fn arms_to_json(seed: u64, vehicles: u32, results: &[FleetResult]) -> String {
    let rows: Vec<String> = results.iter().map(FleetResult::to_json).collect();
    format!(
        "{{\"schema\":\"dynplat.e15.v1\",\"seed\":{},\"vehicles\":{},\"arms\":[{}]}}\n",
        seed,
        vehicles,
        rows.join(",")
    )
}

/// Runs one arm over `vehicles` vehicles on `shards` shards.
pub fn run_arm(seed: u64, vehicles: u32, shards: usize, arm: &FleetArm) -> FleetResult {
    let spec = CampaignSpec::standard(seed, vehicles, arm.plan.clone());
    let report = UpdateMaster::new(spec, shards).run();
    FleetResult::from_report(arm.name, &report)
}

/// Runs the standard three-arm E15 campaign set.
pub fn run_arms(seed: u64, vehicles: u32, shards: usize) -> Vec<FleetResult> {
    fleet_arms(seed)
        .iter()
        .map(|arm| run_arm(seed, vehicles, shards, arm))
        .collect()
}

/// E5d fleet size. The 2 % canary (200 vehicles) must span several of the
/// wave gate's 32-vehicle batches, or the gate cannot judge it and a broken
/// release halts only after a later wave's rollback storm.
pub const E5D_VEHICLES: u32 = 10_000;

/// The E5d campaign (§3.2) at a per-vehicle verification failure rate of
/// `failure_pct` percent: one ECU generation in four configurations (most
/// fit the standard image; some lack overlap memory or CPU headroom, some
/// never installed the app), rolled out in a 2 % canary, an 18 % ramp and
/// the remaining 80 %. Nobody is offline and the network is quiet, so only
/// admission and the wave gate shape the outcome.
pub fn e5d_spec(failure_pct: u32) -> CampaignSpec {
    let base = HwVariant {
        good_image_verify_failure: f64::from(failure_pct) / 100.0,
        ..standard_mix()[1]
    };
    let mix = vec![
        HwVariant {
            name: "configured",
            share: 88,
            ..base
        },
        HwVariant {
            name: "no-overlap-memory",
            share: 6,
            free_memory_kib: 16 * 1024,
            ..base
        },
        HwVariant {
            name: "app-not-installed",
            share: 4,
            installed: &[],
            ..base
        },
        HwVariant {
            name: "no-cpu-headroom",
            share: 2,
            cpu_headroom: 0.05,
            ..base
        },
    ];
    CampaignSpec {
        offline_rate: 0.0,
        mix,
        waves: vec![0.02, 0.18, 0.8],
        ..CampaignSpec::standard(77, E5D_VEHICLES, FaultPlan::quiet(77))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED: u64 = 0xE15_5EED;

    #[test]
    fn arms_are_deterministic_across_shard_counts() {
        let a = arms_to_json(SEED, 6_000, &run_arms(SEED, 6_000, 1));
        let b = arms_to_json(SEED, 6_000, &run_arms(SEED, 6_000, 4));
        assert_eq!(a, b, "E15 JSON must not depend on the shard count");
    }

    #[test]
    fn quiet_promotes_degraded_straggles_broken_storms() {
        let results = run_arms(SEED, 6_000, 2);
        let by_name = |n: &str| results.iter().find(|r| r.arm == n).expect("arm present");
        let quiet = by_name("quiet");
        assert!(!quiet.halted);
        assert_eq!(quiet.storm, 0);
        assert_eq!(quiet.waves_promoted, quiet.waves_opened);

        let degraded = by_name("degraded");
        assert!(!degraded.halted, "degraded is slow, not broken");
        assert!(
            degraded.max_ms > quiet.max_ms * 4,
            "partitions must stretch the tail: degraded {} vs quiet {}",
            degraded.max_ms,
            quiet.max_ms
        );
        assert!(degraded.stragglers > quiet.stragglers);

        let broken = by_name("broken");
        assert!(broken.halted, "corrupted image must trip a wave gate");
        assert!(broken.storm > 0);
        assert!(broken.skipped > 0);
        assert!(broken.waves_promoted < broken.waves_opened);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = [10, 20, 30, 40];
        assert_eq!(percentile(&s, 0.50), 20);
        assert_eq!(percentile(&s, 0.90), 40);
        assert_eq!(percentile(&s, 0.25), 10);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn updated_and_storm_partition_the_successes() {
        for r in run_arms(SEED, 4_000, 2) {
            assert_eq!(
                r.updated + r.storm + r.verify_failed,
                r.admitted,
                "{}: successes plus storms plus failures must equal admissions",
                r.arm
            );
        }
    }
}
