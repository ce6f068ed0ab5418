//! E15 integration: the sharded fleet campaign is shard-invariant.
//!
//! The experiment's acceptance bar: the merged campaign — outcomes, wave
//! ledger, JSON — is a pure function of the campaign seed. Shard count is
//! an execution detail: one shard or many, the update master must report
//! byte-identical results, and the cross-shard metric merge must conserve
//! every per-vehicle count.

use dynplat::common::time::SimTime;
use dynplat::common::VehicleId;
use dynplat::faults::FaultPlan;
use dynplat::fleet::{
    simulate_vehicle, CampaignSpec, ShardMetrics, ShardPool, UpdateMaster, VehicleVerdict,
};
use dynplat_bench::fleet::{arms_to_json, run_arms};
use std::sync::Arc;

const SEED: u64 = 0xE15_5EED;

#[test]
fn merged_campaign_is_identical_across_shard_counts() {
    let run = |shards: usize| {
        UpdateMaster::new(
            CampaignSpec::standard(SEED, 8_000, FaultPlan::quiet(SEED)),
            shards,
        )
        .run()
    };
    let one = run(1);
    let four = run(4);
    assert_eq!(
        one.outcomes, four.outcomes,
        "per-vehicle outcomes must not depend on the shard count"
    );
    assert_eq!(one.waves, four.waves);
    assert_eq!(one.totals, four.totals);
    assert_eq!(one.completed_at, four.completed_at);
}

#[test]
fn e15_json_is_deterministic_across_reruns_and_shard_counts() {
    let a = arms_to_json(SEED, 4_000, &run_arms(SEED, 4_000, 1));
    let b = arms_to_json(SEED, 4_000, &run_arms(SEED, 4_000, 3));
    let c = arms_to_json(SEED, 4_000, &run_arms(SEED, 4_000, 3));
    assert_eq!(a, b, "shard count must be invisible in the E15 JSON");
    assert_eq!(b, c, "two identical runs must agree byte for byte");
    assert!(a.starts_with("{\"schema\":\"dynplat.e15.v1\""));
}

#[test]
fn cross_shard_merge_conserves_per_vehicle_counts() {
    // Property test over seeds: for any campaign wave, the metrics the
    // shard pool merges equal a direct per-vehicle fold, conserve the
    // admission partition, and account for every retry and stall
    // nanosecond.
    for seed in [3u64, 0xABCD, 0xE15_5EED, u64::MAX / 7] {
        let spec = Arc::new(CampaignSpec::standard(
            seed,
            3_000,
            FaultPlan::quiet(seed).with_message_faults(0.1, 0.2, 0.0),
        ));
        let mut pool = ShardPool::spawn(Arc::clone(&spec), 4);
        let (outcomes, merged) = pool.run_wave(0, 0, 3_000, SimTime::ZERO);

        let direct = ShardMetrics::from_outcomes(&outcomes);
        let mut retries = 0u64;
        let mut stall_ns = 0u64;
        for o in &outcomes {
            retries += u64::from(o.retries);
            stall_ns += o.stall.as_nanos();
            // The shard never assigns the master-only verdict.
            assert_ne!(o.verdict, VehicleVerdict::WaveRolledBack);
            // And every outcome matches an independent re-simulation.
            assert_eq!(*o, simulate_vehicle(&spec, o.vehicle, SimTime::ZERO));
        }
        assert_eq!(merged, direct, "seed {seed:#x}: merge diverged from fold");
        assert!(merged.conserves(), "seed {seed:#x}: counts do not conserve");
        assert_eq!(merged.simulated, 3_000);
        assert_eq!(merged.retries, retries);
        assert_eq!(merged.stall_ns, stall_ns);
        assert_eq!(outcomes.len(), 3_000);
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.vehicle, VehicleId(i as u32));
        }
    }
}

#[test]
fn broken_arm_storms_and_halts_while_quiet_promotes() {
    let results = run_arms(SEED, 5_000, 2);
    let quiet = &results[0];
    let broken = &results[2];
    assert_eq!(quiet.arm, "quiet");
    assert_eq!(broken.arm, "broken");
    assert!(!quiet.halted && quiet.storm == 0);
    assert!(broken.halted, "a corrupted image must halt the campaign");
    assert!(broken.storm > 0, "the tripped wave must roll back");
    assert!(
        broken.skipped > 0,
        "waves after the tripped one must never open"
    );
}
