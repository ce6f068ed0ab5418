//! E12 robustness acceptance tests: seed-determinism of retry schedules
//! and campaign summaries, and the criticality guarantee that the ASIL-D
//! control loop degrades strictly less than the QM load at equal fault
//! rates.

use dynplat_bench::chaos::{run_campaign, sweep_plan, CampaignConfig};
use dynplat_comm::retry::RetryPolicy;
use dynplat_common::time::SimTime;

const SEED: u64 = 0xE12_5EED;

#[test]
fn same_seed_gives_identical_retry_schedules() {
    for policy in [RetryPolicy::standard(), RetryPolicy::aggressive()] {
        for round in 0..50u64 {
            let t0 = SimTime::from_millis(round * 50);
            let a = policy.schedule(t0, SEED ^ round);
            let b = policy.schedule(t0, SEED ^ round);
            assert_eq!(
                a, b,
                "round {round}: schedules must be pure in (policy, t0, seed)"
            );
        }
    }
}

#[test]
fn same_seed_gives_identical_campaign_summaries() {
    for rate in [0.05, 0.20] {
        let cfg = CampaignConfig::new(
            SEED,
            sweep_plan(SEED, rate),
            RetryPolicy::standard(),
            "standard",
        );
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a, b, "rate {rate}: summary must be deterministic");
        assert_eq!(
            a.row("x"),
            b.row("x"),
            "rate {rate}: formatted rows must be byte-identical"
        );
    }
}

#[test]
fn da_degrades_strictly_less_than_nda_at_equal_fault_rates() {
    for rate in [0.02, 0.05, 0.10, 0.20, 0.30] {
        for (policy, name) in [
            (RetryPolicy::standard(), "standard"),
            (RetryPolicy::aggressive(), "aggressive"),
        ] {
            let cfg = CampaignConfig::new(SEED, sweep_plan(SEED, rate), policy, name);
            let s = run_campaign(&cfg);
            assert!(
                s.da_miss_rate() < s.nda_degraded_rate(),
                "rate {rate} policy {name}: DA miss rate {} must stay strictly below \
                 NDA degradation {}",
                s.da_miss_rate(),
                s.nda_degraded_rate()
            );
        }
    }
}

#[test]
fn injected_and_detected_losses_reconcile() {
    // Every injected message loss the client was waiting for shows up as a
    // missing response; the detected count can exceed the injected one
    // only through response-path losses of the same faults, never the
    // other way by more than the in-flight tail.
    let cfg = CampaignConfig::new(
        SEED,
        sweep_plan(SEED, 0.10),
        RetryPolicy::standard(),
        "standard",
    );
    let s = run_campaign(&cfg);
    assert!(s.injected_losses > 0);
    assert!(
        s.detected_losses <= s.injected_losses,
        "clients cannot detect more losses ({}) than were injected ({})",
        s.detected_losses,
        s.injected_losses
    );
    let diff = s.injected_losses - s.detected_losses;
    assert!(
        diff <= s.injected_losses / 5,
        "most injected losses must be detected: {} of {} unaccounted",
        diff,
        s.injected_losses
    );
}
