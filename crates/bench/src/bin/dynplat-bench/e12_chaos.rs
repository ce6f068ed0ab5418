//! E12 (§3.3/§3.4): chaos campaign — fault rate × retry policy.
//!
//! A mixed-criticality request/response workload (one ASIL-D control loop,
//! three QM clients) runs over a fault-injected fabric. The sweep crosses
//! message-fault intensity with the retry policy protecting the control
//! loop; a second scenario partitions the primary provider's bus for
//! 500 ms and watches detection, failover to the backup provider, and the
//! degradation ladder walking back to `Full`.
//!
//! Expected shape: the DA deadline-miss rate stays well below the QM
//! degradation rate at every non-zero fault rate — retries recover what
//! single-shot QM traffic loses, and under pressure the ladder sheds QM
//! load first (§3.3). Everything is seed-deterministic: running this
//! binary twice prints byte-identical tables.

use dynplat_bench::chaos::{burst_plan, run_campaign, sweep_plan, CampaignConfig, CampaignSummary};
use dynplat_bench::Table;
use dynplat_comm::retry::RetryPolicy;

const SEED: u64 = 0xE12_5EED;

fn policies() -> [(RetryPolicy, &'static str); 3] {
    [
        (RetryPolicy::none(), "none"),
        (RetryPolicy::standard(), "standard"),
        (RetryPolicy::aggressive(), "aggressive"),
    ]
}

pub fn run() {
    let table = Table::new(
        "E12 — chaos campaign: fault rate x retry policy (seed 0xE12_5EED)",
        &CampaignSummary::columns(),
    );
    for rate in [0.0, 0.02, 0.05, 0.10, 0.20, 0.30] {
        for (policy, name) in policies() {
            let cfg = CampaignConfig::new(SEED, sweep_plan(SEED, rate), policy, name);
            let summary = run_campaign(&cfg);
            summary.print_row(&table, &format!("rate={rate:.2}"));
        }
    }

    let table = Table::new(
        "E12 — burst scenario: 500 ms partition of the primary provider's bus at t=2s",
        &CampaignSummary::columns(),
    );
    for (policy, name) in policies() {
        let cfg = CampaignConfig::new(SEED, burst_plan(SEED), policy, name);
        let summary = run_campaign(&cfg);
        summary.print_row(&table, "burst");
        if name == "standard" {
            println!(
                "# burst/standard fault counters: {}",
                summary
                    .report
                    .fault_summary()
                    .iter()
                    .map(|(k, n)| format!("{k}={n}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            println!(
                "# burst/standard ladder: {}",
                summary
                    .transitions
                    .iter()
                    .map(|(t, l)| format!("{:.2}s->{l}", t.as_secs_f64()))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
}
