//! Ablation: the two design choices inside the DSE annealer (DESIGN.md
//! §4 "ablation benches for the design choices") — the greedy warm start
//! and the stagnation restarts.
//!
//! Expected shape: without the greedy seed the annealer needs its restarts
//! to escape infeasible plateaus and still lands above the seeded cost on
//! tight budgets; with both disabled it is essentially a random walk.

use crate::e10_dse_admission::platform_model;
use dynplat_bench::Table;
use dynplat_dse::search::{simulated_annealing, DseConfig};

pub fn run() {
    let table = Table::new(
        "Ablation — annealer design choices (40 apps, 6-ECU pool, mean of 5 seeds)",
        &["iterations", "variant", "mean_cost", "feasible_runs"],
    );
    let m = platform_model(40, 6);
    for iterations in [200u32, 800, 2400] {
        for (label, greedy_seed, restarts) in [
            ("seed+restarts", true, true),
            ("seed only", true, false),
            ("restarts only", false, true),
            ("neither", false, false),
        ] {
            let mut total_cost = 0u64;
            let mut feasible = 0u32;
            let seeds = 5u64;
            for seed in 0..seeds {
                let cfg = DseConfig {
                    iterations,
                    seed: 100 + seed,
                    greedy_seed,
                    restarts,
                    ..Default::default()
                };
                let result = simulated_annealing(&m, &cfg);
                let (_, obj) = result.best.expect("candidate exists");
                if obj.is_feasible() {
                    feasible += 1;
                    total_cost += obj.used_cost;
                }
            }
            let mean_cost = if feasible > 0 {
                format!("{:.0}", total_cost as f64 / f64::from(feasible))
            } else {
                "-".to_owned()
            };
            table.row(&[
                iterations.to_string(),
                label.to_owned(),
                mean_cost,
                format!("{feasible}/{seeds}"),
            ]);
        }
    }
}
