//! E1 (Fig. 1): federated one-function-per-ECU architecture vs. the
//! consolidated dynamic platform, swept over fleet sizes.
//!
//! Expected shape: consolidation cuts the ECU count by an order of
//! magnitude and, beyond a break-even fleet size, total hardware cost; the
//! federated mean utilization stays tied to each function while platform
//! ECUs absorb many functions each.

use dynplat_bench::{vehicle_functions, Table};
use dynplat_dse::consolidate::{consolidated_architecture, federated_architecture};
use dynplat_dse::search::DseConfig;

pub fn run() {
    let table = Table::new(
        "E1 / Fig.1 — federated vs consolidated architectures",
        &[
            "functions",
            "fed_ecus",
            "fed_cost",
            "fed_meanU",
            "cons_ecus",
            "cons_cost",
            "cons_meanU",
            "cons_feasible",
        ],
    );
    for n in [10u32, 20, 30, 40, 60] {
        let apps = vehicle_functions(n);
        let (_, fed) = federated_architecture(&apps);
        let pool = (n / 8).clamp(2, 8) as u16;
        let cfg = DseConfig {
            iterations: 1500,
            seed: 7,
            ..Default::default()
        };
        let (_, _, cons) = consolidated_architecture(&apps, pool, &cfg);
        table.row(&[
            n.to_string(),
            fed.ecus.to_string(),
            fed.cost.to_string(),
            format!("{:.3}", fed.mean_utilization),
            cons.ecus.to_string(),
            cons.cost.to_string(),
            format!("{:.3}", cons.mean_utilization),
            cons.feasible.to_string(),
        ]);
    }
}
