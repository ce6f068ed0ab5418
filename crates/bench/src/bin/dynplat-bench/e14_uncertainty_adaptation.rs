//! E14 (§3.5): threshold- vs uncertainty-driven adaptation.
//!
//! Sweeps background noise levels over the E12 chaos workload with an
//! Ethernet partition injected over the E13 fault span, replaying each
//! run's fault-pressure series through the point-threshold degradation
//! ladder and through the [`BoundaryEstimator`]-gated ladder. Prints, per
//! noise level, the false-degradation rate and the detection latency of
//! both modes over byte-identical inputs.
//!
//! Flags:
//!
//! * `--horizon-ms N` — campaign horizon per sweep point (default 6000);
//! * `--out PATH` — write the sweep as JSON (schema `dynplat.e14.v1`)
//!   for artifact upload.
//!
//! Everything is seed-deterministic: running this scenario twice prints
//! byte-identical tables and bytes-identical JSON.
//!
//! [`BoundaryEstimator`]: dynplat_monitor::uncertainty::BoundaryEstimator

use crate::{Flags, Outcome};
use dynplat_bench::adapt::{run_sweep, sweep_to_json, AdaptationResult};
use dynplat_bench::Table;
use dynplat_common::time::SimDuration;
use std::process::ExitCode;

const SEED: u64 = 0xE14_5EED;

pub fn run(flags: &Flags) -> Outcome {
    let horizon = SimDuration::from_millis(flags.positive("--horizon-ms", 6_000)? as u64);

    let table = Table::new(
        &format!(
            "E14 — threshold vs uncertainty adaptation (seed {SEED:#x}, horizon {:.1}s)",
            horizon.as_secs_f64()
        ),
        &AdaptationResult::columns(),
    );
    let results = run_sweep(SEED, horizon);
    for r in &results {
        r.print_row(&table);
    }
    let wins = results
        .iter()
        .filter(|r| r.uncertainty.false_descents < r.threshold.false_descents)
        .count();
    println!(
        "# uncertainty mode strictly fewer false degradations on {}/{} points",
        wins,
        results.len()
    );

    if let Some(path) = flags.get("--out") {
        std::fs::write(path, sweep_to_json(SEED, &results)).expect("write E14 sweep JSON");
        println!("# sweep written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}
