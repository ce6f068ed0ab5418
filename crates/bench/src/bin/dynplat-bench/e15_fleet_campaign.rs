//! E15 (§4.1): staged OTA campaigns over a sharded simulated fleet.
//!
//! Runs the three-arm fleet experiment — quiet, degraded network, broken
//! image — through the `dynplat-fleet` update master and prints, per arm,
//! the admission throughput, the campaign completion-time distribution and
//! the straggler/rollback figures.
//!
//! Flags:
//!
//! * `--vehicles N` — fleet size per arm (default 200000);
//! * `--shards N` — sim kernels to shard the fleet over (default 4);
//! * `--out PATH` — write the run as JSON (schema `dynplat.e15.v1`)
//!   for artifact upload.
//!
//! Every figure in the table and the JSON lives on the simulated clock, so
//! output is byte-identical across reruns **and across `--shards` values**
//! — `scripts/ci.sh` pins both. Wall-clock throughput goes to stderr as a
//! `#` comment: it varies run to run, so it stays out of stdout and the
//! JSON.

use crate::{Flags, Outcome};
use dynplat_bench::fleet::{arms_to_json, run_arms, FleetResult};
use dynplat_bench::Table;
use std::process::ExitCode;

const SEED: u64 = 0xE15_5EED;

pub fn run(flags: &Flags) -> Outcome {
    let vehicles: u32 = flags.parse("--vehicles", 200_000)?;
    let shards = flags.positive("--shards", 4)?;

    let table = Table::new(
        &format!(
            "E15 — staged OTA fleet campaign (seed {SEED:#x}, {vehicles} vehicles, {shards} shards)"
        ),
        &FleetResult::columns(),
    );
    let wall = std::time::Instant::now();
    let results = run_arms(SEED, vehicles, shards);
    let elapsed = wall.elapsed();
    for r in &results {
        r.print_row(&table);
    }

    let simulated: u64 = results.iter().map(|r| u64::from(r.vehicles)).sum();
    eprintln!(
        "# wall-clock: {} vehicle-campaigns in {:.2}s ({:.0} vehicles/s) — not part of the JSON",
        simulated,
        elapsed.as_secs_f64(),
        simulated as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    if let Some(path) = flags.get("--out") {
        std::fs::write(path, arms_to_json(SEED, vehicles, &results))
            .expect("write E15 campaign JSON");
        println!("# campaign written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}
