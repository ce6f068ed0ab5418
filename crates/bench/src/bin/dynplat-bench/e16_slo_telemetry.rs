//! E16: fleet telemetry, SLO burn-rate gating and flight capture.
//!
//! Replays the identical completion-ordered verification-batch stream of
//! three fleet arms — quiet, degraded network, catastrophically broken
//! image — through a bare per-batch threshold detector and the SLO burn
//! gate (`dynplat-monitor`), and prints, per arm, the false-alarm counts,
//! times-to-detect, flight-dump pairing and the size of the merged
//! telemetry artifact.
//!
//! Flags:
//!
//! * `--vehicles N` — fleet size per phase and arm (default 20000);
//! * `--shards N` — sim kernels to shard the fleet over (default 4);
//! * `--out PATH` — write the run as JSON (schema `dynplat.e16.v1`);
//! * `--telemetry DIR` — write each arm's merged telemetry artifact as
//!   `DIR/TELEMETRY_<arm>.json` (byte-identical across `--shards`, the
//!   files CI compares shard-flipped).
//!
//! Every figure in the table and the JSON lives on the simulated clock, so
//! output is byte-identical across reruns **and across `--shards` values**.
//! Wall-clock throughput goes to stderr as a `#` comment: it varies run to
//! run, so it stays out of stdout and the JSON.

use crate::{Flags, Outcome};
use dynplat_bench::telemetry::{run_telemetry_arms, telemetry_arms_to_json, TelemetryResult};
use dynplat_bench::{outln, Table};
use std::process::ExitCode;

const SEED: u64 = 0xE16_5EED;

pub fn run(flags: &Flags) -> Outcome {
    let vehicles: u32 = flags.parse("--vehicles", 20_000)?;
    let shards = flags.positive("--shards", 4)?;

    let table = Table::new(
        &format!(
            "E16 — SLO telemetry and burn-rate gating (seed {SEED:#x}, {vehicles} vehicles, {shards} shards)"
        ),
        &TelemetryResult::columns(),
    );
    let wall = std::time::Instant::now();
    let results = run_telemetry_arms(SEED, vehicles, shards);
    let elapsed = wall.elapsed();
    for r in &results {
        r.print_row(&table);
    }

    let simulated: u64 = results.iter().map(|r| 2 * u64::from(r.vehicles)).sum();
    eprintln!(
        "# wall-clock: {} vehicle-phases in {:.2}s ({:.0} vehicles/s) — not part of the JSON",
        simulated,
        elapsed.as_secs_f64(),
        simulated as f64 / elapsed.as_secs_f64().max(1e-9),
    );

    if let Some(path) = flags.get("--out") {
        std::fs::write(path, telemetry_arms_to_json(SEED, vehicles, &results))
            .expect("write E16 JSON");
        outln!("# results written to {path}");
    }
    if let Some(dir) = flags.get("--telemetry") {
        std::fs::create_dir_all(dir).expect("create telemetry directory");
        for r in &results {
            let path = format!("{dir}/TELEMETRY_{}.json", r.arm);
            std::fs::write(&path, &r.telemetry).expect("write telemetry artifact");
            outln!("# telemetry written to {path}");
        }
    }
    Ok(ExitCode::SUCCESS)
}
