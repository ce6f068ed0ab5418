//! E13 (§3.4): detection latency — fault injection to first verdict.
//!
//! Runs every detection scenario of [`dynplat_bench::detect`] with causal
//! tracing on and prints, per injected fault kind, the latency from the
//! first injection to (a) the first non-`Normal` drift verdict of the
//! RTT-watching detector and (b) the first flight-recorder incident dump.
//!
//! Flags:
//!
//! * `--horizon-ms N` — campaign horizon per scenario (default 6000);
//! * `--dump PATH` — write the first frozen flight dump as JSON
//!   (Chrome-independent `dynplat.flight.v1` schema) for artifact upload.
//!
//! Everything is seed-deterministic: running this scenario twice prints
//! byte-identical tables.

use crate::{Flags, Outcome};
use dynplat_bench::detect::{run_all, DetectionOutcome};
use dynplat_bench::Table;
use dynplat_common::time::SimDuration;
use std::process::ExitCode;

const SEED: u64 = 0xE13_5EED;

pub fn run(flags: &Flags) -> Outcome {
    let horizon = SimDuration::from_millis(flags.positive("--horizon-ms", 6_000)? as u64);

    let table = Table::new(
        &format!(
            "E13 — detection latency per injected fault kind (seed {SEED:#x}, horizon {:.1}s)",
            horizon.as_secs_f64()
        ),
        &DetectionOutcome::columns(),
    );
    let outcomes = run_all(SEED, horizon);
    for out in &outcomes {
        table.row(&out.row());
    }
    let captured = outcomes
        .iter()
        .filter(|o| o.capture_latency.is_some())
        .count();
    println!("# captured {}/{} scenarios", captured, outcomes.len());

    if let Some(path) = flags.get("--dump") {
        let dump = outcomes
            .iter()
            .flat_map(|o| o.dumps.first())
            .next()
            .expect("at least one scenario froze a dump");
        std::fs::write(path, dump.to_json()).expect("write flight dump");
        println!("# first flight dump written to {path}");
    }
    Ok(ExitCode::SUCCESS)
}
