//! E16 integration: SLO burn-rate gating beats threshold alerting, and
//! the fleet telemetry artifact is shard-invariant.
//!
//! The experiment's acceptance bar: over the three-arm replay the burn
//! gate pages strictly less than the per-batch threshold at an
//! equal-or-better time-to-detect on the broken arm, every SLO trip is
//! paired with a flight dump, and the merged telemetry — stage sketches,
//! counters, time-series ring — is byte-identical across shard counts.

use dynplat::obs::{json, TelemetryRing};
use dynplat_bench::telemetry::{run_telemetry_arms, telemetry_arms_to_json};

const SEED: u64 = 0xE16_5EED;
const VEHICLES: u32 = 4_000;

#[test]
fn e16_json_and_telemetry_are_shard_invariant() {
    let a = run_telemetry_arms(SEED, VEHICLES, 1);
    let b = run_telemetry_arms(SEED, VEHICLES, 4);
    let ja = telemetry_arms_to_json(SEED, VEHICLES, &a);
    let jb = telemetry_arms_to_json(SEED, VEHICLES, &b);
    assert_eq!(ja, jb, "shard count must be invisible in the E16 JSON");
    assert!(ja.starts_with("{\"schema\":\"dynplat.e16.v1\""));
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(
            x.telemetry, y.telemetry,
            "{}: merged telemetry must be byte-identical across shard counts",
            x.arm
        );
    }
}

#[test]
fn burn_gating_pages_less_and_detects_no_later() {
    let results = run_telemetry_arms(SEED, VEHICLES, 2);
    let thr_false: u64 = results.iter().map(|r| r.threshold_false_alarms).sum();
    let burn_false: u64 = results.iter().map(|r| r.burn_false_alarms).sum();
    assert!(thr_false > 0, "baseline noise must page the threshold");
    assert!(
        burn_false < thr_false,
        "burn gating must cut false pages: {burn_false} vs {thr_false}"
    );

    let broken = results.iter().find(|r| r.arm == "broken").expect("broken");
    let thr_ttd = broken.threshold_ttd_ms.expect("threshold must detect");
    let burn_ttd = broken.burn_ttd_ms.expect("burn gate must detect");
    assert!(
        burn_ttd <= thr_ttd,
        "burn gate must not detect later: {burn_ttd} vs {thr_ttd}"
    );
    for r in &results {
        if r.arm != "broken" {
            assert!(r.threshold_ttd_ms.is_none() && r.burn_ttd_ms.is_none());
        }
    }
}

#[test]
fn every_trip_pairs_with_a_flight_dump() {
    for r in run_telemetry_arms(SEED, VEHICLES, 2) {
        assert_eq!(
            r.trips, r.dumps,
            "{}: every SLO trip must freeze a dynplat.flight.v1 dump",
            r.arm
        );
    }
    let broken = run_telemetry_arms(SEED, VEHICLES, 2)
        .into_iter()
        .find(|r| r.arm == "broken")
        .expect("broken arm");
    assert!(broken.trips >= 1, "the broken arm must trip the gate");
}

#[test]
fn telemetry_artifact_parses_and_prices_the_pipeline() {
    let results = run_telemetry_arms(SEED, VEHICLES, 2);
    for r in &results {
        assert_eq!(r.telemetry_bytes as usize, r.telemetry.len());
        // Sketch buckets and the delta-encoded ring are bounded, so the
        // whole artifact stays a few KiB no matter the fleet size —
        // amortized, a fraction of a byte per monitored vehicle.
        assert!(
            r.telemetry_bytes < 8_192,
            "{}: telemetry artifact must stay bounded, got {} bytes",
            r.arm,
            r.telemetry_bytes
        );
        let series = r
            .telemetry
            .split("\"series\":")
            .nth(1)
            .expect("series section");
        let series = &series[..series.rfind('}').expect("closing brace")];
        TelemetryRing::from_json(series).expect("ring parses back");
        let doc = json::parse(series).expect("series is JSON");
        let times: Vec<u64> = doc
            .get("points")
            .and_then(|p| p.as_array())
            .expect("points")
            .iter()
            .map(|p| p.get("t_ns").and_then(|t| t.as_u64()).expect("t_ns"))
            .collect();
        assert_eq!(times.len(), 2, "{}: one sample per phase", r.arm);
        assert!(times[1] > times[0]);
    }
}
