//! E6 (§3.3): fail-operational redundancy — failover latency and control
//! output gap vs heartbeat period and replica count.
//!
//! Expected shape: detection latency is bounded by `heartbeat_period ×
//! (tolerated_misses + 1)`; more replicas do not speed detection but keep
//! the group alive through more failures; a single replica means losing
//! the function entirely.

use dynplat_bench::{ms, outln, Table};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::InstanceId;
use dynplat_core::redundancy::{RedundancyError, RedundancyGroup};

/// Runs one crash scenario; returns (detection latency, output gap).
fn crash_scenario(
    heartbeat_ms: u64,
    misses: u32,
    replicas: u64,
    crash_at_ms: u64,
) -> Result<(SimDuration, SimDuration), RedundancyError> {
    let mut group =
        RedundancyGroup::new(SimDuration::from_millis(heartbeat_ms)).with_tolerated_misses(misses);
    for i in 0..replicas {
        group.register(SimTime::ZERO, InstanceId(i))?;
    }
    let crash = SimTime::from_millis(crash_at_ms);
    let mut step = 1u64;
    loop {
        let now = SimTime::from_millis(step * heartbeat_ms);
        for i in 0..replicas {
            let alive = i != 0 || now < crash;
            if alive {
                group.heartbeat(now, InstanceId(i))?;
            }
        }
        if let Some(_new_master) = group.supervise(now)? {
            let last_beat_of_master = crash
                .as_millis()
                .saturating_sub(crash.as_millis() % heartbeat_ms);
            let detect = now.saturating_since(SimTime::from_millis(last_beat_of_master));
            return Ok((detect, group.output_gap()));
        }
        step += 1;
        if step > 10_000 {
            panic!("failover never detected");
        }
    }
}

pub fn run() {
    let table = Table::new(
        "E6 — failover detection vs heartbeat period (master crash at t=1s)",
        &[
            "heartbeat_ms",
            "tolerated_misses",
            "replicas",
            "detect_ms",
            "output_gap_ms",
            "bound_ms",
        ],
    );
    for (hb, misses) in [(50u64, 2u32), (20, 2), (10, 2), (5, 2), (10, 5), (10, 1)] {
        for replicas in [2u64, 3, 4] {
            let (detect, gap) =
                crash_scenario(hb, misses, replicas, 1_000).expect("failover succeeds");
            let bound = SimDuration::from_millis(hb) * u64::from(misses + 1);
            table.row(&[
                hb.to_string(),
                misses.to_string(),
                replicas.to_string(),
                ms(detect),
                ms(gap),
                ms(bound),
            ]);
        }
    }

    // Single replica: the function is lost (the case redundancy exists for).
    let result = crash_scenario(10, 2, 1, 1_000);
    outln!(
        "# single replica after master loss: {:?}",
        result.expect_err("must fail")
    );
}
