//! E4 (§3.1 "Hardware Access & Communication"): an urgent deterministic
//! transmission vs. a non-deterministic bulk stream on a shared bus.
//!
//! Expected shape: FIFO Ethernet delays the urgent frame behind the entire
//! backlog (latency grows with load); 802.1p bounds it to one frame of
//! blocking; TSN bounds it to the critical window regardless of load.

use dynplat_bench::{us, Table};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::MessageId;
use dynplat_net::ethernet::{ethernet_frame_time, FifoPort, StrictPriorityPort};
use dynplat_net::{simulate, Arbiter, Frame, GateControlList, TrafficClass, TsnGatedPort, TxEvent};

const MBIT100: u64 = 100_000_000;

fn scenario(bulk_frames: u64) -> Vec<TxEvent> {
    let mut events: Vec<TxEvent> = (0..bulk_frames)
        .map(|i| TxEvent {
            arrival: SimTime::from_micros(i * 50),
            frame: Frame::new(MessageId(1000 + i as u32), 1500)
                .with_priority(6)
                .with_class(TrafficClass::BestEffort),
        })
        .collect();
    // The urgent DA frame lands in the middle of the burst.
    events.push(TxEvent {
        arrival: SimTime::from_micros(bulk_frames * 25),
        frame: Frame::new(MessageId(1), 64)
            .with_priority(0)
            .with_class(TrafficClass::Critical),
    });
    events
}

fn urgent_latency<A: Arbiter>(mut port: A, events: Vec<TxEvent>) -> SimDuration {
    simulate(&mut port, events)
        .into_iter()
        .find(|t| t.frame.id == MessageId(1))
        .expect("urgent frame delivered")
        .latency()
}

pub fn run() {
    let table = Table::new(
        "E4 — urgent DA frame latency vs NDA bulk load on 100 Mbit/s Ethernet",
        &[
            "bulk_frames",
            "fifo_us",
            "strict_prio_us",
            "tsn_us",
            "one_frame_bound_us",
        ],
    );
    let bound = ethernet_frame_time(1500, MBIT100) + ethernet_frame_time(64, MBIT100);
    for bulk in [0u64, 50, 200, 800, 2000] {
        let fifo = urgent_latency(FifoPort::new(MBIT100), scenario(bulk));
        let prio = urgent_latency(StrictPriorityPort::new(MBIT100), scenario(bulk));
        let tsn = urgent_latency(
            TsnGatedPort::new(
                MBIT100,
                GateControlList::mixed_criticality(SimDuration::from_millis(1), 0.3),
            ),
            scenario(bulk),
        );
        table.row(&[bulk.to_string(), us(fifo), us(prio), us(tsn), us(bound)]);
    }
}
