//! E3 (Fig. 3): the three communication paradigms — Event, Message (RPC),
//! Stream — across CAN, switched Ethernet (802.1p) and TSN, over payload
//! sizes.
//!
//! Expected shape: CAN carries small events at sub-millisecond latency but
//! collapses on large payloads (segmentation into 8-byte frames); Ethernet
//! is orders of magnitude faster for the same payloads; TSN adds bounded
//! gate delay for non-critical traffic in exchange for deterministic
//! critical windows; RPC round trips are two one-way latencies plus
//! processing; stream decodable latency ≥ raw latency.

use dynplat_bench::{us, Table};
use dynplat_comm::fabric::{BusPort, Fabric, MessageSend};
use dynplat_comm::paradigm::{run_rpc, run_stream, RpcCall, StreamSpec};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{BusId, EcuId};
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat_net::{GateControlList, TrafficClass};
use dynplat_obs::TraceCtx;

fn two_ecu_topology(kind: BusKind) -> HwTopology {
    HwTopology::from_parts(
        [
            EcuSpec::of_class(EcuId(0), "a", EcuClass::Domain),
            EcuSpec::of_class(EcuId(1), "b", EcuClass::Domain),
        ],
        [BusSpec::new(BusId(0), "bus", kind, [EcuId(0), EcuId(1)])],
    )
    .expect("valid topology")
}

fn fabric_for(medium: &str) -> Fabric {
    match medium {
        "can-500k" => Fabric::new(two_ecu_topology(BusKind::can_500k())),
        "eth-100m" => Fabric::new(two_ecu_topology(BusKind::ethernet_100m())),
        "tsn-100m" => {
            let mut f = Fabric::new(two_ecu_topology(BusKind::ethernet_100m()));
            f.set_port(
                BusId(0),
                BusPort::tsn_for(
                    BusKind::ethernet_100m(),
                    GateControlList::mixed_criticality(SimDuration::from_millis(1), 0.3),
                ),
            );
            f
        }
        other => panic!("unknown medium {other}"),
    }
}

pub fn run() {
    let media = ["can-500k", "eth-100m", "tsn-100m"];

    // -- Event: one-way notification latency over payload sizes -------------
    let table = Table::new(
        "E3a / Fig.3 — Event paradigm: one-way latency (us)",
        &["medium", "payload_B", "median_us", "p99_us"],
    );
    for medium in media {
        for payload in [8usize, 64, 256, 1024, 4096] {
            if medium == "can-500k" && payload > 1024 {
                continue; // pointless: dozens of ms
            }
            let mut fabric = fabric_for(medium);
            let sends: Vec<MessageSend> = (0..100)
                .map(|k| MessageSend {
                    id: k,
                    time: SimTime::from_millis(k * 10),
                    src: EcuId(0),
                    dst: EcuId(1),
                    payload,
                    class: TrafficClass::Critical,
                    priority: 1,
                    trace: TraceCtx::NONE,
                })
                .collect();
            let mut lats: Vec<SimDuration> = fabric
                .run(sends, |_| vec![])
                .iter()
                .map(|d| d.latency())
                .collect();
            lats.sort();
            let median = lats[lats.len() / 2];
            let p99 = lats[lats.len() * 99 / 100];
            table.row(&[medium.to_owned(), payload.to_string(), us(median), us(p99)]);
        }
    }

    // -- Message: RPC round trips --------------------------------------------
    let table = Table::new(
        "E3b / Fig.3 — Message paradigm: RPC round trip (us)",
        &["medium", "req_B", "resp_B", "worst_rtt_us"],
    );
    for medium in media {
        for (req, resp) in [(8usize, 8usize), (64, 256), (256, 1024)] {
            if medium == "can-500k" && resp > 256 {
                continue;
            }
            let mut fabric = fabric_for(medium);
            let calls: Vec<RpcCall> = (0..50)
                .map(|k| RpcCall {
                    time: SimTime::from_millis(k * 20),
                    client: EcuId(0),
                    server: EcuId(1),
                    request_payload: req,
                    response_payload: resp,
                    processing: SimDuration::from_micros(100),
                    class: TrafficClass::Critical,
                    priority: 1,
                    trace: TraceCtx::NONE,
                })
                .collect();
            let stats = run_rpc(&mut fabric, &calls);
            let worst = stats
                .iter()
                .map(|s| s.round_trip)
                .max()
                .expect("calls complete");
            table.row(&[
                medium.to_owned(),
                req.to_string(),
                resp.to_string(),
                us(worst),
            ]);
        }
    }

    // -- Stream: continuous frames with dependencies -------------------------
    let table = Table::new(
        "E3c / Fig.3 — Stream paradigm: 100 frames @ 5 ms",
        &[
            "medium",
            "frame_B",
            "delivered",
            "mean_us",
            "decodable_worst_us",
            "jitter_us",
        ],
    );
    for medium in media {
        for frame in [512usize, 4096, 16384] {
            if medium == "can-500k" && frame > 512 {
                continue;
            }
            let mut fabric = fabric_for(medium);
            let spec = StreamSpec {
                start: SimTime::ZERO,
                frames: 100,
                interval: SimDuration::from_millis(5),
                frame_payload: frame,
                src: EcuId(0),
                dst: EcuId(1),
                class: TrafficClass::Stream,
                priority: 4,
                trace: TraceCtx::NONE,
            };
            let stats = run_stream(&mut fabric, &spec);
            table.row(&[
                medium.to_owned(),
                frame.to_string(),
                format!("{}/{}", stats.delivered, stats.sent),
                us(stats.mean_latency),
                us(stats.max_decodable_latency),
                us(stats.jitter),
            ]);
        }
    }
}
