//! Cross-crate network integration: the comm fabric over hw topologies and
//! net media, checked against the analytic results of the net crate.

use dynplat::comm::fabric::{BusPort, Fabric, MessageSend};
use dynplat::comm::paradigm::{run_rpc, run_stream, RpcCall, StreamSpec};
use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{BusId, EcuId, MessageId};
use dynplat::hw::ecu::{EcuClass, EcuSpec};
use dynplat::hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat::net::can::{can_frame_time, CanAnalysis, CanMessageSpec};
use dynplat::net::{GateControlList, TrafficClass};
use dynplat::obs::TraceCtx;

fn mixed_topology() -> HwTopology {
    HwTopology::from_parts(
        [
            EcuSpec::of_class(EcuId(0), "body", EcuClass::LowEnd),
            EcuSpec::of_class(EcuId(1), "gateway", EcuClass::Domain),
            EcuSpec::of_class(EcuId(2), "compute", EcuClass::HighPerformance),
        ],
        [
            BusSpec::new(BusId(0), "can0", BusKind::can_500k(), [EcuId(0), EcuId(1)]),
            BusSpec::new(
                BusId(1),
                "eth0",
                BusKind::ethernet_100m(),
                [EcuId(1), EcuId(2)],
            ),
        ],
    )
    .expect("valid topology")
}

#[test]
fn fabric_can_latency_matches_frame_arithmetic() {
    let mut fabric = Fabric::new(mixed_topology());
    // One 8-byte frame over 500 kbit/s CAN = 270 us; local delivery adds
    // nothing on a single-hop route.
    let done = fabric.run(
        vec![MessageSend {
            id: 1,
            time: SimTime::ZERO,
            src: EcuId(0),
            dst: EcuId(1),
            payload: 8,
            class: TrafficClass::Critical,
            priority: 1,
            trace: TraceCtx::NONE,
        }],
        |_| vec![],
    );
    assert_eq!(done[0].latency(), can_frame_time(8, 500_000));
}

#[test]
fn fabric_respects_can_wcrt_analysis_under_periodic_load() {
    // Periodic CAN traffic whose analytic WCRTs must bound the simulation.
    let specs = vec![
        CanMessageSpec::periodic(MessageId(1), 8, SimDuration::from_millis(5)),
        CanMessageSpec::periodic(MessageId(2), 8, SimDuration::from_millis(10)),
        CanMessageSpec::periodic(MessageId(3), 8, SimDuration::from_millis(20)),
    ];
    let analysis = CanAnalysis::new(500_000, specs.clone());
    assert!(analysis.is_schedulable());
    let bounds = analysis.response_times();

    let mut fabric = Fabric::new(mixed_topology());
    let mut sends = Vec::new();
    let mut id_of_flow = Vec::new();
    let mut uid = 0u64;
    for spec in &specs {
        let mut t = SimTime::ZERO;
        while t < SimTime::from_millis(200) {
            sends.push(MessageSend {
                id: uid,
                time: t,
                src: EcuId(0),
                dst: EcuId(1),
                payload: spec.payload,
                class: TrafficClass::Critical,
                priority: spec.id.raw(),
                trace: TraceCtx::NONE,
            });
            id_of_flow.push((uid, spec.id));
            uid += 1;
            t += spec.period;
        }
    }
    let done = fabric.run(sends, |_| vec![]);
    for d in &done {
        let flow = id_of_flow
            .iter()
            .find(|(u, _)| *u == d.id)
            .expect("known send")
            .1;
        let bound = bounds
            .iter()
            .find(|b| b.id == flow)
            .and_then(|b| b.wcrt)
            .expect("schedulable flow");
        assert!(
            d.latency() <= bound,
            "flow {flow}: simulated {} > analytic {bound}",
            d.latency()
        );
    }
}

#[test]
fn gateway_path_adds_store_and_forward() {
    let mut direct = Fabric::new(mixed_topology());
    let mut routed = Fabric::new(mixed_topology());
    let send = |dst: u16| MessageSend {
        id: 1,
        time: SimTime::ZERO,
        src: EcuId(0),
        dst: EcuId(dst),
        payload: 8,
        class: TrafficClass::BestEffort,
        priority: 1,
        trace: TraceCtx::NONE,
    };
    let one_hop = direct.run(vec![send(1)], |_| vec![])[0].latency();
    let two_hop = routed.run(vec![send(2)], |_| vec![])[0].latency();
    assert!(two_hop > one_hop, "{two_hop} vs {one_hop}");
}

#[test]
fn rpc_across_the_gateway_round_trips() {
    let mut fabric = Fabric::new(mixed_topology());
    let calls = vec![RpcCall {
        time: SimTime::ZERO,
        client: EcuId(0),
        server: EcuId(2),
        request_payload: 8,
        response_payload: 8,
        processing: SimDuration::from_micros(200),
        class: TrafficClass::BestEffort,
        priority: 1,
        trace: TraceCtx::NONE,
    }];
    let stats = run_rpc(&mut fabric, &calls);
    assert_eq!(stats.len(), 1);
    // Two CAN frames + two Ethernet frames + gateways + processing: well
    // above one CAN frame, well below 10 ms.
    assert!(stats[0].round_trip > can_frame_time(8, 500_000) * 2);
    assert!(stats[0].round_trip < SimDuration::from_millis(10));
}

#[test]
fn tsn_swap_changes_best_effort_but_not_critical_behavior() {
    let topo = HwTopology::from_parts(
        [
            EcuSpec::of_class(EcuId(0), "a", EcuClass::Domain),
            EcuSpec::of_class(EcuId(1), "b", EcuClass::Domain),
        ],
        [BusSpec::new(
            BusId(0),
            "eth0",
            BusKind::ethernet_100m(),
            [EcuId(0), EcuId(1)],
        )],
    )
    .expect("valid");

    let stream = StreamSpec {
        start: SimTime::ZERO,
        frames: 20,
        interval: SimDuration::from_millis(1),
        frame_payload: 1000,
        src: EcuId(0),
        dst: EcuId(1),
        class: TrafficClass::BestEffort,
        priority: 6,
        trace: TraceCtx::NONE,
    };
    let mut plain = Fabric::new(topo.clone());
    let plain_stats = run_stream(&mut plain, &stream);

    let mut tsn = Fabric::new(topo);
    tsn.set_port(
        BusId(0),
        BusPort::tsn_for(
            BusKind::ethernet_100m(),
            GateControlList::mixed_criticality(SimDuration::from_millis(1), 0.5),
        ),
    );
    let tsn_stats = run_stream(&mut tsn, &stream);

    assert_eq!(plain_stats.delivered, 20);
    assert_eq!(tsn_stats.delivered, 20);
    // Gating delays best-effort frames relative to an open port.
    assert!(tsn_stats.mean_latency > plain_stats.mean_latency);
}

#[test]
fn deliveries_are_deterministic() {
    let build = || {
        let mut fabric = Fabric::new(mixed_topology());
        let sends: Vec<MessageSend> = (0..100)
            .map(|i| MessageSend {
                id: i,
                time: SimTime::from_micros(i * 37),
                src: EcuId(if i % 2 == 0 { 0 } else { 1 }),
                dst: EcuId(if i % 3 == 0 { 1 } else { 2 }),
                payload: 64 + (i as usize % 512),
                class: TrafficClass::BestEffort,
                priority: (i % 5) as u32,
                trace: TraceCtx::NONE,
            })
            .collect();
        fabric.run(sends, |_| vec![])
    };
    assert_eq!(build(), build());
}
