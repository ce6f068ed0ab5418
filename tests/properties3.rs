//! Property-based tests, part 3: fast-path equivalence of the fabric event
//! engine rewrite.
//!
//! * the dense [`RouteCache`] agrees with a fresh `HwTopology::route` BFS
//!   on every pair of every randomized topology, including unreachable
//!   pairs, unknown endpoints, and after `set_port` swaps on the fabric;
//! * the fabric conserves messages under randomized load with callback
//!   injections: every send is either delivered exactly once or was
//!   unreachable at injection, and completion order is monotone in
//!   delivery time;
//! * `Fabric::run_batch` delivers exactly what a one-heap reference engine
//!   delivers, in the same order, over random gateway chains of CAN,
//!   strict-priority Ethernet, TSN-gated Ethernet and FlexRay with
//!   equal-time ties, multi-segment payloads, unreachable destinations and
//!   callback injections. The reference has no injection cursor, no pump
//!   and no per-bus `TxDone` slot, so it pins the fabric's event order to
//!   the plain `(time, seq)` order of one heap.
//!
//! Implemented as seeded-random loop tests on `dynplat::common::rng` (no
//! external property-testing dependency).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dynplat::comm::fabric::{BusPort, Fabric, MessageDelivery, MessageSend, GATEWAY_DELAY};
use dynplat::common::rng::{seeded_rng, split_seed, Rng, SplitMix64};
use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{BusId, EcuId, MessageId};
use dynplat::hw::ecu::{EcuClass, EcuSpec};
use dynplat::hw::routes::RouteCache;
use dynplat::hw::topology::{BusKind, BusSpec, HwTopology, Route, TopologyError};
use dynplat::net::{
    Arbiter, CanArbiter, FifoPort, FlexRayBus, FlexRayConfig, Frame, GateControlList, Grant,
    SlotAssignment, StrictPriorityPort, TrafficClass, TsnGatedPort,
};
use dynplat::obs::TraceCtx;

const SUITE_SEED: u64 = 0x5EED_0003;
const CASES: u64 = 48;

/// One deterministic RNG per (test, case) pair.
fn case_rng(test: u64, case: u64) -> SplitMix64 {
    seeded_rng(split_seed(split_seed(SUITE_SEED, test), case))
}

/// A random topology: 2..14 ECUs, 1..6 buses of mixed media, each attaching
/// a random subset of at least two ECUs. Isolated ECUs and disconnected
/// islands arise naturally, so unreachable pairs are covered.
fn arb_topology(rng: &mut SplitMix64) -> HwTopology {
    let n_ecus = rng.gen_range(2u64..15) as u16;
    let mut topo = HwTopology::new();
    for i in 0..n_ecus {
        let class = match i % 3 {
            0 => EcuClass::LowEnd,
            1 => EcuClass::Domain,
            _ => EcuClass::HighPerformance,
        };
        topo.add_ecu(EcuSpec::of_class(EcuId(i), format!("e{i}"), class))
            .expect("fresh ids");
    }
    let n_buses = rng.gen_range(1u64..7) as u16;
    for b in 0..n_buses {
        let kind = match rng.gen_range(0u64..3) {
            0 => BusKind::can_500k(),
            1 => BusKind::ethernet_100m(),
            _ => BusKind::ethernet_1g(),
        };
        let mut attached: Vec<EcuId> = (0..n_ecus)
            .filter(|_| rng.gen_bool(0.4))
            .map(EcuId)
            .collect();
        while attached.len() < 2 {
            attached.push(EcuId(rng.gen_range(0..u64::from(n_ecus)) as u16));
        }
        topo.add_bus(BusSpec::new(BusId(b), format!("b{b}"), kind, attached))
            .expect("fresh bus");
    }
    topo
}

// ----------------------------------------------------------- route cache --

#[test]
fn cached_routes_equal_fresh_bfs_on_random_topologies() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let topo = arb_topology(&mut rng);
        let mut cache = RouteCache::new(&topo);
        let n = topo.ecu_count() as u16;
        // All pairs (including self-pairs), plus unknown endpoints; queried
        // twice so both the BFS fill and the memoized lookup are checked.
        let mut endpoints: Vec<EcuId> = (0..n).map(EcuId).collect();
        endpoints.push(EcuId(n + 7)); // unknown
        for _ in 0..2 {
            for &src in &endpoints {
                for &dst in &endpoints {
                    let fresh = topo.route(src, dst);
                    let cached = cache.route_buses(src, dst).map(|buses| Route {
                        buses: buses.to_vec(),
                    });
                    assert_eq!(cached, fresh, "case {case}: pair {src}->{dst}");
                    match cached {
                        Ok(ref r) if src == dst => assert!(r.is_local()),
                        Ok(_) => {}
                        Err(TopologyError::UnknownEcu(e)) => {
                            assert!(e == src || e == dst);
                        }
                        Err(TopologyError::NoRoute(a, b)) => {
                            assert_eq!((a, b), (src, dst));
                        }
                        Err(other) => panic!("unexpected error {other:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn fabric_routing_matches_bfs_reachability_after_port_swaps() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let topo = arb_topology(&mut rng);
        let n = topo.ecu_count() as u16;
        let mut fabric = Fabric::new(topo.clone());
        for round in 0..2u64 {
            if round == 1 {
                // Swap every Ethernet bus to the FIFO baseline port: the
                // cached routes must keep agreeing with fresh BFS across
                // port reconfiguration.
                for bus in topo.buses() {
                    if matches!(bus.kind, BusKind::Ethernet { .. }) {
                        fabric.set_port(bus.id, BusPort::Fifo(FifoPort::new(bus.kind.bitrate())));
                    }
                }
            }
            let sends: Vec<MessageSend> = (0..40u64)
                .map(|i| MessageSend {
                    id: round * 1000 + i,
                    time: SimTime::from_micros(rng.gen_range(0..5000)),
                    src: EcuId(rng.gen_range(0..u64::from(n)) as u16),
                    dst: EcuId(rng.gen_range(0..u64::from(n)) as u16),
                    payload: rng.gen_range(1..257) as usize,
                    class: TrafficClass::BestEffort,
                    priority: rng.gen_range(0..8) as u32,
                    trace: TraceCtx::NONE,
                })
                .collect();
            let endpoints: std::collections::BTreeMap<u64, (EcuId, EcuId)> =
                sends.iter().map(|s| (s.id, (s.src, s.dst))).collect();
            let mut expect_delivered: Vec<u64> = sends
                .iter()
                .filter(|s| topo.route(s.src, s.dst).is_ok())
                .map(|s| s.id)
                .collect();
            let done = fabric.run(sends, |_| vec![]);
            let mut got: Vec<u64> = done.iter().map(|d| d.id).collect();
            expect_delivered.sort_unstable();
            got.sort_unstable();
            assert_eq!(
                got, expect_delivered,
                "case {case} round {round}: delivered set != BFS-reachable set"
            );
            // Hop counts agree with the fresh BFS route as well.
            for d in &done {
                let (src, dst) = endpoints[&d.id];
                let fresh = topo.route(src, dst).expect("delivered => reachable");
                assert_eq!(
                    d.hops,
                    fresh.buses.len(),
                    "case {case} round {round}: hop count diverges for {src}->{dst}"
                );
            }
        }
    }
}

// ---------------------------------------------------------- conservation --

#[test]
fn fabric_conserves_messages_under_randomized_load() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let topo = arb_topology(&mut rng);
        let n = topo.ecu_count() as u16;
        let mut fabric = Fabric::new(topo.clone());

        let n_sends = rng.gen_range(1u64..200);
        let sends: Vec<MessageSend> = (0..n_sends)
            .map(|i| MessageSend {
                id: i,
                time: SimTime::from_micros(rng.gen_range(0..10_000)),
                src: EcuId(rng.gen_range(0..u64::from(n)) as u16),
                dst: EcuId(rng.gen_range(0..u64::from(n)) as u16),
                payload: rng.gen_range(1..129) as usize,
                class: TrafficClass::BestEffort,
                priority: rng.gen_range(0..8) as u32,
                trace: TraceCtx::NONE,
            })
            .collect();

        // A delivery callback injects one follow-up send for every original
        // message (ids offset by 1_000_000), to a random destination drawn
        // from a dedicated RNG stream so the choice is deterministic.
        let mut cb_rng = case_rng(4, case);
        let mut injected: Vec<MessageSend> = Vec::new();
        let mut unreachable = sends
            .iter()
            .filter(|s| topo.route(s.src, s.dst).is_err())
            .count();
        let total_initial = sends.len();
        let done = fabric.run(sends, |d| {
            if d.id < 1_000_000 {
                let dst = EcuId(cb_rng.gen_range(0..u64::from(n)) as u16);
                let follow = MessageSend {
                    id: 1_000_000 + d.id,
                    time: d.delivered,
                    src: EcuId(cb_rng.gen_range(0..u64::from(n)) as u16),
                    dst,
                    payload: 64,
                    class: TrafficClass::BestEffort,
                    priority: 3,
                    trace: TraceCtx::NONE,
                };
                injected.push(follow.clone());
                vec![follow]
            } else {
                vec![]
            }
        });

        // Conservation: sends == deliveries + dropped_unreachable, counted
        // from the returned data (the global obs counters are shared across
        // parallel tests and cannot be asserted on here).
        unreachable += injected
            .iter()
            .filter(|s| topo.route(s.src, s.dst).is_err())
            .count();
        let total_sends = total_initial + injected.len();
        assert_eq!(
            done.len() + unreachable,
            total_sends,
            "case {case}: {} delivered + {unreachable} unreachable != {total_sends} sent",
            done.len()
        );

        // Each send delivers at most once.
        let mut ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "case {case}: duplicate delivery");

        // Completion order is monotone in delivery time. Local (0-hop)
        // deliveries are appended at their injection event but stamped
        // `delivered = now + local_delay` (5 µs default), so compare the
        // underlying event times.
        let event_time = |d: &dynplat::comm::fabric::MessageDelivery| {
            if d.hops == 0 {
                d.delivered - dynplat::common::time::SimDuration::from_micros(5)
            } else {
                d.delivered
            }
        };
        for pair in done.windows(2) {
            assert!(
                event_time(&pair[0]) <= event_time(&pair[1]),
                "case {case}: completion order not monotone"
            );
        }
    }
}

// ------------------------------------------------------ one-heap reference --

/// Cases of the reference comparison. Each case runs a few hundred
/// messages through both engines; the reference is deliberately naive, so
/// the count is sized for the debug test profile.
const REF_CASES: u64 = 24;

/// Ids at or above this were injected by the delivery callback.
const REACTION_BASE: u64 = 1 << 32;

/// The media a bus port can be built from, so the fabric and the
/// reference engine get identical, independently owned arbiters.
#[derive(Clone, Copy)]
enum Medium {
    Can,
    Priority,
    Tsn,
    FlexRay,
}

impl Medium {
    fn kind(self) -> BusKind {
        match self {
            Medium::Can => BusKind::can_500k(),
            Medium::Priority | Medium::Tsn => BusKind::ethernet_100m(),
            Medium::FlexRay => BusKind::flexray_10m(),
        }
    }

    fn mtu(self) -> usize {
        match self {
            Medium::Can => 8,
            Medium::FlexRay => 254,
            Medium::Priority | Medium::Tsn => 1500,
        }
    }

    fn gcl() -> GateControlList {
        GateControlList::mixed_criticality(SimDuration::from_micros(800), 0.3)
    }

    /// FlexRay frames whose wire id (the fabric's message slot) is 0 or 3
    /// own static slots; every other frame uses the dynamic segment.
    fn flexray() -> FlexRayBus {
        let mut slots = SlotAssignment::new();
        slots.assign(MessageId(0), 2).expect("free slot");
        slots.assign(MessageId(3), 9).expect("free slot");
        FlexRayBus::new(FlexRayConfig::typical_10mbit(), slots)
    }

    fn fabric_port(self) -> BusPort {
        match self {
            Medium::Can => BusPort::Can(CanArbiter::new(500_000)),
            Medium::Priority => BusPort::Priority(StrictPriorityPort::new(100_000_000)),
            Medium::Tsn => BusPort::tsn_for(self.kind(), Self::gcl()),
            Medium::FlexRay => BusPort::FlexRay(Self::flexray()),
        }
    }

    fn reference_port(self) -> Box<dyn Arbiter> {
        match self {
            Medium::Can => Box::new(CanArbiter::new(500_000)),
            Medium::Priority => Box::new(StrictPriorityPort::new(100_000_000)),
            Medium::Tsn => Box::new(TsnGatedPort::new(100_000_000, Self::gcl())),
            Medium::FlexRay => Box::new(Self::flexray()),
        }
    }
}

/// A gateway chain `e0 -b0- e1 -b1- … -bk- ek+1` of random media, with
/// random leaf ECUs hanging off chain buses and a two-ECU island that no
/// chain ECU can reach.
fn arb_chain(rng: &mut SplitMix64) -> (HwTopology, Vec<(BusId, Medium)>) {
    let links = rng.gen_range(1u64..5) as u16;
    let mut topo = HwTopology::new();
    let mut media = Vec::new();
    for i in 0..=links {
        topo.add_ecu(EcuSpec::of_class(
            EcuId(i),
            format!("c{i}"),
            EcuClass::Domain,
        ))
        .expect("fresh ids");
    }
    let mut attached: Vec<Vec<EcuId>> = (0..links).map(|b| vec![EcuId(b), EcuId(b + 1)]).collect();
    let leaves = rng.gen_range(0u64..4) as u16;
    for l in 0..leaves {
        let id = EcuId(100 + l);
        topo.add_ecu(EcuSpec::of_class(id, format!("l{l}"), EcuClass::LowEnd))
            .expect("fresh ids");
        attached[rng.gen_range(0..u64::from(links)) as usize].push(id);
    }
    for (b, ecus) in attached.into_iter().enumerate() {
        let medium = match rng.gen_range(0u64..4) {
            0 => Medium::Can,
            1 => Medium::Priority,
            2 => Medium::Tsn,
            _ => Medium::FlexRay,
        };
        let id = BusId(b as u16);
        topo.add_bus(BusSpec::new(id, format!("b{b}"), medium.kind(), ecus))
            .expect("fresh bus");
        media.push((id, medium));
    }
    for i in [200u16, 201] {
        topo.add_ecu(EcuSpec::of_class(
            EcuId(i),
            format!("i{i}"),
            EcuClass::LowEnd,
        ))
        .expect("fresh ids");
    }
    let island = BusId(50);
    topo.add_bus(BusSpec::new(
        island,
        "island",
        BusKind::can_500k(),
        [EcuId(200), EcuId(201)],
    ))
    .expect("fresh bus");
    media.push((island, Medium::Can));
    (topo, media)
}

/// A random endpoint: mostly topology ECUs, sometimes one that does not
/// exist at all.
fn arb_endpoint(rng: &mut SplitMix64, ecus: &[EcuId]) -> EcuId {
    if rng.gen_bool(0.05) {
        EcuId(999)
    } else {
        ecus[rng.gen_range(0..ecus.len() as u64) as usize]
    }
}

fn arb_send(rng: &mut SplitMix64, id: u64, time: SimTime, ecus: &[EcuId]) -> MessageSend {
    let class = match rng.gen_range(0u64..3) {
        0 => TrafficClass::Critical,
        1 => TrafficClass::Stream,
        _ => TrafficClass::BestEffort,
    };
    // Mostly one-frame messages, sometimes many CAN or two Ethernet
    // segments.
    let payload = match rng.gen_range(0u64..4) {
        0 => rng.gen_range(0..9),
        1 => rng.gen_range(9..64),
        2 => rng.gen_range(64..600),
        _ => rng.gen_range(1400..3100),
    } as usize;
    MessageSend {
        id,
        time,
        src: arb_endpoint(rng, ecus),
        dst: arb_endpoint(rng, ecus),
        payload,
        class,
        priority: rng.gen_range(0..4) as u32,
        trace: TraceCtx::NONE,
    }
}

/// The delivery callback both engines run: a pure function of the
/// delivery, so equal delivery streams inject equal reactions. About a
/// third of the original messages trigger one reaction, at the delivery
/// instant, later, or in the past (which the engines clamp to now).
fn reactions(case_seed: u64, d: &MessageDelivery, ecus: &[EcuId], out: &mut Vec<MessageSend>) {
    if d.id >= REACTION_BASE {
        return;
    }
    let mut rng = seeded_rng(split_seed(case_seed, d.id));
    if !rng.gen_bool(0.35) {
        return;
    }
    let time = match rng.gen_range(0u64..3) {
        0 => d.delivered,
        1 => d.delivered + SimDuration::from_micros(rng.gen_range(0..200)),
        _ => d.sent,
    };
    out.push(arb_send(&mut rng, REACTION_BASE + d.id, time, ecus));
}

/// Event kinds of the reference engine. `seq` is unique, so the derived
/// order of this payload never decides anything.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RefEvent {
    /// Index into the engine's send store.
    Inject(usize),
    /// A frame of the message in this slot left the wire.
    TxDone(u32),
    /// Poll the bus at this index.
    Poll(usize),
}

struct RefMsg {
    send: MessageSend,
    route: Vec<BusId>,
    hop: usize,
    segs: usize,
}

/// The fabric's event semantics as one binary heap of `(time, seq, event)`:
/// no injection cursor, no pump, and a grant pushes its `TxDone` and the
/// follow-up poll as two events. A bus has at most one live poll: a poll
/// scheduled earlier than the live one replaces it, and a replaced poll
/// is skipped when it surfaces. Message slots recycle LIFO, because they
/// are the wire frame ids that CAN and FlexRay arbitration see.
struct Reference<'a, F> {
    topo: &'a HwTopology,
    ports: Vec<(BusId, Medium, Box<dyn Arbiter>)>,
    gateway_delay: SimDuration,
    heap: BinaryHeap<Reverse<(SimTime, u64, RefEvent)>>,
    next_seq: u64,
    store: Vec<MessageSend>,
    msgs: Vec<Option<RefMsg>>,
    free: Vec<u32>,
    bus_free: Vec<SimTime>,
    live_poll: Vec<Option<(SimTime, u64)>>,
    on_delivery: F,
    out: Vec<MessageDelivery>,
}

impl<F: FnMut(&MessageDelivery, &mut Vec<MessageSend>)> Reference<'_, F> {
    fn push(&mut self, t: SimTime, ev: RefEvent) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((t, seq, ev)));
        seq
    }

    fn schedule_poll(&mut self, bi: usize, t: SimTime) {
        let seq = self.push(t, RefEvent::Poll(bi));
        self.live_poll[bi] = Some((t, seq));
    }

    fn bus_index(&self, bus: BusId) -> usize {
        self.ports
            .iter()
            .position(|(id, _, _)| *id == bus)
            .expect("route buses exist")
    }

    fn run(mut self, sends: &[MessageSend]) -> Vec<MessageDelivery> {
        for (i, s) in sends.iter().enumerate() {
            self.store.push(s.clone());
            self.heap
                .push(Reverse((s.time, i as u64, RefEvent::Inject(i))));
        }
        self.next_seq = sends.len() as u64;
        while let Some(Reverse((now, seq, ev))) = self.heap.pop() {
            match ev {
                RefEvent::Inject(i) => self.inject(self.store[i].clone(), now),
                RefEvent::TxDone(slot) => self.txdone(slot, now),
                RefEvent::Poll(bi) => {
                    if self.live_poll[bi] == Some((now, seq)) {
                        self.live_poll[bi] = None;
                        self.poll(bi, now);
                    }
                }
            }
        }
        self.out
    }

    fn complete(&mut self, send: MessageSend, delivered: SimTime, hops: usize, now: SimTime) {
        let d = MessageDelivery {
            id: send.id,
            sent: send.time,
            delivered,
            hops,
            trace: send.trace,
        };
        let mut extra = Vec::new();
        (self.on_delivery)(&d, &mut extra);
        for e in extra {
            let t = e.time.max(now);
            self.store.push(e);
            self.push(t, RefEvent::Inject(self.store.len() - 1));
        }
        self.out.push(d);
    }

    fn inject(&mut self, send: MessageSend, now: SimTime) {
        let Ok(route) = self.topo.route(send.src, send.dst) else {
            return;
        };
        if route.buses.is_empty() {
            self.complete(send, now + SimDuration::from_micros(5), 0, now);
            return;
        }
        let msg = RefMsg {
            send,
            route: route.buses,
            hop: 0,
            segs: 0,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.msgs[s as usize] = Some(msg);
                s
            }
            None => {
                self.msgs.push(Some(msg));
                (self.msgs.len() - 1) as u32
            }
        };
        self.start_hop(slot, now);
    }

    fn start_hop(&mut self, slot: u32, now: SimTime) {
        let msg = self.msgs[slot as usize].as_ref().expect("live slot");
        let bi = self.bus_index(msg.route[msg.hop]);
        let mtu = self.ports[bi].1.mtu();
        let total = msg.send.payload.max(1);
        let sizes: Vec<usize> = (0..total.div_ceil(mtu))
            .map(|k| mtu.min(total - k * mtu))
            .collect();
        let (priority, class) = (msg.send.priority, msg.send.class);
        for &payload in &sizes {
            let frame = Frame {
                id: MessageId(slot),
                payload,
                priority,
                class,
            };
            self.ports[bi].2.enqueue(now, frame);
        }
        self.msgs[slot as usize].as_mut().expect("live slot").segs = sizes.len();
        let t = now.max(self.bus_free[bi]);
        if self.live_poll[bi].is_none_or(|(at, _)| t < at) {
            self.schedule_poll(bi, t);
        }
    }

    fn txdone(&mut self, slot: u32, now: SimTime) {
        let msg = self.msgs[slot as usize].as_mut().expect("live slot");
        msg.segs -= 1;
        if msg.segs > 0 {
            return;
        }
        msg.hop += 1;
        if msg.hop < msg.route.len() {
            self.start_hop(slot, now + self.gateway_delay);
            return;
        }
        let msg = self.msgs[slot as usize].take().expect("live slot");
        self.free.push(slot);
        self.complete(msg.send, now, msg.route.len(), now);
    }

    fn poll(&mut self, bi: usize, now: SimTime) {
        if now < self.bus_free[bi] {
            self.schedule_poll(bi, self.bus_free[bi]);
            return;
        }
        match self.ports[bi].2.poll(now) {
            Grant::Tx(tx) => {
                self.bus_free[bi] = tx.end;
                self.push(tx.end, RefEvent::TxDone(tx.frame.id.raw()));
                self.schedule_poll(bi, tx.end);
            }
            Grant::WaitUntil(t) => self.schedule_poll(bi, t),
            Grant::Idle => {}
        }
    }
}

#[test]
fn run_batch_matches_a_one_heap_reference() {
    let mut compared = 0usize;
    for case in 0..REF_CASES {
        let mut rng = case_rng(5, case);
        let case_seed = rng.next_u64();
        let (topo, media) = arb_chain(&mut rng);
        let ecus: Vec<EcuId> = topo.ecus().map(|e| e.id()).collect();

        // Times on a coarse grid, so equal-time ties are common.
        let n_sends = rng.gen_range(20u64..160);
        let sends: Vec<MessageSend> = (0..n_sends)
            .map(|i| {
                let t = SimTime::from_micros(rng.gen_range(0u64..40) * 50);
                arb_send(&mut rng, i, t, &ecus)
            })
            .collect();

        let mut fabric = Fabric::new(topo.clone());
        for &(bus, medium) in &media {
            fabric.set_port(bus, medium.fabric_port());
        }
        let mut got = Vec::new();
        fabric.run_batch(&sends, &mut got, |d, out| {
            reactions(case_seed, d, &ecus, out)
        });

        let mut ports: Vec<(BusId, Medium, Box<dyn Arbiter>)> = media
            .iter()
            .map(|&(bus, medium)| (bus, medium, medium.reference_port()))
            .collect();
        // The fabric indexes buses in ascending id order.
        ports.sort_by_key(|(bus, _, _)| *bus);
        let n_buses = ports.len();
        let reference = Reference {
            topo: &topo,
            ports,
            gateway_delay: GATEWAY_DELAY,
            heap: BinaryHeap::new(),
            next_seq: 0,
            store: Vec::new(),
            msgs: Vec::new(),
            free: Vec::new(),
            bus_free: vec![SimTime::ZERO; n_buses],
            live_poll: vec![None; n_buses],
            on_delivery: |d: &MessageDelivery, out: &mut Vec<MessageSend>| {
                reactions(case_seed, d, &ecus, out)
            },
            out: Vec::new(),
        };
        let want = reference.run(&sends);
        if got != want {
            let at = got.iter().zip(&want).position(|(g, w)| g != w);
            let at = at.unwrap_or(got.len().min(want.len()));
            panic!(
                "case {case}: delivery {at} diverges (fabric {} deliveries, reference {}): \
                 fabric {:?}, reference {:?}",
                got.len(),
                want.len(),
                got.get(at),
                want.get(at)
            );
        }
        compared += want.len();
    }
    assert!(compared > 1000, "cases must deliver enough to compare");
}
