//! `adas_cycle`: the ADAS chain of `examples/adas_pipeline.rs`, one unit
//! per 100 ms simulated control cycle.
//!
//! Topology: a TSN-gated 100 Mbit/s backbone (camera, fusion, planner,
//! central gateway, head unit), a CAN 500k chassis segment behind the
//! gateway (brake ECU and two chassis ECUs), and a strict-priority
//! infotainment Ethernet behind the head unit. Each cycle runs the camera
//! Stream, the fusion RPCs, the planner's DA/NDA task set under a budget
//! server, the brake commands (encoded, staged in the arena and sharing one
//! `run_batch` with near-saturating infotainment bulk) and the brake Event
//! fanned out through the gateway.

use crate::trace::Tracer;
use crate::workload::{
    da_misses, digest_sched, jobs_of, per, sched_metrics, task_set, Digest, Metrics, SetShape,
    SimStats, UnitCheck, Workload,
};
use dynplat_comm::arena::PayloadRef;
use dynplat_comm::fabric::{BusPort, Fabric, MessageDelivery, MessageSend};
use dynplat_comm::paradigm::{
    run_rpc_into, run_stream_into, EventBus, EventScratch, Publication, RpcCall, RpcScratch,
    RpcStats, StreamScratch, StreamSpec, StreamStats,
};
use dynplat_comm::ring::{RingEntry, SpscRing};
use dynplat_comm::sd::{SdEntry, ServiceDirectory};
use dynplat_comm::wire::SomeIpHeader;
use dynplat_common::ids::ServiceInstance;
use dynplat_common::rng::{split_seed, Rng, SplitMix64};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppId, BusId, EcuId, EventGroupId, MessageId, MethodId, ServiceId};
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat_hw::RouteCache;
use dynplat_net::{
    CanArbiter, Frame, GateControlList, StrictPriorityPort, TrafficClass, TsnGatedPort, TxEvent,
};
use dynplat_obs::{Counter, Histogram, LocalHistogram, MetricsRegistry, TraceCtx};
use dynplat_sched::server::PeriodicServer;
use dynplat_sched::simulate::{simulate_schedule, Policy, SchedSimConfig, SchedStats};
use dynplat_sched::task::TaskSet;
use std::hint::black_box;
use std::sync::Arc;

const CAMERA: EcuId = EcuId(0);
const FUSION: EcuId = EcuId(1);
const PLANNER: EcuId = EcuId(2);
const BRAKE: EcuId = EcuId(3);
const INFOTAINMENT: EcuId = EcuId(4);
const GATEWAY: EcuId = EcuId(5);
const CHASSIS_L: EcuId = EcuId(6);
const CHASSIS_R: EcuId = EcuId(7);
const HEAD_UNIT: EcuId = EcuId(8);

const BACKBONE: BusId = BusId(0);
const CHASSIS_CAN: BusId = BusId(1);

/// Subscribers of the brake Event, all behind the gateway.
const SUBSCRIBERS: [EcuId; 3] = [BRAKE, CHASSIS_L, CHASSIS_R];

/// Simulated length of one control cycle (one unit).
const CYCLE: SimDuration = SimDuration::from_millis(100);
/// Pool inputs (distinct cycles) generated from the seed.
const POOL: usize = 32;
const BRAKES_PER_CYCLE: usize = 10;
const EVENTS_PER_CYCLE: u64 = 10;
const RPCS_PER_CYCLE: u64 = 5;
/// One infotainment bulk frame per slot of this length.
const BULK_SLOT_US: u64 = 390;
/// The fabric's default store-and-forward delay at a gateway.
const GATEWAY_DELAY: SimDuration = SimDuration::from_micros(50);

const BRAKE_SERVICE: ServiceId = ServiceId(0x0B0B);
const BRAKE_METHOD: MethodId = MethodId(1);

/// One pool input: everything a control cycle sends and schedules.
struct Cycle {
    stream: StreamSpec,
    calls: Vec<RpcCall>,
    tasks: TaskSet,
    policy: Policy,
    sched: SchedSimConfig,
    /// Send instant and 8-byte command of each brake command.
    brakes: Vec<(SimTime, [u8; 8])>,
    /// Infotainment bulk sends (ids after the brake commands).
    bulk: Vec<MessageSend>,
    publications: Vec<Publication>,
}

/// Work counted during a traced phase.
#[derive(Default)]
struct Counts {
    deliveries: u64,
    spills: u64,
    dropped: u64,
    stream_msgs: u64,
    rpc_msgs: u64,
    event_msgs: u64,
    encodes: u64,
    stages: u64,
    ring_ops: u64,
    segments: u64,
    lookups: u64,
    prefetches: u64,
    frames: [u64; 3],
    tsn_dropped: u64,
    records: u64,
    jobs: [u64; 4],
}

/// Private state of the isolated sub-layer replays.
struct Replay {
    routes: RouteCache,
    gcl: GateControlList,
    ring: SpscRing,
    hist: LocalHistogram,
    target: Arc<Histogram>,
    path: Vec<BusId>,
    /// Per bus kind (eth, tsn, can): the arrivals of the batch's segments.
    arrivals: [Vec<TxEvent>; 3],
}

/// The `adas_cycle` workload.
pub struct Adas {
    fabric: Fabric,
    directory: ServiceDirectory,
    pool: Vec<Cycle>,
    stream_scratch: StreamScratch,
    stream_stats: Option<StreamStats>,
    rpc_scratch: RpcScratch,
    rpc_out: Vec<RpcStats>,
    sched_stats: Option<SchedStats>,
    frames: Vec<Vec<u8>>,
    staged: Vec<PayloadRef>,
    sends: Vec<MessageSend>,
    deliveries: Vec<MessageDelivery>,
    event_scratch: EventScratch,
    event_out: Vec<(usize, EcuId, MessageDelivery)>,
    spill_counter: Arc<Counter>,
    drop_counter: Arc<Counter>,
    seen: Vec<bool>,
    brake_lat_ns: Vec<u64>,
    da: (u64, u64),
    replay: Replay,
    c: Counts,
}

fn topology() -> HwTopology {
    HwTopology::from_parts(
        [
            EcuSpec::of_class(CAMERA, "camera", EcuClass::Domain),
            EcuSpec::of_class(FUSION, "fusion", EcuClass::HighPerformance),
            EcuSpec::of_class(PLANNER, "planner", EcuClass::HighPerformance),
            EcuSpec::of_class(BRAKE, "brake", EcuClass::LowEnd),
            EcuSpec::of_class(INFOTAINMENT, "infotainment", EcuClass::HighPerformance),
            EcuSpec::of_class(GATEWAY, "gateway", EcuClass::Domain),
            EcuSpec::of_class(CHASSIS_L, "chassis-l", EcuClass::LowEnd),
            EcuSpec::of_class(CHASSIS_R, "chassis-r", EcuClass::LowEnd),
            EcuSpec::of_class(HEAD_UNIT, "head-unit", EcuClass::Domain),
        ],
        [
            BusSpec::new(
                BACKBONE,
                "backbone",
                BusKind::ethernet_100m(),
                [CAMERA, FUSION, PLANNER, GATEWAY, HEAD_UNIT],
            ),
            BusSpec::new(
                CHASSIS_CAN,
                "chassis",
                BusKind::can_500k(),
                [GATEWAY, BRAKE, CHASSIS_L, CHASSIS_R],
            ),
            BusSpec::new(
                BusId(2),
                "infotainment",
                BusKind::ethernet_100m(),
                [INFOTAINMENT, HEAD_UNIT],
            ),
        ],
    )
    .expect("valid ADAS topology")
}

fn gcl() -> GateControlList {
    GateControlList::mixed_criticality(SimDuration::from_millis(1), 0.2)
}

fn directory() -> ServiceDirectory {
    let instance = ServiceInstance::new(BRAKE_SERVICE, 1);
    let ttl = SimDuration::from_secs(3600);
    let mut directory = ServiceDirectory::new();
    directory.apply(
        SimTime::ZERO,
        &SdEntry::Offer {
            instance,
            host: PLANNER,
            version: 1,
            ttl,
        },
    );
    for (k, &host) in SUBSCRIBERS.iter().enumerate() {
        directory.apply(
            SimTime::ZERO,
            &SdEntry::Subscribe {
                instance,
                group: EventGroupId(1),
                subscriber: AppId(10 + k as u32),
                host,
                ttl,
            },
        );
    }
    directory
}

const PLANNER_SET: SetShape = SetShape {
    da: (&[5, 10, 25, 50], 0.5),
    nda: (&[20, 50], 0.4),
};

fn cycle(rng: &mut SplitMix64) -> Cycle {
    let us = SimTime::from_micros;
    let stream = StreamSpec {
        start: us(rng.gen_range(0..2_000)),
        frames: 3,
        interval: SimDuration::from_millis(33),
        frame_payload: 60 * 1024,
        src: CAMERA,
        dst: FUSION,
        class: TrafficClass::Stream,
        priority: 3,
        trace: TraceCtx::NONE,
    };
    let calls = (0..RPCS_PER_CYCLE)
        .map(|k| RpcCall {
            time: us(k * 20_000 + rng.gen_range(0..5_000u64)),
            client: PLANNER,
            server: FUSION,
            request_payload: 128,
            response_payload: 2048,
            processing: SimDuration::from_micros(rng.gen_range(300..500)),
            class: TrafficClass::Stream,
            priority: 2,
            trace: TraceCtx::NONE,
        })
        .collect();
    let (tasks, _) = task_set(rng, &PLANNER_SET);
    let policy = Policy::FpWithServer(PeriodicServer::new(
        SimDuration::from_millis(10),
        SimDuration::from_millis(25),
    ));
    let sched = SchedSimConfig {
        horizon: CYCLE,
        seed: rng.gen(),
        ..SchedSimConfig::default()
    };
    let brakes = (0..BRAKES_PER_CYCLE as u64)
        .map(|k| {
            let at = us(k * 10_000 + rng.gen_range(0..1_000u64));
            (at, rng.gen::<u64>().to_le_bytes())
        })
        .collect();
    // Bulk at 85% of the best-effort gate share (three 1500 B frames per
    // 1 ms gate cycle): one frame per 390 µs slot, at a random instant.
    let bulk = (0..CYCLE.as_micros() / BULK_SLOT_US)
        .map(|j| MessageSend {
            id: BRAKES_PER_CYCLE as u64 + j,
            time: us(j * BULK_SLOT_US + rng.gen_range(0..BULK_SLOT_US)),
            src: INFOTAINMENT,
            dst: FUSION,
            payload: 1500,
            class: TrafficClass::BestEffort,
            priority: 6,
            trace: TraceCtx::NONE,
        })
        .collect();
    let publications = (0..EVENTS_PER_CYCLE)
        .map(|k| Publication {
            time: us(k * 10_000 + 500 + rng.gen_range(0..500u64)),
            instance: ServiceInstance::new(BRAKE_SERVICE, 1),
            group: EventGroupId(1),
            src: PLANNER,
            payload: 16,
            class: TrafficClass::Critical,
            priority: 1,
            trace: TraceCtx::NONE,
        })
        .collect();
    Cycle {
        stream,
        calls,
        tasks,
        policy,
        sched,
        brakes,
        bulk,
        publications,
    }
}

impl Adas {
    /// Builds the fabric, the directory and the seed's pool of cycles.
    pub fn new(seed: u64) -> Self {
        let topo = topology();
        let mut fabric = Fabric::new(topo.clone());
        fabric.set_port(BACKBONE, BusPort::tsn_for(BusKind::ethernet_100m(), gcl()));
        let mut rng = SplitMix64::new(split_seed(seed, 0xADA5));
        let pool = (0..POOL).map(|_| cycle(&mut rng)).collect();
        let registry = MetricsRegistry::new();
        Adas {
            fabric,
            directory: directory(),
            pool,
            stream_scratch: StreamScratch::new(),
            stream_stats: None,
            rpc_scratch: RpcScratch::new(),
            rpc_out: Vec::new(),
            sched_stats: None,
            frames: vec![Vec::new(); BRAKES_PER_CYCLE],
            staged: Vec::with_capacity(BRAKES_PER_CYCLE),
            sends: Vec::new(),
            deliveries: Vec::new(),
            event_scratch: EventScratch::new(),
            event_out: Vec::new(),
            spill_counter: dynplat_obs::global().counter("comm.fabric.ring_spills"),
            drop_counter: dynplat_obs::global().counter("comm.fabric.dropped_unreachable"),
            seen: Vec::new(),
            brake_lat_ns: Vec::new(),
            da: (0, 0),
            replay: Replay {
                routes: RouteCache::new(&topo),
                gcl: gcl(),
                ring: SpscRing::new(8),
                hist: LocalHistogram::new(),
                target: registry.histogram("replay.latency_ns"),
                path: Vec::new(),
                arrivals: [Vec::new(), Vec::new(), Vec::new()],
            },
            c: Counts::default(),
        }
    }
}

impl Workload for Adas {
    fn pool_len(&self) -> usize {
        self.pool.len()
    }

    fn run_unit(&mut self, i: usize, tr: &mut Tracer) {
        let c = &self.pool[i];
        tr.begin("comm.paradigm.stream");
        let stream = run_stream_into(&mut self.fabric, &c.stream, &mut self.stream_scratch);
        tr.end();
        self.stream_stats = Some(stream);

        tr.begin("comm.paradigm.rpc");
        run_rpc_into(
            &mut self.fabric,
            &c.calls,
            &mut self.rpc_scratch,
            &mut self.rpc_out,
        );
        tr.end();

        tr.begin("sched.simulate.fp_server");
        let stats = simulate_schedule(&c.tasks, &c.policy, &c.sched);
        tr.end();
        self.sched_stats = Some(stats);

        tr.begin("comm.wire");
        for (k, (_, cmd)) in c.brakes.iter().enumerate() {
            SomeIpHeader::request(BRAKE_SERVICE, BRAKE_METHOD, PLANNER.raw(), k as u16)
                .encode_into(cmd, &mut self.frames[k]);
        }
        tr.end();
        tr.begin("comm.arena");
        for frame in &self.frames[..c.brakes.len()] {
            self.staged.push(self.fabric.stage_payload(frame));
        }
        tr.end();

        self.sends.clear();
        for (k, &(time, _)) in c.brakes.iter().enumerate() {
            self.sends.push(MessageSend {
                id: k as u64,
                time,
                src: PLANNER,
                dst: BRAKE,
                payload: self.frames[k].len(),
                class: TrafficClass::Critical,
                priority: 0,
                trace: TraceCtx::NONE,
            });
        }
        self.sends.extend_from_slice(&c.bulk);
        self.deliveries.clear();
        let counters = tr
            .is_on()
            .then(|| (self.spill_counter.get(), self.drop_counter.get()));
        tr.begin("comm.fabric");
        self.fabric
            .run_batch(&self.sends, &mut self.deliveries, |_, _| {});
        tr.end();
        if let Some((spills, dropped)) = counters {
            self.c.spills += self.spill_counter.get() - spills;
            self.c.dropped += self.drop_counter.get() - dropped;
        }
        tr.begin("comm.arena");
        for r in self.staged.drain(..) {
            self.fabric.release_payload(r);
        }
        tr.end();

        tr.begin("comm.paradigm.event");
        EventBus::new(&mut self.fabric, &self.directory).publish_all_into(
            &c.publications,
            &mut self.event_scratch,
            &mut self.event_out,
        );
        tr.end();
    }

    fn replay(&mut self, i: usize, tr: &mut Tracer) {
        let c = &self.pool[i];
        let Replay {
            routes,
            gcl,
            ring,
            hist,
            target,
            path,
            arrivals,
        } = &mut self.replay;

        tr.begin("hw.routes");
        for s in &self.sends {
            let _ = black_box(routes.route_slice(s.src, s.dst).map(<[BusId]>::len));
        }
        tr.end();

        // Segment trace of the batch: every hop's frames, at the message's
        // send time plus one gateway delay per earlier hop.
        for a in arrivals.iter_mut() {
            a.clear();
        }
        let mut segments = 0u64;
        for s in &self.sends {
            path.clear();
            path.extend_from_slice(
                routes
                    .route_slice(s.src, s.dst)
                    .expect("routed by the fabric"),
            );
            for (hop, &bus) in path.iter().enumerate() {
                let (kind, mtu) = match bus {
                    BACKBONE => (1, 1500),
                    CHASSIS_CAN => (2, 8),
                    _ => (0, 1500),
                };
                let arrival = s.time + GATEWAY_DELAY * hop as u64;
                let total = s.payload.max(1);
                let (full, rest) = (total / mtu, total % mtu);
                for seg in 0..full + usize::from(rest > 0) {
                    arrivals[kind].push(TxEvent {
                        arrival,
                        frame: Frame {
                            id: MessageId(s.id as u32),
                            payload: if seg < full { mtu } else { rest },
                            priority: s.priority,
                            class: s.class,
                        },
                    });
                }
                segments += (full + usize::from(rest > 0)) as u64;
            }
        }
        let rate = BusKind::ethernet_100m().bitrate();
        let events = arrivals[0].clone();
        let mut eth = StrictPriorityPort::new(rate);
        tr.begin("net.eth");
        black_box(dynplat_net::simulate(&mut eth, events).len());
        tr.end();
        let events = arrivals[1].clone();
        let mut tsn = TsnGatedPort::new(rate, gcl.clone());
        tr.begin("net.tsn");
        black_box(dynplat_net::simulate(&mut tsn, events).len());
        tr.end();
        let events = arrivals[2].clone();
        let mut can = CanArbiter::new(BusKind::can_500k().bitrate());
        tr.begin("net.can");
        black_box(dynplat_net::simulate(&mut can, events).len());
        tr.end();

        tr.begin("comm.ring");
        for k in 0..segments {
            let entry = RingEntry {
                time: SimTime::from_nanos(k),
                seq: k,
                slot: k as u32,
            };
            let pushed = ring.try_push(entry);
            black_box((pushed, ring.pop()));
        }
        tr.end();

        tr.begin("obs.metrics");
        for d in &self.deliveries {
            hist.record(d.latency().as_nanos());
        }
        hist.flush_into(target);
        tr.end();

        let counts = &mut self.c;
        counts.deliveries += self.deliveries.len() as u64;
        counts.stream_msgs += c.stream.frames as u64;
        counts.rpc_msgs += 2 * c.calls.len() as u64;
        counts.event_msgs += self.event_scratch.fanout_sends() as u64;
        counts.encodes += c.brakes.len() as u64;
        counts.stages += c.brakes.len() as u64;
        counts.ring_ops += 2 * segments;
        counts.segments += segments;
        counts.lookups += self.sends.len() as u64;
        // Derived from the call structure, not counted: no layer counts
        // prefetches, and `EventBus::publish_all_into` prefetches the
        // source's route row once per publication.
        counts.prefetches += c.publications.len() as u64;
        for (k, a) in arrivals.iter().enumerate() {
            counts.frames[k] += a.len() as u64;
        }
        counts.tsn_dropped += tsn.dropped();
        counts.records += self.deliveries.len() as u64;
        counts.jobs[2] += jobs_of(self.sched_stats.as_ref().expect("unit ran"));
    }

    fn inspect(&mut self, i: usize, collect: bool) -> UnitCheck {
        let c = &self.pool[i];
        let mut d = Digest::new();
        let mut ok = true;

        let s = self.stream_stats.take().expect("unit ran");
        ok &= s.sent == c.stream.frames && s.delivered == s.sent;
        for v in [
            s.delivered as u64,
            s.sent as u64,
            s.mean_latency.as_nanos(),
            s.max_decodable_latency.as_nanos(),
            s.jitter.as_nanos(),
        ] {
            d.word(v);
        }

        ok &= self.rpc_out.len() == c.calls.len();
        for r in &self.rpc_out {
            d.word(r.call as u64);
            d.word(r.round_trip.as_nanos());
            d.word(r.request_latency.as_nanos());
            d.word(r.response_latency.as_nanos());
        }

        let stats = self.sched_stats.take().expect("unit ran");
        ok &= digest_sched(&stats, &mut d);

        for (k, (_, cmd)) in c.brakes.iter().enumerate() {
            ok &= matches!(SomeIpHeader::decode(&self.frames[k]),
                Ok((h, payload)) if payload == cmd && usize::from(h.session) == k);
        }

        // Every send of the batch delivered exactly once.
        ok &= self.deliveries.len() == self.sends.len();
        self.seen.clear();
        self.seen.resize(self.sends.len(), false);
        for del in &self.deliveries {
            match self.seen.get_mut(del.id as usize) {
                Some(seen) if !*seen => *seen = true,
                _ => ok = false,
            }
            d.word(del.id);
            d.word(del.delivered.as_nanos());
        }

        // Every publication reaches every subscriber exactly once.
        ok &= self.event_out.len() == c.publications.len() * SUBSCRIBERS.len();
        self.seen.clear();
        self.seen.resize(self.event_out.len(), false);
        for (idx, host, del) in &self.event_out {
            let sub = SUBSCRIBERS.iter().position(|h| h == host);
            match sub.and_then(|s| self.seen.get_mut(idx * SUBSCRIBERS.len() + s)) {
                Some(seen) if !*seen => *seen = true,
                _ => ok = false,
            }
            d.word(*idx as u64);
            d.word(u64::from(host.raw()));
            d.word(del.delivered.as_nanos());
        }

        let completions: u64 = stats.tasks.iter().map(|t| t.completions).sum();
        if collect {
            for del in self
                .deliveries
                .iter()
                .filter(|d| d.id < c.brakes.len() as u64)
            {
                self.brake_lat_ns.push(del.latency().as_nanos());
            }
            let (m, a) = da_misses(&stats);
            self.da.0 += m;
            self.da.1 += a;
        }
        UnitCheck {
            digest: d.finish(),
            ok,
            events: (s.delivered
                + 2 * self.rpc_out.len()
                + self.deliveries.len()
                + self.event_out.len()) as u64
                + completions,
            sim_ns: CYCLE.as_nanos(),
        }
    }

    fn sim_stats(&self) -> SimStats {
        let mut lat = self.brake_lat_ns.clone();
        lat.sort_unstable();
        let p99 = crate::nearest_rank(&lat, 0.99) as f64 / 1e3;
        SimStats {
            brake_us_p99: Some(p99),
            da_miss_frac: Some(per(self.da.0 as f64, self.da.1 as f64)),
        }
    }

    fn layer_metrics(&self, tr: &Tracer, units: f64, m: &mut Metrics) {
        let c = &self.c;
        let ns = |name: &str| tr.totals(name).ns as f64;
        let fabric_ns = ns("comm.fabric");
        let deliveries = c.deliveries as f64;
        let replayed = ns("hw.routes")
            + tr.totals_prefix("net.").ns as f64
            + ns("comm.ring")
            + ns("obs.metrics");
        m.set("comm.fabric.deliveries", per(deliveries, units));
        m.set("comm.fabric.ns_per_delivery", per(fabric_ns, deliveries));
        m.set(
            "comm.fabric.self_ns_per_delivery",
            per(fabric_ns - replayed, deliveries),
        );
        m.set("comm.fabric.ring_spills", per(c.spills as f64, units));
        m.set("comm.fabric.dropped", per(c.dropped as f64, units));
        for (span, msgs, ns_name, msgs_name) in [
            (
                "comm.paradigm.stream",
                c.stream_msgs,
                "comm.paradigm.stream.ns_per_call",
                "comm.paradigm.stream.msgs_per_call",
            ),
            (
                "comm.paradigm.rpc",
                c.rpc_msgs,
                "comm.paradigm.rpc.ns_per_call",
                "comm.paradigm.rpc.msgs_per_call",
            ),
            (
                "comm.paradigm.event",
                c.event_msgs,
                "comm.paradigm.event.ns_per_call",
                "comm.paradigm.event.msgs_per_call",
            ),
        ] {
            let t = tr.totals(span);
            m.set(ns_name, per(t.ns as f64, t.count as f64));
            m.set(msgs_name, per(msgs as f64, t.count as f64));
        }
        m.set("comm.wire.encodes", per(c.encodes as f64, units));
        m.set(
            "comm.wire.ns_per_encode",
            per(ns("comm.wire"), c.encodes as f64),
        );
        let arena = self.fabric.arena_stats();
        m.set("comm.arena.stages", per(c.stages as f64, units));
        m.set(
            "comm.arena.ns_per_stage",
            per(ns("comm.arena"), c.stages as f64),
        );
        m.set("comm.arena.live", arena.live as f64);
        m.set("comm.arena.free", arena.free as f64);
        m.set("comm.ring.ops", per(c.ring_ops as f64, units));
        m.set(
            "comm.ring.ns_per_op",
            per(ns("comm.ring"), c.ring_ops as f64),
        );
        m.set(
            "comm.ring.spill_frac",
            per(c.spills as f64, c.segments as f64),
        );
        m.set("hw.routes.lookups", per(c.lookups as f64, units));
        m.set(
            "hw.routes.ns_per_lookup",
            per(ns("hw.routes"), c.lookups as f64),
        );
        m.set("hw.routes.prefetches", per(c.prefetches as f64, units));
        for (k, (span, frames, ns_name)) in [
            ("net.eth", "net.eth.frames", "net.eth.ns_per_frame"),
            ("net.tsn", "net.tsn.frames", "net.tsn.ns_per_frame"),
            ("net.can", "net.can.frames", "net.can.ns_per_frame"),
        ]
        .into_iter()
        .enumerate()
        {
            m.set(frames, per(c.frames[k] as f64, units));
            m.set(ns_name, per(ns(span), c.frames[k] as f64));
        }
        m.set("net.tsn.dropped", per(c.tsn_dropped as f64, units));
        sched_metrics(tr, &c.jobs, units, m);
        m.set("obs.metrics.records", per(c.records as f64, units));
        m.set(
            "obs.metrics.ns_per_record",
            per(ns("obs.metrics"), c.records as f64),
        );
    }
}
