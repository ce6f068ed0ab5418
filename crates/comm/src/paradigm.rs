//! The three communication paradigms of §2.1 (Fig. 3).
//!
//! * **Event** — one-way publish/subscribe: a producer owns the interface,
//!   consumers subscribe to a topic, every publication fans out to all
//!   current subscribers;
//! * **Message** — two-way request/response (RPC): the consumer of the
//!   message owns the interface ("offering the service"); essential for
//!   command & control;
//! * **Stream** — one-way continuous data where frame *n* depends on its
//!   predecessors; a frame is *decodable* only once every earlier frame has
//!   arrived, so the decodable latency is the running maximum of arrival
//!   latencies.
//!
//! All three run over the same [`Fabric`], which is how E3 compares their
//! behavior across CAN, Ethernet and TSN.

use crate::arena::PayloadRef;
use crate::fabric::{Fabric, MessageDelivery, MessageSend};
use crate::sd::ServiceDirectory;
use crate::wire::SomeIpHeader;
use dynplat_common::ids::ServiceInstance;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{EcuId, EventGroupId, MethodId};
use dynplat_net::TrafficClass;
use dynplat_obs::{LocalHistogram, TraceCtx};

/// A single publication request.
#[derive(Clone, Debug)]
pub struct Publication {
    /// Publish time.
    pub time: SimTime,
    /// Publishing service instance.
    pub instance: ServiceInstance,
    /// Event group.
    pub group: EventGroupId,
    /// Host ECU of the producer.
    pub src: EcuId,
    /// Payload size (bytes).
    pub payload: usize,
    /// Traffic class.
    pub class: TrafficClass,
    /// Frame priority.
    pub priority: u32,
    /// Causal trace context; every fanout leg carries it.
    pub trace: TraceCtx,
}

/// Reusable scratch state for [`EventBus::publish_all_into`]. One warmed
/// instance makes repeated publish batches allocation-free: send/metadata
/// buffers, the per-publication wire-frame encode buffer and the staged
/// payload refs all persist between calls.
#[derive(Debug, Default)]
pub struct EventScratch {
    sends: Vec<MessageSend>,
    /// `send id -> (publication index, subscriber host)`.
    meta: Vec<(u32, EcuId)>,
    deliveries: Vec<MessageDelivery>,
    /// Encode buffer for the one wire frame per publication.
    frame: Vec<u8>,
    /// Synthetic payload bytes (publications carry sizes, not contents).
    payload_buf: Vec<u8>,
    /// Arena refs staged by the previous call, released on the next one.
    staged: Vec<PayloadRef>,
    /// Per-batch latency accumulator, flushed to the registry once per
    /// call (five atomic RMWs per *batch* instead of per delivery).
    lat: LocalHistogram,
    /// `(host, expires)` of the subscribers resolved for `memo_key` —
    /// publications arrive in per-topic bursts, so consecutive ones reuse
    /// the directory lookup and only re-check expiry.
    sub_memo: Vec<(EcuId, SimTime)>,
    memo_key: Option<(ServiceInstance, EventGroupId)>,
}

impl EventScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        EventScratch::default()
    }

    /// Fabric sends issued by the most recent
    /// [`EventBus::publish_all_into`] — one per subscriber leg, i.e. the
    /// publish-side work at the fabric level.
    pub fn fanout_sends(&self) -> usize {
        self.sends.len()
    }
}

/// Event-paradigm driver: fans publications out to the directory's live
/// subscribers and reports per-delivery latency.
#[derive(Debug)]
pub struct EventBus<'a> {
    fabric: &'a mut Fabric,
    directory: &'a ServiceDirectory,
}

impl<'a> EventBus<'a> {
    /// Creates a driver over a fabric and a (pre-populated) directory.
    pub fn new(fabric: &'a mut Fabric, directory: &'a ServiceDirectory) -> Self {
        EventBus { fabric, directory }
    }

    /// Runs a batch of publications; returns `(publication index,
    /// subscriber host, delivery)` triples.
    ///
    /// Allocating convenience wrapper over
    /// [`EventBus::publish_all_into`].
    pub fn publish_all(
        &mut self,
        publications: &[Publication],
    ) -> Vec<(usize, EcuId, MessageDelivery)> {
        let mut scratch = EventScratch::new();
        let mut out = Vec::new();
        self.publish_all_into(publications, &mut scratch, &mut out);
        // The wrapper's scratch dies here: hand its staged refs back so
        // the fabric arena does not leak one block per publication.
        for r in scratch.staged.drain(..) {
            self.fabric.release_payload(r);
        }
        out
    }

    /// The batched zero-copy fanout path. For each publication the route
    /// row is prefetched once, the SOME/IP notification frame is encoded
    /// **once** into `scratch.frame` ([`SomeIpHeader::encode_into`], no
    /// per-leg encode) and staged **once** in the fabric's payload arena;
    /// every subscriber leg shares that staged frame and carries the
    /// publication's [`TraceCtx`]. `out` is cleared and refilled.
    ///
    /// Simulation semantics are identical to [`EventBus::publish_all`]:
    /// each leg's simulated size is the publication's `payload` field (the
    /// staged frame is the wire representation, header included, and stays
    /// in the arena until the next call on `scratch`).
    pub fn publish_all_into(
        &mut self,
        publications: &[Publication],
        scratch: &mut EventScratch,
        out: &mut Vec<(usize, EcuId, MessageDelivery)>,
    ) {
        dynplat_obs::counter!("comm.event.publications").add(publications.len() as u64);
        // Recycle the previous batch's staged frames first: steady state
        // then reuses the same arena blocks forever.
        for r in scratch.staged.drain(..) {
            self.fabric.release_payload(r);
        }
        scratch.sends.clear();
        scratch.meta.clear();
        // The memo is only sound against this call's directory borrow;
        // the scratch may be reused against another directory later.
        scratch.memo_key = None;
        for (idx, p) in publications.iter().enumerate() {
            // One route BFS per publication source (almost always a no-op
            // on a warmed cache), then each leg is a table lookup.
            let _ = self.fabric.prefetch_routes(p.src);
            // One wire frame per publication, shared by all legs.
            let header = SomeIpHeader::notification(p.instance.service, MethodId(p.group.raw()))
                .with_trace(p.trace);
            // Synthetic payload: always zeros, so only the length ever
            // changes — no per-publication refill.
            if scratch.payload_buf.len() != p.payload {
                scratch.payload_buf.clear();
                scratch.payload_buf.resize(p.payload, 0);
            }
            header.encode_into(&scratch.payload_buf, &mut scratch.frame);
            scratch
                .staged
                .push(self.fabric.stage_payload(&scratch.frame));
            // Publications come in per-topic bursts: resolve the
            // subscriber list once per (instance, group) run and re-check
            // only expiry per publication.
            if scratch.memo_key != Some((p.instance, p.group)) {
                scratch.sub_memo.clear();
                let memo = &mut scratch.sub_memo;
                self.directory
                    .for_each_subscriber(SimTime::ZERO, p.instance, p.group, |sub| {
                        memo.push((sub.host, sub.expires));
                    });
                scratch.memo_key = Some((p.instance, p.group));
            }
            for &(host, expires) in &scratch.sub_memo {
                if expires <= p.time {
                    continue;
                }
                let id = scratch.meta.len() as u64;
                scratch.meta.push((idx as u32, host));
                scratch.sends.push(MessageSend {
                    id,
                    time: p.time,
                    src: p.src,
                    dst: host,
                    payload: p.payload,
                    class: p.class,
                    priority: p.priority,
                    trace: p.trace,
                });
            }
        }
        dynplat_obs::counter!("comm.event.fanout_sends").add(scratch.sends.len() as u64);
        scratch.deliveries.clear();
        self.fabric
            .run_batch(&scratch.sends, &mut scratch.deliveries, |_, _| {});
        out.clear();
        out.reserve(scratch.deliveries.len());
        for d in scratch.deliveries.drain(..) {
            if let Some(&(idx, host)) = scratch.meta.get(d.id as usize) {
                scratch.lat.record(d.latency().as_nanos());
                out.push((idx as usize, host, d));
            }
        }
        dynplat_obs::counter!("comm.event.delivered").add(out.len() as u64);
        scratch
            .lat
            .flush_into(dynplat_obs::histogram!("comm.event.latency_ns"));
    }
}

/// One RPC invocation.
#[derive(Clone, Debug)]
pub struct RpcCall {
    /// Invocation time.
    pub time: SimTime,
    /// Client host.
    pub client: EcuId,
    /// Server host (the interface owner).
    pub server: EcuId,
    /// Request payload bytes.
    pub request_payload: usize,
    /// Response payload bytes.
    pub response_payload: usize,
    /// Server-side processing time.
    pub processing: SimDuration,
    /// Traffic class.
    pub class: TrafficClass,
    /// Frame priority.
    pub priority: u32,
    /// Causal trace context; the response inherits it from the request.
    pub trace: TraceCtx,
}

/// Result of one RPC: request latency, processing, response latency.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RpcStats {
    /// Index of the call in the input batch.
    pub call: usize,
    /// Client-observed round-trip time.
    pub round_trip: SimDuration,
    /// One-way request latency.
    pub request_latency: SimDuration,
    /// One-way response latency.
    pub response_latency: SimDuration,
}

/// Reusable scratch state for [`run_rpc_into`].
#[derive(Debug, Default)]
pub struct RpcScratch {
    sends: Vec<MessageSend>,
    deliveries: Vec<MessageDelivery>,
    /// `message id -> (sent, delivered)`; ids are dense in `0..2*calls`.
    by_id: Vec<Option<(SimTime, SimTime)>>,
    /// Per-batch round-trip accumulator, flushed once per call.
    rtt: LocalHistogram,
}

impl RpcScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        RpcScratch::default()
    }
}

/// Runs a batch of RPC calls over the fabric (request delivery triggers the
/// response injection) and reports round-trip statistics.
///
/// Allocating convenience wrapper over [`run_rpc_into`].
pub fn run_rpc(fabric: &mut Fabric, calls: &[RpcCall]) -> Vec<RpcStats> {
    let mut scratch = RpcScratch::new();
    let mut out = Vec::new();
    run_rpc_into(fabric, calls, &mut scratch, &mut out);
    out
}

/// The zero-allocation RPC driver: `scratch` buffers are reused across
/// batches and the response-injection closure borrows `calls` directly
/// (the old path cloned the whole batch per run). `out` is cleared and
/// refilled with one [`RpcStats`] per completed round-trip.
pub fn run_rpc_into(
    fabric: &mut Fabric,
    calls: &[RpcCall],
    scratch: &mut RpcScratch,
    out: &mut Vec<RpcStats>,
) {
    dynplat_obs::counter!("comm.rpc.calls").add(calls.len() as u64);
    // ids: request = 2k, response = 2k+1.
    scratch.sends.clear();
    scratch
        .sends
        .extend(calls.iter().enumerate().map(|(k, c)| MessageSend {
            id: 2 * k as u64,
            time: c.time,
            src: c.client,
            dst: c.server,
            payload: c.request_payload,
            class: c.class,
            priority: c.priority,
            trace: c.trace,
        }));
    scratch.deliveries.clear();
    fabric.run_batch(&scratch.sends, &mut scratch.deliveries, |d, inject| {
        if d.id % 2 == 0 {
            let c = &calls[(d.id / 2) as usize];
            inject.push(MessageSend {
                id: d.id + 1,
                time: d.delivered + c.processing,
                src: c.server,
                dst: c.client,
                payload: c.response_payload,
                class: c.class,
                priority: c.priority,
                // The response rides the request's causal chain.
                trace: d.trace,
            });
        }
    });
    scratch.by_id.clear();
    scratch.by_id.resize(calls.len() * 2, None);
    for d in &scratch.deliveries {
        if let Some(slot) = scratch.by_id.get_mut(d.id as usize) {
            *slot = Some((d.sent, d.delivered));
        }
    }
    out.clear();
    for k in 0..calls.len() {
        let (Some((req_sent, req_delivered)), Some((resp_sent, resp_delivered))) =
            (scratch.by_id[2 * k], scratch.by_id[2 * k + 1])
        else {
            continue; // lost request or response: no round-trip
        };
        let stats = RpcStats {
            call: k,
            round_trip: resp_delivered.saturating_since(req_sent),
            request_latency: req_delivered.saturating_since(req_sent),
            response_latency: resp_delivered.saturating_since(resp_sent),
        };
        scratch.rtt.record(stats.round_trip.as_nanos());
        out.push(stats);
    }
    dynplat_obs::counter!("comm.rpc.completed").add(out.len() as u64);
    scratch
        .rtt
        .flush_into(dynplat_obs::histogram!("comm.rpc.round_trip_ns"));
}

/// A continuous stream specification.
#[derive(Clone, Debug)]
pub struct StreamSpec {
    /// First frame emission time.
    pub start: SimTime,
    /// Frames to send.
    pub frames: usize,
    /// Inter-frame interval at the source.
    pub interval: SimDuration,
    /// Bytes per frame.
    pub frame_payload: usize,
    /// Source ECU.
    pub src: EcuId,
    /// Sink ECU.
    pub dst: EcuId,
    /// Traffic class.
    pub class: TrafficClass,
    /// Frame priority.
    pub priority: u32,
    /// Causal trace context; chunk *n* inherits it with span id *n*.
    pub trace: TraceCtx,
}

/// Aggregated stream results, honoring inter-frame dependencies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamStats {
    /// Frames delivered.
    pub delivered: usize,
    /// Frames sent.
    pub sent: usize,
    /// Mean raw arrival latency.
    pub mean_latency: SimDuration,
    /// Maximum *decodable* latency: frame n is decodable only when frames
    /// 0..=n have all arrived.
    pub max_decodable_latency: SimDuration,
    /// Arrival jitter (max − min raw latency).
    pub jitter: SimDuration,
}

/// Reusable scratch state for [`run_stream_into`].
#[derive(Debug, Default)]
pub struct StreamScratch {
    sends: Vec<MessageSend>,
    deliveries: Vec<MessageDelivery>,
    /// `frame id -> (sent, delivered)`; ids are dense in `0..frames`.
    arrival: Vec<Option<(SimTime, SimTime)>>,
    /// Per-run latency accumulator, flushed once per call.
    lat: LocalHistogram,
}

impl StreamScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        StreamScratch::default()
    }
}

/// Runs one stream over the fabric and aggregates dependency-aware
/// statistics.
///
/// Allocating convenience wrapper over [`run_stream_into`].
pub fn run_stream(fabric: &mut Fabric, spec: &StreamSpec) -> StreamStats {
    run_stream_into(fabric, spec, &mut StreamScratch::new())
}

/// The zero-allocation stream driver: `scratch` buffers are reused across
/// runs, so a warmed scratch makes repeated streams allocation-free.
pub fn run_stream_into(
    fabric: &mut Fabric,
    spec: &StreamSpec,
    scratch: &mut StreamScratch,
) -> StreamStats {
    scratch.sends.clear();
    scratch.sends.extend((0..spec.frames).map(|n| MessageSend {
        id: n as u64,
        time: spec.start + spec.interval * n as u64,
        src: spec.src,
        dst: spec.dst,
        payload: spec.frame_payload,
        class: spec.class,
        priority: spec.priority,
        trace: if spec.trace.is_active() {
            spec.trace.child(n as u64)
        } else {
            TraceCtx::NONE
        },
    }));
    dynplat_obs::counter!("comm.stream.frames_sent").add(spec.frames as u64);
    scratch.deliveries.clear();
    fabric.run_batch(&scratch.sends, &mut scratch.deliveries, |_, _| {});
    // Frame ids are dense in 0..frames: index arrivals by id in a Vec.
    scratch.arrival.clear();
    scratch.arrival.resize(spec.frames, None);
    for d in &scratch.deliveries {
        if let Some(slot) = scratch.arrival.get_mut(d.id as usize) {
            *slot = Some((d.sent, d.delivered));
        }
    }
    let mut lat_min = SimDuration::MAX;
    let mut lat_max = SimDuration::ZERO;
    let mut lat_sum = SimDuration::ZERO;
    let mut delivered = 0usize;
    let mut decodable_at = SimTime::ZERO;
    let mut max_decodable = SimDuration::ZERO;
    for slot in &scratch.arrival {
        let Some((sent, arrived)) = *slot else {
            break; // dependency chain broken: later frames undecodable
        };
        delivered += 1;
        let lat = arrived.saturating_since(sent);
        scratch.lat.record(lat.as_nanos());
        lat_min = lat_min.min(lat);
        lat_max = lat_max.max(lat);
        lat_sum += lat;
        decodable_at = decodable_at.max(arrived);
        max_decodable = max_decodable.max(decodable_at.saturating_since(sent));
    }
    dynplat_obs::counter!("comm.stream.frames_delivered").add(delivered as u64);
    scratch
        .lat
        .flush_into(dynplat_obs::histogram!("comm.stream.latency_ns"));
    StreamStats {
        delivered,
        sent: spec.frames,
        mean_latency: if delivered > 0 {
            lat_sum / delivered as u64
        } else {
            SimDuration::ZERO
        },
        max_decodable_latency: max_decodable,
        jitter: if delivered > 0 {
            lat_max.saturating_sub(lat_min)
        } else {
            SimDuration::ZERO
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sd::SdEntry;
    use dynplat_common::{AppId, BusId, ServiceId};
    use dynplat_hw::ecu::{EcuClass, EcuSpec};
    use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};

    fn topo() -> HwTopology {
        HwTopology::from_parts(
            [
                EcuSpec::of_class(EcuId(0), "a", EcuClass::Domain),
                EcuSpec::of_class(EcuId(1), "b", EcuClass::Domain),
                EcuSpec::of_class(EcuId(2), "c", EcuClass::HighPerformance),
            ],
            [BusSpec::new(
                BusId(0),
                "eth0",
                BusKind::ethernet_100m(),
                [EcuId(0), EcuId(1), EcuId(2)],
            )],
        )
        .expect("test topology is well-formed")
    }

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn event_fans_out_to_all_subscribers() {
        let mut fabric = Fabric::new(topo());
        let mut dir = ServiceDirectory::new();
        let instance = ServiceInstance::new(ServiceId(1), 0);
        for (app, host) in [(10u32, 1u16), (11, 2)] {
            dir.apply(
                SimTime::ZERO,
                &SdEntry::Subscribe {
                    instance,
                    group: EventGroupId(1),
                    subscriber: AppId(app),
                    host: EcuId(host),
                    ttl: SimDuration::from_secs(10),
                },
            );
        }
        let mut bus = EventBus::new(&mut fabric, &dir);
        let pubs = vec![Publication {
            time: SimTime::ZERO,
            instance,
            group: EventGroupId(1),
            src: EcuId(0),
            payload: 100,
            class: TrafficClass::BestEffort,
            priority: 3,
            trace: TraceCtx::NONE,
        }];
        let results = bus.publish_all(&pubs);
        assert_eq!(results.len(), 2);
        let hosts: Vec<EcuId> = results.iter().map(|(_, h, _)| *h).collect();
        assert!(hosts.contains(&EcuId(1)) && hosts.contains(&EcuId(2)));
    }

    #[test]
    fn publish_all_into_matches_wrapper_and_recycles_arena() {
        let mut dir = ServiceDirectory::new();
        let instance = ServiceInstance::new(ServiceId(1), 0);
        for (app, host) in [(10u32, 1u16), (11, 2)] {
            dir.apply(
                SimTime::ZERO,
                &SdEntry::Subscribe {
                    instance,
                    group: EventGroupId(1),
                    subscriber: AppId(app),
                    host: EcuId(host),
                    ttl: SimDuration::from_secs(10),
                },
            );
        }
        let pubs: Vec<Publication> = (0..8)
            .map(|k| Publication {
                time: SimTime::from_micros(k * 300),
                instance,
                group: EventGroupId(1),
                src: EcuId(0),
                payload: 100,
                class: TrafficClass::BestEffort,
                priority: 3,
                trace: TraceCtx::NONE,
            })
            .collect();
        let mut f1 = Fabric::new(topo());
        let baseline = EventBus::new(&mut f1, &dir).publish_all(&pubs);

        let mut f2 = Fabric::new(topo());
        let mut scratch = EventScratch::new();
        let mut out = Vec::new();
        let mut bytes_after_warmup = 0;
        for round in 0..3 {
            let mut bus = EventBus::new(&mut f2, &dir);
            bus.publish_all_into(&pubs, &mut scratch, &mut out);
            assert_eq!(out, baseline, "round {round} must match the wrapper");
            // One staged wire frame per publication, decodable until the
            // next call, carrying the notification header.
            assert_eq!(scratch.staged.len(), pubs.len());
            let (h, body) =
                SomeIpHeader::decode(f2.payload(scratch.staged[0])).expect("staged frame decodes");
            assert_eq!(
                (h.service, h.method, body.len()),
                (ServiceId(1), MethodId(1), 100)
            );
            let stats = f2.arena_stats();
            assert_eq!(stats.live, pubs.len());
            if round == 0 {
                bytes_after_warmup = stats.bytes;
            } else {
                assert_eq!(
                    stats.bytes, bytes_after_warmup,
                    "steady-state staging must recycle, not grow"
                );
            }
        }
    }

    #[test]
    fn rpc_and_stream_into_match_wrappers() {
        let calls: Vec<RpcCall> = (0..6)
            .map(|k| RpcCall {
                time: SimTime::from_micros(k * 80),
                client: EcuId(0),
                server: EcuId(1),
                request_payload: 64,
                response_payload: 128,
                processing: us(100),
                class: TrafficClass::BestEffort,
                priority: 1,
                trace: TraceCtx::NONE,
            })
            .collect();
        let mut f1 = Fabric::new(topo());
        let baseline = run_rpc(&mut f1, &calls);
        let mut f2 = Fabric::new(topo());
        let mut scratch = RpcScratch::new();
        let mut out = Vec::new();
        for _ in 0..3 {
            run_rpc_into(&mut f2, &calls, &mut scratch, &mut out);
            assert_eq!(out, baseline);
        }

        let spec = StreamSpec {
            start: SimTime::ZERO,
            frames: 20,
            interval: us(250),
            frame_payload: 1200,
            src: EcuId(0),
            dst: EcuId(2),
            class: TrafficClass::Stream,
            priority: 4,
            trace: TraceCtx::NONE,
        };
        let mut f3 = Fabric::new(topo());
        let baseline = run_stream(&mut f3, &spec);
        let mut f4 = Fabric::new(topo());
        let mut scratch = StreamScratch::new();
        for _ in 0..3 {
            assert_eq!(run_stream_into(&mut f4, &spec, &mut scratch), baseline);
        }
    }

    #[test]
    fn no_subscribers_means_no_traffic() {
        let mut fabric = Fabric::new(topo());
        let dir = ServiceDirectory::new();
        let mut bus = EventBus::new(&mut fabric, &dir);
        let pubs = vec![Publication {
            time: SimTime::ZERO,
            instance: ServiceInstance::new(ServiceId(1), 0),
            group: EventGroupId(1),
            src: EcuId(0),
            payload: 100,
            class: TrafficClass::BestEffort,
            priority: 3,
            trace: TraceCtx::NONE,
        }];
        assert!(bus.publish_all(&pubs).is_empty());
    }

    #[test]
    fn rpc_round_trip_includes_processing() {
        let mut fabric = Fabric::new(topo());
        let calls = vec![RpcCall {
            time: SimTime::ZERO,
            client: EcuId(0),
            server: EcuId(2),
            request_payload: 64,
            response_payload: 256,
            processing: us(500),
            class: TrafficClass::BestEffort,
            priority: 1,
            trace: TraceCtx::NONE,
        }];
        let stats = run_rpc(&mut fabric, &calls);
        assert_eq!(stats.len(), 1);
        let s = &stats[0];
        assert!(s.round_trip >= s.request_latency + us(500) + s.response_latency);
        assert!(s.round_trip < us(1000), "got {}", s.round_trip);
    }

    #[test]
    fn rpc_batch_keeps_call_identity() {
        let mut fabric = Fabric::new(topo());
        let calls: Vec<RpcCall> = (0..5)
            .map(|k| RpcCall {
                time: SimTime::from_micros(k * 50),
                client: EcuId(0),
                server: EcuId(1),
                request_payload: 64,
                response_payload: 64,
                processing: us(100),
                class: TrafficClass::BestEffort,
                priority: 1,
                trace: TraceCtx::NONE,
            })
            .collect();
        let stats = run_rpc(&mut fabric, &calls);
        assert_eq!(stats.len(), 5);
        for (k, s) in stats.iter().enumerate() {
            assert_eq!(s.call, k);
        }
    }

    #[test]
    fn rpc_response_and_stream_chunks_inherit_trace() {
        use dynplat_obs::FlightRecorder;
        use std::sync::Arc;

        let mut fabric = Fabric::new(topo());
        let fr = Arc::new(FlightRecorder::new(256));
        fr.arm();
        fabric.attach_flight_recorder(fr.clone());

        let calls = vec![RpcCall {
            time: SimTime::ZERO,
            client: EcuId(0),
            server: EcuId(2),
            request_payload: 64,
            response_payload: 64,
            processing: us(100),
            class: TrafficClass::BestEffort,
            priority: 1,
            trace: TraceCtx::new(0xA1, 5),
        }];
        assert_eq!(run_rpc(&mut fabric, &calls).len(), 1);
        // Request and response both recorded under the caller's trace id:
        // two sends and two deliveries on chain 0xA1.
        let events = fr.events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.trace == TraceCtx::new(0xA1, 5)));

        fr.clear();
        let spec = StreamSpec {
            start: SimTime::ZERO,
            frames: 3,
            interval: us(200),
            frame_payload: 100,
            src: EcuId(0),
            dst: EcuId(2),
            class: TrafficClass::Stream,
            priority: 4,
            trace: TraceCtx::root(0xB2),
        };
        let stats = run_stream(&mut fabric, &spec);
        assert_eq!(stats.delivered, 3);
        let events = fr.events();
        assert!(events.iter().all(|e| e.trace.trace_id == 0xB2));
        // Chunk n is span n of the stream's trace.
        let spans: Vec<u64> = events
            .iter()
            .filter(|e| e.stage == "comm.fabric.send")
            .map(|e| e.trace.span)
            .collect();
        assert_eq!(spans, vec![0, 1, 2]);
    }

    #[test]
    fn stream_decodable_latency_dominates_raw() {
        let mut fabric = Fabric::new(topo());
        let spec = StreamSpec {
            start: SimTime::ZERO,
            frames: 50,
            interval: us(200),
            frame_payload: 1400,
            src: EcuId(0),
            dst: EcuId(2),
            class: TrafficClass::Stream,
            priority: 4,
            trace: TraceCtx::NONE,
        };
        let stats = run_stream(&mut fabric, &spec);
        assert_eq!(stats.delivered, 50);
        assert!(stats.max_decodable_latency >= stats.mean_latency);
        assert!(stats.jitter <= stats.max_decodable_latency);
    }

    #[test]
    fn congested_stream_has_higher_jitter_than_idle() {
        let spec = StreamSpec {
            start: SimTime::ZERO,
            frames: 100,
            interval: us(150),
            frame_payload: 1400,
            src: EcuId(0),
            dst: EcuId(2),
            class: TrafficClass::Stream,
            priority: 4,
            trace: TraceCtx::NONE,
        };
        let mut idle_fabric = Fabric::new(topo());
        let idle = run_stream(&mut idle_fabric, &spec);

        // Saturating cross traffic with *higher* priority than the stream.
        let mut busy_fabric = Fabric::new(topo());
        let cross: Vec<MessageSend> = (0..300)
            .map(|i| MessageSend {
                id: 10_000 + i,
                time: SimTime::from_micros(i * 40),
                src: EcuId(1),
                dst: EcuId(2),
                payload: 1500,
                class: TrafficClass::BestEffort,
                priority: 0,
                trace: TraceCtx::NONE,
            })
            .collect();
        // Run cross traffic and stream together: merge by injecting cross
        // traffic through the callback of a dummy first message is clumsy;
        // instead send cross traffic as part of one batch with the stream.
        let mut sends: Vec<MessageSend> = (0..spec.frames)
            .map(|n| MessageSend {
                id: n as u64,
                time: spec.start + spec.interval * n as u64,
                src: spec.src,
                dst: spec.dst,
                payload: spec.frame_payload,
                class: spec.class,
                priority: spec.priority,
                trace: TraceCtx::NONE,
            })
            .collect();
        sends.extend(cross);
        let deliveries = busy_fabric.run(sends, |_| vec![]);
        let stream_lats: Vec<SimDuration> = (0..spec.frames as u64)
            .filter_map(|n| deliveries.iter().find(|d| d.id == n).map(|d| d.latency()))
            .collect();
        let busy_max = stream_lats
            .iter()
            .copied()
            .max()
            .expect("stream frames must deliver under congestion");
        let busy_min = stream_lats
            .iter()
            .copied()
            .min()
            .expect("stream frames must deliver under congestion");
        assert!(
            busy_max - busy_min > idle.jitter,
            "congestion should add jitter"
        );
    }
}
