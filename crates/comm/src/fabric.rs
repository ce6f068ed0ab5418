//! Multi-bus network fabric.
//!
//! Connects the `dynplat-hw` topology with the `dynplat-net` media: a
//! message from ECU A to ECU B is routed over the bus path, segmented to
//! each medium's maximum frame payload (8 B on CAN, 254 B on FlexRay,
//! 1500 B on Ethernet), forwarded store-and-forward at gateway ECUs with a
//! configurable processing delay, and delivered when its last segment
//! arrives. A delivery callback lets higher layers inject reactions (RPC
//! responses, re-publications) into the same simulation run.
//!
//! # Hot-path design
//!
//! [`Fabric::run_batch`] is the innermost loop of every paradigm benchmark
//! and every fault-injection campaign. Steady state performs **zero heap
//! allocations** (enforced by the bench bin's counting allocator):
//!
//! * the event loop takes the global minimum `(time, seq)` across three
//!   sources: the sorted injection cursor, one pending poll per bus, and
//!   a binary heap of sends injected by the delivery callback. The order
//!   is the exact FIFO tie-break of a single-heap engine;
//! * a bus's pending poll is a *scalar* `(time, seq)` pair, and it carries
//!   the granted frame's `TxDone` with it: the `TxDone` and the follow-up
//!   poll fall at the same instant with nothing between them, so one slot
//!   and one sequence number stand for both;
//! * a **fast drain** pump: when every other pending event is strictly
//!   later than a granted transmission's end, the bus is polled in a
//!   tight loop and `TxDone`s are processed inline — the common
//!   uncongested case costs no scan of the event sources at all;
//! * in-flight messages live in a free-list slab (`MsgSlab`) keyed by
//!   recycled `u32` slots that double as frame ids on the wire; a message
//!   keeps only its hop count and reads each hop's bus from the route
//!   cache, whose filled rows never change;
//! * all run scratch (slab, heap, order index, per-bus state) is owned by
//!   the [`Fabric`] and reused across runs;
//! * hot counters accumulate in locals and latency in a
//!   [`LocalHistogram`], flushed to the metrics registry once per run;
//! * staged wire payloads live in a per-fabric [`PayloadArena`] keyed by
//!   recycled refs, so fanout legs share one encoded frame (zero-copy).

use crate::arena::{ArenaStats, PayloadArena, PayloadRef};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{BusId, EcuId, MessageId};
use dynplat_hw::{BusKind, HwTopology, RouteCache, TopologyError};
use dynplat_net::{
    Arbiter, CanArbiter, FifoPort, FlexRayBus, Frame, GateControlList, Grant, SlotAssignment,
    StrictPriorityPort, TrafficClass, TsnGatedPort,
};
use dynplat_obs::{FlightRecorder, LocalExemplars, LocalHistogram, TraceCtx};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One configured egress medium for a bus segment.
#[derive(Debug)]
pub enum BusPort {
    /// CAN with id arbitration.
    Can(CanArbiter),
    /// Plain FIFO Ethernet (no isolation baseline).
    Fifo(FifoPort),
    /// 802.1p strict-priority Ethernet.
    Priority(StrictPriorityPort),
    /// 802.1Qbv time-gated Ethernet.
    Tsn(TsnGatedPort),
    /// FlexRay channel.
    FlexRay(FlexRayBus),
}

impl BusPort {
    /// Maximum frame payload of this medium in bytes.
    pub fn mtu(&self) -> usize {
        match self {
            BusPort::Can(_) => 8,
            BusPort::FlexRay(_) => 254,
            BusPort::Fifo(_) | BusPort::Priority(_) | BusPort::Tsn(_) => 1500,
        }
    }

    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        match self {
            BusPort::Can(p) => p.enqueue(now, frame),
            BusPort::Fifo(p) => p.enqueue(now, frame),
            BusPort::Priority(p) => p.enqueue(now, frame),
            BusPort::Tsn(p) => p.enqueue(now, frame),
            BusPort::FlexRay(p) => p.enqueue(now, frame),
        }
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        match self {
            BusPort::Can(p) => p.poll(now),
            BusPort::Fifo(p) => p.poll(now),
            BusPort::Priority(p) => p.poll(now),
            BusPort::Tsn(p) => p.poll(now),
            BusPort::FlexRay(p) => p.poll(now),
        }
    }

    /// Builds the default port for a bus kind: CAN arbitration, strict
    /// priority for Ethernet, FlexRay with an empty static assignment.
    pub fn default_for(kind: BusKind) -> BusPort {
        match kind {
            BusKind::Can { bitrate } => BusPort::Can(CanArbiter::new(bitrate)),
            BusKind::Ethernet { bitrate } => BusPort::Priority(StrictPriorityPort::new(bitrate)),
            BusKind::FlexRay { .. } => BusPort::FlexRay(FlexRayBus::new(
                dynplat_net::FlexRayConfig::typical_10mbit(),
                SlotAssignment::new(),
            )),
        }
    }

    /// A TSN port for an Ethernet bus.
    pub fn tsn_for(kind: BusKind, gcl: GateControlList) -> BusPort {
        BusPort::Tsn(TsnGatedPort::new(kind.bitrate(), gcl))
    }
}

/// A message to be carried by the fabric.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageSend {
    /// Caller-chosen correlation id (reported back in the delivery).
    pub id: u64,
    /// Injection time.
    pub time: SimTime,
    /// Source ECU.
    pub src: EcuId,
    /// Destination ECU.
    pub dst: EcuId,
    /// Total payload bytes (middleware header included by the caller).
    pub payload: usize,
    /// Traffic class for TSN gating.
    pub class: TrafficClass,
    /// Priority (lower = more urgent) for CAN / 802.1p arbitration.
    pub priority: u32,
    /// Causal trace context; [`TraceCtx::NONE`] costs nothing on the hot
    /// path (one branch per lifecycle event when a recorder is attached).
    pub trace: TraceCtx,
}

/// A completed end-to-end delivery.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MessageDelivery {
    /// Correlation id from the send.
    pub id: u64,
    /// Injection time.
    pub sent: SimTime,
    /// Arrival of the last segment at the destination.
    pub delivered: SimTime,
    /// Number of bus hops traversed (0 = same ECU).
    pub hops: usize,
    /// Trace context inherited from the send, so reactions injected by
    /// the delivery callback can stay on the same causal chain.
    pub trace: TraceCtx,
}

impl MessageDelivery {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDuration {
        self.delivered.saturating_since(self.sent)
    }
}

struct MsgState {
    send: MessageSend,
    /// Length of the message's route; the buses stay in the route cache.
    hops: usize,
    hop: usize,
    segs_outstanding: usize,
}

/// Min-ordered queue of the sends the delivery callback injects, backed
/// by a free-list slab.
///
/// The heap holds `(time, seq, slot)` triples; `seq` is the globally
/// monotone tie-break shared with the injection cursor and the per-bus
/// polls, so simultaneous events stay FIFO across all sources, and `slot`
/// indexes the slab where the send lives. Both sides are reused across
/// runs, so a drained queue costs nothing to reuse.
#[derive(Default)]
struct PendingQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    slots: Vec<Option<MessageSend>>,
    free: Vec<u32>,
}

impl PendingQueue {
    fn push(&mut self, t: SimTime, seq: u64, send: MessageSend) {
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(send);
                s
            }
            None => {
                self.slots.push(Some(send));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Reverse((t, seq, slot)));
    }

    fn peek(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|Reverse((t, s, _))| (*t, *s))
    }

    fn pop(&mut self) -> Option<(SimTime, MessageSend)> {
        let Reverse((t, _, slot)) = self.heap.pop()?;
        let send = self.slots[slot as usize]
            .take()
            .expect("pending send slot must be filled for every heap entry");
        self.free.push(slot);
        Some((t, send))
    }

    fn reset(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
    }
}

/// Free-list slab of in-flight message state.
///
/// Slots are `u32` and recycled as soon as a message delivers, so the live
/// range of a slot value is exactly the in-flight lifetime of one message.
#[derive(Default)]
struct MsgSlab {
    slots: Vec<Option<MsgState>>,
    free: Vec<u32>,
}

/// Occupancy of the in-flight message slab after a [`Fabric::run`].
///
/// `capacity` is also the run's high-water mark: the slab grows only when
/// the free list is empty, so `slots.len()` equals the peak number of
/// concurrently in-flight messages.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SlabStats {
    /// Messages still occupying a slot (0 once a run fully drains).
    pub live: usize,
    /// Recycled slots available for reuse.
    pub free: usize,
    /// Total slots ever allocated (peak concurrent in-flight messages).
    pub capacity: usize,
}

impl MsgSlab {
    fn stats(&self) -> SlabStats {
        SlabStats {
            live: self.slots.len() - self.free.len(),
            free: self.free.len(),
            capacity: self.slots.len(),
        }
    }

    fn insert(&mut self, state: MsgState) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(state);
                s
            }
            None => {
                self.slots.push(Some(state));
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn get_mut(&mut self, slot: u32) -> &mut MsgState {
        self.slots[slot as usize]
            .as_mut()
            .expect("message slot must hold in-flight state while frames reference it")
    }

    fn remove(&mut self, slot: u32) -> MsgState {
        let state = self.slots[slot as usize]
            .take()
            .expect("message slot must hold in-flight state until its last TxDone");
        self.free.push(slot);
        state
    }

    /// Empties the slab while keeping both vectors' capacity, so the next
    /// run's inserts allocate nothing up to the previous high-water mark.
    fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
    }
}

/// All mutable run state, owned by the fabric and reused across runs so a
/// warmed fabric's steady-state loop never touches the allocator.
#[derive(Default)]
struct RunScratch {
    msgs: MsgSlab,
    pending: PendingQueue,
    bus_free: Vec<SimTime>,
    /// Scalar next-poll time per bus (`SimTime::MAX` = none scheduled).
    poll_at: Vec<SimTime>,
    /// FIFO tie-break seq of the pending poll per bus.
    poll_seq: Vec<u64>,
    /// Slot of the frame whose `TxDone` the pending poll carries
    /// (`u32::MAX` = none).
    txdone: Vec<u32>,
    /// Injection cursor order: input indices sorted by `(time, index)`.
    order: Vec<u32>,
    /// Reusable buffer handed to the delivery callback for reactions.
    injected: Vec<MessageSend>,
    /// Local latency accumulator, flushed to the registry once per run.
    lat: LocalHistogram,
    /// Worst-latency exemplars of the run (lock-free, alloc-free),
    /// flushed to the registry with the histogram.
    exemplars: LocalExemplars,
}

impl RunScratch {
    fn reset_for(&mut self, n_buses: usize) {
        self.msgs.reset();
        self.pending.reset();
        self.bus_free.clear();
        self.bus_free.resize(n_buses, SimTime::ZERO);
        self.poll_at.clear();
        self.poll_at.resize(n_buses, SimTime::MAX);
        self.poll_seq.clear();
        self.poll_seq.resize(n_buses, 0);
        self.txdone.clear();
        self.txdone.resize(n_buses, u32::MAX);
    }
}

/// Store-and-forward delay a gateway adds between the hops of a route.
pub const GATEWAY_DELAY: SimDuration = SimDuration::from_micros(50);

/// The fabric simulator.
pub struct Fabric {
    topology: HwTopology,
    routes: RouteCache,
    /// Port per bus, indexed by dense bus index (ascending `BusId` order).
    ports: Vec<BusPort>,
    /// Raw `BusId` -> dense index; `u32::MAX` marks an unknown bus.
    bus_lookup: Vec<u32>,
    local_delay: SimDuration,
    flight: Option<Arc<FlightRecorder>>,
    arena: PayloadArena,
    scratch: RunScratch,
    last_slab: SlabStats,
    peak_slab_capacity: usize,
}

impl std::fmt::Debug for Fabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fabric")
            .field("buses", &self.ports.len())
            .field("ecus", &self.topology.ecu_count())
            .finish()
    }
}

/// The event engine for one run: all fabric state split into disjoint
/// borrows so the hot loop's helpers can touch ports, slab, per-bus state
/// and the pending heap at once without re-borrowing through `&mut Fabric`.
struct Engine<'a, F> {
    routes: &'a mut RouteCache,
    ports: &'a mut [BusPort],
    bus_lookup: &'a [u32],
    local_delay: SimDuration,
    flight: Option<&'a Arc<FlightRecorder>>,
    msgs: &'a mut MsgSlab,
    pending: &'a mut PendingQueue,
    bus_free: &'a mut [SimTime],
    poll_at: &'a mut [SimTime],
    poll_seq: &'a mut [u64],
    txdone: &'a mut [u32],
    injected: &'a mut Vec<MessageSend>,
    lat: &'a mut LocalHistogram,
    exemplars: &'a mut LocalExemplars,
    deliveries: &'a mut Vec<MessageDelivery>,
    on_delivery: F,
    next_seq: u64,
    sends_n: u64,
    drops_n: u64,
    delivered_n: u64,
}

impl<F> Engine<'_, F>
where
    F: FnMut(&MessageDelivery, &mut Vec<MessageSend>),
{
    fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// One closure-equivalent for all lifecycle sites; untraced messages
    /// (the bench fast path) cost exactly the `is_active` branch.
    fn observe(&self, now: SimTime, send: &MessageSend, stage: &'static str) {
        if let Some(fr) = self.flight {
            if send.trace.is_active() {
                fr.record(
                    now.as_nanos(),
                    send.trace,
                    stage,
                    format!("id={} src={} dst={}", send.id, send.src, send.dst),
                );
            }
        }
    }

    /// Completes a message: records delivery, runs the reaction callback
    /// and enqueues any injected sends at `max(extra.time, clamp_now)`.
    fn complete(&mut self, send: MessageSend, delivered: SimTime, hops: usize, clamp_now: SimTime) {
        let delivery = MessageDelivery {
            id: send.id,
            sent: send.time,
            delivered,
            hops,
            trace: send.trace,
        };
        self.observe(delivered, &send, "comm.fabric.deliver");
        self.delivered_n += 1;
        self.lat.record(delivery.latency().as_nanos());
        self.exemplars
            .offer(delivery.latency().as_nanos(), send.trace);
        self.injected.clear();
        (self.on_delivery)(&delivery, self.injected);
        for extra in self.injected.drain(..) {
            let t = extra.time.max(clamp_now);
            self.sends_n += 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pending.push(t, seq, extra);
        }
        self.deliveries.push(delivery);
    }

    fn handle_inject(&mut self, send: MessageSend, now: SimTime) {
        self.observe(now, &send, "comm.fabric.send");
        let hops = match self.routes.route_slice(send.src, send.dst) {
            Ok(r) => r.len(),
            Err(_) => {
                self.drops_n += 1;
                self.observe(now, &send, "comm.fabric.drop_unreachable");
                return; // unreachable: drop
            }
        };
        if hops == 0 {
            let delivered = now + self.local_delay;
            self.complete(send, delivered, 0, now);
            return;
        }
        let slot = self.msgs.insert(MsgState {
            send,
            hops,
            hop: 0,
            segs_outstanding: 0,
        });
        self.start_hop(slot, now);
    }

    /// Enqueues all segments of the message's current hop and schedules
    /// the earliest useful poll of that bus.
    fn start_hop(&mut self, slot: u32, now: SimTime) {
        let state = self.msgs.get_mut(slot);
        // A filled route-cache row never changes, so the path resolved at
        // injection is still the one cached here.
        let bus = self
            .routes
            .route_slice(state.send.src, state.send.dst)
            .expect("an in-flight message's route resolved at injection")[state.hop];
        let bi = self.bus_lookup[bus.raw() as usize] as usize;
        let port = &mut self.ports[bi];
        let mtu = port.mtu();
        let total = state.send.payload.max(1);
        // Single-segment fast path: most frames fit the medium's MTU, and
        // skipping the div/mod pair is measurable at fabric rates.
        let (full, rest) = if total <= mtu {
            (0, total)
        } else {
            (total / mtu, total % mtu)
        };
        state.segs_outstanding = full + usize::from(rest > 0);
        // Frames carry the message's slab slot as their wire id. Slots are
        // recycled only after the message's final `TxDone` fires (delivery
        // removes it), so a live slot is never aliased by a later message.
        // Regression note: the previous implementation derived the frame id
        // from a monotonically increasing u64 key truncated with `as u32`,
        // which collides after 2^32 messages and makes `TxDone` decrement a
        // *different* message's segment count. Slot recycling keeps ids
        // bounded by the peak number of concurrently in-flight messages, far
        // below `u32::MAX`.
        for i in 0..state.segs_outstanding {
            let payload = if i < full { mtu } else { rest };
            port.enqueue(
                now,
                Frame {
                    id: MessageId(slot),
                    payload,
                    priority: state.send.priority,
                    class: state.send.class,
                },
            );
        }
        let poll_time = now.max(self.bus_free[bi]);
        if poll_time < self.poll_at[bi] {
            self.poll_at[bi] = poll_time;
            self.poll_seq[bi] = self.alloc_seq();
        }
    }

    fn handle_txdone(&mut self, slot: u32, now: SimTime) {
        let state = self.msgs.get_mut(slot);
        state.segs_outstanding -= 1;
        if state.segs_outstanding > 0 {
            return;
        }
        state.hop += 1;
        if state.hop >= state.hops {
            let state = self.msgs.remove(slot);
            self.complete(state.send, now, state.hops, now);
        } else {
            let at = now + GATEWAY_DELAY;
            self.start_hop(slot, at);
        }
    }

    /// Whether every *other* pending event source is strictly after `t`.
    /// All already-pending events carry smaller sequence numbers than any
    /// the caller is about to allocate, so an equal time means "not after"
    /// and the caller must fall back to the ordered main loop.
    fn others_after(&self, cursor_t: SimTime, t: SimTime) -> bool {
        if cursor_t <= t {
            return false;
        }
        if let Some((pt, _)) = self.pending.peek() {
            if pt <= t {
                return false;
            }
        }
        for bi in 0..self.poll_at.len() {
            if self.poll_at[bi] <= t {
                return false;
            }
        }
        true
    }

    /// Services a due poll of bus `bi`, then *pumps*: as long as every
    /// other pending event is strictly later than the granted
    /// transmission's end, the `TxDone` is processed inline and the bus
    /// polled again — draining an uncongested bus without any queue
    /// round-trips. `cursor_t` is the next initial injection time.
    fn handle_poll(&mut self, bi: usize, now: SimTime, cursor_t: SimTime) {
        self.poll_at[bi] = SimTime::MAX;
        let free = self.bus_free[bi];
        if now < free {
            self.poll_at[bi] = free;
            self.poll_seq[bi] = self.alloc_seq();
            return;
        }
        let mut now = now;
        loop {
            match self.ports[bi].poll(now) {
                Grant::Tx(tx) => {
                    self.bus_free[bi] = tx.end;
                    // The `TxDone` and the follow-up poll share one
                    // sequence number: both fall at `tx.end`, the `TxDone`
                    // first, and nothing can sort between them. Anything
                    // the `TxDone`'s callback injects sorts after both.
                    let seq = self.alloc_seq();
                    let slot = tx.frame.id.raw();
                    if self.others_after(cursor_t, tx.end) {
                        now = tx.end;
                        self.handle_txdone(slot, now);
                        if self.others_after(cursor_t, now) {
                            continue; // keep draining inline
                        }
                        self.poll_at[bi] = now;
                        self.poll_seq[bi] = seq;
                        return;
                    }
                    // The bus's last `TxDone` ran before the poll granting this one.
                    debug_assert_eq!(self.txdone[bi], u32::MAX, "second TxDone on one bus");
                    self.txdone[bi] = slot;
                    self.poll_at[bi] = tx.end;
                    self.poll_seq[bi] = seq;
                    return;
                }
                Grant::WaitUntil(t) => {
                    debug_assert!(t > now, "WaitUntil must make progress");
                    self.poll_at[bi] = t;
                    self.poll_seq[bi] = self.alloc_seq();
                    return;
                }
                Grant::Idle => return,
            }
        }
    }
}

impl Fabric {
    /// Creates a fabric with default ports for every bus in `topology`.
    pub fn new(topology: HwTopology) -> Self {
        let routes = RouteCache::new(&topology);
        let mut ports = Vec::new();
        let mut bus_ids = Vec::new();
        for bus in topology.buses() {
            ports.push(BusPort::default_for(bus.kind));
            bus_ids.push(bus.id);
        }
        let max_raw = bus_ids.iter().map(|b| b.raw() as usize).max();
        let mut bus_lookup = vec![u32::MAX; max_raw.map_or(0, |m| m + 1)];
        for (i, id) in bus_ids.iter().enumerate() {
            bus_lookup[id.raw() as usize] = i as u32;
        }
        Fabric {
            topology,
            routes,
            ports,
            bus_lookup,
            local_delay: SimDuration::from_micros(5),
            flight: None,
            arena: PayloadArena::new(),
            scratch: RunScratch::default(),
            last_slab: SlabStats::default(),
            peak_slab_capacity: 0,
        }
    }

    /// Attaches a flight recorder: traced messages (active [`TraceCtx`])
    /// get their send/deliver/drop lifecycle recorded as trace events.
    pub fn attach_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.flight = Some(recorder);
    }

    /// Slab occupancy of the most recent run.
    pub fn slab_stats(&self) -> SlabStats {
        self.last_slab
    }

    /// Highest slab capacity (peak concurrently in-flight messages) seen
    /// across *all* runs of this fabric — the figure the per-run
    /// [`Fabric::slab_stats`] cannot show once phases reuse one fabric.
    pub fn peak_slab_capacity(&self) -> usize {
        self.peak_slab_capacity
    }

    /// Stages `bytes` in the fabric's payload arena, returning a recycled
    /// ref that fanout legs can share (the zero-copy wire path).
    pub fn stage_payload(&mut self, bytes: &[u8]) -> PayloadRef {
        self.arena.stage(bytes)
    }

    /// The staged bytes behind `r`.
    #[cfg(test)]
    pub(crate) fn payload(&self, r: PayloadRef) -> &[u8] {
        self.arena.get(r)
    }

    /// Releases a staged payload for block reuse.
    pub fn release_payload(&mut self, r: PayloadRef) {
        self.arena.release(r);
    }

    /// Occupancy of the payload arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Warms the route-cache row for `src` (one BFS), so a subsequent
    /// fanout of any size from that source resolves every route with an
    /// array lookup — the batch half of the route API.
    ///
    /// # Errors
    ///
    /// [`TopologyError::UnknownEcu`] when `src` is not in the topology.
    pub fn prefetch_routes(&mut self, src: EcuId) -> Result<(), TopologyError> {
        self.routes.prefetch(src)
    }

    fn bus_index(&self, bus: BusId) -> Option<usize> {
        match self.bus_lookup.get(bus.raw() as usize) {
            Some(&i) if i != u32::MAX => Some(i as usize),
            _ => None,
        }
    }

    /// Replaces the port of one bus (e.g. swap strict priority for TSN).
    ///
    /// # Panics
    ///
    /// Panics if the bus is unknown.
    pub fn set_port(&mut self, bus: BusId, port: BusPort) {
        let idx = self
            .bus_index(bus)
            .expect("set_port requires a bus that exists in the fabric topology");
        self.ports[idx] = port;
    }

    /// The topology the fabric runs over.
    pub fn topology(&self) -> &HwTopology {
        &self.topology
    }

    /// Runs a batch of sends to completion; `on_delivery` may inject new
    /// sends (RPC responses, forwarded publications) at or after the
    /// delivery time.
    ///
    /// Returns all deliveries in completion order. Messages between
    /// unreachable ECUs are silently dropped (counted by the caller via
    /// missing ids).
    ///
    /// This is the allocating convenience wrapper; hot callers use
    /// [`Fabric::run_batch`] with reused buffers.
    pub fn run<F>(&mut self, sends: Vec<MessageSend>, mut on_delivery: F) -> Vec<MessageDelivery>
    where
        F: FnMut(&MessageDelivery) -> Vec<MessageSend>,
    {
        let mut deliveries = Vec::with_capacity(sends.len());
        self.run_batch(&sends, &mut deliveries, |d, inject| {
            inject.extend(on_delivery(d))
        });
        deliveries
    }

    /// The zero-allocation run loop: appends completions to `deliveries`
    /// (not cleared — callers own the buffer) and hands `on_delivery` a
    /// reusable injection buffer instead of collecting a fresh `Vec` per
    /// delivery. After a warm-up run of similar shape, steady-state calls
    /// perform no heap allocations at all.
    pub fn run_batch<F>(
        &mut self,
        sends: &[MessageSend],
        deliveries: &mut Vec<MessageDelivery>,
        on_delivery: F,
    ) where
        F: FnMut(&MessageDelivery, &mut Vec<MessageSend>),
    {
        let obs_sends = dynplat_obs::counter!("comm.fabric.sends");
        let obs_drops = dynplat_obs::counter!("comm.fabric.dropped_unreachable");
        let obs_deliveries = dynplat_obs::counter!("comm.fabric.deliveries");
        let obs_latency = dynplat_obs::histogram!("comm.fabric.latency_ns");

        let n = sends.len();
        let n_buses = self.ports.len();
        deliveries.reserve(n);

        let Fabric {
            ref mut routes,
            ref mut ports,
            ref bus_lookup,
            local_delay,
            ref flight,
            ref mut scratch,
            ..
        } = *self;
        scratch.reset_for(n_buses);

        // Injection cursor: input indices in `(time, index)` order. The
        // index doubles as the FIFO sequence number, exactly as if every
        // send had been pushed to the old heap in input order. Already
        // time-sorted inputs (periodic benches) skip the sort entirely.
        scratch.order.clear();
        scratch.order.extend(0..n as u32);
        if !sends.windows(2).all(|w| w[0].time <= w[1].time) {
            scratch
                .order
                .sort_unstable_by_key(|&i| (sends[i as usize].time, i));
        }
        let order = &scratch.order;
        let mut cursor = 0usize;

        let mut eng = Engine {
            routes,
            ports,
            bus_lookup,
            local_delay,
            flight: flight.as_ref(),
            msgs: &mut scratch.msgs,
            pending: &mut scratch.pending,
            bus_free: &mut scratch.bus_free,
            poll_at: &mut scratch.poll_at,
            poll_seq: &mut scratch.poll_seq,
            txdone: &mut scratch.txdone,
            injected: &mut scratch.injected,
            lat: &mut scratch.lat,
            exemplars: &mut scratch.exemplars,
            deliveries,
            on_delivery,
            next_seq: n as u64,
            sends_n: n as u64,
            drops_n: 0,
            delivered_n: 0,
        };

        // Event sources for the global (time, seq) minimum scan.
        enum Sel {
            Cursor,
            Pending,
            Poll(usize),
        }

        loop {
            let mut best_t = SimTime::MAX;
            let mut best_s = u64::MAX;
            let mut sel: Option<Sel> = None;
            if cursor < order.len() {
                let i = order[cursor] as usize;
                best_t = sends[i].time;
                best_s = i as u64;
                sel = Some(Sel::Cursor);
            }
            if let Some((t, s)) = eng.pending.peek() {
                if (t, s) < (best_t, best_s) {
                    best_t = t;
                    best_s = s;
                    sel = Some(Sel::Pending);
                }
            }
            for bi in 0..n_buses {
                let t = eng.poll_at[bi];
                if t != SimTime::MAX && (t, eng.poll_seq[bi]) < (best_t, best_s) {
                    best_t = t;
                    best_s = eng.poll_seq[bi];
                    sel = Some(Sel::Poll(bi));
                }
            }
            let Some(which) = sel else { break };
            match which {
                Sel::Cursor => {
                    let send = sends[order[cursor] as usize].clone();
                    cursor += 1;
                    let now = send.time;
                    eng.handle_inject(send, now);
                }
                Sel::Pending => {
                    let (t, send) = eng
                        .pending
                        .pop()
                        .expect("pending queue non-empty after winning selection");
                    eng.handle_inject(send, t);
                }
                Sel::Poll(bi) => {
                    let now = eng.poll_at[bi];
                    let slot = std::mem::replace(&mut eng.txdone[bi], u32::MAX);
                    if slot != u32::MAX {
                        eng.handle_txdone(slot, now);
                    }
                    let cursor_t = if cursor < order.len() {
                        sends[order[cursor] as usize].time
                    } else {
                        SimTime::MAX
                    };
                    eng.handle_poll(bi, now, cursor_t);
                }
            }
        }

        obs_sends.add(eng.sends_n);
        obs_drops.add(eng.drops_n);
        obs_deliveries.add(eng.delivered_n);
        eng.lat.flush_into(obs_latency);
        dynplat_obs::global()
            .exemplars("comm.fabric.delivery_ns")
            .merge_local(eng.exemplars);
        drop(eng);

        // Per-run slab state and the cross-run peak.
        self.last_slab = self.scratch.msgs.stats();
        self.peak_slab_capacity = self.peak_slab_capacity.max(self.last_slab.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_hw::ecu::{EcuClass, EcuSpec};
    use dynplat_hw::topology::BusSpec;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    /// ecu0 --can0-- ecu1 --eth0-- ecu2
    fn topo() -> HwTopology {
        HwTopology::from_parts(
            [
                EcuSpec::of_class(EcuId(0), "body", EcuClass::LowEnd),
                EcuSpec::of_class(EcuId(1), "gateway", EcuClass::Domain),
                EcuSpec::of_class(EcuId(2), "adas", EcuClass::HighPerformance),
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
        .expect("test topology is well-formed")
    }

    fn send(id: u64, t_us: u64, src: u16, dst: u16, payload: usize) -> MessageSend {
        MessageSend {
            id,
            time: SimTime::from_micros(t_us),
            src: EcuId(src),
            dst: EcuId(dst),
            payload,
            class: TrafficClass::BestEffort,
            priority: id as u32,
            trace: TraceCtx::NONE,
        }
    }

    #[test]
    fn single_hop_ethernet_delivery() {
        let mut fabric = Fabric::new(topo());
        let done = fabric.run(vec![send(1, 0, 1, 2, 1000)], |_| vec![]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].hops, 1);
        // ~82 us at 100 Mbit/s for 1000+overhead bytes.
        assert!(done[0].latency() > SimDuration::from_micros(50));
        assert!(done[0].latency() < SimDuration::from_micros(200));
    }

    #[test]
    fn local_delivery_is_fast() {
        let mut fabric = Fabric::new(topo());
        let done = fabric.run(vec![send(1, 0, 2, 2, 1000)], |_| vec![]);
        assert_eq!(done[0].hops, 0);
        assert!(done[0].latency() < SimDuration::from_micros(10));
    }

    #[test]
    fn can_segmentation_of_large_payload() {
        let mut fabric = Fabric::new(topo());
        // 64 bytes over CAN = 8 frames of 8 bytes, each 270 us at 500 kbit/s.
        let done = fabric.run(vec![send(1, 0, 0, 1, 64)], |_| vec![]);
        assert_eq!(done.len(), 1);
        let lat = done[0].latency();
        assert!(lat >= SimDuration::from_micros(270 * 8), "got {lat}");
        assert!(lat < SimDuration::from_micros(270 * 9), "got {lat}");
    }

    #[test]
    fn gateway_route_crosses_both_buses() {
        let mut fabric = Fabric::new(topo());
        let done = fabric.run(vec![send(1, 0, 0, 2, 8)], |_| vec![]);
        assert_eq!(done[0].hops, 2);
        // One CAN frame (270us) + gateway (50us) + one Ethernet frame.
        let lat = done[0].latency();
        assert!(lat > SimDuration::from_micros(320), "got {lat}");
        assert!(lat < SimDuration::from_micros(400), "got {lat}");
    }

    #[test]
    fn unreachable_destination_is_dropped() {
        let mut fabric = Fabric::new(topo());
        let done = fabric.run(vec![send(1, 0, 0, 9, 8)], |_| vec![]);
        assert!(done.is_empty());
    }

    #[test]
    fn deliveries_trigger_callback_injections() {
        // Request 1->2, response 2->1 injected on delivery (an RPC shape).
        let mut fabric = Fabric::new(topo());
        let done = fabric.run(vec![send(10, 0, 1, 2, 200)], |d| {
            if d.id == 10 {
                vec![MessageSend {
                    id: 20,
                    time: d.delivered + SimDuration::from_micros(100),
                    src: EcuId(2),
                    dst: EcuId(1),
                    payload: 64,
                    class: TrafficClass::BestEffort,
                    priority: 0,
                    trace: d.trace,
                }]
            } else {
                vec![]
            }
        });
        assert_eq!(done.len(), 2);
        let req = done
            .iter()
            .find(|d| d.id == 10)
            .expect("request must deliver");
        let resp = done
            .iter()
            .find(|d| d.id == 20)
            .expect("response must deliver");
        assert!(resp.sent >= req.delivered + SimDuration::from_micros(100));
        assert!(resp.delivered > resp.sent);
    }

    #[test]
    fn priority_protects_urgent_message_on_shared_bus() {
        let mut fabric = Fabric::new(topo());
        let mut sends: Vec<MessageSend> = (0..20)
            .map(|i| {
                let mut s = send(100 + i, 0, 1, 2, 1500);
                s.priority = 7;
                s
            })
            .collect();
        let mut urgent = send(1, 100, 1, 2, 100);
        urgent.priority = 0;
        urgent.class = TrafficClass::Critical;
        sends.push(urgent);
        let done = fabric.run(sends, |_| vec![]);
        let u = done
            .iter()
            .find(|d| d.id == 1)
            .expect("urgent message must deliver");
        // At most one bulk frame of blocking (~123 us) plus own time.
        assert!(
            u.latency() < SimDuration::from_micros(300),
            "urgent delayed {}",
            u.latency()
        );
    }

    #[test]
    fn tsn_port_swaps_in() {
        let mut fabric = Fabric::new(topo());
        let gcl = GateControlList::mixed_criticality(ms(1), 0.3);
        fabric.set_port(BusId(1), BusPort::tsn_for(BusKind::ethernet_100m(), gcl));
        let mut s = send(1, 0, 1, 2, 100);
        s.class = TrafficClass::Critical;
        let done = fabric.run(vec![s], |_| vec![]);
        assert_eq!(done.len(), 1);
        // Critical window opens at cycle start: immediate transmission.
        assert!(done[0].latency() < SimDuration::from_micros(100));
    }

    #[test]
    fn throughput_accounting_many_messages() {
        let mut fabric = Fabric::new(topo());
        let sends: Vec<MessageSend> = (0..200).map(|i| send(i, i * 10, 1, 2, 1000)).collect();
        let done = fabric.run(sends, |_| vec![]);
        assert_eq!(done.len(), 200);
        // Completion order is monotone in delivery time.
        for pair in done.windows(2) {
            assert!(pair[0].delivered <= pair[1].delivered);
        }
    }

    #[test]
    fn run_batch_reuses_buffers_and_is_deterministic() {
        // The scratch-reuse API must give byte-identical results across
        // repeated identical batches (the rerun-determinism contract the
        // E12–E15 smokes build on), while reusing the caller's buffers.
        let mut fabric = Fabric::new(topo());
        let sends: Vec<MessageSend> = (0..64).map(|i| send(i, i * 37, 0, 2, 48)).collect();
        let mut first = Vec::new();
        fabric.run_batch(&sends, &mut first, |_, _| {});
        let mut again = Vec::new();
        for _ in 0..3 {
            again.clear();
            fabric.run_batch(&sends, &mut again, |_, _| {});
            assert_eq!(again, first, "identical batches must replay identically");
        }
        // And the compat wrapper agrees with the batch API.
        let mut fresh = Fabric::new(topo());
        let wrapped = fresh.run(sends.clone(), |_| vec![]);
        assert_eq!(wrapped, first);
    }

    #[test]
    fn unsorted_input_matches_heap_order_semantics() {
        // Reverse-time input exercises the injection-cursor sort; results
        // must be identical to the same batch presented sorted, because
        // the FIFO tie-break is the input index either way (distinct
        // times here, so completion sets must match exactly).
        let sorted: Vec<MessageSend> = (0..40).map(|i| send(i, i * 100, 1, 2, 600)).collect();
        let mut reversed = sorted.clone();
        reversed.reverse();
        let mut f1 = Fabric::new(topo());
        let mut f2 = Fabric::new(topo());
        let mut done_sorted = f1.run(sorted, |_| vec![]);
        let mut done_rev = f2.run(reversed, |_| vec![]);
        done_sorted.sort_by_key(|d| d.id);
        done_rev.sort_by_key(|d| d.id);
        assert_eq!(done_sorted, done_rev);
    }

    #[test]
    fn payload_arena_roundtrip_and_recycling() {
        let mut fabric = Fabric::new(topo());
        let r1 = fabric.stage_payload(b"frame-one");
        let r2 = fabric.stage_payload(b"frame-two");
        assert_eq!(fabric.payload(r1), b"frame-one");
        assert_eq!(fabric.payload(r2), b"frame-two");
        assert_eq!(fabric.arena_stats().live, 2);
        fabric.release_payload(r1);
        fabric.release_payload(r2);
        let before = fabric.arena_stats();
        assert_eq!(before.live, 0);
        // Steady-state staging reuses released blocks: no byte growth.
        for i in 0..100u8 {
            let r = fabric.stage_payload(&[i; 9]);
            assert_eq!(fabric.payload(r), &[i; 9][..]);
            fabric.release_payload(r);
        }
        assert_eq!(fabric.arena_stats().bytes, before.bytes);
    }

    #[test]
    fn trace_context_rides_delivery_and_flight_recorder_sees_lifecycle() {
        let mut fabric = Fabric::new(topo());
        let fr = Arc::new(FlightRecorder::new(64));
        fr.arm();
        fabric.attach_flight_recorder(fr.clone());
        let mut traced = send(10, 0, 0, 2, 8);
        traced.trace = TraceCtx::new(0xCAFE, 1);
        let untraced = send(11, 0, 1, 2, 8);
        // The callback continues the trace: the reaction inherits the
        // delivery's context under a child span.
        let done = fabric.run(vec![traced, untraced], |d| {
            if d.id == 10 {
                let mut resp = send(20, d.delivered.as_nanos() / 1000, 2, 0, 8);
                resp.trace = d.trace.child(2);
                vec![resp]
            } else {
                vec![]
            }
        });
        assert_eq!(done.len(), 3);
        let by_id = |id: u64| {
            done.iter()
                .find(|d| d.id == id)
                .expect("all three messages must deliver")
        };
        assert_eq!(by_id(10).trace, TraceCtx::new(0xCAFE, 1));
        assert_eq!(by_id(20).trace, TraceCtx::new(0xCAFE, 2));
        assert_eq!(by_id(11).trace, TraceCtx::NONE);
        // Only the traced chain is recorded: send+deliver for the request
        // and for the response, nothing for the untraced message.
        let events = fr.events();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.trace.trace_id == 0xCAFE));
        assert_eq!(
            events
                .iter()
                .filter(|e| e.stage == "comm.fabric.send")
                .count(),
            2
        );
        assert_eq!(
            events
                .iter()
                .filter(|e| e.stage == "comm.fabric.deliver")
                .count(),
            2
        );
    }

    #[test]
    fn slab_returns_to_steady_state_after_burst() {
        let mut fabric = Fabric::new(topo());
        // A burst of overlapping sends drives the slab high-water mark up…
        let sends: Vec<MessageSend> = (0..100).map(|i| send(i, 0, 1, 2, 1000)).collect();
        fabric.run(sends, |_| vec![]);
        let burst = fabric.slab_stats();
        assert_eq!(burst.live, 0, "run must drain the slab");
        assert!(burst.capacity >= 50, "burst should overlap heavily");
        assert_eq!(burst.free, burst.capacity);
        // …and a later spaced-out trickle drains with a tiny footprint.
        let sends: Vec<MessageSend> = (0..10).map(|i| send(i, i * 1000, 1, 2, 100)).collect();
        fabric.run(sends, |_| vec![]);
        let after = fabric.slab_stats();
        assert_eq!(after.live, 0);
        assert!(
            after.capacity < burst.capacity,
            "spaced sends must not need the burst high-water mark"
        );
        // The cross-run peak still remembers the burst (occupancy gauges
        // were previously stale: they showed only the final trickle).
        assert_eq!(fabric.peak_slab_capacity(), burst.capacity);
    }

    #[test]
    fn message_slots_are_recycled_across_batches() {
        // Two sequential batches through one fabric reuse slab slots (and
        // therefore wire-level frame ids) without cross-talk: every message
        // of both batches delivers exactly once with distinct correlation
        // ids. Guards the frame-id recycling scheme described in start_hop.
        let mut fabric = Fabric::new(topo());
        for batch in 0..2u64 {
            let base = batch * 1000;
            let sends: Vec<MessageSend> =
                (0..50).map(|i| send(base + i, i * 5, 0, 2, 32)).collect();
            let done = fabric.run(sends, |_| vec![]);
            assert_eq!(done.len(), 50);
            let mut ids: Vec<u64> = done.iter().map(|d| d.id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 50, "duplicate or lost delivery in batch");
        }
    }
}
