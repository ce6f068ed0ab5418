//! Property-based tests, part 2: TSN/FlexRay media invariants, Ethernet
//! analysis soundness, fleet campaigns, SLO gates and update paths.
//!
//! Implemented as seeded-random loop tests on `dynplat::common::rng` (no
//! external property-testing dependency).

use dynplat::common::rng::{seeded_rng, split_seed, truncated_normal_factor, Rng, SplitMix64};
use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::{AppId, BusId, MessageId, VehicleId};
use dynplat::core::update::update_path;
use dynplat::faults::FaultPlan;
use dynplat::fleet::{
    pick_variant, region_of, simulate_vehicle, standard_mix, CampaignSpec, HwVariant, Reject,
    UpdateMaster, VehicleOutcome, VehicleVerdict,
};
use dynplat::monitor::slo::{SloBurnGate, SloSpec};
use dynplat::monitor::uncertainty::BoundaryEstimator;
use dynplat::net::analysis::{worst_case_gate_delay, EthFlowSpec, EthernetAnalysis};
use dynplat::net::ethernet::{ethernet_frame_time, StrictPriorityPort};
use dynplat::net::flexray::{FlexRayBus, FlexRayConfig, SlotAssignment};
use dynplat::net::tsn::{GateControlList, GateWindow, TsnGatedPort};
use dynplat::net::{simulate, Arbiter, Frame, Grant, TrafficClass, Transmission, TxEvent};
use dynplat::security::package::Version;
use dynplat_bench::fleet::fleet_arms;

const MBIT100: u64 = 100_000_000;
const SUITE_SEED: u64 = 0x5EED_0002;
const CASES: u64 = 64;

/// One deterministic RNG per (test, case) pair.
fn case_rng(test: u64, case: u64) -> SplitMix64 {
    seeded_rng(split_seed(split_seed(SUITE_SEED, test), case))
}

fn arb_gcl(rng: &mut SplitMix64) -> GateControlList {
    // Cycle 1 ms, three non-overlapping windows with random split points.
    let a = rng.gen_range(50u64..400);
    let b = rng.gen_range(450u64..700);
    GateControlList::new(
        SimDuration::from_millis(1),
        vec![
            GateWindow::new(
                TrafficClass::Critical,
                SimDuration::ZERO,
                SimDuration::from_micros(a),
            ),
            GateWindow::new(
                TrafficClass::Stream,
                SimDuration::from_micros(a),
                SimDuration::from_micros(b - a),
            ),
            GateWindow::new(
                TrafficClass::BestEffort,
                SimDuration::from_micros(b),
                SimDuration::from_micros(1000 - b),
            ),
        ],
    )
    .expect("constructed windows are valid")
}

fn class_of(i: usize) -> TrafficClass {
    match i % 3 {
        0 => TrafficClass::Critical,
        1 => TrafficClass::Stream,
        _ => TrafficClass::BestEffort,
    }
}

// ------------------------------------------------------------------- TSN --

#[test]
fn tsn_transmissions_always_respect_their_class_windows() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let gcl = arb_gcl(&mut rng);
        let n = rng.gen_range(1usize..40);
        let mut port = TsnGatedPort::new(MBIT100, gcl.clone());
        let events: Vec<TxEvent> = (0..n)
            .map(|i| TxEvent {
                arrival: SimTime::from_micros(rng.gen_range(0u64..5_000)),
                frame: Frame::new(MessageId(i as u32), rng.gen_range(1usize..1200))
                    .with_priority(i as u32)
                    .with_class(class_of(i)),
            })
            .collect();
        let done = simulate(&mut port, events);
        for tx in &done {
            // Start and end must fall inside a window of the frame's class.
            let cycle = gcl.cycle();
            let off_start = tx.start % cycle;
            let window = gcl
                .windows()
                .iter()
                .find(|w| {
                    w.class == tx.frame.class
                        && w.offset <= off_start
                        && off_start < w.offset + w.length
                })
                .expect("transmission starts inside a window of its class");
            let end_off = off_start + (tx.end.saturating_since(tx.start));
            assert!(
                end_off <= window.offset + window.length,
                "case {case}: guard band violated: ends at {end_off} past window end"
            );
        }
        // Nothing overlaps.
        let mut sorted = done.clone();
        sorted.sort_by_key(|t| t.start);
        for pair in sorted.windows(2) {
            assert!(pair[1].start >= pair[0].end, "case {case}");
        }
    }
}

/// A 1 ms cycle cut into 2–7 slots with one window of a random class each
/// (so a class usually owns several windows, and sometimes none). Windows
/// leave random gaps, may be zero-length or too short for a full frame,
/// and are listed in shuffled order rather than by offset.
fn arb_multi_window_gcl(rng: &mut SplitMix64) -> GateControlList {
    let n = rng.gen_range(2u64..8);
    let slot = 1_000_000 / n;
    let mut windows: Vec<GateWindow> = (0..n)
        .map(|i| {
            let open = rng.gen_range(0..slot / 4);
            let length = if rng.gen_bool(0.1) {
                0
            } else {
                rng.gen_range(slot / 8..=slot - open)
            };
            GateWindow::new(
                class_of(rng.gen_range(0usize..3)),
                SimDuration::from_nanos(i * slot + open),
                SimDuration::from_nanos(length),
            )
        })
        .collect();
    for i in (1..windows.len()).rev() {
        windows.swap(i, rng.gen_range(0..=i));
    }
    GateControlList::new(SimDuration::from_millis(1), windows)
        .expect("windows stay inside their own slots")
}

/// The TSN port as first written: one `earliest_fit` per queued frame per
/// poll, each sorting a freshly collected list of the class's windows —
/// kept here only as the oracle for [`TsnGatedPort`].
struct NaiveTsnPort {
    bitrate: u64,
    gcl: GateControlList,
    queue: Vec<(u32, u64, SimTime, Frame)>,
    seq: u64,
    dropped: u64,
}

impl NaiveTsnPort {
    fn new(bitrate: u64, gcl: GateControlList) -> Self {
        NaiveTsnPort {
            bitrate,
            gcl,
            queue: Vec::new(),
            seq: 0,
            dropped: 0,
        }
    }

    fn earliest_fit(&self, now: SimTime, class: TrafficClass, tx: SimDuration) -> Option<SimTime> {
        let cycle = self.gcl.cycle();
        let windows = self.gcl.windows();
        if !windows.iter().any(|w| w.class == class && w.length >= tx) {
            return None;
        }
        let cycle_start = now - (now % cycle);
        for k in 0..2u64 {
            let base = cycle_start + cycle * k;
            let mut candidates: Vec<&GateWindow> = windows
                .iter()
                .filter(|w| w.class == class && w.length >= tx)
                .collect();
            candidates.sort_by_key(|w| w.offset);
            for w in candidates {
                let open = base + w.offset;
                let close = open + w.length;
                let start = if now > open { now } else { open };
                if start + tx <= close {
                    return Some(start);
                }
            }
        }
        None
    }
}

impl Arbiter for NaiveTsnPort {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push((frame.priority, seq, now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        let mut unfit: Vec<u64> = Vec::new();
        let mut now_best: Option<(u32, u64)> = None;
        let mut future_best: Option<SimTime> = None;
        for (prio, seq, _, frame) in &self.queue {
            let tx = ethernet_frame_time(frame.payload, self.bitrate);
            match self.earliest_fit(now, frame.class, tx) {
                Some(start) if start == now => {
                    let key = (*prio, *seq);
                    if now_best.is_none_or(|bk| key < bk) {
                        now_best = Some(key);
                    }
                }
                Some(start) => {
                    if future_best.is_none_or(|b| start < b) {
                        future_best = Some(start);
                    }
                }
                None => unfit.push(*seq),
            }
        }
        if !unfit.is_empty() {
            self.queue.retain(|(_, seq, _, _)| !unfit.contains(seq));
            self.dropped += unfit.len() as u64;
        }
        if let Some((_, chosen_seq)) = now_best {
            let idx = self
                .queue
                .iter()
                .position(|(_, seq, _, _)| *seq == chosen_seq)
                .expect("chosen frame is in the queue");
            let (_, _, arrival, frame) = self.queue.swap_remove(idx);
            let tx = ethernet_frame_time(frame.payload, self.bitrate);
            return Grant::Tx(Transmission {
                frame,
                arrival,
                start: now,
                end: now + tx,
            });
        }
        match future_best {
            Some(t) => Grant::WaitUntil(t),
            None => Grant::Idle,
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Random messages as the fabric queues them: a message above the MTU
/// becomes a run of equal-size 1500-byte segments plus a remainder, all
/// arriving together with one class and priority. Some single frames are
/// oversized (longer than any window) and priorities tie often.
fn arb_frame_mix(rng: &mut SplitMix64) -> Vec<TxEvent> {
    let mut events = Vec::new();
    for _ in 0..rng.gen_range(1usize..12) {
        let arrival = SimTime::from_nanos(rng.gen_range(0u64..5_000_000));
        let class = class_of(rng.gen_range(0usize..3));
        let priority = rng.gen_range(0u32..4);
        let segments = match rng.gen_range(0u32..4) {
            0 => {
                let bytes = rng.gen_range(1_501usize..60_000);
                let mut run = vec![1500; bytes / 1500];
                if bytes % 1500 != 0 {
                    run.push(bytes % 1500);
                }
                run
            }
            // Longer than the whole 1 ms cycle at 100 Mbit/s.
            1 => vec![rng.gen_range(20_000usize..40_000)],
            _ => vec![rng.gen_range(1usize..=1500)],
        };
        for payload in segments {
            let id = MessageId(events.len() as u32);
            events.push(TxEvent {
                arrival,
                frame: Frame::new(id, payload)
                    .with_priority(priority)
                    .with_class(class),
            });
        }
    }
    events
}

#[test]
fn tsn_port_matches_the_naive_oracle() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let gcl = arb_multi_window_gcl(&mut rng);
        let events = arb_frame_mix(&mut rng);
        let mut naive = NaiveTsnPort::new(MBIT100, gcl.clone());
        let mut port = TsnGatedPort::new(MBIT100, gcl);
        let expected = simulate(&mut naive, events.clone());
        assert_eq!(simulate(&mut port, events), expected, "case {case}");
        assert_eq!(port.dropped(), naive.dropped, "case {case}");
        assert_eq!(port.pending(), 0, "case {case}");
    }
}

/// One message as the fabric queues it at the backbone: a 60 KiB camera
/// frame (41 segments), a 200-byte command (one key per priority), a
/// random single frame or an oversized one.
fn arb_message(rng: &mut SplitMix64, next_id: &mut u32) -> Vec<Frame> {
    let class = class_of(rng.gen_range(0usize..3));
    let priority = rng.gen_range(0u32..4);
    let payloads = match rng.gen_range(0u32..8) {
        0 => burst_60k(),
        1 => vec![rng.gen_range(20_000usize..40_000)],
        2..=4 => vec![200],
        _ => vec![rng.gen_range(1usize..=1500)],
    };
    frames_of(payloads, class, priority, next_id)
}

/// The MTU segments of a 60 KiB message: 40 × 1500 bytes and 1440.
fn burst_60k() -> Vec<usize> {
    let mut segments = vec![1500; 61_440 / 1500];
    segments.push(61_440 % 1500);
    segments
}

fn frames_of(
    payloads: Vec<usize>,
    class: TrafficClass,
    priority: u32,
    next_id: &mut u32,
) -> Vec<Frame> {
    payloads
        .into_iter()
        .map(|payload| {
            *next_id += 1;
            Frame::new(MessageId(*next_id), payload)
                .with_priority(priority)
                .with_class(class)
        })
        .collect()
}

#[test]
fn tsn_port_matches_the_naive_oracle_step_by_step() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let gcl = arb_multi_window_gcl(&mut rng);
        let mut naive = NaiveTsnPort::new(MBIT100, gcl.clone());
        let mut port = TsnGatedPort::new(MBIT100, gcl.clone());
        let mut now = SimTime::ZERO;
        let mut next_id = 0u32;
        // Two 60 KiB bursts of different priority in one class that can
        // carry a full segment, if the list has one.
        let mtu = ethernet_frame_time(1500, MBIT100);
        let burst_class = (0..3)
            .map(class_of)
            .find(|&c| gcl.earliest_fit(SimTime::ZERO, c, mtu).is_some())
            .unwrap_or(TrafficClass::BestEffort);
        let mut backlog = vec![
            frames_of(burst_60k(), burst_class, 2, &mut next_id),
            frames_of(burst_60k(), burst_class, 1, &mut next_id),
        ];
        // Rounds of random messages interleaved with polls, each polled
        // until the queue drains, so drained groups are reused by later
        // keys.
        for round in 0..6 {
            backlog.extend((0..rng.gen_range(1..6)).map(|_| arb_message(&mut rng, &mut next_id)));
            for step in 0..2_000 {
                if backlog.is_empty() && naive.pending() == 0 {
                    break;
                }
                if !backlog.is_empty() && rng.gen_bool(0.2) {
                    let i = rng.gen_range(0..backlog.len());
                    for frame in backlog.swap_remove(i) {
                        naive.enqueue(now, frame.clone());
                        port.enqueue(now, frame);
                    }
                } else {
                    let grant = port.poll(now);
                    assert_eq!(
                        grant,
                        naive.poll(now),
                        "case {case} round {round} step {step}"
                    );
                    // Mostly follow the medium; sometimes poll early or
                    // late.
                    now = match grant {
                        Grant::Tx(tx) if rng.gen_bool(0.8) => tx.end,
                        Grant::WaitUntil(t) if rng.gen_bool(0.8) => t,
                        _ => now + SimDuration::from_nanos(rng.gen_range(0u64..150_000)),
                    };
                }
                let at = format!("case {case} round {round} step {step}");
                assert_eq!(port.pending(), naive.pending(), "{at}");
                assert_eq!(port.dropped(), naive.dropped, "{at}");
            }
        }
    }
}

#[test]
fn tsn_idle_port_wait_never_exceeds_the_gate_delay_bound() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let gcl = arb_multi_window_gcl(&mut rng);
        for _ in 0..16 {
            let class = class_of(rng.gen_range(0usize..3));
            let payload = if rng.gen_bool(0.1) {
                rng.gen_range(1_501usize..20_000)
            } else {
                rng.gen_range(1usize..=1500)
            };
            let tx = ethernet_frame_time(payload, MBIT100);
            let arrival = SimTime::from_nanos(rng.gen_range(0u64..3_000_000));
            let mut port = TsnGatedPort::new(MBIT100, gcl.clone());
            let done = simulate(
                &mut port,
                vec![TxEvent {
                    arrival,
                    frame: Frame::new(MessageId(1), payload).with_class(class),
                }],
            );
            match worst_case_gate_delay(&gcl, class, tx) {
                Some(bound) => {
                    let wait = done[0].start.saturating_since(arrival);
                    assert!(wait <= bound, "case {case}: {wait} > {bound}");
                }
                None => {
                    assert!(done.is_empty(), "case {case}: unfittable frame sent");
                    assert_eq!(port.dropped(), 1, "case {case}");
                }
            }
        }
    }
}

// --------------------------------------------------------------- FlexRay --

#[test]
fn flexray_static_frames_stay_in_their_slots() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let n = rng.gen_range(1usize..10);
        let config = FlexRayConfig::typical_10mbit();
        let mut assignment = SlotAssignment::new();
        for i in 0..n {
            assignment
                .assign(MessageId(i as u32), i as u16)
                .expect("distinct slots");
        }
        let mut bus = FlexRayBus::new(config.clone(), assignment);
        let events: Vec<TxEvent> = (0..n)
            .map(|i| TxEvent {
                arrival: SimTime::from_micros(rng.gen_range(0u64..20_000)),
                frame: Frame::new(MessageId(i as u32), rng.gen_range(1usize..32)),
            })
            .collect();
        let done = simulate(&mut bus, events);
        assert_eq!(done.len(), n, "case {case}");
        for tx in &done {
            let slot = tx.frame.id.raw() as u64;
            let off = tx.start % config.cycle();
            let slot_start = config.static_slot_len * slot;
            assert_eq!(
                off, slot_start,
                "case {case}: static frame must start at its slot"
            );
            assert!(tx.start >= tx.arrival, "case {case}");
        }
    }
}

/// The FlexRay bus as first written: every poll clones the queue and
/// collects candidate and unfit lists — kept here only as the oracle for
/// [`FlexRayBus`].
struct NaiveFlexRayBus {
    config: FlexRayConfig,
    assignment: SlotAssignment,
    queue: Vec<(u32, u64, SimTime, Frame)>,
    seq: u64,
    dyn_cycle: u64,
    dyn_used: u64,
}

impl NaiveFlexRayBus {
    fn new(config: FlexRayConfig, assignment: SlotAssignment) -> Self {
        NaiveFlexRayBus {
            config,
            assignment,
            queue: Vec::new(),
            seq: 0,
            dyn_cycle: 0,
            dyn_used: 0,
        }
    }

    fn earliest_start(&self, now: SimTime, frame: &Frame) -> Option<SimTime> {
        let c = &self.config;
        if let Some(slot) = self.assignment.slot_of(frame.id) {
            return Some(c.next_slot_start(now, slot));
        }
        let need = c
            .frame_time(frame.payload)
            .as_nanos()
            .div_ceil(c.minislot_len.as_nanos());
        if need > u64::from(c.minislots) {
            return None;
        }
        let cycle = c.cycle().as_nanos();
        let mut k = now.as_nanos() / cycle;
        loop {
            let used = if k == self.dyn_cycle {
                self.dyn_used
            } else {
                0
            };
            if used + need <= u64::from(c.minislots) {
                let seg0 = SimTime::from_nanos(k * cycle) + c.dynamic_offset();
                let seg_start = seg0 + c.minislot_len * used;
                if seg_start >= now {
                    return Some(seg_start);
                }
                if now <= SimTime::from_nanos(k * cycle) + c.cycle()
                    && seg_start + c.minislot_len * need > now
                    && now >= seg_start
                {
                    let into = now.saturating_since(seg0);
                    let slot_idx = into.as_nanos().div_ceil(c.minislot_len.as_nanos());
                    if slot_idx + need <= u64::from(c.minislots) {
                        return Some(seg0 + c.minislot_len * slot_idx);
                    }
                }
            }
            k += 1;
        }
    }
}

impl Arbiter for NaiveFlexRayBus {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push((frame.priority, seq, now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        let mut candidates: Vec<(SimTime, u32, u64)> = Vec::new();
        let mut unfit: Vec<u64> = Vec::new();
        let queue_snapshot: Vec<(u32, u64, Frame)> = self
            .queue
            .iter()
            .map(|(p, s, _, f)| (*p, *s, f.clone()))
            .collect();
        for (prio, seq, frame) in &queue_snapshot {
            match self.earliest_start(now, frame) {
                Some(start) => candidates.push((start, *prio, *seq)),
                None => unfit.push(*seq),
            }
        }
        if !unfit.is_empty() {
            self.queue.retain(|(_, seq, _, _)| !unfit.contains(seq));
        }
        let Some((start, _, chosen)) = candidates.into_iter().min() else {
            return Grant::Idle;
        };
        if start > now {
            return Grant::WaitUntil(start);
        }
        let idx = self
            .queue
            .iter()
            .position(|(_, seq, _, _)| *seq == chosen)
            .expect("chosen frame present");
        let (_, _, arrival, frame) = self.queue.swap_remove(idx);
        let tx = self.config.frame_time(frame.payload);
        if self.assignment.slot_of(frame.id).is_none() {
            let cycle = self.config.cycle();
            let k = start.as_nanos() / cycle.as_nanos();
            let seg0 = SimTime::from_nanos(k * cycle.as_nanos()) + self.config.dynamic_offset();
            let first = start.saturating_since(seg0) / self.config.minislot_len;
            let need = tx.as_nanos().div_ceil(self.config.minislot_len.as_nanos());
            if k != self.dyn_cycle {
                self.dyn_cycle = k;
                self.dyn_used = 0;
            }
            self.dyn_used = self.dyn_used.max(first + need);
        }
        Grant::Tx(Transmission {
            frame,
            arrival,
            start,
            end: start + tx,
        })
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[test]
fn flexray_bus_matches_the_naive_oracle() {
    for case in 0..CASES {
        let mut rng = case_rng(13, case);
        // Ids 0..8 may own a static slot; the rest share the dynamic
        // segment, where a few frames are too large to ever fit.
        let mut assignment = SlotAssignment::new();
        for id in 0..8u32 {
            if rng.gen_bool(0.5) {
                let slot = rng.gen_range(0u16..60);
                let _ = assignment.assign(MessageId(id), slot);
            }
        }
        let events: Vec<TxEvent> = (0..rng.gen_range(1usize..40))
            .map(|_| {
                let id = rng.gen_range(0u32..24);
                let payload = if rng.gen_bool(0.05) {
                    rng.gen_range(2_600usize..6_000)
                } else {
                    rng.gen_range(1usize..=254)
                };
                TxEvent {
                    arrival: SimTime::from_nanos(rng.gen_range(0u64..30_000_000)),
                    frame: Frame::new(MessageId(id), payload).with_priority(rng.gen_range(0..4)),
                }
            })
            .collect();
        let config = FlexRayConfig::typical_10mbit();
        let mut naive = NaiveFlexRayBus::new(config.clone(), assignment.clone());
        let mut bus = FlexRayBus::new(config, assignment);
        let expected = simulate(&mut naive, events.clone());
        assert_eq!(simulate(&mut bus, events), expected, "case {case}");
        assert_eq!(bus.pending(), 0, "case {case}");
    }
}

// ----------------------------------------------------- Ethernet analysis --

#[test]
fn ethernet_simulation_never_beats_the_analysis() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let n = rng.gen_range(2usize..5);
        let flows: Vec<EthFlowSpec> = (0..n)
            .map(|i| {
                EthFlowSpec::new(
                    MessageId(i as u32),
                    rng.gen_range(64usize..1500),
                    i as u32,
                    SimDuration::from_millis(rng.gen_range(2u64..10)),
                )
            })
            .collect();
        let analysis = EthernetAnalysis::new(MBIT100, flows.clone());
        if !analysis.is_schedulable() {
            continue;
        }
        let bounds = analysis.response_times();
        let mut port = StrictPriorityPort::new(MBIT100);
        let mut events = Vec::new();
        for f in &flows {
            let mut t = SimTime::ZERO;
            while t < SimTime::from_millis(40) {
                events.push(TxEvent {
                    arrival: t,
                    frame: Frame::new(f.id, f.payload).with_priority(f.priority),
                });
                t += f.period;
            }
        }
        for tx in simulate(&mut port, events) {
            let bound = bounds
                .iter()
                .find(|b| b.id == tx.frame.id)
                .and_then(|b| b.wcrt)
                .expect("schedulable");
            assert!(tx.latency() <= bound, "case {case}");
        }
    }
}

// -------------------------------------------------------------- campaign --

/// A random variant: one of the standard ECU generations (the legacy one
/// fails flash), with a random verification noise floor and, half the
/// time, one configuration defect against the standard image.
fn arb_variant(rng: &mut SplitMix64) -> HwVariant {
    let mix = standard_mix();
    let mut v = HwVariant {
        good_image_verify_failure: rng.gen_range(0.0..0.4),
        share: rng.gen_range(1u32..6),
        ..mix[rng.gen_range(0..mix.len())]
    };
    match rng.gen_range(0u32..10) {
        0 => v.installed = &[],
        1 => v.installed = const { &[(AppId(1), Version::new(2, 0, 0))] },
        2 => v.free_memory_kib = rng.gen_range(0..32 * 1024),
        3 => v.cpu_headroom = rng.gen_range(0.0..0.1),
        4 => v.installed = const { &[(AppId(1), Version::new(1, 4, 0))] },
        _ => {}
    }
    v
}

#[test]
fn campaign_accounting_is_conserved() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let seed: u64 = rng.gen();
        let variants = rng.gen_range(1usize..5);
        let mut spec =
            CampaignSpec::standard(seed, rng.gen_range(1u32..1_500), FaultPlan::quiet(seed));
        spec.mix = (0..variants).map(|_| arb_variant(&mut rng)).collect();
        spec.waves = (0..rng.gen_range(1usize..5))
            .map(|_| rng.gen_range(0.01..1.0))
            .collect();
        spec.gate.batch = rng.gen_range(4usize..33);
        let shards = rng.gen_range(1usize..5);
        let bounds = spec.wave_bounds();
        let report = UpdateMaster::new(spec.clone(), shards).run();

        // Conservation: every vehicle is simulated once or skipped.
        assert_eq!(
            report.outcomes.len() as u64 + report.skipped,
            u64::from(spec.vehicles),
            "case {case}"
        );
        assert!(report.totals.conserves(), "case {case}");

        // Rejected configurations are never flashed: a vehicle is rejected
        // exactly when its variant fails admission, for that reason; it never
        // downloads or retries, and it is counted as rejected, so it stays
        // out of the stage sketches (`conserves`) and the storm.
        let mut rejected = [0u64; 2];
        for o in &report.outcomes {
            let admission = spec.mix[o.variant].admit(&spec.image);
            let VehicleVerdict::Rejected(reject) = o.verdict else {
                assert_eq!(admission, Ok(()), "case {case} {:?}", o.vehicle);
                continue;
            };
            assert_eq!(admission, Err(reject), "case {case} {:?}", o.vehicle);
            assert!(
                o.started == o.downloaded && o.downloaded == o.completed && o.retries == 0,
                "case {case}: rejected {:?} entered the pipeline",
                o.vehicle
            );
            rejected[usize::from(reject != Reject::Flash)] += 1;
        }
        let t = &report.totals;
        assert_eq!(
            rejected,
            [t.rejected_flash, t.rejected_config],
            "case {case}"
        );

        // A halted campaign opens no wave after the one that tripped.
        let opened = report.waves.len();
        let promoted = report.waves.iter().take_while(|w| w.promoted).count();
        assert_eq!(promoted + usize::from(report.halted), opened, "case {case}");
        assert!(report.halted || opened == bounds.len(), "case {case}");
        let stranded: u64 = bounds[opened..]
            .iter()
            .map(|&(lo, hi)| u64::from(hi - lo))
            .sum();
        assert_eq!(report.skipped, stranded, "case {case}");

        // The shard count is invisible in the report.
        for other in [1, 3] {
            let again = UpdateMaster::new(spec.clone(), other).run();
            let case = format!("case {case}, {shards} vs {other} shards");
            assert!(again.waves == report.waves, "{case}");
            assert!(again.totals == report.totals, "{case}");
            assert!(again.outcomes == report.outcomes, "{case}");
            assert_eq!(
                (again.skipped, again.halted, again.completed_at),
                (report.skipped, report.halted, report.completed_at),
                "{case}"
            );
        }
    }
}

/// The per-vehicle kernel as first written, kept here only as the oracle
/// for [`simulate_vehicle`]: every probability is a float `gen_bool`
/// (re-validated on each draw), and every chunk scans the whole plan for
/// partitions.
fn naive_vehicle(spec: &CampaignSpec, vehicle: VehicleId, wave_start: SimTime) -> VehicleOutcome {
    const VEHICLE_STREAM: u64 = 0x0F1E_E7CA_A5E5_0001;
    const MAX_CHUNK_RETRIES: u32 = 16;
    fn coin(rng: &mut SplitMix64, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        rng.gen::<f64>() < p
    }
    let mut rng = seeded_rng(split_seed(
        split_seed(spec.seed, VEHICLE_STREAM),
        u64::from(vehicle.raw()),
    ));
    let variant_idx = pick_variant(&spec.mix, &mut rng);
    let variant = &spec.mix[variant_idx];
    let region = region_of(spec, vehicle);
    let stagger = SimDuration::from_nanos(rng.gen_range(0..spec.wave_spread.as_nanos().max(1)));
    let started = wave_start + stagger;
    let done = |verdict, downloaded, completed, stall, retries| VehicleOutcome {
        vehicle,
        variant: variant_idx,
        region,
        verdict,
        started,
        downloaded,
        completed,
        stall,
        retries,
    };
    if let Err(reject) = variant.admit(&spec.image) {
        let verdict = VehicleVerdict::Rejected(reject);
        return done(verdict, started, started, SimDuration::ZERO, 0);
    }
    if spec.offline_rate > 0.0 && coin(&mut rng, spec.offline_rate) {
        let verdict = VehicleVerdict::Offline;
        return done(verdict, started, started, SimDuration::ZERO, 0);
    }
    let plan = &spec.plan;
    let chunk_time =
        SimDuration::from_secs_f64(spec.image.chunk_kib() / variant.download_kib_per_s as f64);
    let mut t = started;
    let mut stall = SimDuration::ZERO;
    let mut retries = 0u32;
    for _chunk in 0..spec.image.chunks {
        let clear = plan.clear_of_partitions(region, t);
        stall += clear.saturating_since(t);
        t = clear;
        if plan.drop_rate > 0.0 {
            let mut lost = 0u32;
            while lost < MAX_CHUNK_RETRIES && coin(&mut rng, plan.drop_rate) {
                lost += 1;
                t += chunk_time;
            }
            retries += lost;
        }
        if plan.delay_spike_rate > 0.0 && coin(&mut rng, plan.delay_spike_rate) {
            t += plan.delay_spike.mul_f64(rng.gen::<f64>());
        }
        t += chunk_time;
    }
    let downloaded = t;
    if plan.corrupt_rate > 0.0 && coin(&mut rng, plan.corrupt_rate) {
        t += downloaded.saturating_since(started).mul_f64(0.25);
        if coin(&mut rng, plan.corrupt_rate) {
            return done(VehicleVerdict::VerifyFailed, downloaded, t, stall, retries);
        }
    }
    t += variant
        .install
        .mul_f64(truncated_normal_factor(&mut rng, 0.15, 0.6, 1.8));
    t += variant.verify;
    let verdict = if coin(&mut rng, variant.good_image_verify_failure) {
        VehicleVerdict::VerifyFailed
    } else {
        VehicleVerdict::Updated
    };
    done(verdict, downloaded, t, stall, retries)
}

/// A probability that is exactly 0 or 1 a third of the time, tiny now
/// and then, and uniform otherwise.
fn arb_rate(rng: &mut SplitMix64) -> f64 {
    match rng.gen_range(0u32..8) {
        0 | 1 => 0.0,
        2 => 1.0,
        3 => 1e-6,
        _ => rng.gen_range(0.0..1.0),
    }
}

/// A random fault plan: random rates, and up to eight partitions in
/// random order that overlap, abut or chain, some on buses beyond the
/// campaign's regions.
fn arb_fleet_plan(rng: &mut SplitMix64, seed: u64, regions: u16) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed)
        .with_message_faults(arb_rate(rng), arb_rate(rng), 0.0)
        .with_delay_spikes(
            arb_rate(rng),
            SimDuration::from_millis(rng.gen_range(0u64..5_000)),
        );
    let (mut bus, mut until) = (BusId(0), 0u64);
    for _ in 0..rng.gen_range(0usize..9) {
        // A chained window stays on the last window's bus.
        let from = match rng.gen_range(0u32..3) {
            0 => until,                                          // abuts the last window
            1 => until.saturating_sub(rng.gen_range(0u64..200)), // overlaps it
            _ => {
                bus = BusId(rng.gen_range(0..regions + 3));
                rng.gen_range(0u64..3_000)
            }
        };
        until = from + rng.gen_range(1u64..600);
        plan = plan.partition(bus, SimTime::from_secs(from), SimTime::from_secs(until));
    }
    for i in (1..plan.partitions.len()).rev() {
        plan.partitions.swap(i, rng.gen_range(0..=i));
    }
    plan
}

#[test]
fn vehicle_kernel_matches_the_naive_oracle() {
    let (mut stalled, mut lost, mut offline) = (0u64, 0u64, 0u64);
    for case in 0..CASES {
        let mut rng = case_rng(12, case);
        let seed: u64 = rng.gen();
        let arm = fleet_arms(seed).swap_remove(case as usize % 3).plan;
        let regions = rng.gen_range(1u16..10);
        let random = arb_fleet_plan(&mut rng, seed, regions);
        for plan in [arm, random] {
            let mut spec = CampaignSpec::standard(seed, 10_000, plan);
            spec.regions = regions;
            spec.offline_rate = arb_rate(&mut rng);
            spec.mix = (0..rng.gen_range(1usize..5))
                .map(|_| HwVariant {
                    good_image_verify_failure: arb_rate(&mut rng),
                    ..arb_variant(&mut rng)
                })
                .collect();
            spec.image.chunks = rng.gen_range(1u32..48);
            spec.wave_spread = SimDuration::from_secs(rng.gen_range(0u64..120));
            for _ in 0..96 {
                let vehicle = VehicleId(rng.gen_range(0u32..10_000));
                let start = SimTime::from_millis(rng.gen_range(0u64..3_500_000));
                let fast = simulate_vehicle(&spec, vehicle, start);
                let naive = naive_vehicle(&spec, vehicle, start);
                assert_eq!(fast, naive, "case {case}, {vehicle:?} at {start:?}");
                stalled += u64::from(!fast.stall.is_zero());
                lost += u64::from(fast.retries);
                offline += u64::from(fast.verdict == VehicleVerdict::Offline);
            }
        }
    }
    assert!(
        stalled > 100 && lost > 1_000 && offline > 100,
        "{stalled} {lost} {offline}"
    );
}

// -------------------------------------------------------------- SLO gate --

/// Burn rate over the newest `window` batches, recomputed from scratch:
/// bad fraction over budget, 0.0 when the window holds no events.
fn naive_burn(batches: &[(u64, u64)], window: usize, budget: f64) -> f64 {
    let recent = &batches[batches.len().saturating_sub(window)..];
    let good: u64 = recent.iter().map(|&(g, _)| g).sum();
    let bad: u64 = recent.iter().map(|&(_, b)| b).sum();
    if good + bad == 0 {
        return 0.0;
    }
    (bad as f64 / (good + bad) as f64) / budget
}

#[test]
fn slo_gate_matches_naive_windows_and_a_bare_estimator() {
    let mut all_edges = 0u64;
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let budget = rng.gen_range(0.01..0.3);
        let rates = [0.0, budget / 2.0, budget, (budget * 4.0).min(1.0), 1.0];
        let mut gate = SloBurnGate::new(SloSpec::error_fraction("prop.slo", budget));
        let mut oracle = BoundaryEstimator::new(1.0);
        let mut since_reset: Vec<(u64, u64)> = Vec::new();
        let (mut was_tripped, mut edges) = (false, 0u64);
        let mut rate = rates[0];
        let mut t = SimTime::ZERO;
        for step in 0..rng.gen_range(1usize..120) {
            if rng.gen_bool(0.05) {
                gate.reset();
                oracle.reset();
                since_reset.clear();
                was_tripped = false;
            }
            if rng.gen_bool(0.1) {
                rate = rates[rng.gen_range(0..rates.len())];
            }
            let n = rng.gen_range(0u64..64);
            let bad = (0..n).filter(|_| rng.gen_bool(rate)).count() as u64;
            t += SimDuration::from_millis(rng.gen_range(1u64..50));
            let v = gate.observe(t, n - bad, bad);
            since_reset.push((n - bad, bad));

            let at = format!("case {case} step {step}");
            assert_eq!(v.batch_burn, naive_burn(&since_reset, 1, budget), "{at}");
            assert_eq!(v.fast_burn, naive_burn(&since_reset, 4, budget), "{at}");
            assert_eq!(v.slow_burn, naive_burn(&since_reset, 16, budget), "{at}");

            let estimate = oracle.ingest(t, v.batch_burn);
            let tripped = estimate.exceeds_with_confidence(0.95);
            assert_eq!(v.estimate, estimate, "{at}");
            assert_eq!(v.tripped, tripped, "{at}");
            assert_eq!(v.trip_edge, tripped && !was_tripped, "{at}");
            edges += u64::from(v.trip_edge);
            was_tripped = tripped;
        }
        assert_eq!(gate.trips(), edges, "case {case}");
        all_edges += edges;
    }
    assert!(all_edges > 0, "no case ever tripped the gate");
}

// ----------------------------------------------------------- update path --

#[test]
fn update_path_is_a_valid_topological_order() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let n = rng.gen_range(2usize..8);
        let n_edges = rng.gen_range(0usize..12);
        let apps: Vec<AppId> = (0..n).map(|i| AppId(i as u32)).collect();
        // Forward edges only (consumer -> provider with lower index): acyclic.
        let deps: Vec<(AppId, AppId)> = (0..n_edges)
            .filter_map(|_| {
                let a = rng.gen_range(0usize..8) % n;
                let b = rng.gen_range(0usize..8) % n;
                if a > b {
                    Some((AppId(a as u32), AppId(b as u32)))
                } else {
                    None
                }
            })
            .collect();
        let order = update_path(&apps, &deps, |_, _, _| true).expect("acyclic plans");
        assert_eq!(order.len(), n, "case {case}");
        for &(consumer, provider) in &deps {
            let pi = order.iter().position(|&a| a == provider).expect("present");
            let ci = order.iter().position(|&a| a == consumer).expect("present");
            assert!(
                pi < ci,
                "case {case}: {provider} must update before {consumer}"
            );
        }
    }
}
