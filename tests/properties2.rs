//! Property-based tests, part 2: TSN/FlexRay media invariants, Ethernet
//! analysis soundness, replica state synchronization, fleet campaigns,
//! typed endpoints and update paths.
//!
//! Implemented as seeded-random loop tests on `dynplat::common::rng` (no
//! external property-testing dependency).

use dynplat::comm::endpoint::{ClientProxy, ServiceSkeleton};
use dynplat::common::ids::ServiceInstance;
use dynplat::common::rng::{seeded_rng, split_seed, Rng, SplitMix64};
use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::value::{DataType, Value};
use dynplat::common::{AppId, EventGroupId, MessageId, MethodId, ServiceId};
use dynplat::core::sync::ReplicaState;
use dynplat::core::update::update_path;
use dynplat::faults::FaultPlan;
use dynplat::fleet::{standard_mix, CampaignSpec, HwVariant, Reject, UpdateMaster, VehicleVerdict};
use dynplat::monitor::slo::{SloBurnGate, SloSpec};
use dynplat::monitor::uncertainty::{BoundaryConfig, BoundaryEstimator};
use dynplat::net::analysis::{worst_case_gate_delay, EthFlowSpec, EthernetAnalysis};
use dynplat::net::ethernet::{ethernet_frame_time, StrictPriorityPort};
use dynplat::net::flexray::{FlexRayBus, FlexRayConfig, SlotAssignment};
use dynplat::net::tsn::{GateControlList, GateWindow, TsnGatedPort};
use dynplat::net::{simulate, Arbiter, Frame, Grant, TrafficClass, Transmission, TxEvent};
use dynplat::security::authz::{AccessControlMatrix, Permission};
use dynplat::security::package::Version;

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

// ------------------------------------------------------------ state sync --

#[test]
fn replica_sync_converges_under_random_operations() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n_ops = rng.gen_range(1usize..60);
        let sync_every = rng.gen_range(1usize..10);
        let mut primary = ReplicaState::new();
        let mut standby = ReplicaState::new();
        let mut last_sync = 0u64;
        for i in 0..n_ops {
            let op = rng.gen_range(0u8..3);
            let key = format!("k{}", rng.gen_range(0u8..8));
            let byte: u8 = rng.gen();
            match op {
                0 | 1 => primary.set(key, vec![byte]),
                _ => {
                    primary.remove(&key);
                }
            }
            if i % sync_every == 0 {
                let delta = primary.delta_since(last_sync);
                standby
                    .apply_delta(&delta)
                    .expect("contiguous deltas apply");
                last_sync = standby.version();
                assert_eq!(standby.digest(), primary.digest(), "case {case}");
            }
        }
        // Final catch-up always converges.
        let delta = primary.delta_since(last_sync);
        standby.apply_delta(&delta).expect("applies");
        assert_eq!(standby.digest(), primary.digest(), "case {case}");
        assert_eq!(standby.version(), primary.version(), "case {case}");
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
        let mut oracle = BoundaryEstimator::new(BoundaryConfig::for_boundary(1.0));
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

// -------------------------------------------------------------- endpoint --

#[test]
fn endpoint_roundtrips_random_record_payloads() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let n = rng.gen_range(1usize..6);
        let fields: Vec<(String, u32)> = (0..n)
            .map(|i| {
                let len = rng.gen_range(1usize..5);
                let mut name: String = (0..len)
                    .map(|_| rng.gen_range(b'a'..=b'z') as char)
                    .collect();
                name.push_str(&i.to_string());
                (name, rng.gen::<u32>())
            })
            .collect();
        let req_ty = DataType::Record(
            fields
                .iter()
                .map(|(n, _)| (n.clone(), DataType::U32))
                .collect(),
        );
        let args = Value::Record(
            fields
                .iter()
                .map(|(n, v)| (n.clone(), Value::U32(*v)))
                .collect(),
        );
        let resp_ty = DataType::U64;
        let mut skel = ServiceSkeleton::new(ServiceInstance::new(ServiceId(9), 0), 1).method(
            MethodId(1),
            req_ty.clone(),
            resp_ty.clone(),
            |v| {
                let sum: u64 = match v {
                    Value::Record(fs) => fs
                        .iter()
                        .filter_map(|(_, v)| v.as_f64())
                        .map(|f| f as u64)
                        .sum(),
                    _ => 0,
                };
                Value::U64(sum)
            },
        );
        let mut matrix = AccessControlMatrix::new();
        matrix.grant(AppId(1), ServiceId(9), Permission::Call(MethodId(1)));
        let mut proxy = ClientProxy::new(AppId(1), 1);
        let request = proxy
            .request(ServiceId(9), MethodId(1), &req_ty, &args)
            .expect("conforms");
        let response = skel.handle(AppId(1), &request, &matrix).expect("handled");
        let value = proxy.parse_response(&response, &resp_ty).expect("ok");
        let expected: u64 = fields.iter().map(|(_, v)| u64::from(*v)).sum();
        assert_eq!(value, Value::U64(expected), "case {case}");
    }
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

// ------------------------------------------------------------------ misc --

#[test]
fn event_group_ids_survive_endpoint_notifications() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let group: u16 = rng.gen();
        let speed: i32 = rng.gen::<u32>() as i32;
        let ty = DataType::record([("v", DataType::F64)]);
        let skel = ServiceSkeleton::new(ServiceInstance::new(ServiceId(1), 0), 1)
            .event(EventGroupId(group), ty.clone());
        let payload = Value::record([("v", Value::F64(f64::from(speed)))]);
        let datagram = skel
            .notify(EventGroupId(group), &payload)
            .expect("conforms");
        let (g, v) = ClientProxy::parse_notification(&datagram, &ty).expect("decodes");
        assert_eq!(g, EventGroupId(group), "case {case}");
        assert_eq!(v, payload, "case {case}");
    }
}
