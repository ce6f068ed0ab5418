//! Observability-driven performance benchmark and regression gate.
//!
//! Drives the instrumented hot paths — comm publish/deliver (Event, RPC,
//! Stream), topology route resolution, and the scheduler dispatch loop —
//! with wall-clock-calibrated workloads (400 ms per phase, 50 ms with
//! `--quick`), then emits the global metrics registry as a machine-readable
//! `BENCH_*.json` snapshot (`--out PATH`, schema `dynplat.bench.v1`) plus a
//! Prometheus-style exposition on stdout.
//!
//! Every comm phase must deliver exactly the messages it sent; a mismatch
//! exits non-zero. With `--check`, throughput gauges are compared against
//! the baseline snapshot; a drop of more than 30% on any gated gauge prints
//! the delta and exits non-zero. This is the CI perf smoke gate.
//!
//! With `--threads N`, every phase runs on `N` OS threads concurrently
//! against the shared global registry; the gauges then report *aggregate*
//! ops over the slowest worker's elapsed time. This is the contended
//! variant of the gate: a change that serializes the hot paths (a new
//! lock, a widened critical section) shows up here even when the
//! single-thread numbers look fine.
//!
//! A fourth stream phase runs over a fabric whose backbone is a TSN-gated
//! port (`BusPort::tsn_for`): 60 KiB frames of 41 MTU segments each, so
//! 802.1Qbv gate arbitration sits on its path. Its rate is reported as the
//! ungated `bench.net.tsn_ops_per_sec` and kept out of
//! `bench.comm.deliver_ops_per_sec`; it is held to the same
//! delivered == sent check. A fifth runs the same kind of stream over a
//! FlexRay channel (`BusPort::default_for(BusKind::flexray_10m())`): 2 KiB
//! frames of 9 segments each contend for the dynamic segment, held to the
//! same check.
//!
//! On a single-thread run the scenario also counts heap allocations made
//! inside the comm, TSN, FlexRay and sched phases' steady-state loops
//! (after a warmup batch that fills every scratch buffer to its high-water
//! mark) via a counting global allocator, and emits
//! `bench.comm.allocs_per_delivery`, `bench.net.tsn_allocs_per_frame`,
//! `bench.net.flexray_allocs_per_frame` and
//! `bench.sched.allocs_per_dispatch`. With `--check` the gate fails if any
//! of them is non-zero: the fabric's deliver path, TSN gate and FlexRay
//! arbitration and a reused scheduler simulator are required to be
//! allocation-free once warmed.

use crate::{alloc_gate, Flags, Outcome};
use dynplat_bench::{outln, Table};
use dynplat_comm::fabric::{BusPort, Fabric};
use dynplat_comm::paradigm::{
    run_rpc_into, run_stream_into, EventBus, EventScratch, Publication, RpcCall, RpcScratch,
    StreamScratch, StreamSpec,
};
use dynplat_comm::sd::{SdEntry, ServiceDirectory};
use dynplat_common::ids::ServiceInstance;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppId, BusId, EcuId, EventGroupId, ServiceId, TaskId};
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat_net::{GateControlList, TrafficClass};
use dynplat_obs::MetricsSnapshot;
use dynplat_obs::TraceCtx;
use dynplat_sched::simulate::{Policy, SchedSimConfig, Simulator};
use dynplat_sched::task::{TaskSet, TaskSpec};
use std::process::ExitCode;
use std::time::Instant;

/// Gauges gated by `--check`: current must stay above
/// `PERF_GATE_RATIO x baseline`.
const GATED_GAUGES: [&str; 3] = [
    "bench.comm.deliver_ops_per_sec",
    "bench.hw.route_ops_per_sec",
    "bench.sched.dispatch_ops_per_sec",
];

/// A gated gauge may drop to 70% of the baseline before the gate trips.
const PERF_GATE_RATIO: f64 = 0.70;

/// Runs a phase on `threads` workers concurrently, summing each op counter
/// and keeping the slowest worker's elapsed time — aggregate throughput
/// under contention on the shared registry.
fn contended<const N: usize>(
    threads: usize,
    budget: std::time::Duration,
    f: fn(std::time::Duration) -> ([u64; N], std::time::Duration),
) -> ([u64; N], std::time::Duration) {
    if threads <= 1 {
        return f(budget);
    }
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads).map(|_| s.spawn(move || f(budget))).collect();
        let mut ops = [0u64; N];
        let mut elapsed = std::time::Duration::ZERO;
        for w in workers {
            let (o, e) = w.join().expect("bench worker panicked");
            for (sum, o) in ops.iter_mut().zip(o) {
                *sum += o;
            }
            elapsed = elapsed.max(e);
        }
        (ops, elapsed)
    })
}

fn four_ecu_ethernet() -> HwTopology {
    HwTopology::from_parts(
        [
            EcuSpec::of_class(EcuId(0), "a", EcuClass::Domain),
            EcuSpec::of_class(EcuId(1), "b", EcuClass::Domain),
            EcuSpec::of_class(EcuId(2), "c", EcuClass::Domain),
            EcuSpec::of_class(EcuId(3), "d", EcuClass::Domain),
        ],
        [BusSpec::new(
            BusId(0),
            "eth",
            BusKind::ethernet_100m(),
            [EcuId(0), EcuId(1), EcuId(2), EcuId(3)],
        )],
    )
    .expect("valid topology")
}

/// Event paradigm: repeated publish batches fanning out to three
/// subscribers, until `budget` wall-clock elapses. Returns
/// `([sends, deliveries], elapsed)` counted at the fabric level — one send
/// per subscriber leg, the same per-message accounting the rpc and
/// stream phases use (matches `comm.fabric.sends`/`.deliveries`).
fn run_event_phase(budget: std::time::Duration) -> ([u64; 2], std::time::Duration) {
    let topo = four_ecu_ethernet();
    let instance = ServiceInstance::new(ServiceId(1), 1);
    let group = EventGroupId(1);
    let ttl = SimDuration::from_secs(3600);
    let mut directory = ServiceDirectory::new();
    directory.apply(
        SimTime::ZERO,
        &SdEntry::Offer {
            instance,
            host: EcuId(0),
            version: 1,
            ttl,
        },
    );
    for sub in 1..=3u16 {
        directory.apply(
            SimTime::ZERO,
            &SdEntry::Subscribe {
                instance,
                group,
                subscriber: AppId(u32::from(sub)),
                host: EcuId(sub),
                ttl,
            },
        );
    }
    let publications: Vec<Publication> = (0..100u64)
        .map(|k| Publication {
            time: SimTime::from_micros(k * 500),
            instance,
            group,
            src: EcuId(0),
            payload: 256,
            class: TrafficClass::Critical,
            priority: 1,
            trace: TraceCtx::NONE,
        })
        .collect();
    let mut fabric = Fabric::new(topo);
    let mut scratch = EventScratch::new();
    let mut out = Vec::new();
    let mut bus = EventBus::new(&mut fabric, &directory);
    // Warmup: two batches grow every scratch buffer, ring, arena class and
    // metric handle to its steady-state high-water mark before the counted
    // window opens.
    bus.publish_all_into(&publications, &mut scratch, &mut out);
    bus.publish_all_into(&publications, &mut scratch, &mut out);
    let (mut published, mut delivered) = (0u64, 0u64);
    alloc_gate::set_counting(true);
    let start = Instant::now();
    while start.elapsed() < budget {
        bus.publish_all_into(&publications, &mut scratch, &mut out);
        published += scratch.fanout_sends() as u64;
        delivered += out.len() as u64;
    }
    let elapsed = start.elapsed();
    alloc_gate::set_counting(false);
    // Republish the event fabric's occupancy so the snapshot's slab/arena
    // gauges describe the fanout workload, not whichever phase ran last.
    let slab = fabric.slab_stats();
    let arena = fabric.arena_stats();
    EVENT_SLAB.store(
        pack3(slab.live, slab.free, fabric.peak_slab_capacity()),
        std::sync::atomic::Ordering::SeqCst,
    );
    EVENT_ARENA.store(
        pack3(arena.live, arena.free, arena.bytes),
        std::sync::atomic::Ordering::SeqCst,
    );
    ([published, delivered], elapsed)
}

/// Slab/arena occupancy of the event phase's fabric, packed with [`pack3`]
/// (phase functions are plain `fn` pointers, so results that are not part
/// of the `(ops, ops, elapsed)` tuple travel through statics).
static EVENT_SLAB: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static EVENT_ARENA: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Packs three small counts into 21-bit lanes of one `u64`.
fn pack3(a: usize, b: usize, c: usize) -> u64 {
    const M: u64 = (1 << 21) - 1;
    (a as u64 & M) | ((b as u64 & M) << 21) | ((c as u64 & M) << 42)
}

/// Inverse of [`pack3`].
fn unpack3(v: u64) -> (i64, i64, i64) {
    const M: u64 = (1 << 21) - 1;
    (
        (v & M) as i64,
        ((v >> 21) & M) as i64,
        ((v >> 42) & M) as i64,
    )
}

/// Message paradigm: RPC round-trip batches. Returns
/// `([sends, deliveries], elapsed)` counted at the fabric level: every
/// completed round trip is two messages (request + response), the same
/// per-leg accounting the event phase uses for its fanout legs.
fn run_rpc_phase(budget: std::time::Duration) -> ([u64; 2], std::time::Duration) {
    let topo = four_ecu_ethernet();
    let calls: Vec<RpcCall> = (0..50u64)
        .map(|k| RpcCall {
            time: SimTime::from_micros(k * 1000),
            client: EcuId(0),
            server: EcuId(1),
            request_payload: 64,
            response_payload: 256,
            processing: SimDuration::from_micros(100),
            class: TrafficClass::Critical,
            priority: 1,
            trace: TraceCtx::NONE,
        })
        .collect();
    let mut fabric = Fabric::new(topo);
    let mut scratch = RpcScratch::new();
    let mut stats = Vec::new();
    run_rpc_into(&mut fabric, &calls, &mut scratch, &mut stats);
    run_rpc_into(&mut fabric, &calls, &mut scratch, &mut stats);
    let (mut issued, mut completed) = (0u64, 0u64);
    alloc_gate::set_counting(true);
    let start = Instant::now();
    while start.elapsed() < budget {
        run_rpc_into(&mut fabric, &calls, &mut scratch, &mut stats);
        issued += 2 * calls.len() as u64;
        completed += 2 * stats.len() as u64;
    }
    let elapsed = start.elapsed();
    alloc_gate::set_counting(false);
    ([issued, completed], elapsed)
}

/// A stream from ECU 0 to ECU 1 of [`four_ecu_ethernet`].
fn stream_spec(frames: usize, interval: SimDuration, frame_payload: usize) -> StreamSpec {
    StreamSpec {
        start: SimTime::ZERO,
        frames,
        interval,
        frame_payload,
        src: EcuId(0),
        dst: EcuId(1),
        class: TrafficClass::Stream,
        priority: 4,
        trace: TraceCtx::NONE,
    }
}

/// Runs `spec` over `fabric` in batches until `budget` elapses, after two
/// warmup batches. Returns `([sent, delivered], elapsed)`.
fn stream_batches(
    mut fabric: Fabric,
    spec: &StreamSpec,
    budget: std::time::Duration,
) -> ([u64; 2], std::time::Duration) {
    let mut scratch = StreamScratch::new();
    run_stream_into(&mut fabric, spec, &mut scratch);
    run_stream_into(&mut fabric, spec, &mut scratch);
    let (mut sent, mut delivered) = (0u64, 0u64);
    alloc_gate::set_counting(true);
    let start = Instant::now();
    while start.elapsed() < budget {
        let stats = run_stream_into(&mut fabric, spec, &mut scratch);
        sent += stats.sent as u64;
        delivered += stats.delivered as u64;
    }
    let elapsed = start.elapsed();
    alloc_gate::set_counting(false);
    ([sent, delivered], elapsed)
}

/// Stream paradigm: frame batches. Returns `([sent, delivered], elapsed)`.
fn run_stream_phase(budget: std::time::Duration) -> ([u64; 2], std::time::Duration) {
    let spec = stream_spec(100, SimDuration::from_millis(5), 4096);
    stream_batches(Fabric::new(four_ecu_ethernet()), &spec, budget)
}

/// TSN-gated stream: 60 KiB frames (41 MTU segments each) through an
/// 802.1Qbv port with a 1 ms mixed-criticality list on the backbone.
/// Returns `([sent, delivered], elapsed)`.
fn run_tsn_phase(budget: std::time::Duration) -> ([u64; 2], std::time::Duration) {
    let spec = stream_spec(20, SimDuration::from_millis(20), 60 * 1024);
    let mut fabric = Fabric::new(four_ecu_ethernet());
    let gcl = GateControlList::mixed_criticality(SimDuration::from_millis(1), 0.2);
    fabric.set_port(BusId(0), BusPort::tsn_for(BusKind::ethernet_100m(), gcl));
    stream_batches(fabric, &spec, budget)
}

/// FlexRay stream: 2 KiB frames (9 segments each) through the dynamic
/// segment of a FlexRay channel on the backbone. Returns
/// `([sent, delivered], elapsed)`.
fn run_flexray_phase(budget: std::time::Duration) -> ([u64; 2], std::time::Duration) {
    let spec = stream_spec(20, SimDuration::from_millis(20), 2 * 1024);
    let mut fabric = Fabric::new(four_ecu_ethernet());
    fabric.set_port(BusId(0), BusPort::default_for(BusKind::flexray_10m()));
    stream_batches(fabric, &spec, budget)
}

/// A 24-ECU gateway mesh: six CAN/Ethernet leaf segments bridged onto an
/// Ethernet backbone — routes of one to three hops.
fn gateway_mesh() -> HwTopology {
    let mut topo = HwTopology::new();
    let mut backbone = Vec::new();
    for seg in 0..6u16 {
        let gw = EcuId(seg * 4);
        backbone.push(gw);
        let mut leaf = vec![gw];
        topo.add_ecu(EcuSpec::of_class(gw, format!("gw{seg}"), EcuClass::Domain))
            .expect("fresh ids");
        for n in 1..4u16 {
            let id = EcuId(seg * 4 + n);
            leaf.push(id);
            topo.add_ecu(EcuSpec::of_class(
                id,
                format!("n{seg}-{n}"),
                EcuClass::LowEnd,
            ))
            .expect("fresh ids");
        }
        let kind = if seg % 2 == 0 {
            BusKind::can_500k()
        } else {
            BusKind::ethernet_100m()
        };
        topo.add_bus(BusSpec::new(BusId(seg), format!("seg{seg}"), kind, leaf))
            .expect("fresh bus");
    }
    topo.add_bus(BusSpec::new(
        BusId(100),
        "backbone",
        BusKind::ethernet_1g(),
        backbone,
    ))
    .expect("fresh bus");
    topo
}

/// Route resolution: all-pairs queries over the gateway mesh through the
/// dense cache, rebuilt each sweep the way `Fabric::new` would. Returns
/// `([routes_resolved], elapsed)`.
fn run_route_phase(budget: std::time::Duration) -> ([u64; 1], std::time::Duration) {
    let topo = gateway_mesh();
    let ecus: Vec<EcuId> = topo.ecus().map(|e| e.id()).collect();
    let mut resolved = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        let mut cache = dynplat_hw::RouteCache::new(&topo);
        for &src in &ecus {
            for &dst in &ecus {
                if cache.route_buses(src, dst).is_ok() {
                    resolved += 1;
                }
            }
        }
    }
    ([resolved], start.elapsed())
}

/// Scheduler dispatch: preemptive fixed-priority simulation over a
/// 20-task set, one reused [`Simulator`]. Every timed run takes a fresh
/// seed, so each one draws its jobs' execution times anew instead of
/// replaying the simulator's generation memo. Returns
/// `([completions], elapsed)`.
fn run_sched_phase(budget: std::time::Duration) -> ([u64; 1], std::time::Duration) {
    let set: TaskSet = (0..20u32)
        .map(|i| {
            TaskSpec::periodic(
                TaskId(i),
                format!("t{i}"),
                SimDuration::from_millis(5 * (u64::from(i % 6) + 1)),
                SimDuration::from_micros(200),
            )
            .with_priority(i)
        })
        .collect();
    let mut cfg = SchedSimConfig {
        horizon: SimDuration::from_secs(1),
        ..Default::default()
    };
    let policy = Policy::FixedPriorityPreemptive;
    let mut sim = Simulator::new();
    // Warmup: one run grows the job store, heaps and stats buffer to their
    // steady-state size before the counted window opens.
    sim.run(&set, &policy, &cfg);
    let mut completions = 0u64;
    alloc_gate::set_counting(true);
    let start = Instant::now();
    while start.elapsed() < budget {
        cfg.seed += 1;
        let stats = sim.run(&set, &policy, &cfg);
        completions += stats.tasks.iter().map(|t| t.completions).sum::<u64>();
    }
    let elapsed = start.elapsed();
    alloc_gate::set_counting(false);
    ([completions], elapsed)
}

fn ops_per_sec(ops: u64, elapsed: std::time::Duration) -> i64 {
    let secs = elapsed.as_secs_f64();
    if secs <= 0.0 {
        return 0;
    }
    (ops as f64 / secs) as i64
}

/// Compares gated gauges against a baseline snapshot. Returns the list of
/// regressions as `(name, baseline, current, ratio)`.
fn gate(
    current: &MetricsSnapshot,
    baseline: &MetricsSnapshot,
) -> Vec<(&'static str, i64, i64, f64)> {
    let mut regressions = Vec::new();
    for name in GATED_GAUGES {
        let Some(&base) = baseline.gauges.get(name) else {
            continue; // gauge absent from baseline: nothing to gate on
        };
        if base <= 0 {
            continue;
        }
        let cur = current.gauges.get(name).copied().unwrap_or(0);
        let ratio = cur as f64 / base as f64;
        if ratio < PERF_GATE_RATIO {
            regressions.push((name, base, cur, ratio));
        }
    }
    regressions
}

pub fn run(flags: &Flags) -> Outcome {
    let threads = flags.positive("--threads", 1)?;
    let budget = if flags.get("--quick").is_some() {
        std::time::Duration::from_millis(50)
    } else {
        std::time::Duration::from_millis(400)
    };

    let registry = dynplat_obs::global();
    registry.reset();

    if threads == 1 {
        alloc_gate::arm();
    }
    let (event, event_elapsed) = contended(threads, budget, run_event_phase);
    let (rpc, rpc_elapsed) = contended(threads, budget, run_rpc_phase);
    let (stream, stream_elapsed) = contended(threads, budget, run_stream_phase);
    let ([routes_resolved], route_elapsed) = contended(threads, budget, run_route_phase);
    let comm_allocs = alloc_gate::total();
    let ([dispatch_completions], sched_elapsed) = contended(threads, budget, run_sched_phase);
    let sched_allocs = alloc_gate::total() - comm_allocs;
    let (tsn, tsn_elapsed) = contended(threads, budget, run_tsn_phase);
    let tsn_allocs = alloc_gate::total() - comm_allocs - sched_allocs;
    let (flexray, flexray_elapsed) = contended(threads, budget, run_flexray_phase);
    let flexray_allocs = alloc_gate::total() - comm_allocs - sched_allocs - tsn_allocs;

    let deliver_ops = event[1] + rpc[1] + stream[1];
    let comm_elapsed = event_elapsed + rpc_elapsed + stream_elapsed;
    registry
        .gauge("bench.comm.deliver_ops_per_sec")
        .set(ops_per_sec(deliver_ops, comm_elapsed));
    registry
        .gauge("bench.hw.route_ops_per_sec")
        .set(ops_per_sec(routes_resolved, route_elapsed));
    registry
        .gauge("bench.sched.dispatch_ops_per_sec")
        .set(ops_per_sec(dispatch_completions, sched_elapsed));
    registry
        .gauge("bench.net.tsn_ops_per_sec")
        .set(ops_per_sec(tsn[1], tsn_elapsed));

    // Republish the event-phase fabric's occupancy (see run_event_phase):
    // the snapshot's slab/arena gauges should describe the 3-subscriber
    // fanout workload, not the single-destination stream that ran last.
    let (slab_live, slab_free, slab_peak) =
        unpack3(EVENT_SLAB.load(std::sync::atomic::Ordering::SeqCst));
    let (arena_live, arena_free, arena_bytes) =
        unpack3(EVENT_ARENA.load(std::sync::atomic::Ordering::SeqCst));
    registry.gauge("bench.comm.slab_live").set(slab_live);
    registry.gauge("bench.comm.slab_free").set(slab_free);
    registry.gauge("bench.comm.slab_peak").set(slab_peak);
    registry.gauge("bench.comm.arena_live").set(arena_live);
    registry.gauge("bench.comm.arena_free").set(arena_free);
    registry.gauge("bench.comm.arena_bytes").set(arena_bytes);

    // Per-phase throughput diagnostics: the gated gauge aggregates the
    // three comm phases, so a regression in one can hide behind the others
    // without this breakdown. Every phase, the TSN stream included, must
    // deliver exactly what it sent.
    let mut lost = false;
    for (name, [sent, delivered], elapsed) in [
        ("event.deliver", event, event_elapsed),
        ("rpc.complete", rpc, rpc_elapsed),
        ("stream.deliver", stream, stream_elapsed),
        ("tsn.stream.deliver", tsn, tsn_elapsed),
        ("flexray.stream.deliver", flexray, flexray_elapsed),
    ] {
        let ops = ops_per_sec(delivered, elapsed);
        eprintln!("bench: phase {name}: {ops} ops/s");
        if delivered != sent {
            eprintln!("bench: DELIVERY MISMATCH in {name}: sent {sent}, delivered {delivered}");
            lost = true;
        }
    }

    // Steady-state allocation accounting (single-thread runs only). The
    // per-op gauges are ceiling-rounded so even one stray allocation
    // anywhere in a counted window reads as >= 1 and trips the gate.
    let per_op = |allocs: u64, ops: u64| {
        if threads == 1 && ops > 0 {
            allocs.div_ceil(ops) as i64
        } else {
            -1 // not measured under contention
        }
    };
    let allocs_per_delivery = per_op(comm_allocs, deliver_ops);
    let allocs_per_dispatch = per_op(sched_allocs, dispatch_completions);
    let tsn_allocs_per_frame = per_op(tsn_allocs, tsn[1]);
    let flexray_allocs_per_frame = per_op(flexray_allocs, flexray[1]);
    registry
        .gauge("bench.comm.steady_allocs")
        .set(comm_allocs as i64);
    registry
        .gauge("bench.comm.allocs_per_delivery")
        .set(allocs_per_delivery);
    registry
        .gauge("bench.sched.steady_allocs")
        .set(sched_allocs as i64);
    registry
        .gauge("bench.sched.allocs_per_dispatch")
        .set(allocs_per_dispatch);
    registry
        .gauge("bench.net.tsn_allocs_per_frame")
        .set(tsn_allocs_per_frame);
    registry
        .gauge("bench.net.flexray_allocs_per_frame")
        .set(flexray_allocs_per_frame);
    if threads == 1 {
        eprintln!(
            "bench: steady-state heap allocations: {comm_allocs} across {deliver_ops} deliveries, \
             {tsn_allocs} across {} TSN stream frames, \
             {flexray_allocs} across {} FlexRay stream frames, \
             {sched_allocs} across {dispatch_completions} dispatches",
            tsn[1], flexray[1]
        );
    }

    let snapshot = registry.snapshot();

    let table = Table::new(
        &format!(
            "BENCH — instrumented hot paths (latencies ns, {threads} thread{})",
            if threads == 1 { "" } else { "s" }
        ),
        &["histogram", "count", "p50", "p95", "p99", "max"],
    );
    for name in [
        "comm.event.latency_ns",
        "comm.rpc.round_trip_ns",
        "comm.stream.latency_ns",
        "comm.fabric.latency_ns",
        "sched.dispatch.response_ns",
        "sched.dispatch.slack_ns",
    ] {
        if let Some(h) = snapshot.histograms.get(name) {
            table.row(&[
                name.to_owned(),
                h.count.to_string(),
                h.p50.to_string(),
                h.p95.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
    }
    outln!();
    outln!("{}", snapshot.to_prometheus());

    if let Some(path) = flags.get("--out") {
        if let Err(e) = std::fs::write(path, snapshot.to_json()) {
            eprintln!("bench: cannot write {path}: {e}");
            return Ok(ExitCode::from(2));
        }
        eprintln!("bench: wrote snapshot to {path}");
    }

    if lost {
        return Ok(ExitCode::FAILURE);
    }

    if let Some(path) = flags.get("--check") {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("bench: cannot read baseline {path}: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        let baseline = match MetricsSnapshot::from_json(&text) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("bench: baseline {path} is invalid: {e}");
                return Ok(ExitCode::from(2));
            }
        };
        if threads == 1 && allocs_per_delivery > 0 {
            eprintln!(
                "bench: ALLOCATION REGRESSION: {comm_allocs} heap allocations in the \
                 steady-state deliver loop (expected 0; {deliver_ops} deliveries)"
            );
            return Ok(ExitCode::FAILURE);
        }
        if threads == 1 && tsn_allocs_per_frame > 0 {
            eprintln!(
                "bench: ALLOCATION REGRESSION: {tsn_allocs} heap allocations in the \
                 steady-state TSN stream loop (expected 0; {} frames)",
                tsn[1]
            );
            return Ok(ExitCode::FAILURE);
        }
        if threads == 1 && flexray_allocs_per_frame > 0 {
            eprintln!(
                "bench: ALLOCATION REGRESSION: {flexray_allocs} heap allocations in the \
                 steady-state FlexRay stream loop (expected 0; {} frames)",
                flexray[1]
            );
            return Ok(ExitCode::FAILURE);
        }
        if threads == 1 && allocs_per_dispatch > 0 {
            eprintln!(
                "bench: ALLOCATION REGRESSION: {sched_allocs} heap allocations in the \
                 steady-state dispatch loop (expected 0; {dispatch_completions} dispatches)"
            );
            return Ok(ExitCode::FAILURE);
        }
        let regressions = gate(&snapshot, &baseline);
        if !regressions.is_empty() {
            eprintln!(
                "bench: PERF REGRESSION (threshold {:.0}% of baseline):",
                PERF_GATE_RATIO * 100.0
            );
            for (name, base, cur, ratio) in &regressions {
                eprintln!(
                    "  {name}: baseline {base} -> current {cur} ({:.1}% of baseline)",
                    ratio * 100.0
                );
            }
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("bench: perf gate passed against {path}");
    }
    Ok(ExitCode::SUCCESS)
}
