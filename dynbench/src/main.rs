//! End-to-end and per-layer benchmark of the dynplat workspace.
//!
//! ```text
//! cargo run --release --offline --manifest-path dynbench/Cargo.toml -- \
//!     --workload <adas_cycle|sched_mix|fleet_rollout|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload is a closed loop over a pool of inputs generated from the
//! seed: set up, warm up by running every pool input once, then run units
//! back to back for `--seconds` seconds, setting up again between blocks of
//! the loop so that `setup_s` is sampled across the whole run. Every
//! unit's simulated outputs are checked (invariants plus a digest that must
//! repeat; on the default seed it must also equal the stored reference). With `--trace 1` the first half of the time runs
//! untraced and the second half records spans around every call into a
//! layer, replays the layers below in isolation, and reports per-layer
//! metrics plus the tracing overhead. `--workload all` runs each workload
//! in its own process and prints every end-to-end metric side by side.
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod adas;
mod alloc;
mod fleet;
mod sched_mix;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{per, Metrics, Workload};

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

const WORKLOADS: [&str; 3] = ["adas_cycle", "sched_mix", "fleet_rollout"];

/// Seed for development runs; its digests are checked against `reference/`.
/// Seed 20171018 is held out: not used while tuning a change, only to
/// confirm a claim (see README.md).
const DEFAULT_SEED: u64 = 1;

/// Length of one block of the timed loop.
const BLOCK: Duration = Duration::from_secs(1);
/// Untraced runs set up again after each block until the extra set-ups
/// have taken this share of the timed loop's time so far. Set-up time does
/// not count against `--seconds`.
const SETUP_SHARE: f64 = 0.15;
/// Where digests and span traces are written, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: dynbench --workload <adas_cycle|sched_mix|fleet_rollout|all> \
                     [--seed N] [--seconds S] [--trace 0|1]\n\
                     seeds: 1 (default) for development, 20171018 held out for confirming claims";

/// End-to-end metrics, in report order: name, unit.
const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("setup_cold_s", "s"),
    ("events_per_s", "1/s"),
    ("sim_speed", "sim_s/s"),
    ("unit_ms_p50", "ms"),
    ("unit_ms_p95", "ms"),
    ("peak_rss_mb", "MiB"),
    ("fail_frac", "ratio"),
    ("brake_sim_us_p99", "sim_us"),
    ("da_miss_frac", "ratio"),
    ("quiet_unit_ms", "ms"),
];

/// The end-to-end metrics in the result line: the gated ones in
/// `BENCHMARK.json`. On a shared host, other tenants contending for caches
/// and memory slow every unit by up to ~1.9× for stretches of milliseconds
/// to minutes, so the all-blocks figures above move with how much of a run
/// such stretches cover. `quiet_unit_ms` averages each pool input's
/// fastest unit, and `setup_s` is the fastest of the set-ups spread over
/// the run: interference only ever slows a unit or a set-up down, and in a
/// run every input meets some quiet moment. `fail_frac` travels as
/// `failed / attempted`; the simulated statistics are fixed per seed and
/// go to the traced run.
const RESULT_E2E: [&str; 3] = ["setup_s", "quiet_unit_ms", "peak_rss_mb"];

/// Span groups whose self time the traced run reports, as
/// `self.<group>.ns_per_unit`: the unit itself (harness), the layers called
/// inside it, then the isolated replays.
const SELF_SPANS: [(&str, &str); 16] = [
    ("self.bench.unit.ns_per_unit", "bench.unit"),
    ("self.comm.paradigm.ns_per_unit", "comm.paradigm."),
    ("self.comm.wire.ns_per_unit", "comm.wire"),
    ("self.comm.arena.ns_per_unit", "comm.arena"),
    ("self.comm.fabric.ns_per_unit", "comm.fabric"),
    ("self.sched.simulate.ns_per_unit", "sched.simulate."),
    ("self.fleet.spawn.ns_per_unit", "fleet.spawn"),
    ("self.fleet.campaign.ns_per_unit", "fleet.campaign"),
    ("self.hw.routes.ns_per_unit", "hw.routes"),
    ("self.net.ns_per_unit", "net."),
    ("self.comm.ring.ns_per_unit", "comm.ring"),
    ("self.obs.metrics.ns_per_unit", "obs.metrics"),
    ("self.obs.sketch.ns_per_unit", "obs.sketch."),
    ("self.fleet.vehicle.ns_per_unit", "fleet.vehicle"),
    ("self.fleet.shard.ns_per_unit", "fleet.shard"),
    ("self.monitor.slo.ns_per_unit", "monitor.slo"),
];

/// Per-layer metrics of the traced run: name, unit. Counts are per traced
/// unit unless the name says otherwise; a layer a workload does not cross
/// reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("comm.fabric.deliveries", "count/unit"),
    ("comm.fabric.ns_per_delivery", "ns"),
    ("comm.fabric.self_ns_per_delivery", "ns"),
    ("comm.fabric.ring_spills", "count/unit"),
    ("comm.fabric.dropped", "count/unit"),
    ("comm.paradigm.stream.ns_per_call", "ns"),
    ("comm.paradigm.stream.msgs_per_call", "count"),
    ("comm.paradigm.rpc.ns_per_call", "ns"),
    ("comm.paradigm.rpc.msgs_per_call", "count"),
    ("comm.paradigm.event.ns_per_call", "ns"),
    ("comm.paradigm.event.msgs_per_call", "count"),
    ("comm.wire.encodes", "count/unit"),
    ("comm.wire.ns_per_encode", "ns"),
    ("comm.arena.stages", "count/unit"),
    ("comm.arena.ns_per_stage", "ns"),
    ("comm.arena.live", "count"),
    ("comm.arena.free", "count"),
    ("comm.ring.ops", "count/unit"),
    ("comm.ring.ns_per_op", "ns"),
    ("comm.ring.spill_frac", "ratio"),
    ("hw.routes.lookups", "count/unit"),
    ("hw.routes.ns_per_lookup", "ns"),
    ("hw.routes.prefetches", "count/unit"),
    ("net.eth.frames", "count/unit"),
    ("net.eth.ns_per_frame", "ns"),
    ("net.tsn.frames", "count/unit"),
    ("net.tsn.ns_per_frame", "ns"),
    ("net.can.frames", "count/unit"),
    ("net.can.ns_per_frame", "ns"),
    ("net.tsn.dropped", "count/unit"),
    ("sched.simulate.fifo.calls", "count/unit"),
    ("sched.simulate.fifo.jobs", "count/call"),
    ("sched.simulate.fifo.ns_per_job", "ns"),
    ("sched.simulate.fifo.ns_per_call", "ns"),
    ("sched.simulate.fp.calls", "count/unit"),
    ("sched.simulate.fp.jobs", "count/call"),
    ("sched.simulate.fp.ns_per_job", "ns"),
    ("sched.simulate.fp.ns_per_call", "ns"),
    ("sched.simulate.fp_server.calls", "count/unit"),
    ("sched.simulate.fp_server.jobs", "count/call"),
    ("sched.simulate.fp_server.ns_per_job", "ns"),
    ("sched.simulate.fp_server.ns_per_call", "ns"),
    ("sched.simulate.tt.calls", "count/unit"),
    ("sched.simulate.tt.jobs", "count/call"),
    ("sched.simulate.tt.ns_per_job", "ns"),
    ("sched.simulate.tt.ns_per_call", "ns"),
    ("sched.tt.synth_ms", "ms"),
    ("obs.metrics.records", "count/unit"),
    ("obs.metrics.ns_per_record", "ns"),
    ("obs.sketch.records", "count/unit"),
    ("obs.sketch.ns_per_record", "ns"),
    ("obs.sketch.merges", "count/unit"),
    ("obs.sketch.ns_per_merge", "ns"),
    ("fleet.vehicle.count", "count/unit"),
    ("fleet.vehicle.ns_per_vehicle", "ns"),
    ("fleet.shard.waves", "count/unit"),
    ("fleet.shard.ns_per_wave", "ns"),
    ("fleet.shard.parallel_eff", "ratio"),
    ("fleet.campaign.self_frac", "ratio"),
    ("monitor.slo.batches", "count/unit"),
    ("monitor.slo.ns_per_batch", "ns"),
    ("monitor.slo.trips", "count/unit"),
    ("alloc.per_unit", "count/unit"),
    ("sim.brake_us_p99", "sim_us"),
    ("sim.da_miss_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.units", "count"),
    ("self.bench.unit.ns_per_unit", "ns"),
    ("self.comm.paradigm.ns_per_unit", "ns"),
    ("self.comm.wire.ns_per_unit", "ns"),
    ("self.comm.arena.ns_per_unit", "ns"),
    ("self.comm.fabric.ns_per_unit", "ns"),
    ("self.sched.simulate.ns_per_unit", "ns"),
    ("self.fleet.spawn.ns_per_unit", "ns"),
    ("self.fleet.campaign.ns_per_unit", "ns"),
    ("self.hw.routes.ns_per_unit", "ns"),
    ("self.net.ns_per_unit", "ns"),
    ("self.comm.ring.ns_per_unit", "ns"),
    ("self.obs.metrics.ns_per_unit", "ns"),
    ("self.obs.sketch.ns_per_unit", "ns"),
    ("self.fleet.vehicle.ns_per_unit", "ns"),
    ("self.fleet.shard.ns_per_unit", "ns"),
    ("self.monitor.slo.ns_per_unit", "ns"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or("--seconds needs a positive integer")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    Ok(args)
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn make(workload: &str, seed: u64) -> Box<dyn Workload> {
    match workload {
        "adas_cycle" => Box::new(adas::Adas::new(seed)),
        "sched_mix" => Box::new(sched_mix::SchedMix::new(seed)),
        "fleet_rollout" => Box::new(fleet::Fleet::new(seed, nproc())),
        other => unreachable!("workload {other} was validated by parse_args"),
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn reference_text(workload: &str) -> &'static str {
    match workload {
        "adas_cycle" => include_str!("../reference/adas_cycle.txt"),
        "sched_mix" => include_str!("../reference/sched_mix.txt"),
        _ => include_str!("../reference/fleet_rollout.txt"),
    }
}

/// Parses `<index> <hex digest>` lines (`#` starts a comment).
fn parse_reference(text: &str) -> Vec<u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| u64::from_str_radix(l.split_whitespace().nth(1)?, 16).ok())
        .collect()
}

fn digest_file(workload: &str, seed: u64, digests: &[u64]) -> String {
    let mut out = format!("# {workload} pool digests, seed {seed}: <input> <digest>\n");
    for (i, d) in digests.iter().enumerate() {
        let _ = writeln!(out, "{i} {d:016x}");
    }
    out
}

/// One second of the timed loop, summarised when it closes. Only the open
/// block's unit times are held, so the harness's own memory does not grow
/// with the number of units (it would show in `peak_rss_mb`).
struct Block {
    units: usize,
    /// Σ unit time, ns.
    ns: u64,
    /// Σ simulated events.
    events: u64,
    /// Σ simulated time, ns.
    sim_ns: u64,
    p50_ns: u64,
    p95_ns: u64,
}

/// What one timed phase measured.
#[derive(Default)]
struct Phase {
    blocks: Vec<Block>,
    /// Fastest unit time of each pool input, ns (`u64::MAX` if it never ran).
    fastest_ns: Vec<u64>,
    allocs: u64,
    attempted: u64,
    failed: u64,
}

impl Phase {
    fn units(&self) -> usize {
        self.blocks.iter().map(|b| b.units).sum()
    }

    /// Mean over the pool inputs that ran of each one's fastest unit time,
    /// ms.
    fn quiet_unit_ms(&self) -> f64 {
        let ran: Vec<u64> = self
            .fastest_ns
            .iter()
            .copied()
            .filter(|&t| t != u64::MAX)
            .collect();
        per(ran.iter().sum::<u64>() as f64, ran.len() as f64 * 1e6)
    }

    /// `f` of every block, ascending. Host interference comes in stretches
    /// of seconds, so it moves only the blocks it falls in.
    fn per_block(&self, f: impl Fn(&Block) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.blocks.iter().map(f).collect();
        if v.is_empty() {
            v.push(0.0);
        }
        v.sort_by(f64::total_cmp);
        v
    }

    /// Each block's median unit time, ms, ascending.
    fn p50s_ms(&self) -> Vec<f64> {
        self.per_block(|b| b.p50_ns as f64 / 1e6)
    }
}

/// Median of an ascending, non-empty slice.
fn median(sorted: &[f64]) -> f64 {
    (sorted[(sorted.len() - 1) / 2] + sorted[sorted.len() / 2]) / 2.0
}

/// Summarises the open block's unit times (sorted in place) and sums.
fn close_block(unit_ns: &mut Vec<u64>, sums: (u64, u64), blocks: &mut Vec<Block>) {
    if unit_ns.is_empty() {
        return;
    }
    unit_ns.sort_unstable();
    blocks.push(Block {
        units: unit_ns.len(),
        ns: unit_ns.iter().sum(),
        events: sums.0,
        sim_ns: sums.1,
        p50_ns: nearest_rank(unit_ns, 0.50),
        p95_ns: nearest_rank(unit_ns, 0.95),
    });
    unit_ns.clear();
}

/// Runs units back to back for `budget`, in blocks of one second. A unit
/// fails if it panics, breaks an invariant, or its digest differs from
/// `expected` (or its input's reference digest was already wrong, `bad`).
/// After each block, `between` is handed the loop time so far and may do
/// untimed work; its time does not count against `budget`.
fn measure(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    budget: Duration,
    expected: &[u64],
    bad: &[bool],
    first_unit: u64,
    between: &mut dyn FnMut(Duration),
) -> Phase {
    let mut p = Phase {
        fastest_ns: vec![u64::MAX; w.pool_len()],
        ..Phase::default()
    };
    let mut unit_ns = Vec::new();
    let mut sums = (0u64, 0u64);
    let start = Instant::now();
    let mut paused = Duration::ZERO;
    let mut block_start = start;
    let mut n = first_unit;
    while start.elapsed() - paused < budget {
        let i = (n % w.pool_len() as u64) as usize;
        p.attempted += 1;
        let allocs = alloc::count();
        let t0 = Instant::now();
        tr.begin("bench.unit");
        let ran = catch_unwind(AssertUnwindSafe(|| w.run_unit(i, tr)));
        tr.end();
        let dt = t0.elapsed();
        p.allocs += alloc::count() - allocs;
        let checked = ran.and_then(|()| {
            catch_unwind(AssertUnwindSafe(|| {
                if tr.is_on() {
                    w.replay(i, tr);
                }
                w.inspect(i, false)
            }))
        });
        let Ok(check) = checked else {
            // A panicking unit leaves the workload in an unknown state.
            p.failed += 1;
            break;
        };
        if !check.ok || bad[i] || check.digest != expected[i] {
            p.failed += 1;
        }
        let ns = dt.as_nanos() as u64;
        unit_ns.push(ns);
        p.fastest_ns[i] = p.fastest_ns[i].min(ns);
        sums.0 += check.events;
        sums.1 += check.sim_ns;
        if block_start.elapsed() >= BLOCK {
            close_block(&mut unit_ns, sums, &mut p.blocks);
            sums = (0, 0);
            let t = Instant::now();
            between(t - start - paused);
            paused += t.elapsed();
            block_start = Instant::now();
        }
        n += 1;
    }
    close_block(&mut unit_ns, sums, &mut p.blocks);
    p
}

fn fmt_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (k, (name, value, unit)) in metrics.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            fmt_value(*value)
        );
    }
    out.push_str("}}");
    println!("{out}");
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map_or("", |&(_, u)| u)
}

/// Sets the workload up once: builds it (topologies, input pool, set-up
/// checks) and warms it up by running and digesting every pool input.
/// Returns the instance, its digests, the time taken in seconds, and
/// whether every check held. `collect` gathers the pool's simulated
/// statistics.
fn set_up(workload: &str, seed: u64, collect: bool) -> (Box<dyn Workload>, Vec<u64>, f64, bool) {
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    let mut w = make(workload, seed);
    let mut ok = w.setup_ok();
    let mut digests = Vec::with_capacity(w.pool_len());
    for i in 0..w.pool_len() {
        w.run_unit(i, &mut off);
        let check = w.inspect(i, collect);
        digests.push(check.digest);
        ok &= check.ok;
    }
    (w, digests, t0.elapsed().as_secs_f64(), ok)
}

/// Runs one workload; `started` is when the process started.
fn run_one(args: &Args, started: Instant) -> Result<bool, String> {
    let workload = args.workload.as_str();
    let mut off = Tracer::new(false);

    let (mut w, digests, first_setup, mut setup_ok) = set_up(workload, args.seed, true);
    let setup_cold_s = started.elapsed().as_secs_f64();
    let mut setup_s = vec![first_setup];

    std::fs::create_dir_all(format!("{OUT_DIR}/digests"))
        .map_err(|e| format!("cannot create {OUT_DIR}/digests: {e}"))?;
    std::fs::write(
        format!("{OUT_DIR}/digests/{workload}-seed{}.txt", args.seed),
        digest_file(workload, args.seed, &digests),
    )
    .map_err(|e| format!("cannot write digests: {e}"))?;
    // On the default seed every pool input must match its reference
    // digest; on any other seed the warm-up digests are the expectation.
    let bad: Vec<bool> = if args.seed == DEFAULT_SEED {
        let reference = parse_reference(reference_text(workload));
        (0..digests.len())
            .map(|i| reference.get(i) != Some(&digests[i]))
            .collect()
    } else {
        vec![false; digests.len()]
    };
    let mismatched = bad.iter().filter(|&&b| b).count();
    if mismatched > 0 {
        eprintln!(
            "dynbench: {workload}: {mismatched} of {} pool inputs differ from the reference digests",
            bad.len()
        );
    }

    let budget = Duration::from_secs(args.seconds);
    let sim = w.sim_stats();
    let nproc = nproc();
    println!(
        "# dynbench {workload}: seed {} seconds {} trace {} nproc {nproc} pool {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.pool_len(),
    );

    let (correct, attempted, failed, metrics) = if !args.trace {
        // Set up again between blocks, so that the set-ups are spread over
        // the run like the blocks are; each must reproduce the digests.
        let mut spent = 0.0;
        let mut resetup = |loop_time: Duration| {
            while spent < SETUP_SHARE * loop_time.as_secs_f64() {
                let (_, again, secs, ok) = set_up(workload, args.seed, false);
                setup_ok &= ok && again == digests;
                spent += secs;
                setup_s.push(secs);
            }
        };
        let p = measure(
            w.as_mut(),
            &mut off,
            budget,
            &digests,
            &bad,
            0,
            &mut resetup,
        );
        let peak_rss = peak_rss_mb()?;
        setup_s.sort_by(f64::total_cmp);
        let p50 = p.p50s_ms();
        let e2e: Vec<(&str, Option<f64>)> = vec![
            ("setup_s", setup_s.first().copied()),
            ("setup_cold_s", Some(setup_cold_s)),
            (
                "events_per_s",
                Some(median(
                    &p.per_block(|b| per(b.events as f64 * 1e9, b.ns as f64)),
                )),
            ),
            (
                "sim_speed",
                Some(median(&p.per_block(|b| per(b.sim_ns as f64, b.ns as f64)))),
            ),
            ("unit_ms_p50", Some(median(&p50))),
            (
                "unit_ms_p95",
                Some(median(&p.per_block(|b| b.p95_ns as f64 / 1e6))),
            ),
            ("peak_rss_mb", Some(peak_rss)),
            ("fail_frac", Some(per(p.failed as f64, p.attempted as f64))),
            ("brake_sim_us_p99", sim.brake_us_p99),
            ("da_miss_frac", sim.da_miss_frac),
            ("quiet_unit_ms", Some(p.quiet_unit_ms())),
        ];
        for (name, value) in &e2e {
            let shown = value.map_or_else(|| "n/a".to_owned(), fmt_value);
            println!("e2e {workload} {name} {shown} {}", unit_of(name));
        }
        println!(
            "# {workload}: {} units timed in {} one-second blocks, {} set-ups",
            p.units(),
            p.blocks.len(),
            setup_s.len()
        );
        let metrics: Vec<(String, f64, &str)> = e2e
            .iter()
            .filter(|(n, _)| RESULT_E2E.contains(n))
            .map(|&(n, v)| (n.to_owned(), v.unwrap_or(0.0), unit_of(n)))
            .collect();
        (
            setup_ok && p.failed == 0 && mismatched == 0,
            p.attempted,
            p.failed,
            metrics,
        )
    } else {
        let half = budget / 2;
        let untraced = measure(w.as_mut(), &mut off, half, &digests, &bad, 0, &mut |_| {});
        let mut tr = Tracer::new(true);
        let traced = measure(
            w.as_mut(),
            &mut tr,
            half,
            &digests,
            &bad,
            untraced.attempted,
            &mut |_| {},
        );
        let units = traced.units() as f64;
        let mut m = Metrics::default();
        w.layer_metrics(&tr, units, &mut m);
        for (name, prefix) in SELF_SPANS {
            m.set(name, per(tr.totals_prefix(prefix).self_ns as f64, units));
        }
        m.set(
            "alloc.per_unit",
            per(untraced.allocs as f64, untraced.units() as f64),
        );
        m.set("sim.brake_us_p99", sim.brake_us_p99.unwrap_or(0.0));
        m.set("sim.da_miss_frac", sim.da_miss_frac.unwrap_or(0.0));
        m.set(
            "trace.overhead_frac",
            per(traced.quiet_unit_ms(), untraced.quiet_unit_ms()) - 1.0,
        );
        m.set("trace.units", units);
        if let Some((name, _)) =
            m.0.iter()
                .find(|(n, _)| !PER_LAYER.iter().any(|(p, _)| p == n))
        {
            return Err(format!("metric {name} is missing from PER_LAYER"));
        }
        let path = format!("{OUT_DIR}/trace-{workload}-seed{}.json", args.seed);
        std::fs::write(&path, dynplat_obs::chrome::to_chrome_trace(tr.finished()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# {workload}: spans written to {path}");
        let metrics: Vec<(String, f64, &str)> = PER_LAYER
            .iter()
            .map(|&(n, u)| (n.to_owned(), m.get(n).unwrap_or(0.0), u))
            .collect();
        for (name, value, unit) in &metrics {
            println!("layer {workload} {name} {} {unit}", fmt_value(*value));
        }
        let failed = untraced.failed + traced.failed;
        (
            setup_ok && failed == 0 && mismatched == 0,
            untraced.attempted + traced.attempted,
            failed,
            metrics,
        )
    };
    if !setup_ok {
        eprintln!("dynbench: {workload}: set-up checks failed");
    }
    result_line(correct, attempted, failed, &metrics);
    Ok(correct)
}

/// Runs every workload in its own process and prints the end-to-end
/// metrics side by side.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut table: Vec<Vec<String>> = Vec::new();
    let mut metrics = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", "0"]);
        let out = cmd
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or("");
        if !out.status.success() || !last.starts_with('{') {
            return Err(format!("{workload} exited with {}", out.status));
        }
        correct &= last.contains("\"correct\":true");
        let field = |key: &str| -> u64 {
            last.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|s| s.split(',').next())
                .and_then(|s| s.parse().ok())
                .unwrap_or(0)
        };
        attempted += field("attempted");
        failed += field("failed");
        let mut column = Vec::new();
        for line in stdout.lines().filter(|l| l.starts_with("e2e ")) {
            let f: Vec<&str> = line.split_whitespace().collect();
            if let [_, _, name, value, ..] = f[..] {
                column.push(value.to_owned());
                if let Ok(v) = value.parse::<f64>() {
                    metrics.push((format!("{workload}.{name}"), v, unit_of(name)));
                }
            }
        }
        table.push(column);
    }
    println!(
        "# dynbench all: seed {} seconds {}",
        args.seed, args.seconds
    );
    println!(
        "{:<18} {:>8} {:>16} {:>16} {:>16}",
        "metric", "unit", WORKLOADS[0], WORKLOADS[1], WORKLOADS[2]
    );
    for (row, (name, unit)) in END_TO_END.iter().enumerate() {
        let cell = |c: usize| table[c].get(row).map_or("?", String::as_str).to_owned();
        println!(
            "{name:<18} {unit:>8} {:>16} {:>16} {:>16}",
            cell(0),
            cell(1),
            cell(2)
        );
    }
    result_line(correct, attempted, failed, &metrics);
    Ok(correct)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dynbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args, started)
    };
    match run {
        // The result line carries the verdict; a completed run exits 0.
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dynbench: {e}");
            ExitCode::FAILURE
        }
    }
}
