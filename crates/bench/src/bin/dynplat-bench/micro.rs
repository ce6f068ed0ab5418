//! Micro-benchmarks over the hot paths of every substrate: crypto
//! primitives, wire codecs, task monitoring, session authentication,
//! schedulability analyses, TT synthesis, design-space exploration, DSL
//! parsing and fabric simulation. The wall-clock costs behind E7–E10 are
//! rows here, so that those experiments print only seed-pure figures.
//!
//! Prints one TSV row per benchmark (`name`, `ns_per_iter`, `iters`),
//! each timed over a ~200 ms budget. Flags:
//!
//! * `--quick` — a ~2 ms budget per benchmark, for a fast smoke pass.
//!
//! The timings are wall-clock and vary run to run.

use crate::e10_dse_admission::platform_model;
use crate::{Flags, Outcome};
use dynplat_comm::fabric::{Fabric, MessageSend};
use dynplat_comm::wire::SomeIpHeader;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppId, BusId, EcuId, MessageId, MethodId, ServiceId, TaskId};
use dynplat_dse::search::{
    explore, greedy_first_fit, random_search, simulated_annealing, DseConfig,
};
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat_model::dsl::parse_model;
use dynplat_monitor::{FaultRecorder, MonitorSpec, TaskMonitor, TaskObservation};
use dynplat_net::can::{CanAnalysis, CanMessageSpec};
use dynplat_net::TrafficClass;
use dynplat_obs::TraceCtx;
use dynplat_sched::rta;
use dynplat_sched::task::{TaskSet, TaskSpec};
use dynplat_sched::tt;
use dynplat_security::authn::{service_accept_ticket, KeyServer, Principal, SecureChannel};
use dynplat_security::master::{VoucherIssuer, WeakEcuVerifier};
use dynplat_security::package::{KeyRegistry, SignedPackage, UpdatePackage, Version};
use dynplat_security::sha256::{hmac_sha256, sha256};
use dynplat_security::sign::KeyPair;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

/// Times `f` over enough iterations to smooth noise and prints the result
/// as a TSV row (`name<TAB>ns_per_iter<TAB>iters`).
fn bench<T>(name: &str, quick: bool, mut f: impl FnMut() -> T) {
    // Warm up and calibrate the iteration count to a time budget.
    let budget_ns: u128 = if quick { 2_000_000 } else { 200_000_000 };
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().as_nanos().max(1);
    let iters = (budget_ns / once).clamp(1, 100_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per_iter = start.elapsed().as_nanos() / u128::from(iters);
    println!("{name}\t{per_iter}\t{iters}");
}

fn bench_crypto(quick: bool) {
    for size in [64usize, 1024, 16384] {
        let data = vec![0xA5u8; size];
        bench(&format!("crypto/sha256/{size}"), quick, || {
            sha256(black_box(&data))
        });
    }
    let key = [7u8; 32];
    let msg = vec![1u8; 256];
    bench("crypto/hmac_sha256_256B", quick, || {
        hmac_sha256(black_box(&key), black_box(&msg))
    });
    let kp = KeyPair::from_seed(b"bench");
    let payload = vec![9u8; 1024];
    bench("crypto/sign_1KiB", quick, || kp.sign(black_box(&payload)));
    let sig = kp.sign(&payload);
    bench("crypto/verify_1KiB", quick, || {
        kp.public().verify(black_box(&payload), black_box(&sig))
    });
    let package = UpdatePackage::new(AppId(1), Version::new(1, 0, 0), 1, vec![0; 4096]);
    let signed = SignedPackage::create(&package, &kp);
    let mut registry = KeyRegistry::new();
    registry.trust(kp.public());
    bench("crypto/verify_signed_package_4KiB", quick, || {
        signed.verify(black_box(&registry)).expect("verifies")
    });
    // E8a's accelerator-class baseline.
    let package = UpdatePackage::new(AppId(1), Version::new(2, 0, 0), 7, vec![0xAB; 64 * 1024]);
    let signed = SignedPackage::create(&package, &kp);
    bench("crypto/verify_signed_package_64KiB", quick, || {
        signed.verify(black_box(&registry)).expect("verifies")
    });

    // E8c: a weak ECU's voucher check against the signature verification it
    // replaces, on a 64 B package where the asymmetric operation dominates.
    // The toy 61-bit signature field (DESIGN.md §5) makes verification
    // unrealistically cheap; on a production curve it costs orders of
    // magnitude more than the voucher's single HMAC.
    let package = UpdatePackage::new(AppId(2), Version::new(1, 0, 0), 1, vec![0u8; 64]);
    let signed = SignedPackage::create(&package, &kp);
    let psk = [0x55u8; 32];
    let mut master = VoucherIssuer::new(registry.clone());
    master.enroll(EcuId(0), psk);
    let (_, voucher) = master
        .verify_for(&signed, EcuId(0))
        .expect("master verifies");
    let weak = WeakEcuVerifier::new(EcuId(0), psk);
    bench("security/voucher_check_64B", quick, || {
        assert!(weak.accept(black_box(&signed.package_bytes), &voucher));
    });
    bench("security/verify_signed_package_64B", quick, || {
        signed.verify(black_box(&registry)).expect("verifies")
    });
}

/// E9a: session setup after \[10\], and one authenticated 64 B message
/// sealed by the client and opened by the service.
fn bench_session(quick: bool) {
    let mut ks = KeyServer::new();
    ks.enroll(Principal::Client(AppId(2)), [1; 32]);
    ks.enroll(Principal::Service(ServiceId(1)), [2; 32]);
    bench("security/session_setup", quick, || {
        ks.grant_session(AppId(2), ServiceId(1)).expect("granted")
    });
    let grant = ks.grant_session(AppId(2), ServiceId(1)).expect("granted");
    let mut service =
        service_accept_ticket(&[2; 32], AppId(2), ServiceId(1), &grant).expect("ticket ok");
    let mut client = SecureChannel::new(grant.session_key);
    let payload = vec![0u8; 64];
    bench("security/authenticated_64B_round", quick, || {
        service
            .open(&client.seal(black_box(&payload)))
            .expect("authentic")
    });
}

/// E7a: one on-time activation and its completion through a task monitor,
/// i.e. two observations.
fn bench_monitor(quick: bool) {
    let period = SimDuration::from_millis(10);
    let mut monitor = TaskMonitor::new(MonitorSpec::new(TaskId(1), period, period, 1 << 20));
    let mut recorder = FaultRecorder::default();
    let mut release = SimTime::ZERO;
    bench("monitor/observe_pair", quick, || {
        release += period;
        let completion = release + SimDuration::from_millis(2);
        monitor.observe(TaskObservation::Activation(release), &mut recorder)
            + monitor.observe(
                TaskObservation::Completion {
                    release,
                    completion,
                },
                &mut recorder,
            )
    });
}

fn bench_wire(quick: bool) {
    let header = SomeIpHeader::request(ServiceId(0x1234), MethodId(0x21), 3, 4);
    let payload = vec![0u8; 256];
    bench("wire/someip_encode_256B", quick, || {
        header.encode(black_box(&payload))
    });
    let wire = header.encode(&payload);
    bench("wire/someip_decode_256B", quick, || {
        SomeIpHeader::decode(black_box(&wire)).expect("decodes")
    });
}

fn task_set(n: u32) -> TaskSet {
    (0..n)
        .map(|i| {
            TaskSpec::periodic(
                TaskId(i),
                format!("t{i}"),
                SimDuration::from_millis(5 * (u64::from(i % 6) + 1)),
                SimDuration::from_micros(200),
            )
            .with_priority(i)
        })
        .collect()
}

fn bench_sched(quick: bool) {
    for n in [10u32, 40] {
        let set = task_set(n);
        bench(&format!("sched/rta/{n}"), quick, || {
            rta::response_times(black_box(&set))
        });
        bench(&format!("sched/tt_synthesis/{n}"), quick, || {
            tt::synthesize(black_box(&set)).expect("synthesizes")
        });
    }
}

/// E10a: each DSE algorithm on the largest architecture of the table, 60
/// apps over a 10-ECU pool.
fn bench_dse(quick: bool) {
    let model = platform_model(60, 10);
    let cfg = DseConfig {
        iterations: 1200,
        seed: 3,
        ..Default::default()
    };
    bench("dse/greedy/60_apps", quick, || greedy_first_fit(&model));
    bench("dse/random/60_apps", quick, || random_search(&model, &cfg));
    bench("dse/annealing/60_apps", quick, || {
        simulated_annealing(&model, &cfg)
    });
    bench("dse/annealing-x4/60_apps", quick, || explore(&model, &cfg));
}

fn bench_can_analysis(quick: bool) {
    let specs: Vec<CanMessageSpec> = (0..30)
        .map(|i| {
            CanMessageSpec::periodic(
                MessageId(i),
                8,
                SimDuration::from_millis(10 * (u64::from(i) + 1)),
            )
        })
        .collect();
    let analysis = CanAnalysis::new(500_000, specs);
    bench("can/wcrt_30_messages", quick, || analysis.response_times());
}

fn bench_dsl(quick: bool) {
    let text = r#"
system {
  hardware {
    ecu "a" { id 0 class domain }
    ecu "b" { id 1 class high }
    bus "e" { id 0 ethernet 100000000 attach [0 1] }
  }
  interface "s" {
    id 1 owner 1 version 1
    event "e" { id 1 payload {x: f64, y: [u32; 8]} latency 10ms critical }
    method "m" { id 2 request {a: u32} response bool }
  }
  application "p" { id 1 deterministic asil C provides [1] period 10ms work 2 memory 512 }
  application "c" { id 2 non-deterministic asil QM consumes [1 event 1] period 50ms work 1 memory 256 }
  deployment { app 1 on 0  app 2 on any [0 1] }
}
"#;
    bench("dsl/parse", quick, || {
        parse_model(black_box(text)).expect("parses")
    });
}

fn bench_fabric(quick: bool) {
    let topo = HwTopology::from_parts(
        [
            EcuSpec::of_class(EcuId(0), "a", EcuClass::Domain),
            EcuSpec::of_class(EcuId(1), "b", EcuClass::Domain),
        ],
        [BusSpec::new(
            BusId(0),
            "e",
            BusKind::ethernet_100m(),
            [EcuId(0), EcuId(1)],
        )],
    )
    .expect("valid");
    bench("fabric/500_messages", quick, || {
        let mut fabric = Fabric::new(topo.clone());
        let sends: Vec<MessageSend> = (0..500)
            .map(|i| MessageSend {
                id: i,
                time: SimTime::from_micros(i * 20),
                src: EcuId(0),
                dst: EcuId(1),
                payload: 256,
                class: TrafficClass::BestEffort,
                priority: (i % 4) as u32,
                trace: TraceCtx::NONE,
            })
            .collect();
        fabric.run(sends, |_| vec![])
    });
}

pub fn run(flags: &Flags) -> Outcome {
    let quick = flags.get("--quick").is_some();
    println!("benchmark\tns_per_iter\titers");
    bench_crypto(quick);
    bench_wire(quick);
    bench_session(quick);
    bench_monitor(quick);
    bench_sched(quick);
    bench_dse(quick);
    bench_can_analysis(quick);
    bench_dsl(quick);
    bench_fabric(quick);
    Ok(ExitCode::SUCCESS)
}
