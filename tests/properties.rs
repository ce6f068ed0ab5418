//! Property-based tests over the workspace invariants (DESIGN.md §6).
//!
//! Implemented as seeded-random loop tests on `dynplat::common::rng` (no
//! external property-testing dependency): each test derives one RNG stream
//! per case via `split_seed`, so failures replay from the printed case seed.

use dynplat::common::codec::{ByteReader, ByteWriter};
use dynplat::common::rng::{seeded_rng, split_seed, Rng, SplitMix64};
use dynplat::common::time::{SimDuration, SimTime};
use dynplat::common::value::{DataType, Value};
use dynplat::common::{AppId, AppKind, MessageId, MethodId, ServiceId, TaskId};
use dynplat::net::analysis::{EthFlowSpec, EthernetAnalysis, Wcrt};
use dynplat::net::can::{can_frame_time, CanAnalysis, CanArbiter, CanMessageSpec};
use dynplat::net::{ethernet_frame_time, simulate, Frame, TxEvent};
use dynplat::obs::TraceCtx;
use dynplat::sched::admission::{AdmissionController, AdmissionTest};
use dynplat::sched::server::PeriodicServer;
use dynplat::sched::simulate::{simulate_schedule, Policy, SchedSimConfig, Simulator};
use dynplat::sched::task::{TaskSet, TaskSpec};
use dynplat::sched::tt::{self, TtEntry, TtSchedule, TtSynthesisError};
use dynplat::security::package::{KeyRegistry, SignedPackage, UpdatePackage, Version};
use dynplat::security::sha256::{hmac_sha256, sha256, Sha256};
use dynplat::security::sign::KeyPair;

const SUITE_SEED: u64 = 0x5EED_0001;
const CASES: u64 = 64;

/// One deterministic RNG per (test, case) pair.
fn case_rng(test: u64, case: u64) -> SplitMix64 {
    seeded_rng(split_seed(split_seed(SUITE_SEED, test), case))
}

fn rand_bytes(rng: &mut SplitMix64, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(0..max_len + 1);
    (0..len).map(|_| rng.gen::<u8>()).collect()
}

fn rand_printable(rng: &mut SplitMix64, max_len: usize) -> String {
    let len = rng.gen_range(0..max_len + 1);
    (0..len)
        .map(|_| rng.gen_range(0x20u8..0x7F) as char)
        .collect()
}

fn rand_ident(rng: &mut SplitMix64, tag: usize) -> String {
    let len = rng.gen_range(1usize..6);
    let mut s: String = (0..len)
        .map(|_| rng.gen_range(b'a'..=b'z') as char)
        .collect();
    // Suffix keeps record field names unique within one container.
    s.push_str(&tag.to_string());
    s
}

// ---------------------------------------------------------------- codecs --

fn arb_leaf_type(rng: &mut SplitMix64) -> DataType {
    match rng.gen_range(0usize..10) {
        0 => DataType::Bool,
        1 => DataType::U8,
        2 => DataType::U16,
        3 => DataType::U32,
        4 => DataType::U64,
        5 => DataType::I64,
        6 => DataType::F64,
        7 => DataType::Str,
        8 => DataType::Blob,
        _ => {
            let n = rng.gen_range(1usize..4);
            DataType::Enum((0..n).map(|i| rand_ident(rng, i)).collect())
        }
    }
}

fn arb_type(rng: &mut SplitMix64, depth: usize) -> DataType {
    if depth == 0 || rng.gen_bool(0.4) {
        return arb_leaf_type(rng);
    }
    if rng.gen_bool(0.5) {
        let n = rng.gen_range(0usize..4);
        DataType::array(arb_type(rng, depth - 1), n)
    } else {
        let n = rng.gen_range(1usize..4);
        DataType::Record(
            (0..n)
                .map(|i| (rand_ident(rng, i), arb_type(rng, depth - 1)))
                .collect(),
        )
    }
}

fn arb_value_of(rng: &mut SplitMix64, ty: &DataType) -> Value {
    match ty {
        DataType::Bool => Value::Bool(rng.next_u64() & 1 == 1),
        DataType::U8 => Value::U8(rng.gen()),
        DataType::U16 => Value::U16(rng.gen()),
        DataType::U32 => Value::U32(rng.gen()),
        DataType::U64 => Value::U64(rng.gen()),
        DataType::I64 => Value::I64(rng.gen()),
        DataType::F64 => Value::F64(f64::from(rng.gen::<u32>() as i32)),
        DataType::Str => Value::Str(rand_printable(rng, 24)),
        DataType::Blob => Value::Blob(rand_bytes(rng, 32)),
        DataType::Array(elem, len) => {
            Value::Array((0..*len).map(|_| arb_value_of(rng, elem)).collect())
        }
        DataType::Record(fields) => Value::Record(
            fields
                .iter()
                .map(|(n, t)| (n.clone(), arb_value_of(rng, t)))
                .collect(),
        ),
        DataType::Enum(variants) => Value::EnumOrdinal(rng.gen_range(0..variants.len() as u8)),
    }
}

#[test]
fn typed_value_encode_decode_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let ty = arb_type(&mut rng, 3);
        let value = arb_value_of(&mut rng, &ty);
        assert!(value.conforms_to(&ty), "case {case}");
        let bytes = value.encode();
        let (lo, hi) = ty.encoded_size_bounds();
        assert!(
            bytes.len() >= lo && bytes.len() <= hi.max(lo) + 1024,
            "case {case}"
        );
        let back = Value::decode(&bytes, &ty).expect("own encoding decodes");
        assert_eq!(back, value, "case {case}");
    }
}

#[test]
fn byte_writer_reader_roundtrip() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let (a, b, c, d) = (
            rng.gen::<u8>(),
            rng.gen::<u16>(),
            rng.gen::<u32>(),
            rng.gen::<u64>(),
        );
        let s = rand_printable(&mut rng, 64);
        let blob = rand_bytes(&mut rng, 128);
        let mut w = ByteWriter::new();
        w.put_u8(a);
        w.put_u16(b);
        w.put_u32(c);
        w.put_u64(d);
        w.put_string(&s);
        w.put_len_prefixed(&blob);
        let buf = w.into_vec();
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.take_u8().unwrap(), a);
        assert_eq!(r.take_u16().unwrap(), b);
        assert_eq!(r.take_u32().unwrap(), c);
        assert_eq!(r.take_u64().unwrap(), d);
        assert_eq!(r.take_string().unwrap(), s);
        assert_eq!(r.take_len_prefixed(1024).unwrap(), &blob[..]);
        assert!(r.is_empty());
    }
}

#[test]
fn truncated_input_never_panics() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let data = rand_bytes(&mut rng, 64);
        let mut r = ByteReader::new(&data);
        let _ = r.take_u64();
        let _ = r.take_string();
        let ty = DataType::Record(vec![
            ("a".into(), DataType::U32),
            ("b".into(), DataType::Str),
        ]);
        let _ = Value::decode(&data, &ty); // must return Err, not panic
    }
}

// ---------------------------------------------------------------- security --

#[test]
fn sha256_incremental_equals_one_shot() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let data = rand_bytes(&mut rng, 512);
        let split = rng.gen_range(0usize..512).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data), "case {case}");
    }
}

#[test]
fn hmac_differs_under_key_or_message_change() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let mut key = rand_bytes(&mut rng, 63);
        key.push(rng.gen());
        let msg = rand_bytes(&mut rng, 64);
        let mac = hmac_sha256(&key, &msg);
        let mut key2 = key.clone();
        key2[0] ^= 1;
        assert_ne!(mac, hmac_sha256(&key2, &msg), "case {case}");
        let mut msg2 = msg.clone();
        msg2.push(0);
        assert_ne!(mac, hmac_sha256(&key, &msg2), "case {case}");
    }
}

#[test]
fn signature_roundtrip_and_tamper_rejection() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let mut seed = rand_bytes(&mut rng, 31);
        seed.push(rng.gen());
        let msg = rand_bytes(&mut rng, 128);
        let kp = KeyPair::from_seed(&seed);
        let sig = kp.sign(&msg);
        assert!(kp.public().verify(&msg, &sig), "case {case}");
        let mut tampered = msg.clone();
        if tampered.is_empty() {
            tampered.push(1);
        } else {
            let i = rng.gen_range(0..tampered.len());
            tampered[i] ^= 1;
        }
        assert!(!kp.public().verify(&tampered, &sig), "case {case}");
    }
}

#[test]
fn package_roundtrip_and_signed_integrity() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let app: u32 = rng.gen();
        let counter = rng.gen_range(1u64..u64::MAX);
        let payload = rand_bytes(&mut rng, 256);
        let package = UpdatePackage::new(AppId(app), Version::new(1, 2, 3), counter, payload)
            .with_metadata("k", "v");
        let bytes = package.to_bytes();
        assert_eq!(UpdatePackage::from_bytes(&bytes).unwrap(), package.clone());

        let authority = KeyPair::from_seed(b"prop authority");
        let mut registry = KeyRegistry::new();
        registry.trust(authority.public());
        let signed = SignedPackage::create(&package, &authority);
        assert!(signed.verify(&registry).is_ok(), "case {case}");
        let mut bad = signed.clone();
        let i = rng.gen_range(0..bad.package_bytes.len());
        bad.package_bytes[i] ^= 0x40;
        assert!(bad.verify(&registry).is_err(), "case {case}");
    }
}

// -------------------------------------------------------------- scheduling --

fn rand_task_set(rng: &mut SplitMix64, max_tasks: usize) -> TaskSet {
    let n = rng.gen_range(1usize..max_tasks + 1);
    (0..n)
        .map(|i| {
            // Periods from {2,4,8,16,32} ms, wcet a fraction of the period.
            let p = rng.gen_range(1u64..6);
            let c = rng.gen_range(1u64..4);
            let period = SimDuration::from_millis(1 << p);
            let wcet = SimDuration::from_millis(c.min(1 << (p - 1)).max(1));
            TaskSpec::periodic(TaskId(i as u32), format!("t{i}"), period, wcet)
        })
        .collect()
}

#[test]
fn tt_synthesis_output_always_validates() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let set = rand_task_set(&mut rng, 5);
        match tt::synthesize(&set) {
            Ok(schedule) => {
                assert!(schedule.validate(&set).is_ok(), "case {case}");
                assert!(schedule.utilization() <= 1.0 + 1e-9, "case {case}");
            }
            Err(_) => {
                // The heuristic may fail; it must never return garbage.
            }
        }
    }
}

#[test]
fn incremental_insert_never_disturbs() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let n = rng.gen_range(1usize..4);
        let set: TaskSet = (0..n)
            .map(|i| {
                let p = rng.gen_range(1u64..5);
                let c = rng.gen_range(1u64..3);
                let period = SimDuration::from_millis(1 << p);
                let wcet = SimDuration::from_millis(c.min(1 << (p - 1)).max(1));
                TaskSpec::periodic(TaskId(i as u32), format!("t{i}"), period, wcet)
            })
            .collect();
        let new_period = rng.gen_range(1u64..5);
        let Ok(schedule) = tt::synthesize(&set) else {
            continue;
        };
        let new_task = TaskSpec::periodic(
            TaskId(1000),
            "new",
            SimDuration::from_millis(1 << new_period),
            SimDuration::from_millis(1),
        );
        if let Ok(grown) = tt::insert_incremental(&schedule, &new_task) {
            assert_eq!(tt::disturbance(&schedule, &grown), 0, "case {case}");
            let mut full = set.clone();
            full.push(new_task);
            assert!(grown.validate(&full).is_ok(), "case {case}");
        }
    }
}

/// The placement `tt` used before it kept one sorted slot list: every job
/// collects and re-sorts all placed slots, then scans them in start order
/// for the first gap that fits. The oracle for the equivalence test below.
fn place_task_resorting(
    hyperperiod: SimDuration,
    entries: &mut Vec<TtEntry>,
    task: &TaskSpec,
) -> Result<(), TtSynthesisError> {
    let jobs = hyperperiod / task.period;
    for job in 0..jobs {
        let release = task.period * job + task.offset;
        let latest_start = release + task.deadline - task.wcet;
        let mut candidate = release;
        let mut occupied: Vec<(SimDuration, SimDuration)> =
            entries.iter().map(|e| (e.start, e.end())).collect();
        occupied.sort();
        for (s, e) in occupied {
            if candidate + task.wcet <= s {
                break;
            }
            if e > candidate {
                candidate = e;
            }
            if candidate > latest_start {
                return Err(TtSynthesisError::NoFeasibleSlot { task: task.id, job });
            }
        }
        if candidate > latest_start {
            return Err(TtSynthesisError::NoFeasibleSlot { task: task.id, job });
        }
        entries.push(TtEntry {
            task: task.id,
            job,
            start: candidate,
            duration: task.wcet,
        });
    }
    Ok(())
}

type Table = Result<(SimDuration, Vec<TtEntry>), TtSynthesisError>;

fn table(schedule: Result<TtSchedule, TtSynthesisError>) -> Table {
    schedule.map(|s| (s.hyperperiod(), s.entries().to_vec()))
}

/// `tt::synthesize` over [`place_task_resorting`].
fn synthesize_resorting(set: &TaskSet) -> Table {
    if set.utilization() > 1.0 + 1e-12 {
        return Err(TtSynthesisError::OverUtilized);
    }
    let hyperperiod = set.hyperperiod();
    let mut entries = Vec::new();
    let mut tasks: Vec<&TaskSpec> = set.tasks().iter().collect();
    tasks.sort_by_key(|t| (t.period, t.id.raw()));
    for task in tasks {
        place_task_resorting(hyperperiod, &mut entries, task)?;
    }
    entries.sort_by_key(|e| e.start);
    Ok((hyperperiod, entries))
}

/// `tt::insert_incremental` over [`place_task_resorting`].
fn insert_resorting(schedule: &TtSchedule, task: &TaskSpec) -> Table {
    if schedule.entries().iter().any(|e| e.task == task.id) {
        return Err(TtSynthesisError::DuplicateTask(task.id));
    }
    let hyperperiod = if schedule.hyperperiod().is_zero() {
        task.period
    } else {
        schedule.hyperperiod().lcm(task.period)
    };
    let mut entries = schedule.expand_to(hyperperiod).entries().to_vec();
    place_task_resorting(hyperperiod, &mut entries, task)?;
    entries.sort_by_key(|e| e.start);
    Ok((hyperperiod, entries))
}

/// A task with a release offset and a constrained deadline, taking about
/// `share` of the CPU; periods mix so that hyperperiods hold many jobs.
fn rand_tt_task(rng: &mut SplitMix64, id: u32, share: f64) -> TaskSpec {
    const PERIODS_US: [u64; 7] = [2_000, 4_000, 5_000, 8_000, 10_000, 20_000, 40_000];
    let period = PERIODS_US[rng.gen_range(0..PERIODS_US.len())];
    let wcet = ((share * period as f64) as u64).clamp(1, period);
    let deadline = rng.gen_range(wcet..=period);
    let offset = rng.gen_range(0..period);
    TaskSpec::periodic(
        TaskId(id),
        format!("t{id}"),
        SimDuration::from_micros(period),
        SimDuration::from_micros(wcet),
    )
    .with_deadline(SimDuration::from_micros(deadline))
    .with_offset(SimDuration::from_micros(offset))
}

/// Up to six tasks whose utilization totals a draw from [0.3, 1.05).
fn rand_tt_set(rng: &mut SplitMix64) -> TaskSet {
    let n = rng.gen_range(1usize..=6);
    let total = rng.gen_range(0.3..1.05);
    let weights: Vec<f64> = (0..n).map(|_| rng.gen_range(0.1..1.0)).collect();
    let sum: f64 = weights.iter().sum();
    (0..n)
        .map(|i| rand_tt_task(rng, i as u32, total * weights[i] / sum))
        .collect()
}

#[test]
fn tt_synthesis_matches_the_per_job_resort() {
    let (mut placed, mut infeasible) = ([0u32; 2], [0u32; 2]);
    let mut overlapping = 0;
    let mut tally = |k: usize, result: &Table| match result {
        Ok(_) => placed[k] += 1,
        Err(TtSynthesisError::NoFeasibleSlot { .. }) => infeasible[k] += 1,
        Err(_) => {}
    };
    for case in 0..512 {
        let mut rng = case_rng(19, case);
        let set = rand_tt_set(&mut rng);
        let synthesized = tt::synthesize(&set);
        let oracle = synthesize_resorting(&set);
        assert_eq!(table(synthesized.clone()), oracle, "case {case}");
        tally(0, &oracle);
        let Ok(schedule) = synthesized else {
            continue;
        };
        let share = rng.gen_range(0.02..0.4);
        let task = rand_tt_task(&mut rng, 1000, share);
        let oracle = insert_resorting(&schedule, &task);
        assert_eq!(
            table(tt::insert_incremental(&schedule, &task)),
            oracle,
            "case {case}"
        );
        tally(1, &oracle);
        // A slot that crosses the hyperperiod boundary overlaps the next
        // repetition's slots once the table is expanded for the new task.
        let expanded = schedule.expand_to(schedule.hyperperiod().lcm(task.period));
        if expanded
            .entries()
            .windows(2)
            .any(|w| w[0].end() > w[1].start)
        {
            overlapping += 1;
        }
    }
    for k in 0..2 {
        assert!(
            placed[k] > 0 && infeasible[k] > 0,
            "{placed:?} {infeasible:?}"
        );
    }
    assert!(overlapping > 0, "no insertion met an overlapping table");
}

#[test]
fn admission_controller_never_admits_unschedulable_edf_sets() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        let mut ctrl = AdmissionController::with_test(AdmissionTest::Edf);
        let n = rng.gen_range(1usize..8);
        for i in 0..n {
            let p = rng.gen_range(1u64..6);
            let c = rng.gen_range(1u64..16);
            let period = SimDuration::from_millis(1 << p);
            let wcet = SimDuration::from_micros(c * 100);
            if wcet > period {
                continue;
            }
            let task = TaskSpec::periodic(TaskId(i as u32), format!("t{i}"), period, wcet);
            let _ = ctrl.try_admit(task);
            // Invariant: the admitted set always stays schedulable.
            assert!(ctrl.admitted().utilization() <= 1.0 + 1e-9, "case {case}");
            assert!(
                dynplat::sched::edf::is_edf_schedulable(ctrl.admitted()),
                "case {case}"
            );
        }
    }
}

#[test]
fn reused_simulator_matches_one_shot_runs() {
    // One simulator carries its scratch across every case and policy; no
    // run may see state from the one before it.
    let mut sim = Simulator::new();
    for case in 0..CASES {
        let mut rng = case_rng(15, case);
        let mut set = rand_task_set(&mut rng, 5);
        let da_only = set.clone();
        for (i, task) in da_only.tasks().iter().enumerate() {
            if rng.gen_bool(0.3) {
                let offset = rng.gen_range(0..task.period.as_nanos());
                set.remove(task.id);
                set.push(task.clone().with_offset(SimDuration::from_nanos(offset)));
            }
            if rng.gen_bool(0.3) {
                let nda = TaskSpec::periodic(TaskId(100 + i as u32), "nda", task.period, task.wcet)
                    .with_priority(rng.gen_range(0u32..8))
                    .non_deterministic();
                set.push(nda);
            }
        }
        let da: TaskSet = set
            .tasks()
            .iter()
            .filter(|t| t.kind.is_deterministic())
            .cloned()
            .collect();
        let cfg = SchedSimConfig {
            horizon: SimDuration::from_nanos(rng.gen_range(1..200_000_000)),
            seed: rng.gen(),
            ..SchedSimConfig::default()
        };
        let mut policies = vec![
            Policy::NonPreemptiveFifo,
            Policy::FixedPriorityPreemptive,
            Policy::FpWithServer(PeriodicServer::new(
                SimDuration::from_millis(rng.gen_range(0..5)),
                SimDuration::from_millis(5),
            )),
        ];
        if let Ok(schedule) = tt::synthesize(&da) {
            policies.push(Policy::TimeTriggered(schedule));
        }
        for policy in &policies {
            let fresh = Simulator::new().run(&set, policy, &cfg).clone();
            assert_eq!(
                sim.run(&set, policy, &cfg),
                &fresh,
                "case {case} {policy:?}"
            );
            for (task, stats) in set.tasks().iter().zip(&fresh.tasks) {
                let span = cfg.horizon.saturating_sub(task.offset).as_nanos();
                assert_eq!(
                    stats.activations,
                    span.div_ceil(task.period.as_nanos()),
                    "case {case}"
                );
                assert!(stats.completions <= stats.activations, "case {case}");
            }
        }
    }
}

/// The policy `policy` stands for on `set`: a time-triggered schedule is
/// re-synthesized for `set`'s deterministic tasks (fixed priority when
/// there are none or they do not synthesize); every other policy is taken
/// as is.
fn policy_on(policy: &Policy, set: &TaskSet) -> Policy {
    match policy {
        Policy::TimeTriggered(_) => {
            let da: TaskSet = set
                .tasks()
                .iter()
                .filter(|t| t.kind.is_deterministic())
                .cloned()
                .collect();
            match tt::synthesize(&da) {
                Ok(schedule) if !da.is_empty() => Policy::TimeTriggered(schedule),
                _ => Policy::FixedPriorityPreemptive,
            }
        }
        other => other.clone(),
    }
}

/// `set` with task `idx` replaced by `edit` of it.
fn with_task(set: &TaskSet, idx: usize, edit: impl Fn(&mut TaskSpec)) -> TaskSet {
    let mut tasks = set.tasks().to_vec();
    edit(&mut tasks[idx]);
    tasks.into_iter().collect()
}

#[test]
fn reused_simulator_regenerates_exactly_when_a_generation_input_changes() {
    // One simulator alternates between a base run and a run that differs
    // in exactly one input. Changes to what the job generator reads
    // (seed, horizon, bcet_frac, exec_sigma, a task's offset, period,
    // deadline or WCET, the task list) must redraw the store; changes to
    // what it does not read (priority, kind, trace context, policy) may
    // reuse it. Either way every run equals a fresh simulator's.
    let mut sim = Simulator::new();
    for case in 0..CASES {
        let mut rng = case_rng(16, case);
        let mut base = rand_task_set(&mut rng, 5);
        if rng.gen_bool(0.5) {
            let t = &base.tasks()[0];
            let nda = TaskSpec::periodic(TaskId(100), "nda", t.period, t.wcet).non_deterministic();
            base.push(nda);
        }
        let base_cfg = SchedSimConfig {
            horizon: SimDuration::from_nanos(rng.gen_range(1_000_000..100_000_000)),
            seed: rng.gen(),
            ..SchedSimConfig::default()
        };
        let base_policy = match case % 4 {
            0 => Policy::NonPreemptiveFifo,
            1 => Policy::FixedPriorityPreemptive,
            2 => Policy::FpWithServer(PeriodicServer::new(
                SimDuration::from_millis(2),
                SimDuration::from_millis(5),
            )),
            _ => policy_on(&Policy::TimeTriggered(Default::default()), &base),
        };
        let n = base.len();
        let idx = rng.gen_range(0..n);
        let ms = SimDuration::from_millis;
        let extra = TaskSpec::periodic(TaskId(200), "extra", ms(4), ms(1));
        let mut variants: Vec<(&str, TaskSet, SchedSimConfig)> = vec![
            (
                "seed",
                base.clone(),
                SchedSimConfig {
                    seed: base_cfg.seed ^ 1,
                    ..base_cfg.clone()
                },
            ),
            (
                "horizon",
                base.clone(),
                SchedSimConfig {
                    horizon: base_cfg.horizon + ms(32),
                    ..base_cfg.clone()
                },
            ),
            (
                "bcet_frac",
                base.clone(),
                SchedSimConfig {
                    bcet_frac: 0.4,
                    ..base_cfg.clone()
                },
            ),
            (
                "exec_sigma",
                base.clone(),
                SchedSimConfig {
                    exec_sigma: 0.3,
                    ..base_cfg.clone()
                },
            ),
            (
                "offset",
                with_task(&base, idx, |t| t.offset += ms(1)),
                base_cfg.clone(),
            ),
            (
                "period",
                with_task(&base, idx, |t| t.period = t.period * 2),
                base_cfg.clone(),
            ),
            (
                "deadline",
                with_task(&base, idx, |t| {
                    t.deadline = if t.deadline == t.wcet {
                        t.period
                    } else {
                        t.wcet
                    }
                }),
                base_cfg.clone(),
            ),
            (
                "wcet",
                with_task(&base, idx, |t| t.wcet += SimDuration::from_micros(250)),
                base_cfg.clone(),
            ),
            (
                "task added",
                base.tasks().iter().cloned().chain([extra]).collect(),
                base_cfg.clone(),
            ),
            (
                "task reordered",
                base.tasks()[idx..]
                    .iter()
                    .chain(&base.tasks()[..idx])
                    .rev()
                    .cloned()
                    .collect(),
                base_cfg.clone(),
            ),
            (
                "priority",
                with_task(&base, idx, |t| t.priority = t.priority.wrapping_add(7)),
                base_cfg.clone(),
            ),
            (
                "kind",
                with_task(&base, idx, |t| {
                    t.kind = match t.kind {
                        AppKind::Deterministic => AppKind::NonDeterministic,
                        AppKind::NonDeterministic => AppKind::Deterministic,
                    }
                }),
                base_cfg.clone(),
            ),
            (
                "trace",
                base.clone(),
                SchedSimConfig {
                    trace: TraceCtx::root(case + 1),
                    ..base_cfg.clone()
                },
            ),
        ];
        if n > 1 {
            let mut removed = base.clone();
            removed.remove(base.tasks()[idx].id);
            variants.push(("task removed", removed, base_cfg.clone()));
        }
        let mut steps: Vec<(&str, TaskSet, SchedSimConfig, Policy)> = Vec::new();
        for (what, set, cfg) in variants {
            steps.push(("base", base.clone(), base_cfg.clone(), base_policy.clone()));
            let policy = policy_on(&base_policy, &set);
            steps.push((what, set, cfg, policy));
        }
        if n > 1 {
            // Every base release sits on the even-millisecond grid. An
            // offset of 1 ms takes task `idx` off it; the next offset
            // change alone makes its first release tie with another
            // task's second.
            let other = base.tasks()[(idx + 1) % n].period;
            steps.push(("base", base.clone(), base_cfg.clone(), base_policy.clone()));
            for (what, offset) in [("offset off grid", ms(1)), ("offset tie", other)] {
                let set = with_task(&base, idx, |t| t.offset = offset);
                let policy = policy_on(&base_policy, &set);
                steps.push((what, set, base_cfg.clone(), policy));
            }
        }
        for policy in [Policy::NonPreemptiveFifo, Policy::FixedPriorityPreemptive] {
            steps.push(("base", base.clone(), base_cfg.clone(), base_policy.clone()));
            steps.push(("policy", base.clone(), base_cfg.clone(), policy));
        }
        for (what, set, cfg, policy) in &steps {
            let fresh = Simulator::new().run(set, policy, cfg).clone();
            assert_eq!(
                sim.run(set, policy, cfg),
                &fresh,
                "case {case}: {what} changed"
            );
        }
    }
}

#[test]
fn a_panicking_run_leaves_the_per_thread_simulator_usable() {
    // Time-triggered schedules that do not fit the set panic inside
    // `simulate_schedule` after the job store was drawn: one misses a
    // deterministic task (caught before any job runs), the other also
    // slots a task the set lacks (caught after earlier slots completed
    // jobs). The next call on the thread must neither find the simulator
    // still borrowed nor reuse anything the panicking run left behind.
    let ms = SimDuration::from_millis;
    let a = TaskSpec::periodic(TaskId(1), "a", ms(10), ms(2));
    let b = TaskSpec::periodic(TaskId(2), "b", ms(20), ms(3));
    let foreign = TaskSpec::periodic(TaskId(3), "c", ms(40), ms(1));
    let only_b: TaskSet = [b.clone()].into_iter().collect();
    let da: TaskSet = [a, b].into_iter().collect();
    let superset: TaskSet = da.tasks().iter().cloned().chain([foreign]).collect();
    let mut set = da.clone();
    set.push(TaskSpec::periodic(TaskId(50), "nda", ms(40), ms(9)).non_deterministic());
    let cfg = SchedSimConfig {
        horizon: ms(200),
        ..SchedSimConfig::default()
    };
    let synth = |s: &TaskSet| Policy::TimeTriggered(tt::synthesize(s).expect("synthesizes"));
    for bad in [synth(&only_b), synth(&superset)] {
        for policy in [
            Policy::FixedPriorityPreemptive,
            Policy::NonPreemptiveFifo,
            synth(&da),
        ] {
            // Warm the per-thread simulator on the inputs that panic next.
            simulate_schedule(&set, &policy, &cfg);
            let panicked = std::panic::catch_unwind(|| simulate_schedule(&set, &bad, &cfg));
            assert!(panicked.is_err(), "a schedule that does not fit must panic");
            for (set, policy) in [(&set, &policy), (&da, &Policy::FixedPriorityPreemptive)] {
                assert_eq!(
                    simulate_schedule(set, policy, &cfg),
                    Simulator::new().run(set, policy, &cfg).clone(),
                    "{policy:?}"
                );
            }
        }
    }
}

// --------------------------------------------------------------------- CAN --

#[test]
fn can_simulation_never_beats_analysis() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let n = rng.gen_range(2usize..6);
        let specs: Vec<CanMessageSpec> = (0..n)
            .map(|i| {
                CanMessageSpec::periodic(
                    MessageId(i as u32),
                    rng.gen_range(1usize..9),
                    SimDuration::from_millis(10 * (i as u64 + 1)),
                )
            })
            .collect();
        let analysis = CanAnalysis::new(500_000, specs.clone());
        if !analysis.is_schedulable() {
            continue;
        }
        let bounds = analysis.response_times();

        let mut bus = CanArbiter::new(500_000);
        let mut events = Vec::new();
        for spec in &specs {
            let mut t = SimTime::ZERO;
            while t < SimTime::from_millis(100) {
                events.push(TxEvent {
                    arrival: t,
                    frame: Frame::new(spec.id, spec.payload).with_priority(spec.id.raw()),
                });
                t += spec.period;
            }
        }
        for tx in simulate(&mut bus, events) {
            let bound = bounds
                .iter()
                .find(|b| b.id == tx.frame.id)
                .and_then(|b| b.wcrt)
                .expect("schedulable");
            assert!(tx.latency() <= bound, "case {case}");
        }
    }
}

#[test]
fn can_frame_time_is_monotone_in_payload() {
    for case in 0..CASES {
        let mut rng = case_rng(12, case);
        let bitrate = rng.gen_range(100_000u64..1_000_000);
        let mut last = SimDuration::ZERO;
        for payload in 0..=8usize {
            let t = can_frame_time(payload, bitrate);
            assert!(t >= last, "case {case}");
            last = t;
        }
    }
}

/// `CanAnalysis::response_times` as a loop of its own, the way it stood
/// before the CAN and Ethernet analyses shared one fixed point (release
/// jitter, always zero, left out).
fn can_wcrts_reference(bitrate: u64, msgs: &[CanMessageSpec]) -> Vec<Wcrt> {
    let tau_bit = SimDuration::from_nanos(1_000_000_000 / bitrate);
    msgs.iter()
        .map(|m| {
            let c_m = can_frame_time(m.payload, bitrate);
            let blocking = msgs
                .iter()
                .filter(|k| k.id.raw() > m.id.raw())
                .map(|k| can_frame_time(k.payload, bitrate))
                .max()
                .unwrap_or(SimDuration::ZERO);
            let hp: Vec<&CanMessageSpec> =
                msgs.iter().filter(|k| k.id.raw() < m.id.raw()).collect();
            let mut w = blocking;
            let wcrt = loop {
                let interference: SimDuration = hp
                    .iter()
                    .map(|k| {
                        let releases = (w + tau_bit).as_nanos().div_ceil(k.period.as_nanos());
                        can_frame_time(k.payload, bitrate) * releases
                    })
                    .sum();
                let w_next = blocking + interference;
                if w_next == w {
                    break Some(w + c_m);
                }
                if w_next + c_m > m.period {
                    break None;
                }
                w = w_next;
            };
            Wcrt { id: m.id, wcrt }
        })
        .collect()
}

/// `EthernetAnalysis::response_times` as a loop of its own, the way it
/// stood before the two analyses shared one fixed point.
fn eth_wcrts_reference(bitrate: u64, flows: &[EthFlowSpec]) -> Vec<Wcrt> {
    let eps = SimDuration::from_nanos(1);
    flows
        .iter()
        .map(|f| {
            let c = ethernet_frame_time(f.payload, bitrate);
            let blocking = flows
                .iter()
                .filter(|o| o.priority >= f.priority && o.id != f.id)
                .map(|o| ethernet_frame_time(o.payload, bitrate))
                .max()
                .unwrap_or(SimDuration::ZERO);
            let hp: Vec<&EthFlowSpec> = flows
                .iter()
                .filter(|o| o.priority < f.priority || (o.priority == f.priority && o.id != f.id))
                .collect();
            let mut w = blocking;
            let wcrt = loop {
                let interference: SimDuration = hp
                    .iter()
                    .map(|o| {
                        let releases = (w + eps).as_nanos().div_ceil(o.period.as_nanos());
                        ethernet_frame_time(o.payload, bitrate) * releases
                    })
                    .sum();
                let w_next = blocking + interference;
                if w_next == w {
                    break Some(w + c);
                }
                if w_next + c > f.period {
                    break None;
                }
                w = w_next;
            };
            Wcrt { id: f.id, wcrt }
        })
        .collect()
}

#[test]
fn both_bus_analyses_keep_their_own_loops_results() {
    let mut unschedulable = [0u32; 2];
    let mut bounded = [0u32; 2];
    for case in 0..4 * CASES {
        let mut rng = case_rng(20, case);

        // CAN: random (possibly repeated) ids, standard and odd bitrates.
        let bitrate = [125_000, 250_000, 333_333, 500_000, 1_000_000][rng.gen_range(0usize..5)];
        let n = rng.gen_range(1usize..12);
        let msgs: Vec<CanMessageSpec> = (0..n)
            .map(|_| {
                CanMessageSpec::periodic(
                    MessageId(rng.gen_range(0u32..16)),
                    rng.gen_range(0usize..9),
                    SimDuration::from_micros(rng.gen_range(500u64..20_000)),
                )
            })
            .collect();
        let got = CanAnalysis::new(bitrate, msgs.clone()).response_times();
        assert_eq!(got, can_wcrts_reference(bitrate, &msgs), "CAN case {case}");

        // Ethernet: few priority levels, so equal priorities are common.
        let bitrate = [10_000_000, 100_000_000, 1_000_000_000][rng.gen_range(0usize..3)];
        let n = rng.gen_range(1usize..10);
        let flows: Vec<EthFlowSpec> = (0..n)
            .map(|i| {
                EthFlowSpec::new(
                    MessageId(i as u32),
                    rng.gen_range(46usize..1501),
                    rng.gen_range(0u32..3),
                    SimDuration::from_micros(rng.gen_range(20u64..5_000)),
                )
            })
            .collect();
        let eth = EthernetAnalysis::new(bitrate, flows.clone()).response_times();
        assert_eq!(
            eth,
            eth_wcrts_reference(bitrate, &flows),
            "Ethernet case {case}"
        );

        for (bus, rts) in [got, eth].iter().enumerate() {
            for r in rts {
                match r.wcrt {
                    Some(_) => bounded[bus] += 1,
                    None => unschedulable[bus] += 1,
                }
            }
        }
    }
    // Both outcomes of the fixed point are exercised on both buses.
    assert!(
        bounded.iter().chain(&unschedulable).all(|&n| n > 0),
        "{bounded:?} {unschedulable:?}"
    );
}

// ------------------------------------------------------------------- model --

#[test]
fn dsl_roundtrip_for_generated_models() {
    use dynplat::common::{AppKind, Asil, BusId, EcuId};
    use dynplat::hw::ecu::{EcuClass, EcuSpec};
    use dynplat::hw::topology::{BusKind, BusSpec, HwTopology};
    use dynplat::model::ir::{AppModel, Deployment, MappingChoice, SystemModel};

    for case in 0..CASES {
        let mut rng = case_rng(13, case);
        let n_ecus = rng.gen_range(1usize..5);
        let n_apps = rng.gen_range(1usize..5);
        let seedwork = rng.gen_range(1u32..50);

        let mut hw = HwTopology::new();
        let mut ids = Vec::new();
        for i in 0..n_ecus {
            let class = match i % 3 {
                0 => EcuClass::LowEnd,
                1 => EcuClass::Domain,
                _ => EcuClass::HighPerformance,
            };
            hw.add_ecu(EcuSpec::of_class(EcuId(i as u16), format!("e{i}"), class))
                .unwrap();
            ids.push(EcuId(i as u16));
        }
        hw.add_bus(BusSpec::new(
            BusId(0),
            "b",
            BusKind::ethernet_100m(),
            ids.clone(),
        ))
        .unwrap();
        let mut deployment = Deployment::default();
        let applications: Vec<AppModel> = (0..n_apps)
            .map(|i| {
                deployment.mapping.insert(
                    AppId(i as u32),
                    if i % 2 == 0 {
                        MappingChoice::Fixed(ids[i % ids.len()])
                    } else {
                        MappingChoice::AnyOf(ids.clone())
                    },
                );
                AppModel {
                    id: AppId(i as u32),
                    name: format!("app{i}"),
                    kind: if i % 2 == 0 {
                        AppKind::Deterministic
                    } else {
                        AppKind::NonDeterministic
                    },
                    asil: Asil::ALL[i % 5],
                    provides: vec![],
                    consumes: vec![],
                    period: SimDuration::from_millis(10 * (i as u64 + 1)),
                    work_mi: f64::from(seedwork) / 10.0,
                    memory_kib: 64 * (i as u32 + 1),
                    needs_gpu: false,
                }
            })
            .collect();
        let model = SystemModel {
            hardware: hw,
            interfaces: vec![],
            applications,
            deployment,
        };
        let text = dynplat::model::dsl::print_model(&model);
        let back = dynplat::model::dsl::parse_model(&text)
            .unwrap_or_else(|e| panic!("case {case}: reparse: {e}\n{text}"));
        assert_eq!(back, model, "case {case}");
    }
}

// -------------------------------------------------------------------- wire --

#[test]
fn someip_header_roundtrip() {
    use dynplat::comm::wire::SomeIpHeader;
    for case in 0..CASES {
        let mut rng = case_rng(14, case);
        let mut h = SomeIpHeader::request(
            ServiceId(rng.gen()),
            MethodId(rng.gen()),
            rng.gen(),
            rng.gen(),
        );
        let payload = rand_bytes(&mut rng, 256);
        h.payload_len = payload.len() as u32;
        let wire = h.encode(&payload);
        let (decoded, p) = SomeIpHeader::decode(&wire).expect("own encoding decodes");
        assert_eq!(p, &payload[..], "case {case}");
        assert_eq!(decoded, h, "case {case}");
    }
}

#[test]
fn record_request_survives_header_and_value_codecs() {
    use dynplat::comm::wire::{MessageType, SomeIpHeader};
    for case in 0..CASES {
        let mut rng = case_rng(17, case);
        let n = rng.gen_range(1usize..6);
        let ty = DataType::Record(
            (0..n)
                .map(|i| (rand_ident(&mut rng, i), arb_type(&mut rng, 2)))
                .collect(),
        );
        let args = arb_value_of(&mut rng, &ty);
        let mut h = SomeIpHeader::request(
            ServiceId(rng.gen()),
            MethodId(rng.gen()),
            rng.gen(),
            rng.gen(),
        );
        let body = args.encode();
        h.payload_len = body.len() as u32;
        let wire = h.encode(&body);
        let (decoded, payload) = SomeIpHeader::decode(&wire).expect("own encoding decodes");
        assert_eq!(decoded, h, "case {case}");
        assert_eq!(decoded.message_type, MessageType::Request, "case {case}");
        let back = Value::decode(payload, &ty).expect("own payload decodes");
        assert_eq!(back, args, "case {case}");
    }
}

#[test]
fn notification_header_keeps_its_event_group_id() {
    use dynplat::comm::wire::{MessageType, SomeIpHeader};
    use dynplat::common::EventGroupId;
    for case in 0..CASES {
        let mut rng = case_rng(18, case);
        let group = EventGroupId(rng.gen());
        let ty = DataType::Record(vec![("v".into(), DataType::F64)]);
        let payload = Value::Record(vec![(
            "v".into(),
            Value::F64(f64::from(rng.gen::<u32>() as i32)),
        )]);
        let mut h = SomeIpHeader::notification(ServiceId(rng.gen()), MethodId(group.raw()));
        let body = payload.encode();
        h.payload_len = body.len() as u32;
        let wire = h.encode(&body);
        let (decoded, p) = SomeIpHeader::decode(&wire).expect("own encoding decodes");
        assert_eq!(
            decoded.message_type,
            MessageType::Notification,
            "case {case}"
        );
        assert_eq!(EventGroupId(decoded.method.raw()), group, "case {case}");
        assert_eq!(
            Value::decode(p, &ty).expect("decodes"),
            payload,
            "case {case}"
        );
    }
}
