//! The E12 chaos-campaign core (§3.3, §3.4).
//!
//! One campaign runs a mixed-criticality request/response workload — a
//! deterministic ASIL-D control loop plus several QM infotainment
//! clients — over a [`ChaosFabric`] that perturbs every message according
//! to a [`FaultPlan`]. The platform side fights back with the full
//! robustness stack: retry/backoff schedules ([`RetryPolicy`]), a circuit
//! breaker that declares the bound provider dead, service-directory
//! rebinding to a live alternate offer, and the criticality-aware
//! degradation ladder ([`DegradationManager`]) shedding QM load under
//! fault pressure.
//!
//! The campaign is a pure function of its [`CampaignConfig`]: every
//! stochastic decision derives from the config seed, all bookkeeping uses
//! ordered maps, and the [`CampaignSummary`] (including its formatted
//! table row) is byte-identical across runs with the same config.

use crate::Table;
use dynplat_comm::fabric::{Fabric, MessageSend};
use dynplat_comm::retry::{CircuitBreaker, RetryPolicy};
use dynplat_comm::sd::{SdEntry, ServiceDirectory};
use dynplat_common::ids::ServiceInstance;
use dynplat_common::rng::split_seed;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{AppKind, Asil, BusId, DegradationLevel, EcuId, ServiceId, TaskId, VehicleId};
use dynplat_core::degradation::DegradationManager;
use dynplat_faults::{ChaosFabric, FaultPlan, InjectedFault};
use dynplat_hw::ecu::{EcuClass, EcuSpec};
use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
use dynplat_monitor::anomaly::{DriftDetector, DriftVerdict};
use dynplat_monitor::fault::{Fault, FaultKind, FaultRecorder};
use dynplat_monitor::report::DiagnosticReport;
use dynplat_net::TrafficClass;
use dynplat_obs::{FlightRecorder, TraceCtx};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The service under test.
pub const SERVICE: ServiceId = ServiceId(10);
/// Request/response payload in bytes.
const PAYLOAD: usize = 64;
/// Server-side processing time between request arrival and response send.
const SERVER_PROC: SimDuration = SimDuration::from_micros(200);
/// Request period of every client.
const PERIOD: SimDuration = SimDuration::from_millis(50);
/// Round deadline, measured from the round's first attempt.
const DEADLINE: SimDuration = SimDuration::from_millis(40);
/// Accounting/degradation window.
pub const WINDOW: SimDuration = SimDuration::from_millis(250);
/// Number of QM clients riding along with the ASIL-D control loop.
const NDA_CLIENTS: u64 = 3;

/// One chaos-campaign configuration.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed: drives the fault plan and every retry-jitter draw.
    pub seed: u64,
    /// What to inject (the plan's own seed is overridden by `seed`).
    pub plan: FaultPlan,
    /// Retry policy protecting the deterministic client. QM clients always
    /// run single-shot — exactly the asymmetry the ladder exists for.
    pub policy: RetryPolicy,
    /// Label for the policy column.
    pub policy_name: &'static str,
    /// Campaign length.
    pub horizon: SimDuration,
    /// Consecutive DA round failures before the breaker trips.
    pub breaker_threshold: u32,
}

impl CampaignConfig {
    /// A campaign with a 6 s horizon and a 3-failure breaker; every
    /// campaign runs 50 ms periods, 40 ms deadlines, 250 ms windows and 3
    /// QM clients.
    pub fn new(seed: u64, plan: FaultPlan, policy: RetryPolicy, policy_name: &'static str) -> Self {
        CampaignConfig {
            seed,
            plan,
            policy,
            policy_name,
            horizon: SimDuration::from_secs(6),
            breaker_threshold: 3,
        }
    }
}

/// The deterministic outcome of one campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSummary {
    /// Policy label from the config.
    pub policy_name: &'static str,
    /// ASIL-D rounds attempted.
    pub da_rounds: u64,
    /// ASIL-D rounds with no response inside the deadline.
    pub da_misses: u64,
    /// QM rounds scheduled (attempted + shed).
    pub nda_rounds: u64,
    /// QM rounds attempted but missed.
    pub nda_misses: u64,
    /// QM rounds shed by the degradation ladder.
    pub nda_shed: u64,
    /// Request attempts put on the wire.
    pub attempts_sent: u64,
    /// Attempts that never saw a response.
    pub attempts_lost: u64,
    /// Provider rebinds after breaker trips.
    pub failovers: u64,
    /// First-failure-to-breaker-trip latency of the first failover.
    pub detection_latency: Option<SimDuration>,
    /// Time from leaving `Full` to the final return to `Full`.
    pub recovery_time: Option<SimDuration>,
    /// Deepest degradation level reached.
    pub worst_level: DegradationLevel,
    /// Losses the injector actually caused (its recorder's view).
    pub injected_losses: u64,
    /// Losses the client side detected (missing responses).
    pub detected_losses: u64,
    /// Ladder transitions, in order.
    pub transitions: Vec<(SimTime, DegradationLevel)>,
    /// The E7-shaped diagnostic report carrying counters + transitions.
    pub report: DiagnosticReport,
}

impl CampaignSummary {
    /// DA deadline-miss rate.
    pub fn da_miss_rate(&self) -> f64 {
        ratio(self.da_misses, self.da_rounds)
    }

    /// QM degradation rate: rounds missed or shed, over rounds scheduled.
    pub fn nda_degraded_rate(&self) -> f64 {
        ratio(self.nda_misses + self.nda_shed, self.nda_rounds)
    }

    /// The table row for this campaign (stable formatting — two runs with
    /// the same config produce byte-identical rows).
    pub fn row(&self, scenario: &str) -> Vec<String> {
        vec![
            scenario.to_owned(),
            self.policy_name.to_owned(),
            format!("{:.4}", self.da_miss_rate()),
            format!("{:.4}", self.nda_degraded_rate()),
            self.nda_shed.to_string(),
            self.failovers.to_string(),
            opt_ms(self.detection_latency),
            opt_ms(self.recovery_time),
            self.worst_level.to_string(),
            self.injected_losses.to_string(),
            self.detected_losses.to_string(),
        ]
    }

    /// Header matching [`CampaignSummary::row`].
    pub fn columns() -> [&'static str; 11] {
        [
            "scenario",
            "policy",
            "da_miss_rate",
            "nda_degraded_rate",
            "nda_shed",
            "failovers",
            "detect_ms",
            "recovery_ms",
            "worst_level",
            "injected_losses",
            "detected_losses",
        ]
    }

    /// Prints this summary as one row of `table`.
    pub fn print_row(&self, table: &Table, scenario: &str) {
        table.row(&self.row(scenario));
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn opt_ms(d: Option<SimDuration>) -> String {
    match d {
        Some(d) => format!("{:.3}", d.as_nanos() as f64 / 1e6),
        None => "-".to_owned(),
    }
}

/// ecu0 (body, CAN) — ecu1 (gateway, clients) — ecu2 (adas, primary server).
fn campaign_topology() -> HwTopology {
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
    .expect("static campaign topology is valid")
}

struct ClientApp {
    idx: u64,
    host: EcuId,
    kind: AppKind,
    asil: Asil,
    policy: RetryPolicy,
    class: TrafficClass,
    priority: u32,
}

// Correlation-id layout: | app (bits 41..) | round (9..41) | attempt (1..9) | resp (0) |
fn msg_id(app: u64, round: u64, attempt: u64, resp: bool) -> u64 {
    (app << 41) | (round << 9) | (attempt << 1) | u64::from(resp)
}

/// Trace id of a (app, round) causal chain: the round's base correlation
/// id, offset so app 0 / round 0 does not collide with the reserved
/// "untraced" id 0. Attempts are spans within the chain; responses
/// inherit the request's context.
fn round_trace(app: u64, round: u64) -> u64 {
    msg_id(app, round, 0, false) + 1
}

fn decode_id(id: u64) -> (u64, u64, u64, bool) {
    (
        id >> 41,
        (id >> 9) & 0xFFFF_FFFF,
        (id >> 1) & 0xFF,
        id & 1 == 1,
    )
}

/// Everything a traced campaign run observed: the summary plus the raw
/// material of the E13 detection-latency measurement.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// The deterministic summary ([`run_campaign`]'s return value).
    pub summary: CampaignSummary,
    /// The injector's log: what was injected, and when.
    pub injections: Vec<InjectedFault>,
    /// Non-`Normal` verdicts of a [`DriftDetector`] fed the per-round
    /// control-loop RTT (missed rounds count as the deadline), in time
    /// order.
    pub drift_verdicts: Vec<(SimTime, DriftVerdict)>,
    /// Per-window fault pressure `(window end, attempt-loss ratio)` — the
    /// exact series the ladder observed, and the raw material the E14
    /// threshold-vs-uncertainty comparison replays.
    pub pressures: Vec<(SimTime, f64)>,
}

/// Runs one campaign to completion.
///
/// # Panics
///
/// Panics if the config's fault plan fails validation.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignSummary {
    run_campaign_traced(cfg, None).summary
}

/// [`run_campaign`] with causal tracing: every request is stamped with a
/// per-(app, round) [`TraceCtx`] (responses inherit it), the optional
/// flight recorder sees the full message lifecycle plus every injection
/// and detection, and a [`DriftDetector`] watches the control loop's RTT.
///
/// With `flight == None` and the drift verdicts ignored this is exactly
/// [`run_campaign`]; the summary is bit-identical either way.
///
/// # Panics
///
/// Panics if the config's fault plan fails validation.
pub fn run_campaign_traced(
    cfg: &CampaignConfig,
    flight: Option<Arc<FlightRecorder>>,
) -> CampaignOutcome {
    let mut plan = cfg.plan.clone();
    plan.seed = cfg.seed;
    let mut chaos = ChaosFabric::new(Fabric::new(campaign_topology()), plan);
    if let Some(fr) = &flight {
        chaos.attach_flight_recorder(fr.clone());
    }

    // Two providers of the service: primary on the fast Ethernet leg,
    // backup reachable over CAN. Offers outlive the horizon; breaker trips
    // withdraw them explicitly.
    let primary = ServiceInstance::new(SERVICE, 0);
    let backup = ServiceInstance::new(SERVICE, 1);
    let offer_ttl = cfg.horizon + cfg.horizon;
    let hosts: BTreeMap<ServiceInstance, EcuId> = [(primary, EcuId(2)), (backup, EcuId(0))].into();
    let mut directory = ServiceDirectory::new();
    for (instance, host) in &hosts {
        directory.apply(
            SimTime::ZERO,
            &SdEntry::Offer {
                instance: *instance,
                host: *host,
                version: 1,
                ttl: offer_ttl,
            },
        );
    }
    let mut bound = primary;
    let mut bound_host = hosts[&primary];

    let mut apps = vec![ClientApp {
        idx: 0,
        host: EcuId(1),
        kind: AppKind::Deterministic,
        asil: Asil::D,
        policy: cfg.policy,
        class: TrafficClass::Critical,
        priority: 0,
    }];
    for i in 0..NDA_CLIENTS {
        apps.push(ClientApp {
            idx: 1 + i,
            host: EcuId(1),
            kind: AppKind::NonDeterministic,
            asil: Asil::Qm,
            policy: RetryPolicy::none(),
            class: TrafficClass::BestEffort,
            priority: 5,
        });
    }
    let client_traits: BTreeMap<u64, (EcuId, TrafficClass, u32)> = apps
        .iter()
        .map(|a| (a.idx, (a.host, a.class, a.priority)))
        .collect();

    let mut breaker = CircuitBreaker::new(cfg.breaker_threshold);
    let mut ladder = DegradationManager::new();
    let mut detected = FaultRecorder::new(8192);
    if let Some(fr) = &flight {
        detected = detected.with_flight(fr.clone());
        ladder.attach_flight_recorder(fr.clone());
    }
    // Watches the DA round-trip time for trends; missed rounds are
    // ingested as the full deadline (the worst the client can observe).
    let mut drift = DriftDetector::for_bound(DEADLINE.as_nanos() as f64);
    let mut drift_verdicts: Vec<(SimTime, DriftVerdict)> = Vec::new();

    let mut summary = CampaignSummary {
        policy_name: cfg.policy_name,
        da_rounds: 0,
        da_misses: 0,
        nda_rounds: 0,
        nda_misses: 0,
        nda_shed: 0,
        attempts_sent: 0,
        attempts_lost: 0,
        failovers: 0,
        detection_latency: None,
        recovery_time: None,
        worst_level: DegradationLevel::Full,
        injected_losses: 0,
        detected_losses: 0,
        transitions: Vec::new(),
        report: DiagnosticReport::capture(VehicleId(1), SimTime::ZERO, &[], Vec::new()),
    };
    let mut streak_start: Option<SimTime> = None;
    let mut pressures: Vec<(SimTime, f64)> = Vec::new();

    let rounds_total = cfg.horizon / PERIOD;
    let windows = cfg.horizon.as_nanos().div_ceil(WINDOW.as_nanos());
    let mut next_round = 0u64;

    for w in 0..windows {
        let w_end = SimTime::ZERO + WINDOW * (w + 1);
        // Plan this window's rounds under the level in force at its start.
        let mut sends = Vec::new();
        // (round, app) -> (round deadline, is_da); chronological order.
        let mut rounds: BTreeMap<(u64, u64), (SimTime, bool)> = BTreeMap::new();
        let mut attempt_deadline: BTreeMap<u64, SimTime> = BTreeMap::new();
        while next_round < rounds_total && SimTime::ZERO + PERIOD * next_round < w_end {
            let r = next_round;
            next_round += 1;
            for app in &apps {
                // Stagger clients so their attempts don't collide exactly.
                let t0 = SimTime::ZERO + PERIOD * r + SimDuration::from_millis(app.idx);
                let is_da = app.kind.is_deterministic();
                if !ladder.admits(app.kind, app.asil) {
                    summary.nda_shed += 1;
                    summary.nda_rounds += 1;
                    continue;
                }
                let round_seed = split_seed(split_seed(cfg.seed, 0x100 + app.idx), r);
                for attempt in app.policy.schedule(t0, round_seed) {
                    let id = msg_id(app.idx, r, u64::from(attempt.number), false);
                    sends.push(MessageSend {
                        id,
                        time: attempt.send_at,
                        src: app.host,
                        dst: bound_host,
                        payload: PAYLOAD,
                        class: app.class,
                        priority: app.priority,
                        trace: TraceCtx::new(round_trace(app.idx, r), u64::from(attempt.number)),
                    });
                    attempt_deadline.insert(id, attempt.deadline);
                    summary.attempts_sent += 1;
                }
                rounds.insert((r, app.idx), (t0 + DEADLINE, is_da));
            }
        }

        let server = bound_host;
        let deliveries = chaos.run(sends, |d| {
            let (app, round, attempt, resp) = decode_id(d.id);
            if resp {
                return Vec::new();
            }
            let (client, class, priority) = client_traits[&app];
            vec![MessageSend {
                id: msg_id(app, round, attempt, true),
                time: d.delivered + SERVER_PROC,
                src: server,
                dst: client,
                payload: PAYLOAD,
                class,
                priority,
                trace: d.trace,
            }]
        });

        // Earliest response per round; which attempts got any response.
        let mut earliest: BTreeMap<(u64, u64), SimTime> = BTreeMap::new();
        let mut answered: BTreeSet<u64> = BTreeSet::new();
        for d in &deliveries {
            let (app, round, attempt, resp) = decode_id(d.id);
            if !resp {
                continue;
            }
            answered.insert(msg_id(app, round, attempt, false));
            let slot = earliest.entry((round, app)).or_insert(d.delivered);
            *slot = (*slot).min(d.delivered);
        }
        let window_attempts = attempt_deadline.len() as u64;
        let mut window_lost = 0u64;
        for (id, deadline) in &attempt_deadline {
            if !answered.contains(id) {
                window_lost += 1;
                let (app, round, attempt, _) = decode_id(*id);
                detected.record(Fault {
                    time: *deadline,
                    task: TaskId(app as u32),
                    kind: FaultKind::MessageLoss,
                    detail: format!("round {round} attempt {attempt} unanswered"),
                });
            }
        }
        summary.attempts_lost += window_lost;

        for ((round, app), (deadline, is_da)) in &rounds {
            let ok = earliest.get(&(*round, *app)).is_some_and(|t| t <= deadline);
            if *is_da {
                summary.da_rounds += 1;
                let round_start = *deadline - DEADLINE;
                let (sample_at, rtt) = match earliest.get(&(*round, *app)) {
                    Some(t) if *t <= *deadline => (*t, t.saturating_since(round_start)),
                    _ => (*deadline, DEADLINE),
                };
                let verdict = drift.ingest(rtt.as_nanos() as f64);
                if verdict != DriftVerdict::Normal {
                    drift_verdicts.push((sample_at, verdict));
                }
                if ok {
                    breaker.on_success();
                    streak_start = None;
                    continue;
                }
                summary.da_misses += 1;
                detected.record(Fault {
                    time: *deadline,
                    task: TaskId(*app as u32),
                    kind: FaultKind::DeadlineMiss,
                    detail: format!("control round {round} missed"),
                });
                let t0 = *deadline - DEADLINE;
                if streak_start.is_none() {
                    streak_start = Some(t0);
                }
                if breaker.on_failure() {
                    // The breaker declares the bound provider dead and
                    // restarts its count for whichever provider is bound
                    // next: tell SD, rebind to a live alternate if one
                    // exists.
                    if summary.detection_latency.is_none() {
                        summary.detection_latency =
                            Some(deadline.saturating_since(streak_start.unwrap_or(t0)));
                    }
                    directory.apply(*deadline, &SdEntry::StopOffer { instance: bound });
                    if let Some((instance, host)) = directory
                        .rebind(*deadline, bound)
                        .map(|o| (o.instance, o.host))
                    {
                        detected.record(Fault {
                            time: *deadline,
                            task: TaskId(*app as u32),
                            kind: FaultKind::NodeFailure,
                            detail: format!("provider on {bound_host} declared dead"),
                        });
                        bound = instance;
                        bound_host = host;
                        summary.failovers += 1;
                    } else {
                        // Nowhere to go: restore the offer and keep trying.
                        directory.apply(
                            *deadline,
                            &SdEntry::Offer {
                                instance: bound,
                                host: bound_host,
                                version: 1,
                                ttl: offer_ttl,
                            },
                        );
                    }
                    streak_start = None;
                }
            } else {
                summary.nda_rounds += 1;
                if !ok {
                    summary.nda_misses += 1;
                }
            }
        }

        // Attempt-level loss fraction is the ladder's fault pressure.
        let pressure = ratio(window_lost, window_attempts);
        pressures.push((w_end, pressure));
        ladder.observe(w_end, pressure);
        directory.expire(w_end);
    }

    summary.transitions = ladder.transitions().to_vec();
    summary.worst_level = summary
        .transitions
        .iter()
        .map(|(_, level)| *level)
        .max()
        .unwrap_or(DegradationLevel::Full);
    summary.recovery_time = recovery_time(&summary.transitions, ladder.level());
    let injected = chaos.injector().recorder();
    summary.injected_losses =
        injected.count(FaultKind::MessageLoss) + injected.count(FaultKind::MessageCorruption);
    summary.detected_losses = detected.count(FaultKind::MessageLoss);
    let faults = detected.drain();
    summary.report =
        DiagnosticReport::capture(VehicleId(1), SimTime::ZERO + cfg.horizon, &[], faults)
            .with_fault_counts(&detected)
            .with_degradation(summary.transitions.iter().copied());
    CampaignOutcome {
        summary,
        injections: chaos.injector().log().to_vec(),
        drift_verdicts,
        pressures,
    }
}

/// Time from first leaving `Full` to the final return to `Full`; `None`
/// if the ladder never escalated or never fully recovered.
fn recovery_time(
    transitions: &[(SimTime, DegradationLevel)],
    final_level: DegradationLevel,
) -> Option<SimDuration> {
    if final_level != DegradationLevel::Full {
        return None;
    }
    let first_up = transitions
        .iter()
        .find(|(_, l)| *l != DegradationLevel::Full)
        .map(|(t, _)| *t)?;
    let last_full = transitions
        .iter()
        .rev()
        .find(|(_, l)| *l == DegradationLevel::Full)
        .map(|(t, _)| *t)?;
    Some(last_full.saturating_since(first_up))
}

/// The standard stochastic plan of the fault-rate sweep: drops at `rate`,
/// corruption at half, a sprinkle of duplicates and delay spikes.
pub fn sweep_plan(seed: u64, rate: f64) -> FaultPlan {
    if rate == 0.0 {
        return FaultPlan::quiet(seed);
    }
    FaultPlan::quiet(seed)
        .with_message_faults(rate, rate * 0.5, 0.02)
        .with_delay_spikes(0.05, SimDuration::from_millis(2))
}

/// The burst scenario: a clean network except for a 500 ms partition of
/// the Ethernet leg at t = 2 s — the primary provider disappears and the
/// platform must detect, fail over to the CAN-attached backup, and walk
/// the ladder back down.
pub fn burst_plan(seed: u64) -> FaultPlan {
    FaultPlan::quiet(seed).partition(BusId(1), SimTime::from_secs(2), SimTime::from_millis(2_500))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_campaign_is_perfect() {
        let cfg = CampaignConfig::new(7, FaultPlan::quiet(7), RetryPolicy::standard(), "standard");
        let s = run_campaign(&cfg);
        assert_eq!(s.da_misses, 0);
        assert_eq!(s.nda_misses + s.nda_shed, 0);
        assert_eq!(s.failovers, 0);
        assert_eq!(s.worst_level, DegradationLevel::Full);
        assert_eq!(s.injected_losses, 0);
        assert_eq!(s.detected_losses, 0);
        assert_eq!(s.da_rounds, 120);
        assert_eq!(s.nda_rounds, 360);
    }

    #[test]
    fn same_seed_same_summary() {
        let cfg = CampaignConfig::new(42, sweep_plan(42, 0.1), RetryPolicy::standard(), "standard");
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a, b);
        assert_eq!(a.row("rate=0.10"), b.row("rate=0.10"));
        assert!(a.attempts_lost > 0, "a 10% plan must actually hurt");
    }

    #[test]
    fn retries_protect_the_control_loop() {
        let seed = 11;
        let none = run_campaign(&CampaignConfig::new(
            seed,
            sweep_plan(seed, 0.15),
            RetryPolicy::none(),
            "none",
        ));
        let standard = run_campaign(&CampaignConfig::new(
            seed,
            sweep_plan(seed, 0.15),
            RetryPolicy::standard(),
            "standard",
        ));
        assert!(
            standard.da_miss_rate() < none.da_miss_rate(),
            "retries must reduce DA misses: {} vs {}",
            standard.da_miss_rate(),
            none.da_miss_rate()
        );
    }

    #[test]
    fn burst_triggers_failover_and_recovery() {
        let cfg = CampaignConfig::new(5, burst_plan(5), RetryPolicy::standard(), "standard");
        let s = run_campaign(&cfg);
        assert_eq!(s.failovers, 1, "one rebind to the backup provider");
        assert!(s.detection_latency.is_some());
        assert!(s.worst_level > DegradationLevel::Full);
        assert!(
            s.recovery_time.is_some(),
            "ladder must walk back to Full after the partition: {:?}",
            s.transitions
        );
        assert!(s.nda_shed > 0, "QM load is shed while degraded");
        // The report carries the same story (shared E7 reporting path).
        let worst = s.report.degradation.iter().map(|t| t.level).max();
        assert_eq!(worst, Some(s.worst_level));
        assert!(s.report.fault_counts[&FaultKind::NodeFailure] >= 1);
    }
}
