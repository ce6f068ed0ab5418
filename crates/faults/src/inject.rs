//! Seed-driven fault injection over the communication fabric.
//!
//! [`ChaosFabric`] wraps a [`Fabric`] and perturbs every message batch
//! according to a [`FaultPlan`]: stochastic drops, corruption, duplication
//! and delay spikes from dedicated SplitMix64 streams, plus scheduled bus
//! partitions, babbling-idiot floods, ECU crashes/hangs and clock drift.
//! Every injection is logged — both as a structured [`InjectedFault`] and,
//! where a monitoring fault class exists, into a
//! [`FaultRecorder`], so an experiment can diff what was
//! injected against what the platform's monitors detected.

use crate::plan::FaultPlan;
use dynplat_comm::fabric::{Fabric, MessageDelivery, MessageSend};
use dynplat_common::rng::{seeded_rng, split_seed, Rng, SplitMix64};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::{EcuId, TaskId};
use dynplat_monitor::fault::{Fault, FaultKind, FaultRecorder};
use dynplat_obs::{FlightRecorder, TraceCtx};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Correlation ids at or above this value are fabric-internal babble load;
/// they never appear in the deliveries returned to the caller.
pub const BABBLE_ID_BASE: u64 = 1 << 62;

/// What was injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectedFaultKind {
    /// A message was silently dropped.
    MessageDrop,
    /// A message was delivered with a failed integrity check.
    MessageCorruption,
    /// A message was delivered twice.
    MessageDuplicate,
    /// A message's injection was delayed by a spike.
    DelaySpike,
    /// A message was lost to a partitioned bus on its route.
    PartitionLoss,
    /// A message was lost because its source or destination ECU had
    /// crashed.
    CrashLoss,
    /// A message was held back by a hung source ECU.
    HangDelay,
    /// A babbling-idiot flood was started.
    BabbleStart,
    /// An ECU crashed (fail-stop).
    EcuCrash,
    /// An ECU hung for a window.
    EcuHang,
    /// An ECU's clock drifts against the fleet.
    ClockDrift,
}

impl InjectedFaultKind {
    /// The monitoring fault class this injection should be detectable as,
    /// if any. Duplicates, delay spikes and the babble load itself have no
    /// direct monitor class — they surface indirectly (jitter, deadline
    /// misses).
    pub fn monitor_kind(self) -> Option<FaultKind> {
        match self {
            InjectedFaultKind::MessageDrop
            | InjectedFaultKind::PartitionLoss
            | InjectedFaultKind::CrashLoss => Some(FaultKind::MessageLoss),
            InjectedFaultKind::MessageCorruption => Some(FaultKind::MessageCorruption),
            InjectedFaultKind::EcuCrash | InjectedFaultKind::EcuHang => {
                Some(FaultKind::NodeFailure)
            }
            InjectedFaultKind::ClockDrift => Some(FaultKind::ClockDrift),
            InjectedFaultKind::MessageDuplicate
            | InjectedFaultKind::DelaySpike
            | InjectedFaultKind::HangDelay
            | InjectedFaultKind::BabbleStart => None,
        }
    }
}

impl fmt::Display for InjectedFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InjectedFaultKind::MessageDrop => "message drop",
            InjectedFaultKind::MessageCorruption => "message corruption",
            InjectedFaultKind::MessageDuplicate => "message duplicate",
            InjectedFaultKind::DelaySpike => "delay spike",
            InjectedFaultKind::PartitionLoss => "partition loss",
            InjectedFaultKind::CrashLoss => "crash loss",
            InjectedFaultKind::HangDelay => "hang delay",
            InjectedFaultKind::BabbleStart => "babble start",
            InjectedFaultKind::EcuCrash => "ecu crash",
            InjectedFaultKind::EcuHang => "ecu hang",
            InjectedFaultKind::ClockDrift => "clock drift",
        };
        write!(f, "{s}")
    }
}

/// One logged injection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InjectedFault {
    /// When the injection took effect.
    pub time: SimTime,
    /// What was injected.
    pub kind: InjectedFaultKind,
    /// Context ("msg 17 ecu0->ecu2", "bus0", ...).
    pub detail: String,
}

/// Deterministic aggregate counters over one injector's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectionStats {
    /// Messages seen by the injector (babble load excluded).
    pub messages: u64,
    /// Stochastic drops.
    pub drops: u64,
    /// Corrupted deliveries.
    pub corruptions: u64,
    /// Duplicated deliveries.
    pub duplicates: u64,
    /// Delay spikes applied.
    pub delay_spikes: u64,
    /// Losses to partitioned buses.
    pub partition_losses: u64,
    /// Losses to crashed ECUs.
    pub crash_losses: u64,
    /// Sends held back by hung ECUs.
    pub hang_delays: u64,
    /// Babble load messages generated.
    pub babble_messages: u64,
}

/// The seed-driven decision engine behind [`ChaosFabric`].
///
/// One SplitMix64 stream per stochastic fault category keeps decisions
/// independent of each other while staying bit-reproducible for a fixed
/// plan and send order.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    drop_rng: SplitMix64,
    corrupt_rng: SplitMix64,
    dup_rng: SplitMix64,
    delay_rng: SplitMix64,
    log: Vec<InjectedFault>,
    recorder: FaultRecorder,
    stats: InjectionStats,
    flight: Option<Arc<FlightRecorder>>,
}

/// What the injector decided for one send.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendVerdict {
    /// Forward these copies (possibly delayed or duplicated).
    Deliver(Vec<MessageSend>),
    /// Forward these copies, but their payload integrity is broken: the
    /// receiver must discard them after the bus time is burnt.
    DeliverCorrupted(Vec<MessageSend>),
    /// The message never reaches the fabric.
    Drop,
}

impl FaultInjector {
    /// Creates an injector for `plan`, logging the plan's scheduled
    /// structural faults up front.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate().expect("fault plan must validate");
        let seed = plan.seed;
        let mut injector = FaultInjector {
            drop_rng: seeded_rng(split_seed(seed, 0x01)),
            corrupt_rng: seeded_rng(split_seed(seed, 0x02)),
            dup_rng: seeded_rng(split_seed(seed, 0x03)),
            delay_rng: seeded_rng(split_seed(seed, 0x04)),
            log: Vec::new(),
            recorder: FaultRecorder::new(4096),
            stats: InjectionStats::default(),
            flight: None,
            plan,
        };
        let scheduled: Vec<(SimTime, InjectedFaultKind, String)> = injector
            .plan
            .crashes
            .iter()
            .map(|c| (c.at, InjectedFaultKind::EcuCrash, c.ecu.to_string()))
            .chain(
                injector
                    .plan
                    .hangs
                    .iter()
                    .map(|h| (h.from, InjectedFaultKind::EcuHang, h.ecu.to_string())),
            )
            .chain(injector.plan.drifts.iter().map(|d| {
                (
                    SimTime::ZERO,
                    InjectedFaultKind::ClockDrift,
                    format!("{} {}ppm", d.ecu, d.ppm),
                )
            }))
            .chain(injector.plan.babblers.iter().map(|b| {
                (
                    b.from,
                    InjectedFaultKind::BabbleStart,
                    format!("{} on link to {}", b.src, b.dst),
                )
            }))
            .collect();
        for (time, kind, detail) in scheduled {
            injector.log_injection(time, kind, detail);
        }
        injector
    }

    /// Structured injection log, in injection order.
    pub fn log(&self) -> &[InjectedFault] {
        &self.log
    }

    /// The injected-fault recorder (monitor vocabulary) — diff its
    /// [`FaultRecorder::counts`] against the detection side.
    pub fn recorder(&self) -> &FaultRecorder {
        &self.recorder
    }

    /// Attaches a flight recorder: every injection lands in its event
    /// ring (stage `faults.inject`). Injections deliberately do *not*
    /// trigger dumps — dumps freeze on the detection side, so the window
    /// between cause and detection stays measurable (E13).
    pub fn attach_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.flight = Some(recorder);
    }

    fn log_injection(&mut self, time: SimTime, kind: InjectedFaultKind, detail: String) {
        dynplat_obs::counter!("faults.injected_total").inc();
        match kind {
            InjectedFaultKind::MessageDrop => {
                dynplat_obs::counter!("faults.injected.message_drop").inc()
            }
            InjectedFaultKind::MessageCorruption => {
                dynplat_obs::counter!("faults.injected.message_corruption").inc()
            }
            InjectedFaultKind::MessageDuplicate => {
                dynplat_obs::counter!("faults.injected.message_duplicate").inc()
            }
            InjectedFaultKind::DelaySpike => {
                dynplat_obs::counter!("faults.injected.delay_spike").inc()
            }
            InjectedFaultKind::PartitionLoss => {
                dynplat_obs::counter!("faults.injected.partition_loss").inc()
            }
            InjectedFaultKind::CrashLoss => {
                dynplat_obs::counter!("faults.injected.crash_loss").inc()
            }
            InjectedFaultKind::HangDelay => {
                dynplat_obs::counter!("faults.injected.hang_delay").inc()
            }
            InjectedFaultKind::BabbleStart => {
                dynplat_obs::counter!("faults.injected.babble_start").inc()
            }
            InjectedFaultKind::EcuCrash => dynplat_obs::counter!("faults.injected.ecu_crash").inc(),
            InjectedFaultKind::EcuHang => dynplat_obs::counter!("faults.injected.ecu_hang").inc(),
            InjectedFaultKind::ClockDrift => {
                dynplat_obs::counter!("faults.injected.clock_drift").inc()
            }
        }
        if let Some(monitor_kind) = kind.monitor_kind() {
            self.recorder.record(Fault {
                time,
                task: TaskId(0),
                kind: monitor_kind,
                detail: detail.clone(),
            });
        }
        if let Some(fr) = &self.flight {
            fr.record(
                time.as_nanos(),
                TraceCtx::NONE,
                "faults.inject",
                format!("{kind}: {detail}"),
            );
        }
        self.log.push(InjectedFault { time, kind, detail });
    }

    fn crashed_at(&self, ecu: EcuId, t: SimTime) -> bool {
        self.plan.crashes.iter().any(|c| c.ecu == ecu && t >= c.at)
    }

    /// Runs one send through the plan. `route_buses` is the bus path the
    /// fabric would use (empty for ECU-local messages).
    pub fn judge(
        &mut self,
        send: &MessageSend,
        route_buses: &[dynplat_common::BusId],
    ) -> SendVerdict {
        self.stats.messages += 1;
        let mut send = send.clone();
        let label = |s: &MessageSend| format!("msg {} {}->{}", s.id, s.src, s.dst);

        // Clock drift shifts the sender's notion of "now".
        if let Some(d) = self.plan.drifts.iter().find(|d| d.ecu == send.src) {
            let ns = send.time.saturating_since(SimTime::ZERO).as_nanos() as i128;
            let shifted = ns + ns * i128::from(d.ppm) / 1_000_000;
            send.time = SimTime::ZERO + SimDuration::from_nanos(shifted.max(0) as u64);
        }

        // Fail-stop crashes kill the message outright.
        if self.crashed_at(send.src, send.time) || self.crashed_at(send.dst, send.time) {
            self.stats.crash_losses += 1;
            let detail = label(&send);
            self.log_injection(send.time, InjectedFaultKind::CrashLoss, detail);
            return SendVerdict::Drop;
        }

        // Partitioned bus anywhere on the route loses the message.
        if let Some(p) = self
            .plan
            .partitions
            .iter()
            .find(|p| p.active_at(send.time) && route_buses.contains(&p.bus))
        {
            self.stats.partition_losses += 1;
            let detail = format!("{} on {}", label(&send), p.bus);
            self.log_injection(send.time, InjectedFaultKind::PartitionLoss, detail);
            return SendVerdict::Drop;
        }

        // A hung source holds its traffic until the hang ends.
        if let Some(until) = self
            .plan
            .hangs
            .iter()
            .find(|h| h.ecu == send.src && h.active_at(send.time))
            .map(|h| h.until)
        {
            self.stats.hang_delays += 1;
            let detail = label(&send);
            self.log_injection(send.time, InjectedFaultKind::HangDelay, detail);
            send.time = until;
        }

        // Stochastic faults, one independent stream each. Every stream is
        // advanced for every message so decisions stay aligned across
        // plans that differ only in rates.
        let drop_roll = self.drop_rng.gen::<f64>();
        let corrupt_roll = self.corrupt_rng.gen::<f64>();
        let dup_roll = self.dup_rng.gen::<f64>();
        let delay_roll = self.delay_rng.gen::<f64>();
        let delay_frac = self.delay_rng.gen::<f64>();

        if drop_roll < self.plan.drop_rate {
            self.stats.drops += 1;
            let detail = label(&send);
            self.log_injection(send.time, InjectedFaultKind::MessageDrop, detail);
            return SendVerdict::Drop;
        }

        if delay_roll < self.plan.delay_spike_rate && !self.plan.delay_spike.is_zero() {
            self.stats.delay_spikes += 1;
            let spike =
                SimDuration::from_secs_f64(self.plan.delay_spike.as_secs_f64() * delay_frac);
            let detail = format!("{} +{spike}", label(&send));
            self.log_injection(send.time, InjectedFaultKind::DelaySpike, detail);
            send.time += spike;
        }

        let mut copies = vec![send.clone()];
        if dup_roll < self.plan.duplicate_rate {
            self.stats.duplicates += 1;
            let detail = label(&send);
            self.log_injection(send.time, InjectedFaultKind::MessageDuplicate, detail);
            copies.push(send.clone());
        }

        if corrupt_roll < self.plan.corrupt_rate {
            self.stats.corruptions += 1;
            let detail = label(&send);
            self.log_injection(send.time, InjectedFaultKind::MessageCorruption, detail);
            return SendVerdict::DeliverCorrupted(copies);
        }
        SendVerdict::Deliver(copies)
    }

    /// The babble load messages the plan schedules, ids starting at
    /// [`BABBLE_ID_BASE`].
    pub fn babble_load(&mut self) -> Vec<MessageSend> {
        let mut load = Vec::new();
        let mut id = BABBLE_ID_BASE;
        for b in &self.plan.babblers {
            let mut t = b.from;
            while t < b.until {
                load.push(MessageSend {
                    id,
                    time: t,
                    src: b.src,
                    dst: b.dst,
                    payload: b.payload,
                    class: dynplat_net::TrafficClass::Critical,
                    priority: 0, // out-shouts everything, the point of babbling
                    trace: TraceCtx::NONE,
                });
                id += 1;
                t += b.period;
            }
        }
        self.stats.babble_messages += load.len() as u64;
        load
    }
}

/// A [`Fabric`] under fault injection.
pub struct ChaosFabric {
    fabric: Fabric,
    injector: FaultInjector,
}

impl ChaosFabric {
    /// Wraps `fabric` under `plan`.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    pub fn new(fabric: Fabric, plan: FaultPlan) -> Self {
        ChaosFabric {
            fabric,
            injector: FaultInjector::new(plan),
        }
    }

    /// The injector (log, recorder, stats).
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Attaches a flight recorder to both the inner fabric (lifecycle
    /// events for traced messages) and the injector (injection events).
    pub fn attach_flight_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.fabric.attach_flight_recorder(recorder.clone());
        self.injector.attach_flight_recorder(recorder);
    }

    fn route_of(&self, send: &MessageSend) -> Vec<dynplat_common::BusId> {
        self.fabric
            .topology()
            .route(send.src, send.dst)
            .map(|r| r.buses)
            .unwrap_or_default()
    }

    /// Runs a batch of sends through the plan and then the fabric.
    ///
    /// Corrupted copies traverse the network (burning bus time) but are
    /// withheld from `on_delivery` and from the returned deliveries —
    /// exactly how a CRC-protected link behaves. Babble load is simulated
    /// but equally invisible to the caller. Reactions injected by
    /// `on_delivery` pass through the plan too.
    pub fn run<F>(&mut self, sends: Vec<MessageSend>, mut on_delivery: F) -> Vec<MessageDelivery>
    where
        F: FnMut(&MessageDelivery) -> Vec<MessageSend>,
    {
        let mut corrupted: BTreeSet<u64> = BTreeSet::new();
        let mut admitted = Vec::new();
        let admit = |injector: &mut FaultInjector,
                     corrupted: &mut BTreeSet<u64>,
                     route: Vec<dynplat_common::BusId>,
                     send: &MessageSend,
                     out: &mut Vec<MessageSend>| {
            match injector.judge(send, &route) {
                SendVerdict::Deliver(copies) => out.extend(copies),
                SendVerdict::DeliverCorrupted(copies) => {
                    corrupted.insert(send.id);
                    out.extend(copies);
                }
                SendVerdict::Drop => {}
            }
        };
        for send in &sends {
            let route = self.route_of(send);
            admit(
                &mut self.injector,
                &mut corrupted,
                route,
                send,
                &mut admitted,
            );
        }
        admitted.extend(self.injector.babble_load());

        let fabric = &mut self.fabric;
        let injector = &mut self.injector;
        let topology = fabric.topology().clone();
        let deliveries = fabric.run(admitted, |delivery| {
            if delivery.id >= BABBLE_ID_BASE || corrupted.contains(&delivery.id) {
                return Vec::new();
            }
            let mut reactions = Vec::new();
            for send in on_delivery(delivery) {
                let route = topology
                    .route(send.src, send.dst)
                    .map(|r| r.buses)
                    .unwrap_or_default();
                admit(injector, &mut corrupted, route, &send, &mut reactions);
            }
            reactions
        });
        deliveries
            .into_iter()
            .filter(|d| d.id < BABBLE_ID_BASE && !corrupted.contains(&d.id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynplat_common::{BusId, EcuId};
    use dynplat_hw::ecu::{EcuClass, EcuSpec};
    use dynplat_hw::topology::{BusKind, BusSpec, HwTopology};
    use dynplat_net::TrafficClass;

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
        .expect("static test topology is valid")
    }

    fn send(id: u64, t_us: u64, src: u16, dst: u16) -> MessageSend {
        MessageSend {
            id,
            time: SimTime::from_micros(t_us),
            src: EcuId(src),
            dst: EcuId(dst),
            payload: 200,
            class: TrafficClass::BestEffort,
            priority: 3,
            trace: TraceCtx::NONE,
        }
    }

    fn batch(n: u64) -> Vec<MessageSend> {
        (0..n).map(|i| send(i, i * 500, 1, 2)).collect()
    }

    #[test]
    fn quiet_plan_changes_nothing() {
        let mut plain = Fabric::new(topo());
        let expected = plain.run(batch(50), |_| vec![]);
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), FaultPlan::quiet(1));
        let got = chaos.run(batch(50), |_| vec![]);
        assert_eq!(got, expected);
        let seen_only = InjectionStats {
            messages: 50,
            ..InjectionStats::default()
        };
        assert_eq!(
            chaos.injector().stats,
            seen_only,
            "every send seen, none touched"
        );
        assert!(chaos.injector().log().is_empty());
    }

    #[test]
    fn drops_are_seeded_and_reproducible() {
        let plan = FaultPlan::quiet(42).with_message_faults(0.3, 0.0, 0.0);
        let mut a = ChaosFabric::new(Fabric::new(topo()), plan.clone());
        let mut b = ChaosFabric::new(Fabric::new(topo()), plan.clone());
        let da = a.run(batch(200), |_| vec![]);
        let db = b.run(batch(200), |_| vec![]);
        assert_eq!(da, db, "same plan, same seed: identical outcome");
        let losses = a.injector().stats.drops;
        assert!(
            (30..90).contains(&losses),
            "~30% of 200 expected, got {losses}"
        );
        assert_eq!(da.len() as u64, 200 - losses);
        assert_eq!(
            a.injector().recorder().count(FaultKind::MessageLoss),
            losses,
            "every drop lands in the injected-fault recorder"
        );
        // A different seed makes different choices.
        let mut c = ChaosFabric::new(
            Fabric::new(topo()),
            FaultPlan::quiet(43).with_message_faults(0.3, 0.0, 0.0),
        );
        let dc = c.run(batch(200), |_| vec![]);
        assert_ne!(da, dc);
    }

    #[test]
    fn corrupted_messages_burn_bus_time_but_never_arrive() {
        let plan = FaultPlan::quiet(7).with_message_faults(0.0, 1.0, 0.0);
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let done = chaos.run(batch(10), |_| vec![]);
        assert!(
            done.is_empty(),
            "all deliveries failed their integrity check"
        );
        assert_eq!(chaos.injector().stats.corruptions, 10);
        assert_eq!(
            chaos
                .injector()
                .recorder()
                .count(FaultKind::MessageCorruption),
            10
        );
    }

    #[test]
    fn duplicates_arrive_twice() {
        let plan = FaultPlan::quiet(7).with_message_faults(0.0, 0.0, 1.0);
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let done = chaos.run(batch(5), |_| vec![]);
        assert_eq!(done.len(), 10);
        for i in 0..5u64 {
            assert_eq!(done.iter().filter(|d| d.id == i).count(), 2);
        }
    }

    #[test]
    fn delay_spikes_postpone_injection() {
        let plan = FaultPlan::quiet(7).with_delay_spikes(1.0, SimDuration::from_millis(5));
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let done = chaos.run(vec![send(1, 0, 1, 2)], |_| vec![]);
        assert_eq!(done.len(), 1);
        assert!(
            done[0].sent > SimTime::ZERO,
            "spike moved the injection time"
        );
        assert_eq!(chaos.injector().stats.delay_spikes, 1);
    }

    #[test]
    fn partition_window_loses_routed_messages() {
        let plan = FaultPlan::quiet(7).partition(
            BusId(1),
            SimTime::from_millis(1),
            SimTime::from_millis(3),
        );
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        // One message before, one inside, one after the window; plus one
        // on the unaffected CAN bus during the window.
        let sends = vec![
            send(1, 0, 1, 2),
            send(2, 2_000, 1, 2),
            send(3, 4_000, 1, 2),
            send(4, 2_000, 0, 1),
        ];
        let done = chaos.run(sends, |_| vec![]);
        let ids: Vec<u64> = done.iter().map(|d| d.id).collect();
        assert!(ids.contains(&1) && ids.contains(&3) && ids.contains(&4));
        assert!(
            !ids.contains(&2),
            "in-window message on the partitioned bus is lost"
        );
        assert_eq!(chaos.injector().stats.partition_losses, 1);
    }

    #[test]
    fn crashed_ecu_goes_silent() {
        let plan = FaultPlan::quiet(7).crash(EcuId(2), SimTime::from_millis(1));
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let sends = vec![send(1, 0, 1, 2), send(2, 2_000, 1, 2), send(3, 2_000, 2, 1)];
        let done = chaos.run(sends, |_| vec![]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(chaos.injector().stats.crash_losses, 2);
        assert_eq!(chaos.injector().recorder().count(FaultKind::NodeFailure), 1);
        assert_eq!(chaos.injector().recorder().count(FaultKind::MessageLoss), 2);
    }

    #[test]
    fn hung_ecu_flushes_after_the_window() {
        let plan = FaultPlan::quiet(7).hang(EcuId(1), SimTime::ZERO, SimTime::from_millis(10));
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let done = chaos.run(vec![send(1, 100, 1, 2)], |_| vec![]);
        assert_eq!(done.len(), 1);
        assert!(
            done[0].sent >= SimTime::from_millis(10),
            "held until the hang ended"
        );
        assert_eq!(chaos.injector().stats.hang_delays, 1);
    }

    #[test]
    fn clock_drift_shifts_send_times() {
        let plan = FaultPlan::quiet(7).drift(EcuId(1), 100_000); // 10% fast
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let done = chaos.run(vec![send(1, 10_000, 1, 2)], |_| vec![]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].sent, SimTime::from_micros(11_000));
        assert_eq!(chaos.injector().recorder().count(FaultKind::ClockDrift), 1);
    }

    #[test]
    fn babble_load_crowds_the_bus_but_stays_invisible() {
        let plan = FaultPlan::quiet(7).babble(crate::plan::BabblingIdiot {
            src: EcuId(1),
            dst: EcuId(2),
            from: SimTime::ZERO,
            until: SimTime::from_millis(20),
            period: SimDuration::from_micros(130),
            payload: 1500,
        });
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let victim = send(1, 0, 1, 2);
        let done = chaos.run(vec![victim.clone()], |_| vec![]);
        assert_eq!(done.len(), 1, "babble never surfaces in the results");
        let with_babble = done[0].latency();
        let mut quiet = ChaosFabric::new(Fabric::new(topo()), FaultPlan::quiet(7));
        let baseline = quiet.run(vec![victim], |_| vec![])[0].latency();
        assert!(
            with_babble > baseline,
            "flood must slow the victim: {with_babble} vs {baseline}"
        );
        assert!(chaos.injector().stats.babble_messages > 100);
    }

    #[test]
    fn callback_reactions_pass_through_the_plan() {
        // RPC shape: every request triggers a response; with 100% drop on
        // a plan that only starts dropping after the first message, the
        // response is dropped too. Use full drop: request itself dies, so
        // no response is ever generated.
        let plan = FaultPlan::quiet(7).with_message_faults(1.0, 0.0, 0.0);
        let mut chaos = ChaosFabric::new(Fabric::new(topo()), plan);
        let mut responses_generated = 0;
        let done = chaos.run(vec![send(1, 0, 1, 2)], |_| {
            responses_generated += 1;
            vec![send(100, 0, 2, 1)]
        });
        assert!(done.is_empty());
        assert_eq!(responses_generated, 0);
        // Now drop nothing; the response must flow and be judged (counted).
        let mut open = ChaosFabric::new(Fabric::new(topo()), FaultPlan::quiet(7));
        let done = open.run(vec![send(1, 0, 1, 2)], |d| {
            if d.id == 1 {
                vec![send(
                    100,
                    d.delivered.saturating_since(SimTime::ZERO).as_micros(),
                    2,
                    1,
                )]
            } else {
                vec![]
            }
        });
        assert_eq!(done.len(), 2);
        assert_eq!(open.injector().stats.messages, 2);
    }
}
