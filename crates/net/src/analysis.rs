//! Worst-case analyses for the bus media.
//!
//! The verification engine needs latency bounds before deployment (§2.2).
//! [`crate::CanAnalysis`] and [`EthernetAnalysis`] share one
//! non-preemptive fixed-priority response-time fixed point (one
//! lower-priority frame of blocking plus higher-priority interference);
//! each keeps only its frame time, its `ε` and which flows block or
//! interfere. [`worst_case_gate_delay`] bounds how long a frame of a
//! traffic class can wait for its 802.1Qbv gate when the port is
//! otherwise idle.

use crate::ethernet::ethernet_frame_time;
use crate::tsn::GateControlList;
use crate::TrafficClass;
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::MessageId;

/// One flow's worst-case response time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Wcrt {
    /// The analyzed flow.
    pub id: MessageId,
    /// Worst-case response time (release to end of transmission), or `None`
    /// when the fixed point exceeds the flow's period (the analysis bails
    /// out and deems the flow unschedulable).
    pub wcrt: Option<SimDuration>,
}

/// A flow as the fixed point sees it: its id, frame time `C` and period `T`.
pub(crate) type TimedFlow = (MessageId, SimDuration, SimDuration);

/// Sum of `C / T` over `flows` (1.0 = saturated medium).
pub(crate) fn utilization(flows: &[TimedFlow]) -> f64 {
    flows
        .iter()
        .map(|&(_, c, t)| c.as_nanos() as f64 / t.as_nanos() as f64)
        .sum()
}

/// Non-preemptive fixed-priority response times of `flows`.
///
/// For flow *i*: `w = B_i + Σ_{k ∈ hp(i)} ⌈(w + ε) / T_k⌉ · C_k` and
/// `R_i = w + C_i`, where `B_i` is the longest `C_k` of the flows `k` with
/// `blocks(i, k)` and `hp(i)` the flows `k` with `interferes(i, k)`. The
/// iteration bails out with `None` once `w + C_i` exceeds `T_i`.
pub(crate) fn fixed_priority_wcrts(
    flows: &[TimedFlow],
    eps: SimDuration,
    blocks: impl Fn(usize, usize) -> bool,
    interferes: impl Fn(usize, usize) -> bool,
) -> Vec<Wcrt> {
    (0..flows.len())
        .map(|i| {
            let (id, c, period) = flows[i];
            let blocking = (0..flows.len())
                .filter(|&k| blocks(i, k))
                .map(|k| flows[k].1)
                .max()
                .unwrap_or(SimDuration::ZERO);
            let hp: Vec<TimedFlow> = (0..flows.len())
                .filter(|&k| interferes(i, k))
                .map(|k| flows[k])
                .collect();
            let mut w = blocking;
            let wcrt = loop {
                let interference: SimDuration = hp
                    .iter()
                    .map(|&(_, c_k, t_k)| c_k * (w + eps).as_nanos().div_ceil(t_k.as_nanos()))
                    .sum();
                let w_next = blocking + interference;
                if w_next == w {
                    break Some(w + c);
                }
                if w_next + c > period {
                    break None;
                }
                w = w_next;
            };
            Wcrt { id, wcrt }
        })
        .collect()
}

/// A periodic Ethernet flow for response-time analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EthFlowSpec {
    /// Flow identifier.
    pub id: MessageId,
    /// Frame payload in bytes (≤ MTU; larger messages are per-frame flows).
    pub payload: usize,
    /// Frame priority (lower = more urgent).
    pub priority: u32,
    /// Activation period.
    pub period: SimDuration,
}

impl EthFlowSpec {
    /// Creates a flow.
    pub fn new(id: MessageId, payload: usize, priority: u32, period: SimDuration) -> Self {
        EthFlowSpec {
            id,
            payload,
            priority,
            period,
        }
    }
}

/// Strict-priority (802.1p) egress-port analysis.
#[derive(Clone, Debug)]
pub struct EthernetAnalysis {
    bitrate: u64,
    flows: Vec<EthFlowSpec>,
}

impl EthernetAnalysis {
    /// Creates an analysis over `flows` on a port at `bitrate` bit/s.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is zero or any period is zero.
    pub fn new(bitrate: u64, flows: Vec<EthFlowSpec>) -> Self {
        assert!(bitrate > 0, "bitrate must be non-zero");
        assert!(
            flows.iter().all(|f| !f.period.is_zero()),
            "periods must be non-zero"
        );
        EthernetAnalysis { bitrate, flows }
    }

    fn timed(&self) -> Vec<TimedFlow> {
        self.flows
            .iter()
            .map(|f| (f.id, ethernet_frame_time(f.payload, self.bitrate), f.period))
            .collect()
    }

    /// Port utilization of the flow set.
    pub fn utilization(&self) -> f64 {
        utilization(&self.timed())
    }

    /// Worst-case response times under non-preemptive strict priority,
    /// with `ε` = 1 ns.
    ///
    /// `B_i` is the largest lower-or-equal-priority frame. An
    /// equal-priority flow counts both as blocking and as interference:
    /// that absorbs the FIFO order among ties into the bound.
    pub fn response_times(&self) -> Vec<Wcrt> {
        let f = &self.flows;
        fixed_priority_wcrts(
            &self.timed(),
            SimDuration::from_nanos(1),
            |i, k| f[k].priority >= f[i].priority && f[k].id != f[i].id,
            |i, k| {
                f[k].priority < f[i].priority
                    || (f[k].priority == f[i].priority && f[k].id != f[i].id)
            },
        )
    }

    /// `true` when every flow has a bounded WCRT within its period.
    pub fn is_schedulable(&self) -> bool {
        self.response_times().iter().all(|r| r.wcrt.is_some())
    }
}

/// Worst-case delay a frame of `class` lasting `tx` can wait for an open
/// gate on an otherwise idle TSN port.
///
/// Evaluated exactly by probing [`GateControlList::earliest_fit`] at the
/// critical arrival instants: just after each fitting window's latest
/// feasible start, and at each window boundary.
///
/// Returns `None` if no window of the class can ever fit the frame.
pub fn worst_case_gate_delay(
    gcl: &GateControlList,
    class: TrafficClass,
    tx: SimDuration,
) -> Option<SimDuration> {
    let cycle = gcl.cycle();
    let mut candidates: Vec<SimTime> = vec![SimTime::ZERO];
    for w in gcl.windows() {
        let open = SimTime::ZERO + w.offset;
        candidates.push(open);
        if w.length >= tx {
            // Just past the latest feasible start inside this window.
            let latest = open + (w.length - tx);
            candidates.push(latest + SimDuration::from_nanos(1));
        }
        candidates.push(open + w.length);
    }
    let mut worst: Option<SimDuration> = None;
    for t in candidates {
        if t >= SimTime::ZERO + cycle * 2 {
            continue;
        }
        let start = gcl.earliest_fit(t, class, tx)?;
        let wait = start.saturating_since(t);
        worst = Some(worst.map_or(wait, |w| w.max(wait)));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ethernet::StrictPriorityPort;
    use crate::tsn::{GateWindow, TsnGatedPort};
    use crate::{simulate, Frame, TxEvent};

    const MBIT100: u64 = 100_000_000;

    fn flows() -> Vec<EthFlowSpec> {
        vec![
            EthFlowSpec::new(MessageId(1), 64, 0, SimDuration::from_millis(1)),
            EthFlowSpec::new(MessageId(2), 512, 1, SimDuration::from_millis(2)),
            EthFlowSpec::new(MessageId(3), 1500, 2, SimDuration::from_millis(5)),
        ]
    }

    #[test]
    fn top_priority_bound_is_blocking_plus_own_frame() {
        let analysis = EthernetAnalysis::new(MBIT100, flows());
        let rts = analysis.response_times();
        let c1 = ethernet_frame_time(64, MBIT100);
        let c3 = ethernet_frame_time(1500, MBIT100);
        assert_eq!(
            rts[0].wcrt,
            Some(c3 + c1),
            "blocked by the largest lower frame"
        );
        assert!(analysis.is_schedulable());
    }

    #[test]
    fn overload_is_flagged() {
        let heavy: Vec<EthFlowSpec> = (0..200)
            .map(|i| EthFlowSpec::new(MessageId(i), 1500, i, SimDuration::from_millis(20)))
            .collect();
        let analysis = EthernetAnalysis::new(MBIT100, heavy);
        assert!(analysis.utilization() > 1.0);
        assert!(!analysis.is_schedulable());
    }

    #[test]
    fn simulation_respects_the_bound() {
        let flows = flows();
        let analysis = EthernetAnalysis::new(MBIT100, flows.clone());
        let bounds = analysis.response_times();
        let mut port = StrictPriorityPort::new(MBIT100);
        let mut events = Vec::new();
        for f in &flows {
            let mut t = SimTime::ZERO;
            while t < SimTime::from_millis(50) {
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
            assert!(
                tx.latency() <= bound,
                "{}: simulated {} > bound {}",
                tx.frame.id,
                tx.latency(),
                bound
            );
        }
    }

    fn demo_gcl() -> GateControlList {
        GateControlList::new(
            SimDuration::from_millis(1),
            vec![
                GateWindow::new(
                    TrafficClass::Critical,
                    SimDuration::ZERO,
                    SimDuration::from_micros(200),
                ),
                GateWindow::new(
                    TrafficClass::BestEffort,
                    SimDuration::from_micros(200),
                    SimDuration::from_micros(800),
                ),
            ],
        )
        .expect("valid")
    }

    #[test]
    fn gate_delay_bound_shape() {
        let gcl = demo_gcl();
        let tx = SimDuration::from_micros(50);
        // Worst case: arrive just after the last feasible start at 150 us;
        // wait until the next cycle = 1000 - (150 + 1ns) ≈ 850 us.
        let bound = worst_case_gate_delay(&gcl, TrafficClass::Critical, tx).expect("fits");
        assert!(bound >= SimDuration::from_micros(849));
        assert!(bound <= SimDuration::from_micros(851));
        // Best-effort gets a wide window: shorter worst wait.
        let be = worst_case_gate_delay(&gcl, TrafficClass::BestEffort, tx).expect("fits");
        assert!(be < bound);
        // A frame too large for any window has no bound.
        assert_eq!(
            worst_case_gate_delay(&gcl, TrafficClass::Critical, SimDuration::from_micros(300)),
            None
        );
    }

    #[test]
    fn simulated_gate_delay_never_exceeds_bound() {
        let gcl = demo_gcl();
        let tx_payload = 500usize; // ~41.76 us at 100 Mbit/s
        let tx = ethernet_frame_time(tx_payload, MBIT100);
        let bound = worst_case_gate_delay(&gcl, TrafficClass::Critical, tx).expect("fits");
        // Probe many arrival phases on an idle port.
        for phase_us in (0..1000).step_by(7) {
            let mut port = TsnGatedPort::new(MBIT100, gcl.clone());
            let events = vec![TxEvent {
                arrival: SimTime::from_micros(phase_us),
                frame: Frame::new(MessageId(1), tx_payload)
                    .with_priority(0)
                    .with_class(TrafficClass::Critical),
            }];
            let done = simulate(&mut port, events);
            let wait = done[0].latency().saturating_sub(tx);
            assert!(
                wait <= bound,
                "phase {phase_us}us: wait {wait} > bound {bound}"
            );
        }
    }
}
