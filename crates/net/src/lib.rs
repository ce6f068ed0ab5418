//! Communication substrates for the dynamic platform.
//!
//! The paper (§1) names rising bandwidth demand as a core challenge and (§3.1,
//! "Hardware Access & Communication") requires that an urgent transmission of
//! a deterministic application is never delayed by a non-deterministic
//! application's bulk traffic. This crate implements frame-level models of
//! the four automotive media the paper discusses, all from scratch:
//!
//! * [`can`] — CAN with identifier-based non-preemptive priority arbitration
//!   and the classic worst-case response-time analysis;
//! * [`flexray`] — FlexRay with a time-triggered static segment and a
//!   minislot-arbitrated dynamic segment;
//! * [`ethernet`] — switched Ethernet egress ports with FIFO or strict
//!   802.1p priority selection;
//! * [`tsn`] — IEEE 802.1Qbv time-aware gates with guard-band semantics,
//!   the mixed-criticality scheme the paper's §5.3 points to.
//!
//! All media implement the same poll-based [`Arbiter`] state machine so
//! callers (the middleware in `dynplat-comm`, the experiment harness) can
//! drive any of them from a discrete-event loop, plus an offline
//! [`simulate`] helper for batch experiments.
//!
//! # Driving an [`Arbiter`]
//!
//! 1. call [`Arbiter::enqueue`] whenever a frame arrives;
//! 2. whenever the medium is idle and frames may be pending, call
//!    [`Arbiter::poll`]: it either grants a [`Transmission`] starting *now*
//!    (the medium is then busy until `end`, when you poll again), asks to be
//!    polled again at a later time (gate/slot opens then), or reports idle.
//!
//! Because grants always start at the poll instant, a late-arriving urgent
//! frame is never beaten by an earlier-queued bulk frame whose gate has not
//! opened yet.
//!
//! # Examples
//!
//! ```
//! use dynplat_common::time::SimTime;
//! use dynplat_common::MessageId;
//! use dynplat_net::{simulate, Frame, TxEvent};
//! use dynplat_net::can::CanArbiter;
//!
//! // Two frames contend at t=0; the lower CAN id (higher priority) wins.
//! let mut bus = CanArbiter::new(500_000);
//! let urgent = Frame::new(MessageId(0x10), 8).with_priority(0x10);
//! let bulk = Frame::new(MessageId(0x300), 8).with_priority(0x300);
//! let results = simulate(
//!     &mut bus,
//!     vec![
//!         TxEvent { arrival: SimTime::ZERO, frame: bulk },
//!         TxEvent { arrival: SimTime::ZERO, frame: urgent },
//!     ],
//! );
//! assert_eq!(results[0].frame.id, MessageId(0x10));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod can;
pub mod ethernet;
pub mod flexray;
pub mod tsn;

pub use analysis::{worst_case_gate_delay, EthFlowSpec, EthernetAnalysis};
pub use can::{can_frame_time, CanAnalysis, CanArbiter, CanMessageSpec};
pub use ethernet::{ethernet_frame_time, FifoPort, StrictPriorityPort};
pub use flexray::{FlexRayBus, FlexRayConfig, SlotAssignment};
pub use tsn::{GateControlList, GateWindow, TsnGatedPort};

use dynplat_common::time::SimTime;
use dynplat_common::MessageId;

/// Traffic class of a frame, deciding which isolation mechanism applies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Deterministic-application traffic with a deadline (scheduled/ST).
    Critical,
    /// Latency-sensitive but not safety-critical (audio/video streams).
    Stream,
    /// Best effort — bulk NDA traffic.
    #[default]
    BestEffort,
}

/// A frame queued for transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Flow identifier. On CAN this doubles as the arbitration identifier.
    pub id: MessageId,
    /// Payload length in bytes.
    pub payload: usize,
    /// Numeric priority; **lower value = higher priority** (CAN convention,
    /// mapped onto 802.1p internally for Ethernet media).
    pub priority: u32,
    /// Traffic class for gate/priority mapping.
    pub class: TrafficClass,
}

impl Frame {
    /// Creates a best-effort frame with priority equal to its raw id.
    pub fn new(id: MessageId, payload: usize) -> Self {
        Frame {
            id,
            payload,
            priority: id.raw(),
            class: TrafficClass::BestEffort,
        }
    }

    /// Sets the priority (lower = more urgent).
    pub fn with_priority(mut self, priority: u32) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the traffic class.
    pub fn with_class(mut self, class: TrafficClass) -> Self {
        self.class = class;
        self
    }
}

/// A frame together with its arrival time at the egress queue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxEvent {
    /// When the frame becomes ready to send.
    pub arrival: SimTime,
    /// The frame.
    pub frame: Frame,
}

/// A granted transmission: the frame occupies the medium in `[start, end)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transmission {
    /// The transmitted frame.
    pub frame: Frame,
    /// When the frame arrived at the queue.
    pub arrival: SimTime,
    /// First bit on the wire.
    pub start: SimTime,
    /// Last bit (plus inter-frame gap) off the wire; delivery instant.
    pub end: SimTime,
}

impl Transmission {
    /// Queue + transmission latency experienced by this frame.
    pub fn latency(&self) -> dynplat_common::time::SimDuration {
        self.end.saturating_since(self.arrival)
    }
}

/// Outcome of polling an idle medium.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Grant {
    /// A frame starts transmitting now; the medium is busy until `end`.
    Tx(Transmission),
    /// Frames are queued but none may start yet (closed gate / future
    /// slot); poll again at the given time.
    WaitUntil(SimTime),
    /// Nothing is queued.
    Idle,
}

/// The shared egress state machine all media implement.
///
/// See the crate-level docs for the driving protocol. Implementations are
/// passive: they never assume wall-clock progress beyond the `now` values
/// handed to them, and `now` must be non-decreasing across calls.
pub trait Arbiter {
    /// Records that `frame` arrived at time `now`.
    fn enqueue(&mut self, now: SimTime, frame: Frame);

    /// Asks the idle medium what to do at time `now`.
    fn poll(&mut self, now: SimTime) -> Grant;

    /// Number of frames waiting.
    fn pending(&self) -> usize;
}

/// Runs an [`Arbiter`] over a batch of arrivals and returns all completed
/// transmissions in completion order — the offline harness used by the
/// E3/E4 experiments.
pub fn simulate<A: Arbiter>(arbiter: &mut A, mut events: Vec<TxEvent>) -> Vec<Transmission> {
    events.sort_by_key(|e| e.arrival);
    let mut done: Vec<Transmission> = Vec::with_capacity(events.len());
    let mut iter = events.into_iter().peekable();
    // Time from which the medium is free.
    let mut free_at = SimTime::ZERO;
    // Next time we intend to poll, if any.
    let mut poll_at: Option<SimTime> = None;

    loop {
        let next_arrival = iter.peek().map(|e| e.arrival);
        let next_time = match (next_arrival, poll_at) {
            (None, None) => break,
            (Some(a), None) => a,
            (None, Some(p)) => p,
            (Some(a), Some(p)) => a.min(p),
        };

        // Ingest all arrivals at `next_time`.
        let mut arrived = false;
        while iter.peek().is_some_and(|e| e.arrival <= next_time) {
            let ev = iter.next().expect("peeked");
            arbiter.enqueue(ev.arrival, ev.frame);
            arrived = true;
        }
        if arrived {
            // (Re-)poll as soon as the medium is free; an earlier poll than a
            // pending WaitUntil is always safe (poll re-evaluates).
            let t = if free_at > next_time {
                free_at
            } else {
                next_time
            };
            poll_at = Some(poll_at.map_or(t, |p| p.min(t)));
        }

        if poll_at == Some(next_time) && next_time >= free_at {
            poll_at = None;
            match arbiter.poll(next_time) {
                Grant::Tx(tx) => {
                    debug_assert_eq!(tx.start, next_time, "grants start at the poll instant");
                    free_at = tx.end;
                    done.push(tx);
                    poll_at = Some(free_at);
                }
                Grant::WaitUntil(t) => {
                    debug_assert!(t > next_time, "WaitUntil must make progress");
                    poll_at = Some(t);
                }
                Grant::Idle => {}
            }
        } else if poll_at == Some(next_time) {
            // Poll came due while the medium is busy; defer to idle time.
            poll_at = Some(free_at);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_builders() {
        let f = Frame::new(MessageId(7), 16)
            .with_priority(2)
            .with_class(TrafficClass::Critical);
        assert_eq!(f.priority, 2);
        assert_eq!(f.class, TrafficClass::Critical);
        assert_eq!(Frame::new(MessageId(9), 1).priority, 9);
    }

    #[test]
    fn traffic_class_ordering_critical_first() {
        assert!(TrafficClass::Critical < TrafficClass::Stream);
        assert!(TrafficClass::Stream < TrafficClass::BestEffort);
    }
}
