//! Switched-Ethernet egress ports.
//!
//! The paper names Ethernet the bandwidth answer (§1) but plain Ethernet
//! offers no freedom of interference: a best-effort bulk stream delays
//! urgent frames behind it in the FIFO. [`FifoPort`] models that baseline;
//! [`StrictPriorityPort`] models 802.1p strict-priority transmission
//! selection, which protects urgent traffic up to one maximum-size frame of
//! blocking (non-preemptive). Full time-triggered isolation is provided by
//! the [`crate::tsn`] module on top of the same timing model.

use crate::{Arbiter, Frame, Grant, Transmission};
use dynplat_common::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Minimum Ethernet frame size on the wire (without preamble), bytes.
pub const MIN_FRAME_BYTES: usize = 64;
/// L2 overhead added to payload: MAC header + FCS (18) + 802.1Q tag (4).
pub const L2_OVERHEAD_BYTES: usize = 22;
/// Preamble + start-frame delimiter + inter-frame gap, bytes.
pub const GAP_BYTES: usize = 20;

/// Wire time of an Ethernet frame carrying `payload` bytes at `bitrate`
/// bit/s, including L2 overhead, minimum-size padding, preamble and IFG.
///
/// # Panics
///
/// Panics if `bitrate` is zero.
pub fn ethernet_frame_time(payload: usize, bitrate: u64) -> SimDuration {
    assert!(bitrate > 0, "bitrate must be non-zero");
    let on_wire = (payload + L2_OVERHEAD_BYTES).max(MIN_FRAME_BYTES) + GAP_BYTES;
    SimDuration::from_nanos(on_wire as u64 * 8 * 1_000_000_000 / bitrate)
}

/// Nanoseconds per on-wire byte when the byte time is integral at
/// `bitrate` (every standard Ethernet rate), else 0. Lets ports replace
/// the per-frame `u64` division in [`ethernet_frame_time`] with one
/// multiplication on the hot path.
fn ns_per_byte(bitrate: u64) -> u64 {
    if 8_000_000_000 % bitrate == 0 {
        8_000_000_000 / bitrate
    } else {
        0
    }
}

/// [`ethernet_frame_time`] with the division pre-resolved: `npb` is this
/// port's cached [`ns_per_byte`] (0 = fall back to the dividing path).
#[inline]
fn frame_time_cached(payload: usize, bitrate: u64, npb: u64) -> SimDuration {
    if npb != 0 {
        let on_wire = (payload + L2_OVERHEAD_BYTES).max(MIN_FRAME_BYTES) + GAP_BYTES;
        SimDuration::from_nanos(on_wire as u64 * npb)
    } else {
        ethernet_frame_time(payload, bitrate)
    }
}

/// Plain FIFO egress port — the no-isolation baseline.
#[derive(Debug)]
pub struct FifoPort {
    bitrate: u64,
    ns_per_byte: u64,
    queue: VecDeque<(SimTime, Frame)>,
}

impl FifoPort {
    /// Creates a FIFO port at `bitrate` bit/s.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is zero.
    pub fn new(bitrate: u64) -> Self {
        assert!(bitrate > 0, "bitrate must be non-zero");
        FifoPort {
            bitrate,
            ns_per_byte: ns_per_byte(bitrate),
            queue: VecDeque::new(),
        }
    }
}

impl Arbiter for FifoPort {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        self.queue.push_back((now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        match self.queue.pop_front() {
            Some((arrival, frame)) => {
                let end = now + frame_time_cached(frame.payload, self.bitrate, self.ns_per_byte);
                Grant::Tx(Transmission {
                    frame,
                    arrival,
                    start: now,
                    end,
                })
            }
            None => Grant::Idle,
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Strict-priority (802.1p) egress port: of all queued frames the one with
/// the numerically lowest `priority` transmits next; ties break FIFO.
/// Non-preemptive, so urgent traffic still suffers up to one frame of
/// blocking from an in-flight bulk frame.
///
/// Selection stays a linear scan on purpose: in `dynbench` `adas_cycle`
/// this queue is 1–2 frames deep, and a `BinaryHeap` queue made the unit
/// about 5 µs slower.
#[derive(Debug)]
pub struct StrictPriorityPort {
    bitrate: u64,
    ns_per_byte: u64,
    queue: Vec<(u32, u64, SimTime, Frame)>,
    seq: u64,
}

impl StrictPriorityPort {
    /// Creates a strict-priority port at `bitrate` bit/s.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is zero.
    pub fn new(bitrate: u64) -> Self {
        assert!(bitrate > 0, "bitrate must be non-zero");
        StrictPriorityPort {
            bitrate,
            ns_per_byte: ns_per_byte(bitrate),
            queue: Vec::new(),
            seq: 0,
        }
    }
}

impl Arbiter for StrictPriorityPort {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push((frame.priority, seq, now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        // A one-deep queue (the uncongested fast path) needs no
        // transmission-selection scan at all.
        let best = match self.queue.len() {
            0 => return Grant::Idle,
            1 => 0,
            _ => self
                .queue
                .iter()
                .enumerate()
                .min_by_key(|(_, (p, s, _, _))| (*p, *s))
                .map(|(i, _)| i)
                .expect("non-empty queue has a minimum"),
        };
        let (_, _, arrival, frame) = self.queue.swap_remove(best);
        let end = now + frame_time_cached(frame.payload, self.bitrate, self.ns_per_byte);
        Grant::Tx(Transmission {
            frame,
            arrival,
            start: now,
            end,
        })
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, TxEvent};
    use dynplat_common::MessageId;

    const MBIT100: u64 = 100_000_000;

    #[test]
    fn frame_time_includes_overheads() {
        // 1500 B payload: (1500+22+20)*8 bits / 100 Mbit/s = 123.36 us.
        assert_eq!(
            ethernet_frame_time(1500, MBIT100),
            SimDuration::from_nanos(1542 * 80)
        );
        // Tiny payload is padded to the 64-byte minimum.
        assert_eq!(
            ethernet_frame_time(1, MBIT100),
            ethernet_frame_time(42, MBIT100)
        );
    }

    #[test]
    fn fifo_keeps_arrival_order_regardless_of_priority() {
        let mut port = FifoPort::new(MBIT100);
        let events = vec![
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(1), 1500).with_priority(7),
            },
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(2), 64).with_priority(0),
            },
        ];
        let done = simulate(&mut port, events);
        assert_eq!(done[0].frame.id, MessageId(1), "FIFO ignores priority");
        assert!(done[1].start >= done[0].end);
    }

    #[test]
    fn strict_priority_preempts_queue_order() {
        let mut port = StrictPriorityPort::new(MBIT100);
        let events = vec![
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(1), 1500).with_priority(7),
            },
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(2), 1500).with_priority(7),
            },
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(3), 64).with_priority(0),
            },
        ];
        let done = simulate(&mut port, events);
        // All three contend at t=0: the urgent frame goes first, bulk
        // frames follow in FIFO order.
        assert_eq!(done[0].frame.id, MessageId(3));
        assert_eq!(done[1].frame.id, MessageId(1));
        assert_eq!(done[2].frame.id, MessageId(2));
    }

    #[test]
    fn urgent_latency_bounded_by_one_frame_under_strict_priority() {
        // Saturate with bulk, inject urgent mid-stream.
        let mut port = StrictPriorityPort::new(MBIT100);
        let bulk_time = ethernet_frame_time(1500, MBIT100);
        let mut events: Vec<TxEvent> = (0..50)
            .map(|i| TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(100 + i), 1500).with_priority(7),
            })
            .collect();
        let urgent_at = SimTime::ZERO + bulk_time * 10 + SimDuration::from_micros(3);
        events.push(TxEvent {
            arrival: urgent_at,
            frame: Frame::new(MessageId(1), 64).with_priority(0),
        });
        let done = simulate(&mut port, events);
        let urgent = done.iter().find(|t| t.frame.id == MessageId(1)).unwrap();
        let worst = bulk_time + ethernet_frame_time(64, MBIT100);
        assert!(
            urgent.latency() <= worst,
            "urgent latency {} exceeds blocking bound {}",
            urgent.latency(),
            worst
        );
    }

    #[test]
    fn fifo_urgent_latency_grows_with_backlog() {
        let mut port = FifoPort::new(MBIT100);
        let mut events: Vec<TxEvent> = (0..50)
            .map(|i| TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(100 + i), 1500).with_priority(7),
            })
            .collect();
        events.push(TxEvent {
            arrival: SimTime::ZERO,
            frame: Frame::new(MessageId(1), 64).with_priority(0),
        });
        let done = simulate(&mut port, events);
        let urgent = done.iter().find(|t| t.frame.id == MessageId(1)).unwrap();
        let bulk_time = ethernet_frame_time(1500, MBIT100);
        assert!(
            urgent.latency() >= bulk_time * 50,
            "FIFO should make urgent wait out the backlog"
        );
    }
}
