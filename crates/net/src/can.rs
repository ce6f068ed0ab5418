//! Controller Area Network model.
//!
//! CAN is the incumbent automotive bus the paper contrasts with Ethernet.
//! Two faces are provided:
//!
//! * [`CanArbiter`] — an online state machine with identifier-based,
//!   non-preemptive priority arbitration (lower identifier wins the bus);
//! * [`CanAnalysis`] — the classic worst-case response-time analysis for
//!   periodic CAN message sets (blocking by at most one lower-priority
//!   frame plus interference from higher-priority frames), which the
//!   verification engine uses at integration time.
//!
//! Frame timing uses the standard worst-case bit-stuffing bound for an
//! 11-bit-identifier data frame: `8·s + g + 13 + ⌊(g + 8·s − 1)/4⌋` bits on
//! the wire with `g = 34` exposed control bits, i.e. 135 bit times for an
//! 8-byte frame.

use crate::analysis::{fixed_priority_wcrts, utilization, TimedFlow, Wcrt};
use crate::{Arbiter, Frame, Grant, Transmission};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::MessageId;

const EXPOSED_CONTROL_BITS: u64 = 34;

/// Worst-case wire time of a CAN data frame with `payload` bytes (0..=8) at
/// `bitrate` bit/s, including worst-case stuff bits and the 3-bit
/// interframe space.
///
/// # Panics
///
/// Panics if `payload > 8` or `bitrate == 0`.
pub fn can_frame_time(payload: usize, bitrate: u64) -> SimDuration {
    assert!(payload <= 8, "classic CAN carries at most 8 payload bytes");
    assert!(bitrate > 0, "bitrate must be non-zero");
    let s = payload as u64;
    let bits = 8 * s + EXPOSED_CONTROL_BITS + 13 + (EXPOSED_CONTROL_BITS + 8 * s - 1) / 4;
    SimDuration::from_nanos(bits * 1_000_000_000 / bitrate)
}

/// Online CAN bus: non-preemptive, lowest-identifier-first arbitration.
///
/// Arbitration stays a linear scan on purpose: in `dynbench` `adas_cycle`
/// this queue is 1–2 frames deep, and a `BinaryHeap` queue made the unit
/// about 5 µs slower.
#[derive(Debug)]
pub struct CanArbiter {
    bitrate: u64,
    /// Cached ns per bit when integral at `bitrate` (all standard CAN
    /// rates), else 0 — replaces the per-frame division of
    /// [`can_frame_time`] with one multiplication on the poll path.
    ns_per_bit: u64,
    // Arbitration picks the minimum (priority, fifo seq) at poll time.
    queue: Vec<(u32, u64, SimTime, Frame)>,
    seq: u64,
}

impl CanArbiter {
    /// Creates a CAN bus at `bitrate` bit/s.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is zero.
    pub fn new(bitrate: u64) -> Self {
        assert!(bitrate > 0, "bitrate must be non-zero");
        CanArbiter {
            bitrate,
            ns_per_bit: if 1_000_000_000 % bitrate == 0 {
                1_000_000_000 / bitrate
            } else {
                0
            },
            queue: Vec::new(),
            seq: 0,
        }
    }
}

impl Arbiter for CanArbiter {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push((frame.priority, seq, now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        // Lowest (priority, seq) wins arbitration. A one-deep queue (the
        // uncongested fast path) needs no arbitration scan at all.
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
        let wire = if self.ns_per_bit != 0 {
            let s = frame.payload as u64;
            let bits = 8 * s + EXPOSED_CONTROL_BITS + 13 + (EXPOSED_CONTROL_BITS + 8 * s - 1) / 4;
            SimDuration::from_nanos(bits * self.ns_per_bit)
        } else {
            can_frame_time(frame.payload, self.bitrate)
        };
        let end = now + wire;
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

/// A periodic CAN message for response-time analysis.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CanMessageSpec {
    /// Flow identifier (= arbitration id; lower is more urgent).
    pub id: MessageId,
    /// Payload bytes, 0..=8.
    pub payload: usize,
    /// Activation period.
    pub period: SimDuration,
}

impl CanMessageSpec {
    /// Creates a periodic message.
    pub fn periodic(id: MessageId, payload: usize, period: SimDuration) -> Self {
        CanMessageSpec {
            id,
            payload,
            period,
        }
    }
}

/// Worst-case response-time analysis for a CAN message set.
#[derive(Clone, Debug)]
pub struct CanAnalysis {
    bitrate: u64,
    messages: Vec<CanMessageSpec>,
}

impl CanAnalysis {
    /// Creates an analysis context over `messages` on a bus at `bitrate`.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is zero or any period is zero.
    pub fn new(bitrate: u64, messages: Vec<CanMessageSpec>) -> Self {
        assert!(bitrate > 0, "bitrate must be non-zero");
        assert!(
            messages.iter().all(|m| !m.period.is_zero()),
            "periods must be non-zero"
        );
        CanAnalysis { bitrate, messages }
    }

    fn timed(&self) -> Vec<TimedFlow> {
        self.messages
            .iter()
            .map(|m| (m.id, can_frame_time(m.payload, self.bitrate), m.period))
            .collect()
    }

    /// Bus utilization of the message set (1.0 = saturated).
    pub fn utilization(&self) -> f64 {
        utilization(&self.timed())
    }

    /// Computes the worst-case response time of every message.
    ///
    /// Classic analysis with `ε = τ_bit`: `B_m` is the longest frame of a
    /// higher id (non-preemptive blocking), and `hp(m)` the messages of a
    /// lower id.
    pub fn response_times(&self) -> Vec<Wcrt> {
        let m = &self.messages;
        fixed_priority_wcrts(
            &self.timed(),
            SimDuration::from_nanos(1_000_000_000 / self.bitrate),
            |i, k| m[k].id.raw() > m[i].id.raw(),
            |i, k| m[k].id.raw() < m[i].id.raw(),
        )
    }

    /// `true` if every message has a finite WCRT not exceeding its period.
    pub fn is_schedulable(&self) -> bool {
        self.response_times().iter().all(|r| r.wcrt.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, TxEvent};

    const KBIT500: u64 = 500_000;

    #[test]
    fn frame_time_matches_standard_bound() {
        // 8-byte frame: 135 bits at 500 kbit/s = 270 us.
        assert_eq!(can_frame_time(8, KBIT500), SimDuration::from_micros(270));
        // 0-byte frame: 34 + 13 + 8 = 55 bits = 110 us.
        assert_eq!(can_frame_time(0, KBIT500), SimDuration::from_micros(110));
    }

    #[test]
    #[should_panic(expected = "at most 8 payload bytes")]
    fn oversized_payload_panics() {
        can_frame_time(9, KBIT500);
    }

    #[test]
    fn lower_id_wins_contention() {
        let mut bus = CanArbiter::new(KBIT500);
        let events = vec![
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(0x200), 8),
            },
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(0x100), 8),
            },
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(0x001), 8),
            },
        ];
        let done = simulate(&mut bus, events);
        // All three contend at t=0: pure priority order.
        assert_eq!(done[0].frame.id, MessageId(0x001));
        assert_eq!(done[1].frame.id, MessageId(0x100));
        assert_eq!(done[2].frame.id, MessageId(0x200));
    }

    #[test]
    fn non_preemptive_blocking() {
        let mut bus = CanArbiter::new(KBIT500);
        let c = can_frame_time(8, KBIT500);
        let events = vec![
            TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(0x700), 8),
            },
            // Urgent frame arrives mid-transmission; must wait for completion.
            TxEvent {
                arrival: SimTime::ZERO + c / 2,
                frame: Frame::new(MessageId(0x001), 8),
            },
        ];
        let done = simulate(&mut bus, events);
        assert_eq!(done[0].frame.id, MessageId(0x700));
        assert_eq!(done[1].start, done[0].end);
        assert_eq!(done[1].end, done[0].end + c);
    }

    #[test]
    fn back_to_back_transmissions_do_not_overlap() {
        let mut bus = CanArbiter::new(KBIT500);
        let events: Vec<TxEvent> = (0..20)
            .map(|i| TxEvent {
                arrival: SimTime::from_micros(i * 10),
                frame: Frame::new(MessageId(i as u32), (i % 9) as usize),
            })
            .collect();
        let done = simulate(&mut bus, events);
        assert_eq!(done.len(), 20);
        for pair in done.windows(2) {
            assert!(pair[1].start >= pair[0].end, "transmissions overlap");
        }
    }

    #[test]
    fn wcrt_of_highest_priority_is_blocking_plus_own_time() {
        let msgs = vec![
            CanMessageSpec::periodic(MessageId(1), 8, SimDuration::from_millis(10)),
            CanMessageSpec::periodic(MessageId(2), 8, SimDuration::from_millis(10)),
        ];
        let analysis = CanAnalysis::new(KBIT500, msgs);
        let rts = analysis.response_times();
        let c = can_frame_time(8, KBIT500);
        // Highest priority: blocked by one lower frame, then transmits.
        assert_eq!(rts[0].wcrt, Some(c + c));
        // Lowest: no blocking, one interference hit from msg 1.
        assert_eq!(rts[1].wcrt, Some(c + c));
        assert!(analysis.is_schedulable());
    }

    #[test]
    fn overload_is_flagged_unschedulable() {
        // 20 8-byte messages at 2 ms each on 500 kbit/s: U = 20*270us/2ms = 2.7.
        let msgs = (0..20)
            .map(|i| CanMessageSpec::periodic(MessageId(i), 8, SimDuration::from_millis(2)))
            .collect();
        let analysis = CanAnalysis::new(KBIT500, msgs);
        assert!(analysis.utilization() > 1.0);
        assert!(!analysis.is_schedulable());
    }

    #[test]
    fn analysis_bounds_hold_in_simulation() {
        // Synchronous release (critical instant) must not beat the analysis.
        let msgs = vec![
            CanMessageSpec::periodic(MessageId(1), 4, SimDuration::from_millis(5)),
            CanMessageSpec::periodic(MessageId(2), 8, SimDuration::from_millis(10)),
            CanMessageSpec::periodic(MessageId(3), 8, SimDuration::from_millis(20)),
        ];
        let analysis = CanAnalysis::new(KBIT500, msgs.clone());
        let rts = analysis.response_times();

        let mut bus = CanArbiter::new(KBIT500);
        let horizon = SimDuration::from_millis(40);
        let mut events = Vec::new();
        for m in &msgs {
            let mut t = SimTime::ZERO;
            while t < SimTime::ZERO + horizon {
                events.push(TxEvent {
                    arrival: t,
                    frame: Frame::new(m.id, m.payload).with_priority(m.id.raw()),
                });
                t += m.period;
            }
        }
        let done = simulate(&mut bus, events);
        for tx in done {
            let bound = rts
                .iter()
                .find(|r| r.id == tx.frame.id)
                .and_then(|r| r.wcrt)
                .expect("schedulable");
            assert!(
                tx.latency() <= bound,
                "observed {} exceeds analytic bound {} for {}",
                tx.latency(),
                bound,
                tx.frame.id
            );
        }
    }

    #[test]
    fn utilization_formula() {
        let msgs = vec![CanMessageSpec::periodic(
            MessageId(1),
            8,
            SimDuration::from_millis(1),
        )];
        let analysis = CanAnalysis::new(KBIT500, msgs);
        let u = analysis.utilization();
        assert!((u - 0.27).abs() < 1e-9, "got {u}");
    }
}
