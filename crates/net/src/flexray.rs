//! FlexRay model.
//!
//! FlexRay (§5.3 of the paper) "offers a combination of time-triggered
//! deterministic communication and priority-based communication, which can
//! be used to partition and isolate deterministic and non-deterministic
//! applications": each communication cycle has a **static segment** of
//! equal-length TDMA slots owned by specific messages, followed by a
//! **dynamic segment** of minislots arbitrated by frame identifier.
//!
//! [`FlexRayBus`] implements the [`Arbiter`] protocol: statically assigned
//! frames are granted their next slot occurrence; unassigned frames contend
//! for the dynamic segment in priority (identifier) order. The dynamic-
//! segment model is a faithful simplification of FTDMA: one frame per grant,
//! starting at the next dynamic segment with free capacity, in priority
//! order, never crossing the segment end (`pLatestTx` semantics).

use crate::{Arbiter, Frame, Grant, Transmission};
use dynplat_common::time::{SimDuration, SimTime};
use dynplat_common::MessageId;
use std::collections::BTreeMap;

/// Static configuration of a FlexRay cluster (single channel).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlexRayConfig {
    /// Raw bit rate in bit/s (canonically 10 Mbit/s).
    pub bitrate: u64,
    /// Number of static slots per cycle.
    pub static_slots: u16,
    /// Duration of each static slot.
    pub static_slot_len: SimDuration,
    /// Number of minislots in the dynamic segment.
    pub minislots: u16,
    /// Duration of one minislot.
    pub minislot_len: SimDuration,
}

impl FlexRayConfig {
    /// A representative 10 Mbit/s configuration: 5 ms cycle with 60 static
    /// slots of 50 µs and 40 minislots of 50 µs.
    pub fn typical_10mbit() -> Self {
        FlexRayConfig {
            bitrate: 10_000_000,
            static_slots: 60,
            static_slot_len: SimDuration::from_micros(50),
            minislots: 40,
            minislot_len: SimDuration::from_micros(50),
        }
    }

    /// Total cycle duration.
    pub fn cycle(&self) -> SimDuration {
        self.static_slot_len * u64::from(self.static_slots)
            + self.minislot_len * u64::from(self.minislots)
    }

    /// Offset of the dynamic segment from cycle start.
    pub fn dynamic_offset(&self) -> SimDuration {
        self.static_slot_len * u64::from(self.static_slots)
    }

    /// Start time of static slot `slot` (0-based) in the cycle containing or
    /// following `now`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= static_slots`.
    pub fn next_slot_start(&self, now: SimTime, slot: u16) -> SimTime {
        assert!(slot < self.static_slots, "slot index out of range");
        let cycle = self.cycle();
        let offset = self.static_slot_len * u64::from(slot);
        let cycle_start = now - (now % cycle);
        let candidate = cycle_start + offset;
        if candidate >= now {
            candidate
        } else {
            candidate + cycle
        }
    }

    /// Wire time of `payload` bytes plus frame overhead (~9 bytes header +
    /// trailer) at this bitrate.
    pub fn frame_time(&self, payload: usize) -> SimDuration {
        let bits = (payload as u64 + 9) * 8;
        SimDuration::from_nanos(bits * 1_000_000_000 / self.bitrate)
    }
}

/// Assignment of messages to static slots.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SlotAssignment {
    slots: BTreeMap<MessageId, u16>,
}

impl SlotAssignment {
    /// Creates an empty assignment (all traffic goes to the dynamic segment).
    pub fn new() -> Self {
        SlotAssignment::default()
    }

    /// Assigns `message` to static `slot`.
    ///
    /// # Errors
    ///
    /// Returns the previous owner if the slot is already taken.
    pub fn assign(&mut self, message: MessageId, slot: u16) -> Result<(), MessageId> {
        if let Some((&owner, _)) = self.slots.iter().find(|(_, &s)| s == slot) {
            if owner != message {
                return Err(owner);
            }
        }
        self.slots.insert(message, slot);
        Ok(())
    }

    /// The slot of `message`, if statically assigned.
    pub fn slot_of(&self, message: MessageId) -> Option<u16> {
        self.slots.get(&message).copied()
    }
}

/// A FlexRay channel implementing the [`Arbiter`] protocol.
#[derive(Clone, Debug)]
pub struct FlexRayBus {
    config: FlexRayConfig,
    assignment: SlotAssignment,
    queue: Vec<(u32, u64, SimTime, Frame)>,
    seq: u64,
    /// Cycle index whose dynamic segment has already been consumed up to
    /// `dyn_used` minislots.
    dyn_cycle: u64,
    dyn_used: u64,
}

impl FlexRayBus {
    /// Creates a bus with the given configuration and static assignment.
    pub fn new(config: FlexRayConfig, assignment: SlotAssignment) -> Self {
        FlexRayBus {
            config,
            assignment,
            queue: Vec::new(),
            seq: 0,
            dyn_cycle: 0,
            dyn_used: 0,
        }
    }

    fn earliest_start(&self, now: SimTime, frame: &Frame) -> Option<SimTime> {
        match self.assignment.slot_of(frame.id) {
            Some(slot) => Some(self.config.next_slot_start(now, slot)),
            None => {
                // Dynamic segment: frame occupies ceil(tx / minislot) minislots.
                let tx = self.config.frame_time(frame.payload);
                let need = tx.as_nanos().div_ceil(self.config.minislot_len.as_nanos());
                if need > u64::from(self.config.minislots) {
                    return None; // can never fit the dynamic segment
                }
                let cycle = self.config.cycle();
                let mut k = now.as_nanos() / cycle.as_nanos();
                loop {
                    let used = if k == self.dyn_cycle {
                        self.dyn_used
                    } else {
                        0
                    };
                    if used + need <= u64::from(self.config.minislots) {
                        let seg_start = SimTime::from_nanos(k * cycle.as_nanos())
                            + self.config.dynamic_offset()
                            + self.config.minislot_len * used;
                        if seg_start >= now {
                            return Some(seg_start);
                        }
                        // Segment position already passed within this cycle.
                        if now <= SimTime::from_nanos(k * cycle.as_nanos()) + cycle
                            && seg_start + self.config.minislot_len * need > now
                            && now >= seg_start
                        {
                            // We are inside the usable window; start now,
                            // aligned to the next minislot boundary.
                            let seg0 = SimTime::from_nanos(k * cycle.as_nanos())
                                + self.config.dynamic_offset();
                            let into = now.saturating_since(seg0);
                            let slot_idx = into
                                .as_nanos()
                                .div_ceil(self.config.minislot_len.as_nanos());
                            if slot_idx + need <= u64::from(self.config.minislots) {
                                return Some(seg0 + self.config.minislot_len * slot_idx);
                            }
                        }
                    }
                    k += 1;
                }
            }
        }
    }
}

impl Arbiter for FlexRayBus {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push((frame.priority, seq, now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        // One pass: drop frames that can never be served, and find the
        // frame that can start earliest; ties break by priority, then FIFO
        // order. Removal keeps the queue order, so an index found earlier
        // in the pass stays valid.
        let mut best: Option<((SimTime, u32, u64), usize)> = None;
        let mut i = 0;
        while i < self.queue.len() {
            let (prio, seq, _, ref frame) = self.queue[i];
            match self.earliest_start(now, frame) {
                Some(start) => {
                    let key = (start, prio, seq);
                    if best.is_none_or(|(b, _)| key < b) {
                        best = Some((key, i));
                    }
                    i += 1;
                }
                None => {
                    self.queue.remove(i);
                }
            }
        }
        let Some(((start, _, _), idx)) = best else {
            return Grant::Idle;
        };
        if start > now {
            return Grant::WaitUntil(start);
        }
        let (_, _, arrival, frame) = self.queue.swap_remove(idx);
        let tx = self.config.frame_time(frame.payload);
        // Book dynamic-segment capacity.
        if self.assignment.slot_of(frame.id).is_none() {
            let cycle = self.config.cycle();
            let k = start.as_nanos() / cycle.as_nanos();
            let seg0 = SimTime::from_nanos(k * cycle.as_nanos()) + self.config.dynamic_offset();
            let first = start.saturating_since(seg0) / self.config.minislot_len;
            let need = tx.as_nanos().div_ceil(self.config.minislot_len.as_nanos());
            if k != self.dyn_cycle {
                self.dyn_cycle = k;
                self.dyn_used = 0;
            }
            self.dyn_used = self.dyn_used.max(first + need);
        }
        Grant::Tx(Transmission {
            frame,
            arrival,
            start,
            end: start + tx,
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

    fn cfg() -> FlexRayConfig {
        FlexRayConfig::typical_10mbit()
    }

    #[test]
    fn cycle_arithmetic() {
        let c = cfg();
        assert_eq!(c.cycle(), SimDuration::from_millis(5));
        assert_eq!(c.dynamic_offset(), SimDuration::from_millis(3));
    }

    #[test]
    fn next_slot_start_wraps_to_next_cycle() {
        let c = cfg();
        // Slot 2 starts at 100 us into each 5 ms cycle.
        assert_eq!(
            c.next_slot_start(SimTime::ZERO, 2),
            SimTime::from_micros(100)
        );
        assert_eq!(
            c.next_slot_start(SimTime::from_micros(101), 2),
            SimTime::from_micros(100) + SimDuration::from_millis(5)
        );
    }

    #[test]
    fn slot_assignment_rejects_double_booking() {
        let mut a = SlotAssignment::new();
        a.assign(MessageId(1), 3).unwrap();
        assert_eq!(a.assign(MessageId(2), 3), Err(MessageId(1)));
        // Re-assigning the same message is fine.
        a.assign(MessageId(1), 3).unwrap();
        assert_eq!(a.slot_of(MessageId(1)), Some(3));
        assert_eq!(a.slots.len(), 1);
    }

    #[test]
    fn static_frame_transmits_in_its_slot() {
        let mut assignment = SlotAssignment::new();
        assignment.assign(MessageId(1), 4).unwrap();
        let mut bus = FlexRayBus::new(cfg(), assignment);
        let done = simulate(
            &mut bus,
            vec![TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(1), 16),
            }],
        );
        // Slot 4 starts at 200 us.
        assert_eq!(done[0].start, SimTime::from_micros(200));
    }

    #[test]
    fn static_isolation_from_dynamic_load() {
        // A statically assigned frame keeps its slot even under heavy
        // dynamic-segment load — the §5.3 partitioning argument.
        let mut assignment = SlotAssignment::new();
        assignment.assign(MessageId(1), 0).unwrap();
        let mut bus = FlexRayBus::new(cfg(), assignment);
        let mut events: Vec<TxEvent> = (0..30)
            .map(|i| TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(100 + i), 200).with_priority(100 + i),
            })
            .collect();
        events.push(TxEvent {
            arrival: SimTime::from_millis(4), // after this cycle's slot 0
            frame: Frame::new(MessageId(1), 16).with_priority(1),
        });
        let done = simulate(&mut bus, events);
        let stat = done.iter().find(|t| t.frame.id == MessageId(1)).unwrap();
        // Next slot-0 occurrence after 4 ms is 5 ms.
        assert_eq!(stat.start, SimTime::from_millis(5));
    }

    #[test]
    fn dynamic_frames_cannot_cross_segment_end() {
        let c = cfg();
        let mut bus = FlexRayBus::new(c.clone(), SlotAssignment::new());
        let events: Vec<TxEvent> = (0..60)
            .map(|i| TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(i), 500).with_priority(i),
            })
            .collect();
        let done = simulate(&mut bus, events);
        assert_eq!(done.len(), 60, "all frames eventually transmit");
        for tx in &done {
            let into_cycle = tx.start % c.cycle();
            assert!(
                into_cycle >= c.dynamic_offset(),
                "dynamic frame in static segment"
            );
            let end_into = tx.end % c.cycle();
            assert!(
                end_into.is_zero() || end_into <= c.cycle(),
                "frame crosses cycle boundary"
            );
        }
        // Transmissions never overlap.
        let mut sorted = done.clone();
        sorted.sort_by_key(|t| t.start);
        for pair in sorted.windows(2) {
            assert!(pair[1].start >= pair[0].end);
        }
    }

    #[test]
    fn lower_id_dynamic_frame_goes_first() {
        let mut bus = FlexRayBus::new(cfg(), SlotAssignment::new());
        let done = simulate(
            &mut bus,
            vec![
                TxEvent {
                    arrival: SimTime::ZERO,
                    frame: Frame::new(MessageId(9), 32).with_priority(9),
                },
                TxEvent {
                    arrival: SimTime::ZERO,
                    frame: Frame::new(MessageId(2), 32).with_priority(2),
                },
            ],
        );
        assert_eq!(
            done[0].frame.id,
            MessageId(2),
            "lower id wins minislot order"
        );
        assert!(done[1].start >= done[0].end);
    }

    #[test]
    fn oversized_dynamic_frame_is_dropped() {
        let c = cfg();
        // 40 minislots * 50us at 10 Mbit/s = 2 ms => max ~2500 bytes; 5 KiB cannot fit.
        let mut bus = FlexRayBus::new(c, SlotAssignment::new());
        let done = simulate(
            &mut bus,
            vec![TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(1), 5000),
            }],
        );
        assert!(done.is_empty());
        assert_eq!(bus.pending(), 0);
    }
}
