//! IEEE 802.1Qbv time-aware shaping.
//!
//! The paper's §5.3 points at TSN as the Ethernet answer to mixed-criticality
//! communication: critical traffic gets exclusive time-triggered windows,
//! best-effort traffic uses the remaining windows with priority selection,
//! and "transmission selection on switches will prevent its interference on
//! deterministic communication". [`TsnGatedPort`] implements one egress port
//! with a repeating [`GateControlList`] and guard-band semantics: a frame
//! may only start if it finishes before its window closes.
//!
//! Arbitration allocates nothing in steady state, and a poll costs one
//! fit per distinct queued `(class, payload, priority)`, not one per frame.
//! The list keeps its windows sorted by offset (once, at construction), so
//! [`GateControlList::earliest_fit`] is a scan over at most twice the
//! window count. The port queues frames in FIFO groups that share
//! `(class, payload, priority)` — the MTU segments of one message share
//! all three. At one poll instant every frame of a group has the same fit,
//! and sequence numbers only grow, so the group's front is its lowest
//! `(priority, seq)`: a poll visits group fronts only. A burst of n
//! segments therefore costs O(n) polls of O(groups) each. Drained groups
//! keep their capacity and are reused by the next new key.

use crate::ethernet::ethernet_frame_time;
use crate::{Arbiter, Frame, Grant, TrafficClass, Transmission};
use dynplat_common::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// One open-gate window within the gating cycle.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateWindow {
    /// Traffic class whose gate is open.
    pub class: TrafficClass,
    /// Window start offset from cycle start.
    pub offset: SimDuration,
    /// Window length.
    pub length: SimDuration,
}

impl GateWindow {
    /// Creates a window.
    pub fn new(class: TrafficClass, offset: SimDuration, length: SimDuration) -> Self {
        GateWindow {
            class,
            offset,
            length,
        }
    }
}

/// Errors raised when validating a gate control list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GclError {
    /// The cycle duration is zero.
    ZeroCycle,
    /// A window extends past the end of the cycle.
    WindowBeyondCycle(usize),
    /// Two windows overlap in time.
    OverlappingWindows(usize, usize),
    /// A traffic class has no window at all.
    ClassUnserved(TrafficClass),
}

impl std::fmt::Display for GclError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GclError::ZeroCycle => write!(f, "gating cycle must be non-zero"),
            GclError::WindowBeyondCycle(i) => write!(f, "window {i} extends beyond the cycle"),
            GclError::OverlappingWindows(a, b) => write!(f, "windows {a} and {b} overlap"),
            GclError::ClassUnserved(c) => write!(f, "traffic class {c:?} has no gate window"),
        }
    }
}

impl std::error::Error for GclError {}

/// A repeating gate control list: which class may transmit when.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GateControlList {
    cycle: SimDuration,
    windows: Vec<GateWindow>,
    /// `windows` stably sorted by offset: the scan order of `earliest_fit`.
    by_offset: Vec<GateWindow>,
    /// Longest window per class (indexed by `TrafficClass as usize`), or
    /// `None` for a class without a window.
    longest: [Option<SimDuration>; 3],
}

impl GateControlList {
    /// Creates and validates a gate control list.
    ///
    /// # Errors
    ///
    /// Returns a [`GclError`] if the cycle is zero, a window leaves the
    /// cycle, or windows overlap. (A class without any window is legal here:
    /// its frames are simply never granted.)
    pub fn new(cycle: SimDuration, windows: Vec<GateWindow>) -> Result<Self, GclError> {
        if cycle.is_zero() {
            return Err(GclError::ZeroCycle);
        }
        for (i, w) in windows.iter().enumerate() {
            if w.offset + w.length > cycle {
                return Err(GclError::WindowBeyondCycle(i));
            }
        }
        let mut order: Vec<usize> = (0..windows.len()).collect();
        order.sort_by_key(|&i| windows[i].offset);
        for pair in order.windows(2) {
            let (a, b) = (&windows[pair[0]], &windows[pair[1]]);
            if a.offset + a.length > b.offset {
                return Err(GclError::OverlappingWindows(pair[0], pair[1]));
            }
        }
        let by_offset = order.iter().map(|&i| windows[i].clone()).collect();
        let mut longest = [None; 3];
        for w in &windows {
            let slot: &mut Option<SimDuration> = &mut longest[w.class as usize];
            *slot = Some(slot.map_or(w.length, |l| l.max(w.length)));
        }
        Ok(GateControlList {
            cycle,
            windows,
            by_offset,
            longest,
        })
    }

    /// The canonical mixed-criticality list of the paper's discussion: an
    /// exclusive critical window of `critical_share` of the cycle up front,
    /// the rest shared by stream and best-effort traffic.
    ///
    /// # Panics
    ///
    /// Panics if `critical_share` is not within `(0, 1)`.
    pub fn mixed_criticality(cycle: SimDuration, critical_share: f64) -> Self {
        assert!(
            critical_share > 0.0 && critical_share < 1.0,
            "critical share must be in (0, 1)"
        );
        let crit = cycle.mul_f64(critical_share);
        let rest = cycle - crit;
        GateControlList::new(
            cycle,
            vec![
                GateWindow::new(TrafficClass::Critical, SimDuration::ZERO, crit),
                GateWindow::new(TrafficClass::Stream, crit, rest / 2),
                GateWindow::new(TrafficClass::BestEffort, crit + rest / 2, rest - rest / 2),
            ],
        )
        .expect("constructed list is valid")
    }

    /// The gating cycle duration.
    pub fn cycle(&self) -> SimDuration {
        self.cycle
    }

    /// The configured windows.
    pub fn windows(&self) -> &[GateWindow] {
        &self.windows
    }

    /// Earliest instant `t >= now` at which a transmission of `class`
    /// lasting `tx` may start such that it completes within its window
    /// (guard band). Returns `None` if no window of the class can ever fit
    /// a transmission of that length.
    ///
    /// O(1) for a transmission longer than every window of its class, else
    /// one scan of the offset-sorted windows of this cycle and the next:
    /// O(windows), no allocation.
    pub fn earliest_fit(
        &self,
        now: SimTime,
        class: TrafficClass,
        tx: SimDuration,
    ) -> Option<SimTime> {
        if self.longest[class as usize].is_none_or(|l| l < tx) {
            return None;
        }
        let cycle_start = now - (now % self.cycle);
        // Search this cycle and the next (a fitting window repeats each cycle).
        for k in 0..2u64 {
            let base = cycle_start + self.cycle * k;
            let candidates = self
                .by_offset
                .iter()
                .filter(|w| w.class == class && w.length >= tx);
            for w in candidates {
                let open = base + w.offset;
                let close = open + w.length;
                let start = if now > open { now } else { open };
                if start + tx <= close {
                    return Some(start);
                }
            }
        }
        None
    }
}

/// A TSN egress port: strict priority among currently-eligible frames,
/// gated by a [`GateControlList`].
///
/// Because grants only ever start at the poll instant, a closed gate never
/// pre-commits the port: an urgent critical frame arriving just before its
/// window opens wins over a best-effort frame queued earlier.
#[derive(Clone, Debug)]
pub struct TsnGatedPort {
    bitrate: u64,
    gcl: GateControlList,
    /// Queued frames grouped by key, one group per key. A drained group
    /// keeps its key and capacity until a new key claims it.
    groups: Vec<FrameGroup>,
    seq: u64,
    dropped: u64,
}

/// The queued frames that share `(class, payload, priority)`, in enqueue
/// order as `(seq, arrival, frame)`. At one poll instant they share one
/// `earliest_fit`, and their front has the group's lowest `(priority, seq)`.
#[derive(Clone, Debug)]
struct FrameGroup {
    key: (TrafficClass, usize, u32),
    frames: VecDeque<(u64, SimTime, Frame)>,
}

impl TsnGatedPort {
    /// Creates a gated port at `bitrate` bit/s with the given list.
    ///
    /// # Panics
    ///
    /// Panics if `bitrate` is zero.
    pub fn new(bitrate: u64, gcl: GateControlList) -> Self {
        assert!(bitrate > 0, "bitrate must be non-zero");
        TsnGatedPort {
            bitrate,
            gcl,
            groups: Vec::new(),
            seq: 0,
            dropped: 0,
        }
    }

    /// Frames discarded because no gate window can ever fit them.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Arbiter for TsnGatedPort {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        let key = (frame.class, frame.payload, frame.priority);
        let idx = self
            .groups
            .iter()
            .position(|g| g.key == key)
            .or_else(|| self.groups.iter().position(|g| g.frames.is_empty()))
            .unwrap_or_else(|| {
                self.groups.push(FrameGroup {
                    key,
                    frames: VecDeque::new(),
                });
                self.groups.len() - 1
            });
        let group = &mut self.groups[idx];
        group.key = key;
        group.frames.push_back((seq, now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        // One fit per non-empty group: drop a group no window can ever fit
        // (oversized). Among the rest: if any may start right now, grant
        // the front with the lowest (priority, seq); otherwise report the
        // earliest future start. `now_best` is (priority, seq, group index).
        let mut now_best: Option<(u32, u64, usize)> = None;
        let mut future_best: Option<SimTime> = None;
        for (idx, g) in self.groups.iter_mut().enumerate() {
            let Some(&(seq, _, _)) = g.frames.front() else {
                continue;
            };
            let (class, payload, priority) = g.key;
            let tx = ethernet_frame_time(payload, self.bitrate);
            match self.gcl.earliest_fit(now, class, tx) {
                Some(start) if start == now => {
                    if now_best.is_none_or(|(p, s, _)| (priority, seq) < (p, s)) {
                        now_best = Some((priority, seq, idx));
                    }
                }
                Some(start) => {
                    if future_best.is_none_or(|b| start < b) {
                        future_best = Some(start);
                    }
                }
                None => {
                    self.dropped += g.frames.len() as u64;
                    g.frames.clear();
                }
            }
        }
        if let Some((_, _, idx)) = now_best {
            let (_, arrival, frame) = self.groups[idx]
                .frames
                .pop_front()
                .expect("the granted group has a front frame");
            let tx = ethernet_frame_time(frame.payload, self.bitrate);
            return Grant::Tx(Transmission {
                frame,
                arrival,
                start: now,
                end: now + tx,
            });
        }
        match future_best {
            Some(t) => Grant::WaitUntil(t),
            None => Grant::Idle,
        }
    }

    fn pending(&self) -> usize {
        self.groups.iter().map(|g| g.frames.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{simulate, TxEvent};
    use dynplat_common::MessageId;

    const MBIT100: u64 = 100_000_000;

    fn ms(v: u64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn demo_gcl() -> GateControlList {
        // 1 ms cycle: 0-300 us critical, 300-650 stream, 650-1000 best effort.
        GateControlList::new(
            ms(1),
            vec![
                GateWindow::new(
                    TrafficClass::Critical,
                    SimDuration::ZERO,
                    SimDuration::from_micros(300),
                ),
                GateWindow::new(
                    TrafficClass::Stream,
                    SimDuration::from_micros(300),
                    SimDuration::from_micros(350),
                ),
                GateWindow::new(
                    TrafficClass::BestEffort,
                    SimDuration::from_micros(650),
                    SimDuration::from_micros(350),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn validation_rejects_bad_lists() {
        assert_eq!(
            GateControlList::new(SimDuration::ZERO, vec![]),
            Err(GclError::ZeroCycle)
        );
        let too_long = GateControlList::new(
            ms(1),
            vec![GateWindow::new(
                TrafficClass::Critical,
                SimDuration::from_micros(900),
                SimDuration::from_micros(200),
            )],
        );
        assert_eq!(too_long, Err(GclError::WindowBeyondCycle(0)));
        let overlap = GateControlList::new(
            ms(1),
            vec![
                GateWindow::new(
                    TrafficClass::Critical,
                    SimDuration::ZERO,
                    SimDuration::from_micros(500),
                ),
                GateWindow::new(
                    TrafficClass::Stream,
                    SimDuration::from_micros(400),
                    SimDuration::from_micros(100),
                ),
            ],
        );
        assert_eq!(overlap, Err(GclError::OverlappingWindows(0, 1)));
    }

    #[test]
    fn earliest_fit_honors_guard_band() {
        let gcl = demo_gcl();
        let tx = SimDuration::from_micros(100);
        // At t=250us, only 50us remain in the critical window: push to next cycle.
        let t = SimTime::from_micros(250);
        let start = gcl.earliest_fit(t, TrafficClass::Critical, tx).unwrap();
        assert_eq!(start, SimTime::from_millis(1));
        // At t=100us it fits immediately.
        let start = gcl
            .earliest_fit(SimTime::from_micros(100), TrafficClass::Critical, tx)
            .unwrap();
        assert_eq!(start, SimTime::from_micros(100));
    }

    #[test]
    fn oversized_frame_never_fits() {
        let gcl = demo_gcl();
        assert_eq!(
            gcl.earliest_fit(
                SimTime::ZERO,
                TrafficClass::Critical,
                SimDuration::from_micros(301)
            ),
            None
        );
    }

    #[test]
    fn critical_traffic_is_isolated_from_bulk() {
        let gcl = demo_gcl();
        let mut port = TsnGatedPort::new(MBIT100, gcl);
        // Saturating best-effort backlog plus one critical frame per cycle.
        let mut events: Vec<TxEvent> = (0..100)
            .map(|i| TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(1000 + i), 1500)
                    .with_priority(7)
                    .with_class(TrafficClass::BestEffort),
            })
            .collect();
        for k in 0..5u64 {
            events.push(TxEvent {
                arrival: SimTime::from_millis(k) + SimDuration::from_micros(10),
                frame: Frame::new(MessageId(k as u32), 200)
                    .with_priority(0)
                    .with_class(TrafficClass::Critical),
            });
        }
        let done = simulate(&mut port, events);
        for tx in done
            .iter()
            .filter(|t| t.frame.class == TrafficClass::Critical)
        {
            // Critical frame transmits within its own cycle's window.
            assert!(
                tx.latency() <= SimDuration::from_micros(300),
                "critical frame {} delayed {} — interference!",
                tx.frame.id,
                tx.latency()
            );
        }
        // Best-effort traffic still makes progress.
        assert!(
            done.iter()
                .filter(|t| t.frame.class == TrafficClass::BestEffort)
                .count()
                > 10
        );
    }

    #[test]
    fn best_effort_waits_for_its_window() {
        let gcl = demo_gcl();
        let mut port = TsnGatedPort::new(MBIT100, gcl);
        let done = simulate(
            &mut port,
            vec![TxEvent {
                arrival: SimTime::ZERO,
                frame: Frame::new(MessageId(1), 100).with_class(TrafficClass::BestEffort),
            }],
        );
        assert_eq!(done[0].start, SimTime::from_micros(650));
    }

    #[test]
    fn unfittable_frames_are_dropped_and_counted() {
        // Best-effort window is 350 us; a 16 KiB "frame" would need ~1.3 ms.
        let gcl = demo_gcl();
        let mut port = TsnGatedPort::new(MBIT100, gcl);
        let done = simulate(
            &mut port,
            vec![
                TxEvent {
                    arrival: SimTime::ZERO,
                    frame: Frame::new(MessageId(1), 16_000).with_class(TrafficClass::BestEffort),
                },
                TxEvent {
                    arrival: SimTime::ZERO,
                    frame: Frame::new(MessageId(2), 100).with_class(TrafficClass::BestEffort),
                },
            ],
        );
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].frame.id, MessageId(2));
        assert_eq!(port.dropped(), 1);
    }

    #[test]
    fn mixed_criticality_preset_is_valid_and_serves_all() {
        let gcl = GateControlList::mixed_criticality(ms(1), 0.3);
        assert!(gcl.longest.iter().all(Option::is_some));
        assert_eq!(gcl.cycle(), ms(1));
    }
}
