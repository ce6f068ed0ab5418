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
//! Arbitration allocates nothing in steady state. The list keeps its
//! windows sorted by offset (once, at construction), so
//! [`GateControlList::earliest_fit`] is a scan over at most twice the
//! window count. A poll computes one fit per distinct `(class, payload)`
//! pair among the queued frames — the MTU segments of one message share
//! both — and is otherwise one linear pass over the queue.

use crate::ethernet::ethernet_frame_time;
use crate::{Arbiter, Frame, Grant, TrafficClass, Transmission};
use dynplat_common::time::{SimDuration, SimTime};

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
    /// cycle, or windows overlap. (A class without any window is legal here
    /// — its frames are simply never granted — but can be detected with
    /// [`GateControlList::serves`].)
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

    /// `true` if `class` has at least one window.
    pub fn serves(&self, class: TrafficClass) -> bool {
        self.longest[class as usize].is_some()
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
    queue: Vec<(u32, u64, SimTime, Frame)>,
    seq: u64,
    dropped: u64,
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
            queue: Vec::new(),
            seq: 0,
            dropped: 0,
        }
    }

    /// Frames discarded because no gate window can ever fit them.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The configured gate control list.
    pub fn gcl(&self) -> &GateControlList {
        &self.gcl
    }
}

/// One poll's `earliest_fit` results keyed by `(class, payload)`: at one
/// poll instant and a fixed bitrate the fit depends on nothing else. A
/// fixed-size array on the stack; once it is full, further pairs are
/// computed directly.
struct FitMemo {
    len: usize,
    slots: [(TrafficClass, usize, Option<SimTime>); FitMemo::SLOTS],
}

impl FitMemo {
    const SLOTS: usize = 8;

    fn new() -> Self {
        FitMemo {
            len: 0,
            slots: [(TrafficClass::BestEffort, 0, None); FitMemo::SLOTS],
        }
    }

    /// The memoised fit of `(class, payload)`, computing it with `fit` on
    /// a miss.
    fn get(
        &mut self,
        class: TrafficClass,
        payload: usize,
        fit: impl FnOnce() -> Option<SimTime>,
    ) -> Option<SimTime> {
        let hit = self.slots[..self.len]
            .iter()
            .find(|&&(c, p, _)| c == class && p == payload);
        if let Some(&(_, _, start)) = hit {
            return start;
        }
        let start = fit();
        if self.len < FitMemo::SLOTS {
            self.slots[self.len] = (class, payload, start);
            self.len += 1;
        }
        start
    }
}

impl Arbiter for TsnGatedPort {
    fn enqueue(&mut self, now: SimTime, frame: Frame) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push((frame.priority, seq, now, frame));
    }

    fn poll(&mut self, now: SimTime) -> Grant {
        // One pass: discard frames that can never fit any window
        // (oversized). Among the rest: if any may start right now, grant
        // the highest-priority one; otherwise report the earliest future
        // start.
        let (gcl, bitrate) = (&self.gcl, self.bitrate);
        let mut fits = FitMemo::new();
        // (priority, seq, index among the kept frames)
        let mut now_best: Option<(u32, u64, usize)> = None;
        let mut future_best: Option<SimTime> = None;
        let (queued, mut kept) = (self.queue.len(), 0usize);
        self.queue.retain(|(prio, seq, _, frame)| {
            let fit = fits.get(frame.class, frame.payload, || {
                gcl.earliest_fit(
                    now,
                    frame.class,
                    ethernet_frame_time(frame.payload, bitrate),
                )
            });
            match fit {
                Some(start) if start == now => {
                    if now_best.is_none_or(|(p, s, _)| (*prio, *seq) < (p, s)) {
                        now_best = Some((*prio, *seq, kept));
                    }
                }
                Some(start) => {
                    if future_best.is_none_or(|b| start < b) {
                        future_best = Some(start);
                    }
                }
                None => return false,
            }
            kept += 1;
            true
        });
        self.dropped += (queued - kept) as u64;
        if let Some((_, _, idx)) = now_best {
            let (_, _, arrival, frame) = self.queue.swap_remove(idx);
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
        self.queue.len()
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
        assert!(gcl.serves(TrafficClass::Critical));
        assert!(gcl.serves(TrafficClass::Stream));
        assert!(gcl.serves(TrafficClass::BestEffort));
        assert_eq!(gcl.cycle(), ms(1));
    }
}
