//! Fixed-capacity event ring.
//!
//! Power-of-two arrays of `(time, seq, slot)` triples with plain `usize`
//! head and tail cursors; push and pop take `&mut self` and need no
//! synchronization. A full ring never blocks and never drops:
//! [`SpscRing::try_push`] returns `false` and leaves the caller to hold
//! the entry elsewhere.
//!
//! The fabric no longer uses this ring: a bus has at most one `TxDone` in
//! flight, and it rides the bus's poll slot (see [`crate::fabric`]). The
//! ring stays because the `dynbench` `adas_cycle` workload replays a
//! push/pop per segment `TxDone` through it as its `comm.ring` layer;
//! removing it is a change to that benchmark.

use dynplat_common::time::SimTime;

/// One ring entry: an event timestamp, its global FIFO tie-break sequence
/// number, and the message-slab slot it refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RingEntry {
    /// Event time.
    pub time: SimTime,
    /// Monotone sequence number (FIFO tie-break at equal times).
    pub seq: u64,
    /// Message-slab slot (doubles as the wire frame id).
    pub slot: u32,
}

/// Fixed-capacity FIFO ring of [`RingEntry`] values.
///
/// Entries are kept as three parallel lanes rather than one
/// `Box<[RingEntry]>`: copying a whole padded entry in and out makes the
/// pop's wide loads miss store-to-load forwarding from the push's narrow
/// stores, which tripled the cost of a push/pop pair.
#[derive(Debug)]
pub struct SpscRing {
    mask: usize,
    /// Free-running cursors; the lane index is `cursor & mask`.
    head: usize,
    tail: usize,
    time: Box<[SimTime]>,
    seq: Box<[u64]>,
    slot: Box<[u32]>,
}

impl SpscRing {
    /// Creates a ring holding at least `capacity` entries (rounded up to
    /// the next power of two, minimum 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        SpscRing {
            mask: cap - 1,
            head: 0,
            tail: 0,
            time: vec![SimTime::ZERO; cap].into(),
            seq: vec![0; cap].into(),
            slot: vec![0; cap].into(),
        }
    }

    /// Number of entries the ring can hold.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// Entries currently queued.
    pub fn len(&self) -> usize {
        self.tail.wrapping_sub(self.head)
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Appends an entry. Returns `false` (without writing anything) when
    /// the ring is full — the caller must hold the entry elsewhere.
    pub fn try_push(&mut self, entry: RingEntry) -> bool {
        if self.len() > self.mask {
            return false;
        }
        let i = self.tail & self.mask;
        self.time[i] = entry.time;
        self.seq[i] = entry.seq;
        self.slot[i] = entry.slot;
        self.tail = self.tail.wrapping_add(1);
        true
    }

    /// The front entry without removing it.
    pub fn peek(&self) -> Option<RingEntry> {
        if self.is_empty() {
            return None;
        }
        let i = self.head & self.mask;
        Some(RingEntry {
            time: self.time[i],
            seq: self.seq[i],
            slot: self.slot[i],
        })
    }

    /// Removes and returns the front entry.
    pub fn pop(&mut self) -> Option<RingEntry> {
        let entry = self.peek()?;
        self.head = self.head.wrapping_add(1);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(n: u64) -> RingEntry {
        RingEntry {
            time: SimTime::from_nanos(n),
            seq: n,
            slot: n as u32,
        }
    }

    #[test]
    fn capacity_rounds_up_to_power_of_two() {
        assert_eq!(SpscRing::new(0).capacity(), 2);
        assert_eq!(SpscRing::new(3).capacity(), 4);
        assert_eq!(SpscRing::new(8).capacity(), 8);
    }

    #[test]
    fn fifo_order_and_wraparound() {
        let mut ring = SpscRing::new(4);
        // Several times around the ring to exercise index wrapping.
        let mut next = 0u64;
        for _ in 0..10 {
            for _ in 0..3 {
                assert!(ring.try_push(entry(next)));
                next += 1;
            }
            for k in (next - 3)..next {
                assert_eq!(ring.peek(), Some(entry(k)));
                assert_eq!(ring.pop(), Some(entry(k)));
            }
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn full_ring_rejects_without_overwriting() {
        let mut ring = SpscRing::new(2);
        assert!(ring.try_push(entry(1)));
        assert!(ring.try_push(entry(2)));
        assert!(!ring.try_push(entry(3)), "full ring must refuse");
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.pop(), Some(entry(1)));
        assert!(ring.try_push(entry(3)), "pop frees a slot");
        assert_eq!(ring.pop(), Some(entry(2)));
        assert_eq!(ring.pop(), Some(entry(3)));
    }
}
