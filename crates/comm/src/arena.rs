//! Per-fabric payload arena for zero-copy wire frames.
//!
//! The middleware used to build an owned `Vec<u8>` datagram *per
//! subscriber leg*: a publication with `n` subscribers encoded the same
//! SOME/IP notification `n` times and allocated `n` buffers. The
//! [`PayloadArena`] inverts that: the frame is encoded **once** into a
//! byte range of a fabric-owned arena, and every leg carries only the
//! range's [`PayloadRef`] — a recycled `u32` handle anchored the same way
//! the PR-3 frame-id slab anchors message slots. Steady-state staging
//! performs zero heap allocations: released ranges are recycled through
//! per-size-class free lists, so a periodic workload (the bench phases,
//! a platoon publishing at 50 Hz) reuses the same bytes forever.
//!
//! Handles are plain indices. Releasing a handle returns its block to the
//! free list of its size class; staging a payload of a similar size pops
//! it back off. The arena never shrinks — like the message slab, its
//! capacity is the high-water mark of concurrently staged bytes, which is
//! exactly what the `bench.comm.arena_*` gauges report.

/// Handle to one staged payload range. Valid until passed to
/// [`PayloadArena::release`]; the arena recycles released handles, so a
/// stale copy of a released ref may observe a *later* payload (never out
/// of bounds) — the same aliasing contract as slab frame ids.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PayloadRef(u32);

/// One block of arena storage. `cap` is the size-class-rounded capacity,
/// `len` the currently staged length within it.
#[derive(Clone, Copy, Debug)]
struct Block {
    off: u32,
    cap: u32,
    len: u32,
}

/// Occupancy of a [`PayloadArena`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Ranges currently staged (not yet released).
    pub live: usize,
    /// Recycled blocks available for reuse.
    pub free: usize,
    /// Total backing bytes ever reserved (high-water mark).
    pub bytes: usize,
}

/// Smallest size class in bytes; every block holds at least this much.
const MIN_CLASS: u32 = 16;

/// A size-class recycled byte arena keyed by reusable `u32` handles.
#[derive(Debug, Default)]
pub struct PayloadArena {
    data: Vec<u8>,
    blocks: Vec<Block>,
    /// Free block ids bucketed by size class (`log2(cap) - log2(MIN_CLASS)`).
    free_by_class: Vec<Vec<u32>>,
    live: usize,
}

impl PayloadArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PayloadArena::default()
    }

    fn class_of(cap: u32) -> usize {
        (cap.trailing_zeros() - MIN_CLASS.trailing_zeros()) as usize
    }

    fn rounded_cap(len: usize) -> u32 {
        (len.max(1) as u32).next_power_of_two().max(MIN_CLASS)
    }

    /// Stages a copy of `bytes`, reusing a recycled block of the matching
    /// size class when one exists (the steady-state path: no allocation).
    pub fn stage(&mut self, bytes: &[u8]) -> PayloadRef {
        let cap = Self::rounded_cap(bytes.len());
        let class = Self::class_of(cap);
        self.live += 1;
        if let Some(id) = self.free_by_class.get_mut(class).and_then(Vec::pop) {
            let block = &mut self.blocks[id as usize];
            block.len = bytes.len() as u32;
            let off = block.off as usize;
            self.data[off..off + bytes.len()].copy_from_slice(bytes);
            return PayloadRef(id);
        }
        // Growth path: reserve a fresh block at the end of the backing.
        let off = self.data.len() as u32;
        self.data.resize(off as usize + cap as usize, 0);
        self.data[off as usize..off as usize + bytes.len()].copy_from_slice(bytes);
        let id = self.blocks.len() as u32;
        self.blocks.push(Block {
            off,
            cap,
            len: bytes.len() as u32,
        });
        PayloadRef(id)
    }

    /// The staged bytes behind `r`.
    #[cfg(test)]
    pub(crate) fn get(&self, r: PayloadRef) -> &[u8] {
        let block = &self.blocks[r.0 as usize];
        &self.data[block.off as usize..(block.off + block.len) as usize]
    }

    /// Releases a staged range, returning its block to the size-class free
    /// list for reuse. Releasing the same ref twice corrupts occupancy
    /// accounting (like a slab double-free); callers own the lifecycle.
    pub fn release(&mut self, r: PayloadRef) {
        let class = Self::class_of(self.blocks[r.0 as usize].cap);
        if self.free_by_class.len() <= class {
            self.free_by_class.resize_with(class + 1, Vec::new);
        }
        self.free_by_class[class].push(r.0);
        self.live -= 1;
    }

    /// Current occupancy.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            live: self.live,
            free: self.free_by_class.iter().map(Vec::len).sum(),
            bytes: self.data.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_get_release_roundtrip() {
        let mut arena = PayloadArena::new();
        let a = arena.stage(b"hello");
        let b = arena.stage(&[7u8; 100]);
        assert_eq!(arena.get(a), b"hello");
        assert_eq!(arena.get(b), &[7u8; 100][..]);
        assert_eq!(arena.stats().live, 2);
        arena.release(a);
        arena.release(b);
        let s = arena.stats();
        assert_eq!(s.live, 0);
        assert_eq!(s.free, 2);
    }

    #[test]
    fn steady_state_recycles_without_growth() {
        let mut arena = PayloadArena::new();
        // Warm up one block per class used by the workload…
        let warm = arena.stage(&[1u8; 300]);
        arena.release(warm);
        let bytes_after_warmup = arena.stats().bytes;
        // …then a long periodic workload of same-class payloads must not
        // grow the backing at all.
        for round in 0..1_000u32 {
            let r = arena.stage(&[round as u8; 280]);
            assert_eq!(arena.get(r).len(), 280);
            arena.release(r);
        }
        let s = arena.stats();
        assert_eq!(s.bytes, bytes_after_warmup, "steady state must not grow");
        assert_eq!(s.live, 0);
        assert_eq!(s.free, 1);
    }

    #[test]
    fn distinct_classes_do_not_alias() {
        let mut arena = PayloadArena::new();
        let small = arena.stage(b"ab");
        let big = arena.stage(&[9u8; 64]);
        arena.release(small);
        // A 64-byte stage must reuse the 64-byte class block, not the
        // released 16-byte one.
        let big2 = arena.stage(&[8u8; 33]);
        assert_eq!(arena.get(big2).len(), 33);
        assert_eq!(arena.get(big), &[9u8; 64][..]);
        // The small class block is still free for small payloads.
        let small2 = arena.stage(b"xy");
        assert_eq!(small2.0, 0, "16-byte class block is recycled");
        assert_eq!(arena.get(small2), b"xy");
    }

    #[test]
    fn empty_payloads_are_representable() {
        let mut arena = PayloadArena::new();
        let r = arena.stage(&[]);
        assert_eq!(arena.get(r), &[] as &[u8]);
        arena.release(r);
        assert_eq!(arena.stats().live, 0);
    }
}
