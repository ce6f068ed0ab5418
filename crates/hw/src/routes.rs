//! Dense route cache over a static topology.
//!
//! [`HwTopology::route`] runs a breadth-first search with fresh `BTreeMap`/
//! `BTreeSet`/`VecDeque` allocations on every call. That is fine for
//! one-off queries, but the communication fabric resolves a route for
//! *every injected message*, and topologies are static for the lifetime of
//! a simulation run. [`RouteCache`] memoizes routes in a dense
//! `(src, dst)`-indexed table: the first query from a source runs one
//! arena-based BFS that fills the whole row (routes to every destination),
//! and every later query is an array lookup plus an `Arc` clone.
//!
//! The cache is built against a snapshot of the topology and reproduces
//! [`HwTopology::route`] exactly — same minimum-hop paths, same
//! tie-breaking (buses visited in ascending `BusId` order, ECUs in
//! ascending `EcuId` order), same errors. `tests/properties3.rs` checks
//! this equivalence over randomized topologies.

use crate::topology::{HwTopology, TopologyError};
use dynplat_common::{BusId, EcuId};
use std::sync::Arc;

/// Sentinel for "no dense index" in lookup tables.
const ABSENT: u32 = u32::MAX;

/// A memoized all-pairs routing table over one (static) topology.
///
/// Rows are filled lazily: the first `(src, *)` query runs a single BFS
/// from `src` and caches the route to every reachable destination, so `k`
/// distinct sources cost `k` searches total no matter how many messages
/// are routed. Cached paths are shared via `Arc`, so handing a route to a
/// caller is a reference-count bump, not a `Vec` clone.
#[derive(Clone, Debug)]
pub struct RouteCache {
    /// Dense index -> ECU id (ascending, mirroring `HwTopology::ecus`).
    ecu_ids: Vec<EcuId>,
    /// Raw ECU id -> dense index (`ABSENT` when the id is unknown).
    ecu_lookup: Vec<u32>,
    /// CSR offsets into `adj`, one entry per ECU plus a tail sentinel.
    adj_off: Vec<u32>,
    /// Flattened adjacency in BFS visit order: for each ECU, its buses in
    /// ascending `BusId` order, each bus's other attached ECUs in
    /// ascending `EcuId` order.
    adj: Vec<(BusId, u32)>,
    /// Whether the BFS row for a source has been computed yet.
    row_done: Vec<bool>,
    /// `src * n + dst` -> cached path (`None` = unreachable once the row
    /// is done).
    paths: Vec<Option<Arc<[BusId]>>>,
    /// The shared empty path returned for local (same-ECU) routes.
    empty: Arc<[BusId]>,
    /// BFS scratch: predecessor ECU and the bus taken to reach it.
    prev: Vec<(u32, BusId)>,
    /// BFS scratch: visited marks.
    seen: Vec<bool>,
}

impl RouteCache {
    /// Builds a cache over a snapshot of `topology`.
    ///
    /// The cache does not observe later topology mutations; rebuild it if
    /// ECUs or buses are added.
    pub fn new(topology: &HwTopology) -> Self {
        let ecu_ids: Vec<EcuId> = topology.ecus().map(|e| e.id()).collect();
        let n = ecu_ids.len();
        let max_raw = ecu_ids.iter().map(|e| e.raw() as usize).max();
        let mut ecu_lookup = vec![ABSENT; max_raw.map_or(0, |m| m + 1)];
        for (i, id) in ecu_ids.iter().enumerate() {
            ecu_lookup[id.raw() as usize] = i as u32;
        }
        let mut adj_off = Vec::with_capacity(n + 1);
        let mut adj = Vec::new();
        for &ecu in &ecu_ids {
            adj_off.push(adj.len() as u32);
            // `buses_of` yields buses in ascending id order and `attached`
            // is a sorted set: the flattened order matches the visit order
            // of `HwTopology::route`'s BFS exactly.
            for bus in topology.buses_of(ecu) {
                for &next in &bus.attached {
                    if next != ecu {
                        adj.push((bus.id, ecu_lookup[next.raw() as usize]));
                    }
                }
            }
        }
        adj_off.push(adj.len() as u32);
        RouteCache {
            ecu_ids,
            ecu_lookup,
            adj_off,
            adj,
            row_done: vec![false; n],
            paths: vec![None; n * n],
            empty: Arc::from(Vec::new().into_boxed_slice()),
            prev: vec![(ABSENT, BusId(0)); n],
            seen: vec![false; n],
        }
    }

    fn index_of(&self, ecu: EcuId) -> Option<u32> {
        match self.ecu_lookup.get(ecu.raw() as usize) {
            Some(&i) if i != ABSENT => Some(i),
            _ => None,
        }
    }

    /// Runs one BFS from `src` and fills the whole `(src, *)` row.
    fn fill_row(&mut self, src: u32) {
        let n = self.ecu_ids.len();
        self.seen.iter_mut().for_each(|s| *s = false);
        self.seen[src as usize] = true;
        // Reuse `paths` row slots as the BFS queue bookkeeping is cheap:
        // a plain Vec head cursor avoids a VecDeque allocation.
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        let mut head = 0usize;
        queue.push(src);
        while head < queue.len() {
            let cur = queue[head];
            head += 1;
            let lo = self.adj_off[cur as usize] as usize;
            let hi = self.adj_off[cur as usize + 1] as usize;
            for &(bus, next) in &self.adj[lo..hi] {
                if !self.seen[next as usize] {
                    self.seen[next as usize] = true;
                    self.prev[next as usize] = (cur, bus);
                    queue.push(next);
                }
            }
        }
        let row = src as usize * n;
        for dst in 0..n as u32 {
            if dst == src {
                continue; // local: handled without a table entry
            }
            self.paths[row + dst as usize] = if self.seen[dst as usize] {
                let mut buses = Vec::new();
                let mut cur = dst;
                while cur != src {
                    let (p, bus) = self.prev[cur as usize];
                    buses.push(bus);
                    cur = p;
                }
                buses.reverse();
                Some(Arc::from(buses.into_boxed_slice()))
            } else {
                None
            };
        }
        self.row_done[src as usize] = true;
    }

    /// The bus path from `src` to `dst`, shared with the cache. Empty for
    /// same-ECU (local) delivery.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownEcu`] for unknown endpoints and
    /// [`TopologyError::NoRoute`] for disconnected ones — identical to
    /// [`HwTopology::route`].
    pub fn route_buses(&mut self, src: EcuId, dst: EcuId) -> Result<Arc<[BusId]>, TopologyError> {
        let s = self.index_of(src).ok_or(TopologyError::UnknownEcu(src))?;
        let d = self.index_of(dst).ok_or(TopologyError::UnknownEcu(dst))?;
        if s == d {
            return Ok(self.empty.clone());
        }
        if !self.row_done[s as usize] {
            self.fill_row(s);
        }
        self.paths[s as usize * self.ecu_ids.len() + d as usize]
            .clone()
            .ok_or(TopologyError::NoRoute(src, dst))
    }

    /// The bus path from `src` to `dst` as a borrowed slice — the hot-path
    /// variant of [`RouteCache::route_buses`] for callers that copy or
    /// inspect the route immediately: no `Arc` refcount traffic.
    ///
    /// # Errors
    ///
    /// Same contract as [`RouteCache::route_buses`].
    pub fn route_slice(&mut self, src: EcuId, dst: EcuId) -> Result<&[BusId], TopologyError> {
        let s = self.index_of(src).ok_or(TopologyError::UnknownEcu(src))?;
        let d = self.index_of(dst).ok_or(TopologyError::UnknownEcu(dst))?;
        if s == d {
            return Ok(&[]);
        }
        if !self.row_done[s as usize] {
            self.fill_row(s);
        }
        match &self.paths[s as usize * self.ecu_ids.len() + d as usize] {
            Some(p) => Ok(p),
            None => Err(TopologyError::NoRoute(src, dst)),
        }
    }

    /// Warms the `(src, *)` row: one BFS fills the route to *every*
    /// destination, so a batch fanout from `src` resolves each leg with a
    /// plain table lookup. A no-op when the row is already filled.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::UnknownEcu`] when `src` is not in the
    /// topology.
    pub fn prefetch(&mut self, src: EcuId) -> Result<(), TopologyError> {
        let s = self.index_of(src).ok_or(TopologyError::UnknownEcu(src))?;
        if !self.row_done[s as usize] {
            self.fill_row(s);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ecu::{EcuClass, EcuSpec};
    use crate::topology::{BusKind, BusSpec, Route};

    /// The cached route as an owned [`Route`], comparable with
    /// [`HwTopology::route`].
    fn route(cache: &mut RouteCache, src: EcuId, dst: EcuId) -> Result<Route, TopologyError> {
        cache.route_buses(src, dst).map(|buses| Route {
            buses: buses.to_vec(),
        })
    }

    fn topo() -> HwTopology {
        // ecu0 --can0-- ecu1(gateway) --eth0-- ecu2, ecu9 isolated
        HwTopology::from_parts(
            [
                EcuSpec::of_class(EcuId(0), "body", EcuClass::LowEnd),
                EcuSpec::of_class(EcuId(1), "gateway", EcuClass::Domain),
                EcuSpec::of_class(EcuId(2), "adas", EcuClass::HighPerformance),
                EcuSpec::of_class(EcuId(9), "island", EcuClass::LowEnd),
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
        .unwrap()
    }

    #[test]
    fn cache_matches_fresh_bfs_on_all_pairs() {
        let t = topo();
        let mut cache = RouteCache::new(&t);
        for src in [0u16, 1, 2, 9] {
            for dst in [0u16, 1, 2, 9] {
                let fresh = t.route(EcuId(src), EcuId(dst));
                let cached = route(&mut cache, EcuId(src), EcuId(dst));
                assert_eq!(cached, fresh, "pair {src}->{dst}");
                // Second query exercises the memoized path.
                assert_eq!(route(&mut cache, EcuId(src), EcuId(dst)), fresh);
            }
        }
    }

    #[test]
    fn unknown_endpoints_are_rejected() {
        let t = topo();
        let mut cache = RouteCache::new(&t);
        assert_eq!(
            route(&mut cache, EcuId(7), EcuId(0)),
            Err(TopologyError::UnknownEcu(EcuId(7)))
        );
        assert_eq!(
            route(&mut cache, EcuId(0), EcuId(7)),
            Err(TopologyError::UnknownEcu(EcuId(7)))
        );
    }

    #[test]
    fn local_routes_share_the_empty_path() {
        let t = topo();
        let mut cache = RouteCache::new(&t);
        let a = cache.route_buses(EcuId(2), EcuId(2)).unwrap();
        let b = cache.route_buses(EcuId(0), EcuId(0)).unwrap();
        assert!(a.is_empty() && b.is_empty());
        assert!(Arc::ptr_eq(&a, &b), "one shared empty allocation");
    }

    #[test]
    fn repeated_queries_share_one_path_allocation() {
        let t = topo();
        let mut cache = RouteCache::new(&t);
        let a = cache.route_buses(EcuId(0), EcuId(2)).unwrap();
        let b = cache.route_buses(EcuId(0), EcuId(2)).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(&*a, &[BusId(0), BusId(1)]);
    }

    #[test]
    fn prefetch_fills_the_row_once() {
        let t = topo();
        let mut cache = RouteCache::new(&t);
        cache.prefetch(EcuId(0)).unwrap();
        // All destinations from ECU 0 now resolve to the same answers as
        // a fresh BFS, including the unreachable island.
        assert_eq!(
            cache.route_buses(EcuId(0), EcuId(2)).unwrap().as_ref(),
            &[BusId(0), BusId(1)]
        );
        assert_eq!(
            route(&mut cache, EcuId(0), EcuId(9)),
            Err(TopologyError::NoRoute(EcuId(0), EcuId(9)))
        );
        assert_eq!(
            cache.prefetch(EcuId(7)),
            Err(TopologyError::UnknownEcu(EcuId(7)))
        );
    }

    #[test]
    fn empty_topology_is_handled() {
        let t = HwTopology::new();
        let mut cache = RouteCache::new(&t);
        assert_eq!(cache.ecu_ids.len(), 0);
        assert_eq!(
            route(&mut cache, EcuId(0), EcuId(1)),
            Err(TopologyError::UnknownEcu(EcuId(0)))
        );
    }
}
