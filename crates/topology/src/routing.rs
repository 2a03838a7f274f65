//! BFS shortest-path routing with per-link load counts.
//!
//! The paper's simulator routes infection packets "using a shortest path
//! algorithm through the network" and weights each rate-limited link's
//! budget "proportional to the number of routing table entries the link
//! occupies". [`RoutingBackend::link_loads`] counts, for every link, how
//! many ordered node pairs route across it.
//!
//! Routing is consumed through the [`RoutingBackend`] trait, which two
//! engine backends implement: the two-level
//! [`HierRouting`](crate::hier::HierRouting) table and the
//! memory-bounded [`LazyRouting`](crate::lazy::LazyRouting) cache. Both
//! produce bit-identical next hops because each reproduces the same BFS
//! (neighbors in adjacency order) rooted at the destination.
//!
//! Every backend's BFS runs over the shared [`Csr`] adjacency snapshot
//! and writes **destination-major** rows (`table[dst * n + src]`): one
//! BFS fills one contiguous row, so construction streams through memory
//! instead of scattering stride-`n` writes. Table construction fans the
//! per-destination BFS out over the `dynaquar-parallel` pool in
//! deterministic destination order. [`RoutingTable::shortest_paths_serial`]
//! keeps the original adjacency-list serial loop as the independent
//! oracle the differential suite (`tests/routing_oracle.rs`) pins every
//! backend against.
//!
//! A row's cell records the CSR arc that discovered its node, not the
//! parent node: the arc's link (its source and edge, stored on the
//! [`Csr`]) is the next node *and* the edge toward the destination, so
//! a lookup ([`RoutingBackend::try_next_link`]) costs array reads and
//! no hash. Only this module knows that encoding.

use crate::error::Error;
use crate::graph::{Csr, EdgeId, Graph, NodeId};
use dynaquar_parallel::{ordered_map, ParallelConfig};
use std::collections::VecDeque;

/// Sentinel meaning "no route / self".
pub(crate) const NO_HOP: u32 = u32::MAX;

/// A lookup's answer: the next node toward the destination and the
/// edge that reaches it.
pub type Link = (NodeId, EdgeId);

/// One table cell holding a packed (hop, distance) pair.
///
/// The hop half is the discovering arc in rows the shared kernel fills
/// ([`bfs_fill_row`]) and the parent node in the [`RoutingTable`]
/// oracle's cells.
///
/// Two widths exist: [`u32`] packs two `u16` halves (CSRs with fewer
/// than [`COMPACT_ARC_LIMIT`] arcs, which covers every all-pairs table
/// that fits in memory in practice), [`u64`] packs two `u32` halves
/// (the general case, used by the lazy backend's per-destination rows).
/// Packing matters twice over: one store per BFS discovery instead of
/// two, and half the table bytes, which on the latency-bound all-pairs
/// build is the difference between ~3 s and ~13 s at n = 10k.
pub(crate) trait PackedCell: Copy + Default + Eq + Send + 'static {
    /// Cell value for a node the BFS never reached (no hop, no distance).
    const UNREACHED: Self;
    /// Cell value for the BFS root (no hop, distance 0).
    const ROOT: Self;
    /// Packs a discovered node's hop half and distance.
    fn pack(hop: u32, dist: u32) -> Self;
    /// The hop half ([`NO_HOP`] when absent).
    fn hop(self) -> u32;
    /// The distance half (`u32::MAX` when unreached).
    fn dist(self) -> u32;
    /// Whether this cell is still [`PackedCell::UNREACHED`].
    fn is_unreached(self) -> bool;
}

impl PackedCell for u32 {
    const UNREACHED: Self = 0xFFFF_FFFF;
    const ROOT: Self = 0xFFFF_0000;

    #[inline]
    fn pack(hop: u32, dist: u32) -> Self {
        (hop << 16) | dist
    }

    #[inline]
    fn hop(self) -> u32 {
        let h = self >> 16;
        if h == 0xFFFF {
            NO_HOP
        } else {
            h
        }
    }

    #[inline]
    fn dist(self) -> u32 {
        let d = self & 0xFFFF;
        if d == 0xFFFF {
            u32::MAX
        } else {
            d
        }
    }

    #[inline]
    fn is_unreached(self) -> bool {
        self & 0xFFFF == 0xFFFF
    }
}

impl PackedCell for u64 {
    const UNREACHED: Self = u64::MAX;
    const ROOT: Self = (u32::MAX as u64) << 32;

    #[inline]
    fn pack(hop: u32, dist: u32) -> Self {
        (u64::from(hop) << 32) | u64::from(dist)
    }

    #[inline]
    fn hop(self) -> u32 {
        (self >> 32) as u32
    }

    #[inline]
    fn dist(self) -> u32 {
        self as u32
    }

    #[inline]
    fn is_unreached(self) -> bool {
        self as u32 == u32::MAX
    }
}

/// The compact (`u32` cell, `u16` halves) representation covers CSRs
/// with fewer arcs than this: every arc index stays below the `0xFFFF`
/// sentinel, and so does every distance, since a component's diameter
/// is below its edge count.
pub(crate) const COMPACT_ARC_LIMIT: usize = u16::MAX as usize;

/// One BFS rooted at `dst`, filling the `n`-wide packed row.
///
/// This is the single kernel every backend shares: neighbors are visited
/// in [`Csr`] order (= adjacency order), level-synchronously (frontier
/// order equals FIFO queue order), parents are assigned on first
/// discovery — so for a fixed graph the filled row is bit-identical no
/// matter which backend (lazy, hier core) runs it, at either cell
/// width. A discovered node's cell holds the index of the arc that
/// discovered it (parent → node); decode it with [`decode_link`].
pub(crate) fn bfs_fill_row<C: PackedCell>(
    csr: &Csr,
    dst: u32,
    row: &mut [C],
    cur: &mut Vec<u32>,
    next: &mut Vec<u32>,
) {
    let n = row.len();
    row.fill(C::UNREACHED);
    row[dst as usize] = C::ROOT;
    cur.clear();
    cur.push(dst);
    let mut d = 0u32;
    let mut seen = 1usize;
    while !cur.is_empty() && seen < n {
        d += 1;
        next.clear();
        for &u in cur.iter() {
            let first = csr.first_arc(u as usize) as u32;
            for (arc, &v) in (first..).zip(csr.neighbors(u as usize)) {
                let cell = &mut row[v as usize];
                if cell.is_unreached() {
                    *cell = C::pack(arc, d);
                    next.push(v);
                }
            }
        }
        seen += next.len();
        std::mem::swap(cur, next);
    }
}

/// The link toward the row's root from a cell [`bfs_fill_row`] filled
/// over `csr` (`None` for the root and for unreached nodes).
#[inline]
pub(crate) fn decode_link<C: PackedCell>(csr: &Csr, cell: C) -> Option<Link> {
    let arc = cell.hop();
    (arc != NO_HOP).then(|| csr.link(arc as usize))
}

/// Builds the full destination-major packed table (`cells[dst * n + src]`)
/// for every destination of `csr`, fanning per-destination BFS over
/// `pool`.
///
/// The table is allocated once and each worker fills a contiguous range
/// of destination rows in place, so a build never holds more than the
/// one table. Each BFS first writes its whole row, which brings the row
/// into cache before the scattered discovery writes land in it. The
/// kernel is pure, so the table is bit-identical for any thread count.
pub(crate) fn build_dense_cells<C: PackedCell>(csr: &Csr, pool: &ParallelConfig) -> Vec<C> {
    let n = csr.node_count();
    // Zero-filled, so a fresh allocation maps untouched pages; every
    // row is overwritten by its BFS.
    let mut out = vec![C::default(); n * n];
    if n == 0 {
        return out;
    }
    // One contiguous destination range per work item, sized so every
    // worker gets several items to balance on.
    let span = if pool.threads() <= 1 {
        n
    } else {
        n.div_ceil(pool.threads() * 4).max(8)
    };
    let ranges: Vec<(usize, &mut [C])> = out
        .chunks_mut(span * n)
        .enumerate()
        .map(|(i, rows)| (i * span, rows))
        .collect();
    ordered_map(pool, ranges, |_, (lo, rows)| {
        // Frontiers sized for the widest level up front. Growing them
        // by small reallocations placed after the table lets a later
        // allocation split the table's chunk once it is freed, and the
        // next build then grows the heap while the old pages stay
        // resident (a 1-thread rebuild loop read 2× the table's RSS).
        let (mut cur, mut next) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for (i, row) in rows.chunks_mut(n).enumerate() {
            bfs_fill_row(csr, (lo + i) as u32, row, &mut cur, &mut next);
        }
    });
    out
}

/// A shortest-path routing oracle over a fixed graph.
///
/// Implementations must answer next-hop and distance queries for every
/// ordered node pair, and must agree with a BFS rooted at the
/// destination that visits neighbors in adjacency order — the contract
/// that makes every backend bit-identical to the [`RoutingTable`]
/// oracle (the differential suite in `tests/routing_oracle.rs`
/// enforces it).
///
/// The next hop ([`try_next_hop`](RoutingBackend::try_next_hop)) and the
/// derived walks ([`path`](RoutingBackend::try_path),
/// [`link_loads`](RoutingBackend::link_loads),
/// [`diameter`](RoutingBackend::diameter), …) have default
/// implementations in terms of the two required queries; the walks
/// iterate destination-outer so cache-backed implementations serve each
/// destination from one BFS.
pub trait RoutingBackend: std::fmt::Debug + Send + Sync {
    /// Number of nodes the backend covers.
    fn node_count(&self) -> usize;

    /// The first hop from `src` toward `dst` and the edge it crosses
    /// (`None` when unreachable or `src == dst`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist.
    fn try_next_link(&self, src: NodeId, dst: NodeId) -> Result<Option<Link>, Error>;

    /// The first hop from `src` toward `dst` (`None` when unreachable or
    /// `src == dst`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist.
    fn try_next_hop(&self, src: NodeId, dst: NodeId) -> Result<Option<NodeId>, Error> {
        Ok(self.try_next_link(src, dst)?.map(|(next, _)| next))
    }

    /// Hop distance from `src` to `dst` (`None` when unreachable).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist.
    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error>;

    /// A short static label for reports and benchmarks ("hier", "lazy").
    fn backend_name(&self) -> &'static str;

    /// Panicking variant of [`RoutingBackend::try_next_link`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn next_link(&self, src: NodeId, dst: NodeId) -> Option<Link> {
        match self.try_next_link(src, dst) {
            Ok(link) => link,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// Panicking variant of [`RoutingBackend::try_next_hop`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn next_hop(&self, src: NodeId, dst: NodeId) -> Option<NodeId> {
        match self.try_next_hop(src, dst) {
            Ok(hop) => hop,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// Panicking variant of [`RoutingBackend::try_distance`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn distance(&self, src: NodeId, dst: NodeId) -> Option<u32> {
        match self.try_distance(src, dst) {
            Ok(d) => d,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// The full path from `src` to `dst`, inclusive of both endpoints
    /// (`None` when unreachable; `Some(vec![src])` when `src == dst`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] when either node does not exist.
    fn try_path(&self, src: NodeId, dst: NodeId) -> Result<Option<Vec<NodeId>>, Error> {
        if src == dst {
            // Validate both anyway so out-of-range self-queries error.
            self.try_distance(src, dst)?;
            return Ok(Some(vec![src]));
        }
        if self.try_distance(src, dst)?.is_none() {
            return Ok(None);
        }
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self
                .try_next_hop(cur, dst)?
                .expect("invariant: finite distance implies a next hop");
            path.push(cur);
        }
        Ok(Some(path))
    }

    /// Panicking variant of [`RoutingBackend::try_path`].
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        match self.try_path(src, dst) {
            Ok(p) => p,
            Err(e) => panic!("node out of range: {e}"),
        }
    }

    /// The edges along the route from `src` to `dst` (empty when
    /// `src == dst` or unreachable).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    fn path_edges(&self, src: NodeId, dst: NodeId) -> Vec<EdgeId> {
        let mut edges = Vec::new();
        let mut cur = src;
        while let Some((next, edge)) = self.next_link(cur, dst) {
            edges.push(edge);
            cur = next;
        }
        edges
    }

    /// Counts, for each edge, how many *ordered* node pairs route across
    /// it — the paper's "routing table entries" link weight.
    ///
    /// Cost is `O(n² · diameter)` next-hop queries, walked
    /// destination-outer so a lazily cached backend pays one BFS per
    /// destination.
    fn link_loads(&self, graph: &Graph) -> Vec<u64> {
        let n = self.node_count();
        let mut loads = vec![0u64; graph.edge_count()];
        for dst in 0..n {
            let d = NodeId::from(dst);
            for src in 0..n {
                if src == dst {
                    continue;
                }
                let s = NodeId::from(src);
                if self.distance(s, d).is_none() {
                    continue;
                }
                let mut cur = s;
                while cur != d {
                    let (nxt, edge) = self.next_link(cur, d).expect("finite distance");
                    loads[edge.index()] += 1;
                    cur = nxt;
                }
            }
        }
        loads
    }

    /// Average shortest-path length over all reachable ordered pairs.
    fn average_path_length(&self) -> f64 {
        let n = self.node_count();
        let mut total = 0u64;
        let mut pairs = 0u64;
        for dst in 0..n {
            for src in 0..n {
                if src == dst {
                    continue;
                }
                if let Some(d) = self.distance(NodeId::from(src), NodeId::from(dst)) {
                    total += u64::from(d);
                    pairs += 1;
                }
            }
        }
        if pairs == 0 {
            0.0
        } else {
            total as f64 / pairs as f64
        }
    }

    /// The network diameter: the longest finite shortest-path distance
    /// over all ordered pairs (`None` for graphs with < 2 nodes or no
    /// reachable pairs).
    fn diameter(&self) -> Option<u32> {
        let n = self.node_count();
        let mut max: Option<u32> = None;
        for dst in 0..n {
            for src in 0..n {
                if src == dst {
                    continue;
                }
                if let Some(d) = self.distance(NodeId::from(src), NodeId::from(dst)) {
                    max = Some(max.map_or(d, |m| m.max(d)));
                }
            }
        }
        max
    }
}

/// The serial all-pairs routing oracle.
///
/// Not an engine backend: worlds route through
/// [`HierRouting`](crate::hier::HierRouting) or
/// [`LazyRouting`](crate::lazy::LazyRouting). This table is the
/// independent reference the differential suite
/// (`tests/routing_oracle.rs`) pins both against, so it shares none of
/// their machinery beyond the packed cell format: its cells hold parent
/// node ids, and it answers a link's edge with [`Graph::edge_between`]
/// on its own copy of the graph, which checks the backends' CSR link
/// arrays against the graph's edge map.
///
/// # Example
///
/// ```
/// use dynaquar_topology::generators;
/// use dynaquar_topology::routing::{RoutingBackend, RoutingTable};
///
/// let star = generators::star(4).expect("valid");
/// let rt = RoutingTable::shortest_paths_serial(&star.graph);
/// // Leaf-to-leaf routes go through the hub.
/// let path = rt.path(1.into(), 2.into()).expect("connected");
/// assert_eq!(path, vec![1.into(), 0.into(), 2.into()]);
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    /// Packed `(next_hop, distance)` cells, destination-major:
    /// `cells[dst * n + src]`.
    cells: Vec<u64>,
    /// The graph the table routes, for the edge of each hop.
    graph: Graph,
}

/// Table storage at one of two cell widths (see [`PackedCell`]): the
/// hier backend's core table, with the width picked from the covered
/// CSR's arc count at build time.
#[derive(Debug, Clone)]
pub(crate) enum Cells {
    /// `u16` halves — CSRs with fewer than [`COMPACT_ARC_LIMIT`] arcs.
    Compact(Vec<u32>),
    /// `u32` halves — the general case.
    Wide(Vec<u64>),
}

impl Cells {
    /// Builds the full destination-major table for `csr`, choosing the
    /// compact width whenever the arc count permits.
    pub(crate) fn build(csr: &Csr, pool: &ParallelConfig) -> Self {
        if csr.entry_count() < COMPACT_ARC_LIMIT {
            Cells::Compact(build_dense_cells::<u32>(csr, pool))
        } else {
            Cells::Wide(build_dense_cells::<u64>(csr, pool))
        }
    }

    /// The distance at flat index `idx` (= `dst * n + src`), `u32::MAX`
    /// when unreachable.
    #[inline]
    pub(crate) fn dist(&self, idx: usize) -> u32 {
        match self {
            Cells::Compact(v) => v[idx].dist(),
            Cells::Wide(v) => v[idx].dist(),
        }
    }

    /// The link toward the row's root at flat index `idx`, decoded
    /// through `csr`, the CSR the table was built over.
    #[inline]
    pub(crate) fn link(&self, csr: &Csr, idx: usize) -> Option<Link> {
        match self {
            Cells::Compact(v) => decode_link(csr, v[idx]),
            Cells::Wide(v) => decode_link(csr, v[idx]),
        }
    }
}

impl RoutingTable {
    /// The original serial adjacency-list construction: one
    /// queue-driven BFS per destination over [`Graph::neighbors`], no
    /// CSR snapshot, no pool, no packing tricks (the plain `next_hop` /
    /// `distance` arrays are zipped into cells only after the BFS
    /// loop finishes).
    pub fn shortest_paths_serial(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut next_hop = vec![NO_HOP; n * n];
        let mut distance = vec![u32::MAX; n * n];
        let mut queue = VecDeque::new();
        // BFS from each destination; record the parent pointer toward it.
        // parent[u] on a BFS tree rooted at dst is u's next hop to dst.
        for dst in 0..n {
            let row = dst * n;
            distance[row + dst] = 0;
            queue.clear();
            queue.push_back(NodeId::from(dst));
            while let Some(u) = queue.pop_front() {
                let du = distance[row + u.index()];
                for &v in graph.neighbors(u) {
                    if distance[row + v.index()] == u32::MAX {
                        distance[row + v.index()] = du + 1;
                        next_hop[row + v.index()] = u.index() as u32;
                        queue.push_back(v);
                    }
                }
            }
        }
        let cells = next_hop
            .iter()
            .zip(&distance)
            .map(|(&h, &d)| {
                if d == u32::MAX {
                    u64::UNREACHED
                } else if h == NO_HOP {
                    <u64 as PackedCell>::ROOT | u64::from(d)
                } else {
                    <u64 as PackedCell>::pack(h, d)
                }
            })
            .collect();
        RoutingTable {
            n,
            cells,
            graph: graph.clone(),
        }
    }

    /// The packed cell at `(src, dst)` after validating both endpoints.
    fn cell(&self, src: NodeId, dst: NodeId) -> Result<u64, Error> {
        for node in [src, dst] {
            if node.index() >= self.n {
                return Err(Error::NodeOutOfRange {
                    node,
                    node_count: self.n,
                });
            }
        }
        Ok(self.cells[dst.index() * self.n + src.index()])
    }
}

impl RoutingBackend for RoutingTable {
    fn node_count(&self) -> usize {
        self.n
    }

    fn try_next_link(&self, src: NodeId, dst: NodeId) -> Result<Option<Link>, Error> {
        let hop = self.cell(src, dst)?.hop();
        Ok((src != dst && hop != NO_HOP).then(|| {
            let next = NodeId::new(hop);
            let edge = self
                .graph
                .edge_between(src, next)
                .expect("next hop is adjacent");
            (next, edge)
        }))
    }

    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error> {
        let d = self.cell(src, dst)?.dist();
        Ok((d != u32::MAX).then_some(d))
    }

    fn backend_name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::hier::HierRouting;

    #[test]
    fn star_routes_through_hub() {
        let star = generators::star(5).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&star.graph);
        assert_eq!(rt.distance(1.into(), 2.into()), Some(2));
        assert_eq!(rt.distance(0.into(), 3.into()), Some(1));
        assert_eq!(
            rt.path(1.into(), 2.into()).unwrap(),
            vec![1.into(), 0.into(), 2.into()]
        );
    }

    #[test]
    fn self_route_is_trivial() {
        let g = generators::ring(5).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        assert_eq!(rt.distance(2.into(), 2.into()), Some(0));
        assert_eq!(rt.next_hop(2.into(), 2.into()), None);
        assert_eq!(rt.path(2.into(), 2.into()).unwrap(), vec![2.into()]);
    }

    #[test]
    fn disconnected_pairs_unreachable() {
        let mut g = crate::Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(2.into(), 3.into()).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        assert_eq!(rt.distance(0.into(), 2.into()), None);
        assert!(rt.path(0.into(), 2.into()).is_none());
        assert!(rt.next_hop(0.into(), 3.into()).is_none());
    }

    #[test]
    fn ring_distances() {
        let g = generators::ring(6).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        assert_eq!(rt.distance(0.into(), 3.into()), Some(3));
        assert_eq!(rt.distance(0.into(), 5.into()), Some(1));
    }

    #[test]
    fn paths_are_shortest() {
        let g = generators::barabasi_albert(200, 2, 5).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        for &(s, d) in &[(0usize, 150usize), (10, 42), (199, 3)] {
            let p = rt.path(s.into(), d.into()).unwrap();
            assert_eq!(p.len() as u32 - 1, rt.distance(s.into(), d.into()).unwrap());
            // Consecutive hops are adjacent.
            for w in p.windows(2) {
                assert!(g.neighbors(w[0]).contains(&w[1]));
            }
        }
    }

    #[test]
    fn star_link_loads_are_uniform() {
        let star = generators::star(4).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&star.graph);
        let loads = rt.link_loads(&star.graph);
        // Each leaf link carries: hub<->leaf (2 ordered pairs) plus
        // leaf<->each other leaf (2 * 3 ordered pairs) = 8.
        assert!(loads.iter().all(|&l| l == 8));
    }

    #[test]
    fn hub_links_carry_more_load_in_hierarchy() {
        let t = generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(4)
            .hosts_per_subnet(5)
            .build()
            .unwrap();
        let rt = RoutingTable::shortest_paths_serial(&t.graph);
        let loads = rt.link_loads(&t.graph);
        // The edge-router uplinks must beat any host access link.
        let uplink = t
            .graph
            .edge_between(t.edge_router(generators::SubnetId::new(0)), 0.into())
            .unwrap();
        let host = t.hosts_of(generators::SubnetId::new(0)).next().unwrap();
        let host_link = t
            .graph
            .edge_between(host, t.edge_router(generators::SubnetId::new(0)))
            .unwrap();
        assert!(loads[uplink.index()] > loads[host_link.index()]);
    }

    #[test]
    fn average_path_length_of_mesh_is_one() {
        let g = generators::full_mesh(6).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        assert!((rt.average_path_length() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn path_edges_match_path() {
        let g = generators::ring(8).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        let edges = rt.path_edges(0.into(), 3.into());
        assert_eq!(edges.len(), 3);
        assert!(rt.path_edges(2.into(), 2.into()).is_empty());
    }

    #[test]
    fn diameter_of_standard_graphs() {
        let star = generators::star(6).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&star.graph);
        assert_eq!(rt.diameter(), Some(2));
        let ring = generators::ring(8).unwrap();
        assert_eq!(
            RoutingTable::shortest_paths_serial(&ring).diameter(),
            Some(4)
        );
        let mesh = generators::full_mesh(5).unwrap();
        assert_eq!(
            RoutingTable::shortest_paths_serial(&mesh).diameter(),
            Some(1)
        );
        let lonely = crate::Graph::with_nodes(1);
        assert_eq!(
            RoutingTable::shortest_paths_serial(&lonely).diameter(),
            None
        );
    }

    #[test]
    fn power_law_graphs_have_small_diameter() {
        let g = generators::barabasi_albert(500, 2, 11).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        let d = rt.diameter().unwrap();
        // Small-world: diameter grows ~log n.
        assert!(d <= 12, "diameter {d}");
        assert!(rt.average_path_length() < d as f64);
    }

    #[test]
    fn try_accessors_return_typed_errors() {
        let g = generators::ring(4).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        let bad = NodeId::new(99);
        assert_eq!(
            rt.try_next_hop(bad, 0.into()),
            Err(crate::Error::NodeOutOfRange {
                node: bad,
                node_count: 4
            })
        );
        assert!(rt.try_distance(0.into(), bad).is_err());
        assert!(rt.try_path(bad, bad).is_err());
        // In-range queries agree with the panicking accessors.
        assert_eq!(rt.try_next_hop(0.into(), 2.into()).unwrap(), rt.next_hop(0.into(), 2.into()));
        assert_eq!(rt.try_distance(0.into(), 2.into()).unwrap(), rt.distance(0.into(), 2.into()));
        assert_eq!(rt.try_path(0.into(), 2.into()).unwrap(), rt.path(0.into(), 2.into()));
    }

    #[test]
    #[should_panic(expected = "node out of range")]
    fn panicking_accessor_keeps_its_message() {
        let g = generators::ring(3).unwrap();
        let rt = RoutingTable::shortest_paths_serial(&g);
        rt.distance(NodeId::new(50), 0.into());
    }

    /// Asserts a backend agrees with the oracle cell-for-cell through the
    /// public accessors.
    fn assert_agrees_with_oracle(a: &dyn RoutingBackend, oracle: &RoutingTable, ctx: &str) {
        assert_eq!(a.node_count(), oracle.node_count(), "{ctx}: node count");
        let n = a.node_count();
        for dst in 0..n {
            for src in 0..n {
                let (s, d) = (NodeId::from(src), NodeId::from(dst));
                assert_eq!(
                    a.next_hop(s, d),
                    oracle.next_hop(s, d),
                    "{ctx}: hop {src}->{dst}"
                );
                assert_eq!(
                    a.distance(s, d),
                    oracle.distance(s, d),
                    "{ctx}: dist {src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial_oracle() {
        // A BA graph peels nothing, so hier's core table covers all of
        // it: this is the table build's thread-count invariance check.
        for (g, name) in [
            (generators::barabasi_albert(120, 2, 7).unwrap(), "ba"),
            (generators::star(30).unwrap().graph, "star"),
            (
                {
                    let mut g = crate::Graph::with_nodes(9);
                    g.add_edge(0.into(), 1.into()).unwrap();
                    g.add_edge(1.into(), 2.into()).unwrap();
                    g.add_edge(4.into(), 5.into()).unwrap();
                    g
                },
                "disconnected",
            ),
        ] {
            let oracle = RoutingTable::shortest_paths_serial(&g);
            for threads in [1usize, 3, 8] {
                let built = HierRouting::new_with(&g, &ParallelConfig::new(threads));
                assert_agrees_with_oracle(&built, &oracle, &format!("{name} @ {threads} threads"));
            }
        }
    }

    #[test]
    fn cell_width_follows_the_arc_count() {
        let pool = ParallelConfig::new(1);
        // 256 · 255 = 65,280 arcs index compact cells; 260 · 259 =
        // 67,340 do not.
        let width = |n| {
            let csr = Csr::from_graph(&generators::full_mesh(n).unwrap());
            match Cells::build(&csr, &pool) {
                Cells::Compact(_) => "compact",
                Cells::Wide(_) => "wide",
            }
        };
        assert_eq!(width(256), "compact");
        assert_eq!(width(260), "wide");
    }

    #[test]
    fn empty_graph_builds_an_empty_table() {
        let rt = RoutingTable::shortest_paths_serial(&crate::Graph::new());
        assert_eq!(rt.node_count(), 0);
        assert_eq!(rt.diameter(), None);
    }
}
