//! Two-level hierarchical routing for tree-fringed worlds.
//!
//! The paper's topology is a gateway backbone with intra-subnet stars
//! hanging off edge routers: almost every node is a *pendant* — it sits
//! in a tree whose only connection to the rest of the graph is a single
//! attachment point. [`HierRouting`] exploits that structure by peeling
//! the pendant trees off and keeping only:
//!
//! * a **dense core table** over the 2-edge-connected remainder (the
//!   backbone plus edge routers — a few hundred nodes where the full
//!   graph has a hundred thousand), and
//! * per-node **parent / parent edge / depth / anchor** arrays
//!   describing each pendant tree (`O(n)` total).
//!
//! A lookup composes the two levels: queries inside one tree walk the
//! parent pointers (the in-tree path is unique), queries across trees go
//! `src → src's anchor → core route → dst's anchor → dst` with the
//! distance `core_dist + depth(src) + depth(dst)`.
//!
//! # Bit-identity with the all-pairs table
//!
//! Every backend must reproduce the all-pairs BFS table's next hops
//! bit-exactly (the engine fingerprints depend on it). Two observations make the
//! composition exact rather than merely correct:
//!
//! 1. **Peeled trees cannot shortcut the core.** A pendant node's
//!    neighbors are exactly its tree parent and children, so removing
//!    the trees never removes a path between core nodes: a BFS over the
//!    induced core subgraph visits the same nodes at the same depths,
//!    in the same FIFO order, as the full-graph BFS restricted to the
//!    core — the induced adjacency preserves the parent graph's
//!    neighbor order (the shared-kernel tie-breaking rule), so parents
//!    match cell-for-cell.
//! 2. **A pendant destination anchors its BFS.** The BFS rooted at a
//!    pendant `dst` enters the core exactly once, through `dst`'s
//!    anchor; from there it expands through the core in the same
//!    relative order as a BFS rooted at the anchor itself. Hence the
//!    core table row for `anchor(dst)` already holds the correct next
//!    hops toward `dst` for every core source.
//!
//! In-tree queries need no tie-breaking at all: tree paths are unique,
//! so the next hop is forced. The differential suite
//! (`tests/routing_oracle.rs`) pins all of this against the serial
//! all-pairs oracle on every topology family, including disconnected
//! graphs.
//!
//! A graph with nothing to peel (minimum degree 2, such as the paper's
//! power-law worlds) keeps every node in the core, and the backend *is*
//! a dense all-pairs table behind an identity index map.

use crate::error::Error;
use crate::graph::{Csr, EdgeId, Graph, NodeId};
use crate::routing::{Cells, Link, RoutingBackend, NO_HOP};
use dynaquar_parallel::ParallelConfig;
use std::collections::VecDeque;

/// The outcome of iteratively peeling degree-1 nodes off a graph.
///
/// Peeling pops nodes in deterministic FIFO order (seeded ascending by
/// node id), so for a fixed graph the decomposition is unique.
#[derive(Debug)]
struct Peeled {
    /// Tree parent of each peeled node; [`NO_HOP`] for core nodes.
    parent: Vec<u32>,
    /// The edge to the tree parent; unused for core nodes.
    parent_edge: Vec<EdgeId>,
    /// `true` for nodes removed by the peel (pendant-tree members).
    removed: Vec<bool>,
    /// Peeled nodes in removal order (leaves before their parents).
    order: Vec<u32>,
}

/// Iteratively removes degree-1 nodes until none remain.
///
/// What survives is the graph's 2-edge-connected skeleton plus isolated
/// nodes — the *core*. Every removed node records the neighbor it hung
/// off as its tree parent.
fn peel(csr: &Csr) -> Peeled {
    let n = csr.node_count();
    let mut degree: Vec<u32> = (0..n).map(|u| csr.degree(u) as u32).collect();
    let mut parent = vec![NO_HOP; n];
    let mut parent_edge = vec![EdgeId::default(); n];
    let mut removed = vec![false; n];
    let mut order = Vec::new();
    let mut queue: VecDeque<u32> = (0..n as u32)
        .filter(|&u| degree[u as usize] == 1)
        .collect();
    while let Some(u) = queue.pop_front() {
        let ui = u as usize;
        // A queued node may have lost its last edge in the meantime
        // (e.g. both endpoints of an isolated edge are seeded); the
        // second one popped keeps degree 0 and stays core.
        if degree[ui] != 1 {
            continue;
        }
        let (arc, p) = (csr.first_arc(ui)..)
            .zip(csr.neighbors(ui).iter().copied())
            .find(|&(_, v)| !removed[v as usize])
            .expect("degree 1 implies an unremoved neighbor");
        parent[ui] = p;
        parent_edge[ui] = csr.link(arc).1;
        removed[ui] = true;
        order.push(u);
        degree[ui] = 0;
        degree[p as usize] -= 1;
        if degree[p as usize] == 1 {
            queue.push_back(p);
        }
    }
    Peeled {
        parent,
        parent_edge,
        removed,
        order,
    }
}

/// Two-level routing backend: dense core table + pendant-tree arrays.
///
/// Memory is `O(core² + n)` against a flat table's `O(n²)`; lookups
/// are `O(1)` across trees and `O(tree depth)` within one — for the
/// paper's star subnets that depth is ≤ 2.
///
/// # Example
///
/// ```
/// use dynaquar_topology::generators;
/// use dynaquar_topology::hier::HierRouting;
/// use dynaquar_topology::routing::{RoutingBackend, RoutingTable};
///
/// let t = generators::SubnetTopologyBuilder::new()
///     .backbone_routers(2)
///     .subnets(4)
///     .hosts_per_subnet(5)
///     .build()
///     .unwrap();
/// let hier = HierRouting::new(&t.graph);
/// let oracle = RoutingTable::shortest_paths_serial(&t.graph);
/// // Host stars peel, then the now-degree-1 edge routers peel too;
/// // the two backbone routers share one edge, so one of them peels
/// // as well and a single core node remains.
/// assert_eq!(hier.core_size(), 1);
/// for src in 0..t.graph.node_count() {
///     for dst in 0..t.graph.node_count() {
///         let (s, d) = (src.into(), dst.into());
///         assert_eq!(hier.next_hop(s, d), oracle.next_hop(s, d));
///     }
/// }
/// ```
#[derive(Debug)]
pub struct HierRouting {
    n: usize,
    /// Tree parent toward the core; [`NO_HOP`] for core nodes.
    parent: Vec<u32>,
    /// The edge to the tree parent; unused for core nodes.
    parent_edge: Vec<EdgeId>,
    /// Hops from the node to its anchor; 0 for core nodes.
    depth: Vec<u32>,
    /// The core node the pendant tree hangs off; self for core nodes.
    anchor: Vec<u32>,
    /// Position among the core nodes (ascending by id); `u32::MAX` for
    /// pendant nodes.
    core_index: Vec<u32>,
    /// The induced core subgraph in core-index space; its links name
    /// full-graph nodes and edges, so a decoded core cell needs no
    /// translation.
    core_csr: Csr,
    /// Dense all-pairs table over `core_csr`
    /// (`cells[dst_ci * core + src_ci]`).
    core_cells: Cells,
}

impl HierRouting {
    /// Builds the two-level structure for `graph` using the
    /// environment-sized pool for the core-table BFS fan-out.
    pub fn new(graph: &Graph) -> Self {
        Self::new_with(graph, &ParallelConfig::from_env())
    }

    /// [`HierRouting::new`] with an explicit pool size.
    pub fn new_with(graph: &Graph, pool: &ParallelConfig) -> Self {
        Self::with_core_limit(graph, usize::MAX, pool).expect("no core exceeds usize::MAX")
    }

    /// [`HierRouting::new_with`], unless more than `max_core` nodes
    /// survive the peel: then `None`, before any table is built. The
    /// decision costs the peel the build needs anyway, which is how
    /// [`RoutingKind::Auto`](crate::lazy::RoutingKind) picks between
    /// this backend and the lazy cache.
    pub fn with_core_limit(graph: &Graph, max_core: usize, pool: &ParallelConfig) -> Option<Self> {
        Self::from_csr_within(Csr::from_graph(graph), max_core, pool).ok()
    }

    /// [`HierRouting::with_core_limit`] over the graph's CSR snapshot; a
    /// refused core hands the snapshot back for the lazy backend.
    pub(crate) fn from_csr_within(
        csr: Csr,
        max_core: usize,
        pool: &ParallelConfig,
    ) -> Result<Self, Csr> {
        let n = csr.node_count();
        let peeled = peel(&csr);
        if n - peeled.order.len() > max_core {
            return Err(csr);
        }

        // Depth and anchor propagate root-to-leaf, i.e. in reverse
        // removal order: a node's parent is removed after it (or never),
        // so the reverse pass sees the parent finished first.
        let mut depth = vec![0u32; n];
        let mut anchor: Vec<u32> = (0..n as u32).collect();
        for &u in peeled.order.iter().rev() {
            let p = peeled.parent[u as usize] as usize;
            depth[u as usize] = depth[p] + 1;
            anchor[u as usize] = anchor[p];
        }

        let mut core_nodes = Vec::with_capacity(n - peeled.order.len());
        let mut core_index = vec![u32::MAX; n];
        for (u, slot) in core_index.iter_mut().enumerate() {
            if !peeled.removed[u] {
                *slot = core_nodes.len() as u32;
                core_nodes.push(u as u32);
            }
        }

        // Induced core subgraph in core-index space. Iterating
        // core_nodes ascending and filtering each adjacency list in
        // place preserves the parent graph's neighbor order — the
        // property the bit-identity argument leans on. Each kept arc
        // keeps its full-graph link.
        let mut offsets = Vec::with_capacity(core_nodes.len() + 1);
        let mut targets = Vec::new();
        let mut links = Vec::new();
        offsets.push(0);
        for &u in &core_nodes {
            let first = csr.first_arc(u as usize);
            for (arc, &v) in (first..).zip(csr.neighbors(u as usize)) {
                if !peeled.removed[v as usize] {
                    targets.push(core_index[v as usize]);
                    links.push(csr.link(arc));
                }
            }
            offsets.push(targets.len());
        }
        let core_csr = Csr::from_parts(offsets, targets, links);
        let core_cells = Cells::build(&core_csr, pool);

        Ok(HierRouting {
            n,
            parent: peeled.parent,
            parent_edge: peeled.parent_edge,
            depth,
            anchor,
            core_index,
            core_csr,
            core_cells,
        })
    }

    /// Number of core (unpeeled) nodes the core table covers.
    pub fn core_size(&self) -> usize {
        self.core_csr.node_count()
    }

    /// Validates that both endpoints exist.
    fn check_nodes(&self, src: NodeId, dst: NodeId) -> Result<(), Error> {
        for node in [src, dst] {
            if node.index() >= self.n {
                return Err(Error::NodeOutOfRange {
                    node,
                    node_count: self.n,
                });
            }
        }
        Ok(())
    }

    /// Core-table index of the ordered pair of *core* node ids.
    #[inline]
    fn core_idx(&self, src_core: u32, dst_core: u32) -> usize {
        let nc = self.core_csr.node_count();
        let (si, di) = (
            self.core_index[src_core as usize] as usize,
            self.core_index[dst_core as usize] as usize,
        );
        di * nc + si
    }

    /// The tree link from `u` up to its parent.
    #[inline]
    fn up_link(&self, u: usize) -> Link {
        (NodeId::new(self.parent[u]), self.parent_edge[u])
    }

    /// Hop count between two nodes of the same pendant tree (or its
    /// anchor), via the unique in-tree path: lift the deeper endpoint,
    /// then climb both to the meeting point.
    fn tree_distance(&self, s: usize, d: usize) -> u32 {
        let (mut u, mut v) = (s, d);
        let mut steps = 0u32;
        while self.depth[u] > self.depth[v] {
            u = self.parent[u] as usize;
            steps += 1;
        }
        while self.depth[v] > self.depth[u] {
            v = self.parent[v] as usize;
            steps += 1;
        }
        while u != v {
            u = self.parent[u] as usize;
            v = self.parent[v] as usize;
            steps += 2;
        }
        steps
    }
}

impl RoutingBackend for HierRouting {
    fn node_count(&self) -> usize {
        self.n
    }

    fn try_next_link(&self, src: NodeId, dst: NodeId) -> Result<Option<Link>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(None);
        }
        let (s, d) = (src.index(), dst.index());
        if self.anchor[s] == self.anchor[d] {
            // Same tree: the unique path either descends into the
            // subtree of a child of `s` that contains `d`, or climbs to
            // `s`'s parent.
            if self.depth[d] > self.depth[s] {
                let mut v = d;
                while self.depth[v] > self.depth[s] + 1 {
                    v = self.parent[v] as usize;
                }
                if self.parent[v] as usize == s {
                    return Ok(Some((NodeId::from(v), self.parent_edge[v])));
                }
            }
            return Ok(Some(self.up_link(s)));
        }
        // Across trees the route must traverse the core; reachability
        // is decided by the anchors' core cell.
        let idx = self.core_idx(self.anchor[s], self.anchor[d]);
        if self.core_cells.dist(idx) == u32::MAX {
            return Ok(None);
        }
        if self.depth[s] > 0 {
            // Pendant source: first leg climbs toward its anchor.
            return Ok(Some(self.up_link(s)));
        }
        // Core source: the core row for anchor(dst) already holds the
        // exact next link toward the pendant destination (see module
        // docs).
        Ok(self.core_cells.link(&self.core_csr, idx))
    }

    fn try_distance(&self, src: NodeId, dst: NodeId) -> Result<Option<u32>, Error> {
        self.check_nodes(src, dst)?;
        if src == dst {
            return Ok(Some(0));
        }
        let (s, d) = (src.index(), dst.index());
        if self.anchor[s] == self.anchor[d] {
            return Ok(Some(self.tree_distance(s, d)));
        }
        let idx = self.core_idx(self.anchor[s], self.anchor[d]);
        let cd = self.core_cells.dist(idx);
        if cd == u32::MAX {
            return Ok(None);
        }
        Ok(Some(cd + self.depth[s] + self.depth[d]))
    }

    fn backend_name(&self) -> &'static str {
        "hier"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::routing::RoutingTable;

    /// Exhaustive ordered-pair agreement with the serial oracle.
    fn assert_matches_oracle(graph: &Graph, ctx: &str) {
        let hier = HierRouting::new(graph);
        let oracle = RoutingTable::shortest_paths_serial(graph);
        let n = graph.node_count();
        for dst in 0..n {
            for src in 0..n {
                let (s, d) = (NodeId::from(src), NodeId::from(dst));
                assert_eq!(
                    hier.next_hop(s, d),
                    oracle.next_hop(s, d),
                    "{ctx}: hop {src}->{dst}"
                );
                assert_eq!(
                    hier.distance(s, d),
                    oracle.distance(s, d),
                    "{ctx}: dist {src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn subnet_topology_peels_to_backbone() {
        let t = generators::SubnetTopologyBuilder::new()
            .backbone_routers(3)
            .subnets(6)
            .hosts_per_subnet(8)
            .build()
            .unwrap();
        let hier = HierRouting::new(&t.graph);
        // Host stars peel first, which drops every edge router to
        // degree 1 so they peel too; the backbone ring survives.
        assert_eq!(hier.core_size(), 3);
        assert_matches_oracle(&t.graph, "subnet");
    }

    #[test]
    fn pure_tree_peels_to_a_single_core_node() {
        let star = generators::star(7).unwrap();
        let hier = HierRouting::new(&star.graph);
        assert_eq!(hier.core_size(), 1);
        assert_matches_oracle(&star.graph, "star");
    }

    #[test]
    fn cycle_heavy_graph_keeps_everything_in_core() {
        // BA with m=2 has minimum degree 2: nothing peels, and the
        // backend is an all-pairs table behind an index map.
        let g = generators::barabasi_albert(60, 2, 3).unwrap();
        let hier = HierRouting::new(&g);
        assert_eq!(hier.core_size(), 60);
        assert_matches_oracle(&g, "ba");
    }

    #[test]
    fn disconnected_components_and_isolated_nodes() {
        // Two components (one with a pendant chain) + an isolated edge
        // + an isolated node.
        let mut g = Graph::with_nodes(10);
        // Triangle 0-1-2 with chain 2-3-4.
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(1.into(), 2.into()).unwrap();
        g.add_edge(2.into(), 0.into()).unwrap();
        g.add_edge(2.into(), 3.into()).unwrap();
        g.add_edge(3.into(), 4.into()).unwrap();
        // Isolated edge 5-6 (both seeded degree-1; second stays core).
        g.add_edge(5.into(), 6.into()).unwrap();
        // Path 7-8-9 (peels to its middle node).
        g.add_edge(7.into(), 8.into()).unwrap();
        g.add_edge(8.into(), 9.into()).unwrap();
        assert_matches_oracle(&g, "disconnected");
        let hier = HierRouting::new(&g);
        assert_eq!(hier.distance(4.into(), 7.into()), None);
        assert_eq!(hier.next_hop(5.into(), 9.into()), None);
        assert_eq!(hier.distance(4.into(), 0.into()), Some(3));
    }

    #[test]
    fn deep_pendant_chains_route_within_one_tree()
    {
        // Core triangle with two chains off node 0: 3-4-5 and 6-7.
        let mut g = Graph::with_nodes(8);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(1.into(), 2.into()).unwrap();
        g.add_edge(2.into(), 0.into()).unwrap();
        g.add_edge(0.into(), 3.into()).unwrap();
        g.add_edge(3.into(), 4.into()).unwrap();
        g.add_edge(4.into(), 5.into()).unwrap();
        g.add_edge(0.into(), 6.into()).unwrap();
        g.add_edge(6.into(), 7.into()).unwrap();
        let hier = HierRouting::new(&g);
        assert_eq!(hier.core_size(), 3);
        // Cross-branch query within one anchor's tree: 5 -> 7 meets at 0.
        assert_eq!(hier.distance(5.into(), 7.into()), Some(5));
        assert_eq!(hier.next_hop(5.into(), 7.into()), Some(4.into()));
        // Descending query: anchor toward a leaf.
        assert_eq!(hier.next_hop(0.into(), 5.into()), Some(3.into()));
        assert_matches_oracle(&g, "chains");
    }

    #[test]
    fn core_limit_refuses_only_oversized_cores() {
        let t = generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(5)
            .hosts_per_subnet(10)
            .build()
            .unwrap();
        let pool = ParallelConfig::new(1);
        let core = HierRouting::new(&t.graph).core_size();
        let at_limit = HierRouting::with_core_limit(&t.graph, core, &pool).expect("fits");
        assert_eq!(at_limit.core_size(), core);
        let ba = generators::barabasi_albert(40, 2, 5).unwrap();
        assert!(HierRouting::with_core_limit(&ba, 39, &pool).is_none());
        assert_eq!(
            HierRouting::with_core_limit(&ba, 40, &pool)
                .unwrap()
                .core_size(),
            40
        );
        let lonely = Graph::with_nodes(3);
        assert_eq!(HierRouting::new(&lonely).core_size(), 3);
    }

    #[test]
    fn empty_graph() {
        let hier = HierRouting::new(&Graph::new());
        assert_eq!(hier.node_count(), 0);
        assert_eq!(hier.core_size(), 0);
    }

    #[test]
    fn out_of_range_queries_error() {
        let g = generators::star(4).unwrap().graph;
        let hier = HierRouting::new(&g);
        let bad = NodeId::new(50);
        assert!(hier.try_next_hop(bad, 0.into()).is_err());
        assert!(hier.try_distance(0.into(), bad).is_err());
        assert_eq!(
            hier.try_next_hop(1.into(), 2.into()).unwrap(),
            Some(0.into())
        );
    }
}
