//! Simple undirected graph with stable node and edge ids.

use crate::error::Error;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a node in a [`Graph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The node's index into dense per-node arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(u32::try_from(v).expect("node index exceeds u32::MAX"))
    }
}

impl From<i32> for NodeId {
    /// Converts an untyped integer literal (ergonomics for tests and
    /// examples: `g.add_edge(0.into(), 1.into())`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is negative.
    fn from(v: i32) -> Self {
        NodeId(u32::try_from(v).expect("node index must be non-negative"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected edge in a [`Graph`].
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct EdgeId(u32);

impl EdgeId {
    /// Creates an edge id from a raw index.
    pub fn new(index: u32) -> Self {
        EdgeId(index)
    }

    /// The edge's index into dense per-edge arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// A simple (no self-loops, no parallel edges) undirected graph.
///
/// Nodes are dense `0..node_count()` indices; edges get stable
/// [`EdgeId`]s in insertion order, which the simulator uses to attach
/// per-link rate limiters.
///
/// # Example
///
/// ```
/// use dynaquar_topology::Graph;
///
/// # fn main() -> Result<(), dynaquar_topology::Error> {
/// let mut g = Graph::with_nodes(3);
/// g.add_edge(0.into(), 1.into())?;
/// g.add_edge(1.into(), 2.into())?;
/// assert_eq!(g.degree(1.into()), 2);
/// assert!(g.is_connected());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    endpoints: Vec<(NodeId, NodeId)>,
    #[serde(skip)]
    edge_lookup: HashMap<(u32, u32), EdgeId>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            endpoints: Vec::new(),
            edge_lookup: HashMap::new(),
        }
    }

    /// Adds a node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from(self.adjacency.len());
        self.adjacency.push(Vec::new());
        id
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len()).map(NodeId::from)
    }

    /// Iterates over all edges as `(EdgeId, a, b)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, NodeId, NodeId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (EdgeId::new(i as u32), a, b))
    }

    fn check_node(&self, node: NodeId) -> Result<(), Error> {
        if node.index() >= self.adjacency.len() {
            return Err(Error::NodeOutOfRange {
                node,
                node_count: self.adjacency.len(),
            });
        }
        Ok(())
    }

    fn canonical(a: NodeId, b: NodeId) -> (u32, u32) {
        let (x, y) = (a.index() as u32, b.index() as u32);
        if x < y {
            (x, y)
        } else {
            (y, x)
        }
    }

    /// Adds an undirected edge between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::NodeOutOfRange`] for unknown nodes,
    /// [`Error::SelfLoop`] when `a == b`, and [`Error::DuplicateEdge`]
    /// when the edge already exists.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> Result<EdgeId, Error> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(Error::SelfLoop { node: a });
        }
        let key = Self::canonical(a, b);
        if self.edge_lookup.contains_key(&key) {
            return Err(Error::DuplicateEdge { a, b });
        }
        let id = EdgeId::new(self.endpoints.len() as u32);
        self.endpoints.push((a, b));
        self.edge_lookup.insert(key, id);
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
        Ok(id)
    }

    /// The neighbors of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adjacency[node.index()]
    }

    /// The degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency[node.index()].len()
    }

    /// Looks up the edge between `a` and `b`, if present.
    pub fn edge_between(&self, a: NodeId, b: NodeId) -> Option<EdgeId> {
        self.edge_lookup.get(&Self::canonical(a, b)).copied()
    }

    /// The endpoints of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if `edge` is out of range.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        self.endpoints[edge.index()]
    }

    /// Whether the graph is connected (trivially true for 0 or 1 nodes).
    pub fn is_connected(&self) -> bool {
        let n = self.node_count();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == n
    }

    /// Rebuilds the internal edge lookup (used after deserialization,
    /// which skips the derived map).
    pub fn rebuild_lookup(&mut self) {
        self.edge_lookup = self
            .endpoints
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| (Self::canonical(a, b), EdgeId::new(i as u32)))
            .collect();
    }
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        self.adjacency == other.adjacency && self.endpoints == other.endpoints
    }
}

/// Compressed-sparse-row snapshot of a [`Graph`]'s adjacency.
///
/// Every routing backend runs its BFS over this layout: two flat arrays
/// (`offsets`, `targets`) replace the per-node `Vec<NodeId>` pointer
/// chase, so a BFS touches one contiguous slice per node instead of a
/// heap allocation per node. **Neighbor order is preserved exactly** —
/// `neighbors(u)` yields the same sequence as [`Graph::neighbors`] —
/// which is what keeps CSR-based BFS bit-identical to the adjacency-list
/// BFS the routing equivalence contract is written against.
///
/// Each adjacency entry is an *arc* `a` (`u → v`) with a flat index
/// into `targets`. Alongside its target, every arc carries its *link*:
/// the source `u` and the [`EdgeId`] it crosses, so code holding an arc
/// index reaches both the node and the link in one read, without the
/// graph's edge hash map.
///
/// The snapshot is derived (never serialized); [`Graph`]'s adjacency-list
/// representation and serde format are unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[u]..offsets[u + 1]` indexes `targets` for node `u`
    /// (length `n + 1`).
    offsets: Vec<usize>,
    /// Neighbor node indices, concatenated in adjacency order.
    targets: Vec<u32>,
    /// Per arc: its source node and the edge it crosses.
    links: Vec<(NodeId, EdgeId)>,
}

impl Csr {
    /// Builds the CSR snapshot of `graph`, preserving adjacency order.
    ///
    /// # Panics
    ///
    /// Panics if the adjacency lists are not in edge-insertion order
    /// (only a hand-edited serialized graph can break that).
    pub fn from_graph(graph: &Graph) -> Self {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * graph.edge_count());
        offsets.push(0);
        for u in 0..n {
            for &v in &graph.adjacency[u] {
                targets.push(v.index() as u32);
            }
            offsets.push(targets.len());
        }
        // Adjacency order is edge-insertion order, so edge `(a, b)`
        // owns the next unfilled arc of `a` and the next of `b`: one
        // pass fills every link, using each node's start offset as its
        // cursor. The cursor of `u` ends on the start of `u + 1`, so one
        // shift restores the offsets.
        assert_eq!(
            targets.len(),
            2 * graph.edge_count(),
            "adjacency lists match the edges"
        );
        let mut links = vec![(NodeId::default(), EdgeId::default()); targets.len()];
        for (e, a, b) in graph.edges() {
            for (u, v) in [(a, b), (b, a)] {
                let arc = offsets[u.index()];
                offsets[u.index()] += 1;
                assert_eq!(
                    targets[arc] as usize,
                    v.index(),
                    "adjacency of {u} is out of edge order at {e}"
                );
                links[arc] = (u, e);
            }
        }
        offsets.rotate_right(1);
        offsets[0] = 0;
        Csr {
            offsets,
            targets,
            links,
        }
    }

    /// Assembles a CSR from prebuilt arrays (`offsets.len() == n + 1`,
    /// monotone, bounded by `targets.len()`, one link per target). Used
    /// for induced subgraphs whose neighbor order must mirror the
    /// parent graph's; their links may name the parent graph's nodes
    /// and edges.
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        targets: Vec<u32>,
        links: Vec<(NodeId, EdgeId)>,
    ) -> Self {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(*offsets.last().unwrap(), targets.len());
        debug_assert_eq!(links.len(), targets.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Csr {
            offsets,
            targets,
            links,
        }
    }

    /// Number of nodes the snapshot covers.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total directed adjacency entries (`2 · edge_count`).
    pub fn entry_count(&self) -> usize {
        self.targets.len()
    }

    /// The neighbors of node `u`, in the graph's adjacency order.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.targets[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Index of node `u`'s first arc: `neighbors(u)[i]` is the target
    /// of arc `first_arc(u) + i`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    #[inline]
    pub(crate) fn first_arc(&self, u: usize) -> usize {
        self.offsets[u]
    }

    /// The link of arc `arc`: its source node and the edge it crosses.
    ///
    /// # Panics
    ///
    /// Panics if `arc` is out of range.
    #[inline]
    pub(crate) fn link(&self, arc: usize) -> (NodeId, EdgeId) {
        self.links[arc]
    }

    /// The degree of node `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is out of range.
    pub fn degree(&self, u: usize) -> usize {
        self.offsets[u + 1] - self.offsets[u]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(1.into(), 2.into()).unwrap();
        g.add_edge(2.into(), 0.into()).unwrap();
        g
    }

    #[test]
    fn node_and_edge_counts() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
    }

    #[test]
    fn add_node_returns_sequential_ids() {
        let mut g = Graph::new();
        assert_eq!(g.add_node(), NodeId::new(0));
        assert_eq!(g.add_node(), NodeId::new(1));
    }

    #[test]
    fn rejects_self_loop_and_duplicates() {
        let mut g = Graph::with_nodes(2);
        assert_eq!(
            g.add_edge(0.into(), 0.into()),
            Err(Error::SelfLoop { node: 0.into() })
        );
        g.add_edge(0.into(), 1.into()).unwrap();
        // Same direction and reversed are both duplicates.
        assert!(g.add_edge(0.into(), 1.into()).is_err());
        assert!(g.add_edge(1.into(), 0.into()).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        let mut g = Graph::with_nodes(2);
        assert!(matches!(
            g.add_edge(0.into(), 5.into()),
            Err(Error::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn neighbors_are_symmetric() {
        let g = triangle();
        for (_, a, b) in g.edges() {
            assert!(g.neighbors(a).contains(&b));
            assert!(g.neighbors(b).contains(&a));
        }
    }

    #[test]
    fn edge_between_is_direction_agnostic() {
        let g = triangle();
        let e = g.edge_between(0.into(), 1.into()).unwrap();
        assert_eq!(g.edge_between(1.into(), 0.into()), Some(e));
        assert!(g.edge_between(0.into(), 2.into()).is_some());
        let mut g2 = Graph::with_nodes(3);
        g2.add_edge(0.into(), 1.into()).unwrap();
        assert!(g2.edge_between(0.into(), 2.into()).is_none());
    }

    #[test]
    fn endpoints_roundtrip() {
        let g = triangle();
        for (id, a, b) in g.edges() {
            assert_eq!(g.endpoints(id), (a, b));
        }
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_connected());
        assert!(Graph::new().is_connected());
        assert!(Graph::with_nodes(1).is_connected());
        let mut g = Graph::with_nodes(4);
        g.add_edge(0.into(), 1.into()).unwrap();
        g.add_edge(2.into(), 3.into()).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn rebuild_lookup_restores_edge_between() {
        let mut g = triangle();
        g.edge_lookup.clear();
        assert!(g.edge_between(0.into(), 1.into()).is_none());
        g.rebuild_lookup();
        assert!(g.edge_between(0.into(), 1.into()).is_some());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::new(3).to_string(), "n3");
        assert_eq!(EdgeId::new(4).to_string(), "e4");
    }

    #[test]
    fn equality_ignores_lookup() {
        let a = triangle();
        let mut b = triangle();
        b.edge_lookup.clear();
        assert_eq!(a, b);
    }

    #[test]
    fn csr_preserves_adjacency_order() {
        let g = triangle();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.node_count(), 3);
        assert_eq!(csr.entry_count(), 6);
        for u in 0..3 {
            let expected: Vec<u32> = g
                .neighbors(NodeId::from(u))
                .iter()
                .map(|v| v.index() as u32)
                .collect();
            assert_eq!(csr.neighbors(u), expected.as_slice());
            assert_eq!(csr.degree(u), g.degree(NodeId::from(u)));
        }
    }

    #[test]
    fn csr_links_match_edge_between() {
        let mut g = crate::generators::barabasi_albert(60, 2, 4).unwrap();
        // An isolated node owns no arcs.
        g.add_node();
        let csr = Csr::from_graph(&g);
        for u in 0..g.node_count() {
            for (i, &v) in csr.neighbors(u).iter().enumerate() {
                let (source, edge) = csr.link(csr.first_arc(u) + i);
                assert_eq!(source, NodeId::from(u));
                assert_eq!(Some(edge), g.edge_between(source, NodeId::new(v)));
            }
        }
    }

    #[test]
    fn csr_handles_isolated_nodes_and_empty_graphs() {
        let csr = Csr::from_graph(&Graph::new());
        assert_eq!(csr.node_count(), 0);
        let mut g = Graph::with_nodes(3);
        g.add_edge(0.into(), 2.into()).unwrap();
        let csr = Csr::from_graph(&g);
        assert_eq!(csr.neighbors(1), &[] as &[u32]);
        assert_eq!(csr.neighbors(0), &[2]);
        assert_eq!(csr.neighbors(2), &[0]);
    }
}
