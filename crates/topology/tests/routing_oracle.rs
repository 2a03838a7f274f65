//! The differential routing-oracle suite.
//!
//! Every routing backend in the crate must return **bit-identical**
//! next hops, links, distances, and paths to the original serial
//! all-pairs construction ([`RoutingTable::shortest_paths_serial`]) —
//! the oracle no optimization is allowed to touch. The oracle answers a
//! link's edge from the graph's edge map, so the link check pins every
//! backend's CSR link arrays against it. Under test here:
//!
//! * the two-level [`HierRouting`] composition, its core table built at
//!   1 and 3 workers (packed cells, batched CSR kernel), and
//! * [`LazyRouting`] with a deliberately undersized cache (both the
//!   single-shard and sharded configurations).
//!
//! Agreement is exact — the same parent, not merely *a* shortest-path
//! parent — because every construction reproduces the same BFS
//! (rooted at the destination, neighbors in adjacency order, parents
//! on first discovery). Checked across every graph family the repo
//! generates: star, Barabási–Albert, Waxman, GLP, hierarchical
//! subnet worlds, and disconnected multi-component graphs, over every
//! ordered `(src, dst)` pair on small worlds and a deterministic pair
//! sample on large ones.

use dynaquar_parallel::ParallelConfig;
use dynaquar_topology::generators::{self, SubnetTopologyBuilder};
use dynaquar_topology::generators_extra::{glp, waxman};
use dynaquar_topology::hier::HierRouting;
use dynaquar_topology::lazy::{LazyRouting, SHARD_THRESHOLD};
use dynaquar_topology::routing::{RoutingBackend, RoutingTable};
use dynaquar_topology::{Graph, NodeId};
use proptest::prelude::*;

/// Every backend under test, freshly built over `g`.
///
/// The lazy cache capacity is forced far below the node count so the
/// pair sweep (destination-inner — the worst access order for a
/// per-destination cache) keeps evicting and recomputing; a second
/// lazy instance runs at [`SHARD_THRESHOLD`] to cover the sharded
/// LRU path.
fn backends_under_test(g: &Graph) -> Vec<(&'static str, Box<dyn RoutingBackend>)> {
    let n = g.node_count();
    vec![
        (
            "hier@1",
            Box::new(HierRouting::new_with(g, &ParallelConfig::new(1))),
        ),
        (
            "hier@3",
            Box::new(HierRouting::new_with(g, &ParallelConfig::new(3))),
        ),
        (
            "lazy-small",
            Box::new(LazyRouting::new(g, (n / 8).max(2))),
        ),
        (
            "lazy-sharded",
            Box::new(LazyRouting::new(g, SHARD_THRESHOLD)),
        ),
    ]
}

/// Asserts oracle agreement on one ordered pair: next hop, next link,
/// distance, and (when `check_path`) the full hop-by-hop path.
fn assert_pair_agrees(
    oracle: &RoutingTable,
    name: &str,
    backend: &dyn RoutingBackend,
    s: NodeId,
    d: NodeId,
    check_path: bool,
) {
    let hop = backend.try_next_hop(s, d).unwrap();
    assert_eq!(
        oracle.try_next_hop(s, d).unwrap(),
        hop,
        "{name}: next_hop({s}, {d}) diverged"
    );
    assert_eq!(
        oracle.try_next_link(s, d).unwrap(),
        backend.try_next_link(s, d).unwrap(),
        "{name}: next_link({s}, {d}) diverged"
    );
    let dist = backend.try_distance(s, d).unwrap();
    assert_eq!(
        oracle.try_distance(s, d).unwrap(),
        dist,
        "{name}: distance({s}, {d}) diverged"
    );
    // Internal consistency: unreachable in one metric means
    // unreachable in the other (src == dst has no hop but distance 0).
    if s != d {
        assert_eq!(hop.is_none(), dist.is_none(), "{name}: metrics disagree");
    }
    if check_path {
        assert_eq!(
            oracle.try_path(s, d).unwrap(),
            backend.try_path(s, d).unwrap(),
            "{name}: path({s}, {d}) diverged"
        );
    }
}

/// Sweeps **every ordered pair** of `g` against the serial oracle for
/// every backend. Paths are walked on a strided subset of pairs — the
/// hop-by-hop walk is already pinned pointwise by the next-hop check,
/// so the full-path comparison is a belt-and-braces closure test.
fn assert_all_pairs_agree(g: &Graph) {
    let n = g.node_count();
    let oracle = RoutingTable::shortest_paths_serial(g);
    for (name, backend) in backends_under_test(g) {
        assert_eq!(backend.node_count(), n, "{name}: node count");
        for src in 0..n {
            for dst in 0..n {
                let (s, d) = (NodeId::new(src as u32), NodeId::new(dst as u32));
                let check_path = (src + dst) % 17 == 0;
                assert_pair_agrees(&oracle, name, backend.as_ref(), s, d, check_path);
            }
        }
    }
}

/// Sweeps a deterministic sample of ordered pairs on a large graph:
/// every pair whose indices fall on coprime strides, plus the
/// diagonal's neighborhood. Used where the full `n²` sweep would
/// dominate the suite's runtime.
fn assert_sampled_pairs_agree(g: &Graph, samples: usize) {
    let n = g.node_count();
    let oracle = RoutingTable::shortest_paths_serial(g);
    for (name, backend) in backends_under_test(g) {
        for i in 0..samples {
            // Coprime multipliers walk the pair space without an RNG,
            // so failures replay exactly.
            let src = (i * 7919) % n;
            let dst = (i * 104_729 + 13) % n;
            let (s, d) = (NodeId::new(src as u32), NodeId::new(dst as u32));
            assert_pair_agrees(&oracle, name, backend.as_ref(), s, d, i % 11 == 0);
        }
    }
}

/// Two independent Barabási–Albert components in one graph: every
/// cross-component pair must report unreachable (`None`) from every
/// backend.
fn two_component_graph(n_a: usize, n_b: usize, seed: u64) -> Graph {
    let a = generators::barabasi_albert(n_a, 1, seed).unwrap();
    let b = generators::barabasi_albert(n_b, 1, seed.wrapping_add(1)).unwrap();
    let mut g = Graph::with_nodes(n_a + n_b);
    for (_, u, v) in a.edges() {
        g.add_edge(u, v).unwrap();
    }
    for (_, u, v) in b.edges() {
        g.add_edge(
            NodeId::new((u.index() + n_a) as u32),
            NodeId::new((v.index() + n_a) as u32),
        )
        .unwrap();
    }
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stars: the hub is on every leaf-to-leaf path, and the whole
    /// graph peels to a single hier core node.
    #[test]
    fn star_matches_oracle(leaves in 1usize..120) {
        assert_all_pairs_agree(&generators::star(leaves).unwrap().graph);
    }

    /// Barabási–Albert power-law graphs. With m = 1 the graph is a
    /// tree (everything peels); with m ≥ 2 nothing peels and hier
    /// degenerates to its core table.
    #[test]
    fn barabasi_albert_matches_oracle(
        n in 10usize..=160,
        m in 1usize..=3,
        seed in 0u64..500,
    ) {
        assert_all_pairs_agree(&generators::barabasi_albert(n, m.min(n - 1), seed).unwrap());
    }

    /// Waxman random geometric graphs — irregular degree mix, often
    /// disconnected at low alpha, partial peels.
    #[test]
    fn waxman_matches_oracle(
        n in 20usize..=120,
        alpha in 0.05f64..0.8,
        seed in 0u64..500,
    ) {
        assert_all_pairs_agree(&waxman(n, alpha, 0.2, seed).unwrap());
    }

    /// GLP power-law graphs (the paper's AS-level generator family).
    #[test]
    fn glp_matches_oracle(n in 10usize..=120, seed in 0u64..500) {
        assert_all_pairs_agree(&glp(n, 2.min(n - 1), 0.5, seed).unwrap());
    }

    /// Hierarchical backbone/subnet topologies — the hier backend's
    /// home turf: host stars and edge routers peel, the backbone
    /// ring is the core.
    #[test]
    fn hierarchical_matches_oracle(
        backbone in 1usize..=4,
        subnets in 1usize..=8,
        hosts in 1usize..=5,
    ) {
        let topo = SubnetTopologyBuilder::new()
            .backbone_routers(backbone)
            .subnets(subnets)
            .hosts_per_subnet(hosts)
            .build()
            .unwrap();
        assert_all_pairs_agree(&topo.graph);
    }

    /// Disconnected graphs: unreachable pairs answer `None` from every
    /// backend, reachable pairs stay identical.
    #[test]
    fn disconnected_matches_oracle(
        n_a in 2usize..=50,
        n_b in 2usize..=50,
        seed in 0u64..500,
    ) {
        let g = two_component_graph(n_a, n_b, seed);
        assert_all_pairs_agree(&g);
        // Spot-check the cross-component contract explicitly on both
        // backends.
        let (a0, b0) = (NodeId::new(0), NodeId::new(n_a as u32));
        let lazy = LazyRouting::new(&g, 4);
        prop_assert_eq!(lazy.try_next_hop(a0, b0).unwrap(), None);
        prop_assert_eq!(lazy.try_distance(b0, a0).unwrap(), None);
        let hier = HierRouting::new(&g);
        prop_assert_eq!(hier.try_next_hop(a0, b0).unwrap(), None);
        prop_assert_eq!(hier.try_distance(b0, a0).unwrap(), None);
    }
}

/// A production-shaped hierarchical world (n = 2048: 8 backbone, 40
/// subnets × 50 hosts) swept on sampled pairs.
#[test]
fn large_subnet_world_matches_oracle_on_sampled_pairs() {
    let topo = SubnetTopologyBuilder::new()
        .backbone_routers(8)
        .subnets(40)
        .hosts_per_subnet(50)
        .build()
        .unwrap();
    assert_eq!(topo.graph.node_count(), 2048);
    assert_sampled_pairs_agree(&topo.graph, 1500);
}

/// A core with more arcs than compact cells can index (`full_mesh(260)`
/// has 67,340), so hier's core table falls back to wide cells; swept on
/// sampled pairs.
#[test]
fn dense_core_beyond_compact_cells_matches_oracle_on_sampled_pairs() {
    let g = generators::full_mesh(260).unwrap();
    assert_eq!(2 * g.edge_count(), 67_340);
    assert_sampled_pairs_agree(&g, 600);
}

/// A large flat power-law graph (nothing peels; hier core == graph)
/// swept on sampled pairs.
#[test]
fn large_power_law_matches_oracle_on_sampled_pairs() {
    let g = generators::barabasi_albert(1500, 2, 42).unwrap();
    assert_sampled_pairs_agree(&g, 1200);
}
