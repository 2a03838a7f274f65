//! Property-based tests on graphs, generators, routing, and coverage.

use dynaquar_topology::generators;
use dynaquar_topology::generators_extra::{glp, waxman};
use dynaquar_topology::paths::node_coverage;
use dynaquar_topology::roles::{assign_by_degree, nodes_with_role, Role};
use dynaquar_topology::NodeId;
use dynaquar_topology::{HierRouting, RoutingBackend};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// BFS distances are symmetric on undirected graphs.
    #[test]
    fn distances_are_symmetric(seed in 0u64..300) {
        let g = generators::barabasi_albert(50, 2, seed).unwrap();
        let rt = HierRouting::new(&g);
        for a in 0..50usize {
            for b in (a + 1)..50 {
                prop_assert_eq!(
                    rt.distance(a.into(), b.into()),
                    rt.distance(b.into(), a.into())
                );
            }
        }
    }

    /// The triangle inequality holds for BFS distances.
    #[test]
    fn triangle_inequality(seed in 0u64..100) {
        let g = generators::barabasi_albert(40, 2, seed).unwrap();
        let rt = HierRouting::new(&g);
        let d = |a: usize, b: usize| rt.distance(a.into(), b.into()).unwrap();
        for (a, b, c) in [(0usize, 10usize, 20usize), (5, 15, 35), (1, 2, 39)] {
            prop_assert!(d(a, c) <= d(a, b) + d(b, c));
        }
    }

    /// Link loads sum to total path hops: sum(loads) = sum over ordered
    /// pairs of distance.
    #[test]
    fn link_loads_account_for_all_hops(seed in 0u64..100) {
        let g = generators::barabasi_albert(30, 2, seed).unwrap();
        let rt = HierRouting::new(&g);
        let loads = rt.link_loads(&g);
        let total_load: u64 = loads.iter().sum();
        let mut total_hops = 0u64;
        for a in 0..30usize {
            for b in 0..30usize {
                if a != b {
                    total_hops += u64::from(rt.distance(a.into(), b.into()).unwrap());
                }
            }
        }
        prop_assert_eq!(total_load, total_hops);
    }

    /// Coverage is within [0, 1], zero for no filters, one when every
    /// node is filtered (paths of length >= 2 exist in stars).
    #[test]
    fn coverage_bounds(seed in 0u64..100, backbone_frac in 0.01..0.3f64) {
        let g = generators::barabasi_albert(60, 2, seed).unwrap();
        let rt = HierRouting::new(&g);
        let roles = assign_by_degree(&g, backbone_frac, 0.1);
        let hosts = nodes_with_role(&roles, Role::EndHost);
        let filters = nodes_with_role(&roles, Role::Backbone);
        let alpha = node_coverage(&rt, &hosts, &filters, false);
        prop_assert!((0.0..=1.0).contains(&alpha));
        prop_assert_eq!(node_coverage(&rt, &hosts, &[], false), 0.0);
        let everything: Vec<NodeId> = g.nodes().collect();
        let full = node_coverage(&rt, &hosts, &everything, true);
        prop_assert_eq!(full, 1.0);
    }

    /// Waxman graphs are connected simple graphs for any seed.
    #[test]
    fn waxman_invariants(seed in 0u64..200, alpha in 0.05..0.8f64) {
        let g = waxman(60, alpha, 0.2, seed).unwrap();
        prop_assert!(g.is_connected());
        prop_assert_eq!(g.node_count(), 60);
        for node in g.nodes() {
            let mut nbs: Vec<NodeId> = g.neighbors(node).to_vec();
            nbs.sort_unstable();
            nbs.dedup();
            prop_assert_eq!(nbs.len(), g.degree(node));
            prop_assert!(!nbs.contains(&node));
        }
    }

    /// GLP preserves the BA edge-count formula and connectivity.
    #[test]
    fn glp_invariants(seed in 0u64..200, beta in -2.0..0.9f64) {
        let g = glp(80, 2, beta, seed).unwrap();
        prop_assert_eq!(g.edge_count(), 3 + 77 * 2);
        prop_assert!(g.is_connected());
    }

    /// Degree-ranked role assignment always produces the requested
    /// counts, whatever the graph.
    #[test]
    fn role_counts_exact(seed in 0u64..100) {
        let g = generators::barabasi_albert(100, 2, seed).unwrap();
        let roles = assign_by_degree(&g, 0.05, 0.10);
        prop_assert_eq!(roles.iter().filter(|r| **r == Role::Backbone).count(), 5);
        prop_assert_eq!(roles.iter().filter(|r| **r == Role::EdgeRouter).count(), 10);
    }

    /// Edge-list export/import is the identity.
    #[test]
    fn edge_list_roundtrip(seed in 0u64..100) {
        use dynaquar_topology::export::{from_edge_list, to_edge_list};
        let g = generators::barabasi_albert(40, 2, seed).unwrap();
        let round = from_edge_list(&to_edge_list(&g)).unwrap();
        prop_assert_eq!(g, round);
    }
}
