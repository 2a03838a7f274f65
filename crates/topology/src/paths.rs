//! Path-coverage computation — the `α` of Equation 6.
//!
//! Backbone rate limiting throttles a worm only on the IP-to-IP paths
//! that actually traverse a rate-limited element. Given a routing table
//! and a set of filtered nodes (or links), these functions compute the
//! fraction of ordered host pairs whose route is covered.

use crate::graph::{Graph, NodeId};
use crate::routing::RoutingBackend;

/// Fraction of ordered pairs (drawn from `endpoints`) whose shortest path
/// passes through at least one node of `filtered` — counting intermediate
/// hops *and* the endpoints themselves only if `count_endpoints` is set.
///
/// The paper's backbone filters inspect transit traffic, so the default
/// experiments use `count_endpoints = false`.
///
/// Returns `0.0` when `endpoints` has fewer than two nodes.
///
/// Iterates destination-outer so a cache-backed [`RoutingBackend`] (the
/// lazy LRU) serves each destination from a single BFS; the covered-pair
/// count is a sum over ordered pairs, so the loop order cannot change
/// the result.
///
/// # Panics
///
/// Panics if any node id is out of range for the routing backend.
pub fn node_coverage(
    routing: &dyn RoutingBackend,
    endpoints: &[NodeId],
    filtered: &[NodeId],
    count_endpoints: bool,
) -> f64 {
    if endpoints.len() < 2 {
        return 0.0;
    }
    let n = routing.node_count();
    let mut is_filtered = vec![false; n];
    for &f in filtered {
        is_filtered[f.index()] = true;
    }
    let mut covered = 0u64;
    let mut total = 0u64;
    for &dst in endpoints {
        for &src in endpoints {
            if src == dst {
                continue;
            }
            total += 1;
            if routing.distance(src, dst).is_none() {
                continue;
            }
            let mut hit = count_endpoints && (is_filtered[src.index()] || is_filtered[dst.index()]);
            if !hit {
                let mut cur = src;
                while cur != dst {
                    let nxt = routing.next_hop(cur, dst).expect("finite distance");
                    if nxt != dst && is_filtered[nxt.index()] {
                        hit = true;
                        break;
                    }
                    cur = nxt;
                }
            }
            if hit {
                covered += 1;
            }
        }
    }
    covered as f64 / total as f64
}

/// Fraction of ordered pairs whose shortest path uses at least one edge of
/// `filtered_edges` (given as a boolean mask over edge ids).
///
/// Returns `0.0` when `endpoints` has fewer than two nodes.
///
/// Iterates destination-outer for the same cache-friendliness reason as
/// [`node_coverage`].
///
/// # Panics
///
/// Panics if the mask length differs from the graph's edge count, or a
/// node id is out of range.
pub fn link_coverage(
    graph: &Graph,
    routing: &dyn RoutingBackend,
    endpoints: &[NodeId],
    filtered_edges: &[bool],
) -> f64 {
    assert_eq!(
        filtered_edges.len(),
        graph.edge_count(),
        "edge mask length mismatch"
    );
    if endpoints.len() < 2 {
        return 0.0;
    }
    let mut covered = 0u64;
    let mut total = 0u64;
    for &dst in endpoints {
        for &src in endpoints {
            if src == dst {
                continue;
            }
            total += 1;
            if routing.distance(src, dst).is_none() {
                continue;
            }
            let mut cur = src;
            while cur != dst {
                let (nxt, e) = routing.next_link(cur, dst).expect("finite distance");
                if filtered_edges[e.index()] {
                    covered += 1;
                    break;
                }
                cur = nxt;
            }
        }
    }
    covered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::hier::HierRouting;
    use crate::roles::{assign_by_degree, nodes_with_role, Role};

    #[test]
    fn star_hub_covers_all_leaf_pairs() {
        let star = generators::star(10).unwrap();
        let rt = HierRouting::new(&star.graph);
        let leaves: Vec<NodeId> = star.leaves().collect();
        let alpha = node_coverage(&rt, &leaves, &[star.hub], false);
        assert_eq!(alpha, 1.0);
    }

    #[test]
    fn no_filters_zero_coverage() {
        let star = generators::star(10).unwrap();
        let rt = HierRouting::new(&star.graph);
        let leaves: Vec<NodeId> = star.leaves().collect();
        assert_eq!(node_coverage(&rt, &leaves, &[], false), 0.0);
    }

    #[test]
    fn endpoint_filters_only_count_when_asked() {
        let star = generators::star(4).unwrap();
        let rt = HierRouting::new(&star.graph);
        let leaves: Vec<NodeId> = star.leaves().collect();
        // Filtering one leaf covers nothing as transit...
        assert_eq!(node_coverage(&rt, &leaves, &[leaves[0]], false), 0.0);
        // ...but covers its own pairs when endpoints count. Leaf 0
        // participates in 6 of the 12 ordered pairs.
        let alpha = node_coverage(&rt, &leaves, &[leaves[0]], true);
        assert!((alpha - 0.5).abs() < 1e-12);
    }

    #[test]
    fn backbone_coverage_is_high_on_power_law() {
        // The premise of Section 5.3: the top-degree 5% of a power-law
        // graph covers the large majority of host-to-host paths.
        let g = generators::barabasi_albert(500, 2, 13).unwrap();
        let rt = HierRouting::new(&g);
        let roles = assign_by_degree(&g, 0.05, 0.10);
        let hosts = nodes_with_role(&roles, Role::EndHost);
        let backbone = nodes_with_role(&roles, Role::Backbone);
        let alpha = node_coverage(&rt, &hosts, &backbone, false);
        assert!(alpha > 0.6, "alpha = {alpha}");
    }

    #[test]
    fn link_coverage_on_ring() {
        let g = generators::ring(4).unwrap();
        let rt = HierRouting::new(&g);
        let nodes: Vec<NodeId> = g.nodes().collect();
        let mut mask = vec![false; g.edge_count()];
        assert_eq!(link_coverage(&g, &rt, &nodes, &mask), 0.0);
        mask[0] = true; // edge 0-1
        let alpha = link_coverage(&g, &rt, &nodes, &mask);
        assert!(alpha > 0.0 && alpha < 1.0);
        let all = vec![true; g.edge_count()];
        assert_eq!(link_coverage(&g, &rt, &nodes, &all), 1.0);
    }

    #[test]
    fn degenerate_endpoint_sets() {
        let g = generators::ring(4).unwrap();
        let rt = HierRouting::new(&g);
        assert_eq!(node_coverage(&rt, &[], &[], false), 0.0);
        assert_eq!(node_coverage(&rt, &[0.into()], &[], false), 0.0);
    }

    #[test]
    #[should_panic(expected = "edge mask length")]
    fn link_coverage_checks_mask_length() {
        let g = generators::ring(4).unwrap();
        let rt = HierRouting::new(&g);
        let nodes: Vec<NodeId> = g.nodes().collect();
        link_coverage(&g, &rt, &nodes, &[true]);
    }
}
