//! Rate-limiting deployment plans: which links, nodes, and hosts carry
//! which limits.
//!
//! A plan is scenario state, independent of the RNG seed, so one plan is
//! shared across the averaged runs of an experiment.

use crate::error::Error;
use dynaquar_topology::routing::RoutingBackend;
use dynaquar_topology::{EdgeId, Graph, NodeId};

/// Smallest weighted cap a limited link can receive (one packet per 100
/// ticks) — prevents a zero-load link from blocking forever.
pub const MIN_LINK_CAP: f64 = 0.01;

/// How link weights are normalized in
/// [`RateLimitPlan::weighted_link_caps_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Normalization {
    /// Weight = load / max load: the busiest link gets the base cap.
    MaxLoad,
    /// Weight = load / mean load: the average link gets the base cap
    /// (the busiest gets proportionally more — rarely binds on worm
    /// traffic because demand scales with load too).
    MeanLoad,
    /// Every limited link gets the base cap verbatim.
    None,
}

/// Per-host egress filter: at most `max_new_targets` distinct scan
/// destinations per `window_ticks` ticks.
///
/// The [`discipline`](HostFilter::discipline) selects what happens to a
/// blocked scan: dropped outright (a hard window limit) or queued and
/// released later (Williamson's virus throttle "delays rather than
/// drops").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostFilter {
    /// Window length in ticks.
    pub window_ticks: u64,
    /// Distinct destinations allowed per window.
    pub max_new_targets: usize,
    /// What happens to blocked scans.
    pub discipline: FilterDiscipline,
}

impl HostFilter {
    /// A dropping window filter (the default discipline).
    pub fn dropping(window_ticks: u64, max_new_targets: usize) -> Self {
        HostFilter {
            window_ticks,
            max_new_targets,
            discipline: FilterDiscipline::Drop,
        }
    }

    /// A Williamson-style delaying filter: blocked scans queue at the
    /// host and are released one per `release_period_ticks` ticks.
    pub fn delaying(window_ticks: u64, max_new_targets: usize, release_period_ticks: u64) -> Self {
        HostFilter {
            window_ticks,
            max_new_targets,
            discipline: FilterDiscipline::Delay {
                release_period_ticks,
            },
        }
    }
}

/// What a host filter does with a blocked scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterDiscipline {
    /// Blocked scans are dropped (hard limit).
    Drop,
    /// Blocked scans queue at the host; one is released every
    /// `release_period_ticks` ticks (Williamson's throttle semantics —
    /// the worm's contact rate collapses to the release rate instead of
    /// to zero).
    Delay {
        /// Ticks between releases from the delay queue.
        release_period_ticks: u64,
    },
}

/// Where rate limiting is installed and how tight it is.
///
/// # Example
///
/// The paper's hub deployment on a star: every hub-incident link capped,
/// plus a forwarding cap on the hub itself.
///
/// ```
/// use dynaquar_netsim::plan::RateLimitPlan;
/// use dynaquar_topology::generators;
///
/// let star = generators::star(199).expect("valid");
/// let mut plan = RateLimitPlan::none();
/// plan.limit_links_at_node(&star.graph, star.hub, 10.0);
/// plan.limit_node_forwarding(star.hub, 2.0);
/// assert_eq!(plan.limited_link_count(), 199);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RateLimitPlan {
    /// Per-link packet caps per tick (`EdgeId` -> cap). Unlisted links
    /// are unlimited.
    link_caps: Vec<(EdgeId, f64)>,
    /// Per-node forwarding caps (packets forwarded per tick, transit
    /// only).
    node_caps: Vec<(NodeId, f64)>,
    /// Per-host egress filters.
    host_filters: Vec<(NodeId, HostFilter)>,
}

impl RateLimitPlan {
    /// No rate limiting anywhere (the paper's "No RL" baseline).
    pub fn none() -> Self {
        RateLimitPlan::default()
    }

    /// Caps one link at `cap` packets per tick (later calls override).
    ///
    /// Fractional caps are allowed and meaningful: a cap of `0.2` lets
    /// one packet through every five ticks (enforced by a per-link token
    /// accumulator in the simulator).
    ///
    /// # Panics
    ///
    /// Panics if `cap <= 0` or is not finite.
    pub fn limit_link(&mut self, edge: EdgeId, cap: f64) -> &mut Self {
        assert!(cap.is_finite() && cap > 0.0, "link cap must be positive");
        self.link_caps.retain(|&(e, _)| e != edge);
        self.link_caps.push((edge, cap));
        self
    }

    /// Caps every link incident to `node`.
    pub fn limit_links_at_node(&mut self, graph: &Graph, node: NodeId, cap: f64) -> &mut Self {
        for &nb in graph.neighbors(node) {
            let e = graph.edge_between(node, nb).expect("incident edge");
            self.limit_link(e, cap);
        }
        self
    }

    /// Caps every link incident to any node in `nodes`.
    pub fn limit_links_at_nodes(
        &mut self,
        graph: &Graph,
        nodes: &[NodeId],
        cap: f64,
    ) -> &mut Self {
        for &n in nodes {
            self.limit_links_at_node(graph, n, cap);
        }
        self
    }

    /// Caps the transit forwarding rate of `node` (the star hub's
    /// node-level limit; Equation 6's per-router allowable rate `r`).
    /// Fractional caps accumulate credit across ticks.
    ///
    /// # Panics
    ///
    /// Panics if `cap <= 0` or is not finite.
    pub fn limit_node_forwarding(&mut self, node: NodeId, cap: f64) -> &mut Self {
        assert!(cap.is_finite() && cap > 0.0, "node cap must be positive");
        self.node_caps.retain(|&(n, _)| n != node);
        self.node_caps.push((node, cap));
        self
    }

    /// Installs an egress filter on each host in `hosts`.
    pub fn filter_hosts(&mut self, hosts: &[NodeId], filter: HostFilter) -> &mut Self {
        for &h in hosts {
            self.host_filters.retain(|&(n, _)| n != h);
            self.host_filters.push((h, filter));
        }
        self
    }

    /// The paper's weighted link caps: every link incident to a node of
    /// `limited_nodes` gets `base_cap` multiplied by a weight
    /// proportional to the link's routing-table load, with a floor of one
    /// packet per tick. "We believe that this simulated routing will
    /// allow most normal traffic to be routed through since the most
    /// utilized links will have a higher throughput."
    ///
    /// Weights are normalized by the *maximum* load over the limited
    /// links, so the busiest link gets exactly `base_cap` and everything
    /// else proportionally less — the cap schedule that lets ordinary
    /// traffic through while a scanning worm (whose volume is orders of
    /// magnitude above the base rate) saturates every filtered link.
    pub fn weighted_link_caps(
        &mut self,
        graph: &Graph,
        routing: &dyn RoutingBackend,
        limited_nodes: &[NodeId],
        base_cap: f64,
    ) -> &mut Self {
        self.weighted_link_caps_with(
            graph,
            routing,
            limited_nodes,
            base_cap,
            Normalization::MaxLoad,
        )
    }

    /// [`RateLimitPlan::weighted_link_caps`] with an explicit weight
    /// normalization (used by the ablation benches).
    pub fn weighted_link_caps_with(
        &mut self,
        graph: &Graph,
        routing: &dyn RoutingBackend,
        limited_nodes: &[NodeId],
        base_cap: f64,
        normalization: Normalization,
    ) -> &mut Self {
        // Collect the affected edges (deduplicated).
        let mut edges: Vec<EdgeId> = Vec::new();
        for &n in limited_nodes {
            for &nb in graph.neighbors(n) {
                let e = graph.edge_between(n, nb).expect("incident edge");
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
        }
        self.weighted_caps_for_edges(graph, routing, &edges, base_cap, normalization)
    }

    /// Applies load-weighted caps to an explicit edge list (used when a
    /// deployment caps only one side of a router, e.g. an edge router's
    /// WAN-facing uplinks but not its host access links).
    pub fn weighted_caps_for_edges(
        &mut self,
        graph: &Graph,
        routing: &dyn RoutingBackend,
        edges: &[EdgeId],
        base_cap: f64,
        normalization: Normalization,
    ) -> &mut Self {
        if edges.is_empty() {
            return self;
        }
        let loads = routing.link_loads(graph);
        let reference = match normalization {
            Normalization::MaxLoad => edges
                .iter()
                .map(|e| loads[e.index()] as f64)
                .fold(f64::NEG_INFINITY, f64::max),
            Normalization::MeanLoad => {
                edges.iter().map(|e| loads[e.index()] as f64).sum::<f64>() / edges.len() as f64
            }
            Normalization::None => 0.0,
        };
        for &e in edges {
            let weight = if reference > 0.0 {
                loads[e.index()] as f64 / reference
            } else {
                1.0
            };
            self.limit_link(e, (base_cap * weight).max(MIN_LINK_CAP));
        }
        self
    }

    /// Validates every installed host filter (called by
    /// `SimConfig::build`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when a filter has a zero window
    /// or budget, or a delaying filter has `release_period_ticks == 0`
    /// — a zero period has no meaning in Williamson's "one release per
    /// period" semantics, and silently treating it as 1 (as the engine
    /// once did) hid the misconfiguration.
    pub fn validate(&self) -> Result<(), Error> {
        for &(_, f) in &self.host_filters {
            if f.window_ticks == 0 {
                return Err(Error::InvalidConfig {
                    name: "window_ticks",
                    reason: "host filter window must cover at least one tick",
                });
            }
            if f.max_new_targets == 0 {
                return Err(Error::InvalidConfig {
                    name: "max_new_targets",
                    reason: "host filter must admit at least one target per window",
                });
            }
            if f.discipline == (FilterDiscipline::Delay { release_period_ticks: 0 }) {
                return Err(Error::InvalidConfig {
                    name: "release_period_ticks",
                    reason: "a delaying filter must wait at least one tick between releases",
                });
            }
        }
        Ok(())
    }

    /// Number of links carrying a cap.
    pub fn limited_link_count(&self) -> usize {
        self.link_caps.len()
    }

    /// Number of hosts carrying an egress filter.
    pub fn filtered_host_count(&self) -> usize {
        self.host_filters.len()
    }

    /// Materializes dense per-edge caps (`None` = unlimited).
    pub(crate) fn dense_link_caps(&self, graph: &Graph) -> Vec<Option<f64>> {
        let mut caps = vec![None; graph.edge_count()];
        for &(e, c) in &self.link_caps {
            caps[e.index()] = Some(c);
        }
        caps
    }

    /// Materializes dense per-node forwarding caps.
    pub(crate) fn dense_node_caps(&self, graph: &Graph) -> Vec<Option<f64>> {
        let mut caps = vec![None; graph.node_count()];
        for &(n, c) in &self.node_caps {
            caps[n.index()] = Some(c);
        }
        caps
    }

    /// Materializes dense per-node host filters.
    pub(crate) fn dense_host_filters(&self, graph: &Graph) -> Vec<Option<HostFilter>> {
        let mut filters = vec![None; graph.node_count()];
        for &(n, f) in &self.host_filters {
            filters[n.index()] = Some(f);
        }
        filters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaquar_topology::generators;
    use dynaquar_topology::HierRouting;

    #[test]
    fn none_plan_is_empty() {
        let p = RateLimitPlan::none();
        assert_eq!(p.limited_link_count(), 0);
        assert_eq!(p.filtered_host_count(), 0);
    }

    #[test]
    fn limit_link_overrides() {
        let g = generators::ring(4).unwrap();
        let e = g.edge_between(0.into(), 1.into()).unwrap();
        let mut p = RateLimitPlan::none();
        p.limit_link(e, 5.0).limit_link(e, 9.0);
        assert_eq!(p.limited_link_count(), 1);
        assert_eq!(p.dense_link_caps(&g)[e.index()], Some(9.0));
    }

    #[test]
    fn limit_links_at_node_covers_incident_edges() {
        let star = generators::star(6).unwrap();
        let mut p = RateLimitPlan::none();
        p.limit_links_at_node(&star.graph, star.hub, 10.0);
        assert_eq!(p.limited_link_count(), 6);
        let caps = p.dense_link_caps(&star.graph);
        assert!(caps.iter().all(|c| *c == Some(10.0)));
    }

    #[test]
    fn node_and_host_entries() {
        let star = generators::star(4).unwrap();
        let mut p = RateLimitPlan::none();
        p.limit_node_forwarding(star.hub, 2.0);
        let hosts: Vec<_> = star.leaves().collect();
        p.filter_hosts(
            &hosts[..2],
            HostFilter::dropping(5, 1),
        );
        assert_eq!(p.filtered_host_count(), 2);
        let node_caps = p.dense_node_caps(&star.graph);
        assert_eq!(node_caps[star.hub.index()], Some(2.0));
        let filters = p.dense_host_filters(&star.graph);
        assert!(filters[hosts[0].index()].is_some());
        assert!(filters[hosts[3].index()].is_none());
    }

    #[test]
    fn weighted_caps_scale_with_load() {
        let t = generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(4)
            .hosts_per_subnet(6)
            .build()
            .unwrap();
        let rt = HierRouting::new(&t.graph);
        let mut p = RateLimitPlan::none();
        // Limit everything at the backbone routers.
        p.weighted_link_caps(&t.graph, &rt, &[0.into(), 1.into()], 10.0);
        assert!(p.limited_link_count() > 0);
        let caps = p.dense_link_caps(&t.graph);
        let set: Vec<f64> = caps.iter().flatten().copied().collect();
        // All caps respect the floor, the busiest link gets the base,
        // and quieter links get proportionally less.
        assert!(set.iter().all(|&c| c >= MIN_LINK_CAP));
        let max = set.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let min = set.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((max - 10.0).abs() < 1e-9, "busiest link cap = {max}");
        assert!(min < max, "caps should vary with load");
    }

    #[test]
    fn weighted_caps_with_no_nodes_is_noop() {
        let g = generators::ring(5).unwrap();
        let rt = HierRouting::new(&g);
        let mut p = RateLimitPlan::none();
        p.weighted_link_caps(&g, &rt, &[], 10.0);
        assert_eq!(p.limited_link_count(), 0);
    }
}
