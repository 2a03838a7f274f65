//! The simulated world: a topology plus routing, roles, and subnet
//! membership — everything scenario-independent that can be shared
//! between simulation runs.

use dynaquar_topology::generators::{StarTopology, SubnetId, SubnetTopology};
use dynaquar_topology::lazy::RoutingKind;
use dynaquar_topology::roles::{assign_by_degree, nodes_with_role, Role};
use dynaquar_topology::routing::RoutingBackend;
use dynaquar_topology::{Graph, NodeId};

/// A topology prepared for simulation: graph, shortest-path routing,
/// per-node roles, the infectable host set, and (optional) subnet
/// membership for local-preferential worms.
///
/// Routing lives behind a [`RoutingBackend`]: [`RoutingKind::Auto`]
/// (the default for every constructor) builds the two-level
/// hierarchical table whenever degree-1 peeling leaves a core of at
/// most `DENSE_AUTO_LIMIT` nodes — every paper-scale world, and the
/// paper's subnet worlds at any size, which collapse to their
/// backbone — and the lazy memory-bounded backend otherwise, so
/// constructing a 100k-node world never forces an `O(n²)` table. Both
/// backends return bit-identical routes. Individual simulation runs borrow the world
/// immutably, so multi-run averaging shares one `World` across
/// threads.
#[derive(Debug)]
pub struct World {
    graph: Graph,
    routing: Box<dyn RoutingBackend>,
    roles: Vec<Role>,
    hosts: Vec<NodeId>,
    subnet_of: Vec<Option<SubnetId>>,
    subnet_hosts: Vec<Vec<NodeId>>,
}

impl World {
    /// Prepares a world from a raw graph and explicit roles, choosing
    /// the routing backend automatically ([`RoutingKind::Auto`]).
    ///
    /// # Panics
    ///
    /// Panics if `roles.len() != graph.node_count()`.
    pub fn new(graph: Graph, roles: Vec<Role>) -> Self {
        World::new_with(graph, roles, RoutingKind::Auto)
    }

    /// [`World::new`] with an explicit routing backend choice.
    ///
    /// # Panics
    ///
    /// Panics if `roles.len() != graph.node_count()`.
    pub fn new_with(graph: Graph, roles: Vec<Role>, routing: RoutingKind) -> Self {
        assert_eq!(
            roles.len(),
            graph.node_count(),
            "one role per node required"
        );
        let routing = routing.build(&graph);
        let hosts = nodes_with_role(&roles, Role::EndHost);
        let n = graph.node_count();
        World {
            graph,
            routing,
            roles,
            hosts,
            subnet_of: vec![None; n],
            subnet_hosts: Vec::new(),
        }
    }

    /// Prepares a world from a power-law graph, assigning the paper's
    /// degree-based roles (top `backbone_fraction` = backbone, next
    /// `edge_fraction` = edge routers).
    ///
    /// Each end host is also assigned to the "subnet" of its nearest edge
    /// router (BFS distance, ties broken by router id), giving
    /// local-preferential worms a meaningful notion of "local" on the
    /// flat AS-level graph.
    pub fn from_power_law(graph: Graph, backbone_fraction: f64, edge_fraction: f64) -> Self {
        World::from_power_law_with(graph, backbone_fraction, edge_fraction, RoutingKind::Auto)
    }

    /// [`World::from_power_law`] with an explicit routing backend choice.
    pub fn from_power_law_with(
        graph: Graph,
        backbone_fraction: f64,
        edge_fraction: f64,
        routing: RoutingKind,
    ) -> Self {
        let roles = assign_by_degree(&graph, backbone_fraction, edge_fraction);
        let mut world = World::new_with(graph, roles, routing);
        world.assign_subnets_by_nearest_edge_router();
        world
    }

    /// Groups end hosts into subnets by their nearest edge router
    /// (multi-source BFS from all edge routers; ties go to the
    /// lowest-id router). Worlds without edge routers keep all hosts
    /// subnet-less.
    fn assign_subnets_by_nearest_edge_router(&mut self) {
        let routers = nodes_with_role(&self.roles, Role::EdgeRouter);
        if routers.is_empty() {
            return;
        }
        let n = self.graph.node_count();
        // Multi-source BFS: owner[v] = subnet of the closest router.
        let mut owner: Vec<Option<SubnetId>> = vec![None; n];
        let mut dist = vec![u32::MAX; n];
        let mut queue = std::collections::VecDeque::new();
        for (k, &r) in routers.iter().enumerate() {
            owner[r.index()] = Some(SubnetId::new(k as u32));
            dist[r.index()] = 0;
            queue.push_back(r);
        }
        while let Some(u) = queue.pop_front() {
            for &v in self.graph.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    owner[v.index()] = owner[u.index()];
                    queue.push_back(v);
                }
            }
        }
        let mut subnet_hosts: Vec<Vec<NodeId>> = vec![Vec::new(); routers.len()];
        let mut subnet_of = vec![None; n];
        for &h in &self.hosts {
            if let Some(s) = owner[h.index()] {
                subnet_of[h.index()] = Some(s);
                subnet_hosts[s.index()].push(h);
            }
        }
        self.subnet_of = subnet_of;
        self.subnet_hosts = subnet_hosts;
    }

    /// Prepares a world from a star topology. The hub is a router
    /// ([`Role::EdgeRouter`]); every leaf is an infectable host.
    pub fn from_star(star: StarTopology) -> Self {
        World::from_star_with(star, RoutingKind::Auto)
    }

    /// [`World::from_star`] with an explicit routing backend choice.
    pub fn from_star_with(star: StarTopology, routing: RoutingKind) -> Self {
        let mut roles = vec![Role::EndHost; star.graph.node_count()];
        roles[star.hub.index()] = Role::EdgeRouter;
        World::new_with(star.graph, roles, routing)
    }

    /// Prepares a world from a hierarchical subnet topology, keeping its
    /// roles and subnet membership (enables local-preferential worms).
    pub fn from_subnets(topo: SubnetTopology) -> Self {
        World::from_subnets_with(topo, RoutingKind::Auto)
    }

    /// [`World::from_subnets`] with an explicit routing backend choice.
    pub fn from_subnets_with(topo: SubnetTopology, routing: RoutingKind) -> Self {
        let subnet_hosts: Vec<Vec<NodeId>> = (0..topo.subnets)
            .map(|k| topo.hosts_of(SubnetId::new(k as u32)).collect())
            .collect();
        let routing = routing.build(&topo.graph);
        let hosts = nodes_with_role(&topo.roles, Role::EndHost);
        World {
            graph: topo.graph,
            routing,
            roles: topo.roles,
            hosts,
            subnet_of: topo.subnet_of,
            subnet_hosts,
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shortest-path routing backend.
    pub fn routing(&self) -> &dyn RoutingBackend {
        self.routing.as_ref()
    }

    /// Per-node roles.
    pub fn roles(&self) -> &[Role] {
        &self.roles
    }

    /// The infectable hosts.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }

    /// Subnet of each node (all `None` for non-hierarchical worlds).
    pub fn subnet_of(&self) -> &[Option<SubnetId>] {
        &self.subnet_of
    }

    /// Hosts per subnet (empty for non-hierarchical worlds).
    pub fn subnet_hosts(&self) -> &[Vec<NodeId>] {
        &self.subnet_hosts
    }

    /// Nodes holding `role`.
    pub fn nodes_with_role(&self, role: Role) -> Vec<NodeId> {
        nodes_with_role(&self.roles, role)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaquar_topology::generators;

    #[test]
    fn star_world_hosts_exclude_hub() {
        let w = World::from_star(generators::star(199).unwrap());
        assert_eq!(w.hosts().len(), 199);
        assert!(!w.hosts().contains(&NodeId::new(0)));
        assert_eq!(w.roles()[0], Role::EdgeRouter);
    }

    #[test]
    fn power_law_world_role_counts() {
        let g = generators::barabasi_albert(1000, 2, 3).unwrap();
        let w = World::from_power_law(g, 0.05, 0.10);
        assert_eq!(w.nodes_with_role(Role::Backbone).len(), 50);
        assert_eq!(w.nodes_with_role(Role::EdgeRouter).len(), 100);
        assert_eq!(w.hosts().len(), 850);
        // Hosts are grouped into subnets by nearest edge router.
        assert_eq!(w.subnet_hosts().len(), 100);
        let assigned: usize = w.subnet_hosts().iter().map(Vec::len).sum();
        assert_eq!(assigned, 850);
        for (k, bucket) in w.subnet_hosts().iter().enumerate() {
            for &h in bucket {
                assert_eq!(
                    w.subnet_of()[h.index()],
                    Some(dynaquar_topology::generators::SubnetId::new(k as u32))
                );
            }
        }
    }

    #[test]
    fn subnet_world_membership() {
        let topo = generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(5)
            .hosts_per_subnet(8)
            .build()
            .unwrap();
        let w = World::from_subnets(topo);
        assert_eq!(w.hosts().len(), 40);
        assert_eq!(w.subnet_hosts().len(), 5);
        assert!(w.subnet_hosts().iter().all(|s| s.len() == 8));
        // Each host's subnet id matches the bucket it appears in.
        for (k, bucket) in w.subnet_hosts().iter().enumerate() {
            for &h in bucket {
                assert_eq!(w.subnet_of()[h.index()], Some(SubnetId::new(k as u32)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "one role per node")]
    fn role_length_mismatch_panics() {
        let g = generators::ring(4).unwrap();
        World::new(g, vec![Role::EndHost; 3]);
    }
}
