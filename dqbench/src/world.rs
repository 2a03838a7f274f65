//! Workload worlds: each starts as spec text and is built through the
//! same public calls a user or the daemon makes, one span per layer.
//!
//! `Scenario::build_world` generates the topology and builds its routing
//! in one call. The benchmark makes the two calls it consists of itself
//! (a generator, then `World::from_*_with(.., RoutingKind::Auto)`), so
//! generation and routing build are timed apart. The topology
//! parameters live in [`Topo`], which also writes the spec's `topology`
//! section, so the spec and the built world cannot disagree.

use crate::trace::{Layer, Tracer};
use dynaquar_core::spec::{emit_json, parse_json, scenario_from_value, scenario_to_value, Value};
use dynaquar_core::Scenario;
use dynaquar_netsim::{SimConfig, World};
use dynaquar_topology::generators::{self, StarTopology, SubnetTopology};
use dynaquar_topology::lazy::RoutingKind;
use dynaquar_topology::Graph;
use std::time::Duration;

/// Topology parameters of a workload world.
#[derive(Debug, Clone, Copy)]
pub enum Topo {
    /// `star(leaves)`.
    Star { leaves: usize },
    /// Barabási–Albert graph with the spec's 5%/10% role split.
    PowerLaw { nodes: usize, m: usize, seed: u64 },
    /// `subnets(backbone, subnets, hosts_per_subnet)`.
    Subnets {
        backbone: usize,
        subnets: usize,
        hosts: usize,
    },
}

enum Generated {
    Star(StarTopology),
    Graph(Graph),
    Subnets(SubnetTopology),
}

impl Topo {
    /// The spec's `topology` section.
    pub fn spec_json(&self) -> String {
        match *self {
            Topo::Star { leaves } => format!(r#"{{"kind": "star", "leaves": {leaves}}}"#),
            Topo::PowerLaw { nodes, m, seed } => format!(
                r#"{{"kind": "power_law", "nodes": {nodes}, "edges_per_node": {m}, "seed": {seed}}}"#
            ),
            Topo::Subnets {
                backbone,
                subnets,
                hosts,
            } => format!(
                r#"{{"kind": "subnets", "backbone": {backbone}, "subnets": {subnets}, "hosts_per_subnet": {hosts}}}"#
            ),
        }
    }

    /// A complete single-run spec: this topology, the workload's other
    /// fields (`rest`, a JSON object body without braces) and `seed`.
    pub fn spec(&self, rest: &str, seed: u64) -> String {
        format!(
            r#"{{"topology": {}, {rest}, "runs": 1, "seed": {seed}}}"#,
            self.spec_json()
        )
    }

    fn generate(&self) -> Result<Generated, String> {
        let err = |e: dynaquar_topology::Error| format!("topology generation failed: {e}");
        Ok(match *self {
            Topo::Star { leaves } => Generated::Star(generators::star(leaves).map_err(err)?),
            Topo::PowerLaw { nodes, m, seed } => {
                Generated::Graph(generators::barabasi_albert(nodes, m, seed).map_err(err)?)
            }
            Topo::Subnets {
                backbone,
                subnets,
                hosts,
            } => Generated::Subnets(
                generators::SubnetTopologyBuilder::new()
                    .backbone_routers(backbone)
                    .subnets(subnets)
                    .hosts_per_subnet(hosts)
                    .build()
                    .map_err(err)?,
            ),
        })
    }
}

impl Generated {
    /// The world `TopologySpec::build_with(RoutingKind::Auto)` builds.
    fn into_world(self) -> World {
        match self {
            Generated::Star(star) => World::from_star_with(star, RoutingKind::Auto),
            Generated::Graph(g) => World::from_power_law_with(g, 0.05, 0.10, RoutingKind::Auto),
            Generated::Subnets(topo) => World::from_subnets_with(topo, RoutingKind::Auto),
        }
    }
}

/// Time spent in each build call.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    pub parse: Duration,
    pub validate: Duration,
    pub canonical: Duration,
    pub generate: Duration,
    pub routing: Duration,
    pub config: Duration,
}

impl BuildTimes {
    /// Wall of the whole build.
    pub fn total(&self) -> Duration {
        self.parse + self.validate + self.canonical + self.generate + self.routing + self.config
    }
}

/// A validated scenario with its world and engine config.
pub struct Built {
    pub scenario: Scenario,
    /// The canonical spec document (what the daemon persists).
    pub canonical: Value,
    pub world: World,
    pub config: SimConfig,
    pub times: BuildTimes,
}

/// Spec text → scenario → world → config, one span per call.
pub fn build(tr: &mut Tracer, topo: &Topo, spec: &str, request: u64) -> Result<Built, String> {
    let (doc, parse) = tr.time(Layer::Core, "spec.parse", request, || parse_json(spec));
    let doc = doc.map_err(|e| format!("spec does not parse: {e}"))?;
    let (scenario, validate) = tr.time(Layer::Core, "spec.validate", request, || {
        scenario_from_value(&doc)
    });
    let scenario = scenario.map_err(|e| format!("spec rejected: {e}"))?;
    let (canonical, canonical_t) = tr.time(Layer::Core, "spec.canonical", request, || {
        scenario_to_value(&scenario).map(|v| {
            let text = emit_json(&v);
            (v, text)
        })
    });
    let (canonical, _) = canonical.map_err(|e| format!("spec has no canonical form: {e}"))?;
    let (generated, generate) = tr.time(Layer::Topology, "generate", request, || topo.generate());
    let generated = generated?;
    let (world, routing) = tr.time(Layer::Topology, "routing_build", request, || {
        generated.into_world()
    });
    let (config, config_t) = tr.time(Layer::Netsim, "config", request, || {
        scenario.sim_config_for(&world)
    });
    Ok(Built {
        scenario,
        canonical,
        world,
        config,
        times: BuildTimes {
            parse,
            validate,
            canonical: canonical_t,
            generate,
            routing,
            config: config_t,
        },
    })
}
