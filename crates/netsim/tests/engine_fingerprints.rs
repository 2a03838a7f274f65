//! Bit-exact fingerprints of representative runs, pinned across engine
//! refactors.
//!
//! The packet-accounting layer rebuilt the engine's hot paths
//! (incremental state census, per-kind ledgers, phase timers); these
//! fingerprints were recorded on the engine *before* that change and
//! must keep reproducing exactly — instrumentation is observation, not
//! behaviour. Sums are compared as `{:.17e}` strings: 17 significant
//! digits round-trips every f64, so a match here is a bit-identity
//! match.
//!
//! Re-pinned once for the order-independent RNG discipline: scan
//! draws now come from per-host streams seeded at infection time and
//! immunization draws from a stateless per-`(tick, host)` hash, so a
//! host's randomness no longer depends on which other hosts exist or
//! which of them a phase visits. The new values are the engine's
//! permanent fingerprint — any thread count must reproduce them bit
//! for bit (CI runs this suite under one and four worker threads).
//!
//! The pins were recorded on the tick-sweep engine and held by the
//! event-driven engine bit for bit before the tick sweep was retired;
//! they are the same constants on purpose. Routing backends must never
//! show up in a fingerprint either: where a world is pinned under more
//! than one backend, every backend reproduces the same constants.

use dynaquar_netsim::background::BackgroundTraffic;
use dynaquar_netsim::config::{
    ImmunizationConfig, ImmunizationTrigger, QuarantineConfig, SimConfig, WormBehavior,
};
use dynaquar_netsim::faults::FaultPlan;
use dynaquar_netsim::plan::{HostFilter, RateLimitPlan};
use dynaquar_netsim::sim::{SimResult, Simulator};
use dynaquar_netsim::World;
use dynaquar_topology::generators;
use dynaquar_topology::lazy::RoutingKind;

fn series_sum(s: &dynaquar_epidemic::TimeSeries) -> f64 {
    s.iter().map(|(_, v)| v).sum()
}

fn pin(label: &str, value: f64, expected: &str) {
    assert_eq!(
        format!("{value:.17e}"),
        expected,
        "{label} diverged from the pre-instrumentation engine"
    );
}

/// Every fingerprinted run must also balance its ledger.
fn assert_conserved(r: &SimResult) {
    assert!(
        r.accounting.is_conserved(),
        "ledger defect: worm {} / background {}",
        r.accounting.worm.conservation_defect(),
        r.accounting.background.conservation_defect()
    );
    assert_eq!(r.delivered_packets, r.accounting.worm.delivered);
    assert_eq!(r.filtered_packets, r.accounting.worm.filtered);
    assert_eq!(r.delayed_packets, r.accounting.worm.delayed);
    assert_eq!(
        r.lost_packets,
        r.accounting.worm.lost + r.accounting.background.lost
    );
    assert_eq!(
        r.residual_packets,
        r.accounting.worm.in_flight_at_end + r.accounting.background.in_flight_at_end
    );
}

#[test]
fn dynamic_quarantine_star_is_bit_identical() {
    let w = World::from_star(generators::star(199).unwrap());
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 1, 10));
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(200)
        .initial_infected(2)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 3 })
        .build()
        .unwrap();
    let r = Simulator::new(&w, &cfg, WormBehavior::random(), 21).run();
    pin(
        "infected",
        series_sum(&r.infected_fraction),
        "7.78894472361808976e-1",
    );
    pin(
        "ever",
        series_sum(&r.ever_infected_fraction),
        "2.79497487437187075e1",
    );
    pin(
        "immunized",
        series_sum(&r.immunized_fraction),
        "2.71708542713568946e1",
    );
    pin("backlog", series_sum(&r.backlog), "3.20000000000000000e1");
    assert_eq!(r.delivered_packets, 32);
    assert_eq!(r.filtered_packets, 0);
    assert_eq!(r.delayed_packets, 90);
    assert_eq!(r.quarantined_hosts, 30);
    assert_eq!(r.residual_packets, 0);
    assert_conserved(&r);
}

#[test]
fn capped_hub_with_background_is_bit_identical() {
    let star = generators::star(99).unwrap();
    let hub = star.hub;
    let w = World::from_star(star);
    let mut plan = RateLimitPlan::none();
    plan.limit_links_at_node(w.graph(), hub, 0.3);
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(200)
        .initial_infected(1)
        .background(BackgroundTraffic::new(0.5))
        .plan(plan)
        .build()
        .unwrap();
    let r = Simulator::new(&w, &cfg, WormBehavior::random(), 13).run();
    pin(
        "infected",
        series_sum(&r.infected_fraction),
        "1.72939393939393938e2",
    );
    pin("backlog", series_sum(&r.backlog), "1.00815100000000000e6");
    assert_eq!(r.delivered_packets, 1960);
    assert_eq!(r.background.injected, 100);
    assert_eq!(r.background.delivered, 27);
    assert_eq!(r.background.total_delay_ticks, 1378);
    assert_eq!(r.background.max_delay_ticks, 145);
    assert_eq!(r.background.total_hops, 54);
    assert_eq!(r.residual_packets, 11596);
    assert_conserved(&r);
}

#[test]
fn welchia_self_patch_is_bit_identical() {
    let w = World::from_star(generators::star(199).unwrap());
    let welchia = WormBehavior::random()
        .with_scan_rate(3)
        .with_self_patch_after(12);
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(300)
        .initial_infected(2)
        .build()
        .unwrap();
    let r = Simulator::new(&w, &cfg, welchia, 31).run();
    pin(
        "infected",
        series_sum(&r.infected_fraction),
        "1.20000000000000000e1",
    );
    pin(
        "ever",
        series_sum(&r.ever_infected_fraction),
        "2.94201005025125596e2",
    );
    pin(
        "immunized",
        series_sum(&r.immunized_fraction),
        "2.82201005025125596e2",
    );
    assert_eq!(r.delivered_packets, 5181);
    assert_eq!(r.residual_packets, 0);
    assert_conserved(&r);
}

#[test]
fn kitchen_sink_fault_plan_is_bit_identical() {
    let w = World::from_star(generators::star(149).unwrap());
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 1, 8));
    let faults = FaultPlan::none()
        .with_link_outages(5, (5, 40), 15)
        .with_node_outages(3, (5, 40), 15)
        .with_link_loss(0.2, 0.1)
        .with_detector_outages(0.2)
        .with_false_positives(4, (5, 60))
        .with_quarantine_jitter(4);
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(150)
        .initial_infected(2)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 3 })
        .immunization(ImmunizationConfig {
            trigger: ImmunizationTrigger::AtInfectedFraction(0.3),
            mu: 0.05,
        })
        .faults(faults)
        .build()
        .unwrap();
    let r = Simulator::new(&w, &cfg, WormBehavior::random(), 9).run();
    pin(
        "infected",
        series_sum(&r.infected_fraction),
        "8.59060402684562519e0",
    );
    pin(
        "ever",
        series_sum(&r.ever_infected_fraction),
        "1.01885906040268424e2",
    );
    pin(
        "immunized",
        series_sum(&r.immunized_fraction),
        "1.17939597315436231e2",
    );
    pin("backlog", series_sum(&r.backlog), "6.21000000000000000e2");
    assert_eq!(r.delivered_packets, 552);
    assert_eq!(r.filtered_packets, 0);
    assert_eq!(r.delayed_packets, 350);
    assert_eq!(r.quarantined_hosts, 78);
    assert_eq!(r.false_quarantined_hosts, 2);
    assert_eq!(r.lost_packets, 19);
    assert_eq!(r.residual_packets, 0);
    assert_conserved(&r);
}

/// The n = 1000 power-law fingerprint run under a chosen routing
/// backend: rate-limited hosts plus detection-driven quarantine on the
/// paper's AS-level topology family.
fn power_law_1000_run(routing: RoutingKind) -> SimResult {
    let g = generators::barabasi_albert(1000, 2, 3).unwrap();
    let w = World::from_power_law_with(g, 0.05, 0.10, routing);
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 12));
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(120)
        .initial_infected(4)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 17).run()
}

/// The n = 1000 pinned fingerprint, shared by both backend tests below:
/// the same constants on purpose — the backends must reproduce each
/// other bit for bit.
fn assert_power_law_1000_fingerprint(r: &SimResult) {
    pin(
        "infected",
        series_sum(&r.infected_fraction),
        "6.05411764705882316e0",
    );
    pin(
        "ever",
        series_sum(&r.ever_infected_fraction),
        "7.04094117647058937e1",
    );
    pin(
        "immunized",
        series_sum(&r.immunized_fraction),
        "6.43552941176470625e1",
    );
    pin("backlog", series_sum(&r.backlog), "4.53000000000000000e3");
    assert_eq!(r.delivered_packets, 1362);
    assert_eq!(r.filtered_packets, 0);
    assert_eq!(r.delayed_packets, 2708);
    assert_eq!(r.quarantined_hosts, 677);
    assert_eq!(r.residual_packets, 0);
    assert_conserved(r);
}

#[test]
fn power_law_1000_lazy_backend_is_bit_identical() {
    // An 87-destination cache on a 1000-node world: far under the
    // active destination set, so the run exercises constant eviction
    // and recomputation — and still reproduces the fingerprint.
    let r = power_law_1000_run(RoutingKind::Lazy {
        max_cached_destinations: 87,
    });
    assert_power_law_1000_fingerprint(&r);
}

#[test]
fn power_law_1000_hier_backend_is_bit_identical() {
    // BA with m = 2 has minimum degree 2, so nothing peels and the
    // hier core table covers the whole graph.
    let r = power_law_1000_run(RoutingKind::Hier);
    assert_power_law_1000_fingerprint(&r);
}

#[test]
fn power_law_1000_backends_produce_equal_results() {
    let hier = power_law_1000_run(RoutingKind::Auto);
    let lazy = power_law_1000_run(RoutingKind::Lazy {
        max_cached_destinations: 87,
    });
    assert_eq!(hier, lazy, "routing backends diverged on the n=1000 run");
}

/// The n = 6000 power-law run: nothing peels and the core is above
/// `DENSE_AUTO_LIMIT`, so `World::from_power_law` routes it through
/// the lazy LRU.
fn power_law_6000_run() -> SimResult {
    let g = generators::barabasi_albert(6000, 2, 5).unwrap();
    let w = World::from_power_law(g, 0.02, 0.05);
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 12));
    let cfg = SimConfig::builder()
        .beta(0.6)
        .horizon(60)
        .initial_infected(4)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 23).run()
}

/// The n = 20,096 hierarchical subnet world (16 backbone routers, 80
/// subnets × 250 hosts): it peels to its 16-router backbone core, so
/// `RoutingKind::Auto` picks the hier backend.
fn subnet_20k_run(routing: RoutingKind) -> SimResult {
    let topo = generators::SubnetTopologyBuilder::new()
        .backbone_routers(16)
        .subnets(80)
        .hosts_per_subnet(250)
        .build()
        .unwrap();
    let w = World::from_subnets_with(topo, routing);
    let hosts = w.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 12));
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(40)
        .initial_infected(40)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 29).run()
}

#[test]
fn subnet_20k_is_bit_identical_across_routing() {
    // A 600-destination cache on a 20k-node world keeps the lazy leg
    // evicting; the hier leg routes through the 16-node core table.
    let lazy = RoutingKind::Lazy {
        max_cached_destinations: 600,
    };
    let mut results = Vec::new();
    for routing in [lazy, RoutingKind::Hier] {
        let r = subnet_20k_run(routing);
        let label = |what: &str| format!("{routing:?}/{what}");
        pin(
            &label("infected"),
            series_sum(&r.infected_fraction),
            "7.29050000000000198e-1",
        );
        pin(
            &label("ever"),
            series_sum(&r.ever_infected_fraction),
            "1.40445000000000020e0",
        );
        pin(
            &label("backlog"),
            series_sum(&r.backlog),
            "1.95120000000000000e4",
        );
        assert_eq!(r.delivered_packets, 2699);
        assert_eq!(r.delayed_packets, 6277);
        assert_eq!(r.quarantined_hosts, 1324);
        assert_eq!(r.residual_packets, 1685);
        assert_conserved(&r);
        results.push(r);
    }
    assert_eq!(
        results[0], results[1],
        "routing backends diverged on the n=20k run"
    );
    // The auto path (hier routing) must be one of the pinned runs
    // exactly.
    let auto = subnet_20k_run(RoutingKind::Auto);
    assert_eq!(auto, results[0], "Auto diverged on the n=20k run");
}

/// An immunization-dominated run: µ kicks in at tick 2 on a ~6k-host
/// subnet world, so nearly every tick sweeps thousands of unpatched
/// hosts. This is the workload the O(hosts) immunization carve-out
/// used to burn — the pin now rides on the sorted unpatched index,
/// which must enumerate hits in ascending host id exactly.
fn immunization_heavy_run() -> SimResult {
    let topo = generators::SubnetTopologyBuilder::new()
        .backbone_routers(8)
        .subnets(24)
        .hosts_per_subnet(250)
        .build()
        .unwrap();
    let w = World::from_subnets_with(topo, RoutingKind::Hier);
    let cfg = SimConfig::builder()
        .beta(0.7)
        .horizon(60)
        .initial_infected(12)
        .immunization(ImmunizationConfig {
            trigger: ImmunizationTrigger::AtTick(2),
            mu: 0.04,
        })
        .build()
        .unwrap();
    Simulator::new(&w, &cfg, WormBehavior::random(), 37).run()
}

#[test]
fn immunization_heavy_subnet_is_bit_identical() {
    let r = immunization_heavy_run();
    pin(
        "infected",
        series_sum(&r.infected_fraction),
        "3.77000000000000046e0",
    );
    pin(
        "ever",
        series_sum(&r.ever_infected_fraction),
        "6.47999999999999865e0",
    );
    pin(
        "immunized",
        series_sum(&r.immunized_fraction),
        "3.70213333333333310e1",
    );
    pin("backlog", series_sum(&r.backlog), "6.12750000000000000e4");
    assert_eq!(r.delivered_packets, 13378);
    assert_eq!(r.residual_packets, 1534);
    assert_conserved(&r);
}

#[test]
fn power_law_6000_is_bit_identical() {
    let r = power_law_6000_run();
    pin(
        "infected",
        series_sum(&r.infected_fraction),
        "3.42383512544802882e0",
    );
    pin(
        "ever",
        series_sum(&r.ever_infected_fraction),
        "5.94551971326164796e0",
    );
    pin("backlog", series_sum(&r.backlog), "1.55760000000000000e4");
    assert_eq!(r.delivered_packets, 3357);
    assert_eq!(r.delayed_packets, 6232);
    assert_eq!(r.quarantined_hosts, 1287);
    assert_eq!(r.residual_packets, 1035);
    assert_conserved(&r);
}
