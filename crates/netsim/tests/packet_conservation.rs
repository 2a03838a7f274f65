//! The packet-conservation invariant, exercised end to end.
//!
//! Every packet the engine emits must end up in exactly one terminal
//! bucket (delivered, filtered, lost, unroutable, cleared) or still be
//! in the network when the horizon falls (in flight or queued in a
//! delaying filter):
//!
//! ```text
//! emitted = delivered + filtered + lost + unroutable + cleared
//!         + in_flight_at_end + queued_at_end        (per PacketKind)
//! ```
//!
//! Before the accounting layer, two paths leaked silently: unroutable
//! packets on disconnected topologies vanished without a counter, and
//! queues cleared by quarantine were not ledgered. These tests pin both
//! fixes and sweep the invariant across filter, cap, quarantine, and
//! fault-plan scenarios.

use dynaquar_netsim::background::BackgroundTraffic;
use dynaquar_netsim::config::{
    ImmunizationConfig, ImmunizationTrigger, QuarantineConfig, SimConfig, WormBehavior,
};
use dynaquar_netsim::faults::FaultPlan;
use dynaquar_netsim::metrics::{JsonlEventWriter, MetricsObserver};
use dynaquar_netsim::plan::{HostFilter, RateLimitPlan};
use dynaquar_netsim::sim::{SimResult, Simulator};
use dynaquar_netsim::World;
use dynaquar_topology::generators;
use dynaquar_topology::roles::Role;
use dynaquar_topology::Graph;

fn assert_conserved(r: &SimResult, label: &str) {
    assert!(
        r.accounting.is_conserved(),
        "{label}: ledger defect worm={} background={}\nworm: {}\nbackground: {}",
        r.accounting.worm.conservation_defect(),
        r.accounting.background.conservation_defect(),
        r.accounting.worm,
        r.accounting.background,
    );
    // The legacy flat counters are views of the same ledger.
    assert_eq!(r.delivered_packets, r.accounting.worm.delivered, "{label}");
    assert_eq!(r.filtered_packets, r.accounting.worm.filtered, "{label}");
    assert_eq!(r.delayed_packets, r.accounting.worm.delayed, "{label}");
    assert_eq!(
        r.lost_packets,
        r.accounting.worm.lost + r.accounting.background.lost,
        "{label}"
    );
    assert_eq!(
        r.residual_packets,
        r.accounting.worm.in_flight_at_end + r.accounting.background.in_flight_at_end,
        "{label}"
    );
}

/// Two disjoint 5-host chains: scans crossing the gap have no route.
fn split_world() -> World {
    let mut g = Graph::with_nodes(10);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9)] {
        g.add_edge(
            dynaquar_topology::NodeId::new(a),
            dynaquar_topology::NodeId::new(b),
        )
        .unwrap();
    }
    World::new(g, vec![Role::EndHost; 10])
}

#[test]
fn unroutable_scans_are_counted_not_silently_dropped() {
    // A random worm on a split topology aims roughly half its scans at
    // the unreachable component. Before the ledger, those packets
    // vanished without a trace; now each one lands in `unroutable`.
    let world = split_world();
    let cfg = SimConfig::builder()
        .beta(1.0)
        .horizon(100)
        .initial_infected(1)
        .build()
        .unwrap();
    let mut obs = MetricsObserver::default();
    let r = Simulator::new(&world, &cfg, WormBehavior::random(), 7).run_observed(&mut obs);
    assert!(
        r.accounting.worm.unroutable > 0,
        "cross-component scans must be ledgered as unroutable"
    );
    // The infection can never jump the gap: at most one 5-host island
    // is ever infected.
    let ever = r
        .ever_infected_fraction
        .iter()
        .last()
        .map(|(_, v)| v * 10.0)
        .unwrap_or(0.0);
    assert!(
        ever <= 5.0 + 1e-9,
        "infection crossed a disconnected gap: {ever} hosts ever infected"
    );
    assert_conserved(&r, "split topology");
    // The observer saw the same drops the ledger recorded.
    assert_eq!(obs.drops.unroutable, r.accounting.total().unroutable);
    assert_eq!(obs.emitted, r.accounting.total().emitted);
    assert_eq!(obs.delivered, r.accounting.total().delivered);
}

#[test]
fn unroutable_drops_appear_in_the_event_stream() {
    let world = split_world();
    let cfg = SimConfig::builder()
        .beta(1.0)
        .horizon(60)
        .initial_infected(1)
        .build()
        .unwrap();
    let mut buf = Vec::new();
    {
        let mut writer = JsonlEventWriter::new(&mut buf);
        let r = Simulator::new(&world, &cfg, WormBehavior::random(), 7).run_observed(&mut writer);
        assert!(writer.finish().is_ok());
        assert!(r.accounting.worm.unroutable > 0);
    }
    let text = String::from_utf8(buf).unwrap();
    assert!(
        text.lines()
            .any(|l| l.contains("\"event\":\"packet_dropped\"")
                && l.contains("\"reason\":\"unroutable\"")),
        "event stream must name the unroutable drops"
    );
}

#[test]
fn node_outages_stall_packets_without_losing_them() {
    // Routing is precomputed on the healthy graph, so a downed node
    // stalls traffic in place rather than making it unroutable; every
    // stalled packet must still resolve to a terminal bucket (or remain
    // in flight) by the horizon.
    let world = World::from_star(generators::star(49).unwrap());
    let faults = FaultPlan::none().with_node_outages(4, (5, 30), 20);
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(120)
        .initial_infected(2)
        .faults(faults)
        .build()
        .unwrap();
    let mut stalled_any = false;
    for seed in 0..8u64 {
        let r = Simulator::new(&world, &cfg, WormBehavior::random(), seed).run();
        stalled_any |= r.accounting.worm.stalled_on_outage > 0;
        assert_eq!(
            r.accounting.worm.unroutable, 0,
            "outages must stall, not unroute"
        );
        assert_conserved(&r, "node outages");
    }
    assert!(
        stalled_any,
        "across 8 seeds at least one run must hit a downed node"
    );
}

#[test]
fn conservation_holds_across_filter_cap_and_quarantine_scenarios() {
    let star = generators::star(99).unwrap();
    let hub = star.hub;
    let world = World::from_star(star);
    let hosts = world.hosts().to_vec();

    let delaying = |release_period| {
        let mut p = RateLimitPlan::none();
        p.filter_hosts(&hosts, HostFilter::delaying(200, 1, release_period));
        p
    };
    let dropping = {
        let mut p = RateLimitPlan::none();
        p.filter_hosts(&hosts, HostFilter::dropping(50, 2));
        p
    };
    let capped = {
        let mut p = RateLimitPlan::none();
        p.limit_links_at_node(world.graph(), hub, 0.3);
        p
    };

    let scenarios: Vec<(&str, SimConfig)> = vec![
        (
            "plain outbreak",
            SimConfig::builder()
                .beta(0.8)
                .horizon(150)
                .initial_infected(2)
                .build()
                .unwrap(),
        ),
        (
            "delaying filters + quarantine",
            SimConfig::builder()
                .beta(0.8)
                .horizon(150)
                .initial_infected(2)
                .plan(delaying(10))
                .quarantine(QuarantineConfig { queue_threshold: 3 })
                .build()
                .unwrap(),
        ),
        (
            "dropping filters",
            SimConfig::builder()
                .beta(0.8)
                .horizon(150)
                .initial_infected(2)
                .plan(dropping)
                .build()
                .unwrap(),
        ),
        (
            "capped hub + background",
            SimConfig::builder()
                .beta(0.8)
                .horizon(150)
                .initial_infected(1)
                .plan(capped)
                .background(BackgroundTraffic::new(0.5))
                .build()
                .unwrap(),
        ),
        (
            "lossy links + jitter",
            SimConfig::builder()
                .beta(0.8)
                .horizon(150)
                .initial_infected(2)
                .faults(
                    FaultPlan::none()
                        .with_link_loss(0.3, 0.2)
                        .with_quarantine_jitter(3)
                        .with_false_positives(3, (5, 60)),
                )
                .quarantine(QuarantineConfig { queue_threshold: 4 })
                .build()
                .unwrap(),
        ),
        (
            // Threshold 1: hosts are cut off in the same ticks that
            // deliveries reach them.
            "same-tick quarantine + false positives",
            SimConfig::builder()
                .beta(1.0)
                .horizon(60)
                .initial_infected(4)
                .log_scans(true)
                .plan(delaying(3))
                .quarantine(QuarantineConfig { queue_threshold: 1 })
                .faults(FaultPlan::none().with_false_positives(6, (1, 20)))
                .build()
                .unwrap(),
        ),
        (
            // Long release period: the immunization sweep clears queues
            // that still hold pending release timers.
            "immunization clears pending releases",
            SimConfig::builder()
                .beta(0.9)
                .horizon(80)
                .initial_infected(3)
                .log_scans(true)
                .plan(delaying(15))
                .quarantine(QuarantineConfig { queue_threshold: 6 })
                .immunization(ImmunizationConfig {
                    trigger: ImmunizationTrigger::AtTick(5),
                    mu: 0.25,
                })
                .build()
                .unwrap(),
        ),
    ];

    for (label, cfg) in &scenarios {
        for seed in [1u64, 17, 99] {
            let r = Simulator::new(&world, cfg, WormBehavior::random(), seed).run();
            assert!(r.accounting.worm.emitted > 0, "{label}: no scans emitted");
            assert_conserved(&r, label);
        }
    }
}

/// Edge case: a node outage fires while worm packets are mid-flight
/// through the downed node. The in-flight pool must stall them in
/// place — every stalled packet still resolves to a terminal bucket or
/// `in_flight_at_end`.
#[test]
fn event_engine_conserves_packets_through_node_outages_mid_flight() {
    let world = World::from_star(generators::star(49).unwrap());
    let faults = FaultPlan::none().with_node_outages(4, (5, 30), 20);
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(120)
        .initial_infected(2)
        .faults(faults)
        .build()
        .unwrap();
    let mut stalled_any = false;
    for seed in 0..8u64 {
        let e = Simulator::new(&world, &cfg, WormBehavior::random(), seed).run();
        stalled_any |= e.accounting.worm.stalled_on_outage > 0;
        assert_eq!(
            e.accounting.worm.unroutable, 0,
            "outages must stall, not unroute"
        );
        assert_conserved(&e, "node outages");
    }
    assert!(
        stalled_any,
        "across 8 seeds at least one run must hit a downed node"
    );
}

/// Edge case: a false-positive quarantine cuts off a *clean* host whose
/// delay queue still holds throttled background-era scans. The clear
/// must ledger those packets as `cleared` — and the queue's entry in
/// the release index must die with it, or conservation breaks.
#[test]
fn event_engine_conserves_packets_through_false_positive_quarantine() {
    let world = World::from_star(generators::star(99).unwrap());
    let hosts = world.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 1, 10));
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(120)
        .initial_infected(2)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 3 })
        .faults(
            FaultPlan::none()
                .with_false_positives(6, (5, 60))
                .with_quarantine_jitter(3),
        )
        .build()
        .unwrap();
    let mut false_any = false;
    for seed in 0..8u64 {
        let e = Simulator::new(&world, &cfg, WormBehavior::random(), seed).run();
        false_any |= e.false_quarantined_hosts > 0;
        assert_conserved(&e, "false positives");
    }
    assert!(
        false_any,
        "the fault plan must actually quarantine clean hosts"
    );
}

#[test]
fn cleared_queues_balance_the_quarantine_ledger() {
    // Dynamic quarantine clears a host's delay queue; those packets are
    // terminal (`cleared`), not lost, and the ledger must say so.
    let world = World::from_star(generators::star(199).unwrap());
    let hosts = world.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 1, 10));
    let cfg = SimConfig::builder()
        .beta(0.8)
        .horizon(200)
        .initial_infected(2)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 2 })
        .build()
        .unwrap();
    let mut cleared_any = false;
    for seed in 0..6u64 {
        let r = Simulator::new(&world, &cfg, WormBehavior::random(), seed).run();
        cleared_any |= r.accounting.worm.cleared > 0;
        assert_conserved(&r, "quarantine clears");
    }
    assert!(
        cleared_any,
        "a queue_threshold of 2 must clear at least one backlog across 6 seeds"
    );
}
