//! Property-based tests on cross-crate invariants.

use dynaquar::epidemic::edge::{CoupledTwoLevel, ScanAllocation, Targeting};
use dynaquar::epidemic::fit::fit_logistic;
use dynaquar::epidemic::logistic::Logistic;
use dynaquar::epidemic::star::LeafRateLimit;
use dynaquar::prelude::*;
use dynaquar::ratelimit::window::UniqueIpWindow;
use dynaquar::topology::generators;
use dynaquar::topology::{HierRouting, RoutingBackend};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The logistic closed form is monotone, bounded, and consistent with
    /// its own inverse for any valid parameter set.
    #[test]
    fn logistic_is_monotone_and_invertible(
        n in 10.0..100_000.0f64,
        beta in 0.01..5.0f64,
        i0_frac in 0.0001..0.5f64,
        level in 0.51..0.99f64,
    ) {
        let i0 = (n * i0_frac).max(1e-6);
        prop_assume!(i0 < n);
        let m = Logistic::new(n, beta, i0).unwrap();
        let mut prev = 0.0;
        for k in 0..100 {
            let f = m.fraction_at(k as f64);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev - 1e-12);
            prev = f;
        }
        if level > i0 / n {
            let t = m.time_to_fraction(level).unwrap();
            prop_assert!((m.fraction_at(t) - level).abs() < 1e-6);
        }
    }

    /// Equation 3: more deployment never speeds up the worm.
    #[test]
    fn leaf_rate_limit_is_monotone_in_q(
        q1 in 0.0..1.0f64,
        q2 in 0.0..1.0f64,
        beta2 in 0.0005..0.1f64,
    ) {
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let t = |q: f64| {
            LeafRateLimit::new(500.0, q, 0.8, beta2, 1.0)
                .unwrap()
                .time_to_fraction(0.5)
                .unwrap()
        };
        prop_assert!(t(lo) <= t(hi) + 1e-9);
    }

    /// BA graphs are connected simple graphs with the expected edge
    /// count for any seed.
    #[test]
    fn ba_generator_invariants(seed in 0u64..500, n in 10usize..200, m in 1usize..4) {
        prop_assume!(n > m);
        let g = generators::barabasi_albert(n, m, seed).unwrap();
        prop_assert_eq!(g.node_count(), n);
        let seed_edges = m * (m + 1) / 2;
        prop_assert_eq!(g.edge_count(), seed_edges + (n - m - 1) * m);
        prop_assert!(g.is_connected());
        // Simple graph: every adjacency list is duplicate-free.
        for node in g.nodes() {
            let mut nbs: Vec<_> = g.neighbors(node).to_vec();
            nbs.sort_unstable();
            nbs.dedup();
            prop_assert_eq!(nbs.len(), g.degree(node));
        }
    }

    /// The routing table produces shortest, loop-free paths.
    #[test]
    fn routing_paths_are_shortest_and_loop_free(seed in 0u64..200) {
        let g = generators::barabasi_albert(60, 2, seed).unwrap();
        let rt = HierRouting::new(&g);
        for (s, d) in [(0usize, 59usize), (5, 40), (59, 1)] {
            let path = rt.path(s.into(), d.into()).unwrap();
            prop_assert_eq!(path.len() as u32 - 1, rt.distance(s.into(), d.into()).unwrap());
            let mut seen = std::collections::HashSet::new();
            for hop in &path {
                prop_assert!(seen.insert(*hop), "loop in path");
            }
        }
    }

    /// A unique-IP window never allows more distinct destinations per
    /// window than its budget.
    #[test]
    fn window_budget_is_never_exceeded(
        window in 1.0..30.0f64,
        max in 1usize..20,
        contacts in prop::collection::vec((0.0..300.0f64, 0u64..50), 1..400),
    ) {
        let mut limiter = UniqueIpWindow::new(window, max).unwrap();
        let mut events: Vec<(f64, u64)> = contacts;
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut allowed_new: Vec<(f64, u64)> = Vec::new();
        for (t, key) in events {
            let dst = RemoteKey::new(key);
            if limiter.check(t, dst).is_allow() {
                // Count as "new in window" only if not already allowed
                // inside the current window.
                let fresh = !allowed_new
                    .iter()
                    .any(|&(at, k)| k == key && t - at < window);
                if fresh {
                    allowed_new.push((t, key));
                }
            }
        }
        // Sliding-window check over admissions.
        for i in 0..allowed_new.len() {
            let (t0, _) = allowed_new[i];
            let in_window = allowed_new[i..]
                .iter()
                .take_while(|&&(t, _)| t - t0 < window)
                .map(|&(_, k)| k)
                .collect::<std::collections::HashSet<_>>();
            prop_assert!(
                in_window.len() <= max,
                "window starting at {t0} admitted {} distinct (budget {max})",
                in_window.len()
            );
        }
    }

    /// A scan budget is conserved: intra + uncapped-inter rates sum to
    /// the raw scan rate for every targeting policy.
    #[test]
    fn scan_allocation_conserves_budget(
        scan_rate in 0.05..5.0f64,
        subnets in 2.0..100.0f64,
        hosts in 2.0..100.0f64,
        bias in 0.0..1.0f64,
        random in prop::bool::ANY,
    ) {
        let targeting = if random {
            Targeting::Random
        } else {
            Targeting::LocalPreferential { local_bias: bias }
        };
        let alloc = ScanAllocation {
            scan_rate,
            subnets,
            hosts_per_subnet: hosts,
            targeting,
            edge_cap: None,
        };
        prop_assert!((alloc.beta_intra() + alloc.beta_inter() - scan_rate).abs() < 1e-9);
        // A cap can only lower the inter rate.
        let capped = ScanAllocation { edge_cap: Some(0.01), ..alloc };
        prop_assert!(capped.beta_inter() <= alloc.beta_inter() + 1e-12);
    }

    /// The coupled two-level system stays within [0, 1] on both scales
    /// and is monotone, for any allocation.
    #[test]
    fn coupled_two_level_is_well_behaved(
        scan_rate in 0.1..2.0f64,
        bias in 0.1..0.95f64,
        cap in 0.01..5.0f64,
    ) {
        let alloc = ScanAllocation {
            scan_rate,
            subnets: 20.0,
            hosts_per_subnet: 25.0,
            targeting: Targeting::LocalPreferential { local_bias: bias },
            edge_cap: Some(cap),
        };
        let model = CoupledTwoLevel::from_allocation(&alloc).unwrap();
        let (y, x, overall) = model.solve(200.0, 0.2);
        for series in [&y, &x, &overall] {
            let mut prev = -1e-9;
            for (t, v) in series.iter() {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(&v), "t = {t}");
                prop_assert!(v >= prev - 1e-9);
                prev = v;
            }
        }
    }

    /// Logistic fitting inverts logistic generation across the parameter
    /// space.
    #[test]
    fn fit_inverts_generation(
        beta in 0.05..2.0f64,
        n in 100.0..10_000.0f64,
        i0 in 1.0..10.0f64,
    ) {
        prop_assume!(i0 < n / 10.0);
        let horizon = 40.0 / beta;
        let series = Logistic::new(n, beta, i0).unwrap().series(0.0, horizon, horizon / 400.0);
        let fitted = fit_logistic(&series).unwrap();
        prop_assert!((fitted.rate - beta).abs() / beta < 1e-3,
            "beta {beta} fitted {}", fitted.rate);
    }

    /// Simulation runs are reproducible: identical seeds yield identical
    /// infection curves regardless of thread interleaving.
    #[test]
    fn simulation_determinism(seed in 0u64..30) {
        let world = World::from_star(generators::star(40).unwrap());
        let config = SimConfig::builder()
            .beta(0.8)
            .horizon(30)
            .initial_infected(1)
            .build()
            .unwrap();
        let a = Simulator::new(&world, &config, WormBehavior::random(), seed).run();
        let b = Simulator::new(&world, &config, WormBehavior::random(), seed).run();
        prop_assert_eq!(a, b);
    }

    /// Infection fractions from the simulator are always within [0, 1]
    /// and ever-infected dominates currently-infected.
    #[test]
    fn simulator_fraction_bounds(seed in 0u64..20, beta in 0.05..1.0f64) {
        let world = World::from_star(generators::star(30).unwrap());
        let config = SimConfig::builder()
            .beta(beta)
            .horizon(40)
            .initial_infected(1)
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtTick(5),
                mu: 0.15,
            })
            .build()
            .unwrap();
        let r = Simulator::new(&world, &config, WormBehavior::random(), seed).run();
        for ((t, inf), (_, ever)) in r.infected_fraction.iter().zip(r.ever_infected_fraction.iter()) {
            prop_assert!((0.0..=1.0).contains(&inf), "t={t}");
            prop_assert!((0.0..=1.0 + 1e-12).contains(&ever));
            prop_assert!(ever >= inf - 1e-12, "ever {ever} < infected {inf}");
        }
    }
}
