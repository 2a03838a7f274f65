//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * ODE steppers (Euler vs RK4 vs adaptive Dormand–Prince) on the
//!   homogeneous model;
//! * routing-table precomputation cost by topology;
//! * rate-limiter mechanisms judging a scanning workload;
//! * cap-weight normalization modes when building a backbone plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dynaquar_epidemic::ode::{solve_adaptive, solve_fixed, Euler, FnSystem, Rk4};
use dynaquar_netsim::plan::{Normalization, RateLimitPlan};
use dynaquar_ratelimit::bucket::TokenBucket;
use dynaquar_ratelimit::dns::DnsGuard;
use dynaquar_ratelimit::throttle::VirusThrottle;
use dynaquar_ratelimit::window::UniqueIpWindow;
use dynaquar_ratelimit::{RateLimiter, RemoteKey};
use dynaquar_topology::generators;
use dynaquar_topology::roles::{assign_by_degree, nodes_with_role, Role};
use dynaquar_topology::HierRouting;
use std::hint::black_box;

fn logistic_system() -> FnSystem<impl Fn(f64, &[f64], &mut [f64])> {
    FnSystem::new(1, |_t, y, dy| dy[0] = 0.8 * y[0] * (1000.0 - y[0]) / 1000.0)
}

fn ode_steppers(c: &mut Criterion) {
    let mut group = c.benchmark_group("ode_steppers");
    group.bench_function("euler_h0.01", |b| {
        let sys = logistic_system();
        b.iter(|| {
            black_box(solve_fixed(&sys, &mut Euler::new(1), 0.0, &[1.0], 50.0, 0.01))
        })
    });
    group.bench_function("rk4_h0.05", |b| {
        let sys = logistic_system();
        b.iter(|| black_box(solve_fixed(&sys, &mut Rk4::new(1), 0.0, &[1.0], 50.0, 0.05)))
    });
    group.bench_function("dormand_prince_tol1e-8", |b| {
        let sys = logistic_system();
        b.iter(|| black_box(solve_adaptive(&sys, 0.0, &[1.0], 50.0, 1e-8).unwrap()))
    });
    group.finish();
}

fn routing_precompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_precompute");
    group.sample_size(10);
    for &n in &[200usize, 500] {
        let graph = generators::barabasi_albert(n, 2, 7).expect("valid");
        group.bench_with_input(BenchmarkId::new("power_law", n), &graph, |b, g| {
            b.iter(|| black_box(HierRouting::new(g)))
        });
    }
    let star = generators::star(500).expect("valid");
    group.bench_function("star_500", |b| {
        b.iter(|| black_box(HierRouting::new(&star.graph)))
    });
    group.finish();
}

/// One simulated scanning burst: 10,000 contacts to fresh addresses.
fn drive_limiter<L: RateLimiter>(limiter: &mut L) -> u32 {
    let mut allowed = 0;
    for k in 0..10_000u64 {
        if limiter.check(k as f64 * 0.01, RemoteKey::new(k)).is_allow() {
            allowed += 1;
        }
    }
    allowed
}

fn limiter_mechanisms(c: &mut Criterion) {
    let mut group = c.benchmark_group("limiter_mechanisms");
    group.bench_function("unique_ip_window_16per5s", |b| {
        b.iter(|| {
            let mut l = UniqueIpWindow::new(5.0, 16).expect("valid");
            black_box(drive_limiter(&mut l))
        })
    });
    group.bench_function("virus_throttle_5per_s", |b| {
        b.iter(|| {
            let mut l = VirusThrottle::williamson_default();
            black_box(drive_limiter(&mut l))
        })
    });
    group.bench_function("dns_guard_6per_min", |b| {
        b.iter(|| {
            let mut l = DnsGuard::ganger_default();
            black_box(drive_limiter(&mut l))
        })
    });
    group.bench_function("token_bucket_10per_s", |b| {
        b.iter(|| {
            let mut l = TokenBucket::new(10.0, 10.0).expect("valid");
            black_box(drive_limiter(&mut l))
        })
    });
    group.finish();
}

fn cap_normalization(c: &mut Criterion) {
    let graph = generators::barabasi_albert(300, 2, 7).expect("valid");
    let routing = HierRouting::new(&graph);
    let roles = assign_by_degree(&graph, 0.05, 0.10);
    let backbone = nodes_with_role(&roles, Role::Backbone);
    let mut group = c.benchmark_group("cap_normalization");
    for (label, norm) in [
        ("max_load", Normalization::MaxLoad),
        ("mean_load", Normalization::MeanLoad),
        ("flat", Normalization::None),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut plan = RateLimitPlan::none();
                plan.weighted_link_caps_with(&graph, &routing, &backbone, 10.0, norm);
                black_box(plan.limited_link_count())
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    ode_steppers,
    routing_precompute,
    limiter_mechanisms,
    cap_normalization
);
criterion_main!(benches);
