//! The three workloads that call the engine directly, as a library
//! user running the paper's experiments does.
//!
//! Every unit of work (an ensemble batch or a single run) starts from a
//! freshly built world. Set-up is then sampled across the whole window
//! instead of in one burst at its start, so a few milliseconds of
//! interference from other tenants of the machine cannot move its
//! median; and on the lazily routed world every run meets the same cold
//! routing cache.

use crate::engine::{self, check_conserved, EngineTally};
use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Layer, Tracer};
use crate::world::{build, BuildTimes, Built, Topo};
use crate::Ctx;
use dynaquar_netsim::runner::run_averaged_parallel;
use dynaquar_netsim::{ParallelConfig, RunOutcome, Simulator};
use std::time::{Duration, Instant};

/// Figure 2's world: a 400-node star, half the hosts filtered.
const STAR: Topo = Topo::Star { leaves: 399 };
const STAR_REST: &str =
    r#""beta": 0.8, "initial_infected": 2, "horizon": 200, "deployment": {"hosts": 0.5}"#;
/// Seeds per `run_averaged_parallel` batch.
const BATCH: u64 = 64;

/// 100,432 nodes in 400 subnets: routing resolves to hier, stepping to
/// event, and immunization sweeps every unpatched host from tick 10.
///
/// The measured runs use one shard; the traced replay runs the same
/// seed at one and at two shards (`parallel.shard_speedup`). With two
/// shards every tick waits for the slower of two cores, and on a 2-core
/// virtual machine sharing its host that doubled the run-to-run spread
/// of the run time (0.16 against 0.08, runs interleaved).
const SUBNETS: Topo = Topo::Subnets {
    backbone: 32,
    subnets: 400,
    hosts: 250,
};
const SUBNETS_REST: &str = r#""beta": 0.5, "initial_infected": 400, "horizon": 200,
    "immunization": {"at_tick": 10, "mu": 0.02}, "shards": 1"#;

/// A flat 10,000-node power-law graph: it does not peel, so routing
/// resolves to the lazy LRU and forwarding is dominated by BFS misses.
/// 50 initial infections over 15 ticks keep one cold run near 0.7 s
/// with little seed-to-seed spread (3 infections over 40 ticks take
/// about 23 s).
const POWERLAW: Topo = Topo::PowerLaw {
    nodes: 10_000,
    m: 2,
    seed: 3,
};
const POWERLAW_REST: &str = r#""beta": 0.8, "initial_infected": 50, "horizon": 15"#;

/// Worker threads of the ensemble pool: the load stays within two
/// hardware threads.
const THREADS: usize = 2;

/// One measured window: every operation's latency, and the throughput
/// of every unit of work.
#[derive(Default)]
struct Window {
    latencies_ms: Vec<f64>,
    /// Host-ticks per second of each batch or run.
    rates: Vec<f64>,
}

/// `star-ensemble`: 64-seed batches through `run_averaged_parallel` on
/// a two-worker pool.
pub fn star_ensemble(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new(ctx.trace, ctx.origin);
    let root = tr.enter(Layer::Bench, ctx.workload, 0);
    let spec = STAR.spec(STAR_REST, ctx.seed_for(0, 0));
    let mut built = build(&mut tr, &STAR, &spec, 0)?;
    let mut setups = vec![built.times];
    crate::describe_run(ctx, rep, &built)?;
    let pool = ParallelConfig::new(THREADS);
    let host_ticks = (built.world.hosts().len() as u64 * built.scenario.horizon_ticks()) as f64;

    let mut tally = EngineTally::default();
    let mut windows = Vec::new();
    let (mut busy, mut capacity, mut imbalance, mut batch_ms) = (0.0, 0.0, Vec::new(), Vec::new());
    let mut batch = 0u64;
    for (traced, secs) in ctx.windows() {
        let window = tr.enter(Layer::Bench, trace::window_name(traced), 0);
        let mut off = Tracer::new(false, ctx.origin);
        let t = if traced { &mut tr } else { &mut off };
        let mut w = Window::default();
        let start = Instant::now();
        while w.latencies_ms.is_empty() || start.elapsed().as_secs_f64() < secs {
            drop(built);
            built = build(t, &STAR, &spec, batch)?;
            setups.push(built.times);
            let behavior = built.scenario.worm_behavior();
            let seeds: Vec<u64> = (0..BATCH)
                .map(|k| ctx.seed_for(1, batch * BATCH + k))
                .collect();
            let (avg, took) = t.time(Layer::Netsim, "runner.run_averaged_parallel", batch, || {
                run_averaged_parallel(&built.world, &built.config, behavior, &seeds, &pool)
            });
            batch += 1;
            rep.attempted += BATCH;
            for outcome in &avg.outcomes {
                rep.check(matches!(outcome, RunOutcome::Completed { .. }), || {
                    format!("ensemble run {outcome:?} did not complete first time")
                });
            }
            for (r, timing) in avg.runs.iter().zip(&avg.timings) {
                check_conserved(rep, r, || format!("ensemble seed {}", timing.seed));
            }
            w.latencies_ms
                .extend(avg.timings.iter().map(|t| t.wall.as_secs_f64() * 1e3));
            w.rates
                .push(host_ticks * avg.runs.len() as f64 / took.as_secs_f64());
            let run_wall: Duration = avg.timings.iter().map(|t| t.wall).sum();
            tally.add(
                avg.runs.len() as u64,
                &avg.phases,
                &avg.accounting,
                run_wall,
            );
            let per_worker: Vec<f64> = avg.workers.iter().map(|s| s.busy.as_secs_f64()).collect();
            busy += per_worker.iter().sum::<f64>();
            capacity += avg.batch_wall.as_secs_f64() * THREADS as f64;
            batch_ms.push(avg.batch_wall.as_secs_f64() * 1e3);
            let mean = per_worker.iter().sum::<f64>() / per_worker.len().max(1) as f64;
            let max = per_worker.iter().copied().fold(0.0, f64::max);
            imbalance.push(if mean > 0.0 { max / mean - 1.0 } else { 0.0 });
        }
        tr.exit(window);
        windows.push(w);
    }
    rep.info("batches", batch, "count");
    rep.info("parallel.batch_wall_ms", stats::median(&batch_ms), "ms");
    rep.info("parallel.worker_busy_frac", busy / capacity, "ratio");
    rep.info(
        "parallel.worker_imbalance",
        stats::median(&imbalance),
        "ratio",
    );
    let peak = crate::sys::peak_rss_mb("self");
    finish(ctx, rep, tr, root, &built, &setups, windows, peak, tally)
}

/// `subnet-100k`: seeded runs of the 100k-node subnet world.
pub fn subnet_100k(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    single_runs(ctx, rep, &SUBNETS, SUBNETS_REST)
}

/// `powerlaw-10k`: seeded runs of the lazily routed world, each paying
/// the cold-cache misses a user's first run meets.
pub fn powerlaw_10k(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    single_runs(ctx, rep, &POWERLAW, POWERLAW_REST)
}

fn single_runs(ctx: &Ctx, rep: &mut Report, topo: &Topo, rest: &str) -> Result<(), String> {
    let mut tr = Tracer::new(ctx.trace, ctx.origin);
    let root = tr.enter(Layer::Bench, ctx.workload, 0);
    let spec = topo.spec(rest, ctx.seed_for(0, 0));
    let mut built = build(&mut tr, topo, &spec, 0)?;
    let mut setups = vec![built.times];
    crate::describe_run(ctx, rep, &built)?;
    let host_ticks = (built.world.hosts().len() as u64 * built.scenario.horizon_ticks()) as f64;

    let mut tally = EngineTally::default();
    let mut windows = Vec::new();
    let mut run = 0u64;
    for (traced, secs) in ctx.windows() {
        let window = tr.enter(Layer::Bench, trace::window_name(traced), 0);
        let mut off = Tracer::new(false, ctx.origin);
        let t = if traced { &mut tr } else { &mut off };
        let mut w = Window::default();
        let start = Instant::now();
        while w.latencies_ms.is_empty() || start.elapsed().as_secs_f64() < secs {
            let seed = ctx.seed_for(1, run);
            run += 1;
            rep.attempted += 1;
            drop(built);
            built = build(t, topo, &spec, run)?;
            setups.push(built.times);
            let behavior = built.scenario.worm_behavior();
            let (sim, init) = t.time(Layer::Netsim, "init", seed, || {
                Simulator::try_new(&built.world, &built.config, behavior, seed)
            });
            let sim = sim.map_err(|e| format!("engine refused seed {seed}: {e}"))?;
            let (result, took) = t.time(Layer::Netsim, "run", seed, || sim.run());
            check_conserved(rep, &result, || format!("seed {seed}"));
            tally.add_run(&result, took);
            w.latencies_ms.push((init + took).as_secs_f64() * 1e3);
            w.rates.push(host_ticks / (init + took).as_secs_f64());
        }
        tr.exit(window);
        windows.push(w);
    }
    let peak = crate::sys::peak_rss_mb("self");
    finish(ctx, rep, tr, root, &built, &setups, windows, peak, tally)
}

/// Reports the end-to-end metrics (untraced) or the per-layer ones
/// (traced, after the replay).
#[allow(clippy::too_many_arguments)]
fn finish(
    ctx: &Ctx,
    rep: &mut Report,
    mut tr: Tracer,
    root: crate::trace::Open,
    built: &Built,
    setups: &[BuildTimes],
    windows: Vec<Window>,
    peak_rss_mb: Option<f64>,
    tally: EngineTally,
) -> Result<(), String> {
    let peak_rss_mb = peak_rss_mb.ok_or("cannot read VmHWM from /proc")?;
    let all: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.latencies_ms.iter().copied())
        .collect();
    crate::report_latency(rep, "run", &all);
    rep.info("setup_n", setups.len(), "count");
    if !ctx.trace {
        let w = &windows[0];
        let setup_s: Vec<f64> = setups.iter().map(|s| s.total().as_secs_f64()).collect();
        rep.metric("setup_s", stats::median(&setup_s), "s");
        rep.metric("peak_rss_mb", peak_rss_mb, "MB");
        rep.metric("host_ticks_per_s", stats::median(&w.rates), "1/s");
        rep.metric("latency_p50_ms", stats::median(&w.latencies_ms), "ms");
        return Ok(());
    }
    let traced = ctx.windows().into_iter().map(|(traced, _)| traced);
    let overhead = layers::overhead_pct(traced.zip(windows.iter().map(|w| &w.latencies_ms[..])));
    let at_tick = built.scenario.horizon_ticks() / 2;
    let probe = engine::replay(&mut tr, built, ctx.seed_for(2, 0), at_tick, &ctx.work, rep)?;
    tr.exit(root);
    layers::report(ctx, rep, &tr, setups, &tally, &probe, overhead)
}
