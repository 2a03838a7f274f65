//! Property tests for the deterministic parallel runner: thread count
//! must never leak into results — and neither may the recorded shard
//! count.
//!
//! The contract under test (see `dynaquar_netsim::runner`): because each
//! seeded run derives all of its randomness from its own seed and results
//! are collected in seed order, `run_averaged` / `run_supervised` /
//! `infected_envelope` are **bit-identical** for worker pools of 1, 2,
//! and 8 threads — under fault-free runs, under a non-empty `FaultPlan`,
//! and with panicking runs retried/dropped by the supervisor.

use dynaquar::netsim::config::{
    ImmunizationConfig, ImmunizationTrigger, QuarantineConfig, SimConfig, WormBehavior,
};
use dynaquar::netsim::faults::FaultPlan;
use dynaquar::netsim::metrics::JsonlEventWriter;
use dynaquar::netsim::plan::{HostFilter, RateLimitPlan};
use dynaquar::netsim::runner::{
    run_averaged_parallel, run_supervised_with_parallel, ParallelConfig, RunAttempt,
    SupervisorConfig,
};
use dynaquar::netsim::sim::SimResult;
use dynaquar::netsim::{ShardSpec, Simulator, Snapshot, World};
use dynaquar::topology::generators;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];
/// Shard counts recorded by the shard-count tests below.
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 7];

fn world() -> World {
    World::from_star(generators::star(49).expect("valid star"))
}

fn config(faults: FaultPlan) -> SimConfig {
    SimConfig::builder()
        .beta(0.8)
        .horizon(50)
        .initial_infected(1)
        .faults(faults)
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Fault-free ensembles: every series, the raw runs, the outcomes,
    /// and the min/max envelope agree bit-for-bit across thread counts.
    #[test]
    fn run_averaged_is_thread_count_invariant(base_seed in 0u64..1000) {
        let w = world();
        let seeds: Vec<u64> = (0..5).map(|k| base_seed + k).collect();
        let cfg = config(FaultPlan::none());
        let serial = run_averaged_parallel(
            &w, &cfg, WormBehavior::random(), &seeds, &ParallelConfig::serial(),
        );
        for threads in THREAD_COUNTS {
            let pooled = run_averaged_parallel(
                &w, &cfg, WormBehavior::random(), &seeds, &ParallelConfig::new(threads),
            );
            prop_assert_eq!(&serial.infected_fraction, &pooled.infected_fraction);
            prop_assert_eq!(&serial.ever_infected_fraction, &pooled.ever_infected_fraction);
            prop_assert_eq!(&serial.immunized_fraction, &pooled.immunized_fraction);
            prop_assert_eq!(&serial.runs, &pooled.runs);
            prop_assert_eq!(&serial.outcomes, &pooled.outcomes);
            prop_assert_eq!(serial.infected_envelope(), pooled.infected_envelope());
        }
    }

    /// A non-empty fault plan (link loss, detector outages, false
    /// positives, activation jitter) expands per seed, so injected chaos
    /// is also schedule-independent.
    #[test]
    fn faulted_ensembles_are_thread_count_invariant(base_seed in 0u64..500) {
        let w = world();
        let faults = FaultPlan::none()
            .with_link_loss(0.3, 0.1)
            .with_detector_outages(0.2)
            .with_false_positives(4, (5, 30))
            .with_quarantine_jitter(5);
        let seeds: Vec<u64> = (0..5).map(|k| base_seed + k).collect();
        let cfg = config(faults);
        let serial = run_averaged_parallel(
            &w, &cfg, WormBehavior::random(), &seeds, &ParallelConfig::serial(),
        );
        for threads in THREAD_COUNTS {
            let pooled = run_averaged_parallel(
                &w, &cfg, WormBehavior::random(), &seeds, &ParallelConfig::new(threads),
            );
            prop_assert_eq!(&serial.runs, &pooled.runs, "threads = {}", threads);
            prop_assert_eq!(&serial.outcomes, &pooled.outcomes);
            prop_assert_eq!(serial.infected_envelope(), pooled.infected_envelope());
        }
    }

    /// Panicking runs: seeds congruent to `panic_mod` die on their first
    /// attempt and are retried with a derived seed — the retry path is a
    /// pure function of the seed too, so supervision under load is
    /// bit-identical for any pool size.
    #[test]
    fn supervised_retries_are_thread_count_invariant(
        base_seed in 0u64..200,
        panic_mod in 2u64..4,
    ) {
        let w = world();
        let seeds: Vec<u64> = (0..6).map(|k| base_seed + k).collect();
        let cfg = config(FaultPlan::none());
        let run = |a: RunAttempt| {
            if a.attempt == 1 && a.seed.is_multiple_of(panic_mod) {
                panic!("injected: seed {} fails its first attempt", a.seed);
            }
            Simulator::new(&w, &cfg, WormBehavior::random(), a.run_seed).run()
        };
        let serial = run_supervised_with_parallel(
            &seeds, &SupervisorConfig::default(), &ParallelConfig::serial(), run,
        ).expect("retries always succeed");
        for threads in THREAD_COUNTS {
            let pooled = run_supervised_with_parallel(
                &seeds, &SupervisorConfig::default(), &ParallelConfig::new(threads), run,
            ).expect("retries always succeed");
            prop_assert_eq!(&serial.runs, &pooled.runs, "threads = {}", threads);
            prop_assert_eq!(&serial.outcomes, &pooled.outcomes);
            prop_assert_eq!(&serial.infected_fraction, &pooled.infected_fraction);
            prop_assert_eq!(serial.infected_envelope(), pooled.infected_envelope());
        }
    }
}

/// Seeds that exhaust their retry budget are dropped identically on
/// every pool size: the surviving average never depends on scheduling.
#[test]
fn dropped_runs_are_thread_count_invariant() {
    let w = world();
    let seeds: Vec<u64> = (0..6).collect();
    let cfg = config(FaultPlan::none());
    let run = |a: RunAttempt| {
        if a.seed == 2 || a.seed == 4 {
            panic!("injected: seed {} always fails", a.seed);
        }
        Simulator::new(&w, &cfg, WormBehavior::random(), a.run_seed).run()
    };
    let serial = run_supervised_with_parallel(
        &seeds,
        &SupervisorConfig::default(),
        &ParallelConfig::serial(),
        run,
    )
    .expect("four survivors");
    assert_eq!(serial.dropped_runs(), 2);
    for threads in THREAD_COUNTS {
        let pooled = run_supervised_with_parallel(
            &seeds,
            &SupervisorConfig::default(),
            &ParallelConfig::new(threads),
            run,
        )
        .expect("four survivors");
        assert_eq!(serial.runs, pooled.runs, "threads = {threads}");
        assert_eq!(serial.outcomes, pooled.outcomes);
    }
}

// ---------------------------------------------------------------------
// The shard count: configs, scenarios and daemon specs still record it,
// and it must be as invisible as the worker-thread count above — same
// SimResult, same observer bytes, also across snapshot/resume.
// ---------------------------------------------------------------------

/// A 320-host subnet world: 8 subnets of 40 hosts behind 2 backbone
/// routers.
fn sharded_world() -> World {
    World::from_subnets(
        generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(8)
            .hosts_per_subnet(40)
            .build()
            .expect("valid subnet topology"),
    )
}

/// A busy config recording `shards`: throttling filters feed the
/// packet queues and a quarantine threshold keeps state transitions
/// flowing, so every engine phase (scan, forward, detect, immunize) is
/// exercised.
fn sharded_config(world: &World, shards: u32, faults: FaultPlan) -> SimConfig {
    let hosts = world.hosts().to_vec();
    let mut plan = RateLimitPlan::none();
    plan.filter_hosts(&hosts, HostFilter::delaying(200, 2, 10));
    SimConfig::builder()
        .beta(0.8)
        .horizon(40)
        .initial_infected(4)
        .log_scans(true)
        .plan(plan)
        .quarantine(QuarantineConfig { queue_threshold: 4 })
        .immunization(ImmunizationConfig {
            trigger: ImmunizationTrigger::AtTick(15),
            mu: 0.05,
        })
        .faults(faults)
        .shards(ShardSpec::Fixed(shards))
        .build()
        .expect("valid config")
}

/// One observed run: the result plus the full observer JSONL stream.
fn observed_run(world: &World, cfg: &SimConfig, seed: u64) -> (SimResult, Vec<u8>) {
    let mut buf = Vec::new();
    let result = {
        let mut writer = JsonlEventWriter::new(&mut buf);
        let r = Simulator::new(world, cfg, WormBehavior::random(), seed).run_observed(&mut writer);
        writer.finish().unwrap();
        r
    };
    (result, buf)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A single world run under any recorded shard count and fault
    /// plan produces the same `SimResult` **and the same observer
    /// bytes** as the one-shard run.
    #[test]
    fn single_runs_are_shard_count_invariant(
        seed in 0u64..500,
        with_faults in proptest::bool::ANY,
    ) {
        let faults = if with_faults {
            FaultPlan::none()
                .with_link_loss(0.2, 0.1)
                .with_detector_outages(0.2)
                .with_false_positives(4, (5, 30))
                .with_quarantine_jitter(3)
        } else {
            FaultPlan::none()
        };
        let world = sharded_world();
        let serial_cfg = sharded_config(&world, 1, faults.clone());
        let (baseline, baseline_stream) = observed_run(&world, &serial_cfg, seed);
        for shards in SHARD_COUNTS {
            let cfg = sharded_config(&world, shards, faults.clone());
            let (result, stream) = observed_run(&world, &cfg, seed);
            prop_assert_eq!(&baseline, &result, "shards = {}", shards);
            prop_assert_eq!(
                &baseline_stream, &stream,
                "observer stream diverged: shards = {}", shards
            );
        }
    }

    /// Snapshot under one shard count, resume under another: the
    /// count is outside the config fingerprint, so the resume is
    /// accepted and stays bit-identical — including the concatenated
    /// observer stream.
    #[test]
    fn resume_across_shard_counts_is_bit_identical(
        seed in 0u64..200,
        split in 8u64..32,
    ) {
        let world = sharded_world();
        let serial_cfg = sharded_config(&world, 1, FaultPlan::none());
        let (baseline, baseline_stream) = observed_run(&world, &serial_cfg, seed);
        for (snap_shards, resume_shards) in [(1, 4), (4, 1), (4, 7)] {
            let snap_cfg = sharded_config(&world, snap_shards, FaultPlan::none());
            let resume_cfg = sharded_config(&world, resume_shards, FaultPlan::none());
            let mut buf = Vec::new();
            let snap = {
                let mut writer = JsonlEventWriter::new(&mut buf);
                let mut sim = Simulator::new(&world, &snap_cfg, WormBehavior::random(), seed);
                sim.run_until(split, &mut writer);
                let snap = sim.snapshot();
                writer.finish().unwrap();
                snap
            };
            let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("codec round-trip");
            let result = {
                let mut writer = JsonlEventWriter::new(&mut buf);
                let sim = Simulator::resume(&world, &resume_cfg, WormBehavior::random(), &snap)
                    .expect("shard count is not part of the config fingerprint");
                let r = sim.run_observed(&mut writer);
                writer.finish().unwrap();
                r
            };
            prop_assert_eq!(
                &baseline, &result,
                "snapshot at {} shards, resumed at {}", snap_shards, resume_shards
            );
            prop_assert_eq!(
                &baseline_stream, &buf,
                "observer stream diverged: snapshot at {} shards, resumed at {}",
                snap_shards, resume_shards
            );
        }
    }
}

/// An immunization-heavy run on a ~5k-host world: every recorded
/// shard count must patch the same hosts in the same ascending-id
/// order.
#[test]
fn sharded_immunization_sweep_is_shard_count_invariant() {
    let world = World::from_subnets(
        generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(20)
            .hosts_per_subnet(250)
            .build()
            .expect("valid subnet topology"),
    );
    let cfg = |shards: u32| {
        SimConfig::builder()
            .beta(0.7)
            .horizon(25)
            .initial_infected(8)
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtTick(2),
                mu: 0.05,
            })
            .shards(ShardSpec::Fixed(shards))
            .build()
            .expect("valid config")
    };
    let (baseline, baseline_stream) = observed_run(&world, &cfg(1), 41);
    for shards in [2, 4, 7] {
        let (result, stream) = observed_run(&world, &cfg(shards), 41);
        assert_eq!(baseline, result, "shards = {shards}");
        assert_eq!(baseline_stream, stream, "observer stream diverged at {shards} shards");
    }
}
