//! Engine-level measurements shared by every workload: per-run phase
//! and packet tallies, and the traced replay that times one run's
//! checkpoint, restore and shard fork/join from outside.

use crate::report::Report;
use crate::trace::{Layer, Tracer};
use crate::world::Built;
use dynaquar_netsim::observer::NullObserver;
use dynaquar_netsim::{PacketAccounting, PhaseProfile, ShardSpec, SimResult, Simulator, Snapshot};
use std::path::Path;
use std::time::{Duration, Instant};

/// Engine counters summed over the runs a workload observed.
#[derive(Debug, Default)]
pub struct EngineTally {
    runs: u64,
    phases: PhaseProfile,
    /// Wall of the engine's run calls, the phases' enclosing interval.
    run_wall: Duration,
    accounting: PacketAccounting,
}

impl EngineTally {
    /// Adds runs whose merged phases and ledger are given.
    pub fn add(
        &mut self,
        runs: u64,
        phases: &PhaseProfile,
        accounting: &PacketAccounting,
        wall: Duration,
    ) {
        self.runs += runs;
        self.phases.merge(phases);
        self.accounting.merge(accounting);
        self.run_wall += wall;
    }

    /// Adds one run.
    pub fn add_run(&mut self, r: &SimResult, wall: Duration) {
        self.add(1, &r.phases, &r.accounting, wall);
    }

    /// Reports the per-run engine metrics: the five timed phases, the
    /// rest of the run wall, packet work and forwarding cost.
    pub fn report(&self, rep: &mut Report) {
        let runs = self.runs.max(1) as f64;
        let per_run_ms = |d: Duration| d.as_secs_f64() * 1e3 / runs;
        for (phase, d) in self.phases.entries() {
            rep.metric(
                &format!("netsim.phase.{}_ms", phase.label()),
                per_run_ms(d),
                "ms",
            );
        }
        let untimed = self.run_wall.saturating_sub(self.phases.total());
        rep.metric("netsim.phase.untimed_ms", per_run_ms(untimed), "ms");
        let total = self.accounting.total();
        rep.metric(
            "netsim.packets_emitted",
            total.emitted as f64 / runs,
            "count",
        );
        rep.metric(
            "netsim.packets_forwarded",
            total.forwarded as f64 / runs,
            "count",
        );
        rep.metric(
            "netsim.delivered_ratio",
            total.delivered as f64 / total.emitted.max(1) as f64,
            "ratio",
        );
        rep.metric(
            "netsim.forward_ns_per_hop",
            self.phases.forward_packets.as_secs_f64() * 1e9 / total.forwarded.max(1) as f64,
            "ns",
        );
    }
}

/// Checks packet conservation, which the engine itself only asserts in
/// debug builds.
pub fn check_conserved(rep: &mut Report, r: &SimResult, what: impl FnOnce() -> String) {
    rep.check(r.accounting.is_conserved(), || {
        format!(
            "{}: packets not conserved (worm defect {}, background defect {})",
            what(),
            r.accounting.worm.conservation_defect(),
            r.accounting.background.conservation_defect()
        )
    });
}

/// What the traced replay measured.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    pub init: Duration,
    pub snapshot_bytes: usize,
    pub encode: Duration,
    pub write: Duration,
    pub read: Duration,
    pub resume: Duration,
    pub shard_speedup: f64,
}

impl Probe {
    /// Reports the replay's checkpoint, restore and shard metrics.
    pub fn report(&self, rep: &mut Report) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        rep.metric("netsim.snapshot_bytes", self.snapshot_bytes as f64, "bytes");
        rep.metric("netsim.snapshot_encode_ms", ms(self.encode), "ms");
        rep.metric("netsim.snapshot_write_ms", ms(self.write), "ms");
        rep.metric("netsim.snapshot_read_ms", ms(self.read), "ms");
        rep.metric("netsim.resume_ms", ms(self.resume), "ms");
        rep.metric("parallel.shard_speedup", self.shard_speedup, "ratio");
    }
}

fn engine_err(e: impl std::fmt::Display) -> String {
    format!("engine refused the run: {e}")
}

/// Captures and encodes a checkpoint (`snapshot().to_bytes()`), then
/// writes it the way the daemon does (`snapshot().write_atomic`, which
/// encodes again inside the write).
pub fn checkpoint(
    tr: &mut Tracer,
    sim: &Simulator<'_>,
    path: &Path,
    request: u64,
    probe: &mut Probe,
) -> Result<(), String> {
    let (bytes, encode) = tr.time(Layer::Netsim, "snapshot.encode", request, || {
        sim.snapshot().to_bytes().len()
    });
    let (written, write) = tr.time(Layer::Netsim, "snapshot.write_atomic", request, || {
        sim.snapshot().write_atomic(path)
    });
    written.map_err(|e| format!("checkpoint write failed: {e}"))?;
    probe.snapshot_bytes = bytes;
    probe.encode = encode;
    probe.write = write;
    Ok(())
}

/// Restores the checkpoint at `path` with `Simulator::resume_with` and
/// runs it to the horizon; the result must equal the uninterrupted
/// run's.
pub fn restore_and_check(
    tr: &mut Tracer,
    built: &Built,
    path: &Path,
    uninterrupted: &SimResult,
    request: u64,
    probe: &mut Probe,
    rep: &mut Report,
) -> Result<(), String> {
    let (snap, read) = tr.time(Layer::Netsim, "snapshot.read", request, || {
        Snapshot::read(path)
    });
    let snap = snap.map_err(|e| format!("checkpoint read failed: {e}"))?;
    let behavior = built.scenario.worm_behavior();
    let (sim, resume) = tr.time(Layer::Netsim, "resume_with", request, || {
        Simulator::resume_with(&built.world, &built.config, behavior, &snap)
    });
    let sim = sim.map_err(|e| format!("resume refused: {e}"))?;
    let (resumed, _) = tr.time(Layer::Netsim, "run", request, || sim.run());
    probe.read = read;
    probe.resume = resume;
    rep.check(&resumed == uninterrupted, || {
        format!(
            "run resumed at tick {} diverged from the uninterrupted run",
            snap.tick()
        )
    });
    check_conserved(rep, &resumed, || "resumed run".into());
    Ok(())
}

/// Runs `seed` at one and at two shards; both must equal `reference`.
/// Returns the one-shard wall over the two-shard wall.
pub fn shard_speedup(
    tr: &mut Tracer,
    built: &Built,
    seed: u64,
    reference: &SimResult,
    request: u64,
    rep: &mut Report,
) -> Result<f64, String> {
    let mut walls = [Duration::ZERO; 2];
    for (slot, shards) in walls.iter_mut().zip([1u32, 2]) {
        let config = built.config.clone().with_shards(ShardSpec::Fixed(shards));
        let t = Instant::now();
        let sim = Simulator::try_new(&built.world, &config, built.scenario.worm_behavior(), seed)
            .map_err(engine_err)?;
        let (result, _) = tr.time(Layer::Netsim, "run", request, || sim.run());
        *slot = t.elapsed();
        rep.check(&result == reference, || {
            format!("the {shards}-shard run of seed {seed} diverged")
        });
    }
    Ok(walls[0].as_secs_f64() / walls[1].as_secs_f64())
}

/// The direct workloads' replay: one run of `seed` with a checkpoint
/// written at `at_tick`, restored and finished again, then replayed at
/// one and two shards. Every replay must equal the uninterrupted run.
pub fn replay(
    tr: &mut Tracer,
    built: &Built,
    seed: u64,
    at_tick: u64,
    dir: &Path,
    rep: &mut Report,
) -> Result<Probe, String> {
    let request = seed;
    let mut probe = Probe::default();
    let behavior = built.scenario.worm_behavior();
    let (sim, init) = tr.time(Layer::Netsim, "init", request, || {
        Simulator::try_new(&built.world, &built.config, behavior, seed)
    });
    let mut sim = sim.map_err(engine_err)?;
    probe.init = init;
    tr.time(Layer::Netsim, "run_until", request, || {
        sim.run_until(at_tick, &mut NullObserver)
    });
    let path = dir.join(format!("replay-{seed}.dqsnap"));
    checkpoint(tr, &sim, &path, request, &mut probe)?;
    let (full, _) = tr.time(Layer::Netsim, "run", request, || sim.run());
    check_conserved(rep, &full, || format!("replayed seed {seed}"));
    restore_and_check(tr, built, &path, &full, request, &mut probe, rep)?;
    probe.shard_speedup = shard_speedup(tr, built, seed, &full, request, rep)?;
    Ok(probe)
}
