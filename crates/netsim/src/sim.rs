//! The tick-driven simulation engine.
//!
//! Each tick:
//!
//! 1. **Immunization** (if triggered): every unpatched host is patched
//!    with probability µ; patched hosts stop scanning and leave the
//!    susceptible pool. Welchia-style worms additionally self-patch
//!    hosts whose infection age exceeds the configured delay.
//! 2. **Scan generation**: every infected host draws `scans_per_tick`
//!    targets from its selector; each scan emits an infection packet with
//!    probability β, subject to the host's egress filter (if any) —
//!    blocked scans are dropped or queued per the filter discipline, and
//!    an overflowing throttle queue triggers the optional per-host
//!    quarantine. Previously throttled scans whose delay elapsed are
//!    released, and background legitimate flows are injected.
//! 3. **Packet forwarding**: every in-flight packet advances one hop
//!    along the shortest path, subject to per-link and per-node transit
//!    token budgets (fractional caps accumulate credit); packets that
//!    find their link full wait in FIFO order (the paper "queu\[es\] the
//!    remaining packets").
//! 4. **Delivery**: a worm packet reaching a susceptible host infects
//!    it; a background packet updates the collateral statistics.
//!
//! # Event-driven enumeration
//!
//! No phase sweeps every host. Each asks the engine's activity indexes
//! instead — the sorted infected set, the hosts with pending throttled
//! scans, the jitter-delayed quarantines, the self-patch timer wheel,
//! the unpatched-host index — so a tick costs `O(active + in-flight)`
//! rather than `O(hosts)`. Every index is sorted by node id, so each
//! phase visits its candidates in ascending host order, and every
//! per-host draw comes from that host's own stream or a stateless hash
//! of `(seed, tick, host)` (see `netsim::streams`): skipping an
//! inactive host cannot shift another host's draws. The engine
//! fingerprints (`tests/engine_fingerprints.rs`) pin the results, and
//! with them these streams.

use crate::background::BackgroundStats;
use crate::config::{CheckpointPolicy, ImmunizationTrigger, SimConfig, WormBehavior};
use crate::error::Error;
use crate::faults::{FaultEvent, FaultSchedule, FAULT_STREAM_SALT};
use crate::metrics::{DropReason, PacketAccounting, PacketKind, Phase, PhaseProfile};
use crate::observer::{NullObserver, SimObserver, TickSnapshot};
use crate::plan::{FilterDiscipline, HostFilter};
use crate::snapshot::{config_fingerprint, world_fingerprint, Snapshot, SnapshotError};
use crate::soa::{idx32, HostStates, Packet, PacketPool};
#[cfg(debug_assertions)]
use crate::soa::NodeState;
use crate::streams::{host_stream_seed, immunization_u01};
use crate::world::World;
use dynaquar_epidemic::TimeSeries;
use dynaquar_ratelimit::window::UniqueIpWindow;
use dynaquar_ratelimit::{RateLimiter, RemoteKey};
use dynaquar_topology::NodeId;
use dynaquar_worms::scanner::{ScanContext, TargetSelector};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// Aggregate outcome of one simulation run.
///
/// Equality compares every *simulated* field and ignores the
/// observational [`phases`](SimResult::phases) wall-clock profile, so
/// the determinism contract ("same seed ⇒ `==` results, regardless of
/// thread count or machine load") keeps holding.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimResult {
    /// Fraction of hosts currently infected, per tick.
    pub infected_fraction: TimeSeries,
    /// Fraction of hosts ever infected, per tick (Figure 8's y-axis).
    pub ever_infected_fraction: TimeSeries,
    /// Fraction of hosts immunized, per tick.
    pub immunized_fraction: TimeSeries,
    /// Packets queued in the network per tick (worm + background) — the
    /// network-level congestion signature of a throttled flood.
    pub backlog: TimeSeries,
    /// Infection packets delivered to their destination.
    pub delivered_packets: u64,
    /// Packets dropped outright by host egress filters.
    pub filtered_packets: u64,
    /// Packets delayed by throttling host filters (released later).
    pub delayed_packets: u64,
    /// Hosts quarantined by the detection-driven response.
    pub quarantined_hosts: u64,
    /// Clean hosts wrongly quarantined by injected detector false
    /// positives (zero unless a [`crate::faults::FaultPlan`] says so).
    pub false_quarantined_hosts: u64,
    /// Packets dropped by injected per-link loss (zero without faults).
    pub lost_packets: u64,
    /// Emitted worm scans as `(tick, scanner, target)` — empty unless
    /// the config enables scan logging.
    pub scan_log: Vec<(u64, NodeId, NodeId)>,
    /// Packets still queued when the run ended.
    pub residual_packets: u64,
    /// Background legitimate-traffic delivery statistics (all zeros when
    /// no background workload was configured).
    pub background: BackgroundStats,
    /// The complete per-[`PacketKind`] packet ledger: packets are
    /// conserved by construction (`emitted = delivered + drops +
    /// end-of-run backlog`, per kind — see
    /// [`KindCounts`](crate::metrics::KindCounts)). The legacy scalar
    /// counters above are projections of this ledger.
    pub accounting: PacketAccounting,
    /// Wall-clock time per engine phase. Observational: excluded from
    /// `PartialEq`.
    pub phases: PhaseProfile,
}

impl PartialEq for SimResult {
    fn eq(&self, other: &Self) -> bool {
        // `phases` is deliberately ignored: wall-clock timing differs
        // between bit-identical runs.
        self.infected_fraction == other.infected_fraction
            && self.ever_infected_fraction == other.ever_infected_fraction
            && self.immunized_fraction == other.immunized_fraction
            && self.backlog == other.backlog
            && self.delivered_packets == other.delivered_packets
            && self.filtered_packets == other.filtered_packets
            && self.delayed_packets == other.delayed_packets
            && self.quarantined_hosts == other.quarantined_hosts
            && self.false_quarantined_hosts == other.false_quarantined_hosts
            && self.lost_packets == other.lost_packets
            && self.scan_log == other.scan_log
            && self.residual_packets == other.residual_packets
            && self.background == other.background
            && self.accounting == other.accounting
    }
}

/// How the engine steps a run: event-driven enumeration of the activity
/// indexes (see the module docs). It is the only engine;
/// [`Simulator::resolved_strategy`] reports it so a run's report can
/// say what ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimStrategy {
    /// Enumerate candidates from the sorted activity indexes.
    Event,
}

/// One seeded simulation run over a shared [`World`].
pub struct Simulator<'w> {
    world: &'w World,
    config: SimConfig,
    behavior: WormBehavior,
    rng: SmallRng,
    /// Struct-of-arrays per-node state (status + infection tick) with
    /// the incrementally maintained census counters built in (replaces
    /// the former O(hosts) `count_state` scans; verified against a full
    /// scan by a per-tick debug assertion).
    host_state: HostStates,
    selectors: Vec<Option<Box<dyn TargetSelector>>>,
    /// Per-host scan RNG streams, `Some` exactly where `selectors` is:
    /// each infected host draws its targets and β coin-flips from its
    /// own stream (seeded from `(seed, host)` at infection time — see
    /// [`crate::streams`]), so which other hosts scan, or are skipped,
    /// cannot perturb any draw.
    scan_rngs: Vec<Option<SmallRng>>,
    host_filter_cfg: Vec<Option<HostFilter>>,
    host_limiters: Vec<Option<UniqueIpWindow>>,
    link_caps: Vec<Option<f64>>,
    /// Token accumulator per capped link: refilled by `cap` each tick,
    /// clamped to `max(cap, 1)` so fractional caps (e.g. 0.2 packets per
    /// tick) accumulate credit across ticks.
    link_tokens: Vec<f64>,
    node_caps: Vec<Option<f64>>,
    /// Token accumulator per capped node (same scheme as links).
    node_tokens: Vec<f64>,
    /// In-flight packets: a slab + free-list FIFO that reaches its
    /// high-water mark and then stops allocating.
    packets: PacketPool,
    immunization_active: bool,
    /// The per-kind packet ledger, updated on every engine code path.
    accounting: PacketAccounting,
    /// Per-phase wall-clock accumulators for the run.
    phases: PhaseProfile,
    /// Whether the observer asked for per-packet callbacks (cached at
    /// run start so the hot paths test one bool).
    packet_events: bool,
    /// The run's concrete fault realization (empty without a fault plan).
    faults: FaultSchedule,
    /// Dedicated RNG for ongoing fault draws (per-packet loss,
    /// quarantine jitter) — independent of the main stream so faults
    /// never perturb the worm's randomness.
    fault_rng: SmallRng,
    /// Dense per-edge "down right now" flags, updated each tick.
    link_down: Vec<bool>,
    /// Dense per-node "down right now" flags, updated each tick.
    node_down: Vec<bool>,
    /// Dense per-edge drop probability (0.0 = lossless).
    link_loss: Vec<f64>,
    /// Jittered quarantine activations: `Some(tick)` = cut off then.
    pending_quarantine: Vec<Option<u64>>,
    /// Cursor into the sorted false-quarantine schedule.
    false_quarantine_cursor: usize,
    false_quarantined: u64,
    background: BackgroundStats,
    /// Carry-over of the fractional background injection rate.
    background_credit: f64,
    /// Per-host throttle queues: scans awaiting delayed release, as
    /// `(release_tick, target)`, ordered by release tick.
    delay_queues: Vec<VecDeque<(u64, NodeId)>>,
    quarantined: u64,
    scan_log: Vec<(u64, NodeId, NodeId)>,
    /// Hosts with a non-empty throttle queue, sorted ascending — the
    /// release/clear candidates. Maintained by every queue mutation
    /// (push, drain, clear).
    queue_hosts: BTreeSet<u32>,
    /// Hosts with a jitter-delayed quarantine scheduled, sorted
    /// ascending — the pending-activation candidates.
    pending_hosts: BTreeSet<u32>,
    /// Self-patch timer wheel: `(due_tick, host)` appended at infection
    /// time, so due ticks are nondecreasing and the front of the deque
    /// is always the next timer to fire. Each due batch is sorted by
    /// host before firing, so timers fire in ascending host order.
    patch_due: VecDeque<(u64, u32)>,
    /// Edge indexes that carry a token cap, ascending (token refill is
    /// O(capped), not O(edges)).
    capped_links: Vec<u32>,
    /// Node indexes that carry a transit cap, ascending.
    capped_nodes: Vec<u32>,
    /// Recycled per-tick candidate buffer (activity-index snapshots are
    /// taken before mutating, since firing an event edits the index).
    scratch_hosts: Vec<u32>,
    /// The run seed: names the checkpoint file and travels in the
    /// snapshot header so a resume can rebuild seed-derived state.
    seed: u64,
    /// Ticks simulated so far — the cursor [`Simulator::run_until`]
    /// advances and a resumed run starts from.
    tick: u64,
    /// Per-tick infected-fraction series recorded so far.
    series_infected: TimeSeries,
    /// Per-tick ever-infected-fraction series recorded so far.
    series_ever: TimeSeries,
    /// Per-tick immunized-fraction series recorded so far.
    series_immune: TimeSeries,
    /// Per-tick network-backlog series recorded so far.
    series_backlog: TimeSeries,
    /// One-shot latch for the checkpoint-write failure warning (a run
    /// keeps going on its last good checkpoint rather than failing).
    checkpoint_warned: bool,
}

impl std::fmt::Debug for Simulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulator")
            .field("nodes", &self.world.graph().node_count())
            .field("in_flight", &self.packets.queued())
            .finish()
    }
}

impl<'w> Simulator<'w> {
    /// Prepares a run: `seed` fixes all randomness (initial infections,
    /// target selection, immunization draws, fault realizations).
    ///
    /// # Panics
    ///
    /// Panics if the world has fewer hosts than
    /// `config.initial_infected()` or a host filter is malformed; use
    /// [`Simulator::try_new`] for a typed error instead.
    pub fn new(world: &'w World, config: &SimConfig, behavior: WormBehavior, seed: u64) -> Self {
        match Self::try_new(world, config, behavior, seed) {
            Ok(sim) => sim,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Simulator::new`]: returns
    /// [`Error::TooManyInitialInfections`] when the config seeds more
    /// infections than the world has hosts, and
    /// [`Error::InvalidConfig`] when a host filter carries an invalid
    /// window or budget.
    pub fn try_new(
        world: &'w World,
        config: &SimConfig,
        behavior: WormBehavior,
        seed: u64,
    ) -> Result<Self, Error> {
        let n = world.graph().node_count();
        if world.hosts().len() < config.initial_infected() {
            return Err(Error::TooManyInitialInfections {
                requested: config.initial_infected(),
                hosts: world.hosts().len(),
            });
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut host_state = HostStates::new(n, world.hosts());
        let mut selectors: Vec<Option<Box<dyn TargetSelector>>> =
            (0..n).map(|_| None).collect();
        let mut scan_rngs: Vec<Option<SmallRng>> = (0..n).map(|_| None).collect();

        // Seed the infection.
        let mut pool: Vec<NodeId> = world.hosts().to_vec();
        let mut patch_due: VecDeque<(u64, u32)> = VecDeque::new();
        for _ in 0..config.initial_infected() {
            let k = rng.gen_range(0..pool.len());
            let node = pool.swap_remove(k);
            host_state.seed(node.index());
            selectors[node.index()] = Some(behavior.make_selector());
            scan_rngs[node.index()] =
                Some(SmallRng::seed_from_u64(host_stream_seed(seed, idx32(node.index()))));
            if let Some(delay) = behavior.self_patch_after {
                // Seeds count as infected at tick 0.
                patch_due.push_back((delay, idx32(node.index())));
            }
        }

        let host_filter_cfg = config.plan().dense_host_filters(world.graph());
        let mut host_limiters = Vec::with_capacity(host_filter_cfg.len());
        for f in &host_filter_cfg {
            host_limiters.push(match f {
                Some(f) => Some(
                    UniqueIpWindow::new(f.window_ticks as f64, f.max_new_targets).map_err(
                        |_| Error::InvalidConfig {
                            name: "host_filter",
                            reason: "window_ticks and max_new_targets must be positive",
                        },
                    )?,
                ),
                None => None,
            });
        }
        let link_caps = config.plan().dense_link_caps(world.graph());
        let link_tokens = link_caps
            .iter()
            .map(|c| c.map_or(0.0, |cap| cap.max(1.0)))
            .collect();
        let node_caps = config.plan().dense_node_caps(world.graph());
        let node_tokens = node_caps
            .iter()
            .map(|c| c.map_or(0.0, |cap| cap.max(1.0)))
            .collect();
        let capped_links: Vec<u32> = link_caps
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|_| idx32(i)))
            .collect();
        let capped_nodes: Vec<u32> = node_caps
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|_| idx32(i)))
            .collect();

        // Expand the fault plan on its own derived RNG stream so an
        // empty plan leaves the main stream (and thus the run) untouched.
        let faults = config.faults().expand(world, seed, config.horizon());
        let fault_rng = SmallRng::seed_from_u64(seed ^ FAULT_STREAM_SALT);
        let mut host_filter_cfg = host_filter_cfg;
        let mut link_loss = vec![0.0; world.graph().edge_count()];
        for &(edge, p) in &faults.lossy_links {
            link_loss[edge.index()] = p;
        }
        for &h in &faults.disabled_detectors {
            host_limiters[h.index()] = None;
            host_filter_cfg[h.index()] = None;
        }

        Ok(Simulator {
            world,
            config: config.clone(),
            behavior,
            rng,
            host_state,
            selectors,
            scan_rngs,
            host_filter_cfg,
            host_limiters,
            link_caps,
            link_tokens,
            node_tokens,
            node_caps,
            packets: PacketPool::new(),
            immunization_active: false,
            accounting: PacketAccounting::default(),
            phases: PhaseProfile::default(),
            packet_events: false,
            link_down: vec![false; world.graph().edge_count()],
            node_down: vec![false; n],
            link_loss,
            pending_quarantine: vec![None; n],
            false_quarantine_cursor: 0,
            false_quarantined: 0,
            faults,
            fault_rng,
            background: BackgroundStats::default(),
            background_credit: 0.0,
            delay_queues: vec![VecDeque::new(); n],
            quarantined: 0,
            scan_log: Vec::new(),
            queue_hosts: BTreeSet::new(),
            pending_hosts: BTreeSet::new(),
            patch_due,
            capped_links,
            capped_nodes,
            scratch_hosts: Vec::new(),
            seed,
            tick: 0,
            series_infected: TimeSeries::with_capacity(config.horizon() as usize + 1),
            series_ever: TimeSeries::with_capacity(config.horizon() as usize + 1),
            series_immune: TimeSeries::with_capacity(config.horizon() as usize + 1),
            series_backlog: TimeSeries::with_capacity(config.horizon() as usize + 1),
            checkpoint_warned: false,
        })
    }

    /// Ticks simulated so far (0 before the first
    /// [`Simulator::run_until`] segment; the snapshot tick after a
    /// resume).
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// The stepping strategy this run uses (always event-driven).
    pub fn resolved_strategy(&self) -> SimStrategy {
        SimStrategy::Event
    }

    fn host_count(&self) -> usize {
        self.world.hosts().len()
    }

    /// Full O(hosts) census, kept in debug builds only to cross-check
    /// the incremental [`HostStates`] counters.
    #[cfg(debug_assertions)]
    fn count_state(&self, s: NodeState) -> usize {
        self.world
            .hosts()
            .iter()
            .filter(|h| self.host_state.status(h.index()) == s)
            .count()
    }

    /// Asserts (debug builds) that the incremental census matches a full
    /// state scan — the equivalence proof for retiring the per-tick
    /// O(hosts) scans.
    #[inline]
    fn debug_check_census(&self) {
        #[cfg(debug_assertions)]
        {
            debug_assert_eq!(
                self.host_state.infected(),
                self.count_state(NodeState::Infected)
            );
            debug_assert_eq!(
                self.host_state.immunized(),
                self.count_state(NodeState::Immunized)
            );
            // The activity indexes the phases enumerate from must
            // mirror the dense state exactly — the per-tick proof
            // obligation behind skipping inactive hosts.
            self.host_state.debug_assert_active_index();
            // Every active host carries both a selector and its own
            // scan stream (the scan sweep unwraps both).
            for i in self.host_state.active_hosts() {
                debug_assert!(
                    self.selectors[i as usize].is_some(),
                    "active host {i} has no selector"
                );
                debug_assert!(
                    self.scan_rngs[i as usize].is_some(),
                    "active host {i} has no scan stream"
                );
            }
            for (i, q) in self.delay_queues.iter().enumerate() {
                debug_assert_eq!(
                    self.queue_hosts.contains(&idx32(i)),
                    !q.is_empty(),
                    "queue index out of sync at host {i}"
                );
            }
            for (i, p) in self.pending_quarantine.iter().enumerate() {
                debug_assert_eq!(
                    self.pending_hosts.contains(&idx32(i)),
                    p.is_some(),
                    "pending-quarantine index out of sync at host {i}"
                );
            }
        }
    }

    /// Drops `host`'s pending throttled scans (the queue dies with the
    /// host): counts them as `cleared` and reports each to the observer.
    fn drop_queued_scans(&mut self, host: usize, tick: u64, observer: &mut dyn SimObserver) {
        self.queue_hosts.remove(&idx32(host));
        if self.delay_queues[host].is_empty() {
            return;
        }
        let queue = std::mem::take(&mut self.delay_queues[host]);
        self.accounting.worm.cleared += queue.len() as u64;
        if self.packet_events {
            let at = NodeId::from(host);
            for &(_, dst) in &queue {
                observer.on_packet_dropped(tick, PacketKind::Worm, at, dst, DropReason::QueueCleared);
            }
        }
    }

    fn infect_at(&mut self, node: NodeId, tick: u64, observer: &mut dyn SimObserver) {
        // `infect` refuses hosts that are no longer susceptible — in
        // particular a host quarantined *earlier in this same tick*
        // (e.g. a false-positive quarantine in the fault phase followed
        // by a worm delivery in the forwarding phase). Guarding every
        // side effect on its return value keeps the active index, the
        // selector table, and the self-patch timers free of resurrected
        // hosts.
        if self.host_state.infect(node.index(), tick) {
            self.selectors[node.index()] = Some(self.behavior.make_selector());
            // A host is infected at most once (SIR — quarantine and
            // patching are absorbing), so its scan stream starts here
            // and never restarts: the draws depend only on (seed, host).
            self.scan_rngs[node.index()] = Some(SmallRng::seed_from_u64(host_stream_seed(
                self.seed,
                idx32(node.index()),
            )));
            if let Some(delay) = self.behavior.self_patch_after {
                self.patch_due
                    .push_back((tick.saturating_add(delay), idx32(node.index())));
            }
            observer.on_infection(tick, node);
        }
    }

    /// Applies this tick's injected faults: outage transitions, due
    /// false-positive quarantines, and due jitter-delayed quarantines.
    /// A no-op (single `is_empty` check) when no faults are scheduled.
    fn apply_faults(&mut self, tick: u64, observer: &mut dyn SimObserver) {
        if self.faults.is_empty() {
            return;
        }
        // Outage transitions. The schedules are tiny (a handful of
        // intervals), so a linear scan per tick is cheap.
        for &(edge, start, end) in &self.faults.link_down {
            let down = tick >= start && tick < end;
            if down != self.link_down[edge.index()] {
                self.link_down[edge.index()] = down;
                observer.on_fault(
                    tick,
                    if down {
                        FaultEvent::LinkDown(edge)
                    } else {
                        FaultEvent::LinkRepaired(edge)
                    },
                );
            }
        }
        for &(node, start, end) in &self.faults.node_down {
            let down = tick >= start && tick < end;
            if down != self.node_down[node.index()] {
                self.node_down[node.index()] = down;
                observer.on_fault(
                    tick,
                    if down {
                        FaultEvent::NodeDown(node)
                    } else {
                        FaultEvent::NodeRepaired(node)
                    },
                );
            }
        }
        // False-positive quarantines: the broken detector cuts off a
        // clean host. An already infected or immunized target is left
        // alone — quarantining it would not be a *false* positive.
        while let Some(&(due, host)) = self.faults.false_quarantines.get(self.false_quarantine_cursor)
        {
            if due > tick {
                break;
            }
            self.false_quarantine_cursor += 1;
            if self.host_state.immunize_if_susceptible(host.index()) {
                self.false_quarantined += 1;
                observer.on_fault(tick, FaultEvent::FalseQuarantine(host));
            }
        }
        // Jitter-delayed quarantine activations that have come due, in
        // ascending host order from the pending index.
        if self.faults.quarantine_jitter > 0 {
            let mut pending = std::mem::take(&mut self.scratch_hosts);
            pending.clear();
            pending.extend(self.pending_hosts.iter().copied());
            for &i in &pending {
                self.fire_pending_quarantine(i as usize, tick, observer);
            }
            self.scratch_hosts = pending;
        }
    }

    /// Activates `i`'s jitter-delayed quarantine if it has come due.
    fn fire_pending_quarantine(&mut self, i: usize, tick: u64, observer: &mut dyn SimObserver) {
        let Some(due) = self.pending_quarantine[i] else {
            return;
        };
        if due > tick {
            return;
        }
        self.pending_quarantine[i] = None;
        self.pending_hosts.remove(&idx32(i));
        if self.host_state.immunize_infected(i) {
            self.selectors[i] = None;
            self.scan_rngs[i] = None;
            self.drop_queued_scans(i, tick, observer);
            self.quarantined += 1;
            observer.on_quarantine(tick, NodeId::from(i));
        }
    }

    /// Welchia-style self-patching: instances older than the configured
    /// delay patch their host and leave the population.
    fn self_patch_step(&mut self, tick: u64, observer: &mut dyn SimObserver) {
        let Some(delay) = self.behavior.self_patch_after else {
            return;
        };
        // Timers were enqueued at infection time with nondecreasing due
        // ticks, so everything due sits at the front. The due batch
        // fires in ascending host order; the infected guard in
        // `try_self_patch` discards timers whose host was quarantined
        // or immunized in the meantime.
        let mut due = std::mem::take(&mut self.scratch_hosts);
        due.clear();
        while let Some(&(d, h)) = self.patch_due.front() {
            if d > tick {
                break;
            }
            self.patch_due.pop_front();
            due.push(h);
        }
        due.sort_unstable();
        for &h in &due {
            self.try_self_patch(h as usize, tick, delay, observer);
        }
        self.scratch_hosts = due;
    }

    /// Patches `i` if it still runs a worm instance old enough to fire.
    fn try_self_patch(&mut self, i: usize, tick: u64, delay: u64, observer: &mut dyn SimObserver) {
        if self.host_state.is_infected(i)
            && tick.saturating_sub(self.host_state.infected_since(i)) >= delay
        {
            self.host_state.immunize_infected(i);
            self.selectors[i] = None;
            self.scan_rngs[i] = None;
            self.drop_queued_scans(i, tick, observer);
            observer.on_patch(tick, NodeId::from(i));
        }
    }

    fn immunization_step(
        &mut self,
        tick: u64,
        infected_fraction: f64,
        observer: &mut dyn SimObserver,
    ) {
        let Some(imm) = self.config.immunization() else {
            return;
        };
        if !self.immunization_active {
            self.immunization_active = match imm.trigger {
                ImmunizationTrigger::AtTick(t) => tick >= t,
                ImmunizationTrigger::AtInfectedFraction(f) => infected_fraction >= f,
            };
        }
        if !self.immunization_active {
            return;
        }
        // One stateless Bernoulli hash per *unpatched* host: the sorted
        // index enumerates exactly the not-yet-immunized hosts in
        // ascending order, so the sweep costs O(unpatched) instead of
        // the former O(hosts) carve-out — and because the draw is a
        // pure function of (seed, tick, host) rather than a shared RNG
        // stream, hosts the index skips cannot shift anyone's verdict.
        let mu = imm.mu;
        let seed = self.seed;
        let hits: Vec<u32> = self
            .host_state
            .unpatched_hosts()
            .filter(|&h| immunization_u01(seed, tick, h) < mu)
            .collect();
        for h in hits {
            let i = h as usize;
            self.host_state.immunize_unpatched(i);
            self.selectors[i] = None;
            self.scan_rngs[i] = None;
            observer.on_patch(tick, NodeId::from(i));
        }
    }

    fn generate_scans(&mut self, tick: u64, observer: &mut dyn SimObserver) {
        // Stage A: collect `(scanner, target)` emissions in ascending
        // scanner order. Stage B below (ledger, filters, quarantine,
        // packet insertion) applies them in that order: it is
        // order-sensitive by design.
        let emissions = self.collect_scan_emissions();
        for (src, dst) in emissions {
            // Every post-β emission enters the ledger, *before* the
            // egress filter — filtering is one of the accounted fates.
            self.accounting.worm.emitted += 1;
            if self.packet_events {
                observer.on_packet_emitted(tick, PacketKind::Worm, src, dst);
            }
            // Host egress filter.
            if let Some(limiter) = self.host_limiters[src.index()].as_mut() {
                let decision = limiter.check(tick as f64, RemoteKey::new(dst.index() as u64));
                if decision.is_blocked() {
                    match self.host_filter_cfg[src.index()]
                        .expect("limiter implies filter config")
                        .discipline
                    {
                        FilterDiscipline::Drop => {
                            self.accounting.worm.filtered += 1;
                            if self.packet_events {
                                observer.on_packet_dropped(
                                    tick,
                                    PacketKind::Worm,
                                    src,
                                    dst,
                                    DropReason::Filtered,
                                );
                            }
                        }
                        FilterDiscipline::Delay {
                            release_period_ticks,
                        } => {
                            // A zero release period is rejected at
                            // SimConfig build time (plan validation);
                            // the `.max(1)` clamp below is belt and
                            // braces for engine-internal callers.
                            debug_assert!(
                                release_period_ticks > 0,
                                "Delay {{ release_period_ticks: 0 }} should be rejected at build time"
                            );
                            // Williamson semantics: queue the scan; the
                            // queue drains one entry per period.
                            let queue = &mut self.delay_queues[src.index()];
                            let last = queue.back().map(|&(t, _)| t).unwrap_or(tick);
                            let release =
                                last.max(tick) + release_period_ticks.max(1);
                            queue.push_back((release, dst));
                            let queue_len = queue.len();
                            self.queue_hosts.insert(idx32(src.index()));
                            self.accounting.worm.delayed += 1;
                            // Dynamic quarantine: a swollen throttle
                            // queue is the detection signal.
                            if let Some(q) = self.config.quarantine() {
                                if queue_len >= q.queue_threshold {
                                    if self.faults.quarantine_jitter == 0 {
                                        self.host_state.quarantine(src.index());
                                        self.selectors[src.index()] = None;
                                        self.scan_rngs[src.index()] = None;
                                        self.drop_queued_scans(src.index(), tick, observer);
                                        self.quarantined += 1;
                                        observer.on_quarantine(tick, src);
                                    } else if self.pending_quarantine[src.index()].is_none() {
                                        // Injected activation jitter: the
                                        // cut-off lands 1..=jitter ticks
                                        // late, letting the host keep
                                        // scanning in the meantime.
                                        let delay = self
                                            .fault_rng
                                            .gen_range(1..=self.faults.quarantine_jitter);
                                        self.pending_quarantine[src.index()] =
                                            Some(tick + delay);
                                        self.pending_hosts.insert(idx32(src.index()));
                                    }
                                }
                            }
                        }
                    }
                    continue;
                }
            }
            if self.config.log_scans() {
                self.scan_log.push((tick, src, dst));
            }
            self.packets.insert(Packet {
                kind: PacketKind::Worm,
                src,
                current: src,
                dst,
                emitted: tick,
            });
        }
    }

    /// Collects this tick's `(scanner, target)` emissions in ascending
    /// scanner id order (the sorted active index); every per-host draw
    /// comes from that host's own stream.
    fn collect_scan_emissions(&mut self) -> Vec<(NodeId, NodeId)> {
        let mut emissions: Vec<(NodeId, NodeId)> = Vec::new();
        let mut active = std::mem::take(&mut self.scratch_hosts);
        active.clear();
        active.extend(self.host_state.active_hosts());
        for &i in &active {
            let node = NodeId::from(i as usize);
            // A host on a downed node cannot scan during the outage.
            if self.node_down[node.index()] {
                continue;
            }
            self.scan_from(node, &mut emissions);
        }
        self.scratch_hosts = active;
        emissions
    }

    /// Draws `scans_per_tick` targets for one infected scanner and
    /// appends its post-β emissions (every draw comes from the
    /// scanner's own stream).
    fn scan_from(&mut self, node: NodeId, emissions: &mut Vec<(NodeId, NodeId)>) {
        let ctx = ScanContext {
            scanner: node,
            hosts: self.world.hosts(),
            subnet_of: self.world.subnet_of(),
            subnet_hosts: self.world.subnet_hosts(),
        };
        let selector = self.selectors[node.index()]
            .as_mut()
            .expect("infected nodes have selectors");
        let rng = self.scan_rngs[node.index()]
            .as_mut()
            .expect("infected nodes have scan streams");
        for _ in 0..self.behavior.scans_per_tick {
            if let Some(target) = selector.next_target(&ctx, rng) {
                if target != node && rng.gen_bool(self.config.beta()) {
                    emissions.push((node, target));
                }
            }
        }
    }

    /// Releases throttled scans whose delay has elapsed. A host that was
    /// patched while scans sat in its queue releases nothing (the
    /// throttle process died with the worm instance; its queue is
    /// dropped and counted as `cleared`).
    fn release_delayed_scans(&mut self, tick: u64, observer: &mut dyn SimObserver) {
        // Snapshot the queue index before draining: releasing or
        // clearing edits it. The set is sorted, so hosts are visited in
        // ascending order — including hosts whose queue outlived its
        // worm instance (patched or swept this tick), which get cleared
        // *this* tick.
        let mut hosts = std::mem::take(&mut self.scratch_hosts);
        hosts.clear();
        hosts.extend(self.queue_hosts.iter().copied());
        for &i in &hosts {
            self.release_for_host(i as usize, tick, observer);
        }
        self.scratch_hosts = hosts;
    }

    /// Drains one host's due releases (or clears the whole queue if the
    /// worm instance is gone), keeping the queue index in sync.
    fn release_for_host(&mut self, i: usize, tick: u64, observer: &mut dyn SimObserver) {
        if self.delay_queues[i].is_empty() {
            // A stale index entry points at an already-cleared queue:
            // there is nothing to release, only the index to heal.
            self.queue_hosts.remove(&idx32(i));
            return;
        }
        if !self.host_state.is_infected(i) {
            self.drop_queued_scans(i, tick, observer);
            return;
        }
        while let Some(&(release, dst)) = self.delay_queues[i].front() {
            if release > tick {
                break;
            }
            self.delay_queues[i].pop_front();
            self.accounting.worm.released += 1;
            self.packets.insert(Packet {
                kind: PacketKind::Worm,
                src: NodeId::from(i),
                current: NodeId::from(i),
                dst,
                emitted: tick,
            });
        }
        if self.delay_queues[i].is_empty() {
            self.queue_hosts.remove(&idx32(i));
        }
    }

    /// Injects this tick's share of background legitimate flows.
    fn generate_background(&mut self, tick: u64, observer: &mut dyn SimObserver) {
        let Some(bg) = self.config.background() else {
            return;
        };
        let hosts = self.world.hosts();
        if hosts.len() < 2 {
            return;
        }
        self.background_credit += bg.packets_per_tick;
        while self.background_credit >= 1.0 {
            self.background_credit -= 1.0;
            let src = hosts[self.rng.gen_range(0..hosts.len())];
            let mut dst = hosts[self.rng.gen_range(0..hosts.len())];
            while dst == src {
                dst = hosts[self.rng.gen_range(0..hosts.len())];
            }
            self.background.injected += 1;
            self.accounting.background.emitted += 1;
            if self.packet_events {
                observer.on_packet_emitted(tick, PacketKind::Background, src, dst);
            }
            self.packets.insert(Packet {
                kind: PacketKind::Background,
                src,
                current: src,
                dst,
                emitted: tick,
            });
        }
    }

    fn forward_packets(&mut self, tick: u64, observer: &mut dyn SimObserver) {
        let routing = self.world.routing();
        // Refill link token accumulators (fractional caps accumulate
        // credit; burst bounded by max(cap, 1)). Only capped entries
        // are visited — the index lists hold exactly the `Some` caps in
        // ascending order, so this is O(capped) with the same per-entry
        // arithmetic as a dense sweep.
        for &e in &self.capped_links {
            let i = e as usize;
            let cap = self.link_caps[i].expect("capped-link index entries have caps");
            self.link_tokens[i] = (self.link_tokens[i] + cap).min(cap.max(1.0));
        }
        for &v in &self.capped_nodes {
            let i = v as usize;
            let cap = self.node_caps[i].expect("capped-node index entries have caps");
            self.node_tokens[i] = (self.node_tokens[i] + cap).min(cap.max(1.0));
        }
        // Drain this tick's FIFO through the pool's recycled scratch
        // queue: retained packets re-queue in order, finished packets
        // return their slot to the free-list — no per-tick allocation.
        self.packets.start_drain();
        while let Some((slot, mut p)) = self.packets.next_drained() {
            let Some((next, edge)) = routing.next_link(p.current, p.dst) else {
                // Unroutable (disconnected topology): the packet leaves
                // the network, and the ledger says so.
                self.accounting.kind_mut(p.kind).unroutable += 1;
                if self.packet_events {
                    observer.on_packet_dropped(
                        tick,
                        p.kind,
                        p.current,
                        p.dst,
                        DropReason::Unroutable,
                    );
                }
                self.packets.release(slot);
                continue;
            };
            // Injected outages: a packet at a downed node, or whose next
            // link or next node is down, waits in place until repair.
            if self.node_down[p.current.index()]
                || self.node_down[next.index()]
                || self.link_down[edge.index()]
            {
                self.accounting.kind_mut(p.kind).stalled_on_outage += 1;
                self.packets.retain(slot, p);
                continue;
            }
            // Link cap: needs a full token.
            let capped = self.link_caps[edge.index()].is_some();
            if capped && self.link_tokens[edge.index()] < 1.0 {
                self.accounting.kind_mut(p.kind).stalled_on_cap += 1;
                self.packets.retain(slot, p);
                continue;
            }
            // Node transit cap (only charged when forwarding, not when
            // originating).
            let transit = p.current != p.src;
            let node_capped = transit && self.node_caps[p.current.index()].is_some();
            if node_capped && self.node_tokens[p.current.index()] < 1.0 {
                self.accounting.kind_mut(p.kind).stalled_on_cap += 1;
                self.packets.retain(slot, p);
                continue;
            }
            if capped {
                self.link_tokens[edge.index()] -= 1.0;
            }
            if node_capped {
                self.node_tokens[p.current.index()] -= 1.0;
            }
            // Injected per-link loss: the crossing attempt consumed its
            // tokens but the packet is gone.
            let loss = self.link_loss[edge.index()];
            if loss > 0.0 && self.fault_rng.gen_bool(loss) {
                self.accounting.kind_mut(p.kind).lost += 1;
                if self.packet_events {
                    observer.on_packet_dropped(tick, p.kind, p.current, p.dst, DropReason::LinkLoss);
                }
                self.packets.release(slot);
                continue;
            }
            p.current = next;
            self.accounting.kind_mut(p.kind).forwarded += 1;
            if p.current == p.dst {
                self.accounting.kind_mut(p.kind).delivered += 1;
                self.packets.release(slot);
                if self.packet_events {
                    observer.on_packet_delivered(tick, p.kind, p.src, p.dst);
                }
                match p.kind {
                    PacketKind::Worm => {
                        self.infect_at(p.dst, tick, observer);
                    }
                    PacketKind::Background => {
                        // The packet's first hop happens in its emission
                        // tick, so it has been in flight for
                        // (tick - emitted + 1) tick-hops.
                        let delay = tick.saturating_sub(p.emitted) + 1;
                        self.background.delivered += 1;
                        self.background.total_delay_ticks += delay;
                        self.background.max_delay_ticks =
                            self.background.max_delay_ticks.max(delay);
                        let hops = routing
                            .distance(p.src, p.dst)
                            .map(u64::from)
                            .unwrap_or(0);
                        self.background.total_hops += hops;
                    }
                }
            } else {
                self.packets.retain(slot, p);
            }
        }
    }

    /// Runs the simulation to its horizon and returns the result.
    pub fn run(self) -> SimResult {
        self.run_observed(&mut NullObserver)
    }

    /// Like [`Simulator::run`], with per-event callbacks delivered to
    /// `observer`.
    ///
    /// The initial seed infections happen at construction time and are
    /// *not* reported through [`SimObserver::on_infection`]; every
    /// infection during the run is.
    pub fn run_observed(mut self, observer: &mut dyn SimObserver) -> SimResult {
        self.run_until(self.config.horizon(), observer);
        self.finish()
    }

    /// Records the census at tick `t` into the result series and
    /// returns the infected fraction (the immunization trigger's input
    /// for the next tick).
    fn record_census(&mut self, t: u64) -> f64 {
        self.debug_check_census();
        let hosts = self.host_count() as f64;
        let i = self.host_state.infected() as f64 / hosts;
        self.series_infected.push(t as f64, i);
        self.series_ever
            .push(t as f64, self.host_state.ever_infected() as f64 / hosts);
        self.series_immune
            .push(t as f64, self.host_state.immunized() as f64 / hosts);
        i
    }

    /// Advances the simulation through tick `target.min(horizon)`,
    /// delivering per-event callbacks to `observer`. Call repeatedly to
    /// step a run in segments — each segment continues bit-identically
    /// where the previous one stopped — then [`Simulator::finish`] to
    /// close the ledger and take the [`SimResult`]. A tick-0 census is
    /// recorded once, at the start of the first segment of a fresh run
    /// (a resumed simulator already carries it in its restored series).
    ///
    /// When the config carries a [`CheckpointPolicy`], every
    /// `every_ticks`-th tick atomically writes a snapshot after the
    /// tick completes.
    pub fn run_until(&mut self, target: u64, observer: &mut dyn SimObserver) {
        use std::time::Instant;

        let target = target.min(self.config.horizon());
        // One dynamic dispatch up front; the per-packet hot paths then
        // test a plain bool.
        self.packet_events = observer.wants_packet_events();

        if self.tick == 0 && self.series_infected.is_empty() {
            // Detector outages predate the run: report them up front.
            for i in 0..self.faults.disabled_detectors.len() {
                let h = self.faults.disabled_detectors[i];
                observer.on_fault(0, FaultEvent::DetectorDisabled(h));
            }
            self.record_census(0);
            self.series_backlog.push(0.0, 0.0);
        }
        let transient_panic_tick = (self.config.horizon() / 2).max(1);
        // Exactly the value the latest census push recorded (the same
        // pure division), so a resumed segment hands the immunization
        // trigger the same input the uninterrupted run would.
        let mut infected_fraction =
            self.host_state.infected() as f64 / self.host_count() as f64;
        let checkpoint = self.config.checkpoint().cloned();

        while self.tick < target {
            let tick = self.tick + 1;
            if self.faults.panic_at_tick == Some(tick) {
                panic!("injected fault: deliberate panic at tick {tick}");
            }
            if self.faults.transient_panic && tick == transient_panic_tick {
                panic!("injected fault: transient failure at tick {tick}");
            }
            let t0 = Instant::now();
            self.apply_faults(tick, observer);
            let t1 = Instant::now();
            self.phases.add(Phase::ApplyFaults, t1 - t0);
            self.immunization_step(tick, infected_fraction, observer);
            self.self_patch_step(tick, observer);
            let t2 = Instant::now();
            self.generate_scans(tick, observer);
            let t3 = Instant::now();
            self.phases.add(Phase::GenerateScans, t3 - t2);
            self.release_delayed_scans(tick, observer);
            let t4 = Instant::now();
            self.phases.add(Phase::ReleaseDelayedScans, t4 - t3);
            self.generate_background(tick, observer);
            let t5 = Instant::now();
            self.phases.add(Phase::GenerateBackground, t5 - t4);
            self.forward_packets(tick, observer);
            self.phases.add(Phase::ForwardPackets, t5.elapsed());
            infected_fraction = self.record_census(tick);
            self.series_backlog
                .push(tick as f64, self.packets.queued() as f64);
            self.tick = tick;
            observer.on_tick(
                tick,
                TickSnapshot {
                    infected: self.host_state.infected(),
                    ever_infected: self.host_state.ever_infected(),
                    immunized: self.host_state.immunized(),
                    in_flight: self.packets.queued(),
                },
            );
            if let Some(cp) = &checkpoint {
                if tick.is_multiple_of(cp.every_ticks) {
                    self.write_checkpoint(cp);
                }
            }
        }
    }

    /// Writes the periodic checkpoint, keeping the run alive on
    /// failure: the previous checkpoint file survives ([`Snapshot`]
    /// writes are atomic) and a one-shot warning names the error.
    fn write_checkpoint(&mut self, policy: &CheckpointPolicy) {
        let path = policy.path_for(self.seed);
        if let Err(e) = self.snapshot().write_atomic(&path) {
            if !self.checkpoint_warned {
                self.checkpoint_warned = true;
                eprintln!(
                    "warning: checkpoint write to {} failed ({e}); \
                     continuing on the last good checkpoint",
                    path.display()
                );
            }
        }
    }

    /// Closes the packet ledger and returns the result for the ticks
    /// simulated so far (the full [`SimResult`] when the run reached
    /// its horizon).
    pub fn finish(mut self) -> SimResult {
        self.phases.ticks = self.tick;

        // Close the ledger: whatever is still moving or queued is the
        // end-of-run backlog, and with it every emission is accounted
        // for.
        let mut worm_in_flight = 0;
        let mut background_in_flight = 0;
        for p in self.packets.iter_queued() {
            match p.kind {
                PacketKind::Worm => worm_in_flight += 1,
                PacketKind::Background => background_in_flight += 1,
            }
        }
        self.accounting.worm.in_flight_at_end += worm_in_flight;
        self.accounting.background.in_flight_at_end += background_in_flight;
        self.accounting.worm.queued_at_end = self
            .delay_queues
            .iter()
            .map(|q| q.len() as u64)
            .sum();
        debug_assert!(
            self.accounting.is_conserved(),
            "packet conservation violated: worm defect {}, background defect {}",
            self.accounting.worm.conservation_defect(),
            self.accounting.background.conservation_defect()
        );

        SimResult {
            infected_fraction: std::mem::take(&mut self.series_infected),
            ever_infected_fraction: std::mem::take(&mut self.series_ever),
            immunized_fraction: std::mem::take(&mut self.series_immune),
            backlog: std::mem::take(&mut self.series_backlog),
            delivered_packets: self.accounting.worm.delivered,
            filtered_packets: self.accounting.worm.filtered,
            delayed_packets: self.accounting.worm.delayed,
            quarantined_hosts: self.quarantined,
            false_quarantined_hosts: self.false_quarantined,
            lost_packets: self.accounting.worm.lost + self.accounting.background.lost,
            scan_log: std::mem::take(&mut self.scan_log),
            residual_packets: self.packets.queued() as u64,
            background: self.background,
            accounting: self.accounting,
            phases: self.phases,
        }
    }

    /// The configured host filter of `node`, if any (for tests).
    pub fn host_filter(&self, node: NodeId) -> Option<HostFilter> {
        self.host_filter_cfg[node.index()]
    }

    /// Captures the complete engine state at the current tick.
    ///
    /// Everything bit-identity-critical is serialized verbatim (RNG
    /// words, slab and free-list order, limiter windows, token
    /// accumulators, counters, recorded series); state that is a pure
    /// function of serialized state — activity index sets, the fault
    /// schedule, outage flags — is rebuilt on resume instead.
    pub fn snapshot(&self) -> Snapshot {
        let (status_codes, infected_since, ever_infected) = self.host_state.export();
        let selectors: Vec<(u32, u64)> = self
            .host_state
            .active_hosts()
            .map(|i| {
                let cursor = self.selectors[i as usize]
                    .as_ref()
                    .expect("infected nodes have selectors")
                    .export_cursor();
                (i, cursor)
            })
            .collect();
        let scan_rngs: Vec<(u32, [u64; 4])> = self
            .host_state
            .active_hosts()
            .map(|i| {
                let state = self.scan_rngs[i as usize]
                    .as_ref()
                    .expect("infected nodes have scan streams")
                    .state();
                (i, state)
            })
            .collect();
        let limiters: Vec<(u32, Vec<(u64, u64)>)> = self
            .host_limiters
            .iter()
            .enumerate()
            .filter_map(|(i, l)| {
                let entries = l.as_ref()?.export_entries();
                if entries.is_empty() {
                    None
                } else {
                    Some((idx32(i), entries))
                }
            })
            .collect();
        let link_tokens: Vec<(u32, u64)> = self
            .capped_links
            .iter()
            .map(|&e| (e, self.link_tokens[e as usize].to_bits()))
            .collect();
        let node_tokens: Vec<(u32, u64)> = self
            .capped_nodes
            .iter()
            .map(|&v| (v, self.node_tokens[v as usize].to_bits()))
            .collect();
        let (slots, free, queue) = self.packets.export();
        let delay_queues: Vec<(u32, Vec<(u64, u32)>)> = self
            .delay_queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, q)| {
                (
                    idx32(i),
                    q.iter()
                        .map(|&(release, dst)| (release, idx32(dst.index())))
                        .collect(),
                )
            })
            .collect();
        let pending_quarantine: Vec<(u32, u64)> = self
            .pending_quarantine
            .iter()
            .enumerate()
            .filter_map(|(i, p)| p.map(|due| (idx32(i), due)))
            .collect();
        let export_series = |s: &TimeSeries| -> Vec<(u64, u64)> {
            s.points()
                .iter()
                .map(|&(t, v)| (t.to_bits(), v.to_bits()))
                .collect()
        };
        Snapshot {
            seed: self.seed,
            tick: self.tick,
            horizon: self.config.horizon(),
            world_fingerprint: world_fingerprint(self.world),
            config_fingerprint: config_fingerprint(&self.config, &self.behavior),
            nodes: self.world.graph().node_count() as u64,
            edges: self.world.graph().edge_count() as u64,
            hosts: self.world.hosts().len() as u64,
            rng_state: self.rng.state(),
            fault_rng_state: self.fault_rng.state(),
            status_codes,
            infected_since: infected_since.to_vec(),
            ever_infected,
            selectors,
            scan_rngs,
            limiters,
            link_tokens,
            node_tokens,
            packet_slots: slots.to_vec(),
            packet_free: free.to_vec(),
            packet_queue: queue.collect(),
            delay_queues,
            pending_quarantine,
            patch_due: self.patch_due.iter().copied().collect(),
            immunization_active: self.immunization_active,
            background: self.background,
            background_credit: self.background_credit.to_bits(),
            quarantined: self.quarantined,
            false_quarantined: self.false_quarantined,
            accounting: self.accounting,
            series: [
                export_series(&self.series_infected),
                export_series(&self.series_ever),
                export_series(&self.series_immune),
                export_series(&self.series_backlog),
            ],
            scan_log: self
                .scan_log
                .iter()
                .map(|&(t, s, d)| (t, idx32(s.index()), idx32(d.index())))
                .collect(),
        }
    }

    /// Resumes a snapshotted run under the *same* simulated semantics.
    ///
    /// Continuing with [`Simulator::run_until`] /
    /// [`Simulator::run_observed`] from here is bit-identical to the
    /// uninterrupted run — under either routing backend and any shard
    /// count (both deliberately outside the config fingerprint).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when `(config, behavior)`
    /// differ semantically from the snapshotting run (fork deliberately
    /// via [`Simulator::resume_with`] instead), plus everything
    /// [`Simulator::resume_with`] returns.
    pub fn resume(
        world: &'w World,
        config: &SimConfig,
        behavior: WormBehavior,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        if config_fingerprint(config, &behavior) != snap.config_fingerprint {
            return Err(SnapshotError::ConfigMismatch);
        }
        Self::resume_with(world, config, behavior, snap)
    }

    /// Resumes a snapshotted run under a possibly *modified* config —
    /// the fork-at-tick API. The world must be the one the snapshot was
    /// taken on; the defense plan, fault plan, quarantine settings, and
    /// horizon may differ (what-if forks: "same outbreak up to tick T,
    /// different response from T on").
    ///
    /// Fork semantics for defense state: limiter windows and token
    /// accumulators are restored only where the new plan still installs
    /// the corresponding filter or cap; newly added defenses start
    /// fresh.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::WorldMismatch`] on a topology fingerprint
    /// mismatch, [`SnapshotError::InvalidResume`] when the snapshot
    /// tick exceeds the new horizon or the config cannot build a
    /// simulator, and [`SnapshotError::Corrupt`] when a
    /// checksum-valid snapshot decodes to impossible state.
    pub fn resume_with(
        world: &'w World,
        config: &SimConfig,
        behavior: WormBehavior,
        snap: &Snapshot,
    ) -> Result<Self, SnapshotError> {
        if world_fingerprint(world) != snap.world_fingerprint {
            return Err(SnapshotError::WorldMismatch);
        }
        if snap.tick > config.horizon() {
            return Err(SnapshotError::InvalidResume {
                reason: format!(
                    "snapshot tick {} is beyond the horizon {}",
                    snap.tick,
                    config.horizon()
                ),
            });
        }
        let n = world.graph().node_count();
        if snap.status_codes.len() != n || snap.infected_since.len() != n {
            return Err(SnapshotError::Corrupt {
                what: "host-state arrays do not match the world size",
            });
        }

        // Build a fresh simulator for the seed (this realizes the fault
        // schedule, filters, and caps from the *new* config), then
        // overwrite every piece of run state from the snapshot.
        let mut sim = Self::try_new(world, config, behavior, snap.seed).map_err(|e| {
            SnapshotError::InvalidResume {
                reason: e.to_string(),
            }
        })?;
        sim.rng = SmallRng::from_state(snap.rng_state);
        sim.fault_rng = SmallRng::from_state(snap.fault_rng_state);
        sim.host_state = HostStates::from_export(
            &snap.status_codes,
            snap.infected_since.clone(),
            snap.ever_infected,
            world.hosts(),
        )
        .ok_or(SnapshotError::Corrupt {
            what: "host-state arrays are inconsistent",
        })?;

        // Selectors: exactly the infected hosts carry one.
        sim.selectors.iter_mut().for_each(|s| *s = None);
        for &(h, cursor) in &snap.selectors {
            let i = h as usize;
            if i >= n || !sim.host_state.is_infected(i) {
                return Err(SnapshotError::Corrupt {
                    what: "selector cursor for a non-infected host",
                });
            }
            let mut selector = sim.behavior.make_selector();
            selector.import_cursor(cursor);
            sim.selectors[i] = Some(selector);
        }
        if snap.selectors.len() != sim.host_state.infected() {
            return Err(SnapshotError::Corrupt {
                what: "selector count does not match the infected census",
            });
        }

        // Scan streams: exactly the infected hosts carry one, restored
        // mid-stream so the resumed draws continue bit-identically.
        sim.scan_rngs.iter_mut().for_each(|r| *r = None);
        for &(h, state) in &snap.scan_rngs {
            let i = h as usize;
            if i >= n || !sim.host_state.is_infected(i) {
                return Err(SnapshotError::Corrupt {
                    what: "scan stream state for a non-infected host",
                });
            }
            sim.scan_rngs[i] = Some(SmallRng::from_state(state));
        }
        if snap.scan_rngs.len() != sim.host_state.infected() {
            return Err(SnapshotError::Corrupt {
                what: "scan stream count does not match the infected census",
            });
        }

        // Self-patch timers (try_new seeded fresh ones; the snapshot's
        // wheel is authoritative).
        sim.patch_due.clear();
        for &(due, h) in &snap.patch_due {
            if (h as usize) >= n {
                return Err(SnapshotError::Corrupt {
                    what: "self-patch timer for an out-of-range host",
                });
            }
            sim.patch_due.push_back((due, h));
        }

        // Defense state restores only where the new config still
        // installs the defense (fork semantics).
        for (h, entries) in &snap.limiters {
            let i = *h as usize;
            if i >= n {
                return Err(SnapshotError::Corrupt {
                    what: "limiter window for an out-of-range host",
                });
            }
            if let Some(limiter) = sim.host_limiters[i].as_mut() {
                limiter.import_entries(entries);
            }
        }
        for &(e, bits) in &snap.link_tokens {
            let i = e as usize;
            if i < sim.link_tokens.len() && sim.link_caps[i].is_some() {
                sim.link_tokens[i] = f64::from_bits(bits);
            }
        }
        for &(v, bits) in &snap.node_tokens {
            let i = v as usize;
            if i < sim.node_tokens.len() && sim.node_caps[i].is_some() {
                sim.node_tokens[i] = f64::from_bits(bits);
            }
        }

        // Packet slab: slot order, free-list order, and FIFO order are
        // all bit-identity-critical and restored verbatim.
        if snap
            .packet_slots
            .iter()
            .any(|p| p.src.index() >= n || p.current.index() >= n || p.dst.index() >= n)
        {
            return Err(SnapshotError::Corrupt {
                what: "packet endpoint outside the world",
            });
        }
        sim.packets = PacketPool::from_export(
            snap.packet_slots.clone(),
            snap.packet_free.clone(),
            snap.packet_queue.clone(),
        )
        .ok_or(SnapshotError::Corrupt {
            what: "packet slab indices are inconsistent",
        })?;

        // Throttle queues and their activity index.
        sim.queue_hosts.clear();
        sim.delay_queues.iter_mut().for_each(|q| q.clear());
        for (h, entries) in &snap.delay_queues {
            let i = *h as usize;
            if i >= n || entries.is_empty() {
                return Err(SnapshotError::Corrupt {
                    what: "throttle queue empty or for an out-of-range host",
                });
            }
            let queue = &mut sim.delay_queues[i];
            for &(release, dst) in entries {
                if (dst as usize) >= n {
                    return Err(SnapshotError::Corrupt {
                        what: "throttled scan targets an out-of-range host",
                    });
                }
                queue.push_back((release, NodeId::from(dst as usize)));
            }
            sim.queue_hosts.insert(*h);
        }

        // Jitter-delayed quarantines and their activity index.
        sim.pending_hosts.clear();
        sim.pending_quarantine.iter_mut().for_each(|p| *p = None);
        for &(h, due) in &snap.pending_quarantine {
            let i = h as usize;
            if i >= n {
                return Err(SnapshotError::Corrupt {
                    what: "pending quarantine for an out-of-range host",
                });
            }
            sim.pending_quarantine[i] = Some(due);
            sim.pending_hosts.insert(h);
        }

        // Counters and ledgers.
        sim.immunization_active = snap.immunization_active;
        sim.background = snap.background;
        sim.background_credit = f64::from_bits(snap.background_credit);
        sim.quarantined = snap.quarantined;
        sim.false_quarantined = snap.false_quarantined;
        sim.accounting = snap.accounting;

        // Recorded series (validated: TimeSeries::push would panic on
        // NaN or non-chronological input, and corrupt data must not).
        sim.series_infected = restore_series(&snap.series[0], sim.config.horizon())?;
        sim.series_ever = restore_series(&snap.series[1], sim.config.horizon())?;
        sim.series_immune = restore_series(&snap.series[2], sim.config.horizon())?;
        sim.series_backlog = restore_series(&snap.series[3], sim.config.horizon())?;

        sim.scan_log = Vec::with_capacity(snap.scan_log.len());
        for &(t, s, d) in &snap.scan_log {
            if (s as usize) >= n || (d as usize) >= n {
                return Err(SnapshotError::Corrupt {
                    what: "scan-log entry references an out-of-range host",
                });
            }
            sim.scan_log
                .push((t, NodeId::from(s as usize), NodeId::from(d as usize)));
        }

        // Recomputed-from-serialized state: the false-quarantine cursor
        // and the outage flags as of the snapshot tick (apply_faults
        // reports transitions relative to these on the next tick).
        sim.false_quarantine_cursor = sim
            .faults
            .false_quarantines
            .partition_point(|&(due, _)| due <= snap.tick);
        for &(edge, start, end) in &sim.faults.link_down {
            sim.link_down[edge.index()] = snap.tick >= start && snap.tick < end;
        }
        for &(node, start, end) in &sim.faults.node_down {
            sim.node_down[node.index()] = snap.tick >= start && snap.tick < end;
        }

        sim.tick = snap.tick;
        sim.debug_check_census();
        Ok(sim)
    }
}

/// Rebuilds a [`TimeSeries`] from snapshot bit pairs, refusing data
/// that would violate the series invariants (NaN or non-chronological
/// times panic inside `push`; corrupt snapshots must error instead).
fn restore_series(points: &[(u64, u64)], horizon: u64) -> Result<TimeSeries, SnapshotError> {
    let mut series = TimeSeries::with_capacity(points.len().min(horizon as usize + 1));
    let mut last: Option<f64> = None;
    for &(t_bits, v_bits) in points {
        let t = f64::from_bits(t_bits);
        let v = f64::from_bits(v_bits);
        if t.is_nan() || v.is_nan() || last.is_some_and(|prev| t <= prev) {
            return Err(SnapshotError::Corrupt {
                what: "recorded series is non-chronological or contains NaN",
            });
        }
        series.push(t, v);
        last = Some(t);
    }
    Ok(series)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ImmunizationConfig, ImmunizationTrigger};
    use crate::plan::RateLimitPlan;
    use dynaquar_topology::generators;

    fn small_world() -> World {
        World::from_star(generators::star(49).unwrap())
    }

    fn base_config(horizon: u64) -> SimConfig {
        SimConfig::builder()
            .beta(0.8)
            .horizon(horizon)
            .initial_infected(1)
            .build()
            .unwrap()
    }

    #[test]
    fn unlimited_worm_saturates_star() {
        let w = small_world();
        let r = Simulator::new(&w, &base_config(120), WormBehavior::random(), 1).run();
        assert!(r.infected_fraction.final_value() > 0.95);
        assert!(r.delivered_packets > 0);
        assert_eq!(r.filtered_packets, 0);
    }

    #[test]
    fn series_are_monotone_without_immunization() {
        let w = small_world();
        let r = Simulator::new(&w, &base_config(60), WormBehavior::random(), 2).run();
        let mut prev = 0.0;
        for (_, v) in r.infected_fraction.iter() {
            assert!(v >= prev - 1e-12);
            prev = v;
        }
        assert_eq!(r.infected_fraction.len(), 61);
    }

    #[test]
    fn deterministic_per_seed() {
        let w = small_world();
        let a = Simulator::new(&w, &base_config(40), WormBehavior::random(), 7).run();
        let b = Simulator::new(&w, &base_config(40), WormBehavior::random(), 7).run();
        let c = Simulator::new(&w, &base_config(40), WormBehavior::random(), 8).run();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn hub_node_cap_slows_infection() {
        let star = generators::star(199).unwrap();
        let hub = star.hub;
        let w = World::from_star(star);
        let free = Simulator::new(&w, &base_config(150), WormBehavior::random(), 3)
            .run()
            .infected_fraction;
        let mut plan = RateLimitPlan::none();
        plan.limit_node_forwarding(hub, 2.0);
        let capped_cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(150)
            .initial_infected(1)
            .plan(plan)
            .build()
            .unwrap();
        let capped = Simulator::new(&w, &capped_cfg, WormBehavior::random(), 3)
            .run()
            .infected_fraction;
        let t_free = free.time_to_reach(0.6).expect("unlimited saturates");
        if let Some(t_capped) = capped.time_to_reach(0.6) {
            assert!(t_capped > 2.0 * t_free, "{t_capped} vs {t_free}");
        } // else: even stronger suppression
    }

    #[test]
    fn host_filters_reduce_emissions() {
        let star = generators::star(99).unwrap();
        let w = World::from_star(star);
        let hosts = w.hosts().to_vec();
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(
            &hosts,
            crate::plan::HostFilter::dropping(100, 1),
        );
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(80)
            .initial_infected(1)
            .plan(plan)
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 4).run();
        assert!(r.filtered_packets > 0);
        // Universal tight filtering keeps the infection small.
        assert!(r.infected_fraction.final_value() < 0.5);
    }

    #[test]
    fn immunization_at_tick_caps_ever_infected() {
        let w = small_world();
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(100)
            .initial_infected(1)
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtTick(3),
                mu: 0.3,
            })
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 5).run();
        // Ever-infected stays below full saturation, infected drains to 0.
        assert!(r.ever_infected_fraction.final_value() < 1.0);
        assert!(r.infected_fraction.final_value() < 0.05);
        assert!(r.immunized_fraction.final_value() > 0.9);
    }

    #[test]
    fn ever_infected_is_monotone_with_immunization() {
        let w = small_world();
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(80)
            .initial_infected(1)
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtInfectedFraction(0.2),
                mu: 0.1,
            })
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 6).run();
        let mut prev = 0.0;
        for (_, v) in r.ever_infected_fraction.iter() {
            assert!(v >= prev - 1e-12);
            prev = v;
        }
    }

    #[test]
    fn later_immunization_means_more_damage() {
        let w = World::from_star(generators::star(199).unwrap());
        let ever_at = |trigger: f64, seed: u64| {
            let cfg = SimConfig::builder()
                .beta(0.8)
                .horizon(150)
                .initial_infected(2)
                .immunization(ImmunizationConfig {
                    trigger: ImmunizationTrigger::AtInfectedFraction(trigger),
                    mu: 0.1,
                })
                .build()
                .unwrap();
            Simulator::new(&w, &cfg, WormBehavior::random(), seed)
                .run()
                .ever_infected_fraction
                .final_value()
        };
        // Average a few seeds to tame variance.
        let early: f64 = (0..4).map(|s| ever_at(0.2, s)).sum::<f64>() / 4.0;
        let late: f64 = (0..4).map(|s| ever_at(0.8, s)).sum::<f64>() / 4.0;
        assert!(early < late, "early {early} vs late {late}");
    }

    #[test]
    fn local_preferential_worm_on_subnets() {
        let topo = generators::SubnetTopologyBuilder::new()
            .backbone_routers(2)
            .subnets(5)
            .hosts_per_subnet(10)
            .build()
            .unwrap();
        let w = World::from_subnets(topo);
        let r = Simulator::new(
            &w,
            &base_config(200),
            WormBehavior::local_preferential(0.9),
            9,
        )
        .run();
        assert!(r.infected_fraction.final_value() > 0.9);
    }

    #[test]
    #[should_panic(expected = "more initial infections than hosts")]
    fn too_many_initial_infections_panics() {
        let w = small_world();
        let cfg = SimConfig::builder()
            .initial_infected(1000)
            .build()
            .unwrap();
        let _ = Simulator::new(&w, &cfg, WormBehavior::random(), 0);
    }

    #[test]
    fn background_traffic_is_delivered_and_measured() {
        use crate::background::BackgroundTraffic;
        let w = small_world();
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(100)
            .initial_infected(1)
            .background(BackgroundTraffic::new(2.5))
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 11).run();
        // ~250 expected injections over 100 ticks.
        assert!((200..=300).contains(&(r.background.injected as i64)));
        // Without caps every injected packet (except the last ticks'
        // in-flight tail) is delivered at the 2-hop shortest path.
        assert!(r.background.delivery_fraction() > 0.9);
        assert!(r.background.mean_queueing_delay() < 0.5);
    }

    #[test]
    fn background_never_infects() {
        use crate::background::BackgroundTraffic;
        let w = small_world();
        // beta tiny so the worm itself spreads negligibly; flood
        // background traffic.
        let cfg = SimConfig::builder()
            .beta(0.01)
            .horizon(50)
            .initial_infected(1)
            .background(BackgroundTraffic::new(10.0))
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 12).run();
        assert!(r.background.delivered > 300);
        // Infections stay at ~the seed despite heavy background load.
        assert!(r.ever_infected_fraction.final_value() < 0.2);
    }

    #[test]
    fn caps_sized_for_legitimate_load_pass_it_cleanly() {
        // The paper's design intent: caps sized above the legitimate
        // load are invisible to it when no worm floods the network.
        use crate::background::BackgroundTraffic;
        let star = generators::star(99).unwrap();
        let hub = star.hub;
        let w = World::from_star(star);
        let mut plan = RateLimitPlan::none();
        plan.limit_links_at_node(w.graph(), hub, 0.3);
        let cfg = SimConfig::builder()
            .beta(0.01) // essentially no worm traffic
            .horizon(200)
            .initial_infected(1)
            .background(BackgroundTraffic::new(0.5))
            .plan(plan)
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 13).run();
        assert!(r.background.delivery_fraction() > 0.9);
        assert!(r.background.mean_queueing_delay() < 2.0);
    }

    #[test]
    fn worm_flood_saturates_caps_and_queues_background() {
        // With a worm flooding the same capped links, the worm is
        // throttled hard and legitimate traffic measurably queues
        // behind it — the collateral the BackgroundStats quantify.
        use crate::background::BackgroundTraffic;
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
            .plan(plan.clone())
            .build()
            .unwrap();
        let capped = Simulator::new(&w, &cfg, WormBehavior::random(), 13).run();
        let free_cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(200)
            .initial_infected(1)
            .build()
            .unwrap();
        let free = Simulator::new(&w, &free_cfg, WormBehavior::random(), 13).run();
        let t_free = free.infected_fraction.time_to_reach(0.5).unwrap();
        let t_capped = capped
            .infected_fraction
            .time_to_reach(0.5)
            .unwrap_or(f64::INFINITY);
        assert!(t_capped > 1.5 * t_free, "{t_capped} vs {t_free}");
        // Background pays a visible queueing cost under the flood.
        assert!(capped.background.mean_queueing_delay() > 1.0);
    }

    #[test]
    fn delaying_filter_slows_but_does_not_stop_the_worm() {
        use crate::plan::HostFilter;
        let w = World::from_star(generators::star(79).unwrap());
        let hosts = w.hosts().to_vec();

        let run_with = |filter: HostFilter, seed: u64| {
            let mut plan = RateLimitPlan::none();
            plan.filter_hosts(&hosts, filter);
            let cfg = SimConfig::builder()
                .beta(0.8)
                .horizon(400)
                .initial_infected(1)
                .plan(plan)
                .build()
                .unwrap();
            Simulator::new(&w, &cfg, WormBehavior::random(), seed).run()
        };

        // Dropping filter: blocked scans are lost forever.
        let dropped = run_with(HostFilter::dropping(50, 1), 3);
        // Delaying filter (same admission budget, releases one blocked
        // scan every 10 ticks): the worm still reaches everyone, slower.
        let delayed = run_with(HostFilter::delaying(50, 1, 10), 3);
        let free_cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(400)
            .initial_infected(1)
            .build()
            .unwrap();
        let free = Simulator::new(&w, &free_cfg, WormBehavior::random(), 3).run();

        assert!(delayed.delayed_packets > 0);
        assert_eq!(free.delayed_packets, 0);
        let t_free = free.infected_fraction.time_to_reach(0.6).unwrap();
        let t_delayed = delayed
            .infected_fraction
            .time_to_reach(0.6)
            .unwrap_or(f64::INFINITY);
        assert!(t_delayed > 1.5 * t_free, "{t_delayed} vs {t_free}");
        // Delaying leaks more infection than dropping over a long run.
        assert!(
            delayed.ever_infected_fraction.final_value()
                >= dropped.ever_infected_fraction.final_value() - 0.05
        );
    }

    #[test]
    fn patched_hosts_abandon_their_delay_queues() {
        use crate::config::{ImmunizationConfig, ImmunizationTrigger};
        use crate::plan::HostFilter;
        let w = World::from_star(generators::star(39).unwrap());
        let hosts = w.hosts().to_vec();
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(&hosts, HostFilter::delaying(50, 1, 5));
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(200)
            .initial_infected(1)
            .plan(plan)
            .immunization(ImmunizationConfig {
                trigger: ImmunizationTrigger::AtTick(5),
                mu: 0.4,
            })
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 8).run();
        // Aggressive patching + throttling contains the outbreak well
        // below saturation: queued scans die with their hosts.
        assert!(r.ever_infected_fraction.final_value() < 0.8);
        assert!(r.infected_fraction.final_value() < 0.05);
    }

    #[test]
    fn dynamic_quarantine_contains_the_outbreak() {
        use crate::config::QuarantineConfig;
        use crate::plan::HostFilter;
        let w = World::from_star(generators::star(199).unwrap());
        let hosts = w.hosts().to_vec();
        let mut plan = RateLimitPlan::none();
        // Delaying throttles on every host: the queue is the detector.
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
        // A scanning host fills its 3-slot queue within ~4 ticks of
        // infection and is cut off having emitted roughly one successful
        // scan — the effective reproduction number hovers near the
        // epidemic threshold and the outbreak sputters out far below
        // saturation.
        assert!(r.quarantined_hosts >= 2);
        assert!(
            r.ever_infected_fraction.final_value() < 0.35,
            "quarantine failed: {}",
            r.ever_infected_fraction.final_value()
        );
        assert!(r.infected_fraction.final_value() < 0.05);
    }

    #[test]
    fn quarantine_without_delaying_filters_never_fires() {
        use crate::config::QuarantineConfig;
        let w = small_world();
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(60)
            .initial_infected(1)
            .quarantine(QuarantineConfig { queue_threshold: 3 })
            .build()
            .unwrap();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 22).run();
        assert_eq!(r.quarantined_hosts, 0);
        assert!(r.infected_fraction.final_value() > 0.9);
    }

    #[test]
    fn quarantine_threshold_zero_rejected_at_build() {
        use crate::config::QuarantineConfig;
        assert!(SimConfig::builder()
            .quarantine(QuarantineConfig { queue_threshold: 0 })
            .build()
            .is_err());
    }

    #[test]
    fn welchia_style_worm_burns_itself_out() {
        let w = World::from_star(generators::star(199).unwrap());
        // Fast scanner that patches its host 12 ticks after infection.
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
        // The infection wave passes through and extinguishes: currently
        // infected returns to ~zero while immunized (patched) is large.
        assert!(r.infected_fraction.final_value() < 0.05);
        assert!(r.immunized_fraction.final_value() > 0.5);
        // The wave peaked well above its final level.
        assert!(r.infected_fraction.max_value() > 0.2);
    }

    #[test]
    fn slow_self_patching_worm_can_go_extinct_early() {
        // A slow scanner that patches quickly is subcritical: it patches
        // faster than it spreads and the outbreak dies with few ever hit
        // (the SIR threshold, reproduced in the packet simulator).
        let w = World::from_star(generators::star(199).unwrap());
        let worm = WormBehavior::random().with_self_patch_after(2);
        let cfg = SimConfig::builder()
            .beta(0.2) // ~0.2 scans/tick * 2 ticks alive * 2-hop latency
            .horizon(200)
            .initial_infected(2)
            .build()
            .unwrap();
        // Average several seeds: extinction is stochastic.
        let mut total_ever = 0.0;
        for seed in 0..6 {
            let r = Simulator::new(&w, &cfg, worm, seed).run();
            total_ever += r.ever_infected_fraction.final_value();
        }
        assert!(total_ever / 6.0 < 0.3, "mean ever-infected {}", total_ever / 6.0);
    }

    #[test]
    fn backlog_series_tracks_congestion() {
        let star = generators::star(99).unwrap();
        let hub = star.hub;
        let w = World::from_star(star);
        // Uncapped: packets clear within two hops, backlog stays small.
        let free = Simulator::new(&w, &base_config(100), WormBehavior::random(), 17).run();
        assert!(free.backlog.max_value() < 150.0);
        // Harshly capped hub: the flood piles up behind the filter.
        let mut plan = RateLimitPlan::none();
        plan.limit_node_forwarding(hub, 0.5);
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(100)
            .initial_infected(5)
            .plan(plan)
            .build()
            .unwrap();
        let capped = Simulator::new(&w, &cfg, WormBehavior::random(), 17).run();
        assert!(
            capped.backlog.max_value() > 3.0 * free.backlog.max_value(),
            "capped backlog {} vs free {}",
            capped.backlog.max_value(),
            free.backlog.max_value()
        );
        // Backlog is reported for every tick.
        assert_eq!(capped.backlog.len(), 101);
    }

    #[test]
    fn observer_sees_every_infection_and_tick() {
        use crate::observer::{SimObserver, TickSnapshot};

        #[derive(Default)]
        struct Recorder {
            infections: Vec<(u64, NodeId)>,
            ticks: u64,
            last_ever: usize,
            monotone: bool,
        }
        impl Recorder {
            fn new() -> Self {
                Recorder {
                    monotone: true,
                    ..Default::default()
                }
            }
        }
        impl SimObserver for Recorder {
            fn on_tick(&mut self, _tick: u64, snap: TickSnapshot) {
                self.ticks += 1;
                if snap.ever_infected < self.last_ever {
                    self.monotone = false;
                }
                self.last_ever = snap.ever_infected;
            }
            fn on_infection(&mut self, tick: u64, victim: NodeId) {
                self.infections.push((tick, victim));
            }
        }

        let w = small_world();
        let cfg = base_config(80);
        let mut rec = Recorder::new();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 41).run_observed(&mut rec);
        // Every run-time infection reported (seed infection excluded).
        let total_infected = (r.ever_infected_fraction.final_value() * 49.0).round() as usize;
        assert_eq!(rec.infections.len(), total_infected - 1);
        // Events arrive in chronological order and victims are unique.
        assert!(rec.infections.windows(2).all(|w| w[0].0 <= w[1].0));
        let distinct: std::collections::HashSet<_> =
            rec.infections.iter().map(|&(_, v)| v).collect();
        assert_eq!(distinct.len(), rec.infections.len());
        assert_eq!(rec.ticks, 80);
        assert!(rec.monotone);
    }

    #[test]
    fn observer_sees_quarantines_and_patches() {
        use crate::config::QuarantineConfig;
        use crate::observer::SimObserver;
        use crate::plan::HostFilter;

        #[derive(Default)]
        struct Counter {
            quarantines: u64,
            patches: u64,
        }
        impl SimObserver for Counter {
            fn on_quarantine(&mut self, _tick: u64, _host: NodeId) {
                self.quarantines += 1;
            }
            fn on_patch(&mut self, _tick: u64, _host: NodeId) {
                self.patches += 1;
            }
        }

        let w = World::from_star(generators::star(79).unwrap());
        let hosts = w.hosts().to_vec();
        let mut plan = RateLimitPlan::none();
        plan.filter_hosts(&hosts, HostFilter::delaying(200, 1, 10));
        let cfg = SimConfig::builder()
            .beta(0.8)
            .horizon(150)
            .initial_infected(2)
            .plan(plan)
            .quarantine(QuarantineConfig { queue_threshold: 3 })
            .build()
            .unwrap();
        let mut counter = Counter::default();
        let r = Simulator::new(&w, &cfg, WormBehavior::random(), 42)
            .run_observed(&mut counter);
        assert_eq!(counter.quarantines, r.quarantined_hosts);
        assert!(counter.quarantines > 0);
        assert_eq!(counter.patches, 0, "no immunization configured");
    }

    #[test]
    fn debug_is_nonempty() {
        let w = small_world();
        let s = Simulator::new(&w, &base_config(10), WormBehavior::random(), 0);
        assert!(!format!("{s:?}").is_empty());
        assert!(s.host_filter(NodeId::new(1)).is_none());
        // Run reports label the engine by this rendering.
        assert_eq!(format!("{:?}", s.resolved_strategy()), "Event");
    }
}
