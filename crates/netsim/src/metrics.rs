//! First-class observability: per-run packet accounting, engine phase
//! timing, and composable metric observers.
//!
//! The paper's claims are *measurements* of a simulated network, so the
//! engine must never lose an event invisibly. This module supplies three
//! layers:
//!
//! 1. **[`PacketAccounting`]** — a complete per-[`PacketKind`] counter
//!    ledger the engine updates on every code path. Packets are conserved
//!    by construction:
//!
//!    ```text
//!    emitted = delivered + filtered + lost + unroutable + cleared
//!            + in_flight_at_end + queued_at_end
//!    ```
//!
//!    The engine `debug_assert!`s this identity at the end of every run,
//!    and `tests/packet_conservation.rs` property-tests it across fault
//!    plans, caps, and quarantine scenarios.
//! 2. **[`PhaseProfile`]** — wall-clock timers around the engine's
//!    five phases (`apply_faults`, `generate_scans`,
//!    `release_delayed_scans`, `generate_background`,
//!    `forward_packets`), exposed on
//!    [`SimResult`](crate::sim::SimResult) so a run reports where it
//!    spent its time.
//! 3. **Composable observers** — [`MetricsObserver`] tallies every event
//!    stream the engine emits, [`FanoutObserver`] fans callbacks out to
//!    several observers at once, and [`JsonlEventWriter`] streams events
//!    as JSON Lines for offline analysis. Per-packet callbacks are gated
//!    behind [`SimObserver::wants_packet_events`] so the
//!    [`NullObserver`](crate::observer::NullObserver) path pays nothing
//!    for them.

use crate::faults::FaultEvent;
use crate::observer::{SimObserver, TickSnapshot};
use dynaquar_topology::NodeId;
use serde::{Deserialize, Serialize};
use std::io::{self, Write};
use std::time::Duration;

/// What a packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// A worm infection attempt.
    Worm,
    /// A legitimate background flow (measured, never infects).
    Background,
}

impl PacketKind {
    /// Lower-case label (`"worm"` / `"background"`), stable for logs.
    pub fn label(self) -> &'static str {
        match self {
            PacketKind::Worm => "worm",
            PacketKind::Background => "background",
        }
    }
}

/// Why a packet left the network without reaching its destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DropReason {
    /// Dropped by a host egress filter with the `Drop` discipline.
    Filtered,
    /// No route from the packet's current node to its destination
    /// (disconnected topology).
    Unroutable,
    /// Dropped by injected per-link loss (a fault, never configured in
    /// a fault-free run).
    LinkLoss,
    /// A throttled scan whose delay queue died with its host (the host
    /// was patched or quarantined before the scan's release tick).
    QueueCleared,
}

impl DropReason {
    /// Snake-case label, stable for logs.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::Filtered => "filtered",
            DropReason::Unroutable => "unroutable",
            DropReason::LinkLoss => "link_loss",
            DropReason::QueueCleared => "queue_cleared",
        }
    }
}

/// Packet counters for one [`PacketKind`] over one run.
///
/// Every counter is updated by the engine at the moment the event
/// happens; none is derived after the fact. The terminal counters plus
/// the end-of-run backlog exactly account for every emission (see
/// [`KindCounts::conservation_defect`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCounts {
    /// Packets that attempted to enter the network: worm scans that
    /// passed the infection-probability draw (counted *before* any
    /// egress filtering), background injections.
    pub emitted: u64,
    /// Dropped outright by a host egress filter (`Drop` discipline).
    pub filtered: u64,
    /// Queued by a delaying host filter (Williamson throttle). A delayed
    /// packet is *not* terminal: it is later released, cleared, or still
    /// queued at the end of the run.
    pub delayed: u64,
    /// Throttled scans whose delay elapsed and re-entered the network.
    pub released: u64,
    /// Throttled scans dropped because their host's delay queue died
    /// with the host (patch or quarantine).
    pub cleared: u64,
    /// Successful one-hop advances (work counter, not conserved).
    pub forwarded: u64,
    /// Delivered to their destination.
    pub delivered: u64,
    /// Dropped by injected per-link loss.
    pub lost: u64,
    /// Dropped because no route to the destination exists.
    pub unroutable: u64,
    /// Wait events: a packet retained one tick because a link or node
    /// token budget was exhausted (congestion counter, not conserved).
    pub stalled_on_cap: u64,
    /// Wait events: a packet retained one tick because its node, next
    /// hop, or next link was down (fault counter, not conserved).
    pub stalled_on_outage: u64,
    /// Packets still in flight when the run ended.
    pub in_flight_at_end: u64,
    /// Throttled scans still sitting in delay queues when the run ended.
    pub queued_at_end: u64,
}

impl KindCounts {
    /// Packets that terminally left the network: delivered or dropped
    /// for any reason.
    pub fn terminal(&self) -> u64 {
        self.delivered + self.filtered + self.lost + self.unroutable + self.cleared
    }

    /// `emitted - (terminal + in_flight_at_end + queued_at_end)`. Zero
    /// for every run of a correctly accounting engine.
    pub fn conservation_defect(&self) -> i64 {
        self.emitted as i64
            - (self.terminal() + self.in_flight_at_end + self.queued_at_end) as i64
    }

    /// Whether every emitted packet is accounted for.
    pub fn is_conserved(&self) -> bool {
        self.conservation_defect() == 0
    }

    /// Adds another run's counters into this one.
    pub fn merge(&mut self, other: &KindCounts) {
        self.emitted += other.emitted;
        self.filtered += other.filtered;
        self.delayed += other.delayed;
        self.released += other.released;
        self.cleared += other.cleared;
        self.forwarded += other.forwarded;
        self.delivered += other.delivered;
        self.lost += other.lost;
        self.unroutable += other.unroutable;
        self.stalled_on_cap += other.stalled_on_cap;
        self.stalled_on_outage += other.stalled_on_outage;
        self.in_flight_at_end += other.in_flight_at_end;
        self.queued_at_end += other.queued_at_end;
    }
}

impl std::fmt::Display for KindCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "emitted={} delivered={} filtered={} delayed={} released={} cleared={} \
             lost={} unroutable={} forwarded={} stalled(cap={}, outage={}) \
             end(in_flight={}, queued={})",
            self.emitted,
            self.delivered,
            self.filtered,
            self.delayed,
            self.released,
            self.cleared,
            self.lost,
            self.unroutable,
            self.forwarded,
            self.stalled_on_cap,
            self.stalled_on_outage,
            self.in_flight_at_end,
            self.queued_at_end,
        )
    }
}

/// The complete per-run packet ledger, one [`KindCounts`] per
/// [`PacketKind`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketAccounting {
    /// Worm infection packets.
    pub worm: KindCounts,
    /// Background legitimate-traffic packets.
    pub background: KindCounts,
}

impl PacketAccounting {
    /// The counters for `kind`.
    pub fn kind(&self, kind: PacketKind) -> &KindCounts {
        match kind {
            PacketKind::Worm => &self.worm,
            PacketKind::Background => &self.background,
        }
    }

    /// Mutable counters for `kind`.
    pub(crate) fn kind_mut(&mut self, kind: PacketKind) -> &mut KindCounts {
        match kind {
            PacketKind::Worm => &mut self.worm,
            PacketKind::Background => &mut self.background,
        }
    }

    /// Both kinds summed into one ledger.
    pub fn total(&self) -> KindCounts {
        let mut t = self.worm;
        t.merge(&self.background);
        t
    }

    /// Whether both kinds conserve packets.
    pub fn is_conserved(&self) -> bool {
        self.worm.is_conserved() && self.background.is_conserved()
    }

    /// Adds another run's ledger into this one.
    pub fn merge(&mut self, other: &PacketAccounting) {
        self.worm.merge(&other.worm);
        self.background.merge(&other.background);
    }
}

/// One phase of the engine's per-tick loop, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Phase {
    /// Injected-fault transitions (outages, false positives, jittered
    /// quarantine activations).
    ApplyFaults,
    /// Scan generation, egress filtering, and quarantine detection.
    GenerateScans,
    /// Release of throttled scans whose delay elapsed.
    ReleaseDelayedScans,
    /// Background legitimate-traffic injection.
    GenerateBackground,
    /// Packet forwarding, capping, loss, and delivery.
    ForwardPackets,
}

impl Phase {
    /// All five phases, in engine execution order.
    pub const ALL: [Phase; 5] = [
        Phase::ApplyFaults,
        Phase::GenerateScans,
        Phase::ReleaseDelayedScans,
        Phase::GenerateBackground,
        Phase::ForwardPackets,
    ];

    /// Snake-case label matching the engine method name.
    pub fn label(self) -> &'static str {
        match self {
            Phase::ApplyFaults => "apply_faults",
            Phase::GenerateScans => "generate_scans",
            Phase::ReleaseDelayedScans => "release_delayed_scans",
            Phase::GenerateBackground => "generate_background",
            Phase::ForwardPackets => "forward_packets",
        }
    }
}

/// Wall-clock time spent in each engine phase over a run (or, after
/// [`PhaseProfile::merge`], over an ensemble of runs).
///
/// Timing fields are *observational*: they vary run to run even when
/// every simulated series is bit-identical, which is why this type does
/// **not** implement `PartialEq` and is excluded from
/// [`SimResult`](crate::sim::SimResult) equality.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Ticks the profile covers (summed across runs after a merge).
    pub ticks: u64,
    /// Time in the fault-application phase.
    pub apply_faults: Duration,
    /// Time in the scan-generation phase.
    pub generate_scans: Duration,
    /// Time in the delayed-scan release phase.
    pub release_delayed_scans: Duration,
    /// Time in the background-injection phase.
    pub generate_background: Duration,
    /// Time in the forwarding phase.
    pub forward_packets: Duration,
}

impl PhaseProfile {
    /// The recorded time for `phase`.
    pub fn get(&self, phase: Phase) -> Duration {
        match phase {
            Phase::ApplyFaults => self.apply_faults,
            Phase::GenerateScans => self.generate_scans,
            Phase::ReleaseDelayedScans => self.release_delayed_scans,
            Phase::GenerateBackground => self.generate_background,
            Phase::ForwardPackets => self.forward_packets,
        }
    }

    /// Adds `elapsed` to `phase`'s bucket.
    pub(crate) fn add(&mut self, phase: Phase, elapsed: Duration) {
        let slot = match phase {
            Phase::ApplyFaults => &mut self.apply_faults,
            Phase::GenerateScans => &mut self.generate_scans,
            Phase::ReleaseDelayedScans => &mut self.release_delayed_scans,
            Phase::GenerateBackground => &mut self.generate_background,
            Phase::ForwardPackets => &mut self.forward_packets,
        };
        *slot += elapsed;
    }

    /// Total time across all five phases.
    pub fn total(&self) -> Duration {
        Phase::ALL.iter().map(|&p| self.get(p)).sum()
    }

    /// `(phase, duration)` for all five phases in execution order.
    pub fn entries(&self) -> [(Phase, Duration); 5] {
        Phase::ALL.map(|p| (p, self.get(p)))
    }

    /// The phase that consumed the most time.
    pub fn dominant(&self) -> Phase {
        self.entries()
            .into_iter()
            .max_by_key(|&(_, d)| d)
            .map(|(p, _)| p)
            .unwrap_or(Phase::ForwardPackets)
    }

    /// Fraction of the five-phase total spent in `phase` (0 when the
    /// profile is empty).
    pub fn fraction(&self, phase: Phase) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.get(phase).as_secs_f64() / total
        }
    }

    /// Adds another profile's buckets (and tick count) into this one.
    pub fn merge(&mut self, other: &PhaseProfile) {
        self.ticks += other.ticks;
        self.apply_faults += other.apply_faults;
        self.generate_scans += other.generate_scans;
        self.release_delayed_scans += other.release_delayed_scans;
        self.generate_background += other.generate_background;
        self.forward_packets += other.forward_packets;
    }
}

impl std::fmt::Display for PhaseProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ticks:", self.ticks)?;
        for (phase, d) in self.entries() {
            write!(
                f,
                " {}={:.3}ms ({:.1}%)",
                phase.label(),
                d.as_secs_f64() * 1e3,
                self.fraction(phase) * 100.0
            )?;
        }
        Ok(())
    }
}

/// Per-reason drop tallies collected by [`MetricsObserver`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DropTally {
    /// Dropped by `Drop`-discipline host filters.
    pub filtered: u64,
    /// Dropped for lack of a route.
    pub unroutable: u64,
    /// Dropped by injected link loss.
    pub link_loss: u64,
    /// Throttled scans cleared with their dying host.
    pub queue_cleared: u64,
}

impl DropTally {
    /// All drops summed.
    pub fn total(&self) -> u64 {
        self.filtered + self.unroutable + self.link_loss + self.queue_cleared
    }

    fn bump(&mut self, reason: DropReason) {
        match reason {
            DropReason::Filtered => self.filtered += 1,
            DropReason::Unroutable => self.unroutable += 1,
            DropReason::LinkLoss => self.link_loss += 1,
            DropReason::QueueCleared => self.queue_cleared += 1,
        }
    }
}

/// An observer that tallies every event stream the engine emits —
/// ready-made instrumentation for callers who want counts without
/// writing their own [`SimObserver`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsObserver {
    /// Ticks observed.
    pub ticks: u64,
    /// Run-time infections (seed infections are not reported).
    pub infections: u64,
    /// Detection-driven quarantines.
    pub quarantines: u64,
    /// Patches (immunization or self-patching worms).
    pub patches: u64,
    /// Injected fault transitions.
    pub fault_events: u64,
    /// Packets emitted, per the engine's per-packet event stream.
    pub emitted: u64,
    /// Packets delivered.
    pub delivered: u64,
    /// Drops by reason.
    pub drops: DropTally,
    /// Largest in-flight backlog seen at any tick boundary.
    pub peak_in_flight: usize,
    /// Tick of the first run-time infection, if any.
    pub first_infection_tick: Option<u64>,
}

impl MetricsObserver {
    /// A fresh, all-zero observer.
    pub fn new() -> Self {
        MetricsObserver::default()
    }
}

impl SimObserver for MetricsObserver {
    fn on_tick(&mut self, _tick: u64, snapshot: TickSnapshot) {
        self.ticks += 1;
        self.peak_in_flight = self.peak_in_flight.max(snapshot.in_flight);
    }

    fn on_infection(&mut self, tick: u64, _victim: NodeId) {
        self.infections += 1;
        self.first_infection_tick.get_or_insert(tick);
    }

    fn on_quarantine(&mut self, _tick: u64, _host: NodeId) {
        self.quarantines += 1;
    }

    fn on_patch(&mut self, _tick: u64, _host: NodeId) {
        self.patches += 1;
    }

    fn on_fault(&mut self, _tick: u64, _event: FaultEvent) {
        self.fault_events += 1;
    }

    fn wants_packet_events(&self) -> bool {
        true
    }

    fn on_packet_emitted(&mut self, _tick: u64, _kind: PacketKind, _src: NodeId, _dst: NodeId) {
        self.emitted += 1;
    }

    fn on_packet_dropped(
        &mut self,
        _tick: u64,
        _kind: PacketKind,
        _at: NodeId,
        _dst: NodeId,
        reason: DropReason,
    ) {
        self.drops.bump(reason);
    }

    fn on_packet_delivered(&mut self, _tick: u64, _kind: PacketKind, _src: NodeId, _dst: NodeId) {
        self.delivered += 1;
    }
}

/// Fans every callback out to several observers, so instrumentation
/// composes without forking the engine:
///
/// ```
/// use dynaquar_netsim::metrics::{FanoutObserver, MetricsObserver, JsonlEventWriter};
///
/// let mut metrics = MetricsObserver::new();
/// let mut log = JsonlEventWriter::new(Vec::new());
/// let mut fanout = FanoutObserver::new().with(&mut metrics).with(&mut log);
/// # let _ = &mut fanout;
/// ```
#[derive(Default)]
pub struct FanoutObserver<'a> {
    children: Vec<&'a mut dyn SimObserver>,
}

impl std::fmt::Debug for FanoutObserver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FanoutObserver")
            .field("children", &self.children.len())
            .finish()
    }
}

impl<'a> FanoutObserver<'a> {
    /// An empty fanout (a no-op observer until children are added).
    pub fn new() -> Self {
        FanoutObserver {
            children: Vec::new(),
        }
    }

    /// Adds a child observer (builder style).
    pub fn with(mut self, child: &'a mut dyn SimObserver) -> Self {
        self.children.push(child);
        self
    }

    /// Adds a child observer in place.
    pub fn push(&mut self, child: &'a mut dyn SimObserver) {
        self.children.push(child);
    }

    /// Number of children.
    pub fn len(&self) -> usize {
        self.children.len()
    }

    /// Whether the fanout has no children.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }
}

impl SimObserver for FanoutObserver<'_> {
    fn on_tick(&mut self, tick: u64, snapshot: TickSnapshot) {
        for c in &mut self.children {
            c.on_tick(tick, snapshot);
        }
    }

    fn on_infection(&mut self, tick: u64, victim: NodeId) {
        for c in &mut self.children {
            c.on_infection(tick, victim);
        }
    }

    fn on_quarantine(&mut self, tick: u64, host: NodeId) {
        for c in &mut self.children {
            c.on_quarantine(tick, host);
        }
    }

    fn on_patch(&mut self, tick: u64, host: NodeId) {
        for c in &mut self.children {
            c.on_patch(tick, host);
        }
    }

    fn on_fault(&mut self, tick: u64, event: FaultEvent) {
        for c in &mut self.children {
            c.on_fault(tick, event);
        }
    }

    /// True if *any* child wants per-packet events; children that do not
    /// still receive them (they are free to ignore the callbacks).
    fn wants_packet_events(&self) -> bool {
        self.children.iter().any(|c| c.wants_packet_events())
    }

    fn on_packet_emitted(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        for c in &mut self.children {
            c.on_packet_emitted(tick, kind, src, dst);
        }
    }

    fn on_packet_dropped(
        &mut self,
        tick: u64,
        kind: PacketKind,
        at: NodeId,
        dst: NodeId,
        reason: DropReason,
    ) {
        for c in &mut self.children {
            c.on_packet_dropped(tick, kind, at, dst, reason);
        }
    }

    fn on_packet_delivered(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        for c in &mut self.children {
            c.on_packet_delivered(tick, kind, src, dst);
        }
    }
}

/// Streams simulation events as JSON Lines (one JSON object per line)
/// to any [`Write`] sink, for offline analysis.
///
/// Schema (every line has `tick` and `event`; remaining fields depend on
/// the event — see `EXPERIMENTS.md` for the full table):
///
/// ```text
/// {"tick":4,"event":"infection","host":17}
/// {"tick":4,"event":"quarantine","host":9}
/// {"tick":5,"event":"patch","host":2}
/// {"tick":1,"event":"fault","fault":"link_down","id":3}
/// {"tick":2,"event":"packet_emitted","kind":"worm","src":1,"dst":9}
/// {"tick":2,"event":"packet_dropped","kind":"worm","at":1,"dst":9,"reason":"unroutable"}
/// {"tick":3,"event":"packet_delivered","kind":"worm","src":1,"dst":9}
/// {"tick":5,"event":"tick","infected":3,"ever_infected":4,"immunized":1,"in_flight":7}
/// ```
///
/// The first write error is latched ([`JsonlEventWriter::io_error`]) and
/// further events are discarded; [`JsonlEventWriter::finish`] flushes
/// and surfaces the latched error.
#[derive(Debug)]
pub struct JsonlEventWriter<W: Write> {
    out: W,
    written: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlEventWriter<W> {
    /// Wraps a sink. Consider a [`io::BufWriter`] for file sinks — the
    /// writer emits one small write per event.
    pub fn new(out: W) -> Self {
        JsonlEventWriter {
            out,
            written: 0,
            error: None,
        }
    }

    /// Events successfully written so far.
    pub fn events_written(&self) -> u64 {
        self.written
    }

    /// The first write error encountered, if any.
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Flushes and returns the sink, or the first latched write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.out.flush()?;
        Ok(self.out)
    }

    /// Flushes the sink now, latching the first error like every event
    /// write does. Called automatically on each tick boundary so
    /// streaming consumers (a `tail -f`, a daemon subscriber) see a
    /// tick's events as soon as the tick completes, not when the writer
    /// is dropped.
    pub fn flush(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.out.flush() {
            self.error = Some(e);
        }
    }

    /// Direct access to the sink, for callers that hand ownership of
    /// the buffered bytes onward between ticks (see [`TickFeed`]).
    pub fn sink_mut(&mut self) -> &mut W {
        &mut self.out
    }

    fn emit(&mut self, line: std::fmt::Arguments<'_>) {
        if self.error.is_some() {
            return;
        }
        match self.out.write_fmt(line).and_then(|()| self.out.write_all(b"\n")) {
            Ok(()) => self.written += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

impl<W: Write> SimObserver for JsonlEventWriter<W> {
    fn on_tick(&mut self, tick: u64, s: TickSnapshot) {
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"tick\",\"infected\":{},\"ever_infected\":{},\"immunized\":{},\"in_flight\":{}}}",
            s.infected, s.ever_infected, s.immunized, s.in_flight
        ));
        // The tick line closes a tick's block of events; flush so the
        // block is visible downstream at tick granularity rather than
        // only when the writer is dropped.
        self.flush();
    }

    fn on_infection(&mut self, tick: u64, victim: NodeId) {
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"infection\",\"host\":{}}}",
            victim.index()
        ));
    }

    fn on_quarantine(&mut self, tick: u64, host: NodeId) {
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"quarantine\",\"host\":{}}}",
            host.index()
        ));
    }

    fn on_patch(&mut self, tick: u64, host: NodeId) {
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"patch\",\"host\":{}}}",
            host.index()
        ));
    }

    fn on_fault(&mut self, tick: u64, event: FaultEvent) {
        let (kind, id) = match event {
            FaultEvent::LinkDown(e) => ("link_down", e.index()),
            FaultEvent::LinkRepaired(e) => ("link_repaired", e.index()),
            FaultEvent::NodeDown(n) => ("node_down", n.index()),
            FaultEvent::NodeRepaired(n) => ("node_repaired", n.index()),
            FaultEvent::DetectorDisabled(n) => ("detector_disabled", n.index()),
            FaultEvent::FalseQuarantine(n) => ("false_quarantine", n.index()),
        };
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"fault\",\"fault\":\"{kind}\",\"id\":{id}}}"
        ));
    }

    fn wants_packet_events(&self) -> bool {
        true
    }

    fn on_packet_emitted(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"packet_emitted\",\"kind\":\"{}\",\"src\":{},\"dst\":{}}}",
            kind.label(),
            src.index(),
            dst.index()
        ));
    }

    fn on_packet_dropped(
        &mut self,
        tick: u64,
        kind: PacketKind,
        at: NodeId,
        dst: NodeId,
        reason: DropReason,
    ) {
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"packet_dropped\",\"kind\":\"{}\",\"at\":{},\"dst\":{},\"reason\":\"{}\"}}",
            kind.label(),
            at.index(),
            dst.index(),
            reason.label()
        ));
    }

    fn on_packet_delivered(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        self.emit(format_args!(
            "{{\"tick\":{tick},\"event\":\"packet_delivered\",\"kind\":\"{}\",\"src\":{},\"dst\":{}}}",
            kind.label(),
            src.index(),
            dst.index()
        ));
    }
}

/// One tick's worth of the JSONL event stream, as produced by
/// [`TickFeed`] / [`ChannelEventSink`]: every event line of the tick
/// (infections, packets, faults, …) followed by the closing `tick`
/// census line, exactly as [`JsonlEventWriter`] would have written
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TickBlock {
    /// The tick the block closes.
    pub tick: u64,
    /// The tick's JSONL lines, newline-terminated.
    pub lines: Vec<u8>,
    /// The census the closing `tick` line encodes — kept structured so
    /// consumers that fall behind can catch up from the latest snapshot
    /// without re-parsing the byte stream.
    pub snapshot: TickSnapshot,
}

/// Streams the [`JsonlEventWriter`] feed in per-tick byte blocks to a
/// callback — the observer the serving layer fans out to subscriber
/// channels, built so the bytes a callback receives are identical to
/// what a plain `JsonlEventWriter` writing one contiguous stream would
/// have produced.
///
/// Events accumulate in an internal buffer; when the tick's closing
/// census line lands, the whole block is handed to the callback along
/// with the structured [`TickSnapshot`].
pub struct TickFeed<F: FnMut(TickBlock)> {
    writer: JsonlEventWriter<Vec<u8>>,
    deliver: F,
}

impl<F: FnMut(TickBlock)> std::fmt::Debug for TickFeed<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickFeed")
            .field("events_written", &self.writer.events_written())
            .finish()
    }
}

impl<F: FnMut(TickBlock)> TickFeed<F> {
    /// Creates a feed delivering each completed tick's block to
    /// `deliver`.
    pub fn new(deliver: F) -> Self {
        TickFeed {
            writer: JsonlEventWriter::new(Vec::new()),
            deliver,
        }
    }

    /// Events written across all blocks so far.
    pub fn events_written(&self) -> u64 {
        self.writer.events_written()
    }
}

impl<F: FnMut(TickBlock)> SimObserver for TickFeed<F> {
    fn on_tick(&mut self, tick: u64, s: TickSnapshot) {
        self.writer.on_tick(tick, s);
        let lines = std::mem::take(self.writer.sink_mut());
        (self.deliver)(TickBlock {
            tick,
            lines,
            snapshot: s,
        });
    }

    fn on_infection(&mut self, tick: u64, victim: NodeId) {
        self.writer.on_infection(tick, victim);
    }

    fn on_quarantine(&mut self, tick: u64, host: NodeId) {
        self.writer.on_quarantine(tick, host);
    }

    fn on_patch(&mut self, tick: u64, host: NodeId) {
        self.writer.on_patch(tick, host);
    }

    fn on_fault(&mut self, tick: u64, event: FaultEvent) {
        self.writer.on_fault(tick, event);
    }

    fn wants_packet_events(&self) -> bool {
        true
    }

    fn on_packet_emitted(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        self.writer.on_packet_emitted(tick, kind, src, dst);
    }

    fn on_packet_dropped(
        &mut self,
        tick: u64,
        kind: PacketKind,
        at: NodeId,
        dst: NodeId,
        reason: DropReason,
    ) {
        self.writer.on_packet_dropped(tick, kind, at, dst, reason);
    }

    fn on_packet_delivered(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        self.writer.on_packet_delivered(tick, kind, src, dst);
    }
}

/// A [`TickFeed`] whose blocks go down a bounded channel without ever
/// blocking the engine: when the receiver falls behind and the channel
/// fills, the block is dropped and counted instead of queued — the
/// backpressure contract a serving layer needs so one slow subscriber
/// cannot stall a running simulation. The receiver detects the gap
/// (non-contiguous `tick` values) and catches up from the next block's
/// [`TickSnapshot`].
#[derive(Debug)]
pub struct ChannelEventSink {
    writer: JsonlEventWriter<Vec<u8>>,
    tx: std::sync::mpsc::SyncSender<TickBlock>,
    dropped: u64,
}

impl ChannelEventSink {
    /// Wraps a bounded sender.
    pub fn new(tx: std::sync::mpsc::SyncSender<TickBlock>) -> Self {
        ChannelEventSink {
            writer: JsonlEventWriter::new(Vec::new()),
            tx,
            dropped: 0,
        }
    }

    /// Blocks dropped because the channel was full (or its receiver
    /// had hung up).
    pub fn dropped_blocks(&self) -> u64 {
        self.dropped
    }
}

impl SimObserver for ChannelEventSink {
    fn on_tick(&mut self, tick: u64, s: TickSnapshot) {
        self.writer.on_tick(tick, s);
        let lines = std::mem::take(self.writer.sink_mut());
        let block = TickBlock {
            tick,
            lines,
            snapshot: s,
        };
        if self.tx.try_send(block).is_err() {
            self.dropped += 1;
        }
    }

    fn on_infection(&mut self, tick: u64, victim: NodeId) {
        self.writer.on_infection(tick, victim);
    }

    fn on_quarantine(&mut self, tick: u64, host: NodeId) {
        self.writer.on_quarantine(tick, host);
    }

    fn on_patch(&mut self, tick: u64, host: NodeId) {
        self.writer.on_patch(tick, host);
    }

    fn on_fault(&mut self, tick: u64, event: FaultEvent) {
        self.writer.on_fault(tick, event);
    }

    fn wants_packet_events(&self) -> bool {
        true
    }

    fn on_packet_emitted(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        self.writer.on_packet_emitted(tick, kind, src, dst);
    }

    fn on_packet_dropped(
        &mut self,
        tick: u64,
        kind: PacketKind,
        at: NodeId,
        dst: NodeId,
        reason: DropReason,
    ) {
        self.writer.on_packet_dropped(tick, kind, at, dst, reason);
    }

    fn on_packet_delivered(&mut self, tick: u64, kind: PacketKind, src: NodeId, dst: NodeId) {
        self.writer.on_packet_delivered(tick, kind, src, dst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conservation_arithmetic() {
        let mut k = KindCounts {
            emitted: 10,
            delivered: 4,
            filtered: 2,
            lost: 1,
            unroutable: 1,
            cleared: 1,
            in_flight_at_end: 1,
            queued_at_end: 0,
            ..KindCounts::default()
        };
        assert_eq!(k.terminal(), 9);
        assert_eq!(k.conservation_defect(), 0);
        assert!(k.is_conserved());
        k.emitted += 1;
        assert_eq!(k.conservation_defect(), 1);
        assert!(!k.is_conserved());
    }

    #[test]
    fn merge_sums_everything() {
        let a = KindCounts {
            emitted: 3,
            delivered: 2,
            stalled_on_cap: 5,
            ..KindCounts::default()
        };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.emitted, 6);
        assert_eq!(b.delivered, 4);
        assert_eq!(b.stalled_on_cap, 10);
        let mut acc = PacketAccounting {
            worm: a,
            background: KindCounts::default(),
        };
        acc.merge(&acc.clone());
        assert_eq!(acc.worm.emitted, 6);
        assert_eq!(acc.total().emitted, 6);
        assert_eq!(acc.kind(PacketKind::Worm).emitted, 6);
        assert_eq!(acc.kind(PacketKind::Background).emitted, 0);
    }

    #[test]
    fn phase_profile_bookkeeping() {
        let mut p = PhaseProfile::default();
        p.add(Phase::ForwardPackets, Duration::from_millis(30));
        p.add(Phase::GenerateScans, Duration::from_millis(10));
        p.ticks = 7;
        assert_eq!(p.total(), Duration::from_millis(40));
        assert_eq!(p.dominant(), Phase::ForwardPackets);
        assert!((p.fraction(Phase::ForwardPackets) - 0.75).abs() < 1e-12);
        assert!((p.fraction(Phase::ApplyFaults)).abs() < 1e-12);
        let mut q = p;
        q.merge(&p);
        assert_eq!(q.ticks, 14);
        assert_eq!(q.total(), Duration::from_millis(80));
        let text = q.to_string();
        assert!(text.contains("forward_packets"));
        // Empty profiles report zero fractions, not NaN.
        assert_eq!(PhaseProfile::default().fraction(Phase::ApplyFaults), 0.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(PacketKind::Worm.label(), "worm");
        assert_eq!(PacketKind::Background.label(), "background");
        assert_eq!(DropReason::QueueCleared.label(), "queue_cleared");
        assert_eq!(Phase::ReleaseDelayedScans.label(), "release_delayed_scans");
        assert_eq!(Phase::ALL.len(), 5);
    }

    #[test]
    fn metrics_observer_tallies_events() {
        let mut m = MetricsObserver::new();
        assert!(m.wants_packet_events());
        m.on_infection(4, NodeId::new(1));
        m.on_infection(9, NodeId::new(2));
        m.on_quarantine(5, NodeId::new(1));
        m.on_patch(6, NodeId::new(3));
        m.on_packet_emitted(1, PacketKind::Worm, NodeId::new(0), NodeId::new(1));
        m.on_packet_delivered(2, PacketKind::Worm, NodeId::new(0), NodeId::new(1));
        m.on_packet_dropped(3, PacketKind::Worm, NodeId::new(0), NodeId::new(1), DropReason::Unroutable);
        m.on_packet_dropped(3, PacketKind::Worm, NodeId::new(0), NodeId::new(1), DropReason::LinkLoss);
        m.on_tick(
            1,
            TickSnapshot {
                infected: 1,
                ever_infected: 1,
                immunized: 0,
                in_flight: 42,
            },
        );
        assert_eq!(m.infections, 2);
        assert_eq!(m.first_infection_tick, Some(4));
        assert_eq!(m.quarantines, 1);
        assert_eq!(m.patches, 1);
        assert_eq!(m.emitted, 1);
        assert_eq!(m.delivered, 1);
        assert_eq!(m.drops.unroutable, 1);
        assert_eq!(m.drops.link_loss, 1);
        assert_eq!(m.drops.total(), 2);
        assert_eq!(m.peak_in_flight, 42);
    }

    #[test]
    fn fanout_forwards_to_all_children() {
        let mut a = MetricsObserver::new();
        let mut b = MetricsObserver::new();
        {
            let mut fan = FanoutObserver::new().with(&mut a).with(&mut b);
            assert_eq!(fan.len(), 2);
            assert!(!fan.is_empty());
            assert!(fan.wants_packet_events());
            fan.on_infection(3, NodeId::new(7));
            fan.on_packet_emitted(3, PacketKind::Background, NodeId::new(1), NodeId::new(2));
            fan.on_fault(1, FaultEvent::NodeDown(NodeId::new(0)));
        }
        assert_eq!(a.infections, 1);
        assert_eq!(b.infections, 1);
        assert_eq!(a.emitted, 1);
        assert_eq!(b.fault_events, 1);
    }

    #[test]
    fn empty_fanout_wants_nothing() {
        let fan = FanoutObserver::new();
        assert!(fan.is_empty());
        assert!(!fan.wants_packet_events());
        assert!(!format!("{fan:?}").is_empty());
    }

    #[test]
    fn jsonl_writer_emits_one_line_per_event() {
        let mut w = JsonlEventWriter::new(Vec::new());
        w.on_infection(4, NodeId::new(17));
        w.on_quarantine(4, NodeId::new(9));
        w.on_fault(1, FaultEvent::LinkDown(dynaquar_topology::EdgeId::new(3)));
        w.on_packet_dropped(
            2,
            PacketKind::Worm,
            NodeId::new(1),
            NodeId::new(9),
            DropReason::Unroutable,
        );
        w.on_tick(
            5,
            TickSnapshot {
                infected: 3,
                ever_infected: 4,
                immunized: 1,
                in_flight: 7,
            },
        );
        assert_eq!(w.events_written(), 5);
        assert!(w.io_error().is_none());
        let out = String::from_utf8(w.finish().unwrap()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert_eq!(lines[0], r#"{"tick":4,"event":"infection","host":17}"#);
        assert_eq!(
            lines[3],
            r#"{"tick":2,"event":"packet_dropped","kind":"worm","at":1,"dst":9,"reason":"unroutable"}"#
        );
        assert!(lines[4].contains("\"in_flight\":7"));
    }

    #[test]
    fn jsonl_writer_latches_first_error() {
        /// Accepts `lines` full lines, then fails every write.
        struct FailAfter {
            lines: usize,
        }
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.lines == 0 {
                    return Err(io::Error::other("sink full"));
                }
                if buf.ends_with(b"\n") {
                    self.lines -= 1;
                }
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = JsonlEventWriter::new(FailAfter { lines: 1 });
        w.on_infection(1, NodeId::new(0)); // fits
        w.on_infection(2, NodeId::new(1)); // fails
        w.on_infection(3, NodeId::new(2)); // discarded
        assert_eq!(w.events_written(), 1);
        assert!(w.io_error().is_some());
        assert!(w.finish().is_err());
    }

    /// A sink recording how much of the written data had been flushed,
    /// and when.
    #[derive(Default)]
    struct FlushTracker {
        data: Vec<u8>,
        flushed_len: usize,
        flushes: usize,
    }

    impl Write for FlushTracker {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.data.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            self.flushed_len = self.data.len();
            self.flushes += 1;
            Ok(())
        }
    }

    fn two_tick_world_run(observer: &mut dyn SimObserver) {
        let world = crate::World::from_star(
            dynaquar_topology::generators::star(9).unwrap(),
        );
        let config = crate::SimConfig::builder()
            .beta(0.8)
            .horizon(2)
            .build()
            .unwrap();
        let sim = crate::sim::Simulator::new(&world, &config, crate::WormBehavior::random(), 1);
        let _ = sim.run_observed(observer);
    }

    #[test]
    fn jsonl_writer_flushes_on_every_tick_boundary() {
        // Regression: the writer used to flush only on `finish`/drop,
        // so a streaming consumer saw nothing until the run ended. On a
        // two-tick world every tick's block must be flushed as the tick
        // closes.
        let mut w = JsonlEventWriter::new(FlushTracker::default());
        two_tick_world_run(&mut w);
        let events = w.events_written();
        let sink = w.finish().unwrap();
        assert!(events > 0);
        // One flush per tick line (tick-0 census + 2 ticks), plus the
        // final flush from `finish`.
        assert!(
            sink.flushes >= 3,
            "expected a flush per tick boundary, saw {}",
            sink.flushes
        );
        // Nothing was left buffered between ticks: at the last on_tick
        // flush the entire stream so far was visible downstream.
        assert_eq!(sink.flushed_len, sink.data.len());
    }

    #[test]
    fn explicit_flush_latches_sink_errors() {
        struct FailingFlush;
        impl Write for FailingFlush {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Err(io::Error::other("flush refused"))
            }
        }
        let mut w = JsonlEventWriter::new(FailingFlush);
        w.on_infection(1, NodeId::new(0));
        assert!(w.io_error().is_none());
        w.flush();
        assert!(w.io_error().is_some());
        assert!(w.finish().is_err());
    }

    #[test]
    fn tick_feed_blocks_concatenate_to_the_jsonl_stream() {
        // The serving contract: the per-tick blocks a TickFeed hands
        // out, concatenated, are byte-identical to one contiguous
        // JsonlEventWriter stream of the same run.
        let mut blocks: Vec<TickBlock> = Vec::new();
        {
            let mut feed = TickFeed::new(|b| blocks.push(b));
            two_tick_world_run(&mut feed);
            assert!(feed.events_written() > 0);
        }
        let mut w = JsonlEventWriter::new(Vec::new());
        two_tick_world_run(&mut w);
        let reference = w.finish().unwrap();
        let mut concatenated = Vec::new();
        let mut last_tick = None;
        for b in &blocks {
            concatenated.extend_from_slice(&b.lines);
            // Blocks arrive in tick order, each closed by its census.
            assert!(last_tick < Some(b.tick) || last_tick.is_none());
            last_tick = Some(b.tick);
            let text = std::str::from_utf8(&b.lines).unwrap();
            let closing = text.lines().last().unwrap();
            assert!(closing.contains("\"event\":\"tick\""));
            assert!(closing.contains(&format!("\"tick\":{}", b.tick)));
            assert!(closing.contains(&format!("\"infected\":{}", b.snapshot.infected)));
        }
        assert_eq!(concatenated, reference);
    }

    #[test]
    fn channel_sink_drops_blocks_instead_of_blocking() {
        let (tx, rx) = std::sync::mpsc::sync_channel(1);
        let mut sink = ChannelEventSink::new(tx);
        let snap = TickSnapshot {
            infected: 1,
            ever_infected: 1,
            immunized: 0,
            in_flight: 0,
        };
        sink.on_tick(0, snap); // fills the single slot
        sink.on_tick(1, snap); // channel full: dropped, not blocked
        sink.on_tick(2, snap); // still full: dropped
        assert_eq!(sink.dropped_blocks(), 2);
        let first = rx.recv().unwrap();
        assert_eq!(first.tick, 0);
        // Receiver drained one slot; the next block goes through again.
        sink.on_tick(3, snap);
        assert_eq!(rx.recv().unwrap().tick, 3);
        assert_eq!(sink.dropped_blocks(), 2);
        // Receiver gone: blocks are counted as dropped, engine unharmed.
        drop(rx);
        sink.on_tick(4, snap);
        assert_eq!(sink.dropped_blocks(), 3);
    }
}
