//! Struct-of-arrays hot state for the tick loop.
//!
//! At 100k hosts the per-tick cost is dominated by two things the old
//! engine representation made needlessly expensive:
//!
//! * **host state** lived in parallel `Vec`s spread across the
//!   `Simulator` with census counters maintained at every call site —
//!   here it is one [`HostStates`] struct of arrays whose transition
//!   methods keep the counters consistent by construction;
//! * **packets** lived in a `VecDeque<Packet>` that was drained and
//!   rebuilt into a freshly allocated deque every tick — here a
//!   [`PacketPool`] slab with a free-list and a recycled scratch queue
//!   forwards packets with zero steady-state allocation while
//!   preserving exact FIFO order (the order the token caps consume
//!   budget in, so bit-identity depends on it).

use crate::metrics::PacketKind;
use dynaquar_topology::NodeId;
use std::collections::{BTreeSet, VecDeque};

/// Per-node infection state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NodeState {
    Susceptible,
    Infected,
    Immunized,
}

impl NodeState {
    /// Stable on-disk code for snapshots (do not reorder without a
    /// snapshot format-version bump).
    pub(crate) fn code(self) -> u8 {
        match self {
            NodeState::Susceptible => 0,
            NodeState::Infected => 1,
            NodeState::Immunized => 2,
        }
    }

    /// Inverse of [`NodeState::code`]; `None` for unknown codes (a
    /// corrupted snapshot, surfaced as a typed error by the loader).
    pub(crate) fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(NodeState::Susceptible),
            1 => Some(NodeState::Infected),
            2 => Some(NodeState::Immunized),
            _ => None,
        }
    }
}

/// A packet in flight.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet {
    pub kind: PacketKind,
    pub src: NodeId,
    pub current: NodeId,
    pub dst: NodeId,
    /// Tick at which the packet entered the network.
    pub emitted: u64,
}

/// Struct-of-arrays per-node epidemic state plus the incrementally
/// maintained census.
///
/// Every state transition the engine performs is a method here, so the
/// `infected`/`immunized`/`ever_infected` counters cannot drift from
/// the arrays (cross-checked against a full scan by the simulator's
/// debug census assertion).
#[derive(Debug)]
pub(crate) struct HostStates {
    status: Vec<NodeState>,
    /// Tick at which each currently infected node was infected (for
    /// Welchia-style self-patching).
    infected_since: Vec<u64>,
    /// Currently infected nodes, sorted ascending by index. Iterating
    /// this set visits exactly the nodes a full `status` sweep would
    /// accept, in the same order — the property event-driven stepping
    /// rests on (see `netsim::sim`).
    active: BTreeSet<u32>,
    /// End hosts (never routers) not yet immunized, sorted ascending by
    /// index. This is exactly the candidate set of the immunization
    /// sweep — susceptible *and* infected hosts can both be patched —
    /// so `immunization_step` enumerates it instead of every node in
    /// the world, making the sweep O(unpatched).
    /// Ascending-id enumeration keeps it bit-identical to the old full
    /// sweep (which walked the sorted host list and skipped immunized
    /// entries).
    unpatched: BTreeSet<u32>,
    infected: usize,
    immunized: usize,
    ever_infected: usize,
}

impl HostStates {
    /// Fresh state for `n` nodes of which `hosts` (the world's sorted
    /// host list) are immunization candidates. Router nodes never enter
    /// the unpatched index — they have no status transitions at all.
    pub fn new(n: usize, hosts: &[NodeId]) -> Self {
        HostStates {
            status: vec![NodeState::Susceptible; n],
            infected_since: vec![0; n],
            active: BTreeSet::new(),
            unpatched: hosts.iter().map(|h| idx32(h.index())).collect(),
            infected: 0,
            immunized: 0,
            ever_infected: 0,
        }
    }

    /// Direct state read — only the debug census (and tests) need it;
    /// release paths go through the incremental counters and indexes.
    #[cfg(any(debug_assertions, test))]
    #[inline]
    pub fn status(&self, i: usize) -> NodeState {
        self.status[i]
    }

    #[inline]
    pub fn is_infected(&self, i: usize) -> bool {
        self.status[i] == NodeState::Infected
    }

    #[inline]
    pub fn infected_since(&self, i: usize) -> u64 {
        self.infected_since[i]
    }

    pub fn infected(&self) -> usize {
        self.infected
    }

    pub fn immunized(&self) -> usize {
        self.immunized
    }

    pub fn ever_infected(&self) -> usize {
        self.ever_infected
    }

    /// Currently infected nodes in ascending index order.
    pub fn active_hosts(&self) -> impl Iterator<Item = u32> + '_ {
        self.active.iter().copied()
    }

    /// Not-yet-immunized end hosts in ascending index order — the
    /// immunization sweep's candidate set.
    pub fn unpatched_hosts(&self) -> impl Iterator<Item = u32> + '_ {
        self.unpatched.iter().copied()
    }

    /// Cross-checks the active and unpatched indexes against the status
    /// array (debug builds; called from the simulator's census
    /// assertion).
    #[cfg(debug_assertions)]
    pub fn debug_assert_active_index(&self) {
        assert_eq!(
            self.active.len(),
            self.infected,
            "active index size disagrees with infected census"
        );
        for &i in &self.active {
            assert_eq!(
                self.status[i as usize],
                NodeState::Infected,
                "active index holds a non-infected node {i}"
            );
            assert!(
                self.unpatched.contains(&i),
                "infected host {i} missing from the unpatched index"
            );
        }
        for &i in &self.unpatched {
            assert_ne!(
                self.status[i as usize],
                NodeState::Immunized,
                "unpatched index holds an immunized host {i}"
            );
        }
    }

    /// Seeds an initial infection (construction time, `infected_since`
    /// stays 0).
    pub fn seed(&mut self, i: usize) {
        debug_assert_eq!(self.status[i], NodeState::Susceptible);
        self.status[i] = NodeState::Infected;
        self.active.insert(idx32(i));
        self.infected += 1;
        self.ever_infected += 1;
    }

    /// Infects a susceptible node at `tick`; returns whether the state
    /// changed (infected/immunized nodes shrug the packet off).
    pub fn infect(&mut self, i: usize, tick: u64) -> bool {
        if self.status[i] != NodeState::Susceptible {
            return false;
        }
        self.status[i] = NodeState::Infected;
        self.infected_since[i] = tick;
        self.active.insert(idx32(i));
        self.infected += 1;
        self.ever_infected += 1;
        true
    }

    /// Immunizes a *susceptible* node (injected false-positive
    /// quarantine); returns whether the state changed.
    pub fn immunize_if_susceptible(&mut self, i: usize) -> bool {
        if self.status[i] != NodeState::Susceptible {
            return false;
        }
        self.status[i] = NodeState::Immunized;
        self.unpatched.remove(&idx32(i));
        self.immunized += 1;
        true
    }

    /// Immunizes an *infected* node (self-patch, jitter-delayed
    /// quarantine); returns whether the state changed.
    pub fn immunize_infected(&mut self, i: usize) -> bool {
        if self.status[i] != NodeState::Infected {
            return false;
        }
        self.status[i] = NodeState::Immunized;
        self.active.remove(&idx32(i));
        self.unpatched.remove(&idx32(i));
        self.infected -= 1;
        self.immunized += 1;
        true
    }

    /// Immunizes a node known *not* to be immunized already (the
    /// immunization sweep draws its random number first and only for
    /// such nodes).
    pub fn immunize_unpatched(&mut self, i: usize) {
        let prev = self.status[i];
        debug_assert_ne!(prev, NodeState::Immunized);
        self.status[i] = NodeState::Immunized;
        if prev == NodeState::Infected {
            self.active.remove(&idx32(i));
            self.infected -= 1;
        }
        self.unpatched.remove(&idx32(i));
        self.immunized += 1;
    }

    /// The dynamic-quarantine cut-off: an infected node becomes
    /// immunized; a node already immunized earlier in the same emission
    /// sweep stays immunized with no double count.
    pub fn quarantine(&mut self, i: usize) {
        if self.status[i] == NodeState::Infected {
            self.active.remove(&idx32(i));
            self.infected -= 1;
            self.immunized += 1;
        }
        self.status[i] = NodeState::Immunized;
        self.unpatched.remove(&idx32(i));
    }

    /// Snapshot view: `(status codes, infected_since, ever_infected)`.
    /// The census counters and active index are derivable from the
    /// status array — except `ever_infected`, which also counts hosts
    /// that have since been immunized, so it travels explicitly.
    pub fn export(&self) -> (Vec<u8>, &[u64], u64) {
        (
            self.status.iter().map(|s| s.code()).collect(),
            &self.infected_since,
            self.ever_infected as u64,
        )
    }

    /// Rebuilds host state from an [`HostStates::export`] capture;
    /// `hosts` is the world's sorted host list (the unpatched index is
    /// derivable, so it does not travel in the snapshot). Returns
    /// `None` when a status code is invalid or the array lengths
    /// disagree (corrupted snapshot).
    pub fn from_export(
        status_codes: &[u8],
        infected_since: Vec<u64>,
        ever_infected: u64,
        hosts: &[NodeId],
    ) -> Option<Self> {
        if status_codes.len() != infected_since.len() {
            return None;
        }
        let mut status = Vec::with_capacity(status_codes.len());
        let mut active = BTreeSet::new();
        let mut infected = 0usize;
        let mut immunized = 0usize;
        for (i, &code) in status_codes.iter().enumerate() {
            let s = NodeState::from_code(code)?;
            match s {
                NodeState::Infected => {
                    active.insert(idx32(i));
                    infected += 1;
                }
                NodeState::Immunized => immunized += 1,
                NodeState::Susceptible => {}
            }
            status.push(s);
        }
        let mut unpatched = BTreeSet::new();
        for h in hosts {
            match status.get(h.index()) {
                Some(NodeState::Immunized) => {}
                Some(_) => {
                    unpatched.insert(idx32(h.index()));
                }
                None => return None,
            }
        }
        Some(HostStates {
            status,
            infected_since,
            active,
            unpatched,
            infected,
            immunized,
            ever_infected: ever_infected as usize,
        })
    }
}

/// Node indexes are stored as `u32` in the activity indexes (same
/// assumption the packet pool makes about slot counts).
#[inline]
pub(crate) fn idx32(i: usize) -> u32 {
    debug_assert!(u32::try_from(i).is_ok(), "more than 2^32 nodes");
    i as u32
}

/// Slab-allocated in-flight packet store with a free-list and recycled
/// FIFO queues.
///
/// Packets are stored once in `slots`; the FIFO `queue` holds slot
/// indices in network-arrival order. Each forwarding tick swaps the
/// queue with a scratch deque and drains it, re-queuing retained
/// packets and returning finished slots to the free-list — after the
/// first few ticks the pool reaches its high-water mark and the hot
/// loop never allocates.
#[derive(Debug, Default)]
pub(crate) struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<u32>,
    queue: VecDeque<u32>,
    scratch: VecDeque<u32>,
}

impl PacketPool {
    pub fn new() -> Self {
        PacketPool::default()
    }

    /// Packets currently in flight.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Admits a packet at the back of the FIFO.
    pub fn insert(&mut self, p: Packet) {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = p;
                idx
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("fewer than 2^32 packets");
                self.slots.push(p);
                idx
            }
        };
        self.queue.push_back(idx);
    }

    /// Starts a forwarding tick: moves the FIFO into the internal
    /// drain cursor. Every packet must then be consumed via
    /// [`PacketPool::next_drained`] and either
    /// [`retained`](PacketPool::retain) or
    /// [`released`](PacketPool::release).
    pub fn start_drain(&mut self) {
        debug_assert!(self.scratch.is_empty(), "previous drain not finished");
        std::mem::swap(&mut self.queue, &mut self.scratch);
    }

    /// Next packet of the tick being drained, as `(slot, copy)`.
    pub fn next_drained(&mut self) -> Option<(u32, Packet)> {
        let idx = self.scratch.pop_front()?;
        Some((idx, self.slots[idx as usize]))
    }

    /// Keeps a drained packet in flight (possibly advanced one hop),
    /// preserving its FIFO position relative to other retained packets.
    pub fn retain(&mut self, idx: u32, p: Packet) {
        self.slots[idx as usize] = p;
        self.queue.push_back(idx);
    }

    /// Removes a drained packet from the network, recycling its slot.
    pub fn release(&mut self, idx: u32) {
        self.free.push(idx);
    }

    /// In-flight packets in FIFO order.
    pub fn iter_queued(&self) -> impl Iterator<Item = &Packet> {
        self.queue.iter().map(|&idx| &self.slots[idx as usize])
    }

    /// Capacity high-water mark (allocated slots, free or not).
    #[cfg(test)]
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Snapshot view: `(slots, free-list, FIFO queue)`. All three travel
    /// verbatim — the free-list is a LIFO stack whose pop order decides
    /// future slot assignment, and the queue order is the order token
    /// caps consume budget in, so both are bit-identity-critical.
    pub fn export(&self) -> (&[Packet], &[u32], impl Iterator<Item = u32> + '_) {
        debug_assert!(self.scratch.is_empty(), "export mid-drain");
        (&self.slots, &self.free, self.queue.iter().copied())
    }

    /// Rebuilds a pool from an [`PacketPool::export`] capture. Returns
    /// `None` when an index is out of slab bounds (corrupted snapshot).
    pub fn from_export(slots: Vec<Packet>, free: Vec<u32>, queue: Vec<u32>) -> Option<Self> {
        let n = slots.len();
        if free.iter().chain(queue.iter()).any(|&i| i as usize >= n) {
            return None;
        }
        Some(PacketPool {
            slots,
            free,
            queue: queue.into(),
            scratch: VecDeque::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(tag: u64) -> Packet {
        Packet {
            kind: PacketKind::Worm,
            src: NodeId::new(0),
            current: NodeId::new(0),
            dst: NodeId::new(1),
            emitted: tag,
        }
    }

    #[test]
    fn pool_preserves_fifo_order_across_drains() {
        let mut pool = PacketPool::new();
        for t in 0..5 {
            pool.insert(packet(t));
        }
        // Drain keeping odd tags, dropping even ones.
        pool.start_drain();
        while let Some((idx, p)) = pool.next_drained() {
            if p.emitted % 2 == 1 {
                pool.retain(idx, p);
            } else {
                pool.release(idx);
            }
        }
        pool.insert(packet(5));
        let tags: Vec<u64> = pool.iter_queued().map(|p| p.emitted).collect();
        assert_eq!(tags, vec![1, 3, 5]);
        assert_eq!(pool.queued(), 3);
    }

    #[test]
    fn pool_recycles_slots() {
        let mut pool = PacketPool::new();
        for t in 0..8 {
            pool.insert(packet(t));
        }
        pool.start_drain();
        while let Some((idx, _)) = pool.next_drained() {
            pool.release(idx);
        }
        assert_eq!(pool.queued(), 0);
        for t in 0..8 {
            pool.insert(packet(100 + t));
        }
        // All eight re-inserted packets reused freed slots.
        assert_eq!(pool.slot_count(), 8);
        assert_eq!(pool.queued(), 8);
    }

    /// `HostStates` for `n` nodes that are all end hosts.
    fn all_hosts(n: usize) -> HostStates {
        let hosts: Vec<NodeId> = (0..n).map(|i| NodeId::new(i as u32)).collect();
        HostStates::new(n, &hosts)
    }

    #[test]
    fn host_state_transitions_keep_census() {
        let mut h = all_hosts(4);
        h.seed(0);
        assert!(h.infect(1, 3));
        assert!(!h.infect(1, 9), "already infected");
        assert_eq!(h.infected_since(1), 3);
        assert_eq!((h.infected(), h.immunized(), h.ever_infected()), (2, 0, 2));

        assert!(h.immunize_infected(0));
        assert!(!h.immunize_infected(2), "susceptible is not infected");
        assert!(h.immunize_if_susceptible(2));
        assert!(!h.immunize_if_susceptible(2), "already immunized");
        assert_eq!((h.infected(), h.immunized(), h.ever_infected()), (1, 2, 2));

        h.quarantine(1);
        h.quarantine(1); // idempotent on an already-immunized node
        assert_eq!((h.infected(), h.immunized()), (0, 3));

        h.immunize_unpatched(3);
        assert_eq!(h.status(3), NodeState::Immunized);
        assert_eq!(h.immunized(), 4);
        assert!(!h.is_infected(3));
    }

    #[test]
    fn active_index_is_sorted_and_tracks_every_transition() {
        let mut h = all_hosts(6);
        h.seed(3);
        assert!(h.infect(5, 1));
        assert!(h.infect(1, 2));
        assert_eq!(h.active_hosts().collect::<Vec<_>>(), vec![1, 3, 5]);
        h.quarantine(3);
        assert!(h.immunize_infected(5));
        assert_eq!(h.active_hosts().collect::<Vec<_>>(), vec![1]);
        h.immunize_unpatched(1);
        assert_eq!(h.active_hosts().count(), 0);
        h.debug_assert_active_index();
    }

    #[test]
    fn unpatched_index_tracks_every_immunization_path() {
        // Node 2 is a router: never an immunization candidate.
        let hosts: Vec<NodeId> = [0u32, 1, 3, 4, 5].iter().map(|&i| NodeId::new(i)).collect();
        let mut h = HostStates::new(6, &hosts);
        assert_eq!(h.unpatched_hosts().collect::<Vec<_>>(), vec![0, 1, 3, 4, 5]);

        // Infection does not patch anything.
        h.seed(0);
        assert!(h.infect(3, 1));
        assert_eq!(h.unpatched_hosts().count(), 5);

        h.quarantine(3);
        assert!(h.immunize_infected(0));
        assert!(h.immunize_if_susceptible(1));
        h.immunize_unpatched(4);
        assert_eq!(h.unpatched_hosts().collect::<Vec<_>>(), vec![5]);
        h.debug_assert_active_index();
    }

    #[test]
    fn from_export_rebuilds_the_unpatched_index() {
        let hosts: Vec<NodeId> = [0u32, 1, 2, 4].iter().map(|&i| NodeId::new(i)).collect();
        let mut h = HostStates::new(5, &hosts);
        h.seed(1);
        assert!(h.immunize_if_susceptible(2));
        let (codes, since, ever) = h.export();
        let since = since.to_vec();
        let rebuilt = HostStates::from_export(&codes, since, ever, &hosts).unwrap();
        assert_eq!(
            rebuilt.unpatched_hosts().collect::<Vec<_>>(),
            h.unpatched_hosts().collect::<Vec<_>>()
        );
        rebuilt.debug_assert_active_index();
    }
}
