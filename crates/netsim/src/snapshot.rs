//! Crash-safe engine checkpoints: a versioned, self-describing capture
//! of the *complete* simulator state.
//!
//! A [`Snapshot`] holds everything the engine needs to continue a run
//! bit-identically: the SoA host state and every activity index input,
//! the packet slab with its free-list and FIFO, the shared RNG streams
//! *and* every infected host's private scan stream, the throttle queues
//! and timers, the packet ledger, and the recorded series so far. The
//! robustness contract is **bit-identity**: run to tick `T`, snapshot,
//! resume, and the final [`SimResult`] *and* the concatenated observer
//! JSONL are byte-identical to the uninterrupted run — under both
//! routing backends and any thread count (see
//! `crates/netsim/tests/snapshot_equivalence.rs`).
//!
//! # On-disk format (version 3)
//!
//! ```text
//! magic    8 bytes   b"DQSNAPv1"
//! version  u32 LE    3
//! sections repeated  [u32 id][u64 len][payload][u64 FNV-1a-64(payload)]
//! ```
//!
//! (The magic names the file family; the version word is what gates
//! compatibility. Version 2 added the per-host scan stream section when
//! per-host streams replaced the shared scan RNG; version 3 dropped the
//! header's stepping-strategy byte when event-driven stepping became
//! the only engine.)
//!
//! All integers are little-endian; `f64` values travel as raw bit
//! patterns ([`f64::to_bits`]) so restores are exact. Every section is
//! independently checksummed; loading verifies the magic, the version,
//! each checksum, and the presence of every required section before any
//! state is interpreted, so truncated, bit-flipped, or version-bumped
//! files fail with the matching typed [`SnapshotError`] — never a panic
//! and never a silently wrong resume. Unknown *extra* sections are
//! ignored (forward-compatible additions still need a version bump if
//! they change the meaning of existing sections).
//!
//! Serialize-vs-recompute split: anything cheaply and exactly derivable
//! from serialized state is rebuilt on restore instead of shipped —
//! the active/queue/pending index sets, the fault schedule (a pure
//! function of `(plan, world, seed, horizon)`), the outage flags at the
//! snapshot tick, and the false-quarantine cursor. What *is* shipped is
//! exactly the bit-identity-critical state: RNG words, slab order,
//! free-list order, limiter windows, token accumulators, and counters.
//!
//! Writes are atomic: temp file in the target directory, `sync_all`,
//! then rename — a crash mid-write leaves the previous checkpoint
//! intact.
//!
//! [`SimResult`]: crate::sim::SimResult

use crate::background::BackgroundStats;
use crate::config::{SimConfig, WormBehavior};
use crate::metrics::{KindCounts, PacketAccounting, PacketKind};
use crate::soa::Packet;
use crate::world::World;
use dynaquar_topology::NodeId;
use std::fmt;
use std::io::Write;
use std::path::Path;

/// First 8 bytes of every snapshot file.
pub const MAGIC: [u8; 8] = *b"DQSNAPv1";

/// Current snapshot format version. Bump this (and re-pin the fixture
/// hash in `crates/netsim/tests/snapshot_equivalence.rs`) whenever the
/// byte layout of any section changes — CI guards the pairing.
pub const FORMAT_VERSION: u32 = 3;

const SEC_HEADER: u32 = 1;
const SEC_RNG: u32 = 2;
const SEC_HOSTS: u32 = 3;
const SEC_SELECTORS: u32 = 4;
const SEC_LIMITERS: u32 = 5;
const SEC_TOKENS: u32 = 6;
const SEC_PACKETS: u32 = 7;
const SEC_QUEUES: u32 = 8;
const SEC_COUNTERS: u32 = 9;
const SEC_SERIES: u32 = 10;
const SEC_SCANLOG: u32 = 11;
const SEC_SCANRNG: u32 = 12;

/// Typed failure loading, validating, or resuming from a snapshot.
///
/// The loader refuses loudly: every corruption mode maps to a distinct
/// variant with enough context to act on, and none of them panic.
#[derive(Debug)]
#[non_exhaustive]
pub enum SnapshotError {
    /// Reading or writing the snapshot file failed.
    Io(std::io::Error),
    /// The file does not start with the snapshot magic — not a snapshot
    /// (or the header itself was corrupted).
    BadMagic {
        /// The 8 bytes actually found (fewer if the file is shorter).
        found: Vec<u8>,
    },
    /// The file's format version is not the one this build reads.
    VersionMismatch {
        /// Version recorded in the file.
        found: u32,
        /// Version this build supports ([`FORMAT_VERSION`]).
        supported: u32,
    },
    /// The file ends mid-section: a partial write or external truncation.
    Truncated,
    /// A section's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// Id of the failing section.
        section: u32,
    },
    /// A required section is absent.
    MissingSection {
        /// Id of the missing section.
        section: u32,
    },
    /// The snapshot was taken on a different world (topology
    /// fingerprint mismatch) — resuming it here would silently compute
    /// nonsense, so it is refused.
    WorldMismatch,
    /// The snapshot was taken under a different simulation config.
    /// Intentional divergence (fork-at-tick) goes through
    /// `Simulator::resume_with`, which skips this check.
    ConfigMismatch,
    /// A checksum-valid section decodes to semantically impossible
    /// state (e.g. a packet index beyond the slab).
    Corrupt {
        /// What was wrong, for diagnostics.
        what: &'static str,
    },
    /// The snapshot cannot be resumed against the given inputs (e.g.
    /// its tick lies beyond the new config's horizon).
    InvalidResume {
        /// Why the resume was refused.
        reason: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot I/O failed: {e}"),
            SnapshotError::BadMagic { found } => write!(
                f,
                "not a snapshot file: expected magic {:?}, found {found:?}",
                &MAGIC[..]
            ),
            SnapshotError::VersionMismatch { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads version {supported})"
            ),
            SnapshotError::Truncated => {
                write!(f, "snapshot file is truncated (partial write or external damage)")
            }
            SnapshotError::ChecksumMismatch { section } => {
                write!(f, "snapshot section {section} failed its checksum (file corrupted)")
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot is missing required section {section}")
            }
            SnapshotError::WorldMismatch => write!(
                f,
                "snapshot was taken on a different world (topology fingerprint mismatch)"
            ),
            SnapshotError::ConfigMismatch => write!(
                f,
                "snapshot was taken under a different simulation config; use resume_with to fork deliberately"
            ),
            SnapshotError::Corrupt { what } => write!(f, "snapshot is corrupt: {what}"),
            SnapshotError::InvalidResume { reason } => {
                write!(f, "snapshot cannot be resumed: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// FNV-1a 64-bit over a byte slice — the per-section checksum (and the
/// primitive behind the world/config fingerprints). Not cryptographic;
/// it detects accidental corruption, which is the threat model here.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Structural fingerprint of a [`World`]: node/edge counts, every edge
/// with its endpoints, and the host list. Two worlds with the same
/// fingerprint route and infect identically for snapshot purposes.
pub(crate) fn world_fingerprint(world: &World) -> u64 {
    let graph = world.graph();
    let mut buf = Vec::with_capacity(16 + graph.edge_count() * 12 + world.hosts().len() * 4);
    buf.extend_from_slice(&(graph.node_count() as u64).to_le_bytes());
    buf.extend_from_slice(&(graph.edge_count() as u64).to_le_bytes());
    for (e, a, b) in graph.edges() {
        buf.extend_from_slice(&(e.index() as u32).to_le_bytes());
        buf.extend_from_slice(&(a.index() as u32).to_le_bytes());
        buf.extend_from_slice(&(b.index() as u32).to_le_bytes());
    }
    for &h in world.hosts() {
        buf.extend_from_slice(&(h.index() as u32).to_le_bytes());
    }
    fnv1a(&buf)
}

/// Fingerprint of the simulated semantics of `(config, behavior)`.
///
/// Deliberately excludes the shard count (a recorded value with no
/// effect on the run, so resuming under a different one is
/// legitimate) and the checkpoint
/// policy (where checkpoints land does not change what is simulated).
/// `Debug` renderings are stable for the plain data these types hold.
pub(crate) fn config_fingerprint(config: &SimConfig, behavior: &WormBehavior) -> u64 {
    let repr = format!(
        "beta={:?} initial_infected={} horizon={} immunization={:?} quarantine={:?} \
         background={:?} log_scans={} plan={:?} faults={:?} behavior={:?}",
        config.beta(),
        config.initial_infected(),
        config.horizon(),
        config.immunization(),
        config.quarantine(),
        config.background(),
        config.log_scans(),
        config.plan(),
        config.faults(),
        behavior,
    );
    fnv1a(repr.as_bytes())
}

/// A complete, decoded engine checkpoint.
///
/// Produced by `Simulator::snapshot`, consumed by `Simulator::resume`
/// (same config, validated) or `Simulator::resume_with` (fork-at-tick
/// with a modified defense plan). Serialize with
/// [`Snapshot::to_bytes`] / [`Snapshot::write_atomic`]; load with
/// [`Snapshot::from_bytes`] / [`Snapshot::read`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    pub(crate) seed: u64,
    pub(crate) tick: u64,
    pub(crate) horizon: u64,
    pub(crate) world_fingerprint: u64,
    pub(crate) config_fingerprint: u64,
    pub(crate) nodes: u64,
    pub(crate) edges: u64,
    pub(crate) hosts: u64,
    pub(crate) rng_state: [u64; 4],
    pub(crate) fault_rng_state: [u64; 4],
    pub(crate) status_codes: Vec<u8>,
    pub(crate) infected_since: Vec<u64>,
    pub(crate) ever_infected: u64,
    /// `(host, selector cursor)` for every currently infected host.
    pub(crate) selectors: Vec<(u32, u64)>,
    /// `(host, xoshiro256++ state)` of every currently infected host's
    /// private scan stream, captured mid-stream.
    pub(crate) scan_rngs: Vec<(u32, [u64; 4])>,
    /// `(host, window entries)` for hosts with non-empty limiter state.
    pub(crate) limiters: Vec<(u32, Vec<(u64, u64)>)>,
    /// `(edge index, f64 bits)` over the capped-link index.
    pub(crate) link_tokens: Vec<(u32, u64)>,
    /// `(node index, f64 bits)` over the capped-node index.
    pub(crate) node_tokens: Vec<(u32, u64)>,
    pub(crate) packet_slots: Vec<Packet>,
    pub(crate) packet_free: Vec<u32>,
    pub(crate) packet_queue: Vec<u32>,
    /// `(host, [(release_tick, target)])` for non-empty throttle queues.
    pub(crate) delay_queues: Vec<(u32, Vec<(u64, u32)>)>,
    /// `(host, due_tick)` for scheduled jitter-delayed quarantines.
    pub(crate) pending_quarantine: Vec<(u32, u64)>,
    /// The self-patch timer wheel, verbatim.
    pub(crate) patch_due: Vec<(u64, u32)>,
    pub(crate) immunization_active: bool,
    pub(crate) background: BackgroundStats,
    pub(crate) background_credit: u64,
    pub(crate) quarantined: u64,
    pub(crate) false_quarantined: u64,
    pub(crate) accounting: PacketAccounting,
    /// Recorded series so far (infected, ever-infected, immunized,
    /// backlog) as `(t, value)` bit pairs.
    pub(crate) series: [Vec<(u64, u64)>; 4],
    pub(crate) scan_log: Vec<(u64, u32, u32)>,
}

impl Snapshot {
    /// The tick this snapshot was taken at (resume continues at
    /// `tick + 1`).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The seed of the run this snapshot belongs to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The horizon of the snapshotting run's config.
    pub fn horizon(&self) -> u64 {
        self.horizon
    }

    /// Serializes the snapshot into the versioned section format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());

        let mut sec = Vec::new();

        // Header.
        put_u64(&mut sec, self.seed);
        put_u64(&mut sec, self.tick);
        put_u64(&mut sec, self.horizon);
        put_u64(&mut sec, self.world_fingerprint);
        put_u64(&mut sec, self.config_fingerprint);
        put_u64(&mut sec, self.nodes);
        put_u64(&mut sec, self.edges);
        put_u64(&mut sec, self.hosts);
        put_section(&mut out, SEC_HEADER, &sec);

        // RNG streams.
        sec.clear();
        for w in self.rng_state.iter().chain(self.fault_rng_state.iter()) {
            put_u64(&mut sec, *w);
        }
        put_section(&mut out, SEC_RNG, &sec);

        // Host state.
        sec.clear();
        put_u64(&mut sec, self.status_codes.len() as u64);
        sec.extend_from_slice(&self.status_codes);
        for &t in &self.infected_since {
            put_u64(&mut sec, t);
        }
        put_u64(&mut sec, self.ever_infected);
        put_section(&mut out, SEC_HOSTS, &sec);

        // Selector cursors.
        sec.clear();
        put_u64(&mut sec, self.selectors.len() as u64);
        for &(h, c) in &self.selectors {
            put_u32(&mut sec, h);
            put_u64(&mut sec, c);
        }
        put_section(&mut out, SEC_SELECTORS, &sec);

        // Per-host scan streams.
        sec.clear();
        put_u64(&mut sec, self.scan_rngs.len() as u64);
        for &(h, state) in &self.scan_rngs {
            put_u32(&mut sec, h);
            for w in state {
                put_u64(&mut sec, w);
            }
        }
        put_section(&mut out, SEC_SCANRNG, &sec);

        // Limiter windows.
        sec.clear();
        put_u64(&mut sec, self.limiters.len() as u64);
        for (h, entries) in &self.limiters {
            put_u32(&mut sec, *h);
            put_u64(&mut sec, entries.len() as u64);
            for &(t, k) in entries {
                put_u64(&mut sec, t);
                put_u64(&mut sec, k);
            }
        }
        put_section(&mut out, SEC_LIMITERS, &sec);

        // Token accumulators.
        sec.clear();
        for tokens in [&self.link_tokens, &self.node_tokens] {
            put_u64(&mut sec, tokens.len() as u64);
            for &(i, bits) in tokens {
                put_u32(&mut sec, i);
                put_u64(&mut sec, bits);
            }
        }
        put_section(&mut out, SEC_TOKENS, &sec);

        // Packet slab, free-list, FIFO.
        sec.clear();
        put_u64(&mut sec, self.packet_slots.len() as u64);
        for p in &self.packet_slots {
            sec.push(kind_code(p.kind));
            put_u32(&mut sec, p.src.index() as u32);
            put_u32(&mut sec, p.current.index() as u32);
            put_u32(&mut sec, p.dst.index() as u32);
            put_u64(&mut sec, p.emitted);
        }
        for list in [&self.packet_free, &self.packet_queue] {
            put_u64(&mut sec, list.len() as u64);
            for &i in list.iter() {
                put_u32(&mut sec, i);
            }
        }
        put_section(&mut out, SEC_PACKETS, &sec);

        // Throttle queues, pending quarantines, self-patch timers.
        sec.clear();
        put_u64(&mut sec, self.delay_queues.len() as u64);
        for (h, q) in &self.delay_queues {
            put_u32(&mut sec, *h);
            put_u64(&mut sec, q.len() as u64);
            for &(release, dst) in q {
                put_u64(&mut sec, release);
                put_u32(&mut sec, dst);
            }
        }
        put_u64(&mut sec, self.pending_quarantine.len() as u64);
        for &(h, due) in &self.pending_quarantine {
            put_u32(&mut sec, h);
            put_u64(&mut sec, due);
        }
        put_u64(&mut sec, self.patch_due.len() as u64);
        for &(due, h) in &self.patch_due {
            put_u64(&mut sec, due);
            put_u32(&mut sec, h);
        }
        put_section(&mut out, SEC_QUEUES, &sec);

        // Census counters and ledgers.
        sec.clear();
        sec.push(u8::from(self.immunization_active));
        for v in [
            self.background.injected,
            self.background.delivered,
            self.background.total_delay_ticks,
            self.background.max_delay_ticks,
            self.background.total_hops,
            self.background_credit,
            self.quarantined,
            self.false_quarantined,
        ] {
            put_u64(&mut sec, v);
        }
        put_kind_counts(&mut sec, &self.accounting.worm);
        put_kind_counts(&mut sec, &self.accounting.background);
        put_section(&mut out, SEC_COUNTERS, &sec);

        // Recorded series.
        sec.clear();
        for series in &self.series {
            put_u64(&mut sec, series.len() as u64);
            for &(t, v) in series {
                put_u64(&mut sec, t);
                put_u64(&mut sec, v);
            }
        }
        put_section(&mut out, SEC_SERIES, &sec);

        // Scan log.
        sec.clear();
        put_u64(&mut sec, self.scan_log.len() as u64);
        for &(t, s, d) in &self.scan_log {
            put_u64(&mut sec, t);
            put_u32(&mut sec, s);
            put_u32(&mut sec, d);
        }
        put_section(&mut out, SEC_SCANLOG, &sec);

        out
    }

    /// Parses and validates a snapshot: magic, version, per-section
    /// checksums, required sections, and field-level sanity.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`] variant except `Io`/`WorldMismatch`/
    /// `ConfigMismatch`/`InvalidResume` (those belong to file access
    /// and resume validation).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() + 4 {
            if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
                return Err(SnapshotError::BadMagic {
                    found: bytes[..bytes.len().min(8)].to_vec(),
                });
            }
            return Err(SnapshotError::Truncated);
        }
        if bytes[..8] != MAGIC {
            return Err(SnapshotError::BadMagic {
                found: bytes[..8].to_vec(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if version != FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: version,
                supported: FORMAT_VERSION,
            });
        }

        // Split into checksum-verified sections.
        let mut sections: Vec<(u32, &[u8])> = Vec::new();
        let mut pos = 12usize;
        while pos < bytes.len() {
            if bytes.len() - pos < 12 {
                return Err(SnapshotError::Truncated);
            }
            let id = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte slice"));
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8-byte slice"))
                as usize;
            pos += 12;
            if bytes.len() - pos < len + 8 {
                return Err(SnapshotError::Truncated);
            }
            let payload = &bytes[pos..pos + len];
            pos += len;
            let checksum =
                u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8-byte slice"));
            pos += 8;
            if fnv1a(payload) != checksum {
                return Err(SnapshotError::ChecksumMismatch { section: id });
            }
            sections.push((id, payload));
        }
        let section = |id: u32| -> Result<&[u8], SnapshotError> {
            sections
                .iter()
                .find(|&&(sid, _)| sid == id)
                .map(|&(_, p)| p)
                .ok_or(SnapshotError::MissingSection { section: id })
        };

        // Header.
        let mut r = Reader::new(section(SEC_HEADER)?);
        let seed = r.u64()?;
        let tick = r.u64()?;
        let horizon = r.u64()?;
        let world_fingerprint = r.u64()?;
        let config_fingerprint = r.u64()?;
        let nodes = r.u64()?;
        let edges = r.u64()?;
        let hosts = r.u64()?;
        r.done()?;

        // RNG streams.
        let mut r = Reader::new(section(SEC_RNG)?);
        let mut rng_state = [0u64; 4];
        let mut fault_rng_state = [0u64; 4];
        for w in rng_state.iter_mut().chain(fault_rng_state.iter_mut()) {
            *w = r.u64()?;
        }
        r.done()?;

        // Host state.
        let mut r = Reader::new(section(SEC_HOSTS)?);
        let n = r.len_prefix()?;
        let status_codes = r.take(n)?.to_vec();
        let mut infected_since = Vec::with_capacity(n);
        for _ in 0..n {
            infected_since.push(r.u64()?);
        }
        let ever_infected = r.u64()?;
        r.done()?;

        // Selector cursors.
        let mut r = Reader::new(section(SEC_SELECTORS)?);
        let count = r.len_prefix()?;
        let mut selectors = Vec::with_capacity(count);
        for _ in 0..count {
            selectors.push((r.u32()?, r.u64()?));
        }
        r.done()?;

        // Per-host scan streams.
        let mut r = Reader::new(section(SEC_SCANRNG)?);
        let count = r.len_prefix()?;
        let mut scan_rngs = Vec::with_capacity(count);
        for _ in 0..count {
            let h = r.u32()?;
            let mut state = [0u64; 4];
            for w in state.iter_mut() {
                *w = r.u64()?;
            }
            scan_rngs.push((h, state));
        }
        r.done()?;

        // Limiter windows.
        let mut r = Reader::new(section(SEC_LIMITERS)?);
        let count = r.len_prefix()?;
        let mut limiters = Vec::with_capacity(count);
        for _ in 0..count {
            let h = r.u32()?;
            let len = r.len_prefix()?;
            let mut entries = Vec::with_capacity(len);
            for _ in 0..len {
                entries.push((r.u64()?, r.u64()?));
            }
            limiters.push((h, entries));
        }
        r.done()?;

        // Token accumulators.
        let mut r = Reader::new(section(SEC_TOKENS)?);
        let mut token_lists = Vec::with_capacity(2);
        for _ in 0..2 {
            let len = r.len_prefix()?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push((r.u32()?, r.u64()?));
            }
            token_lists.push(list);
        }
        let node_tokens = token_lists.pop().expect("two token lists read");
        let link_tokens = token_lists.pop().expect("two token lists read");
        r.done()?;

        // Packet slab.
        let mut r = Reader::new(section(SEC_PACKETS)?);
        let count = r.len_prefix()?;
        let mut packet_slots = Vec::with_capacity(count);
        for _ in 0..count {
            let kind = kind_from_code(r.u8()?)?;
            let src = NodeId::new(r.u32()?);
            let current = NodeId::new(r.u32()?);
            let dst = NodeId::new(r.u32()?);
            let emitted = r.u64()?;
            packet_slots.push(Packet {
                kind,
                src,
                current,
                dst,
                emitted,
            });
        }
        let mut index_lists = Vec::with_capacity(2);
        for _ in 0..2 {
            let len = r.len_prefix()?;
            let mut list = Vec::with_capacity(len);
            for _ in 0..len {
                list.push(r.u32()?);
            }
            index_lists.push(list);
        }
        let packet_queue = index_lists.pop().expect("two index lists read");
        let packet_free = index_lists.pop().expect("two index lists read");
        r.done()?;

        // Queues and timers.
        let mut r = Reader::new(section(SEC_QUEUES)?);
        let count = r.len_prefix()?;
        let mut delay_queues = Vec::with_capacity(count);
        for _ in 0..count {
            let h = r.u32()?;
            let len = r.len_prefix()?;
            let mut q = Vec::with_capacity(len);
            for _ in 0..len {
                q.push((r.u64()?, r.u32()?));
            }
            delay_queues.push((h, q));
        }
        let count = r.len_prefix()?;
        let mut pending_quarantine = Vec::with_capacity(count);
        for _ in 0..count {
            pending_quarantine.push((r.u32()?, r.u64()?));
        }
        let count = r.len_prefix()?;
        let mut patch_due = Vec::with_capacity(count);
        for _ in 0..count {
            patch_due.push((r.u64()?, r.u32()?));
        }
        r.done()?;

        // Counters and ledgers.
        let mut r = Reader::new(section(SEC_COUNTERS)?);
        let immunization_active = match r.u8()? {
            0 => false,
            1 => true,
            _ => {
                return Err(SnapshotError::Corrupt {
                    what: "immunization flag is not a boolean",
                })
            }
        };
        let background = BackgroundStats {
            injected: r.u64()?,
            delivered: r.u64()?,
            total_delay_ticks: r.u64()?,
            max_delay_ticks: r.u64()?,
            total_hops: r.u64()?,
        };
        let background_credit = r.u64()?;
        let quarantined = r.u64()?;
        let false_quarantined = r.u64()?;
        let accounting = PacketAccounting {
            worm: read_kind_counts(&mut r)?,
            background: read_kind_counts(&mut r)?,
        };
        r.done()?;

        // Recorded series.
        let mut r = Reader::new(section(SEC_SERIES)?);
        let mut series: [Vec<(u64, u64)>; 4] = Default::default();
        for s in series.iter_mut() {
            let len = r.len_prefix()?;
            s.reserve(len);
            for _ in 0..len {
                s.push((r.u64()?, r.u64()?));
            }
        }
        r.done()?;

        // Scan log.
        let mut r = Reader::new(section(SEC_SCANLOG)?);
        let count = r.len_prefix()?;
        let mut scan_log = Vec::with_capacity(count);
        for _ in 0..count {
            scan_log.push((r.u64()?, r.u32()?, r.u32()?));
        }
        r.done()?;

        Ok(Snapshot {
            seed,
            tick,
            horizon,
            world_fingerprint,
            config_fingerprint,
            nodes,
            edges,
            hosts,
            rng_state,
            fault_rng_state,
            status_codes,
            infected_since,
            ever_infected,
            selectors,
            scan_rngs,
            limiters,
            link_tokens,
            node_tokens,
            packet_slots,
            packet_free,
            packet_queue,
            delay_queues,
            pending_quarantine,
            patch_due,
            immunization_active,
            background,
            background_credit,
            quarantined,
            false_quarantined,
            accounting,
            series,
            scan_log,
        })
    }

    /// Loads and validates a snapshot file.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read, plus
    /// everything [`Snapshot::from_bytes`] returns.
    pub fn read(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path)?;
        Snapshot::from_bytes(&bytes)
    }

    /// Writes the snapshot atomically: serialize, write to a temp file
    /// in the target directory, `sync_all`, then rename over `path` —
    /// a crash mid-write never damages an existing checkpoint. Parent
    /// directories are created as needed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn write_atomic(&self, path: &Path) -> Result<(), SnapshotError> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        let bytes = self.to_bytes();
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, path)?;
        Ok(())
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_section(out: &mut Vec<u8>, id: u32, payload: &[u8]) {
    put_u32(out, id);
    put_u64(out, payload.len() as u64);
    out.extend_from_slice(payload);
    put_u64(out, fnv1a(payload));
}

fn put_kind_counts(out: &mut Vec<u8>, k: &KindCounts) {
    for v in [
        k.emitted,
        k.filtered,
        k.delayed,
        k.released,
        k.cleared,
        k.forwarded,
        k.delivered,
        k.lost,
        k.unroutable,
        k.stalled_on_cap,
        k.stalled_on_outage,
        k.in_flight_at_end,
        k.queued_at_end,
    ] {
        put_u64(out, v);
    }
}

fn read_kind_counts(r: &mut Reader<'_>) -> Result<KindCounts, SnapshotError> {
    Ok(KindCounts {
        emitted: r.u64()?,
        filtered: r.u64()?,
        delayed: r.u64()?,
        released: r.u64()?,
        cleared: r.u64()?,
        forwarded: r.u64()?,
        delivered: r.u64()?,
        lost: r.u64()?,
        unroutable: r.u64()?,
        stalled_on_cap: r.u64()?,
        stalled_on_outage: r.u64()?,
        in_flight_at_end: r.u64()?,
        queued_at_end: r.u64()?,
    })
}

fn kind_code(k: PacketKind) -> u8 {
    match k {
        PacketKind::Worm => 0,
        PacketKind::Background => 1,
    }
}

fn kind_from_code(code: u8) -> Result<PacketKind, SnapshotError> {
    match code {
        0 => Ok(PacketKind::Worm),
        1 => Ok(PacketKind::Background),
        _ => Err(SnapshotError::Corrupt {
            what: "unknown packet kind code",
        }),
    }
}

/// Cursor over a checksum-verified section payload. Short reads inside
/// a valid-checksum section mean an encoder/decoder disagreement, which
/// surfaces as [`SnapshotError::Corrupt`] rather than a panic.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() - self.pos < n {
            return Err(SnapshotError::Corrupt {
                what: "section payload shorter than its contents claim",
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4-byte slice")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8-byte slice")))
    }

    /// A `u64` length prefix, sanity-bounded by the remaining payload so
    /// a corrupt length cannot trigger a huge allocation.
    fn len_prefix(&mut self) -> Result<usize, SnapshotError> {
        let len = self.u64()?;
        if len > (self.buf.len() - self.pos) as u64 {
            return Err(SnapshotError::Corrupt {
                what: "length prefix exceeds remaining section payload",
            });
        }
        Ok(len as usize)
    }

    fn done(&self) -> Result<(), SnapshotError> {
        if self.pos != self.buf.len() {
            return Err(SnapshotError::Corrupt {
                what: "trailing bytes after section contents",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot() -> Snapshot {
        Snapshot {
            seed: 7,
            tick: 12,
            horizon: 50,
            world_fingerprint: 0xABCD,
            config_fingerprint: 0x1234,
            nodes: 5,
            edges: 4,
            hosts: 4,
            rng_state: [1, 2, 3, 4],
            fault_rng_state: [5, 6, 7, 8],
            status_codes: vec![0, 1, 2, 0, 1],
            infected_since: vec![0, 3, 0, 0, 9],
            ever_infected: 3,
            selectors: vec![(1, u64::MAX), (4, 2)],
            scan_rngs: vec![(1, [9, 10, 11, 12]), (4, [13, 14, 15, 16])],
            limiters: vec![(1, vec![(3.0f64.to_bits(), 17)])],
            link_tokens: vec![(0, 1.5f64.to_bits())],
            node_tokens: vec![],
            packet_slots: vec![Packet {
                kind: PacketKind::Worm,
                src: NodeId::new(1),
                current: NodeId::new(0),
                dst: NodeId::new(3),
                emitted: 11,
            }],
            packet_free: vec![],
            packet_queue: vec![0],
            delay_queues: vec![(1, vec![(14, 2)])],
            pending_quarantine: vec![(4, 15)],
            patch_due: vec![(20, 1)],
            immunization_active: true,
            background: BackgroundStats {
                injected: 9,
                delivered: 8,
                total_delay_ticks: 21,
                max_delay_ticks: 4,
                total_hops: 13,
            },
            background_credit: 0.25f64.to_bits(),
            quarantined: 2,
            false_quarantined: 1,
            accounting: PacketAccounting::default(),
            series: [
                vec![(0.0f64.to_bits(), 0.2f64.to_bits())],
                vec![(0.0f64.to_bits(), 0.2f64.to_bits())],
                vec![(0.0f64.to_bits(), 0.0f64.to_bits())],
                vec![(0.0f64.to_bits(), 0.0f64.to_bits())],
            ],
            scan_log: vec![(5, 1, 3)],
        }
    }

    fn assert_snapshot_eq(a: &Snapshot, b: &Snapshot) {
        // Byte-level round trip is the real assertion; spot-check the
        // interesting decoded fields too.
        assert_eq!(a.to_bytes(), b.to_bytes());
        assert_eq!(a.tick, b.tick);
        assert_eq!(a.rng_state, b.rng_state);
        assert_eq!(a.selectors, b.selectors);
        assert_eq!(a.packet_queue, b.packet_queue);
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let snap = tiny_snapshot();
        let bytes = snap.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).expect("round trip decodes");
        assert_snapshot_eq(&snap, &decoded);
    }

    #[test]
    fn truncation_is_typed_at_every_length() {
        let bytes = tiny_snapshot().to_bytes();
        for keep in 0..bytes.len() {
            let err = Snapshot::from_bytes(&bytes[..keep]).expect_err("truncated must fail");
            // A cut inside the header is BadMagic/Truncated; a cut
            // mid-section is Truncated; a cut exactly on a section
            // boundary is indistinguishable from a complete file that
            // never carried the later sections, so it surfaces as
            // MissingSection. All typed, none accepted.
            assert!(
                matches!(
                    err,
                    SnapshotError::Truncated
                        | SnapshotError::BadMagic { .. }
                        | SnapshotError::MissingSection { .. }
                ),
                "keep={keep}: unexpected error {err}"
            );
        }
    }

    #[test]
    fn every_flipped_bit_is_detected() {
        let bytes = tiny_snapshot().to_bytes();
        // Flip one bit per byte; every position must fail with a typed
        // error (magic, version, checksum, or a structural complaint —
        // flipping a section id or length can shift framing).
        for i in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[i] ^= 1;
            match Snapshot::from_bytes(&corrupted) {
                Err(_) => {}
                Ok(decoded) => {
                    // A flip that survives decoding must not silently
                    // change the payload (it can only be a flip inside
                    // an ignored region — there are none in v1).
                    panic!(
                        "bit flip at byte {i} decoded silently (tick {})",
                        decoded.tick
                    );
                }
            }
        }
    }

    #[test]
    fn version_bump_is_a_version_mismatch() {
        // A future version, and format v2 (whose header still carried
        // the stepping-strategy byte): both are refused by version
        // before any section is decoded, never misread.
        for version in [FORMAT_VERSION + 1, 2] {
            let mut bytes = tiny_snapshot().to_bytes();
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            match Snapshot::from_bytes(&bytes) {
                Err(SnapshotError::VersionMismatch { found, supported }) => {
                    assert_eq!(found, version);
                    assert_eq!(supported, FORMAT_VERSION);
                }
                other => panic!("expected VersionMismatch for v{version}, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_magic_is_bad_magic() {
        let mut bytes = tiny_snapshot().to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Snapshot::from_bytes(&bytes),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(b"short"),
            Err(SnapshotError::BadMagic { .. })
        ));
    }

    #[test]
    fn missing_section_is_typed() {
        // Rebuild the file without the scan-log section.
        let full = tiny_snapshot().to_bytes();
        let mut out = full[..12].to_vec();
        let mut pos = 12usize;
        while pos < full.len() {
            let id = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap());
            let len =
                u64::from_le_bytes(full[pos + 4..pos + 12].try_into().unwrap()) as usize;
            let end = pos + 12 + len + 8;
            if id != SEC_SCANLOG {
                out.extend_from_slice(&full[pos..end]);
            }
            pos = end;
        }
        assert!(matches!(
            Snapshot::from_bytes(&out),
            Err(SnapshotError::MissingSection {
                section: SEC_SCANLOG
            })
        ));
    }

    #[test]
    fn error_messages_are_actionable() {
        let e = SnapshotError::VersionMismatch {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::WorldMismatch.to_string().contains("world"));
        assert!(SnapshotError::ConfigMismatch
            .to_string()
            .contains("resume_with"));
    }

    #[test]
    fn fnv_vector() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
