//! Job state, the on-disk ledger, and the subscriber stream.
//!
//! One job = one seeded simulation run. Each job owns a directory under
//! the daemon's state dir:
//!
//! ```text
//! jobs/job-3/
//!   spec.json            canonical scenario spec (normalized JSON)
//!   meta.json            id, status, checkpoint cadence, fork lineage
//!   events.jsonl         the JSONL event feed written so far
//!   events.index         "tick offset" lines: stream length at each checkpoint
//!   ckpt-tick-40.dqsnap  engine snapshot taken after tick 40
//!   result.json          canonical result encoding, written at completion
//! ```
//!
//! Every file that must survive a crash is written atomically (tmp +
//! rename). The pair (checkpoint, index entry) is what makes resumed
//! event streams *byte-identical*: recovery truncates `events.jsonl` to
//! the stream length recorded for the resumed tick, and the
//! deterministic engine re-produces the identical suffix.
//!
//! Subscribers receive the stream as per-tick [`TickBlock`]s over a
//! bounded channel. The fan-out uses `try_send` — a slow subscriber's
//! blocks are dropped and counted, never queued unboundedly, and the
//! engine is never blocked. The consumer ([`pump_stream`]) detects the
//! tick gap and writes a `catchup` line carrying the next block's
//! census snapshot, so a lagging client keeps a consistent (if coarser)
//! view.

use crate::error::{io_err, ServeError};
use dynaquar_core::spec::{emit_json, parse_json, Value};
use dynaquar_core::Scenario;
use dynaquar_netsim::metrics::TickBlock;
use dynaquar_netsim::sim::SimResult;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Condvar, Mutex};

/// Lifecycle phase of a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted, not yet claimed by a worker.
    Queued,
    /// A worker is advancing the simulation.
    Running,
    /// Finished; `result.json` is on disk.
    Done,
    /// Failed with a recorded (typed, never panicking) error.
    Failed {
        /// The recorded failure.
        message: String,
    },
}

impl JobStatus {
    /// Stable label for `meta.json` and the wire protocol.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed { .. } => "failed",
        }
    }
}

/// What a subscriber receives.
#[derive(Debug)]
pub enum StreamMsg {
    /// Catch-up on registration: every stream byte produced so far and
    /// the first live tick the subscriber should expect next.
    History {
        /// The stream so far (possibly empty).
        bytes: Vec<u8>,
        /// Tick of the next live block.
        next_tick: u64,
    },
    /// One completed tick's stream bytes.
    Block(TickBlock),
}

pub(crate) struct Subscriber {
    tx: SyncSender<StreamMsg>,
    pub(crate) dropped: u64,
}

/// The stream side of a job: full history for late joiners, live
/// fan-out for attached subscribers.
pub(crate) struct StreamState {
    pub(crate) history: Vec<u8>,
    pub(crate) next_tick: u64,
    pub(crate) complete: bool,
    pub(crate) subscribers: Vec<Subscriber>,
}

impl Default for StreamState {
    fn default() -> Self {
        StreamState {
            history: Vec::new(),
            // The engine numbers ticks 1..=horizon, so a fresh job's
            // first block carries tick 1.
            next_tick: 1,
            complete: false,
            subscribers: Vec::new(),
        }
    }
}

/// State shared between the daemon front-end and the worker running
/// the job.
pub(crate) struct JobShared {
    pub(crate) status: Mutex<JobStatus>,
    pub(crate) done: Condvar,
    pub(crate) tick: AtomicU64,
    pub(crate) stream: Mutex<StreamState>,
    pub(crate) result: Mutex<Option<SimResult>>,
}

impl JobShared {
    pub(crate) fn new(status: JobStatus) -> Self {
        JobShared {
            status: Mutex::new(status),
            done: Condvar::new(),
            tick: AtomicU64::new(0),
            stream: Mutex::new(StreamState::default()),
            result: Mutex::new(None),
        }
    }

    pub(crate) fn set_status(&self, status: JobStatus) {
        *self.status.lock().unwrap() = status;
        self.done.notify_all();
    }

    /// Blocks until the job leaves the queued/running phases.
    pub(crate) fn wait_terminal(&self) -> JobStatus {
        let mut status = self.status.lock().unwrap();
        loop {
            match &*status {
                JobStatus::Done | JobStatus::Failed { .. } => return status.clone(),
                _ => status = self.done.wait(status).unwrap(),
            }
        }
    }

    /// Appends one tick block to the history and fans it out to every
    /// attached subscriber without ever blocking: a full queue means
    /// the block is dropped for that subscriber and counted.
    pub(crate) fn fan_out(&self, block: &TickBlock) {
        self.tick.store(block.tick, Ordering::Release);
        let mut st = self.stream.lock().unwrap();
        st.history.extend_from_slice(&block.lines);
        st.next_tick = block.tick + 1;
        st.subscribers
            .retain_mut(|sub| match sub.tx.try_send(StreamMsg::Block(block.clone())) {
                Ok(()) => true,
                Err(TrySendError::Full(_)) => {
                    sub.dropped += 1;
                    true
                }
                Err(TrySendError::Disconnected(_)) => false,
            });
    }

    /// Marks the stream finished and detaches every subscriber; their
    /// receivers drain any queued blocks and then disconnect.
    pub(crate) fn complete_stream(&self) {
        let mut st = self.stream.lock().unwrap();
        st.complete = true;
        st.subscribers.clear();
    }

    /// Registers a subscriber: it immediately receives the history so
    /// far, then live blocks until the job completes. `bound` is the
    /// live-block queue depth before blocks start being dropped.
    pub(crate) fn subscribe(&self, bound: usize) -> Receiver<StreamMsg> {
        let mut st = self.stream.lock().unwrap();
        // +1 reserves a slot for the registration History message, so
        // `bound` counts live blocks.
        let (tx, rx) = std::sync::mpsc::sync_channel(bound.max(1) + 1);
        // The queue is empty and holds at least two messages, so this
        // send cannot block while we hold the stream lock.
        let _ = tx.send(StreamMsg::History {
            bytes: st.history.clone(),
            next_tick: st.next_tick,
        });
        if !st.complete {
            st.subscribers.push(Subscriber { tx, dropped: 0 });
        }
        rx
    }
}

impl std::fmt::Debug for JobShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobShared")
            .field("tick", &self.tick.load(Ordering::Relaxed))
            .finish()
    }
}

/// Statistics from pumping one subscription to completion.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PumpStats {
    /// Live blocks written.
    pub blocks: u64,
    /// Catch-up lines written (one per detected gap).
    pub catchups: u64,
    /// Ticks skipped across all gaps.
    pub missed_ticks: u64,
}

/// Drains a subscription into `out`. A subscriber that keeps up
/// receives bytes identical to the contiguous [`dynaquar_netsim::JsonlEventWriter`]
/// stream; on a detected gap (dropped blocks) a single `catchup` JSON
/// line carrying the next block's census is interposed before the
/// stream continues.
pub fn pump_stream<W: Write>(rx: Receiver<StreamMsg>, out: &mut W) -> std::io::Result<PumpStats> {
    let mut stats = PumpStats::default();
    let mut expected: Option<u64> = None;
    while let Ok(msg) = rx.recv() {
        match msg {
            StreamMsg::History { bytes, next_tick } => {
                out.write_all(&bytes)?;
                expected = Some(next_tick);
            }
            StreamMsg::Block(block) => {
                if let Some(e) = expected {
                    if block.tick > e {
                        let s = block.snapshot;
                        writeln!(
                            out,
                            "{{\"event\":\"catchup\",\"resumed_tick\":{},\"missed_ticks\":{},\
                             \"infected\":{},\"ever_infected\":{},\"immunized\":{},\"in_flight\":{}}}",
                            block.tick,
                            block.tick - e,
                            s.infected,
                            s.ever_infected,
                            s.immunized,
                            s.in_flight
                        )?;
                        stats.catchups += 1;
                        stats.missed_ticks += block.tick - e;
                    }
                }
                out.write_all(&block.lines)?;
                expected = Some(block.tick + 1);
                stats.blocks += 1;
            }
        }
    }
    out.flush()?;
    Ok(stats)
}

// ---------------------------------------------------------------------------
// Ledger files
// ---------------------------------------------------------------------------

/// Fork lineage recorded in `meta.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForkOrigin {
    /// Job the fork branched from.
    pub from: String,
    /// Tick of the checkpoint the fork resumed at.
    pub at_tick: u64,
}

/// The persisted part of a job's identity — everything recovery needs
/// besides the spec itself.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMeta {
    /// Job id (`job-<n>`).
    pub id: String,
    /// Last persisted status.
    pub status: JobStatus,
    /// Checkpoint cadence in ticks, if checkpointing.
    pub checkpoint_every: Option<u64>,
    /// Fork lineage, if this job was forked.
    pub forked_from: Option<ForkOrigin>,
}

impl JobMeta {
    fn to_value(&self) -> Value {
        let mut entries = vec![
            ("id".into(), Value::Str(self.id.clone())),
            ("status".into(), Value::Str(self.status.label().into())),
        ];
        if let JobStatus::Failed { message } = &self.status {
            entries.push(("message".into(), Value::Str(message.clone())));
        }
        if let Some(every) = self.checkpoint_every {
            entries.push((
                "checkpoint_every".into(),
                Value::Int(i64::try_from(every).unwrap_or(i64::MAX)),
            ));
        }
        if let Some(fork) = &self.forked_from {
            entries.push(("forked_from".into(), Value::Str(fork.from.clone())));
            entries.push((
                "fork_tick".into(),
                Value::Int(i64::try_from(fork.at_tick).unwrap_or(i64::MAX)),
            ));
        }
        Value::Object(entries)
    }

    fn from_value(v: &Value) -> Result<Self, ServeError> {
        let bad = |what: &str| ServeError::Ledger { what: what.into() };
        let id = v
            .get("id")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("meta.json has no id"))?
            .to_string();
        let status = match v
            .get("status")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("meta.json has no status"))?
        {
            "queued" => JobStatus::Queued,
            "running" => JobStatus::Running,
            "done" => JobStatus::Done,
            "failed" => JobStatus::Failed {
                message: v
                    .get("message")
                    .and_then(Value::as_str)
                    .unwrap_or("unrecorded failure")
                    .to_string(),
            },
            _ => return Err(bad("meta.json has an unknown status")),
        };
        let uint_field = |key: &str| -> Result<Option<u64>, ServeError> {
            match v.get(key) {
                None => Ok(None),
                Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
                Some(_) => Err(ServeError::Ledger {
                    what: format!("meta.json field `{key}` is not a non-negative integer"),
                }),
            }
        };
        let checkpoint_every = uint_field("checkpoint_every")?;
        let forked_from = match (v.get("forked_from").and_then(Value::as_str), uint_field("fork_tick")?) {
            (Some(from), Some(at_tick)) => Some(ForkOrigin {
                from: from.to_string(),
                at_tick,
            }),
            (None, None) => None,
            _ => return Err(bad("meta.json fork lineage is half-recorded")),
        };
        Ok(JobMeta {
            id,
            status,
            checkpoint_every,
            forked_from,
        })
    }
}

/// Path helpers for one job's directory.
#[derive(Debug, Clone)]
pub struct JobDir {
    root: PathBuf,
}

impl JobDir {
    /// Wraps the job directory path (does not create it).
    pub fn new(root: PathBuf) -> Self {
        JobDir { root }
    }

    /// The directory itself.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// `spec.json`.
    pub fn spec_path(&self) -> PathBuf {
        self.root.join("spec.json")
    }

    /// `meta.json`.
    pub fn meta_path(&self) -> PathBuf {
        self.root.join("meta.json")
    }

    /// `events.jsonl`.
    pub fn events_path(&self) -> PathBuf {
        self.root.join("events.jsonl")
    }

    /// `events.index`.
    pub fn index_path(&self) -> PathBuf {
        self.root.join("events.index")
    }

    /// `result.json`.
    pub fn result_path(&self) -> PathBuf {
        self.root.join("result.json")
    }

    /// `ckpt-tick-<tick>.dqsnap`.
    pub fn checkpoint_path(&self, tick: u64) -> PathBuf {
        self.root.join(format!("ckpt-tick-{tick}.dqsnap"))
    }

    /// Every `(tick, path)` checkpoint present, descending by tick.
    /// Unparseable file names are ignored — they are not checkpoints.
    pub fn checkpoints_desc(&self) -> Vec<(u64, PathBuf)> {
        let mut out = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return out;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(tick) = name
                .strip_prefix("ckpt-tick-")
                .and_then(|rest| rest.strip_suffix(".dqsnap"))
                .and_then(|t| t.parse::<u64>().ok())
            {
                out.push((tick, entry.path()));
            }
        }
        out.sort_by_key(|(tick, _)| std::cmp::Reverse(*tick));
        out
    }

    /// Atomically persists `meta`.
    pub fn write_meta(&self, meta: &JobMeta) -> Result<(), ServeError> {
        write_atomic(&self.meta_path(), emit_json(&meta.to_value()).as_bytes())
    }

    /// Reads and validates `meta.json`. Corruption is a typed
    /// [`ServeError::Ledger`], never a panic.
    pub fn read_meta(&self) -> Result<JobMeta, ServeError> {
        let text = std::fs::read_to_string(self.meta_path())
            .map_err(io_err("reading meta.json"))?;
        let v = parse_json(&text).map_err(|e| ServeError::Ledger {
            what: format!("meta.json does not parse: {e}"),
        })?;
        JobMeta::from_value(&v)
    }

    /// Atomically persists the canonical spec.
    pub fn write_spec(&self, spec: &Value) -> Result<(), ServeError> {
        write_atomic(&self.spec_path(), emit_json(spec).as_bytes())
    }

    /// Reads and re-validates `spec.json` into a [`Scenario`]. Entries
    /// that ledgers from before the single-engine format hold are
    /// upgraded first (see `upgrade_ledger_spec`).
    pub fn read_spec(&self) -> Result<(Value, Scenario), ServeError> {
        let text = std::fs::read_to_string(self.spec_path())
            .map_err(io_err("reading spec.json"))?;
        let v = parse_json(&text).map_err(|e| ServeError::Ledger {
            what: format!("spec.json does not parse: {e}"),
        })?;
        let v = upgrade_ledger_spec(v);
        let scenario = dynaquar_core::spec::scenario_from_value(&v)?;
        Ok((v, scenario))
    }

    /// Appends one `tick offset` line to the stream index.
    pub fn append_index(&self, tick: u64, offset: u64) -> Result<(), ServeError> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.index_path())
            .map_err(io_err("opening events.index"))?;
        writeln!(f, "{tick} {offset}").map_err(io_err("appending to events.index"))?;
        f.sync_data().map_err(io_err("syncing events.index"))
    }

    /// Parses the stream index. Reading stops at the first malformed
    /// line — a torn append invalidates only the entries after it.
    pub fn read_index(&self) -> BTreeMap<u64, u64> {
        let mut map = BTreeMap::new();
        let Ok(text) = std::fs::read_to_string(self.index_path()) else {
            return map;
        };
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match (
                parts.next().and_then(|t| t.parse::<u64>().ok()),
                parts.next().and_then(|o| o.parse::<u64>().ok()),
                parts.next(),
            ) {
                (Some(tick), Some(offset), None) => {
                    map.insert(tick, offset);
                }
                _ => break,
            }
        }
        map
    }

    /// Rewrites the index to exactly `entries` (used when recovery
    /// discards checkpoints past the resume point).
    pub fn rewrite_index(&self, entries: &BTreeMap<u64, u64>) -> Result<(), ServeError> {
        let mut text = String::new();
        for (tick, offset) in entries {
            text.push_str(&format!("{tick} {offset}\n"));
        }
        write_atomic(&self.index_path(), text.as_bytes())
    }
}

/// Upgrades a `spec.json` written before the engine had one stepping
/// path and one table backend. Every canonical spec of that time
/// carried a `strategy` key, and some name `"routing": "dense"`; both
/// are typed errors for a submitted spec. Here the key is dropped (all
/// strategies ran the one event engine bit-identically) and `dense`
/// becomes `hier` (bit-identical tables), so a restart keeps the jobs
/// the ledger already holds.
fn upgrade_ledger_spec(spec: Value) -> Value {
    let Value::Object(entries) = spec else {
        return spec;
    };
    Value::Object(
        entries
            .into_iter()
            .filter(|(key, _)| key != "strategy")
            .map(|(key, value)| match value {
                Value::Str(s) if key == "routing" && s == "dense" => {
                    (key, Value::Str("hier".to_string()))
                }
                value => (key, value),
            })
            .collect(),
    )
}

/// Atomic tmp + rename write, the same discipline the engine's
/// snapshot writer uses: a crash leaves either the old file or the new
/// one, never a torn hybrid.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), ServeError> {
    let tmp = path.with_extension("tmp");
    let write = || -> std::io::Result<()> {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
        std::fs::rename(&tmp, path)
    };
    write().map_err(io_err(format!("writing {}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynaquar_netsim::observer::TickSnapshot;

    fn block(tick: u64, text: &str) -> TickBlock {
        TickBlock {
            tick,
            lines: text.as_bytes().to_vec(),
            snapshot: TickSnapshot {
                infected: 3,
                ever_infected: 5,
                immunized: 2,
                in_flight: 1,
            },
        }
    }

    #[test]
    fn meta_round_trips_through_its_json() {
        for meta in [
            JobMeta {
                id: "job-1".into(),
                status: JobStatus::Queued,
                checkpoint_every: None,
                forked_from: None,
            },
            JobMeta {
                id: "job-9".into(),
                status: JobStatus::Failed {
                    message: "engine error: boom".into(),
                },
                checkpoint_every: Some(25),
                forked_from: Some(ForkOrigin {
                    from: "job-2".into(),
                    at_tick: 50,
                }),
            },
        ] {
            let v = meta.to_value();
            let back = JobMeta::from_value(&v).unwrap();
            assert_eq!(meta, back);
            // And through actual bytes.
            let reparsed = parse_json(&emit_json(&v)).unwrap();
            assert_eq!(JobMeta::from_value(&reparsed).unwrap(), meta);
        }
    }

    #[test]
    fn corrupt_meta_is_a_typed_ledger_error() {
        let v = parse_json("{\"id\":\"job-1\",\"status\":\"levitating\"}").unwrap();
        match JobMeta::from_value(&v) {
            Err(ServeError::Ledger { .. }) => {}
            other => panic!("expected a ledger error, got {other:?}"),
        }
    }

    #[test]
    fn pump_without_gaps_is_byte_identical_and_gap_inserts_one_catchup_line() {
        // No gaps: history + contiguous blocks concatenate exactly.
        let shared = JobShared::new(JobStatus::Running);
        shared.fan_out(&block(0, "a0\n"));
        let rx = shared.subscribe(64);
        shared.fan_out(&block(1, "b1\n"));
        shared.complete_stream();
        let mut out = Vec::new();
        let stats = pump_stream(rx, &mut out).unwrap();
        assert_eq!(out, b"a0\nb1\n");
        assert_eq!(stats.blocks, 1);
        assert_eq!(stats.catchups, 0);

        // A tick gap yields exactly one catchup line with the census.
        let shared = JobShared::new(JobStatus::Running);
        let rx = shared.subscribe(64);
        shared.fan_out(&block(0, "a0\n"));
        shared.fan_out(&block(4, "e4\n"));
        shared.complete_stream();
        let mut out = Vec::new();
        let stats = pump_stream(rx, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(stats.catchups, 1);
        assert_eq!(stats.missed_ticks, 3);
        assert_eq!(
            text,
            "a0\n{\"event\":\"catchup\",\"resumed_tick\":4,\"missed_ticks\":3,\
             \"infected\":3,\"ever_infected\":5,\"immunized\":2,\"in_flight\":1}\ne4\n"
        );
    }

    #[test]
    fn slow_subscriber_drops_blocks_but_engine_side_never_blocks() {
        let shared = JobShared::new(JobStatus::Running);
        let rx = shared.subscribe(1);
        // The consumer never drains, so after the single live slot
        // fills, every further block is dropped — and, crucially,
        // fan_out returns instead of waiting for the consumer.
        for t in 0..5 {
            shared.fan_out(&block(t, &format!("t{t}\n")));
        }
        {
            let st = shared.stream.lock().unwrap();
            assert_eq!(st.subscribers[0].dropped, 4);
        }
        shared.complete_stream();
        let mut out = Vec::new();
        let stats = pump_stream(rx, &mut out).unwrap();
        assert_eq!(stats.blocks, 1, "the bounded queue held one live block");
        assert_eq!(stats.catchups, 0, "blocks after the drop never arrived");
        assert_eq!(out, b"t0\n");
    }

    #[test]
    fn late_subscriber_replays_full_history_of_a_complete_stream() {
        let shared = JobShared::new(JobStatus::Running);
        shared.fan_out(&block(0, "x\n"));
        shared.fan_out(&block(1, "y\n"));
        shared.complete_stream();
        let rx = shared.subscribe(8);
        let mut out = Vec::new();
        pump_stream(rx, &mut out).unwrap();
        assert_eq!(out, b"x\ny\n");
    }

    #[test]
    fn index_stops_at_a_torn_line_and_checkpoints_sort_descending() {
        let dir = std::env::temp_dir().join(format!("dq-serve-job-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let job = JobDir::new(dir.clone());
        job.append_index(10, 120).unwrap();
        job.append_index(20, 260).unwrap();
        std::fs::OpenOptions::new()
            .append(true)
            .open(job.index_path())
            .unwrap()
            .write_all(b"30 gar")
            .unwrap();
        let idx = job.read_index();
        assert_eq!(idx.get(&10), Some(&120));
        assert_eq!(idx.get(&20), Some(&260));
        assert_eq!(idx.len(), 2, "torn third line must be ignored");

        std::fs::write(job.checkpoint_path(10), b"x").unwrap();
        std::fs::write(job.checkpoint_path(40), b"x").unwrap();
        std::fs::write(dir.join("ckpt-tick-bogus.dqsnap"), b"x").unwrap();
        let ticks: Vec<u64> = job.checkpoints_desc().into_iter().map(|(t, _)| t).collect();
        assert_eq!(ticks, vec![40, 10]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
