//! The two workloads that go through the real `dynaquar-serve` binary
//! on a Unix socket, and the traced in-process replay of one job through
//! the public calls the daemon's job runner makes.

use crate::engine::{self, check_conserved, EngineTally, Probe};
use crate::layers;
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Layer, Tracer};
use crate::world::{build, BuildTimes, Built, Topo};
use crate::Ctx;
use dynaquar_core::spec::{emit_json, parse_json, scenario_from_value, Value};
use dynaquar_netsim::observer::NullObserver;
use dynaquar_netsim::{JsonlEventWriter, SimResult, Simulator, Snapshot, TickFeed};
use dynaquar_serve::job::write_atomic;
use dynaquar_serve::{deep_merge, result_to_json, Client, JobDir, JobMeta, JobStatus, ServerAddr};
use std::cell::RefCell;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon worker threads and client connections: the load stays within
/// two hardware threads.
const THREADS: usize = 2;

/// `serve-jobs`: small jobs, each paying every per-job cost of the
/// daemon: spec handling, a fresh world and dense routing table, a
/// checkpoint and six other ledger writes (seven fsyncs), and the protocol.
///
/// The job is sized so that CPU work, not the disk, sets the pace. The
/// latency of an fsync on a virtual disk swings between 0.1 and 0.9 ms
/// from one minute to the next. A star-99 job (about 3 ms of CPU) is
/// bound by its fsyncs: such jobs ran at 134 to 362 jobs/s within one
/// 20-second window of one daemon. A 1000-node job with a checkpoint
/// every 10 ticks (13 fsyncs, about 30 ms) read 29 ms in one set of
/// runs and 41 ms in the next. The 1500-node job spends about 60 ms on
/// CPU, most of it rebuilding the routing table, so its seven fsyncs
/// move it by a tenth at most; its low scan rate keeps the ledger near
/// 30 KB a job.
const JOB_WORLD: Topo = Topo::PowerLaw {
    nodes: 1500,
    m: 2,
    seed: 3,
};
const JOB_REST: &str = r#""beta": 0.05, "initial_infected": 1, "horizon": 50"#;
const JOB_EVERY: u64 = 25;
/// One job in this many per client is re-run directly and compared.
const SAMPLE_EVERY: u64 = 32;

/// `serve-whatif`: the power-law-1000 dynamic-quarantine world, forked
/// at three ticks with an earlier quarantine trigger.
const WHATIF_WORLD: Topo = Topo::PowerLaw {
    nodes: 1000,
    m: 2,
    seed: 3,
};
const WHATIF_REST: &str = r#""beta": 0.8, "initial_infected": 4, "horizon": 200,
    "deployment": {"hosts": 1.0},
    "params": {"host_window_ticks": 200, "host_max_new_targets": 2, "host_release_period_ticks": 12},
    "quarantine": {"queue_threshold": 10}"#;
const WHATIF_EVERY: u64 = 25;
const FORK_TICKS: [u64; 3] = [50, 100, 150];
const FORK_OVERRIDE: &str = r#"{"quarantine": {"queue_threshold": 3}}"#;

fn client_err(what: &str) -> impl FnOnce(dynaquar_serve::ClientError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// A daemon child process. Dropping it kills and reaps the process, so
/// no exit path leaves it running.
struct Daemon {
    child: Child,
    addr: ServerAddr,
    state: PathBuf,
}

impl Daemon {
    /// Spawns the daemon on a fresh state directory and returns it with
    /// a connection that has answered one `ping`, and the time that
    /// took.
    fn start(bin: &Path, dir: &Path, tag: usize) -> Result<(Daemon, Client, Duration), String> {
        let state = dir.join(format!("state-{tag}"));
        let sock = dir.join(format!("d{tag}.sock"));
        let t = Instant::now();
        let child = Command::new(bin)
            .arg("--state-dir")
            .arg(&state)
            .arg("--unix")
            .arg(&sock)
            .arg("--threads")
            .arg(THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: ServerAddr::Unix(sock),
            state,
        };
        let deadline = t + Duration::from_secs(30);
        let mut client = loop {
            match Client::connect(&daemon.addr) {
                Ok(c) => break c,
                Err(e) => {
                    if let Ok(Some(status)) = daemon.child.try_wait() {
                        return Err(format!("daemon exited during start-up: {status}"));
                    }
                    if Instant::now() > deadline {
                        return Err(format!("daemon did not come up: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        client.ping().map_err(client_err("first ping"))?;
        let took = t.elapsed();
        Ok((daemon, client, took))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        crate::sys::peak_rss_mb(&self.child.id().to_string())
    }

    /// Asks the daemon to drain and exit and waits for it.
    fn stop(mut self, mut client: Client) -> Result<(), String> {
        client.shutdown().map_err(client_err("shutdown"))?;
        drop(client);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
        Ok(())
    }

    /// Stops the daemon (a serve span) and deletes its ledger (the
    /// benchmark's own clean-up).
    fn stop_and_clean(self, client: Client, tr: &mut Tracer) -> Result<(), String> {
        let state = self.state.clone();
        tr.time(Layer::Serve, "daemon.stop", 0, || self.stop(client))
            .0?;
        tr.time(Layer::Bench, "cleanup", 0, || {
            std::fs::remove_dir_all(&state)
        })
        .0
        .map_err(|e| format!("cannot remove {}: {e}", state.display()))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Jobs (serve-jobs) or sessions (serve-whatif) after which the
/// daemon's peak resident set is read. The daemon keeps every job's
/// stream in memory, so its footprint grows with the jobs it has
/// served; reading it at a fixed amount of work keeps a faster daemon
/// from reading as a bigger one.
const RSS_AFTER_JOBS: u64 = 256;
const RSS_AFTER_SESSIONS: u64 = 8;

/// Reads the daemon's `VmHWM` when the `at`-th unit of work completes.
struct RssAt {
    pid: String,
    at: u64,
    done: std::sync::atomic::AtomicU64,
    mb: std::sync::OnceLock<Option<f64>>,
}

impl RssAt {
    fn new(daemon: &Daemon, at: u64) -> Self {
        RssAt {
            pid: daemon.child.id().to_string(),
            at,
            done: std::sync::atomic::AtomicU64::new(0),
            mb: std::sync::OnceLock::new(),
        }
    }

    /// Counts one completed unit of work.
    fn done_one(&self) {
        // Relaxed: a counter that publishes no other data.
        if self.done.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1 == self.at {
            let _ = self.mb.set(crate::sys::peak_rss_mb(&self.pid));
        }
    }

    /// The reading, or the daemon's current peak when fewer units of
    /// work completed.
    fn value(&self, daemon: &Daemon) -> Result<f64, String> {
        self.mb
            .get()
            .copied()
            .flatten()
            .or_else(|| daemon.peak_rss_mb())
            .ok_or_else(|| "cannot read the daemon's VmHWM".into())
    }
}

/// Starts the daemon `count` times (set-up is reported as a median) and
/// keeps the last one running. Also reports the cost of a `ping`.
fn start_repeated(
    ctx: &Ctx,
    tr: &mut Tracer,
    rep: &Report,
    count: usize,
) -> Result<(Daemon, Client, Vec<f64>), String> {
    let bin = ctx
        .serve_bin
        .as_deref()
        .ok_or("the serve workloads need --serve-bin PATH")?;
    let count = count.max(1);
    let mut setups = Vec::new();
    let mut pings = Vec::new();
    for tag in 0..count {
        let (started, _) = tr.time(Layer::Serve, "daemon.start", tag as u64, || {
            Daemon::start(bin, &ctx.work, tag)
        });
        let (daemon, mut client, took) = started?;
        setups.push(took.as_secs_f64());
        for _ in 0..10 {
            let (pong, t) = tr.time(Layer::Serve, "ping", tag as u64, || client.ping());
            pong.map_err(client_err("ping"))?;
            pings.push(t.as_secs_f64() * 1e6);
        }
        if tag + 1 == count {
            rep.info("serve.ping_us", stats::median(&pings), "us");
            return Ok((daemon, client, setups));
        }
        daemon.stop_and_clean(client, tr)?;
    }
    unreachable!("the loop returns on its last start")
}

/// Whether a served result's packet ledger conserves packets:
/// `emitted = delivered + drops + end-of-run backlog`, per kind.
fn served_conserved(result: &Value) -> bool {
    const ACCOUNTED: [&str; 7] = [
        "delivered",
        "filtered",
        "lost",
        "unroutable",
        "cleared",
        "in_flight_at_end",
        "queued_at_end",
    ];
    ["worm", "background"].iter().all(|kind| {
        let Some(k) = result.get("accounting").and_then(|a| a.get(kind)) else {
            return false;
        };
        let n = |f: &str| k.get(f).and_then(Value::as_int);
        let accounted: Option<i64> = ACCOUNTED.iter().map(|f| n(f)).sum();
        n("emitted").is_some() && n("emitted") == accounted
    })
}

fn direct_result(built: &Built, seed: u64) -> Result<SimResult, String> {
    Simulator::try_new(
        &built.world,
        &built.config,
        built.scenario.worm_behavior(),
        seed,
    )
    .map(Simulator::run)
    .map_err(|e| format!("engine refused seed {seed}: {e}"))
}

/// One served job's client-side timings.
struct JobSample {
    /// When the submit was sent and the result arrived, in seconds
    /// since the window started.
    span_s: (f64, f64),
    latency_ms: f64,
    submit_ms: f64,
    wait_ms: f64,
    result_ms: f64,
}

/// `serve-jobs`: two closed-loop clients, each repeating
/// submit → wait → result.
pub fn serve_jobs(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new(ctx.trace, ctx.origin);
    let root = tr.enter(Layer::Bench, ctx.workload, 0);
    let (daemon, client, setups) = start_repeated(ctx, &mut tr, rep, ctx.setup_repeats(3))?;
    let mut off = Tracer::new(false, ctx.origin);
    let reference = build(&mut off, &JOB_WORLD, &JOB_WORLD.spec(JOB_REST, 0), 0)?;
    crate::describe_run(ctx, rep, &reference)?;
    rep.info("serve.threads", THREADS, "count");
    let host_ticks =
        (reference.world.hosts().len() as u64 * reference.scenario.horizon_ticks()) as f64;

    let mut windows: Vec<Vec<JobSample>> = Vec::new();
    let mut sampled: Vec<(u64, Value)> = Vec::new();
    let rss = RssAt::new(&daemon, RSS_AFTER_JOBS);
    for (w, (traced, secs)) in ctx.windows().into_iter().enumerate() {
        let window = tr.enter(Layer::Bench, trace::window_name(traced), 0);
        let start = Instant::now();
        let outcomes = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS as u64)
                .map(|c| {
                    let addr = daemon.addr.clone();
                    let rss = &rss;
                    let stream = (w as u64) << 40 | c << 32;
                    s.spawn(move || job_client(ctx, &addr, rss, traced, (start, secs), stream))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_string()))
                .collect::<Vec<_>>()
        });
        let mut samples = Vec::new();
        for outcome in outcomes {
            let (client_samples, client_sampled, mismatches, attempted, client_tr) = outcome??;
            rep.attempted += attempted;
            for m in mismatches {
                rep.check(false, || m);
            }
            samples.extend(client_samples);
            sampled.extend(client_sampled);
            let parent = tr.current();
            tr.absorb(client_tr, parent);
        }
        tr.exit(window);
        windows.push(samples);
    }
    let peak = rss.value(&daemon)?;
    daemon.stop_and_clean(client, &mut tr)?;

    let (checked, _) = tr.time(Layer::Bench, "check", 0, || -> Result<(), String> {
        for (seed, served) in &sampled {
            let direct = direct_result(&reference, *seed)?;
            rep.check(emit_json(served) == result_to_json(&direct), || {
                format!("served job with seed {seed} differs from the direct run")
            });
        }
        Ok(())
    });
    checked?;
    rep.info("checked_against_direct", sampled.len(), "count");

    let all: Vec<&JobSample> = windows.iter().flatten().collect();
    let lat: Vec<f64> = all.iter().map(|s| s.latency_ms).collect();
    crate::report_latency(rep, "job_latency", &lat);
    let p50 =
        |f: fn(&JobSample) -> f64| stats::median(&all.iter().map(|s| f(s)).collect::<Vec<_>>());
    rep.info("serve.submit_ms", p50(|s| s.submit_ms), "ms");
    rep.info("serve.wait_ms", p50(|s| s.wait_ms), "ms");
    rep.info("serve.result_ms", p50(|s| s.result_ms), "ms");
    if !ctx.trace {
        let samples = &windows[0];
        let spans: Vec<(f64, f64)> = samples.iter().map(|s| s.span_s).collect();
        let jobs_per_s = stats::binned_rate_median(&spans, ctx.seconds, 1.0);
        rep.info("jobs_per_s", jobs_per_s, "1/s");
        let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
        rep.metric("setup_s", stats::median(&setups), "s");
        rep.metric("peak_rss_mb", peak, "MB");
        rep.metric("host_ticks_per_s", host_ticks * jobs_per_s, "1/s");
        rep.metric("latency_p50_ms", stats::median(&lat), "ms");
        return Ok(());
    }
    let latencies: Vec<Vec<f64>> = windows
        .iter()
        .map(|samples| samples.iter().map(|s| s.latency_ms).collect())
        .collect();
    let traced = ctx.windows().into_iter().map(|(traced, _)| traced);
    let overhead = layers::overhead_pct(traced.zip(latencies.iter().map(Vec::as_slice)));
    let served_p50 = stats::median(&lat);
    traced_replays(
        ctx, rep, tr, root, &JOB_WORLD, JOB_REST, JOB_EVERY, None, served_p50, overhead,
    )
}

type ClientOutcome = Result<(Vec<JobSample>, Vec<(u64, Value)>, Vec<String>, u64, Tracer), String>;

/// One closed-loop client of `serve-jobs`, submitting jobs until
/// `window` (its start and length in seconds) has passed.
fn job_client(
    ctx: &Ctx,
    addr: &ServerAddr,
    rss: &RssAt,
    traced: bool,
    (start, secs): (Instant, f64),
    stream: u64,
) -> ClientOutcome {
    let mut tr = Tracer::new(traced, ctx.origin);
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (mut samples, mut sampled, mut mismatches) = (Vec::new(), Vec::new(), Vec::new());
    let mut i = 0u64;
    while i == 0 || start.elapsed().as_secs_f64() < secs {
        let seed = ctx.seed_for(1 + stream, i);
        let spec =
            parse_json(&JOB_WORLD.spec(JOB_REST, seed)).map_err(|e| format!("job spec: {e}"))?;
        let began_s = start.elapsed().as_secs_f64();
        let (id, submit) = tr.time(Layer::Serve, "submit", seed, || {
            client.submit(&spec, Some(JOB_EVERY))
        });
        let id = id.map_err(client_err("submit"))?;
        let (done, wait) = tr.time(Layer::Serve, "wait", seed, || client.wait(&id));
        done.map_err(client_err("wait"))?;
        let (result, fetch) = tr.time(Layer::Serve, "result", seed, || client.result(&id));
        let result = result.map_err(client_err("result"))?;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        rss.done_one();
        samples.push(JobSample {
            span_s: (began_s, start.elapsed().as_secs_f64()),
            latency_ms: ms(submit + wait + fetch),
            submit_ms: ms(submit),
            wait_ms: ms(wait),
            result_ms: ms(fetch),
        });
        if !served_conserved(&result) {
            mismatches.push(format!(
                "served job {id} (seed {seed}) does not conserve packets"
            ));
        }
        if i.is_multiple_of(SAMPLE_EVERY) {
            sampled.push((seed, result));
        }
        i += 1;
    }
    Ok((samples, sampled, mismatches, i, tr))
}

/// Subscribes on a fresh connection and reads the stream to its end.
/// Returns the bytes and when the first of them arrived.
fn drain_stream(addr: &ServerAddr, job: &str) -> Result<(Vec<u8>, Option<Instant>), String> {
    let ServerAddr::Unix(path) = addr else {
        return Err("the benchmark serves over a Unix socket".into());
    };
    let io = |e: std::io::Error| format!("subscriber: {e}");
    let mut conn = UnixStream::connect(path).map_err(io)?;
    writeln!(conn, "{{\"cmd\":\"subscribe\",\"job\":\"{job}\"}}").map_err(io)?;
    let mut reader = BufReader::new(conn);
    let mut ack = String::new();
    reader.read_line(&mut ack).map_err(io)?;
    if !ack.contains("\"ok\":true") {
        return Err(format!("subscribe refused: {}", ack.trim_end()));
    }
    let mut bytes = Vec::new();
    let mut first = None;
    let mut buf = [0u8; 64 * 1024];
    loop {
        let n = reader.read(&mut buf).map_err(io)?;
        if n == 0 {
            break;
        }
        first.get_or_insert_with(Instant::now);
        bytes.extend_from_slice(&buf[..n]);
    }
    Ok((bytes, first))
}

/// What one what-if session produced.
struct Session {
    first_event_ms: f64,
    fork_ms: Vec<f64>,
    stream_bytes: usize,
    drain: Duration,
    base: (Vec<u8>, Value),
    forks: Vec<Value>,
}

/// One what-if session: submit, drain the stream, fork three times and
/// drain and fetch each fork.
fn session(
    op: &mut Client,
    addr: &ServerAddr,
    tr: &mut Tracer,
    seed: u64,
) -> Result<Session, String> {
    let spec =
        parse_json(&WHATIF_WORLD.spec(WHATIF_REST, seed)).map_err(|e| format!("spec: {e}"))?;
    let overrides = parse_json(FORK_OVERRIDE).map_err(|e| format!("override: {e}"))?;
    let t0 = Instant::now();
    let (job, _) = tr.time(Layer::Serve, "submit", seed, || {
        op.submit(&spec, Some(WHATIF_EVERY))
    });
    let job = job.map_err(client_err("submit"))?;
    let (drained, drain) = tr.time(Layer::Serve, "subscribe", seed, || drain_stream(addr, &job));
    let (stream, first) = drained?;
    let first_event_ms = first.map_or(0.0, |f| (f - t0).as_secs_f64() * 1e3);
    let (done, _) = tr.time(Layer::Serve, "wait", seed, || op.wait(&job));
    done.map_err(client_err("wait"))?;
    let (base, _) = tr.time(Layer::Serve, "result", seed, || op.result(&job));
    let base = base.map_err(client_err("result"))?;
    let mut out = Session {
        first_event_ms,
        fork_ms: Vec::new(),
        stream_bytes: stream.len(),
        drain,
        base: (stream, base),
        forks: Vec::new(),
    };
    for tick in FORK_TICKS {
        let t = Instant::now();
        let (reply, _) = tr.time(Layer::Serve, "fork", seed, || {
            op.fork(&job, Some(tick), &overrides)
        });
        let reply = reply.map_err(client_err("fork"))?;
        let fork = reply
            .get("job")
            .and_then(Value::as_str)
            .ok_or("fork reply has no job id")?
            .to_string();
        let (drained, drain) = tr.time(Layer::Serve, "subscribe", seed, || {
            drain_stream(addr, &fork)
        });
        out.stream_bytes += drained?.0.len();
        out.drain += drain;
        let (done, _) = tr.time(Layer::Serve, "wait", seed, || op.wait(&fork));
        done.map_err(client_err("fork wait"))?;
        let (result, _) = tr.time(Layer::Serve, "result", seed, || op.result(&fork));
        out.forks.push(result.map_err(client_err("fork result"))?);
        out.fork_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// Checks the first session against direct runs: the subscriber bytes
/// against a `JsonlEventWriter` stream, the base result against a
/// direct run, and every fork against `resume_with` from an in-memory
/// snapshot at the fork tick.
fn check_session(rep: &mut Report, seed: u64, s: &Session) -> Result<(), String> {
    let mut off = Tracer::new(false, Instant::now());
    let built = build(
        &mut off,
        &WHATIF_WORLD,
        &WHATIF_WORLD.spec(WHATIF_REST, seed),
        0,
    )?;
    let behavior = built.scenario.worm_behavior();
    let sim = Simulator::try_new(&built.world, &built.config, behavior, seed)
        .map_err(|e| format!("engine refused the session: {e}"))?;
    let mut writer = JsonlEventWriter::new(Vec::new());
    let direct = sim.run_observed(&mut writer);
    let stream = writer
        .finish()
        .map_err(|e| format!("reference stream: {e}"))?;
    rep.check(s.base.0 == stream, || {
        format!(
            "subscriber stream ({} bytes) differs from the direct stream ({} bytes)",
            s.base.0.len(),
            stream.len()
        )
    });
    rep.check(emit_json(&s.base.1) == result_to_json(&direct), || {
        "served what-if result differs from the direct run".into()
    });
    let overrides = parse_json(FORK_OVERRIDE).map_err(|e| format!("override: {e}"))?;
    let fork_spec = deep_merge(&built.canonical, &overrides);
    let fork_config = scenario_from_value(&fork_spec)
        .map_err(|e| format!("fork spec: {e}"))?
        .sim_config_for(&built.world);
    for (tick, served) in FORK_TICKS.iter().zip(&s.forks) {
        let mut sim = Simulator::try_new(&built.world, &built.config, behavior, seed)
            .map_err(|e| format!("engine refused the session: {e}"))?;
        sim.run_until(*tick, &mut NullObserver);
        let snap = sim.snapshot();
        let forked = Simulator::resume_with(&built.world, &fork_config, behavior, &snap)
            .map_err(|e| format!("direct fork refused: {e}"))?
            .run();
        rep.check(emit_json(served) == result_to_json(&forked), || {
            format!("fork at tick {tick} differs from a direct resume_with")
        });
    }
    Ok(())
}

/// `serve-whatif`: one operator and one subscriber connection run
/// what-if sessions back to back.
pub fn serve_whatif(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let mut tr = Tracer::new(ctx.trace, ctx.origin);
    let root = tr.enter(Layer::Bench, ctx.workload, 0);
    let (daemon, mut op, setups) = start_repeated(ctx, &mut tr, rep, ctx.setup_repeats(3))?;
    let mut off = Tracer::new(false, ctx.origin);
    let reference = build(
        &mut off,
        &WHATIF_WORLD,
        &WHATIF_WORLD.spec(WHATIF_REST, 0),
        0,
    )?;
    crate::describe_run(ctx, rep, &reference)?;
    rep.info("serve.threads", THREADS, "count");
    let hosts = reference.world.hosts().len() as f64;
    let horizon = reference.scenario.horizon_ticks();
    let ticks_per_session: u64 = horizon + FORK_TICKS.iter().map(|t| horizon - t).sum::<u64>();

    // Per window: fork latencies, and each session's host-ticks per
    // second.
    let mut windows: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    let (mut first_events, mut stream_bytes, mut drain) = (Vec::new(), 0usize, Duration::ZERO);
    let mut sessions = 0u64;
    let rss = RssAt::new(&daemon, RSS_AFTER_SESSIONS);
    for (traced, secs) in ctx.windows() {
        let window = tr.enter(Layer::Bench, trace::window_name(traced), 0);
        let mut off = Tracer::new(false, ctx.origin);
        let t = if traced { &mut tr } else { &mut off };
        let (mut forks, mut rates) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while rates.is_empty() || start.elapsed().as_secs_f64() < secs {
            let seed = ctx.seed_for(1, sessions);
            let began = Instant::now();
            let s = session(&mut op, &daemon.addr, t, seed)?;
            rates.push(hosts * ticks_per_session as f64 / began.elapsed().as_secs_f64());
            rep.attempted += 1 + FORK_TICKS.len() as u64;
            for (what, result) in
                std::iter::once(("base", &s.base.1)).chain(s.forks.iter().map(|f| ("fork", f)))
            {
                rep.check(served_conserved(result), || {
                    format!("{what} job of session seed {seed} does not conserve packets")
                });
            }
            if sessions == 0 {
                t.time(Layer::Bench, "check", seed, || check_session(rep, seed, &s))
                    .0?;
            }
            first_events.push(s.first_event_ms);
            stream_bytes += s.stream_bytes;
            drain += s.drain;
            forks.extend(s.fork_ms);
            sessions += 1;
            rss.done_one();
        }
        windows.push((forks, rates));
        tr.exit(window);
    }
    let peak = rss.value(&daemon)?;
    daemon.stop_and_clean(op, &mut tr)?;

    rep.info("sessions", sessions, "count");
    crate::report_latency(rep, "first_event", &first_events);
    rep.info(
        "stream_mb_per_s",
        stream_bytes as f64 / 1e6 / drain.as_secs_f64(),
        "MB/s",
    );
    let forks: Vec<f64> = windows
        .iter()
        .flat_map(|(f, _)| f.iter().copied())
        .collect();
    crate::report_latency(rep, "fork_latency", &forks);
    if !ctx.trace {
        let (forks, rates) = &windows[0];
        rep.metric("setup_s", stats::median(&setups), "s");
        rep.metric("peak_rss_mb", peak, "MB");
        rep.metric("host_ticks_per_s", stats::median(rates), "1/s");
        rep.metric("latency_p50_ms", stats::median(forks), "ms");
        return Ok(());
    }
    let traced = ctx.windows().into_iter().map(|(traced, _)| traced);
    let overhead = layers::overhead_pct(traced.zip(windows.iter().map(|(f, _)| &f[..])));
    let served_p50 = stats::median(&forks);
    traced_replays(
        ctx,
        rep,
        tr,
        root,
        &WHATIF_WORLD,
        WHATIF_REST,
        WHATIF_EVERY,
        Some(FORK_TICKS[1]),
        served_p50,
        overhead,
    )
}

/// Times of one in-process job replay.
#[derive(Default)]
struct JobProbe {
    wall: Duration,
    ledger: Duration,
    ledger_writes: u64,
    encode_result: Duration,
    stream_bytes: usize,
    first_block: Duration,
}

/// Replays a job in-process through the calls the daemon makes for it:
/// spec → world → config → ledger → `try_new` (or, for a fork, the
/// source stream prefix and checkpoint copied into the new job, then
/// `resume_with`) → `run_until` per checkpoint chunk with a `TickFeed`
/// writing the stream → checkpoint and index writes → `finish` →
/// `result_to_json` → ledger writes.
#[allow(clippy::too_many_arguments)]
fn replay_job(
    tr: &mut Tracer,
    spec: &str,
    topo: &Topo,
    every: u64,
    job: &JobDir,
    seed: u64,
    fork_from: Option<(&JobDir, u64)>,
    tally: &mut EngineTally,
    probe: &mut Probe,
) -> Result<(Built, SimResult, JobProbe, PathBuf), String> {
    let start = Instant::now();
    let mut jp = JobProbe::default();
    let built = build(tr, topo, spec, seed)?;
    std::fs::create_dir_all(job.root()).map_err(|e| format!("cannot create the job dir: {e}"))?;
    let meta = |status| JobMeta {
        id: "job-replay".into(),
        status,
        checkpoint_every: Some(every),
        forked_from: None,
    };
    type Write<'a> = &'a dyn Fn() -> Result<(), dynaquar_serve::ServeError>;
    let ledger = |tr: &mut Tracer, jp: &mut JobProbe, f: Write<'_>| {
        let (r, t) = tr.time(Layer::Serve, "ledger.write", seed, f);
        jp.ledger += t;
        jp.ledger_writes += 1;
        r.map_err(|e| format!("ledger write failed: {e}"))
    };
    ledger(tr, &mut jp, &|| job.write_spec(&built.canonical))?;
    let mut history = Vec::new();
    let fork = match fork_from {
        None => None,
        Some((source, tick)) => {
            let offset = *source
                .read_index()
                .get(&tick)
                .ok_or("the source job has no index entry at the fork tick")?;
            let events = std::fs::read(source.events_path())
                .map_err(|e| format!("cannot read the source stream: {e}"))?;
            history = events[..offset as usize].to_vec();
            ledger(tr, &mut jp, &|| write_atomic(&job.events_path(), &history))?;
            ledger(tr, &mut jp, &|| job.rewrite_index(&[(tick, offset)].into()))?;
            let (snap, read) = tr.time(Layer::Netsim, "snapshot.read", seed, || {
                Snapshot::read(&source.checkpoint_path(tick))
            });
            let snap = snap.map_err(|e| format!("checkpoint read failed: {e}"))?;
            probe.read = read;
            let (copied, _) = tr.time(Layer::Netsim, "snapshot.write_atomic", seed, || {
                snap.write_atomic(&job.checkpoint_path(tick))
            });
            copied.map_err(|e| format!("checkpoint copy failed: {e}"))?;
            Some(snap)
        }
    };
    ledger(tr, &mut jp, &|| job.write_meta(&meta(JobStatus::Queued)))?;
    ledger(tr, &mut jp, &|| job.write_meta(&meta(JobStatus::Running)))?;

    let behavior = built.scenario.worm_behavior();
    let (sim, took) = match &fork {
        None => tr.time(Layer::Netsim, "init", seed, || {
            Simulator::try_new(&built.world, &built.config, behavior, seed)
                .map_err(|e| e.to_string())
        }),
        Some(snap) => tr.time(Layer::Netsim, "resume_with", seed, || {
            Simulator::resume_with(&built.world, &built.config, behavior, snap)
                .map_err(|e| e.to_string())
        }),
    };
    let mut sim = sim.map_err(|e| format!("engine refused the job: {e}"))?;
    match fork {
        None => probe.init = took,
        Some(_) => probe.resume = took,
    }

    let mut events = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(job.events_path())
        .map_err(|e| format!("cannot open the event stream: {e}"))?;
    let history = RefCell::new(history);
    let calls = RefCell::new(Vec::new());
    let write_error = RefCell::new(None);
    let mut feed = TickFeed::new(|block| {
        let t = Instant::now();
        if let Err(e) = events.write_all(&block.lines) {
            write_error.borrow_mut().get_or_insert(e);
        }
        history.borrow_mut().extend_from_slice(&block.lines);
        calls.borrow_mut().push((t, Instant::now()));
    });
    let horizon = built.scenario.horizon_ticks();
    let mut tick = sim.current_tick();
    let mut run_wall = Duration::ZERO;
    let mut last_checkpoint = None;
    loop {
        let target = ((tick / every + 1) * every).min(horizon);
        let open = tr.enter(Layer::Netsim, "run_until", seed);
        sim.run_until(target, &mut feed);
        let blocks = calls.borrow_mut().split_off(0);
        tr.record(Layer::Serve, "stream.write", seed, &blocks);
        run_wall += tr.exit(open);
        if let (true, Some((first, _))) = (jp.first_block.is_zero(), blocks.first()) {
            jp.first_block = *first - start;
        }
        tick = target;
        if tick >= horizon {
            break;
        }
        if let Some(e) = write_error.borrow_mut().take() {
            return Err(format!("writing the event stream failed: {e}"));
        }
        let offset = history.borrow().len() as u64;
        let path = job.checkpoint_path(tick);
        let (written, t) = tr.time(Layer::Netsim, "snapshot.write_atomic", seed, || {
            sim.snapshot().write_atomic(&path)
        });
        written.map_err(|e| format!("checkpoint write failed: {e}"))?;
        probe.write = t;
        ledger(tr, &mut jp, &|| job.append_index(tick, offset))?;
        last_checkpoint = Some(path);
    }
    drop(feed);
    if let Some(e) = write_error.into_inner() {
        return Err(format!("writing the event stream failed: {e}"));
    }
    let (result, _) = tr.time(Layer::Netsim, "finish", seed, || sim.finish());
    let (json, encode) = tr.time(Layer::Serve, "result_to_json", seed, || {
        result_to_json(&result)
    });
    jp.encode_result = encode;
    ledger(tr, &mut jp, &|| {
        write_atomic(&job.result_path(), json.as_bytes())
    })?;
    ledger(tr, &mut jp, &|| job.write_meta(&meta(JobStatus::Done)))?;
    jp.wall = start.elapsed();
    jp.stream_bytes = history.into_inner().len();
    tally.add_run(&result, run_wall);
    let checkpoint = last_checkpoint.ok_or("the job wrote no checkpoint")?;
    Ok((built, result, jp, checkpoint))
}

/// The serve workloads' traced replays: three jobs through the job
/// runner's calls (medians reported), the last one's checkpoint
/// restored and its seed re-run at one and two shards, and for
/// `serve-whatif` one fork replayed from the checkpoint at `fork_at`.
#[allow(clippy::too_many_arguments)]
fn traced_replays(
    ctx: &Ctx,
    rep: &mut Report,
    mut tr: Tracer,
    root: crate::trace::Open,
    topo: &Topo,
    rest: &str,
    every: u64,
    fork_at: Option<u64>,
    served_p50_ms: f64,
    overhead_pct: f64,
) -> Result<(), String> {
    let mut tally = EngineTally::default();
    let mut probe = Probe::default();
    let mut builds: Vec<BuildTimes> = Vec::new();
    let mut jobs = Vec::new();
    let mut last = None;
    for k in 0..ctx.setup_repeats(3) as u64 {
        let seed = ctx.seed_for(2, k);
        let dir = JobDir::new(ctx.work.join(format!("replay-{k}")));
        let (built, result, jp, ckpt) = replay_job(
            &mut tr,
            &topo.spec(rest, seed),
            topo,
            every,
            &dir,
            seed,
            None,
            &mut tally,
            &mut probe,
        )?;
        check_conserved(rep, &result, || format!("replayed job seed {seed}"));
        builds.push(built.times);
        jobs.push(jp);
        last = Some((built, result, ckpt, seed, dir));
    }
    let (built, result, ckpt, seed, dir) = last.expect("at least one replay");
    let (encoded, encode) = tr.time(Layer::Netsim, "snapshot.encode", seed, || {
        Snapshot::read(&ckpt).map(|s| s.to_bytes().len())
    });
    probe.snapshot_bytes = encoded.map_err(|e| format!("checkpoint read failed: {e}"))?;
    probe.encode = encode;
    engine::restore_and_check(&mut tr, &built, &ckpt, &result, seed, &mut probe, rep)?;
    probe.shard_speedup = engine::shard_speedup(&mut tr, &built, seed, &result, seed, rep)?;

    let mut direct_ms: Vec<f64> = jobs.iter().map(|j| j.wall.as_secs_f64() * 1e3).collect();
    if let Some(tick) = fork_at {
        // The daemon forks from the source job's checkpoint at the fork
        // tick under the merged spec, into a fresh job directory.
        let overrides = parse_json(FORK_OVERRIDE).map_err(|e| format!("override: {e}"))?;
        let fork_spec = emit_json(&deep_merge(&built.canonical, &overrides));
        let mut fork_tally = EngineTally::default();
        let (_, forked, jp, _) = replay_job(
            &mut tr,
            &fork_spec,
            topo,
            every,
            &JobDir::new(ctx.work.join("replay-fork")),
            seed,
            Some((&dir, tick)),
            &mut fork_tally,
            &mut probe,
        )?;
        check_conserved(rep, &forked, || format!("replayed fork of seed {seed}"));
        direct_ms = vec![jp.wall.as_secs_f64() * 1e3];
    }
    let direct = stats::median(&direct_ms);
    let med = |f: fn(&JobProbe) -> f64| stats::median(&jobs.iter().map(f).collect::<Vec<_>>());
    rep.info("serve.direct_job_ms", direct, "ms");
    rep.info("serve.transport_queue_ms", served_p50_ms - direct, "ms");
    rep.info(
        "serve.overhead_ratio",
        served_p50_ms / direct - 1.0,
        "ratio",
    );
    rep.info(
        "serve.ledger_write_ms",
        med(|j| j.ledger.as_secs_f64() * 1e3),
        "ms",
    );
    rep.info(
        "serve.ledger_writes_per_job",
        med(|j| j.ledger_writes as f64),
        "count",
    );
    rep.info(
        "serve.result_encode_us",
        med(|j| j.encode_result.as_secs_f64() * 1e6),
        "us",
    );
    rep.info(
        "serve.stream_bytes_per_job",
        med(|j| j.stream_bytes as f64),
        "bytes",
    );
    rep.info(
        "serve.first_block_ms",
        med(|j| j.first_block.as_secs_f64() * 1e3),
        "ms",
    );
    tr.exit(root);
    layers::report(ctx, rep, &tr, &builds, &tally, &probe, overhead_pct)
}
