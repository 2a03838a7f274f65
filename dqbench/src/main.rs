//! `dqbench`: the end-to-end and per-layer benchmark of the paper's
//! worlds and the scenario-serving daemon.
//!
//! ```text
//! dqbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--serve-bin PATH]
//! dqbench compare BENCHMARK.json DIR_A DIR_B
//! ```
//!
//! One run measures one workload for `S` seconds and prints every
//! number as a `workload metric value unit` line, then, as its last
//! line, a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Untraced runs (`--trace 0`) report the end-to-end metrics
//! ([`E2E_METRICS`]); traced runs (`--trace 1`) split the time into a
//! traced and an untraced half, replay one run through the engine's
//! checkpoint and shard paths, and report the per-layer metrics
//! ([`LAYER_METRICS`]). `--quick` scales every workload to about a
//! second with every output check on. `compare` applies the bounds of
//! `BENCHMARK.json` to two directories of recorded runs (see the
//! README next to this package).
//!
//! Every input derives from `--seed`; every operation's output is
//! checked outside the timed calls, and a mismatch counts as a failed
//! operation and makes the exit code non-zero.

mod compare;
mod direct;
mod engine;
mod layers;
mod report;
mod serve;
mod stats;
mod sys;
mod trace;
mod world;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, reported by every untraced run in this order.
pub const E2E_METRICS: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("host_ticks_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every traced run in this order.
pub const LAYER_METRICS: [(&str, &str); 25] = [
    ("core.spec_parse_us", "us"),
    ("core.spec_validate_us", "us"),
    ("core.spec_canonical_us", "us"),
    ("topology.generate_ms", "ms"),
    ("topology.routing_build_ms", "ms"),
    ("netsim.config_ms", "ms"),
    ("netsim.init_ms", "ms"),
    ("netsim.phase.apply_faults_ms", "ms"),
    ("netsim.phase.generate_scans_ms", "ms"),
    ("netsim.phase.release_delayed_scans_ms", "ms"),
    ("netsim.phase.generate_background_ms", "ms"),
    ("netsim.phase.forward_packets_ms", "ms"),
    ("netsim.phase.untimed_ms", "ms"),
    ("netsim.packets_emitted", "count"),
    ("netsim.packets_forwarded", "count"),
    ("netsim.delivered_ratio", "ratio"),
    ("netsim.forward_ns_per_hop", "ns"),
    ("netsim.snapshot_bytes", "bytes"),
    ("netsim.snapshot_encode_ms", "ms"),
    ("netsim.snapshot_write_ms", "ms"),
    ("netsim.snapshot_read_ms", "ms"),
    ("netsim.resume_ms", "ms"),
    ("parallel.shard_speedup", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

type Workload = fn(&Ctx, &mut Report) -> Result<(), String>;

/// The workloads, by name.
const WORKLOADS: [(&str, Workload); 5] = [
    ("star-ensemble", direct::star_ensemble),
    ("subnet-100k", direct::subnet_100k),
    ("powerlaw-10k", direct::powerlaw_10k),
    ("serve-jobs", serve::serve_jobs),
    ("serve-whatif", serve::serve_whatif),
];

/// Everything one run of one workload needs.
#[derive(Debug)]
pub struct Ctx {
    /// Workload name.
    pub workload: &'static str,
    /// `--seed`: every input derives from it.
    pub seed: u64,
    /// Seconds the measured loop runs.
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// This run's scratch directory (inside the checkout).
    pub work: PathBuf,
    /// The daemon binary, for the serve workloads.
    pub serve_bin: Option<PathBuf>,
    /// Zero of every span's clock.
    pub origin: Instant,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Ctx {
    /// The `i`-th seed of input stream `stream`, derived from `--seed`
    /// and the workload name (32 bits, so specs stay readable).
    pub fn seed_for(&self, stream: u64, i: u64) -> u64 {
        let name = self
            .workload
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        splitmix64(splitmix64(splitmix64(self.seed ^ name) ^ stream) ^ i) >> 32
    }

    /// How many times set-up runs (its median is `setup_s`).
    pub fn setup_repeats(&self, normal: usize) -> usize {
        if self.quick {
            1
        } else {
            normal
        }
    }

    /// The measured windows as `(traced, seconds)`: untraced runs have
    /// one; traced runs alternate two untraced and two traced quarters,
    /// whose difference is the tracing overhead.
    pub fn windows(&self) -> Vec<(bool, f64)> {
        if self.trace {
            [false, true, false, true]
                .map(|traced| (traced, self.seconds / 4.0))
                .to_vec()
        } else {
            vec![(false, self.seconds)]
        }
    }
}

/// Prints what actually ran: the machine, the commit, and what the
/// `Auto` rules resolved to for `built`.
pub fn describe_run(ctx: &Ctx, rep: &Report, built: &world::Built) -> Result<(), String> {
    let behavior = built.scenario.worm_behavior();
    let sim = dynaquar_netsim::Simulator::try_new(&built.world, &built.config, behavior, 0)
        .map_err(|e| format!("engine refused the world: {e}"))?;
    let world = &built.world;
    rep.info("hardware_threads", sys::hardware_threads(), "count");
    rep.info("commit", sys::commit(std::path::Path::new(".")), "label");
    rep.info("seed", ctx.seed, "label");
    rep.info("routing_backend", world.routing().backend_name(), "label");
    let strategy = format!("{:?}", sim.resolved_strategy()).to_lowercase();
    rep.info("strategy", strategy, "label");
    rep.info("shards", built.config.shards().resolve(), "count");
    rep.info("nodes", world.graph().node_count(), "count");
    rep.info("hosts", world.hosts().len(), "count");
    Ok(())
}

/// Prints a latency distribution: median, the highest percentile with
/// ten samples beyond it, and the sample count.
pub fn report_latency(rep: &Report, name: &str, samples_ms: &[f64]) {
    rep.info(&format!("{name}_n"), samples_ms.len(), "count");
    if let Some(s) = stats::Summary::of(samples_ms) {
        rep.info(&format!("{name}_p50_ms"), s.p50, "ms");
        if let Some((pm, v)) = s.tail.filter(|&(pm, _)| pm > 500) {
            rep.info(
                &format!("{name}_{}_ms", stats::percentile_label(pm)),
                v,
                "ms",
            );
        }
    }
}

const USAGE: &str = "usage:\n  dqbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] \
                     [--serve-bin PATH]\n  dqbench compare BENCHMARK.json DIR_A DIR_B\n\
                     workloads: star-ensemble subnet-100k powerlaw-10k serve-jobs serve-whatif";

struct Args {
    workload: &'static str,
    run: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    serve_bin: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut quick = false;
    let mut serve_bin = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(n, _)| n == name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|_| "--seed needs an integer")?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--quick" => quick = true,
            "--serve-bin" => serve_bin = Some(PathBuf::from(value("--serve-bin")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let &(workload, run) = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        run,
        seed: seed.ok_or("--seed is required")?,
        seconds: if quick { 1.0 } else { seconds.unwrap_or(10.0) },
        trace: trace.unwrap_or(false),
        quick,
        serve_bin,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match compare::run(&argv[1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("dqbench compare: {e}\n{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let overrides = sys::env_overrides();
    if !overrides.is_empty() {
        eprintln!(
            "dqbench: refusing to run with {} set: an override re-routes the workloads",
            overrides.join(", ")
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dqbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".dqbench-work").join(args.workload);
    if let Err(e) = std::fs::remove_dir_all(&work)
        .or_else(|e| match e.kind() {
            std::io::ErrorKind::NotFound => Ok(()),
            _ => Err(e),
        })
        .and_then(|()| std::fs::create_dir_all(&work))
    {
        eprintln!("dqbench: cannot prepare {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        quick: args.quick,
        work,
        serve_bin: args.serve_bin,
        origin: Instant::now(),
    };
    let mut rep = Report::new(ctx.workload);
    if let Err(e) = (args.run)(&ctx, &mut rep) {
        eprintln!("dqbench: {}: {e}", ctx.workload);
        return ExitCode::FAILURE;
    }
    let expected: &[(&str, &str)] = if ctx.trace {
        &LAYER_METRICS
    } else {
        &E2E_METRICS
    };
    if rep.finish(expected) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
