//! Scaling benchmark for the routing backends on large power-law
//! worlds.
//!
//! ```text
//! scale_bench [--sizes N,N,..] [--horizon T] [--seed S] [--initial I]
//!             [--dense-limit N] [--full]
//!             [--cache N] [--out FILE] [--check FILE] [--tolerance PCT]
//!             [--smoke N --max-rss-mb MB]
//! scale_bench --routing-bench FILE [--horizon T] [--seed S] ...
//! scale_bench --check-routing FILE [--tolerance PCT]
//! scale_bench --single HOSTS BACKEND [--subnet B,S,H] [--horizon T] ...
//! ```
//!
//! For each `hosts × backend` case the orchestrator re-executes itself
//! (`--single`) so every configuration gets its own process — peak RSS
//! is read from `/proc/self/status` `VmHWM`, which is monotone within a
//! process and would otherwise smear the hier table's high-water mark
//! over the lazy cases. Each child builds a Barabási–Albert world under
//! the requested [`RoutingKind`], runs one seeded simulation, and
//! prints a single JSON row; the parent collects the rows into
//! `results/BENCH_scale.json` together with an in-process
//! hier-vs-lazy bit-identity verdict at n = 1000.
//!
//! Flat power-law graphs (minimum degree 2) do not peel, so the hier
//! backend's core table is the whole all-pairs table there: the default
//! grid runs hier only up to `--dense-limit` (10k: the 8·n² table is
//! 0.8 GB there and 80 GB at 100k); skipped cases are listed, not
//! silent. `--full` forces the complete cross product for machines with
//! the memory to take it.
//!
//! `--check FILE` is the CI guard: re-measures the hier n = 1000 case
//! and fails if its host-ticks/s regressed more than `--tolerance`
//! percent (default 30) against the recorded row, or if the two
//! backends stopped being bit-identical.
//!
//! `--smoke N --max-rss-mb MB` is the large-world CI smoke: builds an
//! n = N world under the lazy backend, runs the configured horizon, and
//! fails if peak RSS exceeded the ceiling.
//!
//! `--routing-bench FILE` runs the routing-backend axis on the
//! *hierarchical* subnet worlds where the two-level backend earns its
//! keep (flat power-law graphs don't peel, so the main grid tells that
//! story): lazy and hier children per world, the per-world
//! hier-over-lazy speedup, and an in-process bit-identity verdict,
//! written to FILE (`results/BENCH_routing.json` in CI).
//!
//! `--check-routing FILE` is the matching CI guard: re-measures the
//! hier case on the n ≈ 10k subnet world against the recorded row
//! under `--tolerance`, and fails if lazy and hier stopped being
//! bit-identical on a subnet world.
//!
//! `--shard-bench FILE` runs the intra-world sharding axis: the busy
//! n ≈ 100k subnet world is simulated by one child per shard count
//! (1, 2, 4 — `DYNAQUAR_SHARDS` is what the children exercise, passed
//! explicitly as `--shards`), the wall-clock speedup over the serial
//! child is recorded together with the machine's honest hardware
//! thread count, and an in-process serial-vs-4-shard bit-identity
//! verdict rounds out the report (`results/BENCH_shard.json` in CI).
//! A smaller n ≈ 10k check world is measured alongside so the CI guard
//! has a cheap reference row.
//!
//! `--check-shard FILE` is the matching CI guard: the bit-identity
//! clause runs unconditionally (sharding must be invisible on any
//! machine); the speedup clause re-measures the n ≈ 10k check world at
//! 1 and 4 shards against the recorded row under `--tolerance`, and
//! only when the machine actually has ≥ 4 hardware threads — on
//! smaller machines it is reported as skipped, never silently passed.

use dynaquar_netsim::config::{SimConfig, WormBehavior};
use dynaquar_netsim::sim::Simulator;
use dynaquar_netsim::{ShardSpec, World};
use dynaquar_topology::generators;
use dynaquar_topology::lazy::RoutingKind;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const GRAPH_SEED: u64 = 42;
const EDGES_PER_NODE: usize = 2;

#[derive(Clone)]
struct Args {
    sizes: Vec<usize>,
    horizon: u64,
    seed: u64,
    initial: usize,
    beta: f64,
    dense_limit: usize,
    full: bool,
    cache: Option<usize>,
    out: PathBuf,
    check: Option<PathBuf>,
    tolerance_pct: f64,
    smoke: Option<usize>,
    max_rss_mb: Option<f64>,
    single: Option<(usize, String)>,
    routing_bench: Option<PathBuf>,
    check_routing: Option<PathBuf>,
    /// `--subnet B,S,H`: build a hierarchical subnet world instead of
    /// the Barabási–Albert graph (child mode for the routing bench).
    subnet: Option<(usize, usize, usize)>,
    /// `--shards N`: pin the intra-world shard count (child mode for
    /// the shard bench; also keeps the immunization sweep live so the
    /// sharded hash path is on the clock).
    shards: Option<u32>,
    shard_bench: Option<PathBuf>,
    check_shard: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sizes: vec![1_000, 10_000, 50_000, 100_000],
        horizon: 40,
        seed: 7,
        initial: 10,
        beta: 0.2,
        dense_limit: 10_000,
        full: false,
        cache: None,
        out: PathBuf::from("results/BENCH_scale.json"),
        check: None,
        tolerance_pct: 30.0,
        smoke: None,
        max_rss_mb: None,
        single: None,
        routing_bench: None,
        check_routing: None,
        subnet: None,
        shards: None,
        shard_bench: None,
        check_shard: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut value = |name: &str| {
            argv.next()
                .ok_or_else(|| format!("{name} requires an argument"))
        };
        match arg.as_str() {
            "--sizes" => {
                args.sizes = value("--sizes")?
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?
            }
            "--horizon" => args.horizon = value("--horizon")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => args.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--initial" => args.initial = value("--initial")?.parse().map_err(|e| format!("{e}"))?,
            "--beta" => args.beta = value("--beta")?.parse().map_err(|e| format!("{e}"))?,
            "--dense-limit" => {
                args.dense_limit = value("--dense-limit")?.parse().map_err(|e| format!("{e}"))?
            }
            "--full" => args.full = true,
            "--cache" => args.cache = Some(value("--cache")?.parse().map_err(|e| format!("{e}"))?),
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--check" => args.check = Some(PathBuf::from(value("--check")?)),
            "--tolerance" => {
                args.tolerance_pct = value("--tolerance")?.parse().map_err(|e| format!("{e}"))?
            }
            "--smoke" => args.smoke = Some(value("--smoke")?.parse().map_err(|e| format!("{e}"))?),
            "--max-rss-mb" => {
                args.max_rss_mb = Some(value("--max-rss-mb")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--single" => {
                let hosts = value("--single")?.parse().map_err(|e| format!("{e}"))?;
                let backend = value("--single")?;
                args.single = Some((hosts, backend));
            }
            "--routing-bench" => {
                args.routing_bench = Some(PathBuf::from(value("--routing-bench")?))
            }
            "--check-routing" => {
                args.check_routing = Some(PathBuf::from(value("--check-routing")?))
            }
            "--shards" => args.shards = Some(value("--shards")?.parse().map_err(|e| format!("{e}"))?),
            "--shard-bench" => args.shard_bench = Some(PathBuf::from(value("--shard-bench")?)),
            "--check-shard" => args.check_shard = Some(PathBuf::from(value("--check-shard")?)),
            "--subnet" => {
                let spec = value("--subnet")?;
                let parts: Vec<usize> = spec
                    .split(',')
                    .map(|s| s.trim().parse().map_err(|e| format!("{e}")))
                    .collect::<Result<_, _>>()?;
                let [b, s, h] = parts[..] else {
                    return Err("--subnet wants B,S,H".to_string());
                };
                args.subnet = Some((b, s, h));
            }
            "--help" | "-h" => {
                return Err("usage: scale_bench [--sizes N,N,..] [--horizon T] [--seed S] \
                     [--initial I] [--beta B] [--dense-limit N] [--full] \
                     [--cache N] [--out FILE] [--check FILE] [--tolerance PCT] \
                     [--smoke N --max-rss-mb MB] \
                     [--routing-bench FILE] [--check-routing FILE] [--subnet B,S,H] \
                     [--shard-bench FILE] [--check-shard FILE] [--shards N]"
                    .to_string())
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.sizes.is_empty() {
        return Err("--sizes needs at least one entry".to_string());
    }
    Ok(args)
}

/// Peak resident set of this process in MB, from `/proc/self/status`
/// `VmHWM` (0.0 when unavailable, e.g. off Linux).
fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The [`RoutingKind`] for a named backend; the lazy cache defaults to
/// the same memory-budgeted capacity `Auto` would pick for `hosts`.
fn routing_kind(backend: &str, hosts: usize, cache: Option<usize>) -> Result<RoutingKind, String> {
    match backend {
        "lazy" => Ok(RoutingKind::Lazy {
            max_cached_destinations: cache
                .unwrap_or_else(|| dynaquar_topology::lazy::default_cache_capacity(hosts)),
        }),
        "hier" => Ok(RoutingKind::Hier),
        other => Err(format!("unknown backend {other} (want lazy|hier)")),
    }
}

struct CaseResult {
    hosts: usize,
    backend: String,
    shards: Option<u32>,
    build_secs: f64,
    run_secs: f64,
    host_ticks_per_sec: f64,
    peak_rss_mb: f64,
    ever_infected_hosts: u64,
    delivered_packets: u64,
}

impl CaseResult {
    fn to_json_row(&self) -> String {
        let shards = self
            .shards
            .map(|k| format!("\"shards\": {k}, "))
            .unwrap_or_default();
        format!(
            "{{\"hosts\": {}, \"backend\": \"{}\", {}\
             \"build_secs\": {:.4}, \
             \"run_secs\": {:.4}, \"host_ticks_per_sec\": {:.1}, \"peak_rss_mb\": {:.1}, \
             \"ever_infected_hosts\": {}, \"delivered_packets\": {}}}",
            self.hosts,
            self.backend,
            shards,
            self.build_secs,
            self.run_secs,
            self.host_ticks_per_sec,
            self.peak_rss_mb,
            self.ever_infected_hosts,
            self.delivered_packets
        )
    }
}

/// Builds the world and runs one seeded simulation — the body of every
/// child process and of the in-process differential check. Returns the
/// build and run wall-clock times, the infectable host count, and the
/// run result.
fn run_case(
    nodes: usize,
    kind: RoutingKind,
    args: &Args,
) -> (f64, f64, usize, dynaquar_netsim::sim::SimResult) {
    let t0 = Instant::now();
    let world = match args.subnet {
        Some((b, s, h)) => {
            let topo = generators::SubnetTopologyBuilder::new()
                .backbone_routers(b)
                .subnets(s)
                .hosts_per_subnet(h)
                .build()
                .expect("valid subnet parameters");
            assert_eq!(
                topo.graph.node_count(),
                nodes,
                "--subnet {b},{s},{h} does not match the declared node count"
            );
            World::from_subnets_with(topo, kind)
        }
        None => World::from_power_law_with(
            generators::barabasi_albert(nodes, EDGES_PER_NODE, GRAPH_SEED)
                .expect("valid power-law parameters"),
            0.05,
            0.10,
            kind,
        ),
    };
    let build_secs = t0.elapsed().as_secs_f64();
    let host_count = world.hosts().len();
    let mut builder = SimConfig::builder();
    builder
        .beta(args.beta)
        .horizon(args.horizon)
        .initial_infected(args.initial);
    if let Some(shards) = args.shards {
        // Shard-bench cases keep the delayed-immunization sweep live so
        // the sharded per-(tick, host) hash path is on the clock, not
        // just the scan sweep.
        builder.shards(ShardSpec::Fixed(shards)).immunization(
            dynaquar_netsim::config::ImmunizationConfig {
                trigger: dynaquar_netsim::config::ImmunizationTrigger::AtTick(10),
                mu: 0.02,
            },
        );
    }
    let config = builder.build().expect("valid config");
    let t1 = Instant::now();
    let result = Simulator::new(&world, &config, WormBehavior::random(), args.seed).run();
    (build_secs, t1.elapsed().as_secs_f64(), host_count, result)
}

/// Child-process mode: run one case, print one JSON row on stdout.
fn run_single(hosts: usize, backend: &str, args: &Args) -> Result<(), String> {
    let kind = routing_kind(backend, hosts, args.cache)?;
    let (build_secs, run_secs, host_count, result) = run_case(hosts, kind, args);
    let row = CaseResult {
        hosts,
        backend: backend.to_string(),
        shards: args.shards,
        build_secs,
        run_secs,
        host_ticks_per_sec: hosts as f64 * args.horizon as f64 / run_secs.max(1e-9),
        peak_rss_mb: peak_rss_mb(),
        ever_infected_hosts: (result.ever_infected_fraction.final_value() * host_count as f64)
            .round() as u64,
        delivered_packets: result.delivered_packets,
    };
    println!("{}", row.to_json_row());
    Ok(())
}

/// Spawns `--single hosts backend` as a child process and parses its row.
fn spawn_case(hosts: usize, backend: &str, args: &Args) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--single")
        .arg(hosts.to_string())
        .arg(backend)
        .arg("--horizon")
        .arg(args.horizon.to_string())
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--initial")
        .arg(args.initial.to_string())
        .arg("--beta")
        .arg(args.beta.to_string());
    if let Some(cache) = args.cache {
        cmd.arg("--cache").arg(cache.to_string());
    }
    if let Some((b, s, h)) = args.subnet {
        cmd.arg("--subnet").arg(format!("{b},{s},{h}"));
    }
    if let Some(shards) = args.shards {
        cmd.arg("--shards").arg(shards.to_string());
    }
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    std::io::Write::write_all(&mut std::io::stderr(), &out.stderr).ok();
    if !out.status.success() {
        return Err(format!("case {hosts}/{backend} failed: {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let row = text
        .lines()
        .find(|l| l.trim_start().starts_with('{'))
        .ok_or_else(|| format!("case {hosts}/{backend}: no JSON row in output"))?;
    Ok(row.trim().to_string())
}

/// Pulls the first number following `"key":` out of a JSON text (same
/// helper as the other bench bins; avoids a JSON dependency).
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let at = text.find(&needle)?;
    let rest = text[at + needle.len()..].trim_start().strip_prefix(':')?;
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The recorded row for `hosts`+`backend` inside a BENCH_scale report.
fn find_row<'t>(text: &'t str, hosts: usize, backend: &str) -> Option<&'t str> {
    let needle = format!("\"hosts\": {hosts}, \"backend\": \"{backend}\"");
    let at = text.find(&needle)?;
    let end = text[at..].find('}').map(|e| at + e)?;
    Some(&text[at..end])
}

/// The CI throughput clause: re-measures `hosts`/`backend` in a child
/// and compares its host-ticks/s with the row recorded in
/// `baseline_path`. False, after saying why, when the row is missing or
/// the case slowed by more than `--tolerance` percent.
fn throughput_holds(
    baseline_path: &std::path::Path,
    hosts: usize,
    backend: &str,
    args: &Args,
) -> bool {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", baseline_path.display());
            return false;
        }
    };
    let Some(recorded) =
        find_row(&text, hosts, backend).and_then(|row| json_f64(row, "host_ticks_per_sec"))
    else {
        eprintln!(
            "no {backend} n={hosts} row in {} — regenerate the baseline",
            baseline_path.display()
        );
        return false;
    };
    let row = match spawn_case(hosts, backend, args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return false;
        }
    };
    let measured = json_f64(&row, "host_ticks_per_sec").unwrap_or(0.0);
    let pct = if recorded > 0.0 {
        (1.0 - measured / recorded) * 100.0
    } else {
        0.0
    };
    println!(
        "{backend} n={hosts}: {measured:.0} host-ticks/s vs recorded {recorded:.0} \
         (slowdown {pct:+.1}%, tolerance {:.1}%)",
        args.tolerance_pct
    );
    if pct > args.tolerance_pct {
        eprintln!(
            "REGRESSION: {backend} n={hosts} slowed {pct:.1}% > {:.1}% tolerance",
            args.tolerance_pct
        );
        return false;
    }
    true
}

/// In-process differential: lazy and hier must produce `==` SimResults
/// on the same world-seed-config triple (`args` picks the world).
fn backends_bit_identical(nodes: usize, args: &Args) -> bool {
    let lazy = RoutingKind::Lazy {
        max_cached_destinations: 64,
    };
    let (_, _, _, hier) = run_case(nodes, RoutingKind::Hier, args);
    let (_, _, _, lazy) = run_case(nodes, lazy, args);
    hier == lazy
}

/// The differential on the hier backend's home turf: a subnet world
/// (n = 491, backbone ring core).
fn subnet_backends_bit_identical(args: &Args) -> bool {
    let mut sub = args.clone();
    sub.subnet = Some((3, 8, 60));
    backends_bit_identical(3 + 8 * 61, &sub)
}

/// Writes a finished report to `out`, creating its directory; the exit
/// code fails when the report's bit-identity verdict did.
fn write_report(out: &std::path::Path, json: String, identical: bool) -> ExitCode {
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Err(e) = std::fs::write(out, json) {
        eprintln!("cannot write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", out.display());
    if identical {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The hierarchical worlds the routing bench sweeps: the paper-shaped
/// subnet topology at n ≈ 10k, 100k, and 1M (`n = B + S·(H+1)`). All
/// peel to their backbone ring, so the hier backend routes them off a
/// tiny core table while lazy re-runs whole-graph BFS on every cache
/// miss — the gap this bench exists to record.
const ROUTING_WORLDS: [(usize, usize, usize); 3] =
    [(8, 40, 250), (32, 400, 250), (64, 4000, 250)];

/// The `--routing-bench` mode: lazy and hier children on hierarchical
/// subnet worlds, per-world hier-over-lazy speedup, plus an in-process
/// bit-identity verdict on a small subnet world.
fn run_routing_bench(out: &std::path::Path, args: &Args) -> ExitCode {
    println!(
        "routing benchmark: subnet worlds {ROUTING_WORLDS:?}, horizon {}, seed {}, \
         {} initial infections, beta {}",
        args.horizon, args.seed, args.initial, args.beta
    );
    let mut rows: Vec<String> = Vec::new();
    let mut speedups: Vec<(usize, f64)> = Vec::new();
    for (b, s, h) in ROUTING_WORLDS {
        let n = b + s * (h + 1);
        let mut sub = args.clone();
        sub.subnet = Some((b, s, h));
        let mut tps = [0.0f64; 2]; // lazy, hier
        for (k, backend) in ["lazy", "hier"].into_iter().enumerate() {
            match spawn_case(n, backend, &sub) {
                Ok(row) => {
                    println!("  {row}");
                    tps[k] = json_f64(&row, "host_ticks_per_sec").unwrap_or(0.0);
                    rows.push(row);
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let speedup = if tps[0] > 0.0 { tps[1] / tps[0] } else { 0.0 };
        println!("  n={n}: hier-over-lazy speedup {speedup:.1}x");
        speedups.push((n, speedup));
    }

    let identical = subnet_backends_bit_identical(args);
    println!(
        "lazy vs hier on the n=491 subnet world: {}",
        if identical { "bit-identical" } else { "DIVERGED" }
    );

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"hierarchical_routing_scaling\",\n");
    json.push_str("  \"topology\": \"subnet(backbone, subnets, hosts_per_subnet)\",\n");
    json.push_str("  \"worlds\": [");
    json.push_str(
        &ROUTING_WORLDS
            .iter()
            .map(|(b, s, h)| format!("[{b}, {s}, {h}]"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n");
    json.push_str(&format!("  \"horizon\": {},\n", args.horizon));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"initial_infected\": {},\n", args.initial));
    json.push_str(&format!("  \"beta\": {},\n", args.beta));
    json.push_str(&format!(
        "  \"backends_bit_identical_on_subnet_world\": {identical},\n"
    ));
    json.push_str("  \"hier_over_lazy\": [");
    json.push_str(
        &speedups
            .iter()
            .map(|(n, x)| format!("{{\"hosts\": {n}, \"speedup\": {x:.2}}}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n");
    json.push_str("  \"cases\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {row}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_report(out, json, identical)
}

/// The shard bench's main world: the busy n ≈ 100k hierarchical subnet
/// topology (100,000 hosts behind 400 subnet routers), big enough that
/// every sharded sweep is far above its engagement threshold.
const SHARD_WORLD: (usize, usize, usize) = (32, 400, 250);

/// The cheap n ≈ 10k reference world measured alongside, so the CI
/// guard can re-measure shard speedup without paying for 100k hosts.
const SHARD_CHECK_WORLD: (usize, usize, usize) = (8, 40, 250);

/// Shard counts the bench sweeps; children run `--shards k` explicitly
/// (the same knob `DYNAQUAR_SHARDS` sets for everything else).
const SHARD_COUNTS: [u32; 3] = [1, 2, 4];

/// Busier-than-default epidemic for the shard cases: enough initial
/// infections that the scan sweep crosses its 256-scanner sharding
/// threshold within a few ticks.
fn shard_case_args(args: &Args, world: (usize, usize, usize)) -> Args {
    let mut sub = args.clone();
    sub.subnet = Some(world);
    sub.beta = 0.5;
    sub.initial = 400;
    sub
}

/// The machine's honest hardware thread count — recorded verbatim in
/// `BENCH_shard.json` so a flat speedup column on a small machine reads
/// as a hardware ceiling, not an engine regression.
fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// In-process differential: a serial and a 4-shard run of the same
/// n = 4044 subnet world must produce `==` SimResults. The world is
/// small enough to be quick but crosses the 256-scanner threshold, so
/// the sharded stage-A sweep genuinely runs.
fn shards_bit_identical(args: &Args) -> bool {
    let mut sub = args.clone();
    sub.subnet = Some((4, 40, 100));
    sub.beta = 0.8;
    sub.initial = 50;
    let n = 4 + 40 * 101;
    let mut serial = sub.clone();
    serial.shards = Some(1);
    let mut sharded = sub;
    sharded.shards = Some(4);
    let (_, _, _, a) = run_case(n, RoutingKind::Hier, &serial);
    let (_, _, _, b) = run_case(n, RoutingKind::Hier, &sharded);
    a == b
}

/// Spawns the shard-count sweep for one subnet world and returns the
/// rows plus per-count speedups over the serial child. `rows_identical`
/// reports whether every child's result projections matched the serial
/// ones — a cross-process identity check on top of the in-process one.
#[allow(clippy::type_complexity)]
fn spawn_shard_sweep(
    world: (usize, usize, usize),
    args: &Args,
) -> Result<(Vec<String>, Vec<(u32, f64)>, bool), String> {
    let (b, s, h) = world;
    let n = b + s * (h + 1);
    let sub = shard_case_args(args, world);
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut serial_secs = f64::NAN;
    let mut serial_projection = (f64::NAN, f64::NAN);
    let mut rows_identical = true;
    for k in SHARD_COUNTS {
        let mut child = sub.clone();
        child.shards = Some(k);
        let row = spawn_case(n, "hier", &child)?;
        println!("  {row}");
        let run_secs = json_f64(&row, "run_secs").unwrap_or(f64::NAN);
        let ever = json_f64(&row, "ever_infected_hosts").unwrap_or(f64::NAN);
        let delivered = json_f64(&row, "delivered_packets").unwrap_or(f64::NAN);
        if k == 1 {
            serial_secs = run_secs;
            serial_projection = (ever, delivered);
        } else {
            rows_identical &= serial_projection == (ever, delivered);
        }
        let speedup = serial_secs / run_secs.max(1e-9);
        if k > 1 {
            println!("  n={n} shards={k}: speedup {speedup:.2}x over the serial child");
        }
        speedups.push((k, speedup));
        rows.push(row);
    }
    Ok((rows, speedups, rows_identical))
}

/// The `--shard-bench` mode: the intra-world sharding axis on the busy
/// n ≈ 100k subnet world plus the n ≈ 10k reference, an in-process
/// bit-identity verdict, and the honest hardware thread count.
fn run_shard_bench(out: &std::path::Path, args: &Args) -> ExitCode {
    let hw = hardware_threads();
    println!(
        "shard benchmark: subnet worlds {SHARD_WORLD:?} and {SHARD_CHECK_WORLD:?}, \
         shard counts {SHARD_COUNTS:?}, horizon {}, seed {}, {} hardware thread(s)",
        args.horizon, args.seed, hw
    );
    if hw < *SHARD_COUNTS.last().unwrap() as usize {
        println!(
            "note: fewer hardware threads than shards — speedups below record the \
             hardware ceiling, not the engine's scaling"
        );
    }
    let (mut rows, speedups, main_identical) = match spawn_shard_sweep(SHARD_WORLD, args) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let (check_rows, check_speedups, check_identical) =
        match spawn_shard_sweep(SHARD_CHECK_WORLD, args) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
    rows.extend(check_rows);
    let check_speedup_at_4 = check_speedups
        .iter()
        .find(|(k, _)| *k == 4)
        .map_or(f64::NAN, |(_, x)| *x);

    let identical = main_identical && check_identical && shards_bit_identical(args);
    println!(
        "serial vs 4-shard sweeps: {}",
        if identical { "bit-identical" } else { "DIVERGED" }
    );

    let (b, s, h) = SHARD_WORLD;
    let (cb, cs, ch) = SHARD_CHECK_WORLD;
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"intra_world_sharding\",\n");
    json.push_str("  \"topology\": \"subnet(backbone, subnets, hosts_per_subnet)\",\n");
    json.push_str(&format!("  \"world\": [{b}, {s}, {h}],\n"));
    json.push_str(&format!("  \"check_world\": [{cb}, {cs}, {ch}],\n"));
    json.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    json.push_str(&format!("  \"horizon\": {},\n", args.horizon));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str("  \"beta\": 0.5,\n  \"initial_infected\": 400,\n");
    json.push_str(&format!("  \"shards_bit_identical\": {identical},\n"));
    json.push_str("  \"speedups\": [");
    json.push_str(
        &speedups
            .iter()
            .map(|(k, x)| format!("{{\"shards\": {k}, \"speedup\": {x:.2}}}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n");
    json.push_str(&format!(
        "  \"check_speedup_at_4\": {check_speedup_at_4:.2},\n"
    ));
    json.push_str("  \"cases\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {row}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_report(out, json, identical)
}

/// The `--check-shard` CI guard: bit-identity unconditionally, shard
/// speedup on the reference world only where the hardware can show it.
fn run_check_shard(baseline_path: &std::path::Path, args: &Args) -> ExitCode {
    if !shards_bit_identical(args) {
        eprintln!("REGRESSION: serial and 4-shard sweeps diverged on the n=4044 subnet world");
        return ExitCode::FAILURE;
    }
    println!("serial and 4-shard sweeps bit-identical on the n=4044 subnet world");

    let hw = hardware_threads();
    if hw < 4 {
        println!("speedup clause skipped: 4 shards need 4 hardware threads, machine has {hw}");
        return ExitCode::SUCCESS;
    }
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {}: {e}", baseline_path.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(recorded) = json_f64(&text, "check_speedup_at_4") else {
        eprintln!(
            "no check_speedup_at_4 in {} — regenerate with --shard-bench",
            baseline_path.display()
        );
        return ExitCode::FAILURE;
    };
    let sub = shard_case_args(args, SHARD_CHECK_WORLD);
    let (b, s, h) = SHARD_CHECK_WORLD;
    let n = b + s * (h + 1);
    let mut secs = [f64::NAN; 2];
    for (i, k) in [1u32, 4].into_iter().enumerate() {
        let mut child = sub.clone();
        child.shards = Some(k);
        match spawn_case(n, "hier", &child) {
            Ok(row) => secs[i] = json_f64(&row, "run_secs").unwrap_or(f64::NAN),
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    let measured = secs[0] / secs[1].max(1e-9);
    let pct = if recorded > 0.0 {
        (1.0 - measured / recorded) * 100.0
    } else {
        0.0
    };
    println!(
        "4-shard n={n}: speedup {measured:.2}x vs recorded {recorded:.2}x \
         (slowdown {pct:+.1}%, tolerance {:.1}%)",
        args.tolerance_pct
    );
    if pct > args.tolerance_pct {
        eprintln!(
            "REGRESSION: 4-shard speedup fell {pct:.1}% > {:.1}% tolerance",
            args.tolerance_pct
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    // Child mode.
    if let Some((hosts, backend)) = args.single.clone() {
        return match run_single(hosts, &backend, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }

    // CI smoke: one lazy large-world case under a memory ceiling.
    if let Some(n) = args.smoke {
        let Some(ceiling) = args.max_rss_mb else {
            eprintln!("--smoke requires --max-rss-mb");
            return ExitCode::FAILURE;
        };
        let row = match spawn_case(n, "lazy", &args) {
            Ok(r) => r,
            Err(msg) => {
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        };
        let rss = json_f64(&row, "peak_rss_mb").unwrap_or(f64::INFINITY);
        println!("{row}");
        println!("smoke n={n}: peak RSS {rss:.1} MB (ceiling {ceiling:.1} MB)");
        if rss > ceiling {
            eprintln!("REGRESSION: lazy-backend smoke exceeded the memory ceiling");
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // Routing-backend benchmark on hierarchical subnet worlds.
    if let Some(out) = args.routing_bench.clone() {
        return run_routing_bench(&out, &args);
    }

    // Intra-world sharding benchmark on the busy subnet world.
    if let Some(out) = args.shard_bench.clone() {
        return run_shard_bench(&out, &args);
    }

    // CI guard for the shard bench: bit-identity always, speedup where
    // the hardware allows.
    if let Some(baseline_path) = args.check_shard.clone() {
        return run_check_shard(&baseline_path, &args);
    }

    // CI guard for the routing bench: hier n≈10k perf + bit-identity
    // on a subnet world.
    if let Some(baseline_path) = &args.check_routing {
        let (b, s, h) = ROUTING_WORLDS[0];
        let mut sub = args.clone();
        sub.subnet = Some((b, s, h));
        if !throughput_holds(baseline_path, b + s * (h + 1), "hier", &sub) {
            return ExitCode::FAILURE;
        }
        if !subnet_backends_bit_identical(&args) {
            eprintln!("REGRESSION: lazy and hier diverged on the subnet world");
            return ExitCode::FAILURE;
        }
        println!("lazy and hier backends bit-identical on the subnet world");
        return ExitCode::SUCCESS;
    }

    // CI guard: hier n=1000 perf + bit-identity.
    if let Some(baseline_path) = &args.check {
        if !throughput_holds(baseline_path, 1_000, "hier", &args) {
            return ExitCode::FAILURE;
        }
        if !backends_bit_identical(1_000, &args) {
            eprintln!("REGRESSION: routing backends diverged at n=1000");
            return ExitCode::FAILURE;
        }
        println!("lazy and hier backends bit-identical at n=1000");
        return ExitCode::SUCCESS;
    }

    // Full benchmark grid.
    println!(
        "scale benchmark: sizes {:?}, horizon {}, seed {}, {} initial infections, beta {}",
        args.sizes, args.horizon, args.seed, args.initial, args.beta
    );
    let mut rows: Vec<String> = Vec::new();
    let mut skipped: Vec<String> = Vec::new();
    for &n in &args.sizes {
        for backend in ["lazy", "hier"] {
            // Flat power-law graphs (minimum degree 2) don't peel, so
            // the hier backend's core table is the full all-pairs
            // table. Its subnet-world story lives in `--routing-bench`.
            if backend == "hier" && n > args.dense_limit && !args.full {
                let gb = 8.0 * (n as f64) * (n as f64) / 1e9;
                skipped.push(format!("{n}/{backend} (table alone {gb:.0} GB; use --full)"));
                continue;
            }
            match spawn_case(n, backend, &args) {
                Ok(row) => {
                    println!("  {row}");
                    rows.push(row);
                }
                Err(msg) => {
                    eprintln!("{msg}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    for s in &skipped {
        println!("  skipped {s}");
    }

    let identical = backends_bit_identical(1_000, &args);
    println!(
        "lazy vs hier at n=1000: {}",
        if identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"routing_backend_scaling\",\n");
    json.push_str(&format!(
        "  \"topology\": \"barabasi_albert(m={EDGES_PER_NODE}, seed={GRAPH_SEED})\",\n"
    ));
    json.push_str(&format!("  \"horizon\": {},\n", args.horizon));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!("  \"initial_infected\": {},\n", args.initial));
    json.push_str(&format!("  \"beta\": {},\n", args.beta));
    json.push_str(&format!(
        "  \"backends_bit_identical_at_1000\": {identical},\n"
    ));
    json.push_str("  \"skipped\": [");
    json.push_str(
        &skipped
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
    );
    json.push_str("],\n");
    json.push_str("  \"cases\": [\n");
    for (i, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {row}{}\n",
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    write_report(&args.out, json, identical)
}
