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

use dynaquar_netsim::config::{SimConfig, WormBehavior};
use dynaquar_netsim::sim::Simulator;
use dynaquar_netsim::World;
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
                     [--routing-bench FILE] [--check-routing FILE] [--subnet B,S,H]"
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
    build_secs: f64,
    run_secs: f64,
    host_ticks_per_sec: f64,
    peak_rss_mb: f64,
    ever_infected_hosts: u64,
    delivered_packets: u64,
}

impl CaseResult {
    fn to_json_row(&self) -> String {
        format!(
            "{{\"hosts\": {}, \"backend\": \"{}\", \
             \"build_secs\": {:.4}, \
             \"run_secs\": {:.4}, \"host_ticks_per_sec\": {:.1}, \"peak_rss_mb\": {:.1}, \
             \"ever_infected_hosts\": {}, \"delivered_packets\": {}}}",
            self.hosts,
            self.backend,
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
    let config = SimConfig::builder()
        .beta(args.beta)
        .horizon(args.horizon)
        .initial_infected(args.initial)
        .build()
        .expect("valid config");
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
