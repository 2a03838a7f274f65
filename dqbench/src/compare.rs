//! `dqbench compare BENCHMARK.json DIR_A DIR_B`: applies the
//! benchmark's regression bounds to two sets of recorded runs.
//!
//! Each directory holds one `<workload>.jsonl` file per workload, one
//! run's JSON result line per line. For every end-to-end metric and
//! workload the command prints both medians, both spreads (IQR as a
//! share of the median) and the verdict: `ok`, `regressed` (B's median
//! is worse than A's by more than the bound), or `unresolved` (A's
//! spread is wider than the bound, so the runs cannot tell).

use crate::stats::{self, Better, Bound};
use dynaquar_core::spec::{parse_json, Value};
use std::path::Path;

struct Metric {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn array<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    match v.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json has no `{key}` list")),
    }
}

/// Every run's value of `metric`, from `dir/<workload>.jsonl`.
fn values(dir: &Path, workload: &str, metric: &str) -> Result<Vec<f64>, String> {
    let path = dir.join(format!("{workload}.jsonl"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let run = parse_json(line).map_err(|e| format!("{}: {e}", path.display()))?;
            run.get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(number)
                .ok_or_else(|| format!("{}: a run lacks `{metric}`", path.display()))
        })
        .collect()
}

/// Runs the comparison; `Ok(false)` when some metric regressed.
pub fn run(args: &[String]) -> Result<bool, String> {
    let [bench, a, b] = args else {
        return Err("compare takes BENCHMARK.json DIR_A DIR_B".into());
    };
    let bench = read_json(Path::new(bench))?;
    let workloads: Vec<&str> = array(&bench, "workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str))
        .collect();
    let metrics = array(&bench, "end_to_end")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Ok(Metric {
                name: field("name").ok_or("a metric has no name")?,
                unit: field("unit").ok_or("a metric has no unit")?,
                better: field("better")
                    .as_deref()
                    .and_then(Better::parse)
                    .ok_or("a metric has no valid `better`")?,
                bound: m
                    .get("bound")
                    .and_then(number)
                    .ok_or("a metric has no bound")?,
            })
        })
        .collect::<Result<Vec<_>, &str>>()?;

    let mut all_ok = true;
    println!("workload metric unit median_a median_b change_pct spread_a spread_b bound verdict");
    for w in &workloads {
        for m in &metrics {
            let va = values(Path::new(a), w, &m.name)?;
            let vb = values(Path::new(b), w, &m.name)?;
            if va.is_empty() || vb.is_empty() {
                return Err(format!("no runs of {w} recorded"));
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            let spread = |v: &[f64]| stats::iqr_share(v).unwrap_or(0.0);
            let (sa, sb) = (spread(&va), spread(&vb));
            let bound = Bound {
                relative: m.bound,
                floor: stats::floor_for_unit(&m.unit),
            };
            let verdict = if bound.regressed(ma, mb, m.better) {
                if sa > m.bound {
                    "unresolved"
                } else {
                    all_ok = false;
                    "regressed"
                }
            } else {
                "ok"
            };
            println!(
                "{w} {} {} {ma:.6} {mb:.6} {:+.2} {sa:.4} {sb:.4} {} {verdict}",
                m.name,
                m.unit,
                (mb / ma - 1.0) * 100.0,
                m.bound
            );
        }
    }
    Ok(all_ok)
}
