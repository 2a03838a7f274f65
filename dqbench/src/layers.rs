//! The traced run's per-layer report: the metrics every workload
//! reports in the same order, the layers' self times, and the span
//! file.

use crate::engine::{EngineTally, Probe};
use crate::report::Report;
use crate::stats;
use crate::trace::{self, Layer, Tracer};
use crate::world::BuildTimes;
use crate::Ctx;
use std::time::Duration;

/// How much slower the median operation of the traced windows was than
/// that of the untraced ones, in percent. Takes `(traced, latencies)`
/// per window.
pub fn overhead_pct<'a>(windows: impl IntoIterator<Item = (bool, &'a [f64])>) -> f64 {
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for (traced, ms) in windows {
        if traced { &mut on } else { &mut off }.extend_from_slice(ms);
    }
    (stats::median(&on) / stats::median(&off) - 1.0) * 100.0
}

/// Emits the per-layer metrics (the names and order of
/// [`crate::LAYER_METRICS`]), prints every layer's self time, and
/// writes the spans next to the run's other scratch files.
pub fn report(
    ctx: &Ctx,
    rep: &mut Report,
    tr: &Tracer,
    setups: &[BuildTimes],
    tally: &EngineTally,
    probe: &Probe,
    overhead_pct: f64,
) -> Result<(), String> {
    let med = |f: fn(&BuildTimes) -> Duration| {
        let v: Vec<f64> = setups.iter().map(|s| f(s).as_secs_f64()).collect();
        stats::median(&v)
    };
    rep.metric("core.spec_parse_us", med(|b| b.parse) * 1e6, "us");
    rep.metric("core.spec_validate_us", med(|b| b.validate) * 1e6, "us");
    rep.metric("core.spec_canonical_us", med(|b| b.canonical) * 1e6, "us");
    rep.metric("topology.generate_ms", med(|b| b.generate) * 1e3, "ms");
    rep.metric("topology.routing_build_ms", med(|b| b.routing) * 1e3, "ms");
    rep.metric("netsim.config_ms", med(|b| b.config) * 1e3, "ms");
    rep.metric("netsim.init_ms", probe.init.as_secs_f64() * 1e3, "ms");
    tally.report(rep);
    probe.report(rep);
    rep.metric("trace.overhead_pct", overhead_pct, "%");

    // Layer times are wall-clock shares, so the two concurrent clients
    // of serve-jobs are not counted twice; the untraced window is timed
    // but not recorded and is left out.
    let spans = tr.spans();
    let root = spans.first().ok_or("the traced run recorded no spans")?;
    let untraced: f64 = spans
        .iter()
        .filter(|s| s.name == trace::UNTRACED)
        .map(|s| s.end.saturating_sub(s.start) as f64)
        .sum();
    let wall = (root.end.saturating_sub(root.start) as f64 - untraced).max(1.0);
    let unattributed = trace::wall_shares(spans)[0];
    rep.metric("trace.unattributed_pct", unattributed / wall * 100.0, "%");
    for (layer, ns) in trace::layer_wall_shares(spans) {
        let ns = match layer {
            Layer::Bench => ns - unattributed - untraced,
            _ => ns,
        };
        rep.info(&format!("self.{}_ms", layer.label()), ns / 1e6, "ms");
        rep.info(
            &format!("self.{}_pct", layer.label()),
            ns / wall * 100.0,
            "%",
        );
    }
    rep.info("self.unattributed_ms", unattributed / 1e6, "ms");
    rep.info("trace.untraced_window_ms", untraced / 1e6, "ms");
    rep.info("trace.wall_ms", wall / 1e6, "ms");
    rep.info("trace.spans", spans.len(), "count");
    let path = ctx.work.join("trace.jsonl");
    tr.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    rep.info("trace.file", path.display(), "path");
    Ok(())
}
