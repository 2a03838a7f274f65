//! In-memory spans around every call the benchmark makes into a layer,
//! and the self-time arithmetic that turns them into per-layer costs.
//!
//! A span records its name, its layer (the crate whose public function
//! was called), start and end, the span that caused it, and the request
//! it belongs to. Spans are only kept when tracing is on; the duration
//! of every call is measured either way, because the end-to-end metrics
//! are built from the same timers.
//!
//! A span's self time is its duration minus the part of its interval
//! that its children cover. Children may overlap each other (spans from
//! two client threads under one parent), so the covered part is the
//! length of the union of the children's intervals, clipped to the
//! parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of the span around a traced run's untraced window. Its calls
/// are timed but not recorded, so the window is left out of the traced
/// wall and of every layer's self time.
pub const UNTRACED: &str = "window.untraced";

/// Span name of a measured window.
pub fn window_name(traced: bool) -> &'static str {
    if traced {
        "window.traced"
    } else {
        UNTRACED
    }
}

/// The layers a span can be charged to: the repository's crates on the
/// measured path, plus the benchmark's own code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The benchmark itself: loops, checks, bookkeeping.
    Bench,
    /// `dynaquar-core`: spec parse, validation, canonical form.
    Core,
    /// `dynaquar-topology`: generators and routing build.
    Topology,
    /// `dynaquar-netsim`: world, config, engine, snapshots, runner.
    Netsim,
    /// `dynaquar-serve`: daemon protocol, ledger, codec.
    Serve,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Bench,
        Layer::Core,
        Layer::Topology,
        Layer::Netsim,
        Layer::Serve,
    ];

    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Core => "core",
            Layer::Topology => "topology",
            Layer::Netsim => "netsim",
            Layer::Serve => "serve",
        }
    }
}

/// One recorded call, with times in nanoseconds since the tracer's
/// origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// The layer the call belongs to.
    pub layer: Layer,
    /// Start, ns since origin.
    pub start: u64,
    /// End, ns since origin.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request (job, session or run) the span belongs to.
    pub request: u64,
}

/// An open span: its start, and its slot when tracing is on.
#[derive(Debug)]
#[must_use = "close the span with Tracer::exit"]
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder whose times count from `origin`; with `enabled` off
    /// it only measures durations.
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns_since_origin(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer, name: &'static str, request: u64) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name,
                layer,
                start: self.ns_since_origin(start),
                end: 0,
                parent: self.stack.last().copied(),
                request,
            });
            self.stack.push(idx);
            idx
        });
        Open { slot, start }
    }

    /// Closes a span and returns its duration.
    pub fn exit(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(idx) = open.slot {
            self.spans[idx].end = self.ns_since_origin(end);
            // Spans close innermost first; tolerate a missed exit by
            // unwinding to this span.
            while let Some(top) = self.stack.pop() {
                if top == idx {
                    break;
                }
            }
        }
        end - open.start
    }

    /// Runs `f` inside a span and returns its value and duration.
    pub fn time<R>(
        &mut self,
        layer: Layer,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.enter(layer, name, request);
        let value = f();
        let took = self.exit(open);
        (value, took)
    }

    /// Index of the innermost open span.
    pub fn current(&self) -> Option<usize> {
        self.stack.last().copied()
    }

    /// Records calls timed where the tracer could not be borrowed (an
    /// engine callback), as children of the innermost open span.
    pub fn record(
        &mut self,
        layer: Layer,
        name: &'static str,
        request: u64,
        calls: &[(Instant, Instant)],
    ) {
        if !self.enabled {
            return;
        }
        let parent = self.current();
        for &(start, end) in calls {
            self.spans.push(Span {
                name,
                layer,
                start: self.ns_since_origin(start),
                end: self.ns_since_origin(end),
                parent,
                request,
            });
        }
    }

    /// Moves another thread's spans in; their top-level spans become
    /// children of `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<usize>) {
        let base = self.spans.len();
        for mut span in other.spans {
            span.parent = match span.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(span);
        }
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans, each with its self time, as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(self_times(&self.spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name,
                s.layer.label(),
                s.start,
                s.end,
                s.request
            )?;
        }
        out.flush()
    }
}

/// The parts of `[lo, hi]` that no interval of `covering` covers.
fn gaps(mut covering: Vec<(u64, u64)>, lo: u64, hi: u64) -> Vec<(u64, u64)> {
    covering.sort_unstable();
    let mut out = Vec::new();
    let mut reach = lo;
    for (s, e) in covering {
        if s > reach && reach < hi {
            out.push((reach, s.min(hi)));
        }
        reach = reach.max(e.min(hi));
    }
    if reach < hi {
        out.push((reach, hi));
    }
    out
}

/// Every span's self intervals: its interval minus its children's.
fn self_intervals(spans: &[Span]) -> Vec<Vec<(u64, u64)>> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| gaps(kids, s.start, s.end))
        .collect()
}

/// Self time of every span, in ns, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    self_intervals(spans)
        .iter()
        .map(|iv| iv.iter().map(|(s, e)| e - s).sum())
        .collect()
}

/// Every span's share of the wall clock, in ns: its self intervals,
/// with each instant split evenly among the spans whose self intervals
/// contain it. Unlike [`self_times`], concurrent spans (two client
/// threads) are not counted twice, so the shares add up to the time
/// covered by any span.
pub fn wall_shares(spans: &[Span]) -> Vec<f64> {
    let mut edges: Vec<(u64, bool, usize)> = Vec::new();
    for (i, iv) in self_intervals(spans).into_iter().enumerate() {
        for (s, e) in iv {
            edges.push((s, true, i));
            edges.push((e, false, i));
        }
    }
    // Ends sort before starts at the same instant.
    edges.sort_unstable();
    let mut shares = vec![0.0; spans.len()];
    let mut active: Vec<usize> = Vec::new();
    let mut last = 0;
    for (t, start, i) in edges {
        if !active.is_empty() && t > last {
            let each = (t - last) as f64 / active.len() as f64;
            for &a in &active {
                shares[a] += each;
            }
        }
        last = t;
        if start {
            active.push(i);
        } else if let Some(pos) = active.iter().position(|&a| a == i) {
            active.swap_remove(pos);
        }
    }
    shares
}

/// Wall-clock shares summed per layer, in ns.
pub fn layer_wall_shares(spans: &[Span]) -> BTreeMap<Layer, f64> {
    let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
    for (s, t) in spans.iter().zip(wall_shares(spans)) {
        *out.entry(s.layer).or_default() += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            layer,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn nested_spans_subtract_their_children() {
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Netsim, 10, 40, Some(0)),
            span(Layer::Core, 15, 20, Some(1)),
            span(Layer::Serve, 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 25, 5, 40]);
        // Without overlap the wall shares are the self times.
        let by_layer = layer_wall_shares(&spans);
        assert_eq!(by_layer[&Layer::Bench], 30.0);
        assert_eq!(by_layer[&Layer::Netsim], 25.0);
        assert_eq!(by_layer[&Layer::Core], 5.0);
        assert_eq!(by_layer[&Layer::Serve], 40.0);
        assert_eq!(by_layer[&Layer::Topology], 0.0);
        assert_eq!(by_layer.values().sum::<f64>(), 100.0);
    }

    #[test]
    fn overlapping_children_count_their_union_once() {
        // Two client threads' spans under one parent overlap in time.
        let spans = vec![
            span(Layer::Bench, 0, 100, None),
            span(Layer::Serve, 10, 60, Some(0)),
            span(Layer::Serve, 30, 80, Some(0)),
            span(Layer::Serve, 35, 50, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 100 - 70, "union of [10,60] and [30,80] is 70");
        assert_eq!(&st[1..], &[50, 50, 15]);
        // Concurrent spans split the instants they share: [10,30] is
        // the first's, [30,35] and [50,60] are halved, [35,50] is
        // thirded, [60,80] is the second's.
        let w = wall_shares(&spans);
        assert_eq!(w[0], 30.0);
        let third = 15.0 / 3.0;
        assert!((w[1] - (20.0 + 2.5 + third + 5.0)).abs() < 1e-9, "{w:?}");
        assert!((w[2] - (2.5 + third + 5.0 + 20.0)).abs() < 1e-9, "{w:?}");
        assert!((w[3] - third).abs() < 1e-9, "{w:?}");
        assert!((w.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![
            span(Layer::Netsim, 10, 50, None),
            span(Layer::Serve, 0, 20, Some(0)),
            span(Layer::Serve, 45, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40 - 10 - 5);
        // A child covering everything leaves no negative self time.
        let spans = vec![
            span(Layer::Netsim, 10, 20, None),
            span(Layer::Core, 0, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn tracer_nests_by_call_order_and_absorbs_threads() {
        let origin = Instant::now();
        let mut t = Tracer::new(true, origin);
        let root = t.enter(Layer::Bench, "root", 0);
        let ((), _) = t.time(Layer::Core, "parse", 1, || {});
        let mut worker = Tracer::new(true, origin);
        let ((), _) = worker.time(Layer::Serve, "submit", 2, || {});
        t.absorb(worker, t.current());
        let wall = t.exit(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].request, 2);
        assert!(spans[0].end >= spans[1].end);
        assert!(wall.as_nanos() as u64 >= spans[0].end - spans[0].start);

        // Disabled tracers still time calls but keep nothing.
        let mut off = Tracer::new(false, origin);
        let (v, d) = off.time(Layer::Netsim, "run", 0, || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(off.spans().is_empty());
    }
}
