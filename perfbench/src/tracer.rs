//! Span recording from the benchmark's own code, around its calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it (its parent) and the
//! id of the op it belongs to. The layer of a span is its name up to the first `.`
//! (`format.decode` belongs to `format`). Root spans named `op.*` are the ops whose
//! wall time is attributed; other roots are probes (side measurements that are not
//! part of an op). Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers wall time is attributed to, in pipeline order, with the metric that
/// reports each one's share of op wall time.
pub const LAYERS: &[(&str, &str)] = &[
    ("format", "self_share.format"),
    ("trace", "self_share.trace"),
    ("views", "self_share.views"),
    ("diff", "self_share.diff"),
    ("regress", "self_share.regress"),
    ("check", "self_share.check"),
    ("core", "self_share.core"),
    ("server", "self_share.server"),
];

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// One caller thread's span recorder. A disabled recorder records nothing, so one
/// code path serves the untraced and the traced loop.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            enabled: true,
            epoch,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span (an `op.*` or a probe) under a fresh op id. Spans an
    /// earlier op left open on an error path are closed first.
    pub fn begin_root(&mut self, name: &'static str) -> usize {
        while let Some(open) = self.open.last().copied() {
            self.end(open);
        }
        self.op += 1;
        self.begin(name)
    }

    /// Opens a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (which must be the innermost open one) and returns its
    /// duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
        self.spans[id].duration_ns()
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name and per-layer sums over the spans of one or more tracers.
#[derive(Default)]
pub struct Breakdown {
    total_ns: BTreeMap<&'static str, u64>,
    count: BTreeMap<&'static str, u64>,
    self_ns: BTreeMap<&'static str, u64>,
    /// Wall time of every `op.*` root span, in milliseconds, by root name.
    op_walls_ms: BTreeMap<&'static str, Vec<f64>>,
    op_wall_ns: u64,
    layer_self_ns: BTreeMap<&'static str, u64>,
}

impl Breakdown {
    /// Adds one tracer's spans.
    pub fn add(&mut self, spans: &[Span]) {
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        for (i, span) in spans.iter().enumerate() {
            let own = span.duration_ns().saturating_sub(child_ns[i]);
            *self.total_ns.entry(span.name).or_default() += span.duration_ns();
            *self.count.entry(span.name).or_default() += 1;
            *self.self_ns.entry(span.name).or_default() += own;
            let mut root = i;
            while let Some(parent) = spans[root].parent {
                root = parent;
            }
            if !spans[root].name.starts_with("op.") {
                continue;
            }
            if span.parent.is_none() {
                self.op_wall_ns += span.duration_ns();
                self.op_walls_ms
                    .entry(span.name)
                    .or_default()
                    .push(span.duration_ns() as f64 / 1e6);
            }
            if let Some((layer, _)) = LAYERS.iter().find(|(l, _)| *l == span.layer()) {
                *self.layer_self_ns.entry(layer).or_default() += own;
            }
        }
    }

    /// Moves `ns` of attributed self time from layer `from` to layer `to` — for time
    /// a span covers that a finer measurement (such as a daemon histogram) places in
    /// another layer.
    pub fn reattribute(&mut self, from: &'static str, to: &'static str, ns: u64) {
        let available = self.layer_self_ns.get(from).copied().unwrap_or(0);
        let moved = ns.min(available);
        *self.layer_self_ns.entry(from).or_default() -= moved;
        *self.layer_self_ns.entry(to).or_default() += moved;
    }

    pub fn total_ns(&self, name: &str) -> u64 {
        self.total_ns.get(name).copied().unwrap_or(0)
    }

    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// Mean duration of the spans named `name`, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> f64 {
        crate::stats::ratio(self.total_ns(name) as f64 / 1e6, self.count(name) as f64)
    }

    /// Share of `op.*` wall time spent as self time of `layer`.
    pub fn layer_share(&self, layer: &str) -> f64 {
        let own = self.layer_self_ns.get(layer).copied().unwrap_or(0);
        crate::stats::ratio(own as f64, self.op_wall_ns as f64)
    }

    /// One minus the summed layer self time over op wall time.
    pub fn unattributed_share(&self) -> f64 {
        let attributed: u64 = self.layer_self_ns.values().sum();
        1.0 - crate::stats::ratio(attributed as f64, self.op_wall_ns as f64)
    }

    /// Reports the attribution metrics shared by every workload: each layer's share
    /// of op wall time, the unattributed remainder, and the tracing overhead against
    /// the untraced op walls `untraced_ms` (by the same `op.*` names).
    pub fn report(&self, out: &mut crate::Outcome, untraced_ms: &BTreeMap<&'static str, Vec<f64>>) {
        for (layer, metric) in LAYERS {
            out.set(metric, self.layer_share(layer));
        }
        out.set("bench.unattributed_share", self.unattributed_share());
        out.set(
            "bench.trace_overhead",
            trace_overhead(&self.op_walls_ms, untraced_ms),
        );
    }
}

/// Traced over untraced wall, minus one: each op kind's median is weighted by the
/// traced run's count of that kind.
pub fn trace_overhead(
    traced: &BTreeMap<&'static str, Vec<f64>>,
    untraced: &BTreeMap<&'static str, Vec<f64>>,
) -> f64 {
    let (mut t, mut u) = (0.0, 0.0);
    for (kind, walls) in traced {
        if let Some(base) = untraced.get(kind).filter(|b| !b.is_empty()) {
            let n = walls.len() as f64;
            t += n * crate::stats::median(walls);
            u += n * crate::stats::median(base);
        }
    }
    if u == 0.0 {
        0.0
    } else {
        t / u - 1.0
    }
}

/// Writes every tracer's spans as JSON lines: thread (tracer index), op, name,
/// parent (index within the tracer), start and end in nanoseconds since the epoch.
pub fn write_spans(path: &Path, tracers: &[&[Span]]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, spans) in tracers.iter().enumerate() {
        for span in spans.iter() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"thread\": {thread}, \"op\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.op, span.name, span.start_ns, span.end_ns
            )?;
        }
    }
    out.flush()
}

/// Where a traced run writes its spans.
pub fn spans_path(args: &crate::Args) -> std::path::PathBuf {
    Path::new(".perfbench_spans").join(format!("{}-{}.jsonl", args.workload, args.seed))
}
