//! `analyze_cold`: the local `rprism analyze` path from files. Each op is a fresh
//! `Engine` running `load_prepared` ×4, `analyze` and `render_report`, so every
//! artifact is built cold and decode, key, web, correlate, scan and the regression
//! sets all block the verdict.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::time::Instant;

use rprism::diff::{views_diff_sides_correlated, DiffSide};
use rprism::regress::{analyze_prepared_with, render_report_with, PreparedInput, PreparedTraceRef};
use rprism::trace::{KeyedTrace, Trace};
use rprism::views::{Correlation, ViewWeb};
use rprism::{
    DiffAlgorithm, Engine, RegressionInput, RegressionReport, RenderOptions, ViewsDiffOptions,
};
use rprism_server::proto::WireReport;

use crate::corpus::{self, CorpusScenario};
use crate::stats;
use crate::tracer::{self, Breakdown, Tracer};
use crate::{Args, Outcome, WorkDir};

/// One op on the user-visible path; returns the report and its rendering.
fn engine_op(scenario: &CorpusScenario) -> Result<(Engine, RegressionReport, String), String> {
    let engine = Engine::new();
    let load = |i: usize| {
        engine
            .load_prepared(&scenario.files[i])
            .map_err(|e| format!("load_prepared: {e}"))
    };
    let mut input = RegressionInput::new(load(0)?, load(1)?, load(2)?, load(3)?);
    input.mode = scenario.mode;
    let report = engine
        .analyze(&input)
        .map_err(|e| format!("analyze: {e}"))?;
    let text = engine.render_report(&report, &input);
    Ok((engine, report, text))
}

fn report_ok(scenario: &CorpusScenario, report: &RegressionReport, text: &str) -> bool {
    !text.is_empty() && WireReport::from_report(report, String::new()) == scenario.reference
}

/// The same op performed through the layer calls, in the order the engine uses
/// them, each inside a span. Returns the report and the replayed decode + key + web
/// nanoseconds of each of the four files.
fn traced_op(
    tr: &mut Tracer,
    scenario: &CorpusScenario,
) -> Result<(RegressionReport, [u64; 4]), String> {
    let options = ViewsDiffOptions::default();
    let root = tr.begin_root("op.analyze");
    let mut traces: Vec<Trace> = Vec::with_capacity(4);
    let mut keyed = Vec::with_capacity(4);
    let mut webs = Vec::with_capacity(4);
    let mut replay_ns = [0u64; 4];
    for (i, path) in scenario.files.iter().enumerate() {
        let span = tr.begin("format.decode");
        let trace = File::open(path)
            .map_err(|e| e.to_string())
            .and_then(|f| rprism::format::read_trace(BufReader::new(f)).map_err(|e| e.to_string()));
        replay_ns[i] += tr.end(span);
        let trace = trace.map_err(|e| format!("read_trace: {e}"))?;
        let span = tr.begin("trace.key");
        keyed.push(KeyedTrace::build(&trace));
        replay_ns[i] += tr.end(span);
        let span = tr.begin("views.web");
        webs.push(ViewWeb::build(&trace));
        replay_ns[i] += tr.end(span);
        traces.push(trace);
    }
    let side = |i: usize| PreparedTraceRef::new(&traces[i], &keyed[i], Some(&webs[i]));
    let input = PreparedInput {
        old_regressing: side(0),
        new_regressing: side(1),
        old_passing: side(2),
        new_passing: side(3),
    };
    let algorithm = DiffAlgorithm::Views(options.clone());
    let mode = scenario.mode.unwrap_or_default();
    let span = tr.begin("regress.analyze");
    let report = analyze_prepared_with(&input, &algorithm, mode, |_, left, right| {
        let (lw, rw) = (left.web.expect("web built"), right.web.expect("web built"));
        let correlation = tr.time("views.correlate", || {
            Correlation::build_with(lw, rw, options.parallel)
        });
        let (lt, rt) = (left.trace().expect("full"), right.trace().expect("full"));
        Ok(tr.time("diff.scan", || {
            views_diff_sides_correlated(
                &DiffSide::full(lt, left.keyed, lw),
                &DiffSide::full(rt, right.keyed, rw),
                &correlation,
                &options,
            )
        }))
    });
    tr.end(span);
    let report = report.map_err(|e| format!("analyze_prepared_with: {e}"))?;
    let text = tr.time("regress.render", || {
        render_report_with(
            &report,
            &RenderOptions::default(),
            |i| traces[0].entries.get(i).map(|e| e.render()),
            |i| traces[1].entries.get(i).map(|e| e.render()),
        )
    });
    tr.end(root);
    if text.is_empty() {
        return Err("empty rendering".into());
    }
    Ok((report, replay_ns))
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (corpus, setup_s) = crate::repeated_setup(work, |dir| corpus::build(dir, args.seed))?;
    let mut out = Outcome::default();
    corpus::properties(&corpus).report(&mut out);
    let window = args.window();

    // Untraced closed loop, one caller: scenarios in a seeded rotation, after one
    // unmeasured op that lets the allocator and file cache settle.
    let order = rotation(corpus.len(), args.seed);
    if let Err(e) = engine_op(&corpus[order[0]]) {
        eprintln!("analyze_cold: warm-up op: {e}");
    }
    let (mut latencies, mut ops) = (Vec::new(), Vec::new());
    let (mut lookups, mut builds) = (0u64, 0u64);
    let start = Instant::now();
    let stop = crate::deadline(window);
    let mut next = 0;
    while Instant::now() < stop {
        let scenario = &corpus[order[next % order.len()]];
        next += 1;
        let t0 = Instant::now();
        let result = engine_op(scenario);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        ops.push(((t0 - start).as_secs_f64(), ms));
        let ok = match result {
            Ok((engine, report, text)) => {
                lookups += 3;
                builds += engine.correlation_builds();
                report_ok(scenario, &report, &text)
            }
            Err(e) => {
                eprintln!("analyze_cold: {e}");
                false
            }
        };
        out.record(ok);
    }
    if !args.trace {
        let (per_s, p50, p90) = stats::sliced(&ops, window);
        out.set("setup_s", setup_s);
        out.set("ops_per_s", per_s);
        out.set("op_p50_ms", p50);
        out.set("op_p90_ms", p90);
        return Ok(out);
    }
    out.set(
        "analyze_per_s",
        latencies.len() as f64 / start.elapsed().as_secs_f64(),
    );
    out.set("analyze_p50_ms", stats::median(&latencies));
    out.set("analyze_p90_ms", stats::quantile(&latencies, 0.9));
    out.set(
        "core.correlation_hit_ratio",
        1.0 - stats::ratio(builds as f64, lookups as f64),
    );
    let untraced = BTreeMap::from([("op.analyze", latencies)]);

    // Traced half: the layer replay, plus one `Engine::load_prepared` probe per op
    // on a rotating file, compared with that file's replayed decode + key + web.
    let mut tr = Tracer::new(Instant::now());
    let (mut entries, mut diffs, mut compare_ops, mut candidates, mut reports) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let (mut load_ns, mut replayed_ns) = (0u64, 0u64);
    let stop = crate::deadline(window);
    while Instant::now() < stop {
        let scenario = &corpus[order[next % order.len()]];
        next += 1;
        match traced_op(&mut tr, scenario) {
            Ok((report, replay)) => {
                out.record(WireReport::from_report(&report, String::new()) == scenario.reference);
                entries += scenario
                    .traces
                    .handles()
                    .iter()
                    .map(|h| h.len() as u64)
                    .sum::<u64>();
                diffs += 3;
                compare_ops += report.compare_ops;
                candidates += report.num_regression_sequences() as u64;
                reports += 1;
                let file = next % 4;
                let engine = Engine::new();
                let probe = tr.begin_root("core.load_prepared");
                let loaded = engine.load_prepared(&scenario.files[file]);
                load_ns += tr.end(probe);
                replayed_ns += replay[file];
                if let Err(e) = loaded {
                    eprintln!("analyze_cold: load_prepared probe: {e}");
                }
            }
            Err(e) => {
                eprintln!("analyze_cold: traced op: {e}");
                out.record(false);
            }
        }
    }
    let mut b = Breakdown::default();
    b.add(tr.spans());
    b.report(&mut out, &untraced);
    tracer::write_spans(&tracer::spans_path(args), &[tr.spans()])
        .map_err(|e| format!("writing spans: {e}"))?;

    let per_entry = |name: &str| stats::ratio(b.total_ns(name) as f64, entries as f64);
    out.set("format.decode_ns_per_entry", per_entry("format.decode"));
    out.set("trace.key_ns_per_entry", per_entry("trace.key"));
    out.set("views.web_ns_per_entry", per_entry("views.web"));
    out.set("views.correlate_ms", b.mean_ms("views.correlate"));
    out.set("diff.scan_ms", b.mean_ms("diff.scan"));
    out.set(
        "diff.compare_ops",
        stats::ratio(compare_ops as f64, diffs as f64),
    );
    out.set(
        "regress.sets_ms",
        stats::ratio(b.self_ns("regress.analyze") as f64 / 1e6, reports as f64),
    );
    out.set("regress.render_ms", b.mean_ms("regress.render"));
    out.set(
        "regress.candidate_sequences",
        stats::ratio(candidates as f64, reports as f64),
    );
    out.set("core.load_prepared_ms", b.mean_ms("core.load_prepared"));
    out.set(
        "core.ingest_overhead_share",
        stats::ratio(load_ns as f64 - replayed_ns as f64, load_ns as f64),
    );
    Ok(out)
}

/// A seeded permutation of `0..n` (Fisher–Yates over the testgen generator).
pub fn rotation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = rprism::trace::testgen::Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.usize(0, i + 1);
        order.swap(i, j);
    }
    order
}
