//! `stream_large`: the huge-trace local paths. Seeded 100k-entry well-formed traces,
//! each with a sparse-mutation copy (every 997th entry dropped, every 1499th
//! duplicated), stored as `.rtr` files. A cycle on one pair is `check_path` of the
//! well-formed trace (which must check clean), `watch_prepared` of the mutated file
//! against the prepared original, and a load plus anchored `Engine::diff` of the
//! pair; an end-to-end op is a sweep of one cycle per pair. Streaming decode, the check rules, the resumable diff
//! session and the anchored kernel carry the load; regression sets, the server and
//! the correlation cache do nothing.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rprism::check::{check_trace, CheckReport};
use rprism::diff::{anchored_diff, anchored_diff_prepared};
use rprism::format::TraceReader;
use rprism::trace::testgen::{GenProfile, Rng};
use rprism::trace::{KeyedTrace, Trace, TraceMeta};
use rprism::{AnchoredDiffOptions, DiffAlgorithm, Engine, PreparedTrace, ProvisionalEvent};
use rprism_server::proto::WireDiff;

use crate::stats;
use crate::tracer::{self, Breakdown, Tracer};
use crate::{Args, Outcome, WorkDir};

/// Trace pairs per run; the cycle rotates over them.
const PAIRS: usize = 3;
/// Entries of each well-formed trace.
const ENTRIES: usize = 100_000;

struct Pair {
    base: PathBuf,
    mutated: PathBuf,
    /// The original, prepared once by streaming it from its file.
    prepared: PreparedTrace,
    entries: [usize; 2],
    threads: usize,
    /// References, computed from the in-memory traces.
    check: CheckReport,
    batch: WireDiff,
    anchored_pairs: Vec<(usize, usize)>,
}

/// The `anchored_scaling` mutation: every 997th entry dropped, every 1499th
/// duplicated.
fn sparse_mutation(base: &Trace) -> Trace {
    let mut new = Trace::new(TraceMeta::new(
        format!("{}-mutated", base.meta.name),
        "",
        "",
    ));
    for (i, entry) in base.iter().enumerate() {
        if i % 997 == 996 {
            continue;
        }
        new.push(entry.clone());
        if i % 1499 == 1498 {
            new.push(entry.clone());
        }
    }
    new
}

fn setup(dir: &Path, seed: u64) -> Result<Vec<Pair>, String> {
    let engine = Engine::new();
    let mut pairs = Vec::with_capacity(PAIRS);
    for p in 0..PAIRS {
        let mut base = GenProfile::WellFormed
            .generate(&mut Rng::new(seed.wrapping_mul(0x9e37) + p as u64), ENTRIES);
        base.meta = TraceMeta::new(format!("wellformed-{seed}-{p}"), "", "");
        let mutated = sparse_mutation(&base);
        let base_path = dir.join(format!("p{p}.base.rtr"));
        let mutated_path = dir.join(format!("p{p}.mutated.rtr"));
        for (trace, path) in [(&base, &base_path), (&mutated, &mutated_path)] {
            rprism::format::write_trace_path(trace, path, rprism::Encoding::Binary)
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
        let check = check_trace(&base);
        let anchored_pairs = anchored_diff(&base, &mutated, &AnchoredDiffOptions::default())
            .matching
            .normalized_pairs();
        let (entries, threads) = ([base.len(), mutated.len()], base.thread_ids().len());
        let batch = engine
            .diff(&PreparedTrace::new(base), &PreparedTrace::new(mutated))
            .map_err(|e| format!("reference diff: {e}"))?;
        let prepared = engine
            .load_prepared(&base_path)
            .map_err(|e| format!("load_prepared: {e}"))?;
        pairs.push(Pair {
            base: base_path,
            mutated: mutated_path,
            prepared,
            entries,
            threads,
            check,
            batch: WireDiff::from_result(&batch, String::new()),
            anchored_pairs,
        });
    }
    Ok(pairs)
}

/// Per-stage milliseconds of one cycle.
struct Cycle {
    check_ms: f64,
    watch_ms: f64,
    anchored_ms: f64,
    ok: bool,
}

fn open(path: &Path) -> Result<TraceReader<impl std::io::BufRead>, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    TraceReader::new(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))
}

/// One cycle on the user-visible paths.
fn engine_cycle(engine: &Engine, anchored: &Engine, pair: &Pair) -> Result<Cycle, String> {
    let t0 = Instant::now();
    let report = engine
        .check_path(&pair.base)
        .map_err(|e| format!("check_path: {e}"))?;
    let t1 = Instant::now();
    let outcome = engine
        .watch_prepared(&pair.prepared, open(&pair.mutated)?, |_| {}, || false)
        .map_err(|e| format!("watch_prepared: {e}"))?;
    let t2 = Instant::now();
    let left = anchored
        .load_trace(&pair.base)
        .map_err(|e| format!("load_trace: {e}"))?;
    let right = anchored
        .load_trace(&pair.mutated)
        .map_err(|e| format!("load_trace: {e}"))?;
    let diff = anchored
        .diff(&left, &right)
        .map_err(|e| format!("anchored diff: {e}"))?;
    let t3 = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(Cycle {
        check_ms: ms(t0, t1),
        watch_ms: ms(t1, t2),
        anchored_ms: ms(t2, t3),
        ok: report.is_clean()
            && report == pair.check
            && WireDiff::from_result(&outcome.result, String::new()) == pair.batch
            && diff.matching.normalized_pairs() == pair.anchored_pairs,
    })
}

/// Counts the traced cycle accumulates besides its spans.
#[derive(Default)]
struct Counts {
    decoded: u64,
    keyed: u64,
    checked: u64,
    watches: u64,
    matches: u64,
    invalidations: u64,
    anchored: u64,
    anchored_pairs: u64,
    compare_ops: u64,
    decode_alone_ns: u64,
    check_reader_ns: u64,
}

/// Decodes a whole file inside a `format.decode` span; returns the trace and the
/// span's nanoseconds.
fn read(tr: &mut Tracer, path: &Path, counts: &mut Counts) -> Result<(Trace, u64), String> {
    let span = tr.begin("format.decode");
    let trace = open(path).and_then(|r| r.into_trace().map_err(|e| e.to_string()));
    let ns = tr.end(span);
    let trace = trace?;
    counts.decoded += trace.len() as u64;
    Ok((trace, ns))
}

/// The same cycle performed through the layer calls, each inside a span, followed
/// by a `check_reader` probe over the same bytes as the check step's decode.
fn traced_cycle(
    tr: &mut Tracer,
    engine: &Engine,
    pair: &Pair,
    counts: &mut Counts,
) -> Result<bool, String> {
    let root = tr.begin_root("op.stream");
    // Check: decode alone, then the rules over the decoded trace.
    let (base, decode_alone) = read(tr, &pair.base, counts)?;
    let report = tr.time("check.rules", || check_trace(&base));
    counts.checked += base.len() as u64;
    let mut ok = report.is_clean() && report == pair.check;
    drop(base);

    // Watch: batches decoded and pushed into the session, then finished.
    let span = tr.begin("format.decode");
    let reader = open(&pair.mutated);
    tr.end(span);
    let mut reader = reader?;
    let mut watch = tr.time("core.watch", || {
        engine.watch(&pair.prepared, reader.meta().clone())
    });
    let mut batch = Vec::with_capacity(rprism::ingest::BATCH_ENTRIES);
    let tally = |events: &[ProvisionalEvent], counts: &mut Counts| {
        for event in events {
            match event {
                ProvisionalEvent::Match { .. } => counts.matches += 1,
                ProvisionalEvent::Invalidate { .. } => counts.invalidations += 1,
                ProvisionalEvent::Difference { .. } => {}
            }
        }
    };
    loop {
        let span = tr.begin("format.decode");
        let read = reader.read_batch(&mut batch, rprism::ingest::BATCH_ENTRIES);
        tr.end(span);
        if read.map_err(|e| format!("read_batch: {e}"))? == 0 {
            break;
        }
        counts.decoded += batch.len() as u64;
        let span = tr.begin("diff.session_push");
        let events = watch.push_entries(&batch);
        tr.end(span);
        tally(&events.map_err(|e| format!("push_entries: {e}"))?, counts);
    }
    let span = tr.begin("diff.session_finish");
    let outcome = watch.finish();
    tr.end(span);
    let outcome = outcome.map_err(|e| format!("finish: {e}"))?;
    tally(&outcome.events, counts);
    counts.watches += 1;
    counts.compare_ops += outcome.result.cost.compare_ops;
    ok &= WireDiff::from_result(&outcome.result, String::new()) == pair.batch;
    drop(outcome);

    // Anchored diff: decode and key both sides, then the anchored kernel.
    let (left, _) = read(tr, &pair.base, counts)?;
    let (right, _) = read(tr, &pair.mutated, counts)?;
    let lk = tr.time("trace.key", || KeyedTrace::build(&left));
    let rk = tr.time("trace.key", || KeyedTrace::build(&right));
    counts.keyed += (left.len() + right.len()) as u64;
    let diff = tr.time("diff.anchored", || {
        anchored_diff_prepared(&lk, &rk, &AnchoredDiffOptions::default())
    });
    let pairs = diff.matching.normalized_pairs();
    counts.anchored += 1;
    counts.anchored_pairs += pairs.len() as u64;
    ok &= pairs == pair.anchored_pairs;
    tr.end(root);

    let probe = tr.begin_root("check.check_reader");
    let probed = File::open(&pair.base)
        .map_err(|e| e.to_string())
        .and_then(|f| engine.check_reader(f).map_err(|e| e.to_string()));
    counts.check_reader_ns += tr.end(probe);
    counts.decode_alone_ns += decode_alone;
    ok &= probed.map_err(|e| format!("check_reader: {e}"))? == pair.check;
    Ok(ok)
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (pairs, setup_s) = crate::repeated_setup(work, |dir| setup(dir, args.seed))?;
    let engine = Engine::new();
    let anchored = Engine::builder()
        .algorithm(DiffAlgorithm::Anchored(AnchoredDiffOptions::default()))
        .build();
    let mut out = Outcome::default();
    properties(&pairs, &mut out);
    let window = args.window();

    // The end-to-end op is a sweep: one cycle on every pair. Pairs differ in cost
    // by seed, so per-cycle percentiles would jump between the pairs' modes.
    let (mut sweeps, mut cycles, mut checks, mut watches, mut anchors) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut checked = 0usize;
    // One unmeasured cycle lets the allocator and file cache settle.
    if let Err(e) = engine_cycle(&engine, &anchored, &pairs[0]) {
        eprintln!("stream_large: warm-up cycle: {e}");
    }
    let start = Instant::now();
    let stop = crate::deadline(window);
    while Instant::now() < stop {
        let mut sweep_ms = 0.0;
        for pair in &pairs {
            match engine_cycle(&engine, &anchored, pair) {
                Ok(c) => {
                    let cycle_ms = c.check_ms + c.watch_ms + c.anchored_ms;
                    sweep_ms += cycle_ms;
                    cycles.push(cycle_ms);
                    checks.push(c.check_ms);
                    watches.push(c.watch_ms);
                    anchors.push(c.anchored_ms);
                    checked += pair.entries[0];
                    out.record(c.ok);
                }
                Err(e) => {
                    eprintln!("stream_large: {e}");
                    out.record(false);
                }
            }
        }
        sweeps.push(sweep_ms);
    }
    if !args.trace {
        out.set("setup_s", setup_s);
        out.set(
            "ops_per_s",
            sweeps.len() as f64 / start.elapsed().as_secs_f64(),
        );
        out.set("op_p50_ms", stats::median(&sweeps));
        out.set("op_p90_ms", stats::quantile(&sweeps, 0.9));
        return Ok(out);
    }
    out.set(
        "check_entries_per_s",
        stats::ratio(checked as f64, checks.iter().sum::<f64>() / 1e3),
    );
    out.set("watch_p50_ms", stats::median(&watches));
    out.set("anchored_diff_p50_ms", stats::median(&anchors));
    let untraced = BTreeMap::from([("op.stream", cycles)]);

    let mut tr = Tracer::new(Instant::now());
    let mut counts = Counts::default();
    let stop = crate::deadline(window);
    let mut next = 0;
    while Instant::now() < stop {
        let pair = &pairs[next % pairs.len()];
        next += 1;
        match traced_cycle(&mut tr, &engine, pair, &mut counts) {
            Ok(ok) => out.record(ok),
            Err(e) => {
                eprintln!("stream_large: traced cycle: {e}");
                out.record(false);
            }
        }
    }
    let mut b = Breakdown::default();
    b.add(tr.spans());
    b.report(&mut out, &untraced);
    tracer::write_spans(&tracer::spans_path(args), &[tr.spans()])
        .map_err(|e| format!("writing spans: {e}"))?;

    let per = |ns: u64, n: u64| stats::ratio(ns as f64, n as f64);
    out.set(
        "format.decode_ns_per_entry",
        per(b.total_ns("format.decode"), counts.decoded),
    );
    out.set(
        "trace.key_ns_per_entry",
        per(b.total_ns("trace.key"), counts.keyed),
    );
    out.set(
        "check.rules_ns_per_entry",
        per(b.total_ns("check.rules"), counts.checked),
    );
    out.set(
        "check.decode_share",
        per(counts.decode_alone_ns, counts.check_reader_ns),
    );
    out.set(
        "diff.session_push_ms",
        per(b.total_ns("diff.session_push"), counts.watches) / 1e6,
    );
    out.set("diff.session_finish_ms", b.mean_ms("diff.session_finish"));
    out.set(
        "diff.invalidations_per_match",
        per(counts.invalidations, counts.matches),
    );
    out.set("diff.compare_ops", per(counts.compare_ops, counts.watches));
    out.set("diff.anchored_ms", b.mean_ms("diff.anchored"));
    out.set(
        "diff.anchored_pairs",
        per(counts.anchored_pairs, counts.anchored),
    );

    Ok(out)
}

/// Measured properties of the inputs.
fn properties(pairs: &[Pair], out: &mut Outcome) {
    let n = pairs.len() as f64;
    out.set(
        "workload.entries_per_trace",
        pairs
            .iter()
            .map(|p| (p.entries[0] + p.entries[1]) as f64 / 2.0)
            .sum::<f64>()
            / n,
    );
    out.set(
        "workload.threads_per_trace",
        pairs.iter().map(|p| p.threads as f64).sum::<f64>() / n,
    );
    out.set(
        "views.views_per_trace",
        pairs
            .iter()
            .map(|p| p.prepared.web().total_views() as f64)
            .sum::<f64>()
            / n,
    );
    out.set(
        "workload.diff_entry_share",
        pairs
            .iter()
            .map(|p| {
                let differing: u64 = p
                    .batch
                    .sequences
                    .iter()
                    .map(|s| (s.left.len() + s.right.len()) as u64)
                    .sum();
                stats::ratio(
                    differing as f64,
                    (p.batch.left_len + p.batch.right_len) as f64,
                )
            })
            .sum::<f64>()
            / n,
    );
}
