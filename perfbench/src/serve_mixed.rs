//! `serve_mixed`: an in-process `rprism_server::Server` on loopback with the default
//! configuration (durable puts, default cache budget), its repository preloaded with
//! the `analyze_cold` corpus. Two client connections run a closed loop over a seeded
//! mix: about 70% `diff` and 20% `analyze` of stored pairs (warm cache hits) and 10%
//! ingest (a `put` of a fresh mutated blob, then the first, cold, `diff` against its
//! parent). Warm caches take decode, key, web and correlate off the path, so scan,
//! wire codec, repository and the correlation cache dominate.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rprism::trace::testgen::Rng;
use rprism::trace::Trace;
use rprism::{Engine, Obs, PreparedTrace};
use rprism_server::proto::WireDiff;
use rprism_server::{Client, RetryPolicy, Server, ServerConfig, ServerError};

use crate::corpus::{self, CorpusScenario};
use crate::stats;
use crate::tracer::{self, Breakdown, Tracer};
use crate::{Args, Outcome, WorkDir};

/// Client connections of the closed loop (the host's core count).
const CLIENTS: usize = 2;
/// Pre-encoded ingest blobs per second of measured window; an ingest draw takes
/// the next unused blob.
const BLOBS_PER_SECOND: usize = 40;
/// Sequence bound of the server-side rendering.
const MAX_SEQUENCES: u64 = 10;
/// Which two of a scenario's four traces each stored pair compares: the §4.1
/// comparisons A (old vs new, regressing), B (old vs new, passing) and C (passing vs
/// regressing on the new version).
const PAIR_ROLES: [(usize, usize); 3] = [(0, 1), (2, 3), (3, 1)];

struct Inputs {
    corpus: Vec<CorpusScenario>,
    /// `(scenario, left role, right role, reference)` of every stored pair.
    pairs: Vec<(usize, usize, usize, WireDiff)>,
    /// `(scenario, role, encoded mutated copy)` of every ingest blob.
    blobs: Vec<(usize, usize, Vec<u8>)>,
}

impl Inputs {
    fn trace(&self, scenario: usize, role: usize) -> &PreparedTrace {
        self.corpus[scenario].traces.handles()[role]
    }
}

/// A running daemon; dropping it stops the server and joins its thread.
struct Daemon {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<Result<(), ServerError>>>,
    /// A clone of the daemon's engine (clones share the correlation cache).
    engine: Engine,
    /// Stored hashes of every corpus trace, by scenario and role.
    hashes: Vec<[u64; 4]>,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            match thread.join() {
                Ok(Err(e)) => eprintln!("serve_mixed: server exited with {e}"),
                Err(_) => eprintln!("serve_mixed: server thread panicked"),
                Ok(Ok(())) => {}
            }
        }
    }
}

fn connect(addr: &str, seed: u64) -> Result<Client, String> {
    Client::connect_with_retry(
        addr,
        Duration::from_secs(60),
        RetryPolicy::default().with_seed(seed),
    )
    .map_err(|e| format!("connect: {e}"))
}

impl Daemon {
    /// Binds a daemon with the default configuration (observability as given), puts
    /// every corpus file and issues every stored diff and analysis once, so the
    /// measured reads are warm.
    fn start(dir: &Path, inputs: &Inputs, obs: Obs) -> Result<Daemon, String> {
        let engine = Engine::new();
        let mut config = ServerConfig::new("127.0.0.1:0", dir);
        config.engine = engine.clone();
        config.obs = Some(obs);
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let stop = server.stop_handle();
        let mut daemon = Daemon {
            addr,
            stop,
            thread: Some(std::thread::spawn(move || server.run())),
            engine,
            hashes: Vec::new(),
        };
        let mut client = connect(&daemon.addr, 0)?;
        for scenario in &inputs.corpus {
            let mut hashes = [0u64; 4];
            for (hash, path) in hashes.iter_mut().zip(&scenario.files) {
                *hash = client.put_path(path).map_err(|e| format!("put: {e}"))?.hash;
            }
            daemon.hashes.push(hashes);
        }
        for (s, l, r, _) in &inputs.pairs {
            let h = daemon.hashes[*s];
            client
                .diff(h[*l], h[*r], MAX_SEQUENCES)
                .map_err(|e| format!("warm diff: {e}"))?;
        }
        for (s, scenario) in inputs.corpus.iter().enumerate() {
            client
                .analyze(daemon.hashes[s], scenario.mode, MAX_SEQUENCES)
                .map_err(|e| format!("warm analyze: {e}"))?;
        }
        Ok(daemon)
    }
}

/// A sparse, seeded mutation of `trace`: one entry dropped, one duplicated, and a
/// distinct name, so every blob is new content.
fn mutated(trace: &Trace, name: String, rng: &mut Rng) -> Trace {
    let drop_at = rng.usize(0, trace.len());
    let dup_at = rng.usize(0, trace.len());
    let mut meta = trace.meta.clone();
    meta.name = name;
    let mut out = Trace::new(meta);
    for (i, entry) in trace.iter().enumerate() {
        if i != drop_at {
            out.push(entry.clone());
        }
        if i == dup_at {
            out.push(entry.clone());
        }
    }
    out
}

fn setup(dir: &Path, seed: u64, blobs: usize) -> Result<(Inputs, Daemon), String> {
    let corpus = corpus::build(&dir.join("corpus"), seed)?;
    let engine = Engine::new();
    let mut pairs = Vec::new();
    for (s, scenario) in corpus.iter().enumerate() {
        let handles = scenario.traces.handles();
        for (l, r) in PAIR_ROLES {
            let result = engine
                .diff(handles[l], handles[r])
                .map_err(|e| format!("reference diff: {e}"))?;
            pairs.push((s, l, r, WireDiff::from_result(&result, String::new())));
        }
    }
    let mut rng = Rng::new(seed ^ 0x5151_5151);
    let parents = corpus.len() * 4;
    let mut encoded = Vec::with_capacity(blobs);
    for i in 0..blobs {
        let (s, role) = ((i % parents) / 4, i % 4);
        let parent = corpus[s].traces.handles()[role].trace();
        let blob = mutated(parent, format!("ingest-{seed}-{i}"), &mut rng);
        let bytes = rprism::format::trace_to_bytes(&blob, rprism::Encoding::Binary)
            .map_err(|e| format!("encoding blob: {e}"))?;
        encoded.push((s, role, bytes));
    }
    let inputs = Inputs {
        corpus,
        pairs,
        blobs: encoded,
    };
    let repo = dir.join("repo");
    std::fs::create_dir_all(&repo).map_err(|e| e.to_string())?;
    let daemon = Daemon::start(&repo, &inputs, Obs::disabled())?;
    Ok((inputs, daemon))
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Diff,
    Analyze,
    Put,
    ColdDiff,
}

/// What one client connection measured.
#[derive(Default)]
struct Log {
    /// `(kind, start offset in s, latency in ms)` of every request.
    requests: Vec<(Kind, f64, f64)>,
    ingest_ms: Vec<f64>,
    ok: u64,
    failed: u64,
    /// Cold diffs of ingested blobs, checked after the window: `(blob, response)`.
    cold: Vec<(usize, WireDiff)>,
    compare_ops: u64,
    diffs: u64,
    differing: u64,
    compared: u64,
    analyses: u64,
    candidates: u64,
}

impl Log {
    fn check(&mut self, ok: bool) {
        if ok {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }

    fn merge(&mut self, other: Log) {
        self.requests.extend(other.requests);
        self.ingest_ms.extend(other.ingest_ms);
        self.ok += other.ok;
        self.failed += other.failed;
        self.cold.extend(other.cold);
        self.compare_ops += other.compare_ops;
        self.diffs += other.diffs;
        self.differing += other.differing;
        self.compared += other.compared;
        self.analyses += other.analyses;
        self.candidates += other.candidates;
    }

    fn diff_seen(&mut self, diff: &WireDiff) {
        self.diffs += 1;
        self.compare_ops += diff.compare_ops;
        self.differing += diff.num_differences;
        self.compared += diff.left_len + diff.right_len;
    }
}

fn stripped(mut diff: WireDiff) -> WireDiff {
    diff.rendered.clear();
    diff
}

/// One client's closed loop until `stop`.
fn client_loop(
    inputs: &Inputs,
    daemon: &Daemon,
    seed: u64,
    epoch: Instant,
    stop: Instant,
    next_blob: &AtomicUsize,
    tr: &mut Tracer,
) -> Result<Log, String> {
    let mut client = connect(&daemon.addr, seed)?;
    let mut rng = Rng::new(seed);
    let mut log = Log::default();
    while Instant::now() < stop {
        let draw = rng.range(0, 100);
        let blob = if draw >= 90 {
            Some(next_blob.fetch_add(1, Ordering::Relaxed)).filter(|b| *b < inputs.blobs.len())
        } else {
            None
        };
        if let Some(b) = blob {
            let (s, role, bytes) = &inputs.blobs[b];
            let bytes = bytes.clone();
            let root = tr.begin_root("op.ingest");
            let t0 = Instant::now();
            let span = tr.begin("server.put");
            let put = client.put_bytes(bytes);
            tr.end(span);
            let put_ms = t0.elapsed().as_secs_f64() * 1e3;
            log.requests
                .push((Kind::Put, (t0 - epoch).as_secs_f64(), put_ms));
            let put = match put {
                Ok(put) if !put.deduped => put,
                Ok(_) => {
                    tr.end(root);
                    log.check(false);
                    eprintln!("serve_mixed: ingest blob {b} was deduplicated");
                    continue;
                }
                Err(e) => {
                    tr.end(root);
                    log.check(false);
                    eprintln!("serve_mixed: put: {e}");
                    continue;
                }
            };
            let t1 = Instant::now();
            let span = tr.begin("server.diff");
            let diff = client.diff(daemon.hashes[*s][*role], put.hash, MAX_SEQUENCES);
            tr.end(span);
            tr.end(root);
            log.requests.push((
                Kind::ColdDiff,
                (t1 - epoch).as_secs_f64(),
                t1.elapsed().as_secs_f64() * 1e3,
            ));
            log.ingest_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match diff {
                Ok(diff) => {
                    log.diff_seen(&diff);
                    log.cold.push((b, stripped(diff)));
                }
                Err(e) => {
                    log.check(false);
                    eprintln!("serve_mixed: cold diff: {e}");
                }
            }
        } else if !(70..90).contains(&draw) {
            let (s, l, r, reference) = &inputs.pairs[rng.usize(0, inputs.pairs.len())];
            let h = daemon.hashes[*s];
            let root = tr.begin_root("op.diff");
            let t0 = Instant::now();
            let span = tr.begin("server.diff");
            let diff = client.diff(h[*l], h[*r], MAX_SEQUENCES);
            tr.end(span);
            tr.end(root);
            log.requests.push((
                Kind::Diff,
                (t0 - epoch).as_secs_f64(),
                t0.elapsed().as_secs_f64() * 1e3,
            ));
            match diff {
                Ok(diff) => {
                    log.diff_seen(&diff);
                    log.check(&stripped(diff) == reference);
                }
                Err(e) => {
                    log.check(false);
                    eprintln!("serve_mixed: diff: {e}");
                }
            }
        } else {
            let s = rng.usize(0, inputs.corpus.len());
            let scenario = &inputs.corpus[s];
            let root = tr.begin_root("op.analyze");
            let t0 = Instant::now();
            let span = tr.begin("server.analyze");
            let report = client.analyze(daemon.hashes[s], scenario.mode, MAX_SEQUENCES);
            tr.end(span);
            tr.end(root);
            log.requests.push((
                Kind::Analyze,
                (t0 - epoch).as_secs_f64(),
                t0.elapsed().as_secs_f64() * 1e3,
            ));
            match report {
                Ok(mut report) => {
                    log.analyses += 1;
                    log.candidates += report.sequences.iter().filter(|(_, r)| *r).count() as u64;
                    report.rendered.clear();
                    log.check(report == scenario.reference);
                }
                Err(e) => {
                    log.check(false);
                    eprintln!("serve_mixed: analyze: {e}");
                }
            }
        }
    }
    Ok(log)
}

/// Runs both clients for `seconds`; returns their merged log, tracers and the
/// window's wall time.
fn window(
    inputs: &Inputs,
    daemon: &Daemon,
    seed: u64,
    seconds: f64,
    next_blob: &AtomicUsize,
    traced: bool,
) -> Result<(Log, Vec<Tracer>, f64), String> {
    let epoch = Instant::now();
    let stop = crate::deadline(seconds);
    let results: Vec<Result<(Log, Tracer), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let mut tr = if traced {
                        Tracer::new(epoch)
                    } else {
                        Tracer::disabled()
                    };
                    let client_seed = seed.wrapping_mul(0x100) + c as u64 + 1;
                    client_loop(inputs, daemon, client_seed, epoch, stop, next_blob, &mut tr)
                        .map(|log| (log, tr))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let elapsed = epoch.elapsed().as_secs_f64();
    let mut merged = Log::default();
    let mut tracers = Vec::new();
    for result in results {
        let (log, tr) = result?;
        merged.merge(log);
        tracers.push(tr);
    }
    // Cold diffs are checked here, outside the measured window, against a local
    // engine diff of the in-memory parent and the decoded blob.
    let engine = Engine::new();
    for (b, response) in std::mem::take(&mut merged.cold) {
        let (s, role, bytes) = &inputs.blobs[b];
        let ok = rprism::format::trace_from_bytes(bytes)
            .map_err(|e| e.to_string())
            .and_then(|t| {
                engine
                    .diff(inputs.trace(*s, *role), &PreparedTrace::new(t))
                    .map_err(|e| e.to_string())
            })
            .map(|local| WireDiff::from_result(&local, String::new()) == response)
            .unwrap_or(false);
        merged.check(ok);
    }
    if next_blob.load(Ordering::Relaxed) > inputs.blobs.len() {
        eprintln!("serve_mixed: ingest blobs ran out; later ingest draws became diffs");
    }
    Ok((merged, tracers, elapsed))
}

fn latencies(log: &Log, kind: Kind) -> Vec<f64> {
    log.requests
        .iter()
        .filter(|(k, _, _)| *k == kind)
        .map(|(_, _, ms)| *ms)
        .collect()
}

/// `(sum in µs, count)` of daemon histogram `name` in a Prometheus exposition.
fn histogram(text: &str, name: &str) -> (f64, f64) {
    let base = format!("rprism_{}", name.replace('.', "_"));
    let sample = |suffix: &str| {
        let key = format!("{base}{suffix} ");
        text.lines()
            .find_map(|line| line.strip_prefix(&key))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (sample("_sum"), sample("_count"))
}

/// What the daemon and the process-global client counters report at one instant.
struct Scrape {
    metrics: String,
    prepared_hits: u64,
    prepared_misses: u64,
    correlation_builds: u64,
    retries: u64,
    busy: u64,
}

impl Scrape {
    fn take(daemon: &Daemon) -> Result<Scrape, String> {
        let mut client = connect(&daemon.addr, 7)?;
        let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let global = rprism_obs::global().snapshot();
        Ok(Scrape {
            metrics,
            prepared_hits: stats.prepared_hits,
            prepared_misses: stats.prepared_misses,
            correlation_builds: daemon.engine.correlation_builds(),
            retries: global.counter("client.retries").unwrap_or(0),
            busy: global.counter("client.busy_backoffs").unwrap_or(0),
        })
    }

    /// `(sum in ms, count)` of histogram `name` between `self` and `later`.
    fn delta(&self, later: &Scrape, name: &str) -> (f64, f64) {
        let (s0, c0) = histogram(&self.metrics, name);
        let (s1, c1) = histogram(&later.metrics, name);
        ((s1 - s0) / 1e3, c1 - c0)
    }

    fn mean_ms(&self, later: &Scrape, name: &str) -> f64 {
        let (sum, count) = self.delta(later, name);
        stats::ratio(sum, count)
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let blobs = BLOBS_PER_SECOND * args.seconds as usize;
    let ((inputs, daemon), setup_s) =
        crate::repeated_setup(work, |dir| setup(dir, args.seed, blobs))?;
    let next_blob = AtomicUsize::new(0);
    let mut out = Outcome::default();
    corpus::properties(&inputs.corpus).report(&mut out);
    let seconds = args.window();

    let (log, _, elapsed) = window(&inputs, &daemon, args.seed, seconds, &next_blob, false)?;
    drop(daemon);
    out.attempted += log.ok + log.failed;
    out.failed += log.failed;
    // The served diffs' own share of differing entries (pairs A, B and C, plus cold
    // diffs), in place of the corpus's suspected-pair share.
    out.set(
        "workload.diff_entry_share",
        stats::ratio(log.differing as f64, log.compared as f64),
    );
    if !args.trace {
        let ops: Vec<(f64, f64)> = log.requests.iter().map(|(_, t, ms)| (*t, *ms)).collect();
        let (per_s, p50, p90) = stats::sliced(&ops, seconds);
        out.set("setup_s", setup_s);
        out.set("ops_per_s", per_s);
        out.set("op_p50_ms", p50);
        out.set("op_p90_ms", p90);
        return Ok(out);
    }
    let per_s = log.requests.len() as f64 / elapsed;
    let diffs = latencies(&log, Kind::Diff);
    out.set("serve_ops_per_s", per_s);
    out.set("remote_diff_p50_ms", stats::median(&diffs));
    out.set("remote_diff_p99_ms", stats::quantile(&diffs, 0.99));
    out.set(
        "remote_analyze_p50_ms",
        stats::median(&latencies(&log, Kind::Analyze)),
    );
    out.set("remote_ingest_p50_ms", stats::median(&log.ingest_ms));
    // Untraced op walls by the traced run's op names (an ingest op is put + cold diff).
    let untraced = BTreeMap::from([
        ("op.diff", diffs),
        ("op.analyze", latencies(&log, Kind::Analyze)),
        ("op.ingest", log.ingest_ms.clone()),
    ]);

    // Traced half: a daemon with observability on, client spans around each call.
    let repo = work.subdir("traced-repo").map_err(|e| e.to_string())?;
    let daemon = Daemon::start(&repo, &inputs, Obs::enabled())?;
    let before = Scrape::take(&daemon)?;
    let (log, tracers, _) = window(&inputs, &daemon, args.seed ^ 1, seconds, &next_blob, true)?;
    let after = Scrape::take(&daemon)?;
    drop(daemon);
    out.attempted += log.ok + log.failed;
    out.failed += log.failed;

    let mut b = Breakdown::default();
    for tr in &tracers {
        b.add(tr.spans());
    }
    // Daemon histograms place parts of the server calls in other layers: the engine's
    // diff (correlation of a cold pair plus the scan) in `diff`, streamed loads of
    // cold blobs in `core`, and their decode, key and web phases in their layers.
    let ns = |name: &str| (before.delta(&after, name).0 * 1e6) as u64;
    b.reattribute("server", "diff", ns("pipeline.scan"));
    b.reattribute("server", "core", ns("engine.load"));
    b.reattribute("core", "format", ns("pipeline.decode"));
    b.reattribute("core", "trace", ns("pipeline.key"));
    b.reattribute("core", "views", ns("pipeline.web"));
    b.report(&mut out, &untraced);
    let spans: Vec<&[tracer::Span]> = tracers.iter().map(|t| t.spans()).collect();
    tracer::write_spans(&tracer::spans_path(args), &spans)
        .map_err(|e| format!("writing spans: {e}"))?;

    for (kind, rtt, request, queue) in [
        (
            "diff",
            "server.client_rtt_ms.diff",
            "server.request_ms.diff",
            "server.wire_queue_ms.diff",
        ),
        (
            "analyze",
            "server.client_rtt_ms.analyze",
            "server.request_ms.analyze",
            "server.wire_queue_ms.analyze",
        ),
        (
            "put",
            "server.client_rtt_ms.put",
            "server.request_ms.put",
            "server.wire_queue_ms.put",
        ),
    ] {
        let client_ms = b.mean_ms(&format!("server.{kind}"));
        let server_ms = before.mean_ms(&after, &format!("request.{kind}"));
        out.set(rtt, client_ms);
        out.set(request, server_ms);
        out.set(queue, client_ms - server_ms);
    }
    out.set("server.repo_put_ms", before.mean_ms(&after, "repo.put"));
    let hits = (after.prepared_hits - before.prepared_hits) as f64;
    let misses = (after.prepared_misses - before.prepared_misses) as f64;
    out.set(
        "server.prepared_hit_ratio",
        stats::ratio(hits, hits + misses),
    );
    out.set("server.busy_rejections", (after.busy - before.busy) as f64);
    out.set("client.retries", (after.retries - before.retries) as f64);
    out.set("diff.scan_ms", before.mean_ms(&after, "pipeline.scan"));
    out.set(
        "diff.compare_ops",
        stats::ratio(log.compare_ops as f64, log.diffs as f64),
    );
    out.set(
        "core.load_prepared_ms",
        before.mean_ms(&after, "engine.load"),
    );
    let lookups = (log.diffs + 3 * log.analyses) as f64;
    let builds = (after.correlation_builds - before.correlation_builds) as f64;
    out.set(
        "core.correlation_hit_ratio",
        1.0 - stats::ratio(builds, lookups),
    );
    out.set(
        "regress.candidate_sequences",
        stats::ratio(log.candidates as f64, log.analyses as f64),
    );
    Ok(out)
}
