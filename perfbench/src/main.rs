//! The rprism benchmark: three seeded workloads driven through the user-visible paths,
//! with outputs checked against references and a separate traced run that attributes
//! each operation's wall time to the workspace's layers.
//!
//! ```text
//! rprism-perfbench --workload <analyze_cold|serve_mixed|stream_large> --seed <n>
//!                  --seconds <s> --trace <0|1>
//! ```
//!
//! * `--trace 0` measures the closed loop for `--seconds` and reports the end-to-end
//!   metrics of [`END_TO_END`].
//! * `--trace 1` measures the same loop untraced for half the window, then performs
//!   each op through the layer calls under span recording for the other half, and
//!   reports the per-layer metrics of [`PER_LAYER`].
//!
//! The last line of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Inputs are generated from `--seed` into a
//! scratch directory under `.perfbench_work/` (removed on exit); traced runs write
//! their spans to `.perfbench_spans/<workload>-<seed>.jsonl`.

mod analyze_cold;
mod corpus;
mod serve_mixed;
mod stats;
mod stream_large;
mod tracer;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Metrics reported by an untraced run: `(name, unit)`. An op is one cold analysis
/// on `analyze_cold`, one client request on `serve_mixed`, and on `stream_large` one
/// sweep of check + watch + anchored-diff cycles over every trace pair. The op p90
/// is measured too but only printed on standard error: on a shared 2-core host it
/// moved by more than any usable bound between runs of the same code.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// Metrics reported by a traced run: `(name, unit)`. A metric of a layer that does no
/// work on a workload reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("failed_op_share", "share"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead", "share"),
    ("host.seed_replica_ms", "ms"),
    ("host.cores", "count"),
    ("workload.entries_per_trace", "count"),
    ("workload.diff_entry_share", "share"),
    ("workload.threads_per_trace", "count"),
    ("analyze_per_s", "1/s"),
    ("analyze_p50_ms", "ms"),
    ("analyze_p90_ms", "ms"),
    ("serve_ops_per_s", "1/s"),
    ("remote_diff_p50_ms", "ms"),
    ("remote_diff_p99_ms", "ms"),
    ("remote_analyze_p50_ms", "ms"),
    ("remote_ingest_p50_ms", "ms"),
    ("check_entries_per_s", "1/s"),
    ("watch_p50_ms", "ms"),
    ("anchored_diff_p50_ms", "ms"),
    ("self_share.format", "share"),
    ("self_share.trace", "share"),
    ("self_share.views", "share"),
    ("self_share.diff", "share"),
    ("self_share.regress", "share"),
    ("self_share.check", "share"),
    ("self_share.core", "share"),
    ("self_share.server", "share"),
    ("format.decode_ns_per_entry", "ns/entry"),
    ("trace.key_ns_per_entry", "ns/entry"),
    ("views.web_ns_per_entry", "ns/entry"),
    ("views.correlate_ms", "ms"),
    ("views.views_per_trace", "count"),
    ("diff.scan_ms", "ms"),
    ("diff.compare_ops", "count"),
    ("diff.session_push_ms", "ms"),
    ("diff.session_finish_ms", "ms"),
    ("diff.invalidations_per_match", "ratio"),
    ("diff.anchored_ms", "ms"),
    ("diff.anchored_pairs", "count"),
    ("regress.sets_ms", "ms"),
    ("regress.render_ms", "ms"),
    ("regress.candidate_sequences", "count"),
    ("check.rules_ns_per_entry", "ns/entry"),
    ("check.decode_share", "share"),
    ("core.load_prepared_ms", "ms"),
    ("core.ingest_overhead_share", "share"),
    ("core.correlation_hit_ratio", "ratio"),
    ("server.client_rtt_ms.diff", "ms"),
    ("server.client_rtt_ms.analyze", "ms"),
    ("server.client_rtt_ms.put", "ms"),
    ("server.request_ms.diff", "ms"),
    ("server.request_ms.analyze", "ms"),
    ("server.request_ms.put", "ms"),
    ("server.wire_queue_ms.diff", "ms"),
    ("server.wire_queue_ms.analyze", "ms"),
    ("server.wire_queue_ms.put", "ms"),
    ("server.repo_put_ms", "ms"),
    ("server.prepared_hit_ratio", "ratio"),
    ("server.busy_rejections", "count"),
    ("client.retries", "count"),
];

/// How many times each run performs its whole set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// What one workload run hands back for reporting.
#[derive(Default)]
pub struct Outcome {
    /// Ops attempted in the measured window(s).
    pub attempted: u64,
    /// Ops that errored or failed their oracle.
    pub failed: u64,
    /// Metric values by catalogue name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one op's oracle verdict.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

impl Args {
    /// Seconds each measured loop runs: the whole run, or each half of a traced run
    /// (untraced, then traced).
    pub fn window(&self) -> f64 {
        if self.trace {
            self.seconds as f64 / 2.0
        } else {
            self.seconds as f64
        }
    }
}

/// A per-run scratch directory inside the current directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> std::io::Result<WorkDir> {
        let dir = Path::new(".perfbench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh, empty subdirectory.
    pub fn subdir(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.0.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the only run.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

/// Runs `setup` [`SETUP_REPEATS`] times, each into a fresh subdirectory, and returns
/// the last state with the median set-up time in seconds. Earlier states are dropped
/// (and so shut down) before the next repeat starts.
pub fn repeated_setup<S>(
    work: &WorkDir,
    mut setup: impl FnMut(&Path) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for repeat in 0..SETUP_REPEATS {
        drop(state.take());
        let dir = work
            .subdir(&format!("setup-{repeat}"))
            .map_err(|e| format!("creating the set-up directory: {e}"))?;
        let start = Instant::now();
        state = Some(setup(&dir)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let state = state.expect("SETUP_REPEATS is at least 1");
    Ok((state, stats::median(&times)))
}

/// Process high-water resident set size in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// The frozen seed replica timed on a fixed trace pair (the `perf_smoke` shape:
/// range lower bound 32 vs 1, 400 iterations): the host-speed yardstick. Returns
/// the median of several timings in milliseconds.
pub fn seed_replica_ms() -> f64 {
    use rprism_lang::parser::parse_program;
    use rprism_trace::TraceMeta;
    use rprism_vm::{run_traced, VmConfig};

    let program = |min: i64| {
        format!(
            r#"
            class Ctr extends Object {{ Int i; }}
            class Range extends Object {{ Int min; Int max; }}
            class App extends Object {{
                Range r;
                Int hits;
                Unit setup() {{ this.r = new Range({min}, 127); }}
                Unit check(Int c) {{
                    if ((c >= this.r.min) && (c <= this.r.max)) {{ this.hits = this.hits + 1; }}
                }}
            }}
            main {{
                let a = new App(null, 0);
                a.setup();
                let c = new Ctr(0);
                while (c.i < 400) {{
                    a.check(c.i % 200);
                    c.i = c.i + 1;
                }}
            }}
            "#
        )
    };
    let run = |min: i64, label: &str| {
        let parsed = parse_program(&program(min)).expect("the yardstick program parses");
        run_traced(&parsed, TraceMeta::new(label, "", ""), VmConfig::default())
            .expect("the yardstick program validates")
            .trace
    };
    let (old, new) = (run(32, "old"), run(1, "new"));
    let options = rprism_diff::ViewsDiffOptions::default();
    let mut times = Vec::new();
    for _ in 0..7 {
        let start = Instant::now();
        std::hint::black_box(rprism_bench::seed_baseline::seed_views_diff(
            std::hint::black_box(&old),
            std::hint::black_box(&new),
            &options,
        ));
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    stats::median(&times)
}

/// The host yardstick, measured in every run.
pub fn host_metrics(out: &mut Outcome) {
    out.set("host.seed_replica_ms", seed_replica_ms());
    out.set(
        "host.cores",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
}

/// The closed loop's stop condition.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        eprintln!("perfbench: non-finite metric value {value}, reported as 0");
        "0".to_owned()
    }
}

/// Prints the result line. Measured values outside this mode's catalogue (the
/// workload properties and the host yardstick of an untraced run) go to standard
/// error, so every run records them.
fn print_result(args: &Args, outcome: &Outcome) {
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let extra: Vec<String> = outcome
        .metrics
        .iter()
        .filter(|(name, _)| !catalogue.iter().any(|(c, _)| c == *name))
        .map(|(name, value)| format!("{name}={value}"))
        .collect();
    if !extra.is_empty() {
        eprintln!("perfbench: also measured: {}", extra.join(" "));
    }
    let mut fields = Vec::with_capacity(catalogue.len());
    for (name, unit) in catalogue {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::create(args).map_err(|e| format!("creating the work directory: {e}"))?;
    let mut outcome = match args.workload.as_str() {
        "analyze_cold" => analyze_cold::run(args, &work)?,
        "serve_mixed" => serve_mixed::run(args, &work)?,
        "stream_large" => stream_large::run(args, &work)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    if !args.trace {
        outcome.set("peak_rss_mib", peak_rss_mib());
    }
    host_metrics(&mut outcome);
    outcome.set(
        "failed_op_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    Ok(outcome)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            if outcome.failed > 0 {
                eprintln!(
                    "perfbench: {} of {} ops failed their oracle",
                    outcome.failed, outcome.attempted
                );
            }
            print_result(&args, &outcome);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
