//! The regression corpus shared by `analyze_cold` and `serve_mixed`: a seeded draw of
//! Rhino-like injected bugs plus the four §5.2 case studies, traced and written as
//! binary `.rtr` files.

use std::path::{Path, PathBuf};

use rprism::format::Encoding;
use rprism::{AnalysisMode, Engine, RegressionInput};
use rprism_server::proto::WireReport;
use rprism_workloads::{casestudies, dataset, RhinoConfig, ScenarioTraces};

/// Injected bugs drawn per run (each a 4-trace scenario of about 6k entries).
pub const RHINO_BUGS: usize = 24;

/// One regression scenario: its four trace files (in [`ScenarioTraces::ROLES`]
/// order), the in-memory traces they were written from, and the reference report.
pub struct CorpusScenario {
    pub files: [PathBuf; 4],
    pub mode: Option<AnalysisMode>,
    pub traces: ScenarioTraces,
    /// The analysis of the full in-memory handles, with an empty rendering.
    pub reference: WireReport,
}

impl CorpusScenario {
    pub fn memory_input(&self) -> &RegressionInput {
        &self.traces.traces
    }
}

/// Measured properties of the corpus inputs.
pub struct CorpusProperties {
    pub entries_per_trace: f64,
    pub threads_per_trace: f64,
    pub views_per_trace: f64,
    /// Share of suspected-comparison entries inside difference sequences.
    pub diff_entry_share: f64,
}

/// Generates, traces and writes the corpus for `seed` into `dir`, and computes each
/// scenario's reference report from the in-memory traces.
pub fn build(dir: &Path, seed: u64) -> Result<Vec<CorpusScenario>, String> {
    // Seeds 1000 apart keep the draws of neighbouring run seeds disjoint (a draw
    // tries at most 10 seeds per bug).
    let bugs = dataset(seed.wrapping_mul(1000), RHINO_BUGS, &RhinoConfig::default());
    if bugs.len() < RHINO_BUGS {
        return Err(format!(
            "rhino draw for seed {seed} produced only {} bugs",
            bugs.len()
        ));
    }
    let scenarios = bugs
        .into_iter()
        .map(|bug| bug.scenario)
        .chain(casestudies::all());
    let engine = Engine::new();
    let mut out = Vec::new();
    for (i, scenario) in scenarios.enumerate() {
        let traces = scenario
            .trace_all()
            .map_err(|e| format!("tracing {}: {e}", scenario.name))?;
        let paths = traces
            .export(dir, &format!("s{i}"), Encoding::Binary)
            .map_err(|e| format!("writing {}: {e}", scenario.name))?;
        let report = engine
            .analyze(&traces.traces)
            .map_err(|e| format!("reference analysis of {}: {e}", scenario.name))?;
        out.push(CorpusScenario {
            files: [
                paths[0].clone(),
                paths[1].clone(),
                paths[2].clone(),
                paths[3].clone(),
            ],
            mode: traces.traces.mode,
            reference: WireReport::from_report(&report, String::new()),
            traces,
        });
    }
    Ok(out)
}

pub fn properties(corpus: &[CorpusScenario]) -> CorpusProperties {
    let (mut traces, mut entries, mut threads, mut views) = (0.0, 0.0, 0.0, 0.0);
    let (mut diff_entries, mut compared) = (0.0, 0.0);
    for scenario in corpus {
        for handle in scenario.traces.handles() {
            traces += 1.0;
            entries += handle.len() as f64;
            threads += handle.trace().thread_ids().len() as f64;
            views += handle.web().total_views() as f64;
        }
        let input = scenario.memory_input();
        compared += (input.old_regressing.len() + input.new_regressing.len()) as f64;
        diff_entries += scenario
            .reference
            .sequences
            .iter()
            .map(|(s, _)| (s.left.len() + s.right.len()) as f64)
            .sum::<f64>();
    }
    CorpusProperties {
        entries_per_trace: entries / traces,
        threads_per_trace: threads / traces,
        views_per_trace: views / traces,
        diff_entry_share: crate::stats::ratio(diff_entries, compared),
    }
}

impl CorpusProperties {
    pub fn report(&self, out: &mut crate::Outcome) {
        out.set("workload.entries_per_trace", self.entries_per_trace);
        out.set("workload.threads_per_trace", self.threads_per_trace);
        out.set("workload.diff_entry_share", self.diff_entry_share);
        out.set("views.views_per_trace", self.views_per_trace);
    }
}
