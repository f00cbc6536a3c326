//! Streaming trace ingestion: one bounded-memory pass from serialized bytes to
//! prepared analysis artifacts.
//!
//! The load-then-prepare path ([`Engine::load_trace`](crate::Engine::load_trace))
//! materializes a full [`Trace`](rprism_trace::Trace) — every entry with its owned
//! strings — and then re-walks it to derive the [`KeyedTrace`] and [`ViewWeb`]. For
//! multi-hundred-MB
//! traces that double-walks the data and, more importantly, keeps the whole decoded
//! trace resident for the lifetime of the handle.
//!
//! [`stream_prepare`] instead drives the [`TraceReader`] batch by batch and folds
//! **abstraction into ingestion** (the tracer-driver/TAAF design): as each entry is
//! decoded it is interned and keyed, appended to the incrementally extended view web,
//! and reduced to its [`LeanTrace`] context — then dropped. The whole pass runs on the
//! calling thread, one batch at a time: decode a batch, key it and reduce it to lean
//! context, extend the web with it, then decode the next batch into the same buffer.
//! At most one batch of [`BATCH_ENTRIES`] decoded entries is alive at any instant.
//!
//! There are no worker threads. Running the three stages as a pipeline over bounded
//! channels was measured slower than this sequential fold on a two-core host: the
//! per-batch stages are short, so channel hand-offs and cache traffic between cores
//! cost more than the overlap saves.
//!
//! Peak memory is therefore O(accumulated artifacts) — lean contexts, keys, web —
//! rather than O(decoded trace); the `streaming_ingest` measurement of `perf_smoke`
//! (BENCH_4.json) and the counting-allocator test in `crates/core/tests` pin the
//! resulting ≥2× peak reduction down.
//!
//! The pass produces artifacts *identical* to the load-then-prepare path: the web is
//! extended in entry order ([`ViewWeb::extend`]), keys are pushed in entry order, and
//! the lean context captures exactly the fields the differencer and the regression
//! analysis read. The workspace-level `streaming_equivalence` suite asserts identical
//! matchings, difference signatures and compare counts on all four case studies.
//!
//! One deliberate trade-off: the load-then-prepare path defers interning until after
//! the checksum footer has validated the whole stream, whereas streaming ingestion
//! interns names *as they arrive* — a corrupt file that fails late can leave already
//! interned strings behind (bounded by the bytes read). Callers ingesting wholly
//! untrusted data who cannot accept that should use
//! [`Engine::load_trace`](crate::Engine::load_trace).

use std::io::BufRead;
use std::time::{Duration, Instant};

use rprism_format::{FormatError, TraceReader};
use rprism_trace::{KeyedTrace, LeanTrace, TraceEntry, TraceMeta};
use rprism_views::ViewWeb;

/// Entries decoded per batch. Batching amortizes per-call dispatch and timing; the
/// value bounds the number of fully decoded entries alive at any instant.
pub const BATCH_ENTRIES: usize = 256;

/// The artifacts one streaming pass accumulates: everything a prepared handle needs,
/// with the full trace replaced by its [`LeanTrace`] reduction.
#[derive(Debug)]
pub struct StreamedArtifacts {
    /// Trace identification from the stream header.
    pub meta: TraceMeta,
    /// Lean per-entry context (thread ids, interned names, object identities).
    pub lean: LeanTrace,
    /// Precomputed event keys, identical to `KeyedTrace::build` over the full trace.
    pub keyed: KeyedTrace,
    /// The view web, identical to `ViewWeb::build` over the full trace.
    pub web: ViewWeb,
}

impl StreamedArtifacts {
    /// Number of ingested entries.
    pub fn len(&self) -> usize {
        self.lean.len()
    }

    /// Returns `true` when the stream contained no entries.
    pub fn is_empty(&self) -> bool {
        self.lean.is_empty()
    }
}

/// Wall time the three ingest phases accumulated over one streaming pass. Timing is
/// per batch (two `Instant` reads per phase per 256 entries), so the cost of always
/// collecting it is noise. The phases run one after another on one thread and never
/// overlap, so their sum is at most the pass's elapsed wall time.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimes {
    /// Decoding batches off the reader (checksums, varints, string heap).
    pub decode: Duration,
    /// Keyed-trace and lean-context construction.
    pub key: Duration,
    /// View-web extension.
    pub web: Duration,
}

/// Drives a [`TraceReader`] to completion, building the prepared artifacts in one
/// bounded-memory pass on the calling thread, and reports how long each ingest phase
/// took ([`PhaseTimes`]; the engine records them into the `pipeline.decode` /
/// `pipeline.key` / `pipeline.web` histograms).
///
/// `observe` is called once for every decoded entry, in entry order, while the entry
/// is still alive — before the pass keys it and drops it. This is how ingest-time
/// analyses (the `rprism-check` streaming checker behind
/// `EngineBuilder::check_on_ingest`) see every entry without a second decode pass and
/// without the ingest layer depending on them. The observer shares the pass's memory
/// bound: it borrows each entry transiently and must not retain it. Pass `|_| {}`
/// when nothing rides along.
///
/// # Errors
///
/// Propagates the first [`FormatError`] of the stream (truncation, corruption,
/// checksum mismatch, …). Nothing is retained on error — the partial artifacts are
/// dropped with the call frame, so a failed ingest leaves no residue beyond interned
/// name strings (see the module docs).
pub fn stream_prepare<R: BufRead>(
    mut reader: TraceReader<R>,
    mut observe: impl FnMut(&TraceEntry),
) -> Result<(StreamedArtifacts, PhaseTimes), FormatError> {
    let meta = reader.meta().clone();
    let mut lean = LeanTrace::new(meta.clone());
    let mut keyed = KeyedTrace::default();
    let mut web = ViewWeb::empty();
    let mut batch = Vec::with_capacity(BATCH_ENTRIES);
    let mut index = 0usize;
    let mut times = PhaseTimes::default();
    loop {
        let decode_start = Instant::now();
        let n = reader.read_batch(&mut batch, BATCH_ENTRIES)?;
        times.decode += decode_start.elapsed();
        if n == 0 {
            break;
        }
        for entry in &batch {
            observe(entry);
        }
        let key_start = Instant::now();
        for entry in &batch {
            lean.push(entry);
            keyed.push_entry(entry);
        }
        times.key += key_start.elapsed();
        let web_start = Instant::now();
        for entry in &batch {
            web.extend(index, entry);
            index += 1;
        }
        times.web += web_start.elapsed();
    }
    Ok((
        StreamedArtifacts {
            meta,
            lean,
            keyed,
            web,
        },
        times,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rprism_format::{trace_to_bytes, Encoding};
    use rprism_trace::testgen::{arbitrary_trace, Rng};
    use std::io::BufReader;

    fn streamed(trace: &rprism_trace::Trace) -> StreamedArtifacts {
        let bytes = trace_to_bytes(trace, Encoding::Binary).unwrap();
        let reader = TraceReader::new(BufReader::new(bytes.as_slice())).unwrap();
        stream_prepare(reader, |_| {}).unwrap().0
    }

    #[test]
    fn streamed_artifacts_match_whole_trace_builds() {
        let mut rng = Rng::new(0x1157);
        let trace = arbitrary_trace(&mut rng, 1500);
        let reference_keyed = KeyedTrace::build(&trace);
        let reference_web = ViewWeb::build(&trace);
        let artifacts = streamed(&trace);
        assert_eq!(artifacts.meta, trace.meta);
        assert_eq!(artifacts.len(), trace.len());
        assert_eq!(artifacts.keyed.len(), reference_keyed.len());
        for i in 0..trace.len() {
            assert!(
                artifacts.keyed.key_eq(i, &reference_keyed, i),
                "key {i} diverged"
            );
        }
        assert_eq!(artifacts.web.total_views(), reference_web.total_views());
        for (id, view) in reference_web.views_with_ids() {
            assert_eq!(
                artifacts.web.view_by_id(id).entries,
                view.entries,
                "view {id:?} diverged"
            );
        }
    }

    #[test]
    fn truncated_streams_error_and_leave_nothing_behind() {
        let mut rng = Rng::new(0xdead);
        let trace = arbitrary_trace(&mut rng, 300);
        let bytes = trace_to_bytes(&trace, Encoding::Binary).unwrap();
        let cut = &bytes[..bytes.len() * 2 / 3];
        let reader = TraceReader::new(BufReader::new(cut)).unwrap();
        assert!(stream_prepare(reader, |_| {}).is_err());
    }
}
