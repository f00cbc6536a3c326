//! The framed wire protocol of the trace-repository daemon.
//!
//! Every message travels as one frame ([`rprism_format::frame`]): a canonical LEB128
//! length prefix, the payload, and the FNV-64 checksum of the payload — the varint and
//! checksum machinery of the on-disk trace format, reused on the wire. Inside a frame,
//! the payload opens with the protocol version byte and a message tag, followed by the
//! message fields in the same primitive vocabulary the binary trace encoding uses.
//!
//! The protocol is a strict request/response alternation per connection: the client
//! writes one request frame, the server answers with exactly one response frame, and
//! either side may close between exchanges. Malformed input never kills the server —
//! an undecodable frame or message is answered with [`Response::Error`] (and the
//! connection closed when the stream itself can no longer be trusted, e.g. after a
//! checksum mismatch).
//!
//! Results cross the wire in **canonical, process-independent form**: matchings as
//! normalized index pairs, difference sequences as index lists, and
//! [`DiffSignature`]s with their interned symbols spelled back out as strings
//! ([`WireSignature`]) — the client re-interns them into its own process and obtains
//! signatures equal to what a local analysis of the same traces would produce. The
//! `remote_equivalence` integration suite pins exactly that.
//!
//! # The codec
//!
//! Each wire message is described once. One `Wire` trait pairs `put` with `get`,
//! and both directions of every message and struct come from a single field list,
//! written in the order the fields travel.
//!
//! * **Primitives.** `u64`, `u32` and `usize` are canonical LEB128 varints; a
//!   decoded value too large for `u32`/`usize` is a decode error. `bool` is one
//!   strict byte, `0` or `1`. The fieldless enums (`EventKind`, `Severity`,
//!   [`WireAlgorithm`], `AnalysisMode`) are one byte each, through one two-way byte
//!   table per enum; a byte outside the table is a decode error.
//! * **Blob versus list.** A `Vec<u8>` is a *blob*: a varint length, then the bytes,
//!   copied out in one slice after the length is checked against the payload. Any
//!   other `Vec<T>` is a *list*: a varint count, then the items, pushed one at a time,
//!   so a count read from the input never sizes an allocation. A `String` is a blob
//!   that must be UTF-8. Tuples are their fields in order.
//! * **Optional fields** have three shapes, fixed by the frames that introduced them:
//!   - a generic `Option` is a 0/1 presence byte, then the value
//!     ([`WireSignature::name`]);
//!   - `ZeroIsNone`: one byte, where `0` means `None` and any other byte is the
//!     table value (`Request::Analyze::mode`; `AnalyzeOk` carries a plain mode and
//!     refuses `0`);
//!   - `Trailing`: absent when `None` and read only if bytes remain, so a message
//!     without it is byte-identical to the frame that predates the field
//!     (`Request::Diff::algorithm`, `Request::Analyze::algorithm`).
//! * **Per-tag minimum versions.** The message tables (`wire_enum!` invocations for
//!   [`Request`] and [`Response`]) map each variant to its tag byte, the protocol
//!   version that introduced the tag and, for requests, the `request.*` span the
//!   server opens around it. A frame whose version byte predates its tag is refused
//!   with "requires protocol version N".
//!
//! **Adding a message** takes one table row — tag, `since` version, span name for a
//! request, variant and field list — plus a `wire_struct!` field list for any new
//! struct it carries. Bump [`PROTO_VERSION`] when the row adds a tag.

use rprism::check::{rules, Diagnostic};
use rprism::{
    AnalysisMode, CheckReport, ProvisionalEvent, RegressionReport, Severity, TraceDiffResult,
};
use rprism_diff::DiffSequence;
use rprism_format::error::{FormatError, Result as FormatResult};
use rprism_format::varint::{self, ByteSource as _};
use rprism_regress::{DiffSet, DiffSignature};
use rprism_trace::{intern, EventKind, Symbol, ValueFingerprint};

/// The wire-protocol version; bumped on any message change. Every payload starts
/// with this byte.
///
/// Version 2 added the [`Response::Busy`] load-shed frame, the
/// [`Response::Corrupt`] quarantine answer, and the recovery counters at the end
/// of [`WireStats`]. Version 3 added [`Request::Check`] / [`Response::CheckOk`].
/// Version 4 added the live-watch exchange — [`Request::WatchStart`],
/// [`Request::PutStream`], [`Response::WatchStarted`], [`Response::WatchEvent`],
/// [`Response::WatchDone`] — and the structured [`Response::CheckDenied`] answer
/// for a watch aborted by the server's ingest check. Version 5 added the
/// observability pair — [`Request::Metrics`] / [`Response::MetricsOk`] (the
/// server-rendered Prometheus exposition) and [`Request::ObsTrace`] /
/// [`Response::ObsTraceOk`] (the server's own recent execution serialized as a
/// canonical trace blob).
///
/// Encoders always stamp the current version; decoders accept every version from
/// [`MIN_PROTO_VERSION`] up, and each message tag carries the version that
/// introduced it — so a version-2 peer keeps working against a version-5 server
/// for every version-2 message, while a version-2 frame carrying a newer tag
/// is refused with a structured decode error (which the server answers with an
/// error frame, keeping the connection alive) instead of a garbled decode.
pub const PROTO_VERSION: u8 = 5;

/// The oldest protocol version the decoders still accept (see [`PROTO_VERSION`]).
pub const MIN_PROTO_VERSION: u8 = 2;

/// The differencing algorithm a [`Request::Diff`] / [`Request::Analyze`] asks the
/// server to use. Only the family travels on the wire: the server runs it with the
/// family's default options, exactly as the local CLI's `--algorithm` does, so a
/// remote override and a local one produce the same result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireAlgorithm {
    /// Views-based differencing (§3.3) — the server default.
    Views,
    /// The quadratic LCS baseline (§3.2).
    Lcs,
    /// Anchor-based (patience/histogram) differencing: near-linear on huge traces,
    /// verdict-equivalent to the exact modes but matchings may legitimately differ.
    Anchored,
}

/// One client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Store a serialized trace (either encoding); the server replies with its
    /// content hash and whether it was already present.
    Put {
        /// The serialized trace bytes, exactly as they would sit in a file.
        bytes: Vec<u8>,
    },
    /// Fetch the stored blob of a content hash.
    Get {
        /// The content hash ([`rprism_format::content_hash`]) of the trace.
        hash: u64,
    },
    /// List the repository's traces.
    List,
    /// Semantically difference two stored traces.
    Diff {
        /// Content hash of the left (old) trace.
        left: u64,
        /// Content hash of the right (new) trace.
        right: u64,
        /// How many difference sequences the server renders into the textual report.
        max_sequences: u64,
        /// Differencing-algorithm override (`None` uses the server engine's default).
        ///
        /// Encoded as an *optional trailing byte*: requests without an override emit
        /// the exact pre-override frame, so old clients and old servers interoperate
        /// unchanged.
        algorithm: Option<WireAlgorithm>,
    },
    /// Run the §4.1 regression-cause analysis over four stored traces.
    Analyze {
        /// Content hash of the old-version, regressing-test trace.
        old_regressing: u64,
        /// Content hash of the new-version, regressing-test trace.
        new_regressing: u64,
        /// Content hash of the old-version, passing-test trace.
        old_passing: u64,
        /// Content hash of the new-version, passing-test trace.
        new_passing: u64,
        /// Analysis-mode override (`None` uses the server engine's default).
        mode: Option<AnalysisMode>,
        /// How many regression-related sequences the server renders into the textual
        /// report.
        max_sequences: u64,
        /// Differencing-algorithm override, trailing-optional exactly as in
        /// [`Request::Diff`].
        algorithm: Option<WireAlgorithm>,
    },
    /// Run the `rprism-check` static analysis over a stored trace (added in
    /// protocol version 3).
    Check {
        /// The content hash of the trace to check.
        hash: u64,
        /// Per-rule severity overrides (`rule id → severity`), applied in order on
        /// top of the rule defaults — the wire form of
        /// [`CheckConfig::overrides`](rprism::CheckConfig::overrides).
        overrides: Vec<(String, Severity)>,
    },
    /// Open a live watch against a stored trace (added in protocol version 4): the
    /// connection enters watch mode, and subsequent [`Request::PutStream`] chunks
    /// carry the growing new trace. The strict one-request/one-response alternation
    /// is preserved — every chunk is individually acknowledged.
    WatchStart {
        /// Content hash of the stored old (left) trace to diff against.
        old: u64,
        /// How many difference sequences the server renders into the final report.
        max_sequences: u64,
    },
    /// One chunk of the watched trace's serialized bytes (either encoding), cut at
    /// **arbitrary** byte boundaries — mid-record, mid-varint, even mid-header. The
    /// server resumes decoding exactly where the previous chunk stopped. Only valid
    /// after [`Request::WatchStart`] on the same connection.
    PutStream {
        /// The next serialized bytes, appended to everything sent before.
        bytes: Vec<u8>,
        /// `true` on the final chunk: the server drains its decoder with strict
        /// end-of-input semantics and answers [`Response::WatchDone`].
        last: bool,
    },
    /// Repository and cache statistics.
    Stats,
    /// The server's metrics rendered in the Prometheus text exposition format (added
    /// in protocol version 5). Rendering happens server-side from one consistent
    /// snapshot, so what a client prints is byte-identical to what the server saw.
    Metrics,
    /// The server's own recent execution — its pipeline/repo/request spans plus a
    /// metric snapshot — serialized as a canonical binary trace blob (added in
    /// protocol version 5). The blob loads like any stored trace: `rprism check`,
    /// `rprism diff`, `Engine::load_prepared` all accept it.
    ObsTrace,
    /// Gracefully stop the daemon: in-flight requests drain, then the listener exits.
    Shutdown,
}

/// One server response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Outcome of a [`Request::Put`].
    PutOk {
        /// The trace's content hash — the key for every later request.
        hash: u64,
        /// `true` when the repository already held this content (nothing was written).
        deduped: bool,
        /// Number of entries in the trace.
        entries: u64,
    },
    /// The stored blob bytes of a [`Request::Get`].
    GetOk {
        /// The blob exactly as stored.
        bytes: Vec<u8>,
    },
    /// The repository listing of a [`Request::List`].
    ListOk {
        /// One row per stored trace.
        entries: Vec<RepoEntry>,
    },
    /// The result of a [`Request::Diff`].
    DiffOk(WireDiff),
    /// The result of a [`Request::Analyze`].
    AnalyzeOk(WireReport),
    /// The result of a [`Request::Check`] (added in protocol version 3): the full
    /// structured [`CheckReport`], not a rendering — the client renders locally with
    /// the same code a local check uses, so `rprism remote check` output is
    /// byte-identical to `rprism check` over the same blob. Diagnostic rule ids are
    /// spelled out as strings on the wire and mapped back through the static rule
    /// registry on decode (an unknown id is a decode error).
    CheckOk(Box<CheckReport>),
    /// Acknowledges a [`Request::WatchStart`] (added in protocol version 4): the
    /// old trace is loaded and the connection is in watch mode.
    WatchStarted,
    /// Acknowledges a non-final [`Request::PutStream`] chunk with the provisional
    /// events the chunk produced (possibly none — e.g. the chunk ended mid-record).
    WatchEvent {
        /// Provisional events, in emission order.
        events: Vec<WireWatchEvent>,
    },
    /// Answers the final [`Request::PutStream`] chunk: the reconciliation events the
    /// finish produced plus the authoritative diff, byte-identical to a
    /// [`Request::Diff`] of the same pair.
    WatchDone {
        /// Final reconciliation events (authoritative pairs never reported
        /// provisionally, then retractions of provisional pairs the verdict dropped).
        events: Vec<WireWatchEvent>,
        /// The authoritative diff, rendered with the watch's `max_sequences`.
        diff: WireDiff,
    },
    /// The server's ingest check denied the watched trace mid-stream (added in
    /// protocol version 4): the full structured report travels back, the watch is
    /// torn down, and the connection stays open. Unlike [`Response::Error`], the
    /// client can render the diagnostics exactly as a local denied check would.
    CheckDenied(Box<CheckReport>),
    /// The statistics snapshot of a [`Request::Stats`].
    StatsOk(WireStats),
    /// The Prometheus text exposition of a [`Request::Metrics`] (added in protocol
    /// version 5).
    MetricsOk {
        /// The rendered exposition, exactly as the server would serve it.
        text: String,
    },
    /// The serialized self-trace of a [`Request::ObsTrace`] (added in protocol
    /// version 5).
    ObsTraceOk {
        /// The canonical binary `.rtr` bytes of the server's self-trace.
        bytes: Vec<u8>,
    },
    /// Acknowledges a [`Request::Shutdown`]; the daemon stops accepting connections.
    ShutdownOk,
    /// The server is saturated and shed this connection before serving any request;
    /// the connection closes after this frame. Clients with a retry policy back off
    /// at least the hinted delay and reconnect.
    Busy {
        /// Server-suggested minimum backoff before retrying.
        retry_after_ms: u32,
    },
    /// The named blob failed verification when read back and was quarantined. The
    /// repository stays up, and re-uploading the trace heals the entry — unlike
    /// [`Response::Error`], this failure names the hash so clients can do exactly
    /// that.
    Corrupt {
        /// The content hash whose blob was quarantined.
        hash: u64,
        /// Human-readable detail.
        message: String,
    },
    /// The request failed; the connection stays open unless the transport itself is
    /// compromised.
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

/// One repository listing row.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepoEntry {
    /// Content hash (the repository key).
    pub hash: u64,
    /// The trace's `meta.name`.
    pub name: String,
    /// Number of entries.
    pub entries: u64,
    /// On-disk blob size in bytes.
    pub bytes: u64,
}

/// A [`TraceDiffResult`] in canonical wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDiff {
    /// The differencing algorithm label (`"views"`, `"lcs"`).
    pub algorithm: String,
    /// Entry count of the left trace.
    pub left_len: u64,
    /// Entry count of the right trace.
    pub right_len: u64,
    /// The normalized similarity pairs of the matching (ascending left index).
    pub pairs: Vec<(u64, u64)>,
    /// The difference sequences.
    pub sequences: Vec<WireSequence>,
    /// Deterministic compare-operation count of the run.
    pub compare_ops: u64,
    /// Number of differing entries.
    pub num_differences: u64,
    /// The server-rendered textual diff (bounded by the request's `max_sequences`).
    pub rendered: String,
}

impl WireDiff {
    /// Builds the wire form of a local result plus its rendering.
    pub fn from_result(result: &TraceDiffResult, rendered: String) -> Self {
        WireDiff {
            algorithm: result.algorithm.to_owned(),
            left_len: result.matching.left_len() as u64,
            right_len: result.matching.right_len() as u64,
            pairs: result
                .matching
                .normalized_pairs()
                .into_iter()
                .map(|(l, r)| (l as u64, r as u64))
                .collect(),
            sequences: result.sequences.iter().map(WireSequence::from_sequence).collect(),
            compare_ops: result.cost.compare_ops,
            num_differences: result.num_differences() as u64,
            rendered,
        }
    }

    /// The sequences as local [`DiffSequence`] values (for equivalence checks).
    pub fn sequences_local(&self) -> Vec<DiffSequence> {
        self.sequences.iter().map(WireSequence::to_sequence).collect()
    }

    /// The matching pairs as `usize` tuples, the shape
    /// [`Matching::normalized_pairs`](rprism_diff::Matching::normalized_pairs) returns.
    pub fn pairs_local(&self) -> Vec<(usize, usize)> {
        self.pairs.iter().map(|&(l, r)| (l as usize, r as usize)).collect()
    }

    /// Number of difference sequences.
    pub fn num_sequences(&self) -> usize {
        self.sequences.len()
    }
}

/// A [`DiffSequence`] in wire form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSequence {
    /// Unmatched left-trace indices, ascending.
    pub left: Vec<u64>,
    /// Unmatched right-trace indices, ascending.
    pub right: Vec<u64>,
}

impl WireSequence {
    fn from_sequence(sequence: &DiffSequence) -> Self {
        WireSequence {
            left: sequence.left.iter().map(|&i| i as u64).collect(),
            right: sequence.right.iter().map(|&i| i as u64).collect(),
        }
    }

    fn to_sequence(&self) -> DiffSequence {
        DiffSequence {
            left: self.left.iter().map(|&i| i as usize).collect(),
            right: self.right.iter().map(|&i| i as usize).collect(),
        }
    }
}

/// A [`ProvisionalEvent`] in wire form (added in protocol version 4).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireWatchEvent {
    /// The pair entered the provisional similarity set.
    Match {
        /// Old-trace entry index.
        left: u64,
        /// New-trace entry index.
        right: u64,
    },
    /// A previously emitted pair was retracted.
    Invalidate {
        /// Old-trace entry index.
        left: u64,
        /// New-trace entry index.
        right: u64,
    },
    /// A provisionally divergent region; either side may be empty, never both.
    Difference {
        /// Skipped old-trace entry indices.
        left: Vec<u64>,
        /// Skipped new-trace entry indices.
        right: Vec<u64>,
    },
}

impl WireWatchEvent {
    /// Builds the wire form of a local provisional event.
    pub fn from_event(event: &ProvisionalEvent) -> Self {
        match event {
            ProvisionalEvent::Match { left, right } => WireWatchEvent::Match {
                left: *left as u64,
                right: *right as u64,
            },
            ProvisionalEvent::Invalidate { left, right } => WireWatchEvent::Invalidate {
                left: *left as u64,
                right: *right as u64,
            },
            ProvisionalEvent::Difference { left, right } => WireWatchEvent::Difference {
                left: left.iter().map(|&i| i as u64).collect(),
                right: right.iter().map(|&i| i as u64).collect(),
            },
        }
    }

    /// The event as the local type (for rendering and equivalence checks).
    pub fn to_event(&self) -> ProvisionalEvent {
        match self {
            WireWatchEvent::Match { left, right } => ProvisionalEvent::Match {
                left: *left as usize,
                right: *right as usize,
            },
            WireWatchEvent::Invalidate { left, right } => ProvisionalEvent::Invalidate {
                left: *left as usize,
                right: *right as usize,
            },
            WireWatchEvent::Difference { left, right } => ProvisionalEvent::Difference {
                left: left.iter().map(|&i| i as usize).collect(),
                right: right.iter().map(|&i| i as usize).collect(),
            },
        }
    }
}

/// A [`DiffSignature`] in wire form: every interned [`Symbol`] spelled out as its
/// string, so the signature survives the process boundary. [`WireSignature::to_signature`]
/// re-interns on the receiving side, producing a signature equal to what that process
/// would derive locally from the same trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireSignature {
    /// The event form.
    pub kind: EventKind,
    /// The field/method/class name the event mentions, if any.
    pub name: Option<String>,
    /// Class name and value fingerprint of every operand, in event order.
    pub operands: Vec<(String, u64)>,
    /// The enclosing method.
    pub method: String,
    /// The enclosing active-object class.
    pub active_class: String,
}

impl WireSignature {
    /// Spells out a local signature's symbols.
    pub fn from_signature(signature: &DiffSignature) -> Self {
        WireSignature {
            kind: signature.kind,
            name: signature.name.map(|s| s.as_str().to_owned()),
            operands: signature
                .operands
                .iter()
                .map(|&(class, fp)| (class.as_str().to_owned(), fp.0))
                .collect(),
            method: signature.method.as_str().to_owned(),
            active_class: signature.active_class.as_str().to_owned(),
        }
    }

    /// Re-interns the signature into this process.
    pub fn to_signature(&self) -> DiffSignature {
        DiffSignature {
            kind: self.kind,
            name: self.name.as_deref().map(intern),
            operands: self
                .operands
                .iter()
                .map(|(class, fp)| (intern(class), ValueFingerprint(*fp)))
                .collect::<Vec<(Symbol, ValueFingerprint)>>()
                .into(),
            method: intern(&self.method),
            active_class: intern(&self.active_class),
        }
    }
}

/// A [`RegressionReport`] in canonical wire form.
#[derive(Clone, Debug, PartialEq)]
pub struct WireReport {
    /// The differencing algorithm label.
    pub algorithm: String,
    /// The analysis mode that produced D.
    pub mode: AnalysisMode,
    /// The suspected differences A.
    pub suspected: Vec<WireSignature>,
    /// The expected differences B.
    pub expected: Vec<WireSignature>,
    /// The regression differences C.
    pub regression: Vec<WireSignature>,
    /// The candidate causes D.
    pub candidates: Vec<WireSignature>,
    /// Every suspected-comparison difference sequence with its regression verdict.
    pub sequences: Vec<(WireSequence, bool)>,
    /// Total compare operations across the three differencing runs.
    pub compare_ops: u64,
    /// The server-rendered textual report.
    pub rendered: String,
}

impl WireReport {
    /// Builds the wire form of a local report plus its rendering.
    pub fn from_report(report: &RegressionReport, rendered: String) -> Self {
        let set = |s: &DiffSet| -> Vec<WireSignature> {
            let mut signatures: Vec<WireSignature> =
                s.iter().map(WireSignature::from_signature).collect();
            // Deterministic wire order regardless of hash-set iteration (cached key:
            // one Debug rendering per signature, not two per comparison).
            signatures.sort_by_cached_key(|s| format!("{s:?}"));
            signatures
        };
        WireReport {
            algorithm: report.algorithm.to_owned(),
            mode: report.mode,
            suspected: set(&report.suspected),
            expected: set(&report.expected),
            regression: set(&report.regression),
            candidates: set(&report.candidates),
            sequences: report
                .sequences
                .iter()
                .map(|v| (WireSequence::from_sequence(&v.sequence), v.regression_related))
                .collect(),
            compare_ops: report.compare_ops,
            rendered,
        }
    }

    /// One of the four sets re-interned into a local [`DiffSet`].
    pub fn set_local(signatures: &[WireSignature]) -> DiffSet {
        let mut set = DiffSet::new();
        for signature in signatures {
            set.insert(signature.to_signature());
        }
        set
    }

    /// The regression-related verdicts, in sequence order.
    pub fn verdicts(&self) -> Vec<bool> {
        self.sequences.iter().map(|(_, related)| *related).collect()
    }
}

/// A repository/cache statistics snapshot in wire form.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Number of stored blobs.
    pub blobs: u64,
    /// Total on-disk blob bytes.
    pub blob_bytes: u64,
    /// Prepared handles currently cached.
    pub prepared_cached: u64,
    /// Weight of the cached handles against the byte budget.
    pub prepared_cached_bytes: u64,
    /// The configured prepared-cache byte budget.
    pub cache_budget_bytes: u64,
    /// Prepared-cache hits since startup.
    pub prepared_hits: u64,
    /// Prepared-cache misses (streaming loads) since startup.
    pub prepared_misses: u64,
    /// Prepared handles evicted by the byte budget since startup.
    pub evictions: u64,
    /// Uploads deduplicated against existing content since startup.
    pub dedup_hits: u64,
    /// Requests served since startup (all kinds).
    pub requests_served: u64,
    /// View correlations the shared engine actually built.
    pub correlation_builds: u64,
    /// Trace pairs currently in the engine's correlation cache.
    pub cached_correlations: u64,
    /// Orphaned staging files swept by startup recovery.
    pub orphans_removed: u64,
    /// Blobs quarantined after failing content verification.
    pub quarantined: u64,
    /// Watermark-triggered prepared-cache shrinks.
    pub cache_shrinks: u64,
}
// ---------------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------------

/// A value with one wire shape. `put` and `get` sit side by side, and every
/// message and struct below derives both from a single field list, so the two
/// directions cannot drift apart.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(dec: &mut Dec<'_>) -> FormatResult<Self>;
}

/// A cursor over a message payload. Every error carries the byte offset inside the
/// payload; structural errors are [`FormatError::Corrupt`].
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// The frame's version byte, checked against each tag's minimum version.
    version: u8,
}

impl Dec<'_> {
    fn corrupt(&self, detail: impl Into<String>) -> FormatError {
        FormatError::Corrupt {
            offset: self.pos as u64,
            detail: detail.into(),
        }
    }

    fn u8(&mut self) -> FormatResult<u8> {
        let byte = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| self.corrupt("message truncated"))?;
        self.pos += 1;
        Ok(byte)
    }

    /// Refuses a tag the frame's version predates: the peer claims a version it
    /// does not actually speak.
    fn require_version(&self, tag: u8, min: u8) -> FormatResult<()> {
        if self.version < min {
            return Err(self.corrupt(format!(
                "message tag {tag:#04x} requires protocol version {min}, frame is version {}",
                self.version
            )));
        }
        Ok(())
    }

    fn finish(&self) -> FormatResult<()> {
        if self.pos != self.bytes.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the message",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Wire for u64 {
    fn put(&self, buf: &mut Vec<u8>) {
        varint::write_u64(buf, *self);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let mut source = varint::SliceSource::new(&dec.bytes[dec.pos..], dec.pos as u64);
        let value = varint::read_u64(&mut source)?;
        dec.pos = source.offset() as usize;
        Ok(value)
    }
}

impl Wire for usize {
    fn put(&self, buf: &mut Vec<u8>) {
        (*self as u64).put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let value = u64::get(dec)?;
        usize::try_from(value).map_err(|_| dec.corrupt("count overflows usize"))
    }
}

impl Wire for u32 {
    fn put(&self, buf: &mut Vec<u8>) {
        u64::from(*self).put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let value = u64::get(dec)?;
        u32::try_from(value).map_err(|_| dec.corrupt("value overflows u32"))
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        match dec.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(dec.corrupt(format!("invalid boolean byte {other:#04x}"))),
        }
    }
}

/// A byte blob: a length, then the bytes.
fn put_blob(bytes: &[u8], buf: &mut Vec<u8>) {
    bytes.len().put(buf);
    buf.extend_from_slice(bytes);
}

/// A blob, copied out in one slice.
impl Wire for Vec<u8> {
    fn put(&self, buf: &mut Vec<u8>) {
        put_blob(self, buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let len = usize::try_from(u64::get(dec)?)
            .map_err(|_| dec.corrupt("length overflows usize"))?;
        let end = dec
            .pos
            .checked_add(len)
            .filter(|&end| end <= dec.bytes.len())
            .ok_or_else(|| dec.corrupt(format!("field of {len} bytes overruns the message")))?;
        let out = dec.bytes[dec.pos..end].to_vec();
        dec.pos = end;
        Ok(out)
    }
}

/// A blob that must be UTF-8.
impl Wire for String {
    fn put(&self, buf: &mut Vec<u8>) {
        put_blob(self.as_bytes(), buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        String::from_utf8(Vec::get(dec)?).map_err(|_| dec.corrupt("string is not valid UTF-8"))
    }
}

/// A list: a count, then the items. Items are pushed one at a time, so a count
/// read from the input never sizes an allocation.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.len().put(buf);
        for item in self {
            item.put(buf);
        }
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        let count = u64::get(dec)?;
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(T::get(dec)?);
        }
        Ok(out)
    }
}

/// An optional value behind a strict 0/1 presence byte.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        self.is_some().put(buf);
        if let Some(value) = self {
            value.put(buf);
        }
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        Ok(if bool::get(dec)? { Some(T::get(dec)?) } else { None })
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        (**self).put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        T::get(dec).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
        self.1.put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
        Ok((A::get(dec)?, B::get(dec)?))
    }
}

/// How one field travels. A field without an explicit shape uses [`Plain`], its
/// type's own [`Wire`] form; the other shapes are the optional-field encodings
/// older frames fixed before the generic [`Option`] presence byte existed.
trait Shape<T> {
    fn put(value: &T, buf: &mut Vec<u8>);
    fn get(dec: &mut Dec<'_>) -> FormatResult<T>;
}

struct Plain;

impl<T: Wire> Shape<T> for Plain {
    fn put(value: &T, buf: &mut Vec<u8>) {
        value.put(buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<T> {
        T::get(dec)
    }
}

/// An optional byte-table value in one byte, where `0` (never in the table) means
/// `None`.
struct ZeroIsNone;

impl<T: Wire> Shape<Option<T>> for ZeroIsNone {
    fn put(value: &Option<T>, buf: &mut Vec<u8>) {
        match value {
            None => buf.push(0),
            Some(value) => value.put(buf),
        }
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Option<T>> {
        if dec.bytes.get(dec.pos) == Some(&0) {
            dec.pos += 1;
            return Ok(None);
        }
        T::get(dec).map(Some)
    }
}

/// An optional last field: absent when `None`, read only if bytes remain — so a
/// message without it is byte-identical to the frame that predates the field
/// ([`Dec::finish`] still rejects anything left over after every field was read).
struct Trailing;

impl<T: Wire> Shape<Option<T>> for Trailing {
    fn put(value: &Option<T>, buf: &mut Vec<u8>) {
        if let Some(value) = value {
            value.put(buf);
        }
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<Option<T>> {
        if dec.pos < dec.bytes.len() {
            T::get(dec).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// A diagnostic's rule id: spelled out as a string and mapped back through the
/// static rule registry, which both validates the id and recovers the
/// `&'static str` the diagnostic model carries.
struct RuleId;

impl Shape<&'static str> for RuleId {
    fn put(value: &&'static str, buf: &mut Vec<u8>) {
        put_blob(value.as_bytes(), buf);
    }

    fn get(dec: &mut Dec<'_>) -> FormatResult<&'static str> {
        let id = String::get(dec)?;
        rules::rule(&id)
            .map(|rule| rule.id)
            .ok_or_else(|| dec.corrupt(format!("unknown rule id {id:?}")))
    }
}

/// `Plain` unless the field names another [`Shape`].
macro_rules! shape {
    () => {
        Plain
    };
    ($shape:ident) => {
        $shape
    };
}

/// Appends a field list whose fields are bound by [`wire_pattern!`].
macro_rules! wire_put {
    ($buf:ident, { $($field:ident $(: $shape:ident)?),* }) => {
        $(<shape!($($shape)?) as Shape<_>>::put($field, $buf);)*
    };
    ($buf:ident, ( $bind:ident )) => {
        $bind.put($buf);
    };
}

/// Binds every field of a field list by name.
macro_rules! wire_pattern {
    ($($path:ident)::+ { $($field:ident $(: $shape:ident)?),* }) => {
        $($path)::+ { $($field),* }
    };
    ($($path:ident)::+ ( $bind:ident )) => {
        $($path)::+($bind)
    };
}

/// Reads a field list, in order, into the named struct or variant.
macro_rules! wire_get {
    ($dec:ident, $($path:ident)::+ { $($field:ident $(: $shape:ident)?),* }) => {
        $($path)::+ { $($field: <shape!($($shape)?) as Shape<_>>::get($dec)?),* }
    };
    ($dec:ident, $($path:ident)::+ ( $bind:ident )) => {
        $($path)::+(Wire::get($dec)?)
    };
}

/// A struct whose fields travel in the listed order. The list must name every
/// field: it is also the destructuring pattern.
macro_rules! wire_struct {
    ($ty:ident $fields:tt) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                let wire_pattern!($ty $fields) = self;
                wire_put!(buf, $fields);
            }

            fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
                Ok(wire_get!(dec, $ty $fields))
            }
        }
    };
}

/// An enum sent as a tag byte and the chosen variant's fields. A row may name the
/// protocol version that introduced its tag (`since`) and, for requests, the
/// `request.*` span the server opens around the request (`span`). Unit variants
/// are written `{}`.
macro_rules! wire_enum {
    ($ty:ident, $what:literal {
        $($tag:literal since $min:literal span $span:literal => $variant:ident $fields:tt),* $(,)?
    }) => {
        wire_enum!($ty, $what { $($tag since $min => $variant $fields),* });

        impl $ty {
            /// The `request.*` span name of this request kind — the top level of the
            /// span taxonomy (each handler's inner spans nest under it).
            pub(crate) fn span_name(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $span),*
                }
            }
        }
    };
    ($ty:ident, $what:literal {
        $($tag:literal $(since $min:literal)? => $variant:ident $fields:tt),* $(,)?
    }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $(wire_pattern!($ty::$variant $fields) => {
                        buf.push($tag);
                        wire_put!(buf, $fields);
                    })*
                }
            }

            fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
                let tag = dec.u8()?;
                Ok(match tag {
                    $($tag => {
                        $(dec.require_version(tag, $min)?;)?
                        wire_get!(dec, $ty::$variant $fields)
                    })*
                    other => {
                        return Err(dec.corrupt(format!(concat!("unknown ", $what, " {:#04x}"), other)))
                    }
                })
            }
        }
    };
}

/// A fieldless enum sent as one byte through a single two-way table.
macro_rules! wire_byte {
    ($ty:ident, $what:literal { $($variant:ident = $byte:literal),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.push(match self {
                    $($ty::$variant => $byte),*
                });
            }

            fn get(dec: &mut Dec<'_>) -> FormatResult<Self> {
                match dec.u8()? {
                    $($byte => Ok($ty::$variant),)*
                    other => Err(dec.corrupt(format!(concat!("unknown ", $what, " {:#04x}"), other))),
                }
            }
        }
    };
}

// ---------------------------------------------------------------------------
// The message tables
// ---------------------------------------------------------------------------

wire_enum! {
    Request, "request tag" {
        0x01 since 2 span "request.put" => Put { bytes },
        0x02 since 2 span "request.get" => Get { hash },
        0x03 since 2 span "request.list" => List {},
        0x04 since 2 span "request.diff" => Diff {
            left, right, max_sequences, algorithm: Trailing
        },
        0x05 since 2 span "request.analyze" => Analyze {
            old_regressing, new_regressing, old_passing, new_passing,
            mode: ZeroIsNone, max_sequences, algorithm: Trailing
        },
        0x06 since 2 span "request.stats" => Stats {},
        0x07 since 2 span "request.shutdown" => Shutdown {},
        0x08 since 3 span "request.check" => Check { hash, overrides },
        0x09 since 4 span "request.watch_start" => WatchStart { old, max_sequences },
        0x0a since 4 span "request.put_stream" => PutStream { bytes, last },
        0x0b since 5 span "request.metrics" => Metrics {},
        0x0c since 5 span "request.obs_trace" => ObsTrace {},
    }
}

wire_enum! {
    Response, "response tag" {
        0x81 since 2 => PutOk { hash, deduped, entries },
        0x82 since 2 => GetOk { bytes },
        0x83 since 2 => ListOk { entries },
        0x84 since 2 => DiffOk(diff),
        0x85 since 2 => AnalyzeOk(report),
        0x86 since 2 => StatsOk(stats),
        0x87 since 2 => ShutdownOk {},
        0x88 since 3 => CheckOk(report),
        0x89 since 4 => WatchStarted {},
        0x8a since 4 => WatchEvent { events },
        0x8b since 4 => WatchDone { events, diff },
        0x8c since 4 => CheckDenied(report),
        0x8d since 5 => MetricsOk { text },
        0x8e since 5 => ObsTraceOk { bytes },
        0xfd since 2 => Busy { retry_after_ms },
        0xfe since 2 => Corrupt { hash, message },
        0xff since 2 => Error { message },
    }
}

wire_enum! {
    WireWatchEvent, "watch event kind" {
        1 => Match { left, right },
        2 => Invalidate { left, right },
        3 => Difference { left, right },
    }
}

wire_struct! { RepoEntry { hash, name, entries, bytes } }

wire_struct! {
    WireDiff {
        algorithm, left_len, right_len, pairs, sequences, compare_ops, num_differences, rendered
    }
}

wire_struct! { WireSequence { left, right } }

wire_struct! { WireSignature { kind, name, operands, method, active_class } }

wire_struct! {
    WireReport {
        algorithm, mode, suspected, expected, regression, candidates, sequences, compare_ops,
        rendered
    }
}

// The pinned order of the 15 counters (`stats_ok_field_order_is_pinned`).
wire_struct! {
    WireStats {
        blobs, blob_bytes, prepared_cached, prepared_cached_bytes, cache_budget_bytes,
        prepared_hits, prepared_misses, evictions, dedup_hits, requests_served,
        correlation_builds, cached_correlations, orphans_removed, quarantined, cache_shrinks
    }
}

wire_struct! { CheckReport { trace_name, entries, threads, suppressed, diagnostics } }

wire_struct! { Diagnostic { rule_id: RuleId, severity, entry_index, message, related_entries } }

wire_byte! {
    EventKind, "event kind" {
        Get = 1, Set = 2, Call = 3, Return = 4, Init = 5, Fork = 6, End = 7
    }
}

wire_byte! { Severity, "severity" { Info = 1, Warning = 2, Error = 3 } }

wire_byte! { WireAlgorithm, "diff algorithm" { Views = 1, Lcs = 2, Anchored = 3 } }

// `0` stays free: it is the "engine default" marker of `Request::Analyze`'s mode.
wire_byte! { AnalysisMode, "analysis mode" { Intersect = 1, SubtractRegressionSet = 2 } }

/// The payload of a message: the current version byte, then the tagged message.
fn encode_message(message: &impl Wire) -> Vec<u8> {
    let mut buf = vec![PROTO_VERSION];
    message.put(&mut buf);
    buf
}

/// Checks the version byte against the accepted window, decodes the tagged
/// message, and refuses trailing bytes.
fn decode_message<T: Wire>(bytes: &[u8]) -> FormatResult<T> {
    let mut dec = Dec {
        bytes,
        pos: 0,
        version: 0,
    };
    let version = dec.u8()?;
    if !(MIN_PROTO_VERSION..=PROTO_VERSION).contains(&version) {
        return Err(FormatError::UnsupportedVersion {
            found: u16::from(version),
            supported: u16::from(PROTO_VERSION),
        });
    }
    dec.version = version;
    let message = T::get(&mut dec)?;
    dec.finish()?;
    Ok(message)
}

impl Request {
    /// Serializes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_message(self)
    }

    /// Decodes a frame payload into a request.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on a version mismatch, unknown tag, or malformed field
    /// — the server answers these with a structured error frame.
    pub fn decode(bytes: &[u8]) -> FormatResult<Request> {
        decode_message(bytes)
    }
}

impl Response {
    /// Serializes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        encode_message(self)
    }

    /// Decodes a frame payload into a response.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on a version mismatch, unknown tag, or malformed field.
    pub fn decode(bytes: &[u8]) -> FormatResult<Response> {
        decode_message(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put_u64(buf: &mut Vec<u8>, value: u64) {
        value.put(buf);
    }

    fn round_trip_request(request: Request) {
        let decoded = Request::decode(&request.encode()).unwrap();
        assert_eq!(decoded, request);
    }

    fn round_trip_response(response: Response) {
        let decoded = Response::decode(&response.encode()).unwrap();
        assert_eq!(decoded, response);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Put { bytes: b"blob".to_vec() });
        round_trip_request(Request::Get { hash: 0xdead_beef });
        round_trip_request(Request::List);
        round_trip_request(Request::Diff {
            left: 1,
            right: u64::MAX,
            max_sequences: 5,
            algorithm: None,
        });
        for algorithm in [WireAlgorithm::Views, WireAlgorithm::Lcs, WireAlgorithm::Anchored] {
            round_trip_request(Request::Diff {
                left: 1,
                right: u64::MAX,
                max_sequences: 5,
                algorithm: Some(algorithm),
            });
        }
        round_trip_request(Request::Analyze {
            old_regressing: 1,
            new_regressing: 2,
            old_passing: 3,
            new_passing: 4,
            mode: Some(AnalysisMode::SubtractRegressionSet),
            max_sequences: 5,
            algorithm: Some(WireAlgorithm::Anchored),
        });
        round_trip_request(Request::Analyze {
            old_regressing: 1,
            new_regressing: 2,
            old_passing: 3,
            new_passing: 4,
            mode: None,
            max_sequences: 10,
            algorithm: None,
        });
        round_trip_request(Request::Check {
            hash: 7,
            overrides: vec![],
        });
        round_trip_request(Request::Check {
            hash: 0xfeed,
            overrides: vec![
                ("data-race".to_owned(), Severity::Error),
                ("unclosed-call".to_owned(), Severity::Warning),
                ("use-after-death".to_owned(), Severity::Info),
            ],
        });
        round_trip_request(Request::WatchStart {
            old: 0xdead_beef,
            max_sequences: 12,
        });
        round_trip_request(Request::PutStream {
            bytes: vec![0x00, 0xff, 0x7f],
            last: false,
        });
        round_trip_request(Request::PutStream {
            bytes: vec![],
            last: true,
        });
        round_trip_request(Request::Stats);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::ObsTrace);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn pre_override_diff_and_analyze_frames_still_decode() {
        // The algorithm override is a trailing-optional byte: frames hand-built the
        // way a pre-override client built them (no byte) must decode to `None`, and a
        // request without an override must emit exactly that legacy frame.
        let mut legacy_diff = vec![PROTO_VERSION, 0x04];
        for value in [7u64, 9, 3] {
            put_u64(&mut legacy_diff, value);
        }
        assert_eq!(
            Request::decode(&legacy_diff).unwrap(),
            Request::Diff {
                left: 7,
                right: 9,
                max_sequences: 3,
                algorithm: None,
            }
        );
        assert_eq!(
            Request::Diff {
                left: 7,
                right: 9,
                max_sequences: 3,
                algorithm: None,
            }
            .encode(),
            legacy_diff
        );

        let mut legacy_analyze = vec![PROTO_VERSION, 0x05];
        for hash in [1u64, 2, 3, 4] {
            put_u64(&mut legacy_analyze, hash);
        }
        legacy_analyze.push(0); // mode: engine default
        put_u64(&mut legacy_analyze, 6);
        assert_eq!(
            Request::decode(&legacy_analyze).unwrap(),
            Request::Analyze {
                old_regressing: 1,
                new_regressing: 2,
                old_passing: 3,
                new_passing: 4,
                mode: None,
                max_sequences: 6,
                algorithm: None,
            }
        );

        // An unknown algorithm byte is rejected, not silently defaulted.
        let mut bad = legacy_diff.clone();
        bad.push(9);
        assert!(Request::decode(&bad).is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::PutOk {
            hash: 42,
            deduped: true,
            entries: 7,
        });
        round_trip_response(Response::GetOk { bytes: vec![1, 2, 3] });
        round_trip_response(Response::ListOk {
            entries: vec![RepoEntry {
                hash: 9,
                name: "daikon".into(),
                entries: 120,
                bytes: 4096,
            }],
        });
        round_trip_response(Response::DiffOk(WireDiff {
            algorithm: "views".into(),
            left_len: 10,
            right_len: 11,
            pairs: vec![(0, 0), (2, 3)],
            sequences: vec![WireSequence {
                left: vec![1],
                right: vec![1, 2],
            }],
            compare_ops: 999,
            num_differences: 3,
            rendered: "semantic diff…".into(),
        }));
        round_trip_response(Response::AnalyzeOk(WireReport {
            algorithm: "views".into(),
            mode: AnalysisMode::Intersect,
            suspected: vec![WireSignature {
                kind: EventKind::Set,
                name: Some("field".into()),
                operands: vec![("C".into(), 0xfeed), ("Int".into(), 2)],
                method: "m".into(),
                active_class: "App".into(),
            }],
            expected: vec![],
            regression: vec![],
            candidates: vec![],
            sequences: vec![(
                WireSequence {
                    left: vec![],
                    right: vec![4],
                },
                true,
            )],
            compare_ops: 123,
            rendered: "report".into(),
        }));
        round_trip_response(Response::CheckOk(Box::new(CheckReport {
            trace_name: "daikon".into(),
            entries: 120,
            threads: 2,
            suppressed: 1,
            diagnostics: vec![Diagnostic {
                rule_id: rules::rule("data-race").unwrap().id,
                severity: Severity::Warning,
                entry_index: 17,
                message: "write/write conflict".into(),
                related_entries: vec![3, 9],
            }],
        })));
        round_trip_response(Response::CheckOk(Box::default()));
        round_trip_response(Response::StatsOk(WireStats {
            blobs: 1,
            blob_bytes: 2,
            prepared_cached: 3,
            prepared_cached_bytes: 4,
            cache_budget_bytes: 5,
            prepared_hits: 6,
            prepared_misses: 7,
            evictions: 8,
            dedup_hits: 9,
            requests_served: 10,
            correlation_builds: 11,
            cached_correlations: 12,
            orphans_removed: 13,
            quarantined: 14,
            cache_shrinks: 15,
        }));
        round_trip_response(Response::WatchStarted);
        round_trip_response(Response::WatchEvent { events: vec![] });
        round_trip_response(Response::WatchEvent {
            events: vec![
                WireWatchEvent::Match { left: 0, right: 0 },
                WireWatchEvent::Invalidate { left: 3, right: 4 },
                WireWatchEvent::Difference {
                    left: vec![5, 6],
                    right: vec![],
                },
            ],
        });
        round_trip_response(Response::WatchDone {
            events: vec![WireWatchEvent::Match { left: 9, right: 9 }],
            diff: WireDiff {
                algorithm: "views".into(),
                left_len: 10,
                right_len: 10,
                pairs: vec![(0, 0)],
                sequences: vec![],
                compare_ops: 77,
                num_differences: 0,
                rendered: "no differences\n".into(),
            },
        });
        round_trip_response(Response::CheckDenied(Box::new(CheckReport {
            trace_name: "denied".into(),
            entries: 5,
            threads: 1,
            suppressed: 0,
            diagnostics: vec![Diagnostic {
                rule_id: rules::rule("data-race").unwrap().id,
                severity: Severity::Error,
                entry_index: 2,
                message: "boom".into(),
                related_entries: vec![0],
            }],
        })));
        round_trip_response(Response::MetricsOk {
            text: "# TYPE rprism_cache_hits counter\nrprism_cache_hits 3\n".into(),
        });
        round_trip_response(Response::ObsTraceOk {
            bytes: vec![0x52, 0x54, 0x52, 0x00],
        });
        round_trip_response(Response::ShutdownOk);
        round_trip_response(Response::Busy { retry_after_ms: 250 });
        round_trip_response(Response::Corrupt {
            hash: 0xfeed_f00d,
            message: "checksum mismatch".into(),
        });
        round_trip_response(Response::Error {
            message: "nope".into(),
        });
    }

    #[test]
    fn malformed_messages_are_structured_errors() {
        assert!(Request::decode(&[]).is_err());
        // Wrong protocol version.
        assert!(matches!(
            Request::decode(&[99, 0x03]),
            Err(FormatError::UnsupportedVersion { found: 99, .. })
        ));
        // Unknown tag.
        assert!(Request::decode(&[PROTO_VERSION, 0x7f]).is_err());
        // Trailing garbage.
        assert!(Request::decode(&[PROTO_VERSION, 0x03, 0x00]).is_err());
        // Truncated field.
        let mut put = Request::Put { bytes: vec![1; 100] }.encode();
        put.truncate(10);
        assert!(Request::decode(&put).is_err());
        // A request is not a response and vice versa.
        assert!(Response::decode(&Request::List.encode()).is_err());
        assert!(Request::decode(&Response::ShutdownOk.encode()).is_err());
    }

    #[test]
    fn version_2_frames_still_decode_for_version_2_messages() {
        for request in [
            Request::List,
            Request::Get { hash: 9 },
            Request::Stats,
            Request::Shutdown,
        ] {
            let mut frame = request.encode();
            frame[0] = 2;
            assert_eq!(Request::decode(&frame).unwrap(), request);
        }
        let mut frame = Response::ShutdownOk.encode();
        frame[0] = 2;
        assert_eq!(Response::decode(&frame).unwrap(), Response::ShutdownOk);
        // Version 1 frames are below the window and stay refused.
        let mut frame = Request::List.encode();
        frame[0] = 1;
        assert!(matches!(
            Request::decode(&frame),
            Err(FormatError::UnsupportedVersion { found: 1, .. })
        ));
    }

    #[test]
    fn version_3_tags_in_version_2_frames_are_structured_errors() {
        let mut frame = Request::Check {
            hash: 1,
            overrides: vec![],
        }
        .encode();
        frame[0] = 2;
        let error = Request::decode(&frame).unwrap_err();
        assert!(
            error.to_string().contains("requires protocol version 3"),
            "got {error}"
        );
        let mut frame = Response::CheckOk(Box::default()).encode();
        frame[0] = 2;
        assert!(Response::decode(&frame).is_err());
    }

    #[test]
    fn version_4_tags_in_older_frames_are_structured_errors() {
        // Watch messages need protocol 4: a version-2 or version-3 frame carrying
        // one is a structured refusal, while version-3 frames of version-3 messages
        // (and version-2 frames of version-2 messages) keep decoding byte-identically.
        for older in [2u8, 3] {
            let mut frame = Request::WatchStart {
                old: 1,
                max_sequences: 4,
            }
            .encode();
            frame[0] = older;
            let error = Request::decode(&frame).unwrap_err();
            assert!(
                error.to_string().contains("requires protocol version 4"),
                "got {error}"
            );
            let mut frame = Request::PutStream {
                bytes: vec![1],
                last: true,
            }
            .encode();
            frame[0] = older;
            assert!(Request::decode(&frame).is_err());
            for response in [
                Response::WatchStarted,
                Response::WatchEvent { events: vec![] },
                Response::CheckDenied(Box::default()),
            ] {
                let mut frame = response.encode();
                frame[0] = older;
                assert!(Response::decode(&frame).is_err());
            }
        }
        // Version-3 frames of version-3 messages still decode.
        let request = Request::Check {
            hash: 1,
            overrides: vec![],
        };
        let mut frame = request.encode();
        frame[0] = 3;
        assert_eq!(Request::decode(&frame).unwrap(), request);
    }

    #[test]
    fn version_5_tags_in_older_frames_are_structured_errors() {
        // The observability messages need protocol 5; every older version in the
        // window refuses them with a structured error naming the required version.
        for older in [2u8, 3, 4] {
            for request in [Request::Metrics, Request::ObsTrace] {
                let mut frame = request.encode();
                frame[0] = older;
                let error = Request::decode(&frame).unwrap_err();
                assert!(
                    error.to_string().contains("requires protocol version 5"),
                    "got {error}"
                );
            }
            for response in [
                Response::MetricsOk { text: String::new() },
                Response::ObsTraceOk { bytes: vec![] },
            ] {
                let mut frame = response.encode();
                frame[0] = older;
                assert!(Response::decode(&frame).is_err());
            }
        }
        // Version-4 frames of version-4 messages still decode byte-identically.
        let request = Request::WatchStart {
            old: 1,
            max_sequences: 4,
        };
        let mut frame = request.encode();
        frame[0] = 4;
        assert_eq!(Request::decode(&frame).unwrap(), request);
    }

    #[test]
    fn pre_v5_frames_are_pinned_byte_for_byte() {
        // Hand-built frames with explicit version bytes 2/3/4 — exactly what an
        // older peer emits — must keep decoding to the same messages after the v5
        // bump, and a current encoder must produce the identical body (only the
        // version byte differs). This pins the old wire format, not just decoder
        // tolerance.
        let mut v2_get = vec![2u8, 0x02];
        put_u64(&mut v2_get, 0xfeed);
        assert_eq!(Request::decode(&v2_get).unwrap(), Request::Get { hash: 0xfeed });
        assert_eq!(Request::Get { hash: 0xfeed }.encode()[1..], v2_get[1..]);

        let v2_stats = vec![2u8, 0x06];
        assert_eq!(Request::decode(&v2_stats).unwrap(), Request::Stats);
        assert_eq!(Request::Stats.encode()[1..], v2_stats[1..]);

        let mut v2_stats_ok = vec![2u8, 0x86];
        for value in 1u64..=15 {
            put_u64(&mut v2_stats_ok, value);
        }
        let decoded = Response::decode(&v2_stats_ok).unwrap();
        let Response::StatsOk(stats) = &decoded else {
            panic!("expected StatsOk, got {decoded:?}");
        };
        assert_eq!(stats.blobs, 1);
        assert_eq!(stats.cache_shrinks, 15);
        assert_eq!(decoded.encode()[1..], v2_stats_ok[1..]);

        let mut v3_check = vec![3u8, 0x08];
        put_u64(&mut v3_check, 42);
        put_u64(&mut v3_check, 0); // no overrides
        assert_eq!(
            Request::decode(&v3_check).unwrap(),
            Request::Check {
                hash: 42,
                overrides: vec![],
            }
        );

        let mut v4_watch = vec![4u8, 0x09];
        put_u64(&mut v4_watch, 7);
        put_u64(&mut v4_watch, 3);
        assert_eq!(
            Request::decode(&v4_watch).unwrap(),
            Request::WatchStart {
                old: 7,
                max_sequences: 3,
            }
        );
    }

    #[test]
    fn stats_ok_field_order_is_pinned() {
        // The Stats frame is 15 varints in this exact order; reordering the
        // `WireStats` fields (e.g. while re-plumbing them onto the metrics registry)
        // would silently corrupt every older client. Sequential values make any
        // swap visible.
        let stats = WireStats {
            blobs: 1,
            blob_bytes: 2,
            prepared_cached: 3,
            prepared_cached_bytes: 4,
            cache_budget_bytes: 5,
            prepared_hits: 6,
            prepared_misses: 7,
            evictions: 8,
            dedup_hits: 9,
            requests_served: 10,
            correlation_builds: 11,
            cached_correlations: 12,
            orphans_removed: 13,
            quarantined: 14,
            cache_shrinks: 15,
        };
        let mut expected = vec![PROTO_VERSION, 0x86];
        for value in 1u64..=15 {
            put_u64(&mut expected, value);
        }
        assert_eq!(Response::StatsOk(stats).encode(), expected);
    }

    #[test]
    fn wire_watch_events_convert_to_local_events_and_back() {
        let events = [
            ProvisionalEvent::Match { left: 1, right: 2 },
            ProvisionalEvent::Invalidate { left: 1, right: 2 },
            ProvisionalEvent::Difference {
                left: vec![3],
                right: vec![4, 5],
            },
        ];
        for event in &events {
            let wire = WireWatchEvent::from_event(event);
            assert_eq!(&wire.to_event(), event);
        }
    }

    #[test]
    fn unknown_rule_ids_and_severities_are_decode_errors() {
        let report = CheckReport {
            trace_name: "t".into(),
            entries: 1,
            threads: 1,
            suppressed: 0,
            diagnostics: vec![Diagnostic {
                rule_id: rules::rule("end-stack").unwrap().id,
                severity: Severity::Warning,
                entry_index: 0,
                message: "m".into(),
                related_entries: vec![],
            }],
        };
        let good = Response::CheckOk(Box::new(report)).encode();
        // Corrupt the rule-id string ("end-stack" is the first string after the
        // trace name and the four counts) into an unknown one.
        let mut bad = good.clone();
        let at = find(&bad, b"end-stack");
        bad[at] = b'x';
        let error = Response::decode(&bad).unwrap_err();
        assert!(error.to_string().contains("unknown rule id"), "got {error}");
        // An out-of-range severity byte is refused too.
        let mut bad = good;
        let at = find(&bad, b"end-stack") + "end-stack".len();
        assert!(bad[at] <= 3, "expected the severity byte after the rule id");
        bad[at] = 9;
        let error = Response::decode(&bad).unwrap_err();
        assert!(error.to_string().contains("unknown severity"), "got {error}");
    }

    fn find(haystack: &[u8], needle: &[u8]) -> usize {
        haystack
            .windows(needle.len())
            .position(|w| w == needle)
            .expect("needle present")
    }

    #[test]
    fn wire_signatures_re_intern_to_equal_signatures() {
        let engine = rprism::Engine::new();
        let old = engine
            .trace_source(
                "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
                 main { let c = new C(0); c.set(32); }",
                "old",
            )
            .unwrap();
        let new = engine
            .trace_source(
                "class C extends Object { Int x; Unit set(Int v) { this.x = v; } }
                 main { let c = new C(0); c.set(1); }",
                "new",
            )
            .unwrap();
        let diff = engine.diff(&old, &new).unwrap();
        let set = DiffSet::from_diff_keyed(&diff, old.trace(), new.trace(), old.keyed(), new.keyed());
        assert!(!set.is_empty());
        let wire: Vec<WireSignature> = set.iter().map(WireSignature::from_signature).collect();
        let back = WireReport::set_local(&wire);
        assert_eq!(back, set);
    }
}
