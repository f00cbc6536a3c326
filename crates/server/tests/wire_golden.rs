//! Golden wire frames: one representative value for every request and response
//! variant, plus the optional-field edge cases, each pinned to its hex encoding.
//! Every value must encode to exactly its hex and decode from it back to itself, so
//! a codec change that moves a single byte of any message fails here.
//!
//! The golden frames also seed a decoder fuzz: every truncation and every
//! single-bit flip of every frame goes through both decoders. No decode may panic,
//! every accepted frame must re-encode to the same body, and the whole outcome
//! stream — re-encoded bytes or error variant plus offset — folds into one FNV-64
//! digest pinned below. Oversized length and count claims must be refused without
//! an allocation sized by the claim.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rprism::check::{rules, Diagnostic};
use rprism::{AnalysisMode, CheckReport, Severity};
use rprism_format::{Fnv64, FormatError};
use rprism_server::proto::{
    RepoEntry, Request, Response, WireAlgorithm, WireDiff, WireReport, WireSequence, WireSignature,
    WireStats, WireWatchEvent,
};
use rprism_trace::EventKind;

thread_local! {
    /// The largest single allocation (or reallocation target) this thread made
    /// since the last [`largest_allocation_during`] reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Records each allocation's size in the allocating thread's [`LARGEST`], so a
/// test can bound what one decode asked for while sibling tests run in parallel.
struct LargestAllocation;

fn record(size: usize) {
    // `try_with`: allocations during thread teardown find no slot and are ignored.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards to `System` with the caller's arguments unchanged;
// the bookkeeping touches only a const-initialized thread-local `Cell`, which
// neither allocates nor unwinds.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (every allocation path above
        // forwards to it) with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: as for `dealloc`; the caller upholds `realloc`'s size contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

/// Runs `f` and returns its result with the largest single allocation it made.
fn largest_allocation_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|largest| largest.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    assert!(text.len().is_multiple_of(2), "odd-length hex {text:?}");
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

fn signature(kind: EventKind, name: Option<&str>, operands: &[(&str, u64)]) -> WireSignature {
    WireSignature {
        kind,
        name: name.map(str::to_owned),
        operands: operands.iter().map(|&(c, fp)| (c.to_owned(), fp)).collect(),
        method: "Main.run".into(),
        active_class: "App".into(),
    }
}

fn sample_diff() -> WireDiff {
    WireDiff {
        algorithm: "views".into(),
        left_len: 10,
        right_len: 11,
        pairs: vec![(0, 0), (2, 3), (300, 301)],
        sequences: vec![
            WireSequence {
                left: vec![1],
                right: vec![1, 2],
            },
            WireSequence {
                left: vec![],
                right: vec![200],
            },
        ],
        compare_ops: 999,
        num_differences: 3,
        rendered: "semantic diff…\n".into(),
    }
}

fn sample_check_report() -> CheckReport {
    CheckReport {
        trace_name: "daikon".into(),
        entries: 120,
        threads: 2,
        suppressed: 1,
        diagnostics: vec![
            Diagnostic {
                rule_id: rules::rule("data-race").expect("registered rule").id,
                severity: Severity::Warning,
                entry_index: 17,
                message: "write/write conflict".into(),
                related_entries: vec![3, 9, 130],
            },
            Diagnostic {
                rule_id: rules::rule("end-stack").expect("registered rule").id,
                severity: Severity::Info,
                entry_index: 0,
                message: "m".into(),
                related_entries: vec![],
            },
        ],
    }
}

/// One value per request variant plus the optional-field edge cases, with the
/// hex encoding each must produce.
fn golden_requests() -> Vec<(Request, &'static str)> {
    vec![
        (Request::Put { bytes: b"blob".to_vec() }, "050104626c6f62"),
        (Request::Get { hash: 0xdead_beef }, "0502effdb6f50d"),
        (Request::List, "0503"),
        (
            Request::Diff {
                left: 1,
                right: u64::MAX,
                max_sequences: 5,
                algorithm: None,
            },
            "050401ffffffffffffffffff0105",
        ),
        (
            Request::Diff {
                left: 1,
                right: 2,
                max_sequences: 5,
                algorithm: Some(WireAlgorithm::Lcs),
            },
            "050401020502",
        ),
        (
            Request::Diff {
                left: 300,
                right: 2,
                max_sequences: 0,
                algorithm: Some(WireAlgorithm::Views),
            },
            "0504ac02020001",
        ),
        (
            Request::Analyze {
                old_regressing: 1,
                new_regressing: 2,
                old_passing: 3,
                new_passing: 4,
                mode: Some(AnalysisMode::SubtractRegressionSet),
                max_sequences: 5,
                algorithm: Some(WireAlgorithm::Anchored),
            },
            "050501020304020503",
        ),
        (
            Request::Analyze {
                old_regressing: 1,
                new_regressing: 2,
                old_passing: 3,
                new_passing: 4,
                mode: None,
                max_sequences: 10,
                algorithm: None,
            },
            "050501020304000a",
        ),
        (
            Request::Analyze {
                old_regressing: 0xfeed,
                new_regressing: 0xbeef,
                old_passing: 0,
                new_passing: u64::MAX,
                mode: Some(AnalysisMode::Intersect),
                max_sequences: 3,
                algorithm: None,
            },
            "0505edfd03effd0200ffffffffffffffffff010103",
        ),
        (
            Request::Check {
                hash: 0xfeed,
                overrides: vec![
                    ("data-race".to_owned(), Severity::Error),
                    ("unclosed-call".to_owned(), Severity::Warning),
                    ("use-after-death".to_owned(), Severity::Info),
                ],
            },
            "0508edfd030309646174612d72616365030d756e636c6f7365642d63616c6c020f7573652d61667465722d646561746801",
        ),
        (
            Request::WatchStart {
                old: 0xdead_beef,
                max_sequences: 12,
            },
            "0509effdb6f50d0c",
        ),
        (
            Request::PutStream {
                bytes: vec![0x00, 0xff, 0x7f],
                last: false,
            },
            "050a0300ff7f00",
        ),
        (
            Request::PutStream {
                bytes: vec![],
                last: true,
            },
            "050a0001",
        ),
        (Request::Stats, "0506"),
        (Request::Metrics, "050b"),
        (Request::ObsTrace, "050c"),
        (Request::Shutdown, "0507"),
    ]
}

/// One value per response variant plus the optional-field edge cases, with the
/// hex encoding each must produce.
fn golden_responses() -> Vec<(Response, &'static str)> {
    vec![
        (
            Response::PutOk {
                hash: 42,
                deduped: true,
                entries: 7,
            },
            "05812a0107",
        ),
        (Response::GetOk { bytes: vec![1, 2, 3] }, "058203010203"),
        (
            Response::ListOk {
                entries: vec![
                    RepoEntry {
                        hash: 9,
                        name: "daikon".into(),
                        entries: 120,
                        bytes: 4096,
                    },
                    RepoEntry {
                        hash: u64::MAX,
                        name: String::new(),
                        entries: 0,
                        bytes: 1,
                    },
                ],
            },
            "05830209066461696b6f6e788020ffffffffffffffffff01000001",
        ),
        (Response::DiffOk(sample_diff()), "05840576696577730a0b0300000203ac02ad020201010201020001c801e707031173656d616e7469632064696666e280a60a"),
        (
            Response::AnalyzeOk(WireReport {
                algorithm: "views".into(),
                mode: AnalysisMode::Intersect,
                suspected: vec![
                    signature(EventKind::Set, Some("field"), &[("C", 0xfeed), ("Int", 2)]),
                    signature(EventKind::Call, None, &[]),
                ],
                expected: vec![signature(EventKind::Get, Some("x"), &[("Int", 0)])],
                regression: vec![
                    signature(EventKind::Return, None, &[("Bool", 1)]),
                    signature(EventKind::Init, Some("C"), &[]),
                ],
                candidates: vec![
                    signature(EventKind::Fork, None, &[]),
                    signature(EventKind::End, None, &[]),
                ],
                sequences: vec![
                    (
                        WireSequence {
                            left: vec![],
                            right: vec![4],
                        },
                        true,
                    ),
                    (
                        WireSequence {
                            left: vec![7, 8],
                            right: vec![],
                        },
                        false,
                    ),
                ],
                compare_ops: 123,
                rendered: "report".into(),
            }),
            "058505766965777301020201056669656c64020143edfd0303496e7402084d61696e2e72756e03417070030000084d61696e2e72756e0341707001010101780103496e7400084d61696e2e72756e034170700204000104426f6f6c01084d61696e2e72756e034170700501014300084d61696e2e72756e0341707002060000084d61696e2e72756e03417070070000084d61696e2e72756e03417070020001040102070800007b067265706f7274",
        ),
        (
            Response::AnalyzeOk(WireReport {
                algorithm: "lcs".into(),
                mode: AnalysisMode::SubtractRegressionSet,
                suspected: vec![],
                expected: vec![],
                regression: vec![],
                candidates: vec![],
                sequences: vec![],
                compare_ops: 0,
                rendered: String::new(),
            }),
            "0585036c63730200000000000000",
        ),
        (Response::CheckOk(Box::new(sample_check_report())), "0588066461696b6f6e7802010209646174612d7261636502111477726974652f777269746520636f6e666c696374030309820109656e642d737461636b0100016d00"),
        (Response::CheckOk(Box::default()), "05880000000000"),
        (Response::WatchStarted, "0589"),
        (
            Response::WatchEvent {
                events: vec![
                    WireWatchEvent::Match { left: 0, right: 0 },
                    WireWatchEvent::Invalidate { left: 3, right: 4 },
                    WireWatchEvent::Difference {
                        left: vec![5, 6],
                        right: vec![],
                    },
                ],
            },
            "058a030100000203040302050600",
        ),
        (
            Response::WatchDone {
                events: vec![WireWatchEvent::Match { left: 9, right: 9 }],
                diff: sample_diff(),
            },
            "058b010109090576696577730a0b0300000203ac02ad020201010201020001c801e707031173656d616e7469632064696666e280a60a",
        ),
        (
            Response::CheckDenied(Box::new(CheckReport {
                trace_name: "denied".into(),
                entries: 5,
                threads: 1,
                suppressed: 0,
                diagnostics: vec![Diagnostic {
                    rule_id: rules::rule("data-race").expect("registered rule").id,
                    severity: Severity::Error,
                    entry_index: 2,
                    message: "boom".into(),
                    related_entries: vec![0],
                }],
            })),
            "058c0664656e6965640501000109646174612d72616365030204626f6f6d0100",
        ),
        (
            Response::StatsOk(WireStats {
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
                cache_shrinks: 150,
            }),
            "05860102030405060708090a0b0c0d0e9601",
        ),
        (
            Response::MetricsOk {
                text: "# TYPE rprism_cache_hits counter\nrprism_cache_hits 3\n".into(),
            },
            "058d352320545950452072707269736d5f63616368655f6869747320636f756e7465720a72707269736d5f63616368655f6869747320330a",
        ),
        (
            Response::ObsTraceOk {
                bytes: vec![0x52, 0x54, 0x52, 0x00],
            },
            "058e0452545200",
        ),
        (Response::ShutdownOk, "0587"),
        (Response::Busy { retry_after_ms: 250 }, "05fdfa01"),
        (
            Response::Corrupt {
                hash: 0xfeed_f00d,
                message: "checksum mismatch".into(),
            },
            "05fe8de0b7f70f11636865636b73756d206d69736d61746368",
        ),
        (
            Response::Error {
                message: "nope".into(),
            },
            "05ff046e6f7065",
        ),
    ]
}

/// The variant index of a request. The match is exhaustive, so a new variant
/// fails to compile here until it gets a golden frame above.
fn request_variant(request: &Request) -> usize {
    match request {
        Request::Put { .. } => 0,
        Request::Get { .. } => 1,
        Request::List => 2,
        Request::Diff { .. } => 3,
        Request::Analyze { .. } => 4,
        Request::Check { .. } => 5,
        Request::WatchStart { .. } => 6,
        Request::PutStream { .. } => 7,
        Request::Stats => 8,
        Request::Metrics => 9,
        Request::ObsTrace => 10,
        Request::Shutdown => 11,
    }
}

/// The variant index of a response; exhaustive like [`request_variant`].
fn response_variant(response: &Response) -> usize {
    match response {
        Response::PutOk { .. } => 0,
        Response::GetOk { .. } => 1,
        Response::ListOk { .. } => 2,
        Response::DiffOk(_) => 3,
        Response::AnalyzeOk(_) => 4,
        Response::CheckOk(_) => 5,
        Response::WatchStarted => 6,
        Response::WatchEvent { .. } => 7,
        Response::WatchDone { .. } => 8,
        Response::CheckDenied(_) => 9,
        Response::StatsOk(_) => 10,
        Response::MetricsOk { .. } => 11,
        Response::ObsTraceOk { .. } => 12,
        Response::ShutdownOk => 13,
        Response::Busy { .. } => 14,
        Response::Corrupt { .. } => 15,
        Response::Error { .. } => 16,
    }
}

#[test]
fn golden_request_frames_encode_and_decode_byte_for_byte() {
    let mut covered = [false; 12];
    for (request, frame) in golden_requests() {
        covered[request_variant(&request)] = true;
        assert_eq!(hex(&request.encode()), frame, "encoding {request:?}");
        assert_eq!(
            Request::decode(&unhex(frame)).unwrap(),
            request,
            "decoding {frame}"
        );
    }
    assert!(
        covered.iter().all(|&c| c),
        "a request variant has no golden frame"
    );
}

#[test]
fn golden_response_frames_encode_and_decode_byte_for_byte() {
    let mut covered = [false; 17];
    for (response, frame) in golden_responses() {
        covered[response_variant(&response)] = true;
        assert_eq!(hex(&response.encode()), frame, "encoding {response:?}");
        assert_eq!(
            Response::decode(&unhex(frame)).unwrap(),
            response,
            "decoding {frame}"
        );
    }
    assert!(
        covered.iter().all(|&c| c),
        "a response variant has no golden frame"
    );
}

/// An error as the fuzz digest sees it: the variant and its offset, not the detail
/// text, so rewording a message never moves the digest.
fn error_key(error: &FormatError) -> String {
    match error {
        FormatError::Corrupt { offset, .. } => format!("corrupt@{offset}"),
        FormatError::Truncated { offset } => format!("truncated@{offset}"),
        FormatError::UnsupportedVersion { found, .. } => format!("version {found}"),
        other => panic!("a message decoder returned a non-message error: {other:?}"),
    }
}

/// Both decoders' verdicts on one input: each is the re-encoded message or the
/// error key. An accepted input must re-encode to its own body (everything after
/// the version byte, which encoders always stamp current).
fn outcome(input: &[u8]) -> String {
    let request = match Request::decode(input) {
        Ok(request) => {
            let again = request.encode();
            assert_eq!(
                again[1..],
                input[1..],
                "non-canonical request accepted: {request:?}"
            );
            format!("request {}", hex(&again))
        }
        Err(error) => error_key(&error),
    };
    let response = match Response::decode(input) {
        Ok(response) => {
            let again = response.encode();
            assert_eq!(
                again[1..],
                input[1..],
                "non-canonical response accepted: {response:?}"
            );
            format!("response {}", hex(&again))
        }
        Err(error) => error_key(&error),
    };
    format!("{request} | {response}")
}

/// FNV-64 of the outcome stream over every truncation and single-bit flip of every
/// golden frame (6,543 inputs), captured from the hand-paired per-message encoders
/// and decoders so that any rewrite of the codec must reproduce every outcome.
const FUZZ_DIGEST: u64 = 0x5874_41a2_f6e2_7cb1;

#[test]
fn truncations_and_bit_flips_of_golden_frames_match_the_pinned_outcomes() {
    let frames: Vec<Vec<u8>> = golden_requests()
        .into_iter()
        .map(|(_, frame)| unhex(frame))
        .chain(
            golden_responses()
                .into_iter()
                .map(|(_, frame)| unhex(frame)),
        )
        .collect();
    let mut digest = Fnv64::new();
    let mut inputs = 0usize;
    let mut fold = |input: &[u8]| {
        let line = outcome(input);
        digest.update(line.as_bytes());
        digest.update(b"\n");
        inputs += 1;
    };
    for frame in &frames {
        for cut in 0..frame.len() {
            fold(&frame[..cut]);
        }
        for bit in 0..frame.len() * 8 {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            fold(&flipped);
        }
    }
    let digest = digest.finish();
    assert_eq!(
        digest, FUZZ_DIGEST,
        "outcome digest over {inputs} inputs: {digest:#018x}"
    );
}

fn varint(out: &mut Vec<u8>, value: u64) {
    rprism_format::varint::write_u64(out, value);
}

#[test]
fn oversized_claims_are_structured_errors_without_claim_sized_allocations() {
    // Every claim below is at least 2^32, so a decoder that sized an allocation by
    // one would blow far past this bound (or abort the test binary).
    const BOUND: usize = 4096;
    let mut requests: Vec<(&str, Vec<u8>)> = Vec::new();
    let mut responses: Vec<(&str, Vec<u8>)> = Vec::new();

    let mut list = vec![5, 0x83];
    varint(&mut list, u64::MAX);
    list.extend([9, 0, 0, 0]); // one complete entry, then nothing
    responses.push(("ListOk count", list));

    let mut events = vec![5, 0x8a];
    varint(&mut events, u64::MAX);
    events.extend([1, 0, 0]); // one complete Match event
    responses.push(("WatchEvent count", events));

    let mut diff = vec![5, 0x84, 5];
    diff.extend(b"views");
    diff.extend([10, 11]);
    varint(&mut diff, u64::MAX);
    diff.extend([0, 0]); // one complete pair
    responses.push(("DiffOk pair count", diff));

    for claim in [1u64 << 40, u64::MAX] {
        let mut put = vec![5, 0x01];
        varint(&mut put, claim);
        put.extend([1, 2, 3]);
        requests.push(("Put blob length", put));
        let mut get_ok = vec![5, 0x82];
        varint(&mut get_ok, claim);
        get_ok.extend([1, 2, 3]);
        responses.push(("GetOk blob length", get_ok));
    }

    let mut busy = vec![5, 0xfd];
    varint(&mut busy, u64::from(u32::MAX) + 1);
    responses.push(("Busy retry_after_ms past u32", busy));

    let mut overlong = vec![5, 0x02];
    overlong.extend([0xff; 10]);
    overlong.push(0x01);
    requests.push(("11-byte varint", overlong));
    requests.push(("non-canonical varint", vec![5, 0x02, 0x80, 0x00]));

    for (what, input) in &requests {
        let (result, largest) = largest_allocation_during(|| Request::decode(input));
        assert!(result.is_err(), "{what}: accepted {result:?}");
        assert!(largest < BOUND, "{what}: allocated {largest} bytes");
    }
    for (what, input) in &responses {
        let (result, largest) = largest_allocation_during(|| Response::decode(input));
        assert!(result.is_err(), "{what}: accepted {result:?}");
        assert!(largest < BOUND, "{what}: allocated {largest} bytes");
    }

    for version in [1u8, 6] {
        assert!(matches!(
            Request::decode(&[version, 0x03]),
            Err(FormatError::UnsupportedVersion { found, .. }) if found == u16::from(version)
        ));
        assert!(matches!(
            Response::decode(&[version, 0x87]),
            Err(FormatError::UnsupportedVersion { found, .. }) if found == u16::from(version)
        ));
    }
}
