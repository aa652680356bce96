//! Corruption fuzzing across all four codecs: arbitrary truncation,
//! bit rot, and garbage bursts must never panic; `Strict` must report
//! the first decode error with its byte offset; recovering policies
//! must salvage everything parsable and account for every record they
//! drop. Deterministic regressions carry a `smoke_` prefix so `ci.sh`
//! can run them as a fast subset.

use procmine::log::codec::{flowmark, jsonl, seqs, xes, CodecStats};
use procmine::log::fault::{corrupt_bytes, corrupt_whole_lines, FaultConfig, FaultReader};
use procmine::log::{IngestReport, LogError, RecoveryPolicy, WorkflowLog};
use proptest::prelude::*;
use std::io::BufReader;

type DecodeFn = fn(&[u8], RecoveryPolicy, &mut IngestReport) -> Result<WorkflowLog, LogError>;
type EncodeFn = fn(&WorkflowLog) -> Vec<u8>;

/// Encode/decode pairs for every codec, named for failure messages.
fn codecs() -> Vec<(&'static str, EncodeFn, DecodeFn)> {
    fn enc_flowmark(log: &WorkflowLog) -> Vec<u8> {
        let mut b = Vec::new();
        flowmark::write_log(log, &mut b).unwrap();
        b
    }
    fn enc_seqs(log: &WorkflowLog) -> Vec<u8> {
        let mut b = Vec::new();
        seqs::write_log(log, &mut b).unwrap();
        b
    }
    fn enc_jsonl(log: &WorkflowLog) -> Vec<u8> {
        let mut b = Vec::new();
        jsonl::write_log(log, &mut b).unwrap();
        b
    }
    fn enc_xes(log: &WorkflowLog) -> Vec<u8> {
        let mut b = Vec::new();
        xes::write_log(log, &mut b).unwrap();
        b
    }
    fn dec_flowmark(
        data: &[u8],
        p: RecoveryPolicy,
        r: &mut IngestReport,
    ) -> Result<WorkflowLog, LogError> {
        flowmark::read_log_with(data, p, &mut CodecStats::default(), r)
    }
    fn dec_seqs(
        data: &[u8],
        p: RecoveryPolicy,
        r: &mut IngestReport,
    ) -> Result<WorkflowLog, LogError> {
        seqs::read_log_with(data, p, &mut CodecStats::default(), r)
    }
    fn dec_jsonl(
        data: &[u8],
        p: RecoveryPolicy,
        r: &mut IngestReport,
    ) -> Result<WorkflowLog, LogError> {
        jsonl::read_log_with(data, p, &mut CodecStats::default(), r)
    }
    fn dec_xes(
        data: &[u8],
        p: RecoveryPolicy,
        r: &mut IngestReport,
    ) -> Result<WorkflowLog, LogError> {
        xes::read_log_with(data, p, &mut CodecStats::default(), r)
    }
    vec![
        ("flowmark", enc_flowmark, dec_flowmark),
        ("seqs", enc_seqs, dec_seqs),
        ("jsonl", enc_jsonl, dec_jsonl),
        ("xes", enc_xes, dec_xes),
    ]
}

/// Strategy: a random log over activities `B`..`I` framed by `A`/`J`.
fn arb_log(max_execs: usize) -> impl Strategy<Value = WorkflowLog> {
    let activity_pool: Vec<String> = (b'B'..=b'I').map(|c| (c as char).to_string()).collect();
    let exec = proptest::sample::subsequence(activity_pool, 0..=8).prop_shuffle();
    proptest::collection::vec(exec, 1..=max_execs).prop_map(|execs| {
        let mut log = WorkflowLog::new();
        for middle in execs {
            let mut seq = vec!["A".to_string()];
            seq.extend(middle);
            seq.push("J".to_string());
            log.push_sequence(&seq).unwrap();
        }
        log
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central robustness property: no corruption pattern panics
    /// any codec; `Strict` failures leave a located first error in the
    /// report; `BestEffort` always comes back with a (possibly empty)
    /// log.
    #[test]
    fn corrupted_streams_never_panic(
        log in arb_log(8),
        seed in 0u64..1_000,
        flips_per_mille in 0u64..50,
        cut in 0usize..2_048,
    ) {
        let flip_rate = flips_per_mille as f64 / 1_000.0;
        for (name, enc, dec) in codecs() {
            let clean = enc(&log);
            let corpora = [
                corrupt_bytes(&clean, &FaultConfig::truncated(cut.min(clean.len()) as u64)),
                corrupt_bytes(&clean, &FaultConfig::bit_flips(flip_rate, seed)),
                corrupt_bytes(&clean, &FaultConfig {
                    seed,
                    garbage_rate: 0.2,
                    ..FaultConfig::default()
                }),
            ];
            for corrupted in &corpora {
                let mut report = IngestReport::default();
                let strict = dec(corrupted, RecoveryPolicy::Strict, &mut report);
                if strict.is_err() {
                    prop_assert!(
                        report.errors_total >= 1,
                        "{name}: strict error was not recorded"
                    );
                    prop_assert!(
                        report.errors[0].byte_offset <= corrupted.len() as u64,
                        "{name}: error offset {} beyond input of {} bytes",
                        report.errors[0].byte_offset,
                        corrupted.len()
                    );
                }

                let mut report = IngestReport::default();
                let best = dec(corrupted, RecoveryPolicy::BestEffort, &mut report);
                prop_assert!(
                    best.is_ok(),
                    "{name}: BestEffort must salvage, got {:?}",
                    best.err()
                );
                prop_assert!(
                    report.errors.len() as u64 <= report.errors_total,
                    "{name}: recorded more errors than counted"
                );
            }
        }
    }

    /// `Skip {{ max_errors }}` is exact: a budget at least as large as
    /// the BestEffort error count succeeds with identical accounting; a
    /// smaller budget fails with `TooManyErrors`.
    #[test]
    fn skip_budget_is_exact(log in arb_log(6), seed in 0u64..1_000) {
        for (name, enc, dec) in codecs() {
            let clean = enc(&log);
            let corrupted = corrupt_bytes(&clean, &FaultConfig::bit_flips(0.01, seed));
            let mut best_report = IngestReport::default();
            dec(&corrupted, RecoveryPolicy::BestEffort, &mut best_report).unwrap();
            let errors = best_report.errors_total;

            let mut report = IngestReport::default();
            let within = dec(
                &corrupted,
                RecoveryPolicy::Skip { max_errors: errors },
                &mut report,
            );
            prop_assert!(within.is_ok(), "{name}: budget == errors must pass");
            prop_assert_eq!(report.errors_total, errors, "{}", name);

            if errors > 0 {
                let mut report = IngestReport::default();
                let over = dec(
                    &corrupted,
                    RecoveryPolicy::Skip { max_errors: errors - 1 },
                    &mut report,
                );
                prop_assert!(
                    matches!(over, Err(LogError::TooManyErrors { .. })),
                    "{name}: budget < errors must fail, got {over:?}"
                );
            }
        }
    }
}

/// A ten-execution reference log whose encodings have plenty of lines.
fn reference_log() -> WorkflowLog {
    WorkflowLog::from_strings([
        "ABCF", "ACDF", "ADEF", "AECF", "ABDF", "ACEF", "ABEF", "ADCF", "AEBF", "ABCF",
    ])
    .unwrap()
}

#[test]
fn smoke_whole_line_corruption_counts_match_injected_faults() {
    // Line-oriented codecs with real per-line syntax: each corrupted
    // line is exactly one decode error, reported at its byte offset.
    let log = reference_log();
    for (name, enc, dec) in codecs() {
        if name != "flowmark" && name != "jsonl" {
            continue;
        }
        let clean = enc(&log);
        for k in [1usize, 3, 5] {
            let (corrupted, offsets) = corrupt_whole_lines(&clean, k, 99);
            assert_eq!(offsets.len(), k, "{name}: not enough corruptible lines");
            let mut report = IngestReport::default();
            let salvaged = dec(&corrupted, RecoveryPolicy::BestEffort, &mut report).unwrap();
            assert_eq!(
                report.errors_total, k as u64,
                "{name}/k={k}: errors must match injected faults"
            );
            assert!(
                report.records_skipped >= k as u64,
                "{name}/k={k}: skipped records must cover the bad lines"
            );
            let reported: Vec<u64> = report.errors.iter().map(|e| e.byte_offset).collect();
            assert_eq!(reported, offsets, "{name}/k={k}: error offsets");
            assert!(
                salvaged.len() < log.len() || name == "flowmark",
                "{name}/k={k}: some execution must have been lost"
            );
        }
    }
}

#[test]
fn smoke_strict_reports_first_error_with_byte_offset() {
    let log = reference_log();
    let mut clean = Vec::new();
    flowmark::write_log(&log, &mut clean).unwrap();
    let (corrupted, offsets) = corrupt_whole_lines(&clean, 2, 7);
    let mut report = IngestReport::default();
    let err = flowmark::read_log_with(
        corrupted.as_slice(),
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut report,
    )
    .unwrap_err();
    assert!(matches!(err, LogError::Parse { .. }), "got {err:?}");
    assert_eq!(report.errors_total, 1, "strict stops at the first error");
    assert_eq!(report.errors[0].byte_offset, offsets[0]);
}

#[test]
fn smoke_truncation_is_eof_not_parse_error() {
    // Cutting a flowmark or jsonl stream mid-record must be reported as
    // truncation (UnexpectedEof), not as a garbage line, and a
    // recovering read must still salvage the complete prefix.
    let log = reference_log();
    for (name, enc, dec) in codecs() {
        if name != "flowmark" && name != "jsonl" {
            continue;
        }
        let clean = enc(&log);
        // Cut 3 bytes into the last line.
        let last_line_start = clean[..clean.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|i| i + 1)
            .unwrap();
        let truncated = &clean[..last_line_start + 3];

        let mut report = IngestReport::default();
        let err = dec(truncated, RecoveryPolicy::Strict, &mut report).unwrap_err();
        match err {
            LogError::UnexpectedEof { byte_offset, .. } => {
                assert_eq!(byte_offset, last_line_start as u64, "{name}")
            }
            other => panic!("{name}: expected UnexpectedEof, got {other:?}"),
        }

        let mut report = IngestReport::default();
        let salvaged = dec(truncated, RecoveryPolicy::BestEffort, &mut report).unwrap();
        assert!(!salvaged.is_empty(), "{name}: prefix must be salvaged");
        assert_eq!(report.errors_total, 1, "{name}");
    }
}

#[test]
fn smoke_truncated_xes_salvages_complete_traces() {
    let log = reference_log();
    let mut clean = Vec::new();
    xes::write_log(&log, &mut clean).unwrap();
    // Cut the document in half: mid-trace, missing the closing tags.
    let truncated = &clean[..clean.len() / 2];

    let mut report = IngestReport::default();
    assert!(xes::read_log_with(
        truncated,
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut report,
    )
    .is_err());

    let mut report = IngestReport::default();
    let salvaged = xes::read_log_with(
        truncated,
        RecoveryPolicy::BestEffort,
        &mut CodecStats::default(),
        &mut report,
    )
    .unwrap();
    assert!(
        !salvaged.is_empty() && salvaged.len() < log.len(),
        "salvaged {} of {} traces",
        salvaged.len(),
        log.len()
    );
}

#[test]
fn smoke_seqs_truncation_is_silent_by_design() {
    // Any prefix of a seqs line is itself a valid sequence, so
    // truncation cannot be detected — the documented trade-off of the
    // format. The read must still succeed.
    let log = reference_log();
    let mut clean = Vec::new();
    seqs::write_log(&log, &mut clean).unwrap();
    let truncated = &clean[..clean.len() - 3];
    let mut report = IngestReport::default();
    let back = seqs::read_log_with(
        truncated,
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut report,
    )
    .unwrap();
    assert_eq!(back.len(), log.len());
    assert_eq!(report.errors_total, 0);
}

#[test]
fn smoke_mid_stream_io_errors_are_fatal_under_every_policy() {
    // An I/O fault is infrastructure failure, not data corruption: no
    // policy may paper over it, and every policy records it.
    let log = reference_log();
    let mut clean = Vec::new();
    flowmark::write_log(&log, &mut clean).unwrap();
    for policy in [
        RecoveryPolicy::Strict,
        RecoveryPolicy::Skip { max_errors: 1_000 },
        RecoveryPolicy::BestEffort,
    ] {
        let cfg = FaultConfig {
            io_error_at: Some(clean.len() as u64 / 2),
            ..FaultConfig::default()
        };
        let reader = BufReader::new(FaultReader::new(clean.as_slice(), cfg));
        let mut report = IngestReport::default();
        let result =
            flowmark::read_log_with(reader, policy, &mut CodecStats::default(), &mut report);
        assert!(
            matches!(result, Err(LogError::Io(_))),
            "{policy:?}: got {result:?}"
        );
        assert_eq!(report.errors_total, 1, "{policy:?}: I/O error not recorded");
    }
}
