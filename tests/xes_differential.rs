//! Differential pinning of the zero-copy XES parser against the
//! retained character-based reference parser
//! (`codec::xes_reference`), across the corruption fuzz corpus and
//! every recovery policy: the rewrite must produce the *same*
//! `WorkflowLog` (activity table, execution ids, sequences, outputs,
//! timestamps), the *same* `IngestReport` (error offsets, line:column
//! positions, skip counts), and the *same* rendered error — or it is
//! not a rewrite but a behavior change. The parser is the one XES
//! decode path, so this reference is its judge under all three
//! policies.

use procmine::log::codec::{xes, xes_reference, CodecStats};
use procmine::log::fault::{corrupt_bytes, FaultConfig};
use procmine::log::{Execution, IngestReport, RecoveryPolicy, WorkflowLog};
use proptest::prelude::*;

/// Strategy: a random log over activities `B`..`I` framed by `A`/`J`
/// (the corruption suite's shape, so both suites fuzz the same space).
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

/// Everything observable about one decode: the salvaged log flattened
/// to comparable pieces (or the rendered error), plus telemetry.
type Observed = (
    Result<(Vec<String>, Vec<Execution>), String>,
    CodecStats,
    IngestReport,
);

fn observe(
    result: Result<WorkflowLog, procmine::log::LogError>,
    stats: CodecStats,
    report: IngestReport,
) -> Observed {
    let flat = result
        .map(|log| (log.activities().names().to_vec(), log.executions().to_vec()))
        .map_err(|e| e.to_string());
    (flat, stats, report)
}

fn decode_new(data: &[u8], policy: RecoveryPolicy) -> Observed {
    let mut stats = CodecStats::default();
    let mut report = IngestReport::default();
    let result = xes::read_log_with(data, policy, &mut stats, &mut report);
    observe(result, stats, report)
}

fn decode_reference(data: &[u8], policy: RecoveryPolicy) -> Observed {
    let mut stats = CodecStats::default();
    let mut report = IngestReport::default();
    let result = xes_reference::read_log_with(data, policy, &mut stats, &mut report);
    observe(result, stats, report)
}

/// The corruption corpus of `tests/corruption.rs`: clean, truncated,
/// bit-rotted, and garbage-burst variants of one encoded log.
fn corpus(log: &WorkflowLog, cut: usize, flip_rate: f64, seed: u64) -> Vec<Vec<u8>> {
    let mut clean = Vec::new();
    xes::write_log(log, &mut clean).unwrap();
    let truncated = corrupt_bytes(&clean, &FaultConfig::truncated(cut.min(clean.len()) as u64));
    let flipped = corrupt_bytes(&clean, &FaultConfig::bit_flips(flip_rate, seed));
    let garbled = corrupt_bytes(
        &clean,
        &FaultConfig {
            seed,
            garbage_rate: 0.2,
            ..FaultConfig::default()
        },
    );
    vec![clean, truncated, flipped, garbled]
}

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Strict,
    RecoveryPolicy::Skip { max_errors: 4 },
    RecoveryPolicy::BestEffort,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central pinning property: on every corpus variant and under
    /// every policy, the zero-copy parser is observationally identical
    /// to the reference parser — same log, same stats, same report
    /// (error byte offsets and line:column included via
    /// `IngestReport`'s `PartialEq`), same rendered error.
    #[test]
    fn new_parser_matches_reference_on_corrupt_corpus(
        log in arb_log(8),
        seed in 0u64..1_000,
        flips_per_mille in 0u64..50,
        cut in 0usize..2_048,
    ) {
        for corrupted in corpus(&log, cut, flips_per_mille as f64 / 1_000.0, seed) {
            for policy in POLICIES {
                prop_assert_eq!(
                    decode_new(&corrupted, policy),
                    decode_reference(&corrupted, policy),
                    "policy {:?}",
                    policy
                );
            }
        }
    }
}

/// Deterministic anchor for `ci.sh`-style quick runs: a hand-cut
/// truncation on a fixed log, checked against the reference under all
/// three policies.
#[test]
fn smoke_new_parser_matches_reference_on_truncated_log() {
    let log = WorkflowLog::from_strings([
        "ABCF", "ACDF", "ADEF", "AECF", "ABDF", "ACEF", "ABEF", "ADCF", "AEBF", "ABCF",
    ])
    .unwrap();
    let mut clean = Vec::new();
    xes::write_log(&log, &mut clean).unwrap();
    for cut in [clean.len() / 3, clean.len() / 2, clean.len() - 3] {
        let truncated = &clean[..cut];
        for policy in POLICIES {
            assert_eq!(
                decode_new(truncated, policy),
                decode_reference(truncated, policy),
                "cut {cut}, policy {policy:?}"
            );
        }
    }
}
