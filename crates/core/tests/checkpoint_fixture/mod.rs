//! The parts of a mid-stream `--follow` checkpoint that every format
//! version lays out alike, shared by the pinned-payload suites.

use procmine_core::{OptionsFingerprint, SourceState};
use procmine_log::codec::CodecStats;
use procmine_log::stream::{AssemblerState, OpenCaseState, SourceLocation};
use procmine_log::{EventRecord, IngestReport, WorkflowLog};

/// The options of the pinned checkpoints: the default threshold, so a
/// resumed miner retains one execution per activity set.
pub const FINGERPRINT: OptionsFingerprint = OptionsFingerprint {
    noise_threshold: 1,
    max_open_cases: 64,
    strict_assembly: false,
};

/// One execution with overlapping intervals and timestamps past
/// `u32::MAX`.
pub fn late_execution() -> WorkflowLog {
    let t = 1u64 << 40;
    WorkflowLog::from_events(&[
        EventRecord::start("late", "B", t + 3),
        EventRecord::start("late", "A", t),
        EventRecord::end("late", "A", t + 5, Some(vec![1, -2])),
        EventRecord::end("late", "B", t + 9, None),
        EventRecord::start("late", "F", t + 20),
        EventRecord::end("late", "F", t + 21, None),
    ])
    .unwrap()
}

/// An ingest report that skipped one record per error message.
fn report(parsed: u64, errors: &[&str]) -> IngestReport {
    let mut report = IngestReport {
        records_parsed: parsed,
        records_skipped: errors.len() as u64,
        ..IngestReport::default()
    };
    for (i, message) in errors.iter().enumerate() {
        report.record_error(100 * i as u64 + 7, 3 * i + 2, *message);
    }
    report
}

/// An open case buffering `records`, read from consecutive lines.
fn open_case(case: &str, records: Vec<EventRecord>, opened: u64) -> OpenCaseState {
    let locations = (0..records.len())
        .map(|i| SourceLocation {
            byte_offset: 40 * (opened + i as u64),
            line: opened as usize + i,
        })
        .collect();
    OpenCaseState {
        case: case.to_string(),
        last_touch: opened + records.len() as u64 - 1,
        records,
        locations,
        opened,
    }
}

/// The assembler caught mid-stream, two open cases (one with an output
/// vector) and a decode error on its side.
pub fn assembler() -> AssemblerState {
    let c17 = vec![
        EventRecord::start("c17", "A", 50),
        EventRecord::end("c17", "A", 51, Some(vec![4, 0, -7])),
        EventRecord::start("c17", "C", 52),
    ];
    AssemblerState {
        activities: ["A", "B", "C", "D", "E", "F"].map(String::from).to_vec(),
        open: vec![
            open_case("c17", c17, 30),
            open_case("c18", vec![EventRecord::start("c18", "A", 53)], 33),
        ],
        clock: 35,
        executions_emitted: 5,
        report: report(40, &["END of `C` without a matching START"]),
    }
}

/// The source position and its accounting, two decode errors in it.
pub fn source() -> SourceState {
    SourceState {
        byte_offset: 540,
        line: 19,
        source_len: 4096,
        stats: CodecStats {
            bytes_read: 540,
            events_parsed: 41,
            executions_parsed: 0,
        },
        report: report(41, &["expected 4 or 5 fields, got 2", "bad timestamp"]),
    }
}

/// A unique path in the temp directory for test `name`.
pub fn temp_file(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("procmine-{name}-{}.ckpt", std::process::id()))
}
