//! The version-1 checkpoint payload, pinned byte for byte.
//!
//! `checkpoint_v1.payload` beside this file holds the encoding of
//! [`pinned_checkpoint`] as written when the online miner's state was
//! still nested (one `Vec` per retained execution, the event total kept
//! in two slots). While `checkpoint::VERSION` stays 1 the encoder must
//! reproduce those bytes and the decoder must read them back to the
//! same value, so a checkpoint written by an older binary resumes under
//! a newer one.

use procmine_core::{
    FollowCheckpoint, FollowCheckpointView, MinerOptions, OnlineMiner, OptionsFingerprint,
    SnapshotPolicy, SourceState,
};
use procmine_log::codec::CodecStats;
use procmine_log::stream::{AssemblerState, OpenCaseState, SourceLocation};
use procmine_log::{EventRecord, IngestReport, WorkflowLog};

const PINNED: &[u8] = include_bytes!("checkpoint_v1.payload");

/// Example 7's log absorbed under a six-event cadence, one snapshot
/// taken, then one execution with overlapping intervals and timestamps
/// past `u32::MAX` absorbed after it, so every miner counter differs.
fn seeded_miner() -> OnlineMiner {
    let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::every(6));
    for exec in log.executions() {
        miner.absorb(exec, log.activities()).unwrap();
    }
    miner.snapshot().unwrap();
    let t = 1u64 << 40;
    let late = WorkflowLog::from_events(&[
        EventRecord::start("late", "B", t + 3),
        EventRecord::start("late", "A", t),
        EventRecord::end("late", "A", t + 5, Some(vec![1, -2])),
        EventRecord::end("late", "B", t + 9, None),
        EventRecord::start("late", "F", t + 20),
        EventRecord::end("late", "F", t + 21, None),
    ])
    .unwrap();
    miner
        .absorb(&late.executions()[0], late.activities())
        .unwrap();
    miner
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

/// A follow session caught mid-stream: the seeded miner, two open
/// cases (one with an output vector), and decode errors on both the
/// assembler and the source side.
fn pinned_checkpoint() -> FollowCheckpoint {
    let c17 = vec![
        EventRecord::start("c17", "A", 50),
        EventRecord::end("c17", "A", 51, Some(vec![4, 0, -7])),
        EventRecord::start("c17", "C", 52),
    ];
    FollowCheckpoint {
        fingerprint: OptionsFingerprint {
            noise_threshold: 1,
            max_open_cases: 64,
            strict_assembly: false,
        },
        miner: seeded_miner().export_state(),
        assembler: AssemblerState {
            activities: ["A", "B", "C", "D", "E", "F"].map(String::from).to_vec(),
            open: vec![
                open_case("c17", c17, 30),
                open_case("c18", vec![EventRecord::start("c18", "A", 53)], 33),
            ],
            clock: 35,
            executions_emitted: 5,
            report: report(40, &["END of `C` without a matching START"]),
        },
        source: SourceState {
            byte_offset: 540,
            line: 19,
            source_len: 4096,
            stats: CodecStats {
                bytes_read: 540,
                events_parsed: 41,
                executions_parsed: 0,
            },
            report: report(41, &["expected 4 or 5 fields, got 2", "bad timestamp"]),
        },
    }
}

#[test]
fn v1_payload_bytes_are_pinned() {
    let encoded = pinned_checkpoint().encode();
    if let Some(at) = encoded.iter().zip(PINNED).position(|(a, b)| a != b) {
        panic!("payload differs from the pinned v1 bytes at offset {at}");
    }
    assert_eq!(encoded.len(), PINNED.len(), "payload length changed");
}

#[test]
fn v1_payload_resumes_in_lockstep_with_the_original() {
    let decoded = FollowCheckpoint::decode(PINNED).unwrap();
    assert_eq!(decoded, pinned_checkpoint());

    // Resumed and uninterrupted miners agree on every counter and on
    // each snapshot, support counts included, as both keep absorbing.
    let mut resumed = OnlineMiner::from_state(
        MinerOptions::default(),
        SnapshotPolicy::every(6),
        decoded.miner,
    )
    .unwrap();
    let mut original = seeded_miner();
    let more = WorkflowLog::from_strings(["ABDF"]).unwrap();
    let (exec, table) = (&more.executions()[0], more.activities());
    for _ in 0..2 {
        assert_eq!(resumed.executions(), original.executions());
        assert_eq!(resumed.events_absorbed(), original.events_absorbed());
        assert_eq!(resumed.snapshot_due(), original.snapshot_due());
        assert_eq!(
            resumed.snapshot().unwrap().edge_support(),
            original.snapshot().unwrap().edge_support()
        );
        assert_eq!(resumed.snapshots_taken(), original.snapshots_taken());
        resumed.absorb(exec, table).unwrap();
        original.absorb(exec, table).unwrap();
    }
}

#[test]
fn checkpoint_round_trips_through_disk() {
    let ck = pinned_checkpoint();
    let path = std::env::temp_dir().join(format!(
        "procmine-checkpoint-v1-test-{}.ckpt",
        std::process::id()
    ));
    ck.save(&path).unwrap();
    assert_eq!(FollowCheckpoint::load(&path).unwrap(), ck);
    let _ = std::fs::remove_file(&path);
}

/// A `--follow` save encodes straight from the live miner into one
/// buffer that already holds the envelope header; the file it writes is
/// the pinned payload in its envelope, byte for byte.
#[test]
fn save_from_the_live_miner_writes_the_pinned_file() {
    let ck = pinned_checkpoint();
    let miner = seeded_miner();
    let view = FollowCheckpointView {
        fingerprint: ck.fingerprint,
        miner: miner.state_view(),
        assembler: &ck.assembler,
        source: &ck.source,
    };
    assert_eq!(view.encode(), PINNED);
    let path = std::env::temp_dir().join(format!(
        "procmine-checkpoint-v1-live-{}.ckpt",
        std::process::id()
    ));
    view.save(&path).unwrap();
    let written = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        written,
        procmine_log::stream::checkpoint::encode_envelope(PINNED)
    );
}

#[test]
fn truncated_or_padded_payload_is_refused() {
    for cut in [0, 1, PINNED.len() / 2, PINNED.len() - 1] {
        assert!(
            FollowCheckpoint::decode(&PINNED[..cut]).is_err(),
            "cut at {cut} accepted"
        );
    }
    // Trailing garbage is a skew, not slack.
    let mut padded = PINNED.to_vec();
    padded.push(0);
    assert!(FollowCheckpoint::decode(&padded).is_err());
}
