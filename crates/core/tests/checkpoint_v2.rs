//! The version-2 checkpoint payload, pinned byte for byte.
//!
//! `checkpoint_v2.payload` beside this file holds the encoding of
//! [`pinned_checkpoint`]. Version 2 keeps version 1's layout for the
//! activities, the count matrices and each retained execution, and ends
//! the miner part with its totals: events, executions and pairs
//! absorbed, then the cadence counters. At T ≤ 1 the miner retains one
//! execution per activity set, so these totals exceed what its
//! executions hold. While `checkpoint::VERSION` stays 2 the owned and
//! the live-miner encoders must reproduce these bytes and the decoder
//! must read them back to the same value.

use procmine_core::{
    FollowCheckpoint, FollowCheckpointView, MinerOptions, OnlineMiner, SnapshotPolicy,
};
use procmine_log::stream::checkpoint::encode_envelope;
use procmine_log::WorkflowLog;

mod checkpoint_fixture;
use checkpoint_fixture::{assembler, late_execution, source, temp_file, FINGERPRINT};

const PINNED: &[u8] = include_bytes!("checkpoint_v2.payload");

/// Example 7's log with two executions that repeat the activity set of
/// its first, absorbed under a six-event cadence with one snapshot
/// between them, then one execution with overlapping intervals and
/// timestamps past `u32::MAX`: seven executions absorbed, five
/// retained.
fn seeded_miner() -> OnlineMiner {
    let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF", "ACBF", "ABCF"]).unwrap();
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::every(6));
    for (i, exec) in log.executions().iter().enumerate() {
        miner.absorb(exec, log.activities()).unwrap();
        if i == 3 {
            miner.snapshot().unwrap();
        }
    }
    let late = late_execution();
    miner
        .absorb(&late.executions()[0], late.activities())
        .unwrap();
    miner
}

/// A follow session caught mid-stream: the seeded miner, two open
/// cases and decode errors on both the assembler and the source side.
fn pinned_checkpoint() -> FollowCheckpoint {
    FollowCheckpoint {
        fingerprint: FINGERPRINT,
        miner: seeded_miner().export_state(),
        assembler: assembler(),
        source: source(),
    }
}

#[test]
fn v2_payload_bytes_are_pinned() {
    let ck = pinned_checkpoint();
    assert_eq!(
        (ck.miner.execs.exec_count(), ck.miner.executions_absorbed),
        (5, 7)
    );
    let encoded = ck.encode();
    if let Some(at) = encoded.iter().zip(PINNED).position(|(a, b)| a != b) {
        panic!("payload differs from the pinned v2 bytes at offset {at}");
    }
    assert_eq!(encoded.len(), PINNED.len(), "payload length changed");
}

/// A `--follow` save encodes straight from the live miner into one
/// buffer that already holds the envelope header; the file it writes is
/// the pinned payload in its envelope, byte for byte.
#[test]
fn save_from_the_live_miner_writes_the_pinned_file() {
    let miner = seeded_miner();
    let (assembler, source) = (assembler(), source());
    let view = FollowCheckpointView {
        fingerprint: FINGERPRINT,
        miner: miner.state_view(),
        assembler: &assembler,
        source: &source,
    };
    assert_eq!(view.encode(), PINNED);
    let path = temp_file("checkpoint-v2-live");
    view.save(&path).unwrap();
    let written = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    assert_eq!(written, encode_envelope(PINNED));
}

#[test]
fn v2_payload_resumes_in_lockstep_with_the_original() {
    let decoded = FollowCheckpoint::decode(PINNED).unwrap();
    assert_eq!(decoded, pinned_checkpoint());
    let mut resumed = OnlineMiner::from_state(
        MinerOptions::default(),
        SnapshotPolicy::every(6),
        decoded.miner,
    )
    .unwrap();
    let mut original = seeded_miner();
    // A set seen before, then a new one.
    let more = WorkflowLog::from_strings(["AECF", "ABDF"]).unwrap();
    for exec in more.executions() {
        assert_eq!(resumed.executions(), original.executions());
        assert_eq!(resumed.events_absorbed(), original.events_absorbed());
        assert_eq!(resumed.snapshot_due(), original.snapshot_due());
        assert_eq!(
            resumed.snapshot().unwrap().edge_support(),
            original.snapshot().unwrap().edge_support()
        );
        assert_eq!(resumed.snapshots_taken(), original.snapshots_taken());
        assert_eq!(resumed.export_state(), original.export_state());
        resumed.absorb(exec, more.activities()).unwrap();
        original.absorb(exec, more.activities()).unwrap();
    }
}

#[test]
fn checkpoint_round_trips_through_disk() {
    let ck = pinned_checkpoint();
    let path = temp_file("checkpoint-v2-test");
    ck.save(&path).unwrap();
    let loaded = FollowCheckpoint::load(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.unwrap(), ck);
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
    // A version 2 payload is not a version 1 one.
    assert!(FollowCheckpoint::decode_version(1, PINNED).is_err());
}
