//! The version-1 checkpoint payload: the migration fixture.
//!
//! `checkpoint_v1.payload` beside this file holds [`pinned_checkpoint`]
//! as builds before version 2 wrote it: every absorbed execution
//! retained, the event total in two slots, no execution or pair totals.
//! This build writes version 2 (see `checkpoint_v2.rs`) but still reads
//! version 1: the pinned payload must decode to the same value and
//! resume in lockstep with the miner it came from, and a version 1
//! state whose executions repeat activity sets must migrate to one
//! execution per set and resume in lockstep too.

use procmine_core::{FollowCheckpoint, MinerOptions, OnlineMiner, SnapshotPolicy};
use procmine_log::stream::checkpoint::{encode_envelope, encode_report, encode_stats};
use procmine_log::stream::WireWriter;
use procmine_log::WorkflowLog;

mod checkpoint_fixture;
use checkpoint_fixture::{assembler, late_execution, source, temp_file, FINGERPRINT};

const PINNED: &[u8] = include_bytes!("checkpoint_v1.payload");

/// Example 7's log absorbed under a six-event cadence, one snapshot
/// taken, then one execution with overlapping intervals and timestamps
/// past `u32::MAX` absorbed after it, so every miner counter differs.
/// Every activity set is distinct, so the miner retains all five.
fn seeded_miner() -> OnlineMiner {
    let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::every(6));
    for exec in log.executions() {
        miner.absorb(exec, log.activities()).unwrap();
    }
    miner.snapshot().unwrap();
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

/// `ck` in the version 1 layout, field by field as builds before
/// version 2 wrote it.
fn encode_v1(ck: &FollowCheckpoint) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u32(ck.fingerprint.noise_threshold);
    w.put_u64(ck.fingerprint.max_open_cases);
    w.put_u8(u8::from(ck.fingerprint.strict_assembly));
    let miner = &ck.miner;
    w.put_usize(miner.activities.len());
    for name in &miner.activities {
        w.put_str(name);
    }
    for matrix in [&miner.ordered, &miner.overlap] {
        w.put_usize(matrix.len());
        for &c in matrix {
            w.put_u32(c);
        }
    }
    w.put_usize(miner.execs.exec_count());
    for i in 0..miner.execs.exec_count() {
        let exec = miner.execs.exec(i);
        w.put_usize(exec.len());
        for j in 0..exec.len() {
            w.put_usize(exec.activities[j] as usize);
            w.put_u64(exec.starts[j]);
            w.put_u64(exec.ends[j]);
        }
    }
    w.put_u64(miner.events_absorbed);
    w.put_u64(miner.events_absorbed);
    w.put_u64(miner.events_since_snapshot);
    w.put_u64(miner.snapshots_taken);
    ck.assembler.encode_into(&mut w);
    let source = &ck.source;
    w.put_u64(source.byte_offset);
    w.put_u64(source.line);
    w.put_u64(source.source_len);
    encode_stats(&mut w, &source.stats);
    encode_report(&mut w, &source.report);
    w.into_bytes()
}

/// Resumed and uninterrupted miners agree on every counter and on each
/// snapshot, support counts included, as both keep absorbing — a set
/// seen before and a new one.
fn assert_lockstep(mut resumed: OnlineMiner, mut original: OnlineMiner) {
    let more = WorkflowLog::from_strings(["ABDF", "ACDF"]).unwrap();
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

/// The fixture's writer is the version 1 layout: it reproduces the
/// pinned bytes.
#[test]
fn v1_writer_reproduces_the_pinned_bytes() {
    let encoded = encode_v1(&pinned_checkpoint());
    if let Some(at) = encoded.iter().zip(PINNED).position(|(a, b)| a != b) {
        panic!("payload differs from the pinned v1 bytes at offset {at}");
    }
    assert_eq!(encoded.len(), PINNED.len(), "payload length changed");
}

#[test]
fn v1_payload_resumes_in_lockstep_with_the_original() {
    let decoded = FollowCheckpoint::decode_version(1, PINNED).unwrap();
    assert_eq!(decoded, pinned_checkpoint());
    let resumed = OnlineMiner::from_state(
        MinerOptions::default(),
        SnapshotPolicy::every(6),
        decoded.miner,
    )
    .unwrap();
    assert_lockstep(resumed, seeded_miner());
}

/// A version 1 state retained every execution, repeated activity sets
/// included. Resumed at T = 1 it keeps the first execution of each set
/// and the totals of all of them: the state of a miner that absorbed
/// the same executions under this build.
#[test]
fn v1_state_with_repeated_sets_migrates_and_resumes_in_lockstep() {
    let log =
        WorkflowLog::from_strings(["ABCF", "ACBF", "ABCF", "ADEF", "AEDF", "AF", "ADEF"]).unwrap();
    // At T = 2 the miner retains every execution, as version 1 did; the
    // counts and totals do not depend on the threshold.
    let mut every = OnlineMiner::new(MinerOptions::with_threshold(2), SnapshotPolicy::every(6));
    let mut original = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::every(6));
    for (i, exec) in log.executions().iter().enumerate() {
        every.absorb(exec, log.activities()).unwrap();
        original.absorb(exec, log.activities()).unwrap();
        if i == 3 {
            every.snapshot().unwrap();
            original.snapshot().unwrap();
        }
    }
    let state = every.export_state();
    assert_eq!(state.execs.exec_count(), 7);
    let v1 = encode_v1(&FollowCheckpoint {
        fingerprint: FINGERPRINT,
        miner: state,
        assembler: assembler(),
        source: source(),
    });
    let decoded = FollowCheckpoint::decode_version(1, &v1).unwrap();
    assert_eq!(decoded.miner.executions_absorbed, 7);
    let resumed = OnlineMiner::from_state(
        MinerOptions::default(),
        SnapshotPolicy::every(6),
        decoded.miner,
    )
    .unwrap();
    let migrated = resumed.export_state();
    assert_eq!(migrated.execs.exec_count(), 3, "one execution per set");
    assert_eq!(migrated, original.export_state());
    assert_lockstep(resumed, original);
}

/// A version 1 file on disk loads through its envelope's version.
#[test]
fn v1_file_loads_from_disk() {
    let mut file = encode_envelope(PINNED);
    // The CRC covers the payload only, so the version field is free.
    file[7..9].copy_from_slice(&1u16.to_le_bytes());
    let path = temp_file("checkpoint-v1-test");
    std::fs::write(&path, &file).unwrap();
    let loaded = FollowCheckpoint::load(&path);
    let _ = std::fs::remove_file(&path);
    assert_eq!(loaded.unwrap(), pinned_checkpoint());
}

#[test]
fn truncated_or_padded_payload_is_refused() {
    for cut in [0, 1, PINNED.len() / 2, PINNED.len() - 1] {
        assert!(
            FollowCheckpoint::decode_version(1, &PINNED[..cut]).is_err(),
            "cut at {cut} accepted"
        );
    }
    // Trailing garbage is a skew, not slack.
    let mut padded = PINNED.to_vec();
    padded.push(0);
    assert!(FollowCheckpoint::decode_version(1, &padded).is_err());
}
