//! Resumable miner state for crash-safe `--follow` sessions.
//!
//! A `procmine mine --follow --checkpoint FILE` pipeline owns three
//! pieces of state that are expensive or impossible to reconstruct
//! after a crash: the [`OnlineMiner`]'s ordering counts and
//! retained executions, the
//! [`CaseAssembler`](procmine_log::stream::CaseAssembler)'s open cases,
//! and the byte position in the source log. This module defines the
//! *payload* types that capture all three — [`FollowCheckpoint`] and
//! its parts — and their binary wire encoding. The container (magic,
//! version, CRC-32, atomic writes) lives in
//! [`procmine_log::stream::checkpoint`]; this module only encodes and
//! decodes payload bytes inside that envelope.
//!
//! # Invariants
//!
//! * A checkpoint is only written at an *execution boundary* — never
//!   mid-absorb — so miner counts, assembler state, and source position
//!   are mutually consistent by construction.
//! * Decoding validates structure (matrix shapes, vertex ranges, event
//!   totals) beyond the envelope CRC: a checksum-valid file produced by
//!   a buggy writer must still be refused, not mined from.
//! * [`OptionsFingerprint`] pins the mining options that shape the
//!   counts. Resuming under different options would silently produce a
//!   model that matches *neither* configuration, so a fingerprint
//!   mismatch always refuses — `--recover` does not override it.

use crate::general_dag::OrderObservations;
use crate::online::set_index;
use crate::{MinerOptions, OnlineMiner, SnapshotPolicy};
use procmine_log::codec::CodecStats;
use procmine_log::stream::checkpoint::{read_payload, write_atomic_raw};
use procmine_log::stream::{AssemblerState, CheckpointError, WireError, WireReader, WireWriter};
use procmine_log::{ActivityTable, EventColumns, IngestReport};
use std::path::Path;

/// Default `--checkpoint-every` cadence (consumed stream events
/// between checkpoint saves). A save costs one state encode plus two fsyncs
/// (file, then parent directory) under the atomic rename — measured
/// ~5–10 ms on commodity hardware; at this cadence that overhead
/// stays well under the 10 % budget the perfsuite gate pins even for
/// high-throughput streams, while a crash re-reads at most a few
/// hundred milliseconds of pipeline work.
pub const DEFAULT_CHECKPOINT_EVERY: u64 = 500_000;

fn invalid(message: String) -> CheckpointError {
    CheckpointError::Payload { message }
}

/// The mining options a checkpoint was produced under. Counts are only
/// meaningful relative to these, so [`FollowCheckpoint::load`]ed state
/// must be rejected when the resuming session's fingerprint differs —
/// see [`OptionsFingerprint::mismatch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptionsFingerprint {
    /// The §6 noise threshold `T` the model will be cut at.
    pub noise_threshold: u32,
    /// The assembler's open-case window (`0`: unbounded). Affects
    /// which executions get split by eviction, hence the counts.
    pub max_open_cases: u64,
    /// Whether end-of-input assembly is strict.
    pub strict_assembly: bool,
}

impl OptionsFingerprint {
    /// Describes how `self` (the resuming session) differs from
    /// `saved` (the checkpoint), or `None` when compatible.
    pub fn mismatch(&self, saved: &OptionsFingerprint) -> Option<String> {
        let mut diffs = Vec::new();
        if self.noise_threshold != saved.noise_threshold {
            diffs.push(format!(
                "noise threshold {} (checkpoint used {})",
                self.noise_threshold, saved.noise_threshold
            ));
        }
        if self.max_open_cases != saved.max_open_cases {
            diffs.push(format!(
                "open-case window {} (checkpoint used {})",
                self.max_open_cases, saved.max_open_cases
            ));
        }
        if self.strict_assembly != saved.strict_assembly {
            diffs.push(format!(
                "strict assembly {} (checkpoint used {})",
                self.strict_assembly, saved.strict_assembly
            ));
        }
        if diffs.is_empty() {
            None
        } else {
            Some(diffs.join(", "))
        }
    }

    /// Bytes [`OptionsFingerprint::encode_into`] writes.
    const ENCODED_LEN: usize = 4 + 8 + 1;

    fn encode_into(&self, w: &mut WireWriter) {
        w.put_u32(self.noise_threshold);
        w.put_u64(self.max_open_cases);
        w.put_u8(u8::from(self.strict_assembly));
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(OptionsFingerprint {
            noise_threshold: r.get_u32("fingerprint.noise_threshold")?,
            max_open_cases: r.get_u64("fingerprint.max_open_cases")?,
            strict_assembly: match r.get_u8("fingerprint.strict_assembly")? {
                0 => false,
                1 => true,
                other => {
                    return Err(WireError {
                        message: format!("fingerprint.strict_assembly: unknown tag {other}"),
                    })
                }
            },
        })
    }
}

/// The resumable state of an [`OnlineMiner`]: activity universe,
/// step-2 count matrices, the lowered executions the marking pass
/// needs, and the cadence counters that survive a restart. Produced by
/// [`OnlineMiner::export_state`], consumed by
/// [`OnlineMiner::from_state`]. The *checkpoint* cadence counter is
/// deliberately absent — the resume point is by definition a
/// checkpoint, so it restarts at zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineMinerState {
    /// Interned activity names, in id order.
    pub activities: Vec<String>,
    /// Row-major `n × n` ordered-pair counts.
    pub ordered: Vec<u32>,
    /// Row-major `n × n` overlap counts.
    pub overlap: Vec<u32>,
    /// Retained executions: `(dense vertex, start, end)` per instance.
    pub execs: EventColumns,
    /// Activity instances absorbed over the miner's whole life.
    pub events_absorbed: u64,
    /// Events absorbed since the last model snapshot.
    pub events_since_snapshot: u64,
    /// Model snapshots materialized so far.
    pub snapshots_taken: u64,
}

/// An online miner's resumable state, borrowed — from the live miner
/// ([`OnlineMiner::state_view`]) or from an exported
/// [`OnlineMinerState`] ([`OnlineMinerState::view`]) — and encoded
/// from there, so a checkpoint of a live miner copies neither its count
/// matrices nor its retained executions.
#[derive(Debug, Clone, Copy)]
pub struct MinerStateView<'a> {
    activities: &'a [String],
    ordered: &'a [u32],
    overlap: &'a [u32],
    execs: &'a EventColumns,
    events_absorbed: u64,
    events_since_snapshot: u64,
    snapshots_taken: u64,
}

impl MinerStateView<'_> {
    /// Bytes [`MinerStateView::encode_into`] writes.
    fn encoded_len(&self) -> usize {
        let names: usize = self.activities.iter().map(|a| 8 + a.len()).sum();
        let matrices = 2 * 8 + 4 * (self.ordered.len() + self.overlap.len());
        let execs = 8 + 8 * self.execs.exec_count() + 24 * self.execs.event_count();
        8 + names + matrices + execs + 4 * 8
    }

    fn encode_into(&self, w: &mut WireWriter) {
        w.put_usize(self.activities.len());
        for name in self.activities {
            w.put_str(name);
        }
        for matrix in [self.ordered, self.overlap] {
            w.put_usize(matrix.len());
            for &c in matrix {
                w.put_u32(c);
            }
        }
        w.put_usize(self.execs.exec_count());
        for i in 0..self.execs.exec_count() {
            let exec = self.execs.exec(i);
            w.put_usize(exec.len());
            for j in 0..exec.len() {
                w.put_usize(exec.activities[j] as usize);
                w.put_u64(exec.starts[j]);
                w.put_u64(exec.ends[j]);
            }
        }
        // Version 1 holds the event total twice: once after the
        // executions, once with the cadence counters.
        w.put_u64(self.events_absorbed);
        w.put_u64(self.events_absorbed);
        w.put_u64(self.events_since_snapshot);
        w.put_u64(self.snapshots_taken);
    }
}

impl OnlineMinerState {
    /// Borrows the state for encoding.
    pub fn view(&self) -> MinerStateView<'_> {
        MinerStateView {
            activities: &self.activities,
            ordered: &self.ordered,
            overlap: &self.overlap,
            execs: &self.execs,
            events_absorbed: self.events_absorbed,
            events_since_snapshot: self.events_since_snapshot,
            snapshots_taken: self.snapshots_taken,
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get_len("miner.activities.len", 8)?;
        let mut activities = Vec::with_capacity(n);
        for _ in 0..n {
            activities.push(r.get_str("miner.activity")?);
        }
        let mut matrix = |what: &str| -> Result<Vec<u32>, WireError> {
            let cells = r.get_len(what, 4)?;
            let mut m = Vec::with_capacity(cells);
            for _ in 0..cells {
                m.push(r.get_u32(what)?);
            }
            Ok(m)
        };
        let ordered = matrix("miner.ordered")?;
        let overlap = matrix("miner.overlap")?;
        let count = r.get_len("miner.execs.len", 8)?;
        // Each instance takes 24 bytes, so the remaining payload bounds
        // the event count.
        let mut execs = EventColumns::with_capacity(count, r.remaining() / 24);
        let mut exec = Vec::new();
        for _ in 0..count {
            let len = r.get_len("miner.exec.len", 24)?;
            exec.clear();
            for _ in 0..len {
                let vertex = r.get_u64("miner.exec.vertex")?;
                let vertex = u32::try_from(vertex).map_err(|_| WireError {
                    message: format!("miner.exec.vertex: value {vertex} exceeds u32"),
                })?;
                exec.push((
                    vertex,
                    r.get_u64("miner.exec.start")?,
                    r.get_u64("miner.exec.end")?,
                ));
            }
            execs.push_exec(exec.iter().copied());
        }
        let events = r.get_u64("miner.events")?;
        let events_absorbed = r.get_u64("online.events_absorbed")?;
        if events != events_absorbed {
            return Err(WireError {
                message: format!(
                    "miner event total {events} differs from the online event total {events_absorbed}"
                ),
            });
        }
        Ok(OnlineMinerState {
            activities,
            ordered,
            overlap,
            execs,
            events_absorbed,
            events_since_snapshot: r.get_u64("online.events_since_snapshot")?,
            snapshots_taken: r.get_u64("online.snapshots_taken")?,
        })
    }
}

/// Where the follow session stood in its source log when the
/// checkpoint was taken, plus the parse-side accounting accumulated up
/// to that point (so a resumed session's final report covers the whole
/// stream, not just the tail).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceState {
    /// Absolute byte offset to seek the source to on resume — always a
    /// record boundary.
    pub byte_offset: u64,
    /// Full lines consumed before that offset.
    pub line: u64,
    /// The source file's total length when the checkpoint was taken.
    /// A smaller file at resume time means truncation or rotation —
    /// the offset no longer addresses the same data.
    pub source_len: u64,
    /// Byte/event tallies accumulated before the checkpoint.
    pub stats: CodecStats,
    /// Parse-side ingest accounting accumulated before the checkpoint.
    pub report: IngestReport,
}

impl SourceState {
    fn encode_into(&self, w: &mut WireWriter) {
        w.put_u64(self.byte_offset);
        w.put_u64(self.line);
        w.put_u64(self.source_len);
        procmine_log::stream::checkpoint::encode_stats(w, &self.stats);
        procmine_log::stream::checkpoint::encode_report(w, &self.report);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(SourceState {
            byte_offset: r.get_u64("source.byte_offset")?,
            line: r.get_u64("source.line")?,
            source_len: r.get_u64("source.source_len")?,
            stats: procmine_log::stream::checkpoint::decode_stats(r)?,
            report: procmine_log::stream::checkpoint::decode_report(r)?,
        })
    }
}

/// Everything a crashed `--follow` session needs to continue as if
/// uninterrupted: options fingerprint, miner state, assembler state,
/// and source position. One value of this type is the payload of one
/// checkpoint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FollowCheckpoint {
    /// The options the state was accumulated under.
    pub fingerprint: OptionsFingerprint,
    /// The online miner's resumable state.
    pub miner: OnlineMinerState,
    /// The case assembler's resumable state.
    pub assembler: AssemblerState,
    /// The source position and pre-checkpoint accounting.
    pub source: SourceState,
}

/// A checkpoint's parts, borrowed: the one checkpoint encoder. The
/// miner part may be a live [`OnlineMiner`]
/// ([`OnlineMiner::state_view`]), so a `--follow` save encodes straight
/// from it; [`FollowCheckpoint`] encodes and saves through
/// [`FollowCheckpoint::view`]. The bytes are the same either way.
#[derive(Debug, Clone, Copy)]
pub struct FollowCheckpointView<'a> {
    /// The options the state was accumulated under.
    pub fingerprint: OptionsFingerprint,
    /// The online miner's resumable state.
    pub miner: MinerStateView<'a>,
    /// The case assembler's resumable state.
    pub assembler: &'a AssemblerState,
    /// The source position and pre-checkpoint accounting.
    pub source: &'a SourceState,
}

impl FollowCheckpointView<'_> {
    /// The checkpoint encoded into one buffer, sized up front, with the
    /// envelope header reserved in front of the payload: the miner's
    /// columns are written once.
    fn encode_enveloped(&self) -> WireWriter {
        // The assembler and source parts are small; encoded first, they
        // complete the exact size of the buffer.
        let mut tail = WireWriter::new();
        self.assembler.encode_into(&mut tail);
        self.source.encode_into(&mut tail);
        let tail = tail.into_bytes();
        let mut w = WireWriter::enveloped(
            OptionsFingerprint::ENCODED_LEN + self.miner.encoded_len() + tail.len(),
        );
        self.fingerprint.encode_into(&mut w);
        self.miner.encode_into(&mut w);
        w.put_bytes(&tail);
        w
    }

    /// Encodes the checkpoint payload (envelope not included).
    pub fn encode(&self) -> Vec<u8> {
        self.encode_enveloped().into_bytes()
    }

    /// Writes the checkpoint to `path` atomically (envelope into a tmp
    /// file, fsync, rename). A crash during the save leaves the
    /// previous checkpoint intact. The envelope header is sealed in
    /// place in front of the payload, which is not copied to wrap it.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        write_atomic_raw(path, &self.encode_enveloped().into_envelope())
    }
}

impl FollowCheckpoint {
    /// Borrows the checkpoint's parts for encoding.
    pub fn view(&self) -> FollowCheckpointView<'_> {
        FollowCheckpointView {
            fingerprint: self.fingerprint,
            miner: self.miner.view(),
            assembler: &self.assembler,
            source: &self.source,
        }
    }

    /// Encodes the checkpoint payload (envelope not included).
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Decodes a checkpoint payload. Requires full consumption —
    /// trailing bytes mean a writer/reader skew the version field
    /// failed to catch.
    pub fn decode(payload: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = WireReader::new(payload);
        let fingerprint = OptionsFingerprint::decode(&mut r)?;
        let miner = OnlineMinerState::decode(&mut r)?;
        let assembler = AssemblerState::decode(&mut r)?;
        let source = SourceState::decode(&mut r)?;
        r.finish()?;
        Ok(FollowCheckpoint {
            fingerprint,
            miner,
            assembler,
            source,
        })
    }

    /// Writes the checkpoint to `path` atomically; see
    /// [`FollowCheckpointView::save`].
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        self.view().save(path)
    }

    /// Reads and fully validates a checkpoint from `path`: envelope
    /// (magic, version, length, CRC-32), then payload structure.
    pub fn load(path: &Path) -> Result<Self, CheckpointError> {
        FollowCheckpoint::decode(&read_payload(path)?)
    }
}

impl OnlineMiner {
    /// Borrows the miner's full resumable state for encoding — what
    /// [`OnlineMiner::export_state`] copies out (the checkpoint cadence
    /// counter resets on resume and is not part of it).
    pub fn state_view(&self) -> MinerStateView<'_> {
        MinerStateView {
            activities: self.table.names(),
            ordered: &self.obs.ordered,
            overlap: &self.obs.overlap,
            execs: &self.execs,
            events_absorbed: self.events_absorbed,
            events_since_snapshot: self.events_since_snapshot,
            snapshots_taken: self.snapshots_taken,
        }
    }

    /// Exports the miner's full resumable state (the checkpoint cadence
    /// counter resets on resume and is not part of it).
    pub fn export_state(&self) -> OnlineMinerState {
        OnlineMinerState {
            activities: self.table.names().to_vec(),
            ordered: self.obs.ordered.clone(),
            overlap: self.obs.overlap.clone(),
            execs: self.execs.clone(),
            events_absorbed: self.events_absorbed,
            events_since_snapshot: self.events_since_snapshot,
            snapshots_taken: self.snapshots_taken,
        }
    }

    /// Rebuilds a miner from an exported [`OnlineMinerState`] under the
    /// given options and snapshot policy. Structural invariants are
    /// re-validated — cadence counters, matrix shapes, vertex ranges,
    /// per-execution repeat-freedom, the event total — so a corrupt or
    /// hand-forged state is refused instead of mined from. The
    /// first-of-set list the snapshots mark at T ≤ 1 is not part of the
    /// state; it is keyed again here.
    pub fn from_state(
        options: MinerOptions,
        policy: SnapshotPolicy,
        state: OnlineMinerState,
    ) -> Result<Self, CheckpointError> {
        if state.events_since_snapshot > state.events_absorbed {
            return Err(invalid(format!(
                "online miner counters are inconsistent: {} events since snapshot, {} absorbed",
                state.events_since_snapshot, state.events_absorbed
            )));
        }
        let n = state.activities.len();
        let table = ActivityTable::from_names(state.activities.iter().map(String::as_str));
        if table.len() != n {
            return Err(invalid(format!(
                "miner activity table has duplicate names ({} unique of {n})",
                table.len()
            )));
        }
        if state.ordered.len() != n * n || state.overlap.len() != n * n {
            return Err(invalid(format!(
                "miner count matrices are {}/{} cells, expected {} for {n} activities",
                state.ordered.len(),
                state.overlap.len(),
                n * n
            )));
        }
        // `last_seen[v]`: the last execution that contained vertex `v`.
        let mut last_seen = vec![usize::MAX; n];
        for i in 0..state.execs.exec_count() {
            let vertices = state.execs.exec(i).activities;
            if vertices.is_empty() {
                return Err(invalid(format!("miner execution {i} is empty")));
            }
            for &v in vertices {
                let v = v as usize;
                if v >= n {
                    return Err(invalid(format!(
                        "miner execution {i} references vertex {v}, table has {n} activities"
                    )));
                }
                if last_seen[v] == i {
                    return Err(invalid(format!(
                        "miner execution {i} repeats vertex {v} (acyclic miner state)"
                    )));
                }
                last_seen[v] = i;
            }
        }
        let events = state.execs.event_count() as u64;
        if events != state.events_absorbed {
            return Err(invalid(format!(
                "miner event total {} does not match the {events} instances in its executions",
                state.events_absorbed
            )));
        }
        Ok(OnlineMiner {
            sets: set_index(&options, &state.execs),
            options,
            policy,
            table,
            obs: OrderObservations {
                ordered: state.ordered,
                overlap: state.overlap,
            },
            execs: state.execs,
            id_map: Vec::new(),
            events_absorbed: events,
            events_since_snapshot: state.events_since_snapshot,
            snapshots_taken: state.snapshots_taken,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_log::WorkflowLog;

    /// Example 7's log: 4 executions, 16 events, no snapshot yet. The
    /// payload round trips are in `tests/checkpoint_v1.rs`.
    fn seeded_miner() -> OnlineMiner {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::every(6));
        miner.absorb_log(&log).unwrap();
        miner
    }

    #[test]
    fn corrupt_miner_states_are_refused() {
        let good = seeded_miner().export_state();
        let reject = |state: OnlineMinerState, needle: &str| {
            let err = OnlineMiner::from_state(
                MinerOptions::default(),
                SnapshotPolicy::on_demand(),
                state,
            )
            .map(|_| ())
            .expect_err(needle)
            .to_string();
            assert!(err.contains(needle), "got: {err}");
        };
        // `good` plus one forged execution, the event total kept in step.
        let with_exec = |events: &[(u32, u64, u64)]| {
            let mut state = good.clone();
            state.execs.push_exec(events.iter().copied());
            state.events_absorbed += events.len() as u64;
            state
        };

        let mut dup = good.clone();
        dup.activities[1] = dup.activities[0].clone();
        reject(dup, "duplicate names");

        let mut short = good.clone();
        short.ordered.pop();
        reject(short, "count matrices");

        let n = good.activities.len() as u32;
        reject(with_exec(&[(0, 0, 0), (n, 1, 1)]), "references vertex");
        reject(with_exec(&[(0, 0, 0), (0, 1, 1)]), "repeats vertex");
        reject(with_exec(&[]), "is empty");

        let mut miscounted = good.clone();
        miscounted.events_absorbed += 1;
        reject(miscounted, "event total");

        let mut counters = good.clone();
        counters.events_since_snapshot = counters.events_absorbed + 1;
        reject(counters.clone(), "inconsistent");
        counters.events_since_snapshot = counters.events_absorbed;
        assert!(OnlineMiner::from_state(
            MinerOptions::default(),
            SnapshotPolicy::on_demand(),
            counters
        )
        .is_ok());
    }

    #[test]
    fn unequal_event_total_slots_are_refused() {
        // Version 1 writes the event total twice; a payload whose two
        // copies disagree is corrupt, whichever copy is wrong.
        let mut w = WireWriter::new();
        seeded_miner().state_view().encode_into(&mut w);
        let good = w.into_bytes();
        // The two slots precede the last two counters.
        let first = good.len() - 32;
        for slot in [first, first + 8] {
            let mut bytes = good.clone();
            bytes[slot] ^= 1;
            let err = OnlineMinerState::decode(&mut WireReader::new(&bytes))
                .expect_err("unequal slots accepted");
            assert!(err.message.contains("differs"), "got: {err}");
        }
        assert!(OnlineMinerState::decode(&mut WireReader::new(&good)).is_ok());
    }

    /// The save buffer is sized from `encoded_len`, so it must count
    /// every byte the encoder writes.
    #[test]
    fn encoded_lengths_are_exact() {
        let mut miner = seeded_miner();
        miner.absorb_sequence(&["A", "Z", "F"]).unwrap();
        let view = miner.state_view();
        let mut w = WireWriter::new();
        view.encode_into(&mut w);
        assert_eq!(w.into_bytes().len(), view.encoded_len());
        let fingerprint = OptionsFingerprint {
            noise_threshold: 1,
            max_open_cases: 1024,
            strict_assembly: false,
        };
        let mut w = WireWriter::new();
        fingerprint.encode_into(&mut w);
        assert_eq!(w.into_bytes().len(), OptionsFingerprint::ENCODED_LEN);
    }

    #[test]
    fn fingerprint_mismatch_is_described_field_by_field() {
        let saved = OptionsFingerprint {
            noise_threshold: 1,
            max_open_cases: 1024,
            strict_assembly: false,
        };
        assert!(saved.mismatch(&saved).is_none());
        let other = OptionsFingerprint {
            noise_threshold: 3,
            max_open_cases: 8,
            strict_assembly: true,
        };
        let diff = other.mismatch(&saved).unwrap();
        assert!(diff.contains("noise threshold 3"));
        assert!(diff.contains("open-case window 8"));
        assert!(diff.contains("strict assembly true"));
    }
}
