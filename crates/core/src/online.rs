//! Online mining — the paper's *process evolution* application.
//!
//! The introduction motivates using mined models "to allow the evolution
//! of the current process model into future versions of the model by
//! incorporating feedback from successful process executions". That
//! calls for a miner that absorbs executions as they complete and can
//! produce an up-to-date model at any point without rescanning history.
//!
//! [`OnlineMiner`] keeps the step-2 ordering counts (the dominant O(n²)
//! work per execution) up to date per absorbed execution; a
//! [`snapshot`](OnlineMiner::snapshot) runs only the cheap finishing
//! steps (threshold → two-cycles → SCC → per-execution reduction) over
//! the retained executions. The activity universe may grow between
//! absorbs — count matrices are re-indexed on the fly.
//!
//! Each absorb does only new work. Source-table activity ids map to
//! the miner's through a cached id map, checked by name, so an absorb
//! hashes only names the map has not seen. Each execution's sorted
//! activity set is keyed once, as it is absorbed, into a persistent
//! first-of-set list; at noise threshold T ≤ 1 a snapshot marks that
//! list instead of re-keying the whole history (exact — see
//! [`crate::general_dag`]). The list is rebuilt by
//! [`OnlineMiner::from_state`], not checkpointed. What a `--follow`
//! session adds is *when to look*: a [`SnapshotPolicy`] makes a snapshot
//! due every N absorbed events, or only on demand. Edge-support
//! frequencies are preserved — a snapshot after k executions equals
//! batch-mining those k executions (the `--follow` parity tests pin
//! this, edges and support counts both).
//!
//! Like Algorithm 2, the online miner handles acyclic processes; an
//! execution with repeated activities is rejected (route such logs to
//! [`crate::mine_cyclic`]).

use crate::general_dag::{
    count_one_execution, finish_from_counts, pair_observations, OrderObservations, SetIndex,
    VertexLog,
};
use crate::limits::LimitKind;
use crate::model::assemble;
use crate::session::{run_stage, MineSession};
use crate::telemetry::{MetricsSink, Stage};
use crate::{MineError, MinedModel, MinerOptions};
use procmine_log::{ActivityTable, EventColumns, Execution, WorkflowLog};
use std::collections::HashSet;

/// When an [`OnlineMiner`] considers a snapshot due.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Snapshot after at least this many newly absorbed activity
    /// instances (events). `None`: only on demand / at end of stream.
    pub every_events: Option<u64>,
}

impl SnapshotPolicy {
    /// A policy snapshotting every `n` absorbed events.
    pub fn every(n: u64) -> Self {
        SnapshotPolicy {
            every_events: Some(n),
        }
    }

    /// A policy that only snapshots on demand.
    pub fn on_demand() -> Self {
        SnapshotPolicy { every_events: None }
    }
}

/// A miner that absorbs executions over time (Algorithm 2 with
/// incremental step-2 counts) — the consumer end of a
/// `procmine mine --follow` pipeline. Executions come in as they
/// complete out of the event stream (see
/// `procmine_log::stream::CaseAssembler`); the driver asks
/// [`OnlineMiner::snapshot_due`] after each absorb and materializes a
/// model through [`OnlineMiner::snapshot_in`] when it is.
#[derive(Debug, Clone)]
pub struct OnlineMiner {
    pub(crate) options: MinerOptions,
    pub(crate) policy: SnapshotPolicy,
    pub(crate) table: ActivityTable,
    /// Row-major `n × n` ordered-pair and overlap counts over the
    /// *current* table.
    pub(crate) obs: OrderObservations,
    /// Lowered executions (dense vertex, start, end) in columnar form,
    /// kept for the marking pass (steps 5–6 need the executions
    /// themselves).
    pub(crate) execs: EventColumns,
    /// The first execution of each activity set, keyed as executions
    /// are absorbed: what a snapshot marks at T ≤ 1. `None` at T ≥ 2,
    /// where every execution is marked.
    pub(crate) sets: Option<SetIndex>,
    /// Per activity id of the table last absorbed from: the miner id
    /// it mapped to (`u32::MAX`: none yet). An entry is used only while
    /// it names the same activity, so absorbing from another table
    /// stays correct.
    pub(crate) id_map: Vec<u32>,
    /// Activity instances absorbed over the miner's whole life —
    /// checked against [`crate::Limits::max_events`] before each absorb.
    pub(crate) events_absorbed: u64,
    /// Events absorbed since the last snapshot (or the start).
    pub(crate) events_since_snapshot: u64,
    pub(crate) snapshots_taken: u64,
}

impl OnlineMiner {
    /// Creates an empty miner.
    pub fn new(options: MinerOptions, policy: SnapshotPolicy) -> Self {
        let execs = EventColumns::new();
        OnlineMiner {
            sets: set_index(&options, &execs),
            options,
            policy,
            table: ActivityTable::new(),
            obs: OrderObservations::new(0),
            execs,
            id_map: Vec::new(),
            events_absorbed: 0,
            events_since_snapshot: 0,
            snapshots_taken: 0,
        }
    }

    /// Absorbs one completed execution from a log that shares this
    /// miner's activity-name universe (ids are mapped by name, so the
    /// source log may use a different table). Returns `true` if the
    /// cadence policy now wants a snapshot. Errors leave the miner
    /// untouched.
    pub fn absorb(
        &mut self,
        exec: &Execution,
        source_table: &ActivityTable,
    ) -> Result<bool, MineError> {
        let events: Vec<_> = exec
            .instances()
            .iter()
            .map(|i| {
                let name = source_table.name(i.activity);
                (
                    name,
                    self.cached_id(i.activity.index(), name),
                    i.start,
                    i.end,
                )
            })
            .collect();
        self.absorb_events(&exec.id, exec.has_repeats(), &events)
    }

    /// Absorbs one execution given as an ordered list of activity
    /// names (instantaneous form), named `incremental-<k>` in errors.
    /// New names grow the activity universe. Returns what
    /// [`absorb`](OnlineMiner::absorb) returns.
    pub fn absorb_sequence<S: AsRef<str>>(&mut self, names: &[S]) -> Result<bool, MineError> {
        let id = format!("incremental-{}", self.execs.exec_count());
        let mut seen = HashSet::new();
        let repeats = names.iter().any(|n| !seen.insert(n.as_ref()));
        let events: Vec<_> = names
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let known = self.table.id(s.as_ref()).map(|a| a.index() as u32);
                (s.as_ref(), known, i as u64, i as u64)
            })
            .collect();
        self.absorb_events(&id, repeats, &events)
    }

    /// The miner id of activity `name`, whose id is `source` in the
    /// table being absorbed from: the cached entry while it still names
    /// `name`, else a table lookup, which is cached. `None` for a name
    /// the miner has not seen.
    fn cached_id(&mut self, source: usize, name: &str) -> Option<u32> {
        let names = self.table.names();
        let cached = self.id_map.get(source).copied();
        if let Some(id) = cached.filter(|&id| names.get(id as usize).is_some_and(|n| n == name)) {
            return Some(id);
        }
        let id = self.table.id(name)?.index() as u32;
        if self.id_map.len() <= source {
            self.id_map.resize(source + 1, u32::MAX);
        }
        self.id_map[source] = id;
        Some(id)
    }

    /// Absorbs every execution of a log, stopping at the first error.
    pub fn absorb_log(&mut self, log: &WorkflowLog) -> Result<(), MineError> {
        for exec in log.executions() {
            self.absorb(exec, log.activities())?;
        }
        Ok(())
    }

    /// The one absorb path. `events` are one execution's `(activity
    /// name, miner id, start, end)` in start order, the id `None` for a
    /// name the miner has not seen. Every check runs before any state
    /// changes, so a refused execution leaves the miner — its activity
    /// table included — untouched.
    fn absorb_events(
        &mut self,
        id: &str,
        repeats: bool,
        events: &[(&str, Option<u32>, u64, u64)],
    ) -> Result<bool, MineError> {
        let len = events.len();
        if len == 0 {
            return Err(MineError::EmptyExecution {
                execution: id.to_string(),
            });
        }
        if repeats {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: id.to_string(),
            });
        }
        // Without repeats, the unseen names are distinct.
        let new_names = events.iter().filter(|e| e.1.is_none()).count();
        self.check_limits(id, len, new_names)?;
        let old_n = self.table.len();
        let table = &mut self.table;
        self.execs
            .push_exec(events.iter().map(|&(name, known, start, end)| {
                (
                    known.unwrap_or_else(|| table.intern(name).index() as u32),
                    start,
                    end,
                )
            }));
        self.grow_to(self.table.len(), old_n);
        let last = self.execs.exec_count() - 1;
        let exec = self.execs.exec(last);
        count_one_execution(self.table.len(), exec, &mut self.obs);
        if let Some(sets) = &mut self.sets {
            sets.key(last, exec.activities);
        }
        self.events_absorbed += len as u64;
        self.events_since_snapshot += len as u64;
        Ok(self.snapshot_due())
    }

    /// The size limits an absorb must respect. `new_names` is how many
    /// previously-unseen activities the execution would intern.
    fn check_limits(&self, id: &str, len: usize, new_names: usize) -> Result<(), MineError> {
        let limits = &self.options.limits;
        let exceeded = |kind, details| Err(MineError::LimitExceeded { kind, details });
        if let Some(max) = limits.max_execution_len.filter(|&max| len > max) {
            let details = format!("execution `{id}` has {len} activity instances (limit {max})");
            return exceeded(LimitKind::ExecutionLength, details);
        }
        let grown = self.table.len() + new_names;
        if let Some(max) = limits.max_activities.filter(|&max| grown > max) {
            let details = format!(
                "execution `{id}` would grow the activity universe to {grown} (limit {max})"
            );
            return exceeded(LimitKind::Activities, details);
        }
        let total = self.events_absorbed + len as u64;
        if let Some(max) = limits.max_events.filter(|&max| total > max) {
            let details =
                format!("absorbing execution `{id}` would exceed {max} total activity instances");
            return exceeded(LimitKind::Events, details);
        }
        Ok(())
    }

    /// Re-indexes the count matrices when the activity universe grows
    /// from `old_n` to `new_n`.
    fn grow_to(&mut self, new_n: usize, old_n: usize) {
        if new_n == old_n {
            return;
        }
        let grow = |old: &[u32]| {
            let mut grown = vec![0u32; new_n * new_n];
            for u in 0..old_n {
                grown[u * new_n..u * new_n + old_n]
                    .copy_from_slice(&old[u * old_n..u * old_n + old_n]);
            }
            grown
        };
        self.obs.ordered = grow(&self.obs.ordered);
        self.obs.overlap = grow(&self.obs.overlap);
    }

    /// `true` when the cadence policy wants a snapshot.
    pub fn snapshot_due(&self) -> bool {
        self.policy
            .every_events
            .is_some_and(|n| self.events_since_snapshot >= n)
    }

    /// Produces the current model (steps 3–7 over the retained
    /// executions) and resets the snapshot cadence. Errors if nothing
    /// has been absorbed yet.
    ///
    /// Snapshots borrow the retained executions — producing a model
    /// copies nothing but the count matrices.
    pub fn snapshot(&mut self) -> Result<MinedModel, MineError> {
        self.snapshot_in(&mut MineSession::new())
    }

    /// [`snapshot`](OnlineMiner::snapshot) inside a [`MineSession`]: the
    /// finishing steps are timed and counted into the session's sink,
    /// recorded as spans into its tracer, and fanned out over its
    /// threads. The step-2 counting work happened at absorb time, so
    /// [`Stage::CountPairs`] stays zero here; the scanned-execution and
    /// pair totals are still reported so the counters describe the
    /// whole mining effort behind the snapshot.
    ///
    /// At T ≤ 1 the marking pass reduces the first execution of each
    /// activity set, from the list kept as executions were absorbed;
    /// at T ≥ 2 it reduces every retained execution.
    ///
    /// The deadline (`options.limits.deadline`, measured from this
    /// call) starts *before* any work and is re-checked once per
    /// marked execution, so an expired deadline aborts the snapshot
    /// promptly even on large histories. A failed snapshot leaves the
    /// cadence as it was.
    pub fn snapshot_in<S: MetricsSink>(
        &mut self,
        session: &mut MineSession<S>,
    ) -> Result<MinedModel, MineError> {
        let deadline = self.options.limits.start_clock();
        let tracer = session.tracer.clone();
        let _root = tracer.span_cat("mine.incremental", "miner");
        if self.execs.is_empty() {
            return Err(MineError::EmptyLog);
        }
        deadline.check()?;
        let vlog = VertexLog {
            n: self.table.len(),
            cols: &self.execs,
        };
        if S::ENABLED {
            let scanned = self.execs.exec_count() as u64;
            let pairs = pair_observations(&self.execs);
            session.sink.record(|m| {
                m.executions_scanned += scanned;
                m.pairs_counted += pairs;
            });
        }
        let result = finish_from_counts(
            session,
            &vlog,
            self.obs.clone(),
            self.options.noise_threshold,
            self.sets.as_ref().map(SetIndex::first),
            deadline,
        )?;
        let model = run_stage(session, Stage::Assemble, deadline, |_, _| {
            Ok(assemble(&self.table, &result.graph, &result.counts))
        })?;
        self.events_since_snapshot = 0;
        self.snapshots_taken += 1;
        Ok(model)
    }

    /// Executions absorbed so far.
    pub fn executions(&self) -> usize {
        self.execs.exec_count()
    }

    /// Activity instances absorbed so far.
    pub fn events_absorbed(&self) -> u64 {
        self.events_absorbed
    }

    /// Snapshots materialized so far.
    pub fn snapshots_taken(&self) -> u64 {
        self.snapshots_taken
    }

    /// The activity table accumulated so far.
    pub fn activities(&self) -> &ActivityTable {
        &self.table
    }
}

/// The set index a miner under `options` keeps over its retained
/// executions `execs`, every one keyed; `None` at T ≥ 2.
pub(crate) fn set_index(options: &MinerOptions, execs: &EventColumns) -> Option<SetIndex> {
    (options.noise_threshold <= 1).then(|| {
        let mut sets = SetIndex::default();
        for i in 0..execs.exec_count() {
            sets.key(i, execs.exec(i).activities);
        }
        sets
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Limits;
    use procmine_log::ActivityId;
    use std::time::Duration;

    fn on_demand() -> OnlineMiner {
        OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand())
    }

    #[test]
    fn cadence_fires_every_n_events_and_resets() {
        let log = WorkflowLog::from_strings(["ABC"]).unwrap();
        let (exec, table) = (&log.executions()[0], log.activities());
        let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::every(5));
        // 3, then 6 events: due after the second execution.
        assert_eq!(miner.absorb(exec, table), Ok(false));
        assert_eq!(miner.absorb(exec, table), Ok(true));
        miner.snapshot().unwrap();
        assert!(!miner.snapshot_due(), "snapshot resets the cadence");
        assert_eq!((miner.snapshots_taken(), miner.events_absorbed()), (1, 6));

        // On demand, no snapshot is ever due.
        let mut miner = on_demand();
        assert_eq!(miner.absorb(exec, table), Ok(false));
        assert_eq!(miner.absorb_sequence(&["A", "B"]), Ok(false));
    }

    #[test]
    fn cadence_shorter_than_one_execution_fires_every_absorb() {
        // every_events smaller than a single execution's length: the
        // counter overshoots in one step. It must fire immediately and
        // reset cleanly each time, not wedge or wrap.
        let log = WorkflowLog::from_strings(["ABCDE", "ABCDE", "ABCDE"]).unwrap();
        let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::every(2));
        for exec in log.executions() {
            assert!(
                miner.absorb(exec, log.activities()).unwrap(),
                "5 events >= cadence 2: due after every absorb"
            );
            miner.snapshot().unwrap();
            assert!(!miner.snapshot_due(), "reset survives the overshoot");
        }
        assert_eq!(miner.snapshots_taken(), 3);
        assert_eq!(miner.events_absorbed(), 15);
    }

    #[test]
    fn model_evolves_with_new_executions() {
        let mut miner = on_demand();
        miner.absorb_sequence(&["A", "B", "C"]).unwrap();
        miner.absorb_sequence(&["A", "B", "C"]).unwrap();
        let before = miner.snapshot().unwrap();
        assert!(before.has_edge("B", "C"));

        // New observations reverse B and C: they become independent.
        miner.absorb_sequence(&["A", "C", "B"]).unwrap();
        let after = miner.snapshot().unwrap();
        assert!(!after.has_edge("B", "C") && !after.has_edge("C", "B"));
        assert!(after.has_edge("A", "B") && after.has_edge("A", "C"));
    }

    #[test]
    fn activity_universe_grows() {
        let mut miner = on_demand();
        miner.absorb_sequence(&["A", "B"]).unwrap();
        assert_eq!(miner.activities().len(), 2);
        // A branch through new activities arrives later.
        miner.absorb_sequence(&["A", "C", "D", "B"]).unwrap();
        assert_eq!(miner.activities().len(), 4);
        let model = miner.snapshot().unwrap();
        assert!(
            model.has_edge("A", "B"),
            "direct path still needed by exec 1"
        );
        assert!(model.has_edge("C", "D"));
        assert_eq!(model.activity_count(), 4);
    }

    #[test]
    fn count_matrix_survives_growth() {
        // Counts recorded before growth must keep their values after
        // re-indexing.
        let mut miner = on_demand();
        for _ in 0..5 {
            miner.absorb_sequence(&["A", "B"]).unwrap();
        }
        miner.absorb_sequence(&["A", "X", "B"]).unwrap();
        let model = miner.snapshot().unwrap();
        let [a, b] = ["A", "B"].map(|name| model.node_of(name).unwrap().index());
        assert!(
            model.edge_support().contains(&(a, b, 6)),
            "all six observations counted: {:?}",
            model.edge_support()
        );
    }

    #[test]
    fn rejects_repeats_and_empty() {
        let mut miner = on_demand();
        assert!(matches!(
            miner.absorb_sequence(&["A", "B", "A"]),
            Err(MineError::RepeatsRequireCyclicMiner { .. })
        ));
        assert!(matches!(
            miner.absorb_sequence::<&str>(&[]),
            Err(MineError::EmptyExecution { .. })
        ));
        assert!(matches!(miner.snapshot(), Err(MineError::EmptyLog)));
        assert_eq!(miner.events_absorbed(), 0, "refused absorbs count nothing");
    }

    #[test]
    fn expired_deadline_aborts_snapshot_promptly() {
        // The snapshot deadline must start before any work and be
        // honored between retained executions, so even a large history
        // aborts on the first check rather than after a full pass.
        let mut miner = OnlineMiner::new(
            MinerOptions::default().with_limits(Limits {
                deadline: Some(Duration::ZERO),
                ..Limits::default()
            }),
            SnapshotPolicy::on_demand(),
        );
        for i in 0..200 {
            let names: Vec<String> = (0..20).map(|a| format!("A{a}-{}", i % 3)).collect();
            miner.absorb_sequence(&names).unwrap();
        }
        for threads in [1, 2] {
            let err = miner
                .snapshot_in(&mut MineSession::new().with_threads(threads))
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    MineError::LimitExceeded {
                        kind: LimitKind::Deadline,
                        ..
                    }
                ),
                "threads={threads}: {err:?}"
            );
        }
        assert_eq!(miner.snapshots_taken(), 0, "failed snapshots do not count");
    }

    #[test]
    fn threaded_snapshot_matches_serial() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let mut miner = on_demand();
        miner.absorb_log(&log).unwrap();
        let serial = miner.snapshot().unwrap();
        let threaded = miner
            .snapshot_in(&mut MineSession::new().with_threads(4))
            .unwrap();
        assert_eq!(serial.edge_support(), threaded.edge_support());
    }

    /// The names of every retained execution, in absorb order.
    fn retained(miner: &OnlineMiner) -> Vec<Vec<&str>> {
        (0..miner.execs.exec_count())
            .map(|i| {
                let vertices = miner.execs.exec(i).activities;
                vertices
                    .iter()
                    .map(|&v| miner.table.name(ActivityId::from_index(v as usize)))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn id_map_follows_names_across_alternating_tables() {
        // The same ids name different activities in the two tables:
        // id 0 is A in one and D in the other.
        let one = WorkflowLog::from_strings(["ABC", "BD"]).unwrap();
        let two = WorkflowLog::from_strings(["DCB", "AD", "E"]).unwrap();
        let mut miner = on_demand();
        let mut want = Vec::new();
        for round in 0..3 {
            for (log, k) in [(&one, round % 2), (&two, round % 3), (&one, 1 - round % 2)] {
                let exec = &log.executions()[k];
                miner.absorb(exec, log.activities()).unwrap();
                want.push(exec.display(log.activities()));
            }
        }
        let got: Vec<String> = retained(&miner).iter().map(|e| e.join(" ")).collect();
        assert_eq!(got, want);
        assert_eq!(miner.activities().len(), 5);
    }

    #[test]
    fn absorb_refused_for_a_new_name_changes_nothing() {
        let mut miner = OnlineMiner::new(
            MinerOptions::default().with_limits(Limits {
                max_activities: Some(3),
                ..Limits::default()
            }),
            SnapshotPolicy::on_demand(),
        );
        let log = WorkflowLog::from_strings(["ABC", "ABD", "BA", "CB"]).unwrap();
        let (execs, table) = (log.executions(), log.activities());
        miner.absorb(&execs[0], table).unwrap();
        // `ABD` would grow the universe to four activities.
        assert!(matches!(
            miner.absorb(&execs[1], table),
            Err(MineError::LimitExceeded {
                kind: LimitKind::Activities,
                ..
            })
        ));
        assert_eq!(miner.activities().names(), ["A", "B", "C"]);
        assert_eq!((miner.executions(), miner.events_absorbed()), (1, 3));
        // The next absorbs, from the same table and from one whose id 2
        // names another activity, land on their activities by name.
        miner.absorb(&execs[2], table).unwrap();
        miner.absorb(&execs[3], table).unwrap();
        let other = WorkflowLog::from_strings(["CAB"]).unwrap();
        miner.absorb_log(&other).unwrap();
        assert_eq!(
            retained(&miner),
            [
                vec!["A", "B", "C"],
                vec!["B", "A"],
                vec!["C", "B"],
                vec!["C", "A", "B"]
            ]
        );
        let batch = WorkflowLog::from_strings(["ABC", "BA", "CB", "CAB"]).unwrap();
        let want = crate::mine_general_dag(&batch, &MinerOptions::default()).unwrap();
        assert_eq!(miner.snapshot().unwrap().edges_named(), want.edges_named());
    }

    #[test]
    fn snapshot_survives_a_state_round_trip() {
        // Repeated activity sets, so the first-of-set list is shorter
        // than the history and must be rebuilt to the same list.
        let log = WorkflowLog::from_strings(["ABCF", "ACBF", "ADEF", "AEDF", "ABCF", "ADF", "AF"])
            .unwrap();
        for threshold in 0..=3 {
            let options = MinerOptions::with_threshold(threshold);
            let mut miner = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
            miner.absorb_log(&log).unwrap();
            let before = miner.snapshot().unwrap();
            let mut restored =
                OnlineMiner::from_state(options, SnapshotPolicy::on_demand(), miner.export_state())
                    .unwrap();
            let after = restored.snapshot().unwrap();
            assert_eq!(after.edge_support(), before.edge_support(), "T={threshold}");
            assert_eq!(after.edges_named(), before.edges_named(), "T={threshold}");
            // Both go on to absorb the same execution and still agree.
            miner.absorb_sequence(&["A", "D", "B", "F"]).unwrap();
            restored.absorb_sequence(&["A", "D", "B", "F"]).unwrap();
            assert_eq!(
                restored.snapshot().unwrap().edge_support(),
                miner.snapshot().unwrap().edge_support(),
                "T={threshold}"
            );
        }
    }

    #[test]
    fn absorb_from_differently_ordered_table() {
        // A log whose table interned names in another order still lands
        // on the right activities.
        let log = WorkflowLog::from_strings(["CBA"]).unwrap();
        let mut miner = on_demand();
        miner.absorb_sequence(&["A", "B", "C"]).unwrap();
        miner.absorb_log(&log).unwrap();
        let model = miner.snapshot().unwrap();
        // Both orders observed → all pairs independent.
        assert_eq!(model.edge_count(), 0);
    }
}
