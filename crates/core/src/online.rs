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
//! absorbs — count matrices are re-indexed on the fly. What a `--follow`
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
    count_one_execution, finish_from_counts, pair_observations, OrderObservations, VertexLog,
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
        OnlineMiner {
            options,
            policy,
            table: ActivityTable::new(),
            obs: OrderObservations::new(0),
            execs: EventColumns::new(),
            events_absorbed: 0,
            events_since_snapshot: 0,
            snapshots_taken: 0,
        }
    }

    /// Absorbs one completed execution from a log that shares this
    /// miner's activity-name universe (ids are re-interned by name, so
    /// the source log may use a different table). Returns `true` if the
    /// cadence policy now wants a snapshot. Errors leave the miner
    /// untouched.
    pub fn absorb(
        &mut self,
        exec: &Execution,
        source_table: &ActivityTable,
    ) -> Result<bool, MineError> {
        let events = exec
            .instances()
            .iter()
            .map(|i| (source_table.name(i.activity), i.start, i.end));
        self.absorb_events(&exec.id, exec.has_repeats(), events)
    }

    /// Absorbs one execution given as an ordered list of activity
    /// names (instantaneous form), named `incremental-<k>` in errors.
    /// New names grow the activity universe. Returns what
    /// [`absorb`](OnlineMiner::absorb) returns.
    pub fn absorb_sequence<S: AsRef<str>>(&mut self, names: &[S]) -> Result<bool, MineError> {
        let id = format!("incremental-{}", self.execs.exec_count());
        let mut seen = HashSet::new();
        let repeats = names.iter().any(|n| !seen.insert(n.as_ref()));
        let events = names
            .iter()
            .enumerate()
            .map(|(i, s)| (s.as_ref(), i as u64, i as u64));
        self.absorb_events(&id, repeats, events)
    }

    /// Absorbs every execution of a log, stopping at the first error.
    pub fn absorb_log(&mut self, log: &WorkflowLog) -> Result<(), MineError> {
        for exec in log.executions() {
            self.absorb(exec, log.activities())?;
        }
        Ok(())
    }

    /// The one absorb path. `events` are one execution's `(activity
    /// name, start, end)` triples in start order. Every check runs
    /// before any state changes, so a refused execution leaves the
    /// miner — its activity table included — untouched.
    fn absorb_events<'a>(
        &mut self,
        id: &str,
        repeats: bool,
        events: impl ExactSizeIterator<Item = (&'a str, u64, u64)> + Clone,
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
        let new_names = events
            .clone()
            .filter(|&(name, _, _)| self.table.id(name).is_none())
            .count();
        self.check_limits(id, len, new_names)?;
        let old_n = self.table.len();
        let table = &mut self.table;
        self.execs.push_exec(
            events.map(|(name, start, end)| (table.intern(name).index() as u32, start, end)),
        );
        self.grow_to(self.table.len(), old_n);
        let last = self.execs.exec_count() - 1;
        count_one_execution(self.table.len(), self.execs.exec(last), &mut self.obs);
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
    /// The deadline (`options.limits.deadline`, measured from this
    /// call) starts *before* any work and is re-checked once per
    /// retained execution during the marking pass (while keying
    /// executions by activity set at T ≤ 1), so an expired deadline
    /// aborts the snapshot promptly even on large histories. A failed
    /// snapshot leaves the cadence as it was.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Limits;
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
