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
//! **State in proportion to distinct behaviour.** Every absorbed
//! execution adds to the counts and to the totals (executions, events,
//! pairs), but at noise threshold T ≤ 1 only the first execution of
//! each activity set is retained: marking the first of a set is exact
//! for all of it (see [`crate::general_dag`]). At T ≥ 2 every execution
//! is retained. Absorbing maps source-table activity ids to the
//! miner's through a cached id map, checked by name, into buffers the
//! miner keeps, so an absorb hashes only names the map has not seen and
//! allocates only for what it retains (at T ≤ 1 a new activity set's
//! key and columns) and when the activity table grows.
//!
//! **Marks that survive snapshots.** A snapshot keeps the pruned graph
//! it marked against and the edges each retained execution marked on
//! it. An execution's marks depend only on that graph restricted to its
//! activities and on its own interval order, so the next snapshot
//! re-marks only the executions that contain both endpoints of an edge
//! pruning added or dropped since, plus those retained since. This is
//! exact at every T.
//!
//! What a `--follow` session adds is *when to look*: a
//! [`SnapshotPolicy`] makes a snapshot due every N absorbed events, or
//! only on demand. Edge-support frequencies are preserved — a snapshot
//! after k executions equals batch-mining those k executions (the
//! `--follow` parity tests pin this, edges and support counts both).
//!
//! Like Algorithm 2, the online miner handles acyclic processes; an
//! execution with repeated activities is rejected (route such logs to
//! [`crate::mine_cyclic`]).

use crate::general_dag::{
    count_one_execution, drop_unmarked, mark_one_execution, prune_graph, record_arena_telemetry,
    sorted_set, MarkScratch, MarkedEdges, OrderObservations, SetIndex,
};
use crate::limits::{Deadline, LimitKind};
use crate::model::assemble;
use crate::parallel;
use crate::session::{run_stage, MineSession};
use crate::telemetry::{MetricsSink, Stage};
use crate::{MineError, MinedModel, MinerOptions};
use procmine_graph::AdjMatrix;
use procmine_log::{ActivityId, ActivityTable, EventColumns, ExecColumns, Execution, WorkflowLog};

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
    /// *current* table, of every absorbed execution.
    pub(crate) obs: OrderObservations,
    /// The retained executions (dense vertex, start, end) in columnar
    /// form, kept for the marking pass: at T ≤ 1 the first execution of
    /// each activity set, at T ≥ 2 every execution.
    pub(crate) execs: EventColumns,
    /// The sorted activity sets of the retained executions, which
    /// decide retention at T ≤ 1. `None` at T ≥ 2.
    pub(crate) sets: Option<SetIndex>,
    /// Per activity id of the table last absorbed from: the miner id
    /// it mapped to (`u32::MAX`: none yet). An entry is used only while
    /// it names the same activity, so absorbing from another table
    /// stays correct.
    pub(crate) id_map: Vec<u32>,
    /// The buffers an absorb maps one execution into.
    scratch: AbsorbScratch,
    /// The marks of the last snapshot; `None` until a snapshot
    /// completes, and after one fails while marking, so the next one
    /// marks every retained execution.
    marks: Option<Marks>,
    /// Activity instances absorbed over the miner's whole life —
    /// checked against [`crate::Limits::max_events`] before each absorb.
    pub(crate) events_absorbed: u64,
    /// Executions absorbed over the miner's whole life.
    pub(crate) executions_absorbed: u64,
    /// Instance pairs the absorbed executions hold: `k·(k−1)/2` per
    /// execution of length `k`, what step 2 compares.
    pub(crate) pairs_absorbed: u64,
    /// Events absorbed since the last snapshot (or the start).
    pub(crate) events_since_snapshot: u64,
    pub(crate) snapshots_taken: u64,
}

/// One execution as an absorb maps it, in buffers kept across absorbs.
#[derive(Debug, Clone, Default)]
struct AbsorbScratch {
    /// Per instance, in start order: the miner id, start and end.
    activities: Vec<u32>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// The source ids of the names the miner has not seen, in order of
    /// first appearance.
    unseen: Vec<ActivityId>,
    /// `activities`, sorted: the activity set, and the repeat check.
    set: Vec<u32>,
}

/// What a snapshot's marking pass found, kept for the next snapshot.
#[derive(Debug, Clone)]
struct Marks {
    /// The graph the marks were made on: the snapshot's graph after
    /// pruning, two-cycle and SCC removal.
    graph: AdjMatrix,
    /// Per retained execution, in retention order: the edges its
    /// reduction marked on `graph`. Executions retained since have no
    /// entry yet.
    edges: Vec<MarkedEdges>,
    /// Row-major `n × n`: how many retained executions marked each
    /// edge.
    count: Vec<u32>,
}

impl Marks {
    fn new(n: usize) -> Self {
        Marks {
            graph: AdjMatrix::new(n),
            edges: Vec::new(),
            count: vec![0; n * n],
        }
    }

    /// Re-indexes onto an activity table grown from `old_n` to `new_n`
    /// activities.
    fn grow(&mut self, old_n: usize, new_n: usize) {
        self.count = grow_matrix(&self.count, old_n, new_n);
        let mut graph = AdjMatrix::new(new_n);
        for (u, v) in self.graph.edges() {
            graph.add_edge(u, v);
        }
        self.graph = graph;
    }

    /// The retained executions whose marks may differ on `g`: the
    /// marked ones that contain both endpoints of an edge `g` added or
    /// dropped, then every one retained since. The deadline is
    /// re-checked once per marked execution scanned.
    fn stale(
        &self,
        execs: &EventColumns,
        g: &AdjMatrix,
        deadline: Deadline,
    ) -> Result<Vec<usize>, MineError> {
        let n = g.node_count();
        let added = g.edges().filter(|&(u, v)| !self.graph.has_edge(u, v));
        let dropped = self.graph.edges().filter(|&(u, v)| !g.has_edge(u, v));
        // `changed` is symmetric, so a pair is looked up in either order.
        let mut changed = AdjMatrix::new(n);
        let mut endpoint = vec![false; n];
        let mut any = false;
        for (u, v) in added.chain(dropped) {
            changed.add_edge(u, v);
            changed.add_edge(v, u);
            endpoint[u] = true;
            endpoint[v] = true;
            any = true;
        }
        let mut stale = Vec::new();
        if any {
            let mut ends = Vec::new();
            for i in 0..self.edges.len() {
                deadline.check()?;
                ends.clear();
                ends.extend(
                    execs
                        .exec(i)
                        .activities
                        .iter()
                        .map(|&a| a as usize)
                        .filter(|&a| endpoint[a]),
                );
                let touched = (0..ends.len())
                    .any(|j| ends[j + 1..].iter().any(|&b| changed.has_edge(ends[j], b)));
                if touched {
                    stale.push(i);
                }
            }
        }
        stale.extend(self.edges.len()..execs.exec_count());
        Ok(stale)
    }

    /// Replaces the marks of retained execution `i` (the next one, when
    /// it has none yet) with `marked`, keeping the counts in step.
    fn set(&mut self, i: usize, marked: MarkedEdges) {
        if i == self.edges.len() {
            self.edges.push(Vec::new());
        }
        let old = std::mem::replace(&mut self.edges[i], marked);
        let n = self.graph.node_count();
        for &(u, v) in &old {
            self.count[u as usize * n + v as usize] -= 1;
        }
        for &(u, v) in &self.edges[i] {
            self.count[u as usize * n + v as usize] += 1;
        }
    }
}

/// A row-major `old_n × old_n` matrix re-indexed to `new_n × new_n`,
/// the new rows and columns zero.
fn grow_matrix(old: &[u32], old_n: usize, new_n: usize) -> Vec<u32> {
    let mut grown = vec![0u32; new_n * new_n];
    for u in 0..old_n {
        grown[u * new_n..u * new_n + old_n].copy_from_slice(&old[u * old_n..u * old_n + old_n]);
    }
    grown
}

impl OnlineMiner {
    /// Creates an empty miner.
    pub fn new(options: MinerOptions, policy: SnapshotPolicy) -> Self {
        OnlineMiner {
            sets: (options.noise_threshold <= 1).then(SetIndex::default),
            options,
            policy,
            table: ActivityTable::new(),
            obs: OrderObservations::new(0),
            execs: EventColumns::new(),
            id_map: Vec::new(),
            scratch: AbsorbScratch::default(),
            marks: None,
            events_absorbed: 0,
            executions_absorbed: 0,
            pairs_absorbed: 0,
            events_since_snapshot: 0,
            snapshots_taken: 0,
        }
    }

    /// Absorbs one completed execution from a log that shares this
    /// miner's activity-name universe (ids are mapped by name, so the
    /// source log may use a different table). Returns `true` if the
    /// cadence policy now wants a snapshot.
    ///
    /// Every check runs before any state changes, so a refused
    /// execution leaves the miner — its activity table included —
    /// untouched. The sorted activity set that decides retention also
    /// answers the repeat check.
    pub fn absorb(
        &mut self,
        exec: &Execution,
        source_table: &ActivityTable,
    ) -> Result<bool, MineError> {
        let n = self.table.len();
        let s = &mut self.scratch;
        s.activities.clear();
        s.starts.clear();
        s.ends.clear();
        s.unseen.clear();
        for i in exec.instances() {
            let name = source_table.name(i.activity);
            let id = cached_id(&mut self.id_map, &self.table, i.activity.index(), name)
                .unwrap_or_else(|| {
                    // An unseen name gets the id interning will give it:
                    // the next after the table's and the unseen before it.
                    let k = match s.unseen.iter().position(|&a| a == i.activity) {
                        Some(k) => k,
                        None => {
                            s.unseen.push(i.activity);
                            s.unseen.len() - 1
                        }
                    };
                    (n + k) as u32
                });
            s.activities.push(id);
            s.starts.push(i.start);
            s.ends.push(i.end);
        }
        sorted_set(&s.activities, &mut s.set);
        let len = s.activities.len();
        if len == 0 {
            return Err(MineError::EmptyExecution {
                execution: exec.id.clone(),
            });
        }
        if s.set.windows(2).any(|w| w[0] == w[1]) {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: exec.id.clone(),
            });
        }
        let new_names = s.unseen.len();
        self.check_limits(&exec.id, len, new_names)?;

        for &a in &self.scratch.unseen {
            self.table.intern(source_table.name(a));
        }
        self.grow_to(self.table.len(), n);
        let s = &self.scratch;
        let columns = ExecColumns {
            activities: &s.activities,
            starts: &s.starts,
            ends: &s.ends,
        };
        count_one_execution(self.table.len(), columns, &mut self.obs);
        let retain = match &mut self.sets {
            Some(sets) => sets.insert(&s.set),
            None => true,
        };
        if retain {
            let events = s.activities.iter().zip(&s.starts).zip(&s.ends);
            self.execs
                .push_exec(events.map(|((&a, &start), &end)| (a, start, end)));
        }
        let k = len as u64;
        self.events_absorbed += k;
        self.executions_absorbed += 1;
        self.pairs_absorbed += k * (k - 1) / 2;
        self.events_since_snapshot += k;
        Ok(self.snapshot_due())
    }

    /// Absorbs one execution given as an ordered list of activity
    /// names (instantaneous form), named `incremental-<k>` in errors.
    /// New names grow the activity universe. Returns what
    /// [`absorb`](OnlineMiner::absorb) returns.
    pub fn absorb_sequence<S: AsRef<str>>(&mut self, names: &[S]) -> Result<bool, MineError> {
        let id = format!("incremental-{}", self.executions_absorbed);
        let mut table = ActivityTable::new();
        let seq: Vec<ActivityId> = names.iter().map(|n| table.intern(n.as_ref())).collect();
        // An empty sequence is the one thing `from_ids` refuses.
        let exec = Execution::from_ids(&id, &seq)
            .map_err(|_| MineError::EmptyExecution { execution: id })?;
        self.absorb(&exec, &table)
    }

    /// Absorbs every execution of a log, stopping at the first error.
    pub fn absorb_log(&mut self, log: &WorkflowLog) -> Result<(), MineError> {
        for exec in log.executions() {
            self.absorb(exec, log.activities())?;
        }
        Ok(())
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

    /// Re-indexes the count matrices, and the marks, when the activity
    /// universe grows from `old_n` to `new_n`.
    fn grow_to(&mut self, new_n: usize, old_n: usize) {
        if new_n == old_n {
            return;
        }
        self.obs.ordered = grow_matrix(&self.obs.ordered, old_n, new_n);
        self.obs.overlap = grow_matrix(&self.obs.overlap, old_n, new_n);
        if let Some(marks) = &mut self.marks {
            marks.grow(old_n, new_n);
        }
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
    /// copies nothing but the pruned graph it keeps for the next one.
    pub fn snapshot(&mut self) -> Result<MinedModel, MineError> {
        self.snapshot_in(&mut MineSession::new())
    }

    /// [`snapshot`](OnlineMiner::snapshot) inside a [`MineSession`]: the
    /// finishing steps are timed and counted into the session's sink,
    /// recorded as spans into its tracer, and fanned out over its
    /// threads. The step-2 counting work happened at absorb time, so
    /// [`Stage::CountPairs`] stays zero here; the scanned-execution and
    /// pair totals are still reported — every absorbed execution and
    /// its pairs, as batch mining the same executions reports them — so
    /// the counters describe the whole mining effort behind the
    /// snapshot.
    ///
    /// The marking pass reduces only the retained executions whose
    /// marks may have changed: those that contain both endpoints of an
    /// edge pruning added or dropped since the last snapshot, and those
    /// retained since it (see the module doc).
    ///
    /// The deadline (`options.limits.deadline`, measured from this
    /// call) starts *before* any work and is re-checked once per
    /// execution the marking pass scans or marks, so an expired
    /// deadline aborts the snapshot promptly even on large histories. A
    /// failed snapshot leaves the cadence as it was; one that fails
    /// while marking drops the kept marks, so the next snapshot marks
    /// every retained execution.
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
        if S::ENABLED {
            let (scanned, pairs) = (self.executions_absorbed, self.pairs_absorbed);
            session.sink.record(|m| {
                m.executions_scanned += scanned;
                m.pairs_counted += pairs;
            });
        }
        let n = self.table.len();
        let threshold = self.options.noise_threshold;
        let mut g = prune_graph(session, n, &self.obs, threshold, deadline)?;
        let marks = self.mark(session, &g, deadline)?;
        drop_unmarked(session, &mut g, |u, v| marks.count[u * n + v] > 0);
        self.marks = Some(marks);

        let model = run_stage(session, Stage::Assemble, deadline, |_, _| {
            Ok(assemble(&self.table, &g, &self.obs.ordered))
        })?;
        self.events_since_snapshot = 0;
        self.snapshots_taken += 1;
        Ok(model)
    }

    /// Steps 5–6 as the [`Stage::Reduce`] stage: the kept marks, taken
    /// out of the miner, brought up to date on the pruned graph `g` by
    /// re-marking the retained executions whose marks may differ on it.
    /// On an error the marks are dropped, not put back.
    fn mark<S: MetricsSink>(
        &mut self,
        session: &mut MineSession<S>,
        g: &AdjMatrix,
        deadline: Deadline,
    ) -> Result<Marks, MineError> {
        let mut marks = self
            .marks
            .take()
            .unwrap_or_else(|| Marks::new(self.table.len()));
        let execs = &self.execs;
        run_stage(session, Stage::Reduce, deadline, |session, busy_ns| {
            let stale = marks.stale(execs, g, deadline)?;
            let arena = if session.threads > 1 {
                let (lists, arena) =
                    parallel::mark_each(session, execs, g, &stale, deadline, busy_ns)?;
                for (&i, marked) in stale.iter().zip(lists) {
                    marks.set(i, marked);
                }
                arena
            } else {
                let mut scratch = MarkScratch::new();
                for &i in &stale {
                    deadline.check()?;
                    let mut marked = Vec::new();
                    mark_one_execution(g, execs.exec(i), &mut scratch, |u, v| {
                        marked.push((u, v));
                    });
                    marks.set(i, marked);
                }
                scratch.arena_stats()
            };
            record_arena_telemetry(session, &arena);
            marks.graph.clone_from(g);
            Ok(marks)
        })
    }

    /// Executions absorbed so far.
    pub fn executions(&self) -> usize {
        self.executions_absorbed as usize
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

/// The miner id of activity `name`, whose id is `source` in the table
/// being absorbed from: the cached entry of `id_map` while it still
/// names `name`, else a lookup in the miner's `table`, which is cached.
/// `None` for a name the miner has not seen.
fn cached_id(
    id_map: &mut Vec<u32>,
    table: &ActivityTable,
    source: usize,
    name: &str,
) -> Option<u32> {
    let cached = id_map.get(source).copied();
    if let Some(id) = cached.filter(|&id| table.names().get(id as usize).is_some_and(|n| n == name))
    {
        return Some(id);
    }
    let id = table.id(name)?.index() as u32;
    if id_map.len() <= source {
        id_map.resize(source + 1, u32::MAX);
    }
    id_map[source] = id;
    Some(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Limits;
    use procmine_log::ActivityId;
    use std::collections::HashSet;
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

    /// `all`, the executions in absorb order, as a miner under
    /// `threshold` retains them: at T ≤ 1 the first of each activity
    /// set, at T ≥ 2 every one.
    fn retained_under<'a>(threshold: u32, all: &[Vec<&'a str>]) -> Vec<Vec<&'a str>> {
        let mut seen = HashSet::new();
        all.iter()
            .filter(|exec| {
                let mut set = exec.to_vec();
                set.sort();
                threshold > 1 || seen.insert(set)
            })
            .cloned()
            .collect()
    }

    #[test]
    fn id_map_follows_names_across_alternating_tables() {
        // The same ids name different activities in the two tables:
        // id 0 is A in one and D in the other.
        let one = WorkflowLog::from_strings(["ABC", "BD"]).unwrap();
        let two = WorkflowLog::from_strings(["DCB", "AD", "E"]).unwrap();
        for threshold in [1, 2] {
            let options = MinerOptions::with_threshold(threshold);
            let mut miner = OnlineMiner::new(options, SnapshotPolicy::on_demand());
            let mut absorbed = Vec::new();
            for round in 0..3 {
                for (log, k) in [(&one, round % 2), (&two, round % 3), (&one, 1 - round % 2)] {
                    let exec = &log.executions()[k];
                    miner.absorb(exec, log.activities()).unwrap();
                    let names = exec
                        .sequence()
                        .into_iter()
                        .map(|a| log.activities().name(a));
                    absorbed.push(names.collect::<Vec<_>>());
                }
            }
            let want = retained_under(threshold, &absorbed);
            assert_eq!(retained(&miner), want, "T={threshold}");
            assert_eq!(miner.executions(), 9);
            assert_eq!(miner.activities().len(), 5);
        }
    }

    #[test]
    fn absorb_refused_for_a_new_name_changes_nothing() {
        for threshold in [1, 2] {
            let options = MinerOptions::with_threshold(threshold);
            let mut miner = OnlineMiner::new(
                options.clone().with_limits(Limits {
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
            // The next absorbs, from the same table and from one whose id
            // 2 names another activity, land on their activities by name.
            miner.absorb(&execs[2], table).unwrap();
            miner.absorb(&execs[3], table).unwrap();
            let other = WorkflowLog::from_strings(["CAB"]).unwrap();
            miner.absorb_log(&other).unwrap();
            let absorbed = [
                vec!["A", "B", "C"],
                vec!["B", "A"],
                vec!["C", "B"],
                vec!["C", "A", "B"],
            ];
            let want = retained_under(threshold, &absorbed);
            assert_eq!(retained(&miner), want, "T={threshold}");
            let batch = WorkflowLog::from_strings(["ABC", "BA", "CB", "CAB"]).unwrap();
            let want = crate::mine_general_dag(&batch, &options).unwrap();
            assert_eq!(miner.snapshot().unwrap().edges_named(), want.edges_named());
        }
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

    /// Arena resets count the executions a snapshot marked.
    fn marked_by_snapshot(miner: &mut OnlineMiner) -> (MinedModel, u64) {
        let mut metrics = crate::MinerMetrics::new();
        let model = miner
            .snapshot_in(&mut MineSession::new().with_sink(&mut metrics))
            .unwrap();
        (model, metrics.arena_resets)
    }

    #[test]
    fn snapshots_mark_only_what_changed() {
        let mut miner = on_demand();
        let mut batch = Vec::new();
        // (execution, executions the snapshot after it marks)
        for (exec, marked) in [
            ("ABC", 1),
            // A new set. The edges it adds, A→D and B→D, end at D, which
            // ABC lacks: only ABD is marked.
            ("ABD", 1),
            // ABC's set again, not retained. It dissolves every edge
            // among A, B and C: ABC and ABD are marked again.
            ("CBA", 2),
            // New activities: the edges that change all touch E or F.
            ("AEF", 1),
            // D→E: ABD holds D and AEF holds E, neither holds both.
            ("DE", 1),
        ] {
            let names: Vec<String> = exec.chars().map(String::from).collect();
            miner.absorb_sequence(&names).unwrap();
            batch.push(exec);
            let (model, resets) = marked_by_snapshot(&mut miner);
            let want = crate::mine_general_dag(
                &WorkflowLog::from_strings(batch.iter().copied()).unwrap(),
                &MinerOptions::default(),
            )
            .unwrap();
            assert_eq!(model.edges_named(), want.edges_named(), "after {exec}");
            assert_eq!(model.edge_support(), want.edge_support(), "after {exec}");
            assert_eq!(resets, marked, "executions marked after {exec}");
        }
    }

    #[test]
    fn snapshot_that_fails_while_marking_drops_the_marks() {
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let mut miner = on_demand();
        miner.absorb_log(&log).unwrap();
        miner.snapshot().unwrap();
        miner.absorb_sequence(&["A", "D", "B", "F"]).unwrap();
        let n = miner.table.len();
        let g = crate::general_dag::prune_graph(
            &mut MineSession::new(),
            n,
            &miner.obs,
            1,
            Deadline::unlimited(),
        )
        .unwrap();
        let err = miner
            .mark(&mut MineSession::new(), &g, Deadline::already_expired())
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(
            err,
            MineError::LimitExceeded {
                kind: LimitKind::Deadline,
                ..
            }
        ));
        assert!(
            miner.marks.is_none(),
            "a failed marking pass keeps no marks"
        );
        let want = crate::mine_general_dag(
            &WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF", "ADBF"]).unwrap(),
            &MinerOptions::default(),
        )
        .unwrap();
        assert_eq!(
            miner.snapshot().unwrap().edge_support(),
            want.edge_support()
        );
    }

    /// Snapshots under deadlines short enough to fail anywhere in the
    /// pipeline, the marking pass included, leave the miner consistent:
    /// the next snapshot without a deadline matches batch mining.
    #[test]
    fn snapshots_cut_short_by_deadlines_leave_the_marks_consistent() {
        use procmine_sim::{randdag, walk};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(29);
        let config = randdag::RandomDagConfig {
            vertices: 24,
            edge_prob: 0.3,
        };
        let model = randdag::random_dag(&config, &mut rng).unwrap();
        let log = walk::random_walk_log(&model, 600, &mut rng).unwrap();
        for threshold in [1, 2] {
            let options = MinerOptions::with_threshold(threshold);
            let mut miner = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
            let mut absorbed = WorkflowLog::with_activities(log.activities().clone());
            for (i, exec) in log.executions().iter().enumerate() {
                miner.absorb(exec, log.activities()).unwrap();
                absorbed.push(exec.clone());
                if i % 50 != 49 {
                    continue;
                }
                let micros = [0, 1, 10, 100, 1000][i / 50 % 5];
                miner.options.limits.deadline = Some(Duration::from_micros(micros));
                let _ = miner.snapshot();
                miner.options.limits.deadline = None;
                let sorted = |model: MinedModel| {
                    let mut edges: Vec<(String, String)> = model
                        .edges_named()
                        .into_iter()
                        .map(|(u, v)| (u.to_string(), v.to_string()))
                        .collect();
                    edges.sort();
                    edges
                };
                let want = crate::mine_general_dag(&absorbed, &options).unwrap();
                assert_eq!(
                    sorted(miner.snapshot().unwrap()),
                    sorted(want),
                    "T={threshold} after {} executions, deadline {micros} µs",
                    i + 1
                );
            }
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
