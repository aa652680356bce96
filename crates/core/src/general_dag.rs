//! Algorithm 2 (General DAG): acyclic processes where executions may
//! skip activities.
//!
//! Two complications over the special case (§4 of the paper):
//!
//! * *spurious followings* — with partial executions, a path of
//!   followings can exist in both directions between two activities even
//!   though no single execution reverses them. Such activities are
//!   independent, and step 4 dissolves them by removing every edge
//!   inside a strongly connected component of the followings graph;
//! * *execution completeness* — a dependency graph may forbid a logged
//!   execution (Example 5), so instead of one global transitive
//!   reduction, steps 5–6 keep exactly the edges that some execution's
//!   induced subgraph needs: per execution, the transitive reduction of
//!   the induced subgraph is computed and its edges marked; unmarked
//!   edges are dropped.
//!
//! **Marking once per activity set.** At noise threshold T ≤ 1 the
//! marking pass reduces only the first execution of each distinct
//! vertex set ([`executions_to_mark`], keyed by a [`SetIndex`]; the
//! online miner keeps its index across snapshots). This is exact.
//! For T = 1, every edge u→v left after pruning and SCC removal has
//! `ordered[u][v] ≥ 1` and `overlap[u][v] = 0`, and `ordered[v][u] = 0`
//! because otherwise two-cycle removal would have dropped the pair. So
//! in every execution that contains both u and v, u ends before v
//! starts, and the induced subgraph is exactly `g` restricted to the
//! execution's vertex set. A DAG's transitive reduction is unique, so
//! every execution with that vertex set marks the same edges. For T = 0
//! no edge survives pruning and the claim is trivial. For T ≥ 2 an
//! execution can contradict a kept edge
//! (`tests::noise_threshold_filters_in_general_miner`), so every
//! execution is marked.
//!
//! The pipeline is expressed as [`Stage`]s run inside a
//! [`MineSession`]: lower → count_pairs → prune → scc_removal →
//! transitive_reduction → assemble. The session's thread count selects
//! the execution strategy per stage — with `threads > 1` the counting
//! and marking passes fan out over scoped threads (see
//! [`crate::parallel`]) while reusing the serial per-execution bodies
//! defined here. The same pipeline, run over *instance vertices*,
//! powers Algorithm 3 (see [`crate::mine_cyclic`]);
//! [`VertexLog`]/[`mine_vertex_log`] are the shared implementation.

use crate::limits::Deadline;
use crate::model::assemble;
use crate::parallel::{self, PARALLEL_GRAPH_MIN_VERTICES};
use crate::session::{run_stage, MineSession};
use crate::telemetry::{MetricsSink, Stage};
use crate::{MineError, MinedModel, MinerOptions};
use procmine_graph::{scc, words, AdjMatrix, Arena, ArenaStats};
use procmine_log::{EventColumns, ExecColumns, WorkflowLog};
use std::borrow::Cow;
use std::collections::HashSet;

/// A log lowered to dense vertex ids, in columnar form: each
/// execution's start-time-sorted `(vertex, start, end)` triples live in
/// the shared [`EventColumns`] buffers, delimited by the CSR offsets.
/// For Algorithm 2 the vertices are activities; for Algorithm 3 they
/// are activity *instances*. Each vertex occurs at most once per
/// execution.
///
/// Borrows the lowered columns so long-lived owners (the online
/// miner retains them across batches) can run the finishing steps
/// without cloning the whole log per snapshot.
#[derive(Clone, Copy)]
pub(crate) struct VertexLog<'a> {
    pub n: usize,
    pub cols: &'a EventColumns,
}

/// Output of the shared pipeline: the final edge matrix plus the step-2
/// observation counts (row-major `n × n`).
pub(crate) struct VertexMineResult {
    pub graph: AdjMatrix,
    pub counts: Vec<u32>,
}

/// Steps 2–7 of Algorithm 2 over an arbitrary vertex log. The
/// `deadline` is re-checked once per execution in both heavy passes;
/// a session with `threads > 1` fans them out.
pub(crate) fn mine_vertex_log<S: MetricsSink>(
    session: &mut MineSession<S>,
    vlog: &VertexLog<'_>,
    threshold: u32,
    deadline: Deadline,
) -> Result<VertexMineResult, MineError> {
    let obs = run_stage(session, Stage::CountPairs, deadline, |session, busy_ns| {
        count_ordered_pairs(session, vlog, deadline, busy_ns)
    })?;
    finish_from_counts(session, vlog, obs, threshold, None, deadline)
}

/// Step-2 observation counts: `ordered[u*n+v]` executions where `u`
/// terminates before `v` starts, and `overlap[u*n+v]` (symmetric)
/// executions where their intervals overlap. §2 of the paper justifies
/// the list-form simplification with "if there are two activities in
/// the log that overlap in time, then they must be independent
/// activities" — so observed overlap is direct independence evidence,
/// treated like a two-cycle during pruning.
#[derive(Debug, Clone)]
pub(crate) struct OrderObservations {
    pub ordered: Vec<u32>,
    pub overlap: Vec<u32>,
}

impl OrderObservations {
    pub fn new(n: usize) -> Self {
        OrderObservations {
            ordered: vec![0u32; n * n],
            overlap: vec![0u32; n * n],
        }
    }
}

/// The [`Stage::CountPairs`] body: one pass over the executions,
/// re-checking the deadline per execution — serially, or fanned out
/// with [`parallel::count_pairs`] when the session has `threads > 1`.
/// The counters are recorded here for both strategies.
fn count_ordered_pairs<S: MetricsSink>(
    session: &mut MineSession<S>,
    vlog: &VertexLog<'_>,
    deadline: Deadline,
    busy_ns: &mut Option<u64>,
) -> Result<OrderObservations, MineError> {
    let n = vlog.n;
    let obs = if session.threads > 1 {
        parallel::count_pairs(session, vlog, deadline, busy_ns)?
    } else {
        let mut obs = OrderObservations::new(n);
        for i in 0..vlog.cols.exec_count() {
            deadline.check()?;
            count_one_execution(n, vlog.cols.exec(i), &mut obs);
        }
        obs
    };
    if S::ENABLED {
        let scanned = vlog.cols.exec_count() as u64;
        let pairs = pair_observations(vlog.cols);
        session.sink.record(|m| {
            m.executions_scanned += scanned;
            m.pairs_counted += pairs;
        });
    }
    Ok(obs)
}

/// Pair observations step 2 makes over the whole columnar log:
/// `k·(k−1)/2` per execution of length `k`.
pub(crate) fn pair_observations(cols: &EventColumns) -> u64 {
    cols.offsets()
        .windows(2)
        .map(|w| {
            let k = (w[1] - w[0]) as u64;
            k * k.saturating_sub(1) / 2
        })
        .sum()
}

/// Adds one execution's ordered and overlapping pairs into `obs`.
pub(crate) fn count_one_execution(n: usize, exec: ExecColumns<'_>, obs: &mut OrderObservations) {
    let k = exec.len();
    for i in 0..k {
        let u = exec.activities[i] as usize;
        let end_u = exec.ends[i];
        for j in i + 1..k {
            let v = exec.activities[j] as usize;
            // Instances are start-sorted: the later entry can only
            // follow or overlap, never wholly precede.
            if end_u < exec.starts[j] {
                obs.ordered[u * n + v] += 1;
            } else {
                obs.overlap[u * n + v] += 1;
                obs.overlap[v * n + u] += 1;
            }
        }
    }
}

/// Reusable scratch for the per-execution marking pass. The pass needs
/// two k×k bit-matrix workspaces per execution; a bump [`Arena`] hands
/// both out as one zeroed word block that is recycled (not freed)
/// between executions, so the whole marking pass performs a handful of
/// allocations total and the arena's statistics become the
/// `procmine_arena_*` telemetry.
pub(crate) struct MarkScratch {
    arena: Arena,
    redundant: Vec<usize>,
}

impl MarkScratch {
    pub fn new() -> Self {
        MarkScratch {
            arena: Arena::new(),
            redundant: Vec::new(),
        }
    }

    /// Cumulative allocation telemetry for this scratch's arena.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

/// Step 5 for one execution: build the induced subgraph (only edges of
/// `g` whose endpoints are ordered in this execution), take its
/// transitive reduction (Appendix A, over positions — start order is a
/// topological order), and mark the surviving edges.
///
/// At T ≤ 1 the induced subgraph depends only on the execution's vertex
/// set (see the module doc), so the caller runs this once per distinct
/// set; at T ≥ 2 it runs once per execution.
///
/// The induced subgraph `sub` and descendant DP table `desc` are packed
/// bit rows of `wpr = ceil(k/64)` words, carved from one arena block.
pub(crate) fn mark_one_execution(
    g: &AdjMatrix,
    exec: ExecColumns<'_>,
    marked: &mut AdjMatrix,
    scratch: &mut MarkScratch,
) {
    let k = exec.len();
    let wpr = k.div_ceil(u64::BITS as usize);
    scratch.arena.reset();
    let (sub, desc) = scratch.arena.alloc(2 * k * wpr).split_at_mut(k * wpr);

    // Induced subgraph over positions 0..k: edge i→j iff the activity
    // pair is an edge of g AND instance i terminates before instance j
    // starts in this execution.
    for i in 0..k {
        let u = exec.activities[i] as usize;
        let end_u = exec.ends[i];
        let row = &mut sub[i * wpr..(i + 1) * wpr];
        for j in i + 1..k {
            if end_u < exec.starts[j] && g.has_edge(u, exec.activities[j] as usize) {
                words::insert(row, j);
            }
        }
    }
    // Transitive reduction in reverse position order (Appendix A).
    for i in (0..k).rev() {
        // desc row i := i's successors and their descendants. Successors
        // are visited in ascending position, a topological order: one
        // already in desc row i is reachable through an earlier
        // successor, so it is redundant and its descendants are already
        // there too.
        let (before, after) = desc.split_at_mut((i + 1) * wpr);
        let di = &mut before[i * wpr..];
        let sub_i = &sub[i * wpr..(i + 1) * wpr];
        scratch.redundant.clear();
        for s in words::ones(sub_i) {
            if words::contains(di, s) {
                scratch.redundant.push(s);
            } else {
                words::insert(di, s);
                // Successors have s > i, so their desc rows sit in `after`.
                words::union(di, &after[(s - i - 1) * wpr..(s - i) * wpr]);
            }
        }
        let sub_i = &mut sub[i * wpr..(i + 1) * wpr];
        for &s in &scratch.redundant {
            words::remove(sub_i, s);
        }
    }
    // Mark surviving edges at the vertex level.
    for i in 0..k {
        for j in words::ones(&sub[i * wpr..(i + 1) * wpr]) {
            marked.add_edge(exec.activities[i] as usize, exec.activities[j] as usize);
        }
    }
}

impl Default for MarkScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Folds one marking pass's arena statistics into the session's sink
/// and the registry's `procmine_arena_bytes_total` /
/// `procmine_arena_resets_total` counters (satellite telemetry for the
/// arena-backed scratch).
fn record_arena_telemetry<S: MetricsSink>(session: &mut MineSession<S>, stats: &ArenaStats) {
    if S::ENABLED {
        let st = *stats;
        session.sink.record(|m| {
            m.arena_bytes += st.bytes_allocated;
            m.arena_resets += st.resets;
            m.arena_high_water_bytes = m.arena_high_water_bytes.max(st.high_water_bytes);
        });
    }
    let reg = &session.obs;
    reg.counter(
        "procmine_arena_bytes_total",
        "Bytes handed out by mining scratch arenas",
        &[],
    )
    .add(stats.bytes_allocated);
    reg.counter(
        "procmine_arena_resets_total",
        "Mining scratch arena recycle events",
        &[],
    )
    .add(stats.resets);
}

/// Steps 3–4 of Algorithm 2 as two stages: [`Stage::Prune`] thresholds
/// the counts into an edge matrix and removes two-cycles (including
/// pairs observed overlapping — §2's independence evidence);
/// [`Stage::SccRemoval`] dissolves strongly connected components. The
/// SCC pass runs under the deadline's wall-clock budget, so even a
/// pathological followings graph cannot hide from `--deadline-ms`; with
/// `threads > 1` and a large vertex count it fans out per weakly
/// connected component.
pub(crate) fn prune_graph<S: MetricsSink>(
    session: &mut MineSession<S>,
    n: usize,
    obs: &OrderObservations,
    threshold: u32,
    deadline: Deadline,
) -> Result<AdjMatrix, MineError> {
    let mut g = run_stage(session, Stage::Prune, deadline, |session, _| {
        if S::ENABLED {
            let before = (0..n * n)
                .filter(|&i| i / n != i % n && obs.ordered[i] > 0)
                .count() as u64;
            session.sink.record(|m| m.edges_before_threshold += before);
        }
        let mut g = AdjMatrix::new(n);
        for u in 0..n {
            for v in 0..n {
                if u != v
                    && obs.ordered[u * n + v] >= threshold
                    && obs.overlap[u * n + v] < threshold
                {
                    g.add_edge(u, v);
                }
            }
        }
        let thresholded = g.edge_count();
        g.remove_two_cycles();
        if S::ENABLED {
            let dissolved = ((thresholded - g.edge_count()) / 2) as u64;
            session.sink.record(|m| {
                m.edges_after_threshold += thresholded as u64;
                m.two_cycles_dissolved += dissolved;
            });
        }
        Ok(g)
    })?;

    run_stage(session, Stage::SccRemoval, deadline, |session, _| {
        let digraph = g.to_digraph(|_| ());
        let budget = deadline.budget();
        // The budgeted Tarjan's only failure mode is budget exhaustion.
        let threads = session.threads;
        let sccs = if threads > 1 && n >= PARALLEL_GRAPH_MIN_VERTICES {
            scc::tarjan_scc_parallel_budgeted(&digraph, threads, &budget)
        } else {
            scc::tarjan_scc_budgeted(&digraph, &budget)
        }
        .map_err(|_| Deadline::exceeded_in("SCC removal"))?;
        let mut nontrivial = 0u64;
        for comp in sccs.nontrivial() {
            nontrivial += 1;
            for &u in comp {
                for &v in comp {
                    if u != v {
                        g.remove_edge(u.index(), v.index());
                    }
                }
            }
        }
        if S::ENABLED {
            session.sink.record(|m| m.scc_count += nontrivial);
        }
        Ok(())
    })?;
    Ok(g)
}

/// The executions the marking pass reduces, by position `0..len()`.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum MarkList<'a> {
    /// Every execution `0..m`; no list is built.
    Every(usize),
    /// The first execution of each distinct sorted vertex set.
    FirstOfSet(Cow<'a, [usize]>),
}

impl MarkList<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            MarkList::Every(m) => *m,
            MarkList::FirstOfSet(keys) => keys.len(),
        }
    }

    /// The execution at position `k < len()`.
    pub(crate) fn get(&self, k: usize) -> usize {
        match self {
            MarkList::Every(_) => k,
            MarkList::FirstOfSet(keys) => keys[k],
        }
    }
}

/// The first execution of each distinct sorted vertex set, keyed one
/// execution at a time: the marking list at T ≤ 1. A batch run keys
/// its whole log ([`executions_to_mark`]); the online miner keys each
/// execution once, as it is absorbed.
#[derive(Debug, Clone, Default)]
pub(crate) struct SetIndex {
    seen: HashSet<Box<[u32]>>,
    /// The first execution of each set, in keying order.
    first: Vec<usize>,
    /// The set being keyed, sorted.
    set: Vec<u32>,
}

impl SetIndex {
    /// Keys execution `exec`, whose vertices are `vertices`.
    pub(crate) fn key(&mut self, exec: usize, vertices: &[u32]) {
        self.set.clear();
        self.set.extend_from_slice(vertices);
        self.set.sort_unstable();
        // Look up by slice so a set already seen allocates nothing.
        if !self.seen.contains(self.set.as_slice()) {
            self.seen.insert(self.set.as_slice().into());
            self.first.push(exec);
        }
    }

    /// The first execution of each set keyed so far, in keying order.
    pub(crate) fn first(&self) -> &[usize] {
        &self.first
    }
}

/// The executions the marking pass reduces: at `threshold ≤ 1`, the
/// first execution of each distinct sorted vertex set (exact — see the
/// module doc) — `first_of_set` when the caller keeps that list, else
/// keyed here, re-checking the deadline once per execution; otherwise
/// every execution.
pub(crate) fn executions_to_mark<'a>(
    cols: &EventColumns,
    threshold: u32,
    first_of_set: Option<&'a [usize]>,
    deadline: Deadline,
) -> Result<MarkList<'a>, MineError> {
    let m = cols.exec_count();
    if threshold > 1 {
        return Ok(MarkList::Every(m));
    }
    if let Some(keys) = first_of_set {
        return Ok(MarkList::FirstOfSet(Cow::Borrowed(keys)));
    }
    let mut sets = SetIndex::default();
    for i in 0..m {
        deadline.check()?;
        sets.key(i, cols.exec(i).activities);
    }
    Ok(MarkList::FirstOfSet(Cow::Owned(sets.first)))
}

/// Steps 3–7 of Algorithm 2, given precomputed step-2 counts, and the
/// first execution of each activity set when the caller keeps that
/// list (see [`executions_to_mark`]).
pub(crate) fn finish_from_counts<S: MetricsSink>(
    session: &mut MineSession<S>,
    vlog: &VertexLog<'_>,
    obs: OrderObservations,
    threshold: u32,
    first_of_set: Option<&[usize]>,
    deadline: Deadline,
) -> Result<VertexMineResult, MineError> {
    let n = vlog.n;
    let mut g = prune_graph(session, n, &obs, threshold, deadline)?;
    let counts = obs.ordered;

    // Steps 5–6: per-execution induced-subgraph transitive reduction;
    // keep only edges some reduction needs.
    let marked = run_stage(session, Stage::Reduce, deadline, |session, busy_ns| {
        let list = executions_to_mark(vlog.cols, threshold, first_of_set, deadline)?;
        let (marked, arena) = if session.threads > 1 {
            parallel::mark(session, vlog, &g, &list, deadline, busy_ns)?
        } else {
            let mut marked = AdjMatrix::new(n);
            let mut scratch = MarkScratch::new();
            for k in 0..list.len() {
                deadline.check()?;
                mark_one_execution(&g, vlog.cols.exec(list.get(k)), &mut marked, &mut scratch);
            }
            (marked, scratch.arena_stats())
        };
        record_arena_telemetry(session, &arena);
        Ok(marked)
    })?;

    // Step 6: drop edges no execution needed.
    let unmarked: Vec<(usize, usize)> =
        g.edges().filter(|&(u, v)| !marked.has_edge(u, v)).collect();
    if S::ENABLED {
        let dropped = unmarked.len() as u64;
        session
            .sink
            .record(|m| m.edges_dropped_by_reduction += dropped);
    }
    for (u, v) in unmarked {
        g.remove_edge(u, v);
    }
    if S::ENABLED {
        let final_edges = g.edge_count() as u64;
        session.sink.record(|m| m.edges_final += final_edges);
    }

    Ok(VertexMineResult { graph: g, counts })
}

/// Mines a conformal graph for an acyclic process whose executions may
/// skip activities (Algorithm 2). Runs in O(n³m).
///
/// Errors: [`MineError::EmptyLog`] for an empty log,
/// [`MineError::RepeatsRequireCyclicMiner`] if any execution repeats an
/// activity (use [`crate::mine_cyclic`]), and
/// [`MineError::LimitExceeded`] when `options.limits` sets a bound the
/// log or the run exceeds.
pub fn mine_general_dag(
    log: &WorkflowLog,
    options: &MinerOptions,
) -> Result<MinedModel, MineError> {
    mine_general_dag_in(&mut MineSession::new(), log, options)
}

/// [`mine_general_dag`] inside a [`MineSession`]: stage timings and
/// counters are recorded into the session's sink, hierarchical spans
/// into its tracer, and the session's thread count selects the
/// execution strategy (`threads > 1` fans the counting and marking
/// passes out over scoped threads, with output identical to the serial
/// strategy). With the default session this compiles to exactly the
/// uninstrumented serial miner.
pub fn mine_general_dag_in<S: MetricsSink>(
    session: &mut MineSession<S>,
    log: &WorkflowLog,
    options: &MinerOptions,
) -> Result<MinedModel, MineError> {
    let deadline = options.limits.start_clock();
    let tracer = session.tracer.clone();
    let _root = tracer.span_cat(
        if session.threads > 1 {
            "mine.parallel"
        } else {
            "mine.general"
        },
        "miner",
    );
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    options.limits.check_log(log)?;
    for exec in log.executions() {
        deadline.check()?;
        if exec.has_repeats() {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: exec.id.clone(),
            });
        }
    }

    let cols = run_stage(session, Stage::Lower, deadline, |_, _| {
        let events = log.executions().iter().map(|e| e.len()).sum();
        let mut cols = EventColumns::with_capacity(log.len(), events);
        for e in log.executions() {
            deadline.check()?;
            cols.push_exec(
                e.instances()
                    .iter()
                    .map(|i| (i.activity.index() as u32, i.start, i.end)),
            );
        }
        Ok(cols)
    })?;

    let vlog = VertexLog {
        n: log.activities().len(),
        cols: &cols,
    };
    let result = mine_vertex_log(session, &vlog, options.noise_threshold, deadline)?;

    run_stage(session, Stage::Assemble, deadline, |_, _| {
        Ok(assemble(log.activities(), &result.graph, &result.counts))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mine(strings: &[&str]) -> MinedModel {
        let log = WorkflowLog::from_strings(strings.iter().copied()).unwrap();
        mine_general_dag(&log, &MinerOptions::default()).unwrap()
    }

    #[test]
    fn expired_deadline_aborts_prune_pipeline() {
        // A single directed cycle of 2000 activities: one giant SCC with
        // no two-cycles to dissolve first. With the deadline already
        // expired the stage runner (or the budgeted Tarjan inside the
        // SCC stage) must abort with a deadline error.
        let n = 2_000;
        let mut obs = OrderObservations {
            ordered: vec![0; n * n],
            overlap: vec![0; n * n],
        };
        for i in 0..n {
            obs.ordered[i * n + (i + 1) % n] = 1;
        }
        let deadline = Deadline::already_expired();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let err = prune_graph(&mut MineSession::new(), n, &obs, 1, deadline).unwrap_err();
        assert!(
            matches!(
                err,
                MineError::LimitExceeded {
                    kind: crate::LimitKind::Deadline,
                    ..
                }
            ),
            "expected a deadline error, got {err:?}"
        );
    }

    #[test]
    fn paper_example_7() {
        // Log {ABCF, ACDF, ADEF, AECF}: C, D, E form a strongly
        // connected component of followings (C→D, D→E, E→C), so all
        // edges among them vanish (step 4). Steps 5–6 then keep only the
        // edges some execution's reduction needs: ABCF needs B→C, so
        // B→C survives while the never-needed A→F and B→F are dropped.
        let model = mine(&["ABCF", "ACDF", "ADEF", "AECF"]);
        let mut edges = model.edges_named();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                ("A", "B"),
                ("A", "C"),
                ("A", "D"),
                ("A", "E"),
                ("B", "C"),
                ("C", "F"),
                ("D", "F"),
                ("E", "F"),
            ]
        );
    }

    #[test]
    fn paper_example_5_execution_completeness() {
        // Log {ADCE, ABCDE}: a pure dependency graph could chain
        // D after C's other predecessors and forbid ADCE (Figure 2,
        // right). The mined graph must allow both executions.
        let model = mine(&["ADCE", "ABCDE"]);
        // ADCE requires D before C with B absent, so the edge D→C must
        // be kept even though ABCDE routes C before D … wait: ABCDE has
        // C before D, ADCE has D before C — C,D are independent (two-
        // cycle) — so neither edge exists. The graph must still allow
        // both executions through other paths.
        assert!(!model.has_edge("C", "D") && !model.has_edge("D", "C"));
        assert!(model.has_edge("A", "B") || model.has_edge("A", "D") || model.has_edge("A", "C"));
        // Execution completeness is verified via conformance in
        // integration tests; here we sanity-check edge directions.
        for (u, v) in model.edges_named() {
            assert_ne!(u, v);
        }
    }

    #[test]
    fn open_problem_log_mines_a_conformal_graph() {
        // {ACF, ADCF, ABCF, ADECF} — the paper's "open problem" log with
        // two equally-sized conformal graphs (Figure 5). Check we get
        // one of them: 6 edges, A→C path preserved, B/D/E branch.
        let model = mine(&["ACF", "ADCF", "ABCF", "ADECF"]);
        assert!(model.has_edge("A", "B"));
        assert!(model.has_edge("C", "F"));
        assert!(model.has_edge("D", "E"));
        assert!(model.has_edge("B", "C") || model.has_edge("A", "C"));
    }

    #[test]
    fn skipped_activities_keep_direct_edges() {
        // B optional between A and C: A→B→C with shortcut A→C used when
        // B is skipped. The mined graph needs A→C for the ACD execution
        // (induced subgraph of ACD has no B) — this is exactly why
        // Algorithm 2 marks per-execution TR edges instead of taking a
        // global TR.
        let model = mine(&["ABCD", "ACD"]);
        assert!(model.has_edge("A", "B") && model.has_edge("B", "C"));
        assert!(model.has_edge("A", "C"), "shortcut edge required by ACD");
        assert!(model.has_edge("C", "D"));
    }

    #[test]
    fn global_tr_edges_not_needed_are_dropped() {
        // Every execution contains all of A,B,C in the same order: the
        // shortcut A→C is never needed.
        let model = mine(&["ABC", "ABC"]);
        assert_eq!(model.edges_named(), vec![("A", "B"), ("B", "C")]);
    }

    #[test]
    fn repeats_rejected() {
        let log = WorkflowLog::from_strings(["ABCB"]).unwrap();
        assert!(matches!(
            mine_general_dag(&log, &MinerOptions::default()),
            Err(MineError::RepeatsRequireCyclicMiner { .. })
        ));
    }

    #[test]
    fn empty_log_rejected() {
        assert_eq!(
            mine_general_dag(&WorkflowLog::new(), &MinerOptions::default()).unwrap_err(),
            MineError::EmptyLog
        );
    }

    #[test]
    fn agrees_with_special_miner_on_complete_logs() {
        let strings = ["ABCDE", "ACDBE", "ACBDE"];
        let log = WorkflowLog::from_strings(strings).unwrap();
        let special = crate::mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let general = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let mut a = special.edges_named();
        let mut b = general.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn session_counters_match_model() {
        use crate::telemetry::MinerMetrics;
        let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let model = mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
        drop(session);
        assert_eq!(metrics.executions_scanned, 4);
        assert_eq!(metrics.pairs_counted, 4 * 6, "four executions of length 4");
        assert_eq!(metrics.edges_final, model.edge_count() as u64);
        assert_eq!(metrics.scc_count, 1, "Example 7: C,D,E form one SCC");
        assert!(metrics.edges_before_threshold >= metrics.edges_after_threshold);
        // The session run mines the same model as the plain one.
        let plain = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        assert_eq!(plain.edges_named(), model.edges_named());
    }

    #[test]
    fn marking_keys_one_execution_per_activity_set_at_threshold_one() {
        // Executions 0, 1 and 3 share the set {0,1,2} in different
        // orders; 2 and 4 share {0,1}.
        let mut cols = EventColumns::new();
        for exec in [&[0u32, 1, 2][..], &[2, 0, 1], &[1, 0], &[0, 1, 2], &[0, 1]] {
            cols.push_exec(
                exec.iter()
                    .enumerate()
                    .map(|(t, &a)| (a, t as u64, t as u64)),
            );
        }
        let deadline = Deadline::unlimited();
        for threshold in [0, 1] {
            assert_eq!(
                executions_to_mark(&cols, threshold, None, deadline).unwrap(),
                MarkList::FirstOfSet(vec![0, 2].into()),
                "T={threshold}"
            );
        }
        let every = executions_to_mark(&cols, 2, None, deadline).unwrap();
        assert_eq!(every, MarkList::Every(5));
        let order: Vec<usize> = (0..every.len()).map(|k| every.get(k)).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn noise_threshold_filters_in_general_miner() {
        let mut strings = vec!["ABC"; 10];
        strings.push("ACB");
        let log = WorkflowLog::from_strings(strings).unwrap();
        let model = mine_general_dag(&log, &MinerOptions::with_threshold(2)).unwrap();
        // T=2 drops the single C→B observation, so B→C survives as a
        // dependency. The noisy execution ACB itself stays in the log,
        // and step 5 keeps A→C because that execution's induced
        // subgraph needs it to reach C — thresholding filters the
        // *ordering counts*, not the executions (§6).
        assert_eq!(
            model.edges_named(),
            vec![("A", "B"), ("A", "C"), ("B", "C")]
        );

        // Without the threshold, the reversal makes B, C independent.
        let model = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        assert!(!model.has_edge("B", "C") && !model.has_edge("C", "B"));
    }
}
