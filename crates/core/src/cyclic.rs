//! Algorithm 3 (Cyclic Graphs): general directed process graphs.
//!
//! Cycles make the DAG machinery break down: a legitimate loop and two
//! independent activities both produce orderings in both directions. The
//! paper's fix (§5) is *instance labeling*: the `i`-th occurrence of
//! activity `A` in an execution becomes its own vertex `Aᵢ`. The
//! Algorithm 2 pipeline then runs over instance vertices (where each
//! vertex occurs at most once per execution, restoring the DAG setting),
//! and a final step merges each activity's instances back into one
//! vertex, keeping an edge between two activities iff some pair of their
//! instances kept one. A `B₁→C₁, C₁→B₂` pattern thereby becomes the
//! cycle `B⇄C`.

use crate::general_dag::{mine_vertex_log, VertexLog};
use crate::model::graph_skeleton;
use crate::session::{run_stage, MineSession};
use crate::telemetry::{MetricsSink, Stage};
use crate::{MineError, MinedModel, MinerOptions};
use procmine_graph::NodeId;
use procmine_log::{EventColumns, WorkflowLog};

/// Mines a process graph that may contain cycles (Algorithm 3). With
/// every activity repeating at most `k` times per execution, runs in
/// O((kn)³ m).
///
/// Edges between instances of the *same* activity (e.g. `B₁→B₂`) are
/// dropped by the merge step, per the paper ("we put an edge in the new
/// graph if there exists an edge between two vertices of *different*
/// equivalent sets"); immediate self-repetition `AA` therefore does not
/// produce a self-loop.
pub fn mine_cyclic(log: &WorkflowLog, options: &MinerOptions) -> Result<MinedModel, MineError> {
    mine_cyclic_in(&mut MineSession::new(), log, options)
}

/// [`mine_cyclic`] inside a [`MineSession`]: stage timings and counters
/// are recorded into the session's sink, spans into its tracer.
/// Instance labeling and lowering are timed as [`Stage::Lower`]; the
/// instance-merge step is part of [`Stage::Assemble`]. With
/// `threads > 1` the heavy pipeline stages fan out across threads.
pub fn mine_cyclic_in<S: MetricsSink>(
    session: &mut MineSession<S>,
    log: &WorkflowLog,
    options: &MinerOptions,
) -> Result<MinedModel, MineError> {
    let deadline = options.limits.start_clock();
    let tracer = session.tracer.clone();
    let _root = tracer.span_cat("mine.cyclic", "miner");
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    options.limits.check_log(log)?;
    let n = log.activities().len();

    // Step 2 (of Algorithm 3): uniquely identify each occurrence.
    // Instance vertex space: activity a gets `max_occ[a]` consecutive
    // vertices starting at offset[a]. Lowering the log to instance
    // vertices (steps 1–3) is one pass.
    let (cols, activity_of, total) = run_stage(session, Stage::Lower, deadline, |_, _| {
        let mut max_occ = vec![0usize; n];
        for exec in log.executions() {
            deadline.check()?;
            let mut counts = vec![0usize; n];
            for a in exec.sequence() {
                counts[a.index()] += 1;
                max_occ[a.index()] = max_occ[a.index()].max(counts[a.index()]);
            }
        }
        let mut offset = vec![0usize; n + 1];
        for a in 0..n {
            offset[a + 1] = offset[a] + max_occ[a];
        }
        let total = offset[n];
        // Reverse map: instance vertex -> activity.
        let mut activity_of = vec![0usize; total];
        for a in 0..n {
            activity_of[offset[a]..offset[a + 1]].fill(a);
        }

        let events = log.executions().iter().map(|e| e.len()).sum();
        let mut cols = EventColumns::with_capacity(log.len(), events);
        for e in log.executions() {
            deadline.check()?;
            let labeled = e.labeled_sequence();
            cols.push_exec(e.instances().iter().zip(labeled).map(|(inst, (a, occ))| {
                (
                    (offset[a.index()] + occ as usize) as u32,
                    inst.start,
                    inst.end,
                )
            }));
        }
        Ok((cols, activity_of, total))
    })?;
    let vlog = VertexLog {
        n: total,
        cols: &cols,
    };

    // Steps 4–7: the shared pipeline.
    let result = mine_vertex_log(session, &vlog, options.noise_threshold, deadline)?;

    // Step 8: merge instance vertices back into activities.
    run_stage(session, Stage::Assemble, deadline, |session, _| {
        let mut graph = graph_skeleton(log.activities());
        let mut support_acc = vec![0u32; n * n];
        for (x, y) in result.graph.edges() {
            let (a, b) = (activity_of[x], activity_of[y]);
            if a != b {
                graph.add_edge(NodeId::new(a), NodeId::new(b));
                support_acc[a * n + b] =
                    support_acc[a * n + b].saturating_add(result.counts[x * total + y]);
            }
        }
        let support: Vec<(usize, usize, u32)> = graph
            .edges()
            .map(|(u, v)| (u.index(), v.index(), support_acc[u.index() * n + v.index()]))
            .collect();
        if S::ENABLED {
            // The pipeline credited the instance-level edge count; the
            // merge step can collapse several instance edges into one
            // activity edge, so swap that credit for the model's count.
            let instance = result.graph.edge_count() as u64;
            let merged = support.len() as u64;
            session
                .sink
                .record(|m| m.edges_final = m.edges_final - instance + merged);
        }
        Ok(MinedModel::new(graph, support))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mine(strings: &[&str]) -> MinedModel {
        let log = WorkflowLog::from_strings(strings.iter().copied()).unwrap();
        mine_cyclic(&log, &MinerOptions::default()).unwrap()
    }

    #[test]
    fn paper_example_8() {
        // Log {ABDCE, ABDCBCE, ABCBDCE, ADE} → Figure 6 (right): the
        // mined graph contains the B⇄C cycle.
        let model = mine(&["ABDCE", "ABDCBCE", "ABCBDCE", "ADE"]);
        let mut edges = model.edges_named();
        edges.sort();
        assert_eq!(
            edges,
            vec![
                ("A", "B"),
                ("A", "D"),
                ("B", "C"),
                ("B", "D"),
                ("C", "B"),
                ("C", "E"),
                ("D", "C"),
                ("D", "E"),
            ]
        );
        assert!(
            model.has_edge("B", "C") && model.has_edge("C", "B"),
            "B⇄C cycle"
        );
    }

    #[test]
    fn acyclic_log_matches_general_miner() {
        let strings = ["ABCF", "ACDF", "ADEF", "AECF"];
        let log = WorkflowLog::from_strings(strings).unwrap();
        let cyclic = mine_cyclic(&log, &MinerOptions::default()).unwrap();
        let general = crate::mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let mut a = cyclic.edges_named();
        let mut b = general.edges_named();
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "on repeat-free logs Algorithm 3 degenerates to Algorithm 2"
        );
    }

    #[test]
    fn simple_loop_recovered() {
        // Process A → B → C with a rework loop C → B.
        let model = mine(&["ABCD", "ABCBCD", "ABCBCBCD"]);
        assert!(model.has_edge("A", "B"));
        assert!(model.has_edge("B", "C"));
        assert!(model.has_edge("C", "B"), "rework loop");
        assert!(model.has_edge("C", "D"));
        assert!(!model.has_edge("B", "D"), "D only reachable through C");
    }

    #[test]
    fn immediate_self_repeat_yields_no_self_loop() {
        let model = mine(&["AABC", "ABC"]);
        assert!(!model.has_edge("A", "A"));
        assert!(model.has_edge("B", "C"));
    }

    #[test]
    fn empty_log_rejected() {
        assert_eq!(
            mine_cyclic(&WorkflowLog::new(), &MinerOptions::default()).unwrap_err(),
            MineError::EmptyLog
        );
    }

    #[test]
    fn threaded_session_matches_serial() {
        let strings = ["ABDCE", "ABDCBCE", "ABCBDCE", "ADE"];
        let log = WorkflowLog::from_strings(strings).unwrap();
        let serial = mine_cyclic(&log, &MinerOptions::default()).unwrap();
        let mut session = MineSession::new().with_threads(3);
        let threaded = mine_cyclic_in(&mut session, &log, &MinerOptions::default()).unwrap();
        let mut a = serial.edges_named();
        let mut b = threaded.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn reused_metrics_accumulate_edges_final_across_runs() {
        // Metrics accumulate across runs on one sink; the instance merge
        // must swap its own run's credit, not overwrite earlier runs'.
        let log = WorkflowLog::from_strings(["ABCBD", "ABCD", "ABCBCD"]).unwrap();
        let mut metrics = crate::MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let model = mine_cyclic_in(&mut session, &log, &MinerOptions::default()).unwrap();
        mine_cyclic_in(&mut session, &log, &MinerOptions::default()).unwrap();
        drop(session);
        assert_eq!(model.edge_count(), 5);
        assert_eq!(metrics.executions_scanned, 6);
        assert_eq!(metrics.edges_final, 10);
    }

    #[test]
    fn instance_counts_sized_per_activity() {
        // A appears 3×, B 1× — instance space must be ragged, and the
        // miner must not panic or cross-wire instances.
        let model = mine(&["ABACA", "ACA"]);
        assert_eq!(model.activity_count(), 3);
        assert!(model.node_of("A").is_some());
    }
}
