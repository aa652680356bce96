//! Algorithm 1 (Special DAG): acyclic processes whose executions contain
//! every activity exactly once.
//!
//! In this setting the paper proves (Theorem 4) that the mined graph is
//! the *unique minimal* conformal graph:
//!
//! 1. for each execution and each pair `u, v` with `u` terminating
//!    before `v` starts, add edge `(u, v)`;
//! 2. remove edges that appear in both directions (such activities were
//!    observed in both orders, hence are independent);
//! 3. take the transitive reduction (Appendix A).
//!
//! Complexity O(n²m): step 1 dominates since `m ≫ n`.

use crate::limits::Deadline;
use crate::model::assemble;
use crate::parallel::PARALLEL_GRAPH_MIN_VERTICES;
use crate::session::{run_stage, MineSession};
use crate::telemetry::{MetricsSink, Stage};
use crate::{MineError, MinedModel, MinerOptions};
use procmine_graph::reduction::{
    transitive_reduction_matrix_budgeted, transitive_reduction_matrix_parallel_budgeted,
};
use procmine_graph::{AdjMatrix, GraphError};
use procmine_log::LogView;

/// Mines the unique minimal conformal graph of a log in which every
/// activity appears in every execution exactly once (Algorithm 1).
/// Takes a [`WorkflowLog`](procmine_log::WorkflowLog) or a
/// [`CompactLog`](procmine_log::CompactLog).
///
/// Errors:
/// * [`MineError::EmptyLog`] — no executions;
/// * [`MineError::RepeatsRequireCyclicMiner`] — some activity repeats
///   within an execution;
/// * [`MineError::SpecialPreconditionViolated`] — some execution lacks
///   an activity (use [`crate::mine_general_dag`]);
/// * [`MineError::UnexpectedCycle`] — the ordering graph retained a long
///   cycle after two-cycle removal. This cannot happen for instantaneous
///   (totally ordered) executions, but interval logs with partial
///   overlaps can produce one; the general miner handles those.
pub fn mine_special_dag<'a>(
    log: impl Into<LogView<'a>>,
    options: &MinerOptions,
) -> Result<MinedModel, MineError> {
    mine_special_dag_in(&mut MineSession::new(), log, options)
}

/// [`mine_special_dag`] inside a [`MineSession`]: stage timings and
/// counters are recorded into the session's sink, spans into its
/// tracer. [`Stage::Lower`] borrows a compact log's columns and lowers
/// a nested log's rows; Algorithm 1's global transitive reduction is
/// timed as [`Stage::Reduce`]; with `threads > 1` and a large activity
/// universe the reduction runs row-parallel.
pub fn mine_special_dag_in<'a, S: MetricsSink>(
    session: &mut MineSession<S>,
    log: impl Into<LogView<'a>>,
    options: &MinerOptions,
) -> Result<MinedModel, MineError> {
    let log = log.into();
    let deadline = options.limits.start_clock();
    let tracer = session.tracer.clone();
    let _root = tracer.span_cat("mine.special", "miner");
    if log.is_empty() {
        return Err(MineError::EmptyLog);
    }
    options.limits.check_log(log)?;
    let n = log.activities().len();
    for (x, repeated) in log.repeats().enumerate() {
        deadline.check()?;
        if repeated {
            return Err(MineError::RepeatsRequireCyclicMiner {
                execution: log.id(x).to_string(),
            });
        }
        if log.exec_len(x) != n {
            return Err(MineError::SpecialPreconditionViolated {
                execution: log.id(x).to_string(),
            });
        }
    }

    let cols = run_stage(session, Stage::Lower, deadline, |_, _| Ok(log.columns()))?;

    // Step 2: count observed orderings and overlaps. Each activity
    // occurs once per execution, so each execution contributes at most
    // 1 per pair. An overlap is independence evidence (§2) and prunes
    // the pair like a two-cycle.
    let obs = run_stage(session, Stage::CountPairs, deadline, |session, _| {
        let mut obs = crate::general_dag::OrderObservations::new(n);
        for x in 0..cols.exec_count() {
            deadline.check()?;
            crate::general_dag::count_one_execution(n, cols.exec(x), &mut obs);
        }
        if S::ENABLED {
            let scanned = log.len() as u64;
            // Every execution contains all n activities exactly once.
            let pairs = scanned * (n as u64 * (n as u64).saturating_sub(1) / 2);
            session.sink.record(|m| {
                m.executions_scanned += scanned;
                m.pairs_counted += pairs;
            });
        }
        Ok(obs)
    })?;
    let counts = obs.ordered.clone();

    // Threshold (T = 1 keeps everything) and step 3: drop two-cycles.
    let m = run_stage(session, Stage::Prune, deadline, |session, _| {
        if S::ENABLED {
            let before = (0..n * n)
                .filter(|&i| i / n != i % n && obs.ordered[i] > 0)
                .count() as u64;
            session.sink.record(|m| m.edges_before_threshold += before);
        }
        let mut m = AdjMatrix::new(n);
        for u in 0..n {
            deadline.check()?;
            for v in 0..n {
                if u != v
                    && obs.ordered[u * n + v] >= options.noise_threshold
                    && obs.overlap[u * n + v] < options.noise_threshold
                {
                    m.add_edge(u, v);
                }
            }
        }
        let thresholded = m.edge_count();
        m.remove_two_cycles();
        if S::ENABLED {
            let dissolved = ((thresholded - m.edge_count()) / 2) as u64;
            session.sink.record(|met| {
                met.edges_after_threshold += thresholded as u64;
                met.two_cycles_dissolved += dissolved;
            });
        }
        Ok(m)
    })?;

    // Step 4: transitive reduction (unique for a DAG), under the
    // deadline's wall-clock budget; row-parallel for large graphs in a
    // multi-threaded session.
    let reduced = run_stage(session, Stage::Reduce, deadline, |session, _| {
        let budget = deadline.budget();
        let threads = session.threads;
        let reduced = if threads > 1 && n >= PARALLEL_GRAPH_MIN_VERTICES {
            transitive_reduction_matrix_parallel_budgeted(&m, threads, &budget)
        } else {
            transitive_reduction_matrix_budgeted(&m, &budget)
        }
        .map_err(|e| match e {
            GraphError::BudgetExhausted => Deadline::exceeded_in("transitive reduction"),
            _ => MineError::UnexpectedCycle,
        })?;
        if S::ENABLED {
            let dropped = (m.edge_count() - reduced.edge_count()) as u64;
            let final_edges = reduced.edge_count() as u64;
            session.sink.record(|met| {
                met.edges_dropped_by_reduction += dropped;
                met.edges_final += final_edges;
            });
        }
        Ok(reduced)
    })?;

    run_stage(session, Stage::Assemble, deadline, |_, _| {
        Ok(assemble(log.activities(), &reduced, &counts))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinerOptions;
    use procmine_log::WorkflowLog;

    fn mine(strings: &[&str]) -> MinedModel {
        let log = WorkflowLog::from_strings(strings.iter().copied()).unwrap();
        mine_special_dag(&log, &MinerOptions::default()).unwrap()
    }

    #[test]
    fn paper_example_6() {
        // Log {ABCDE, ACDBE, ACBDE}: B is seen both before and after C
        // and both before and after D, so B is independent of both; the
        // chain A→C→D→E survives with B parallel between A and E
        // (Figure 3 after two-cycle removal and transitive reduction).
        let model = mine(&["ABCDE", "ACDBE", "ACBDE"]);
        let mut edges = model.edges_named();
        edges.sort();
        assert_eq!(
            edges,
            vec![("A", "B"), ("A", "C"), ("B", "E"), ("C", "D"), ("D", "E")]
        );
    }

    #[test]
    fn single_execution_yields_chain() {
        let model = mine(&["ABCDE"]);
        assert_eq!(
            model.edges_named(),
            vec![("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")]
        );
    }

    #[test]
    fn paper_figure_1_recovered_from_its_interleavings() {
        // Figure 1 graph: A→B, A→C, B→E, C→D, C→E(redundant via D? no:
        // C→E is a real edge), D→E. B is parallel to C and D. Executions
        // that contain all activities: interleavings of B with C,D.
        let model = mine(&["ABCDE", "ACBDE", "ACDBE"]);
        // B independent of C and D; the chain A→C→D→E and A→B→E remain.
        assert!(model.has_edge("A", "B") && model.has_edge("A", "C"));
        assert!(model.has_edge("C", "D"));
        assert!(model.has_edge("B", "E") && model.has_edge("D", "E"));
        assert!(!model.has_edge("B", "C") && !model.has_edge("C", "B"));
        assert!(!model.has_edge("B", "D") && !model.has_edge("D", "B"));
        // Note: the redundant C→E direct edge of Figure 1 is not
        // recoverable from full executions — the minimal graph omits it.
        assert!(!model.has_edge("C", "E"));
    }

    #[test]
    fn parallel_activities_produce_no_edges() {
        let model = mine(&["AB", "BA"]);
        assert_eq!(model.edge_count(), 0);
    }

    #[test]
    fn empty_log_rejected() {
        let log = WorkflowLog::new();
        assert_eq!(
            mine_special_dag(&log, &MinerOptions::default()).unwrap_err(),
            MineError::EmptyLog
        );
    }

    #[test]
    fn missing_activity_rejected() {
        let log = WorkflowLog::from_strings(["ABC", "AB"]).unwrap();
        assert!(matches!(
            mine_special_dag(&log, &MinerOptions::default()),
            Err(MineError::SpecialPreconditionViolated { .. })
        ));
    }

    #[test]
    fn repeats_rejected() {
        let log = WorkflowLog::from_strings(["ABA"]).unwrap();
        assert!(matches!(
            mine_special_dag(&log, &MinerOptions::default()),
            Err(MineError::RepeatsRequireCyclicMiner { .. })
        ));
    }

    #[test]
    fn threaded_session_matches_serial() {
        let strings = ["ABCDE", "ACDBE", "ACBDE"];
        let log = WorkflowLog::from_strings(strings).unwrap();
        let serial = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let mut session = MineSession::new().with_threads(4);
        let threaded = mine_special_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
        assert_eq!(serial.edges_named(), threaded.edges_named());
    }

    #[test]
    fn noise_threshold_drops_rare_orderings() {
        // 8 copies of ABC and 1 of ACB: with T=2 the B,C order conflict
        // resolves in favour of B→C … but wait, ACB also orders A first,
        // so A edges survive easily. B→C seen 8×, C→B seen 1×: T=2 drops
        // C→B, keeping the chain.
        let mut strings = vec!["ABC"; 8];
        strings.push("ACB");
        let log = WorkflowLog::from_strings(strings).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::with_threshold(2)).unwrap();
        assert_eq!(model.edges_named(), vec![("A", "B"), ("B", "C")]);

        // Without the threshold, B and C are declared independent.
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        assert!(!model.has_edge("B", "C") && !model.has_edge("C", "B"));
    }

    #[test]
    fn edge_support_reports_counts() {
        let model = mine(&["ABC", "ABC", "ABC"]);
        for &(_, _, c) in model.edge_support() {
            assert_eq!(c, 3);
        }
    }
}
