//! Parallel execution strategies for the pipeline stages. Algorithm 2's
//! two heavy passes — ordered-pair counting (step 2) and per-execution
//! transitive-reduction marking (step 5) — are embarrassingly parallel
//! over executions; this module fans them out over scoped threads with
//! per-thread accumulators folded at the join barrier, reusing the
//! serial per-execution bodies ([`count_one_execution`] /
//! [`mark_one_execution`]) so there is exactly one implementation of
//! each stage's work.
//!
//! A [`MineSession`] with `threads > 1` runs the counting and marking
//! stage bodies through [`count_pairs`] / [`mark`], inside the same
//! [`run_stage`](crate::session::run_stage) frame as the serial
//! bodies; the SCC and global-transitive-reduction stages additionally
//! switch to the graph crate's parallel algorithms once the vertex
//! count reaches [`PARALLEL_GRAPH_MIN_VERTICES`]. The results are
//! identical to the serial strategy for any thread count — counts merge
//! by addition, marks by union, both order-independent.
//!
//! The paper's cost model has `m ≫ n`, so both passes are linear in the
//! number of executions; at the Table 1 scale (10 000 executions) the
//! speedup is near-linear in cores (see the `parallel_scaling` bench
//! binary).

use crate::general_dag::{
    count_one_execution, mark_one_execution, MarkList, MarkScratch, OrderObservations, VertexLog,
};
use crate::limits::Deadline;
use crate::session::MineSession;
use crate::telemetry::MetricsSink;
use crate::MineError;
use procmine_graph::{AdjMatrix, ArenaStats};
use std::ops::Range;
use std::time::Instant;

/// Vertex count below which the graph-level parallel algorithms
/// (per-component SCC, row-parallel transitive reduction) are not worth
/// their spawn overhead; smaller graphs keep the serial bodies even in
/// a multi-threaded session. Tune it by editing this constant.
pub(crate) const PARALLEL_GRAPH_MIN_VERTICES: usize = 256;

/// Splits `0..len` into one contiguous chunk per session thread and
/// runs `work` on each chunk on a scoped worker, inside a `worker_span`
/// span on the worker's own trace lane (see [`Tracer::worker`]). Each
/// worker returns its partial result and, when the sink records, its
/// busy nanoseconds; partials are folded with `fold` in chunk order and
/// the summed busy time is stored in `busy_ns` for the stage frame.
///
/// Every worker is joined even after an error, so none outlives the
/// scope; a worker panic is re-raised as-is, and the first worker error
/// wins.
///
/// [`Tracer::worker`]: crate::Tracer::worker
fn fan_out<S: MetricsSink, P: Send>(
    session: &MineSession<S>,
    len: usize,
    worker_span: &'static str,
    busy_ns: &mut Option<u64>,
    work: impl Fn(Range<usize>) -> Result<P, MineError> + Sync,
    mut fold: impl FnMut(P),
) -> Result<(), MineError> {
    let chunk = len.div_ceil(session.threads).max(1);
    let tracer = &session.tracer;
    let work = &work;
    let mut busy = 0;
    let mut first_err = None;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|lo| {
                scope.spawn(move || {
                    let lane = tracer.worker();
                    let _span = lane.span_cat(worker_span, "miner");
                    let started = S::ENABLED.then(Instant::now);
                    let part = work(lo..(lo + chunk).min(len))?;
                    Ok((part, started.map_or(0, |t| t.elapsed().as_nanos() as u64)))
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Err(payload) => std::panic::resume_unwind(payload),
                Ok(Err(e)) => {
                    first_err.get_or_insert(e);
                }
                Ok(Ok((part, nanos))) => {
                    fold(part);
                    busy += nanos;
                }
            }
        }
    });
    *busy_ns = Some(busy);
    first_err.map_or(Ok(()), Err)
}

/// The fanned-out [`Stage::CountPairs`](crate::Stage::CountPairs) body:
/// per-worker count matrices built by the serial [`count_one_execution`]
/// body, merged by addition.
pub(crate) fn count_pairs<S: MetricsSink>(
    session: &MineSession<S>,
    vlog: &VertexLog<'_>,
    deadline: Deadline,
    busy_ns: &mut Option<u64>,
) -> Result<OrderObservations, MineError> {
    let VertexLog { n, cols } = *vlog;
    let mut total = OrderObservations::new(n);
    fan_out(
        session,
        cols.exec_count(),
        "count_pairs.worker",
        busy_ns,
        |execs| {
            let mut local = OrderObservations::new(n);
            for i in execs {
                deadline.check()?;
                count_one_execution(n, cols.exec(i), &mut local);
            }
            Ok(local)
        },
        |local| {
            for (t, l) in total.ordered.iter_mut().zip(local.ordered) {
                *t += l;
            }
            for (t, l) in total.overlap.iter_mut().zip(local.overlap) {
                *t += l;
            }
        },
    )?;
    Ok(total)
}

/// The fanned-out [`Stage::Reduce`](crate::Stage::Reduce) body: the
/// executions in `list` are chunked over workers, each building a
/// marked matrix with the serial [`mark_one_execution`] body in its own
/// scratch arena; the matrices merge by union and the arena statistics
/// by [`ArenaStats::merge`].
pub(crate) fn mark<S: MetricsSink>(
    session: &MineSession<S>,
    vlog: &VertexLog<'_>,
    g: &AdjMatrix,
    list: &MarkList<'_>,
    deadline: Deadline,
    busy_ns: &mut Option<u64>,
) -> Result<(AdjMatrix, ArenaStats), MineError> {
    let VertexLog { n, cols } = *vlog;
    let mut total = AdjMatrix::new(n);
    let mut arena = ArenaStats::default();
    fan_out(
        session,
        list.len(),
        "transitive_reduction.worker",
        busy_ns,
        |keys| {
            let mut local = AdjMatrix::new(n);
            let mut scratch = MarkScratch::new();
            for k in keys {
                deadline.check()?;
                mark_one_execution(g, cols.exec(list.get(k)), &mut local, &mut scratch);
            }
            Ok((local, scratch.arena_stats()))
        },
        |(local, stats)| {
            for (u, v) in local.edges() {
                total.add_edge(u, v);
            }
            arena.merge(&stats);
        },
    )?;
    Ok((total, arena))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general_dag::mine_general_dag_in;
    use crate::telemetry::{MinerMetrics, Stage};
    use crate::{mine_general_dag, MinerOptions};
    use procmine_log::WorkflowLog;

    fn assert_matches_serial(strings: &[&str], threads: usize) {
        let log = WorkflowLog::from_strings(strings.iter().copied()).unwrap();
        let serial = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let parallel = mine_general_dag_in(
            &mut MineSession::new().with_threads(threads),
            &log,
            &MinerOptions::default(),
        )
        .unwrap();
        let mut a = serial.edges_named();
        let mut b = parallel.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b, "threads={threads}");
        // Edge support must match too (counts merged correctly).
        let mut sa = serial.edge_support().to_vec();
        let mut sb = parallel.edge_support().to_vec();
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb);
    }

    #[test]
    fn matches_serial_at_various_thread_counts() {
        let strings = ["ABCF", "ACDF", "ADEF", "AECF", "ABCF", "ACDF"];
        for threads in [0, 1, 2, 3, 8, 64] {
            assert_matches_serial(&strings, threads);
        }
    }

    #[test]
    fn matches_serial_on_larger_random_workload() {
        use procmine_sim::{randdag, walk};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(5);
        let model = randdag::random_dag(
            &randdag::RandomDagConfig {
                vertices: 20,
                edge_prob: 0.4,
            },
            &mut rng,
        )
        .unwrap();
        let log = walk::random_walk_log(&model, 500, &mut rng).unwrap();
        let serial = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let parallel = mine_general_dag_in(
            &mut MineSession::new().with_threads(4),
            &log,
            &MinerOptions::default(),
        )
        .unwrap();
        let mut a = serial.edges_named();
        let mut b = parallel.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_inputs_like_serial() {
        assert!(matches!(
            mine_general_dag_in(
                &mut MineSession::new().with_threads(4),
                &WorkflowLog::new(),
                &MinerOptions::default()
            ),
            Err(MineError::EmptyLog)
        ));
        let cyclic = WorkflowLog::from_strings(["ABAB"]).unwrap();
        assert!(matches!(
            mine_general_dag_in(
                &mut MineSession::new().with_threads(4),
                &cyclic,
                &MinerOptions::default()
            ),
            Err(MineError::RepeatsRequireCyclicMiner { .. })
        ));
    }

    #[test]
    fn merged_counters_equal_serial() {
        use crate::telemetry::MinerMetrics;
        let strings = ["ABCF", "ACDF", "ADEF", "AECF", "ABCF", "ACDF"];
        let log = WorkflowLog::from_strings(strings).unwrap();
        let mut serial = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut serial);
        mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
        drop(session);
        for threads in [1, 2, 3, 8, 64] {
            let mut parallel = MinerMetrics::new();
            let mut session = MineSession::new()
                .with_threads(threads)
                .with_sink(&mut parallel);
            mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
            drop(session);
            assert_eq!(
                serial.counters(),
                parallel.counters(),
                "threads={threads}: per-thread metrics must merge to the serial totals"
            );
        }
    }

    #[test]
    fn wall_timers_cover_only_the_barrier_stages() {
        use procmine_sim::{randdag, walk};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(17);
        let model = randdag::random_dag(
            &randdag::RandomDagConfig {
                vertices: 15,
                edge_prob: 0.4,
            },
            &mut rng,
        )
        .unwrap();
        let log = walk::random_walk_log(&model, 400, &mut rng).unwrap();
        let mut m = MinerMetrics::new();
        let mut session = MineSession::new().with_threads(2).with_sink(&mut m);
        mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
        drop(session);
        // The two fan-out/join barriers record wall time; serial stages
        // have no barrier and stay at zero wall.
        assert!(m.wall_nanos(Stage::CountPairs) > 0);
        assert!(m.wall_nanos(Stage::Reduce) > 0);
        assert_eq!(m.wall_nanos(Stage::Lower), 0);
        assert_eq!(m.wall_nanos(Stage::Prune), 0);
        assert_eq!(m.wall_nanos(Stage::SccRemoval), 0);
        assert_eq!(m.wall_nanos(Stage::Assemble), 0);
    }

    #[test]
    fn respects_threshold() {
        let mut strings = vec!["ABC"; 10];
        strings.push("ACB");
        let log = WorkflowLog::from_strings(strings).unwrap();
        let serial = mine_general_dag(&log, &MinerOptions::with_threshold(2)).unwrap();
        let parallel = mine_general_dag_in(
            &mut MineSession::new().with_threads(3),
            &log,
            &MinerOptions::with_threshold(2),
        )
        .unwrap();
        let mut a = serial.edges_named();
        let mut b = parallel.edges_named();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }
}
