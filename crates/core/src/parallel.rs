//! Parallel execution strategies for the pipeline stages. Algorithm 2's
//! two heavy passes — ordered-pair counting (step 2) and per-execution
//! transitive-reduction marking (step 5) — are embarrassingly parallel
//! over executions; this module fans them out over scoped threads with
//! per-thread accumulators merged at the join barriers, reusing the
//! serial per-execution bodies ([`count_one_execution`] /
//! [`mark_one_execution`]) so there is exactly one implementation of
//! each stage's work.
//!
//! A [`MineSession`](crate::MineSession) with `threads > 1` routes the
//! counting and marking stages through [`parallel_count`] /
//! [`parallel_mark`]; the SCC and global-transitive-reduction stages
//! additionally switch to the graph crate's parallel algorithms once
//! the vertex count reaches [`PARALLEL_GRAPH_MIN_VERTICES`]. The
//! results are identical to the serial strategy for any thread count —
//! counts merge by addition, marks by union, both order-independent.
//!
//! The paper's cost model has `m ≫ n`, so both passes are linear in the
//! number of executions; at the Table 1 scale (10 000 executions) the
//! speedup is near-linear in cores (see the `parallel_scaling` bench
//! binary).

use crate::general_dag::{
    count_one_execution, executions_to_mark, mark_one_execution, pair_observations_range,
    record_arena_telemetry, MarkScratch, OrderObservations, VertexLog,
};
use crate::limits::Deadline;
use crate::obs::Registry;
use crate::telemetry::{stage_end, stage_start, MetricsSink, MinerMetrics, Stage, WallStage};
use crate::trace::Tracer;
use crate::MineError;
use procmine_graph::AdjMatrix;

/// Vertex count below which the graph-level parallel algorithms
/// (per-component SCC, row-parallel transitive reduction) are not worth
/// their spawn overhead; smaller graphs keep the serial bodies even in
/// a multi-threaded session. Overridable at run time through the
/// `PROCMINE_PARALLEL_MIN_VERTICES` environment variable (see
/// [`parallel_graph_min_vertices`]), so the threshold can be tuned
/// against real workloads without a rebuild.
pub(crate) const PARALLEL_GRAPH_MIN_VERTICES: usize = 256;

/// The effective graph-parallelism threshold: the
/// `PROCMINE_PARALLEL_MIN_VERTICES` override when set and valid (a
/// positive integer), [`PARALLEL_GRAPH_MIN_VERTICES`] otherwise. Read
/// once per process; an invalid value warns on stderr and keeps the
/// default rather than silently changing strategy.
pub(crate) fn parallel_graph_min_vertices() -> usize {
    static THRESHOLD: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        let raw = std::env::var("PROCMINE_PARALLEL_MIN_VERTICES").ok();
        match parse_threshold_override(raw.as_deref(), PARALLEL_GRAPH_MIN_VERTICES) {
            Ok(v) => v,
            Err(bad) => {
                eprintln!(
                    "warning: ignoring PROCMINE_PARALLEL_MIN_VERTICES=`{bad}` \
                     (expected a positive integer); using {PARALLEL_GRAPH_MIN_VERTICES}"
                );
                PARALLEL_GRAPH_MIN_VERTICES
            }
        }
    })
}

/// Validates one threshold override: `None` keeps the default, a
/// positive integer replaces it, anything else is returned as the
/// offending string. Pure, so tests cover the validation without
/// mutating process environment (env reads race across parallel
/// tests).
pub(crate) fn parse_threshold_override(raw: Option<&str>, default: usize) -> Result<usize, String> {
    match raw {
        None => Ok(default),
        Some(s) => match s.trim().parse::<usize>() {
            Ok(v) if v > 0 => Ok(v),
            _ => Err(s.to_string()),
        },
    }
}

/// Merges per-worker results at a join barrier: every handle is joined
/// even after an error so no worker outlives the scope; a worker panic
/// is re-raised as-is, and the first worker error wins.
fn join_workers<'scope, T, S: MetricsSink>(
    handles: Vec<std::thread::ScopedJoinHandle<'scope, Result<(T, MinerMetrics), MineError>>>,
    sink: &mut S,
    mut fold: impl FnMut(T),
) -> Result<(), MineError> {
    let mut first_err = None;
    for h in handles {
        let (local, lm) = match h.join() {
            Err(payload) => std::panic::resume_unwind(payload),
            Ok(Err(e)) => {
                first_err.get_or_insert(e);
                continue;
            }
            Ok(Ok(parts)) => parts,
        };
        fold(local);
        if S::ENABLED {
            sink.record(|m| m.merge(&lm));
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// The parallel [`Stage::CountPairs`] strategy: per-thread count
/// matrices built by the serial [`count_one_execution`] body, merged by
/// addition at the join barrier. Each worker accumulates its own
/// [`MinerMetrics`] (the sink itself never crosses a thread boundary)
/// and records its span into a private per-thread trace buffer (its own
/// lane — see [`Tracer::worker`]), flushed at the join. A [`WallStage`]
/// timer around the barrier records elapsed wall time, so CPU-ns /
/// wall-ns per stage is the parallel efficiency.
pub(crate) fn parallel_count<S: MetricsSink>(
    vlog: &VertexLog<'_>,
    threads: usize,
    deadline: Deadline,
    sink: &mut S,
    tracer: &Tracer,
    reg: &Registry,
) -> Result<OrderObservations, MineError> {
    let _span = tracer.span_cat(Stage::CountPairs.span_name(), "miner");
    deadline.check()?;
    let reg_started = reg.start();
    let vlog = *vlog;
    let n = vlog.n;
    let m_execs = vlog.cols.exec_count();
    let chunk = m_execs.div_ceil(threads).max(1);
    let wall = WallStage::start::<S>(Stage::CountPairs);
    let mut total = OrderObservations::new(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..m_execs)
            .step_by(chunk)
            .map(|lo| {
                let hi = (lo + chunk).min(m_execs);
                scope.spawn(
                    move || -> Result<(OrderObservations, MinerMetrics), MineError> {
                        let buf = tracer.worker();
                        let _span = buf.span_cat("count_pairs.worker", "miner");
                        let started = stage_start::<S>();
                        let mut local = OrderObservations::new(n);
                        for i in lo..hi {
                            deadline.check()?;
                            count_one_execution(n, vlog.cols.exec(i), &mut local);
                        }
                        let mut lm = MinerMetrics::new();
                        if S::ENABLED {
                            lm.executions_scanned = (hi - lo) as u64;
                            lm.pairs_counted = pair_observations_range(vlog.cols, lo, hi);
                            stage_end(&mut lm, Stage::CountPairs, started);
                        }
                        Ok((local, lm))
                    },
                )
            })
            .collect();
        join_workers(handles, sink, |local: OrderObservations| {
            for (t, l) in total.ordered.iter_mut().zip(local.ordered) {
                *t += l;
            }
            for (t, l) in total.overlap.iter_mut().zip(local.overlap) {
                *t += l;
            }
        })
    })?;
    wall.finish(sink);
    reg.stage_latency(Stage::CountPairs)
        .observe_since(reg_started);
    Ok(total)
}

/// The parallel [`Stage::Reduce`] strategy: the executions chosen by
/// [`executions_to_mark`] are chunked over workers, each building a
/// marked matrix with the serial [`mark_one_execution`] body; the
/// matrices merge by union at the join barrier. Worker telemetry and
/// tracing mirror [`parallel_count`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn parallel_mark<S: MetricsSink>(
    vlog: &VertexLog<'_>,
    g: &AdjMatrix,
    threshold: u32,
    threads: usize,
    deadline: Deadline,
    sink: &mut S,
    tracer: &Tracer,
    reg: &Registry,
) -> Result<AdjMatrix, MineError> {
    let _span = tracer.span_cat(Stage::Reduce.span_name(), "miner");
    deadline.check()?;
    let reg_started = reg.start();
    let vlog = *vlog;
    let n = vlog.n;
    let wall = WallStage::start::<S>(Stage::Reduce);
    let list = &executions_to_mark(vlog.cols, threshold, deadline)?;
    let len = list.len();
    let chunk = len.div_ceil(threads).max(1);
    let mut total = AdjMatrix::new(n);
    let mut arena_total = procmine_graph::ArenaStats::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|lo| {
                scope.spawn(
                    move || -> Result<((AdjMatrix, procmine_graph::ArenaStats), MinerMetrics), MineError> {
                        let buf = tracer.worker();
                        let _span = buf.span_cat("transitive_reduction.worker", "miner");
                        let started = stage_start::<S>();
                        let mut local = AdjMatrix::new(n);
                        let mut scratch = MarkScratch::new();
                        for k in lo..(lo + chunk).min(len) {
                            deadline.check()?;
                            mark_one_execution(g, vlog.cols.exec(list.get(k)), &mut local, &mut scratch);
                        }
                        let mut lm = MinerMetrics::new();
                        if S::ENABLED {
                            stage_end(&mut lm, Stage::Reduce, started);
                        }
                        Ok(((local, scratch.arena_stats()), lm))
                    },
                )
            })
            .collect();
        join_workers(
            handles,
            sink,
            |(local, stats): (AdjMatrix, procmine_graph::ArenaStats)| {
                for (u, v) in local.edges() {
                    total.add_edge(u, v);
                }
                arena_total.merge(&stats);
            },
        )
    })?;
    record_arena_telemetry(&arena_total, sink, reg);
    wall.finish(sink);
    reg.stage_latency(Stage::Reduce).observe_since(reg_started);
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::general_dag::mine_general_dag_in;
    use crate::session::MineSession;
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
    fn threshold_override_parses_and_validates() {
        // Pure validation — no env mutation (racy across parallel
        // tests); `parallel_graph_min_vertices` is just a cached read
        // of this through the process environment.
        assert_eq!(parse_threshold_override(None, 256), Ok(256));
        assert_eq!(parse_threshold_override(Some("64"), 256), Ok(64));
        assert_eq!(parse_threshold_override(Some(" 1024 "), 256), Ok(1024));
        assert_eq!(
            parse_threshold_override(Some("0"), 256),
            Err("0".to_string()),
            "zero would disable the serial fallback entirely"
        );
        assert_eq!(
            parse_threshold_override(Some("-3"), 256),
            Err("-3".to_string())
        );
        assert_eq!(
            parse_threshold_override(Some("lots"), 256),
            Err("lots".to_string())
        );
        assert!(parallel_graph_min_vertices() > 0);
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
