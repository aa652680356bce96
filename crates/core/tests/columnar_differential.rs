//! Differential suite pinning the columnar mining path to the legacy
//! nested-`Vec` path kept in [`procmine_core::reference`].
//!
//! The columnar refactor (struct-of-arrays `EventColumns`, arena-backed
//! marking scratch, contiguous-word adjacency rows) must be a pure
//! layout change: for every log, each miner's mined model — edges,
//! supports — and its algorithmic `--stats-json` counters must be
//! bit-identical to what the pre-refactor implementation produced. The
//! reference module is a self-contained re-implementation of that
//! implementation (per-execution `Vec`s, per-execution `BitSet`
//! allocations, non-budgeted serial kernels), so agreement here is
//! evidence the refactor changed representation, not behavior.
//!
//! Covered miners: special (Algorithm 1), general (Algorithm 2), cyclic
//! (Algorithm 3), auto dispatch, the parallel strategy, and the
//! online miner — plus conformance replay of both models.

use procmine_core::conformance::check_conformance;
use procmine_core::reference::{
    mine_auto_reference, mine_cyclic_reference, mine_general_reference, mine_special_reference,
};
use procmine_core::{
    mine_auto_in, mine_cyclic_in, mine_general_dag_in, mine_special_dag_in, MineSession,
    MinedModel, MinerMetrics, MinerOptions, OnlineMiner, SnapshotPolicy,
};
use procmine_graph::NodeId;
use procmine_log::WorkflowLog;
use proptest::prelude::*;
use proptest::{collection, sample};

mod common;
use common::{cyclic_log, general_log, interval_log, log_from_indices, set_reuse_log, NAMES};

/// A log satisfying Algorithm 1's precondition: every execution is a
/// permutation of all `n` activities.
fn special_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(
        sample::subsequence((0..n).collect::<Vec<_>>(), n..=n).prop_shuffle(),
        1..10,
    )
    .prop_map(|seqs| log_from_indices(&seqs))
}

/// A model's supports keyed by activity name, for comparing models
/// whose activity tables intern names in different orders.
fn named_support(model: &MinedModel) -> Vec<(String, String, u32)> {
    let mut support: Vec<_> = model
        .edge_support()
        .iter()
        .map(|&(u, v, c)| {
            let name = |x| model.name_of(NodeId::new(x)).to_string();
            (name(u), name(v), c)
        })
        .collect();
    support.sort();
    support
}

/// Runs a `*_in` miner with a metrics sink and returns model + metrics.
fn with_metrics<F>(f: F) -> (MinedModel, MinerMetrics)
where
    F: FnOnce(&mut MineSession<&mut MinerMetrics>) -> MinedModel,
{
    let mut metrics = MinerMetrics::new();
    let mut session = MineSession::new().with_sink(&mut metrics);
    let model = f(&mut session);
    drop(session);
    (model, metrics)
}

/// The model-level equality the suite pins: same edges in the same
/// order and identical per-edge supports.
fn assert_models_identical(columnar: &MinedModel, legacy: &MinedModel, what: &str) {
    assert_eq!(
        columnar.edges_named(),
        legacy.edges_named(),
        "{what}: edge sets diverged"
    );
    assert_eq!(
        columnar.edge_support(),
        legacy.edge_support(),
        "{what}: edge supports diverged"
    );
}

/// Counter equality: the eight algorithmic counters must match the
/// legacy path exactly (the arena section is new telemetry about the
/// columnar path itself and is deliberately outside `counters()`).
fn assert_counters_identical(columnar: &MinerMetrics, legacy: &MinerMetrics, what: &str) {
    assert_eq!(
        columnar.counters(),
        legacy.counters(),
        "{what}: --stats-json counters diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn general_miner_matches_reference(log in general_log(6), threshold in 1u32..3) {
        let options = MinerOptions::with_threshold(threshold);
        let (model, metrics) =
            with_metrics(|s| mine_general_dag_in(s, &log, &options).unwrap());
        let (expected, ref_metrics) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "general");
        assert_counters_identical(&metrics, &ref_metrics, "general");
    }

    #[test]
    fn special_miner_matches_reference(log in special_log(5), threshold in 1u32..3) {
        let options = MinerOptions::with_threshold(threshold);
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let result = mine_special_dag_in(&mut session, &log, &options);
        drop(session);
        match (result, mine_special_reference(&log, &options)) {
            (Ok(model), Ok((expected, ref_metrics))) => {
                assert_models_identical(&model, &expected, "special");
                assert_counters_identical(&metrics, &ref_metrics, "special");
            }
            // Thresholding can leave a long ordering cycle, which
            // Algorithm 1 rejects — both paths must reject identically.
            (Err(e), Err(ref_e)) => assert_eq!(e, ref_e, "special: error paths diverged"),
            (a, b) => panic!("special: one path failed, the other succeeded: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn cyclic_miner_matches_reference(log in cyclic_log(4), threshold in 1u32..3) {
        let options = MinerOptions::with_threshold(threshold);
        let (model, metrics) =
            with_metrics(|s| mine_cyclic_in(s, &log, &options).unwrap());
        let (expected, ref_metrics) = mine_cyclic_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "cyclic");
        assert_counters_identical(&metrics, &ref_metrics, "cyclic");
    }

    #[test]
    fn auto_dispatch_matches_reference(log in cyclic_log(4)) {
        let options = MinerOptions::default();
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let (model, algorithm) = mine_auto_in(&mut session, &log, &options).unwrap();
        drop(session);
        let (expected, ref_algorithm, ref_metrics) =
            mine_auto_reference(&log, &options).unwrap();
        assert_eq!(algorithm, ref_algorithm, "auto: dispatch diverged");
        assert_models_identical(&model, &expected, "auto");
        assert_counters_identical(&metrics, &ref_metrics, "auto");
    }

    #[test]
    fn parallel_strategy_matches_reference(log in general_log(6), threads in 2usize..5) {
        let options = MinerOptions::default();
        let mut metrics = MinerMetrics::new();
        let mut session = MineSession::new()
            .with_threads(threads)
            .with_sink(&mut metrics);
        let model = mine_general_dag_in(&mut session, &log, &options).unwrap();
        drop(session);
        let (expected, ref_metrics) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "parallel");
        assert_counters_identical(&metrics, &ref_metrics, "parallel");
    }

    #[test]
    fn incremental_miner_matches_reference(log in general_log(5)) {
        let options = MinerOptions::default();
        let mut inc = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
        inc.absorb_log(&log).unwrap();
        let model = inc.snapshot().unwrap();
        let (expected, _) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "incremental");

        // An exported state resumes to the same model: the columns
        // survive export and validation exactly.
        let mut resumed =
            OnlineMiner::from_state(options, SnapshotPolicy::on_demand(), inc.export_state())
                .unwrap();
        let remodel = resumed.snapshot().unwrap();
        assert_models_identical(&remodel, &expected, "incremental resume");
    }

    #[test]
    fn interval_overlap_logs_match_reference(log in interval_log(5)) {
        let options = MinerOptions::default();
        let (model, metrics) =
            with_metrics(|s| mine_general_dag_in(s, &log, &options).unwrap());
        let (expected, ref_metrics) = mine_general_reference(&log, &options).unwrap();
        assert_models_identical(&model, &expected, "interval");
        assert_counters_identical(&metrics, &ref_metrics, "interval");
    }

    #[test]
    fn set_reuse_logs_match_reference(log in set_reuse_log(6)) {
        for threshold in 0..=3 {
            let options = MinerOptions::with_threshold(threshold);
            let (expected, ref_metrics) = mine_general_reference(&log, &options).unwrap();
            // threads = 1 is the serial strategy.
            for threads in 1..5 {
                let what = format!("set reuse T={threshold} threads={threads}");
                let mut metrics = MinerMetrics::new();
                let mut session = MineSession::new()
                    .with_threads(threads)
                    .with_sink(&mut metrics);
                let model = mine_general_dag_in(&mut session, &log, &options).unwrap();
                drop(session);
                assert_models_identical(&model, &expected, &what);
                assert_counters_identical(&metrics, &ref_metrics, &what);
            }

            let (model, metrics) = with_metrics(|s| mine_cyclic_in(s, &log, &options).unwrap());
            let (expected, ref_metrics) = mine_cyclic_reference(&log, &options).unwrap();
            let what = format!("set reuse cyclic T={threshold}");
            assert_models_identical(&model, &expected, &what);
            assert_counters_identical(&metrics, &ref_metrics, &what);

            // Snapshot after every absorb against the reference over the
            // same prefix. The miner interns names as they arrive, so
            // supports are compared by name.
            let mut inc = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
            for (j, exec) in log.executions().iter().enumerate() {
                inc.absorb(exec, log.activities()).unwrap();
                let mut prefix = WorkflowLog::new();
                for name in NAMES.iter().take(log.activities().len()) {
                    prefix.intern_activity(name);
                }
                for e in &log.executions()[..=j] {
                    prefix.push(e.clone());
                }
                let (model, metrics) = with_metrics(|s| inc.snapshot_in(s).unwrap());
                let (expected, ref_metrics) = mine_general_reference(&prefix, &options).unwrap();
                let what = format!("set reuse incremental T={threshold} after {}", j + 1);
                let mut edges = model.edges_named();
                let mut ref_edges = expected.edges_named();
                edges.sort();
                ref_edges.sort();
                assert_eq!(edges, ref_edges, "{what}: edge sets diverged");
                assert_eq!(named_support(&model), named_support(&expected), "{what}: supports diverged");
                assert_counters_identical(&metrics, &ref_metrics, &what);
            }
        }
    }

    #[test]
    fn conformance_replay_agrees_on_both_models(log in general_log(5)) {
        let options = MinerOptions::default();
        let (model, _) =
            with_metrics(|s| mine_general_dag_in(s, &log, &options).unwrap());
        let (expected, _) = mine_general_reference(&log, &options).unwrap();
        // Identical models must replay identically: the full report —
        // per-violation tallies included — is compared structurally.
        assert_eq!(
            check_conformance(&model, &log),
            check_conformance(&expected, &log),
            "conformance replay diverged between columnar and legacy models"
        );
    }
}
