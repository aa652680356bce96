//! Integration coverage for the metrics registry (`core::obs`) wired
//! through the mining sessions: every miner samples its stage wall
//! latencies into a shared [`Registry`], and both export renderings
//! (Prometheus text exposition, versioned JSON snapshot) carry them.

use procmine::log::WorkflowLog;
use procmine::mine::{
    mine_auto_in, mine_cyclic_in, mine_general_dag_in, mine_special_dag_in, MineSession,
    MinerOptions, OnlineMiner, Registry, SnapshotPolicy, Stage,
};

/// The paper's Example 6 log — accepted by every miner, including the
/// special DAG miner's preconditions.
fn example_log() -> WorkflowLog {
    WorkflowLog::from_strings(["ABCDE", "ACDBE", "ACBDE"]).unwrap()
}

/// A log with repeated activities, which only the cyclic miner takes.
fn cyclic_log() -> WorkflowLog {
    WorkflowLog::from_strings(["ABAB", "AB"]).unwrap()
}

const ALL_STAGES: [Stage; 6] = [
    Stage::Lower,
    Stage::CountPairs,
    Stage::Prune,
    Stage::SccRemoval,
    Stage::Reduce,
    Stage::Assemble,
];

/// Total stage-latency samples recorded in `reg`, across all stages.
fn stage_samples(reg: &Registry) -> u64 {
    ALL_STAGES
        .into_iter()
        .map(|s| reg.stage_latency(s).snapshot().count)
        .sum()
}

#[test]
fn every_miner_populates_stage_latency_histograms() {
    let log = example_log();
    let options = MinerOptions::default();

    // Each miner gets its own registry so the assertion isolates it.
    let run = |name: &str, f: &dyn Fn(&mut MineSession<procmine::mine::NullSink>)| {
        let reg = Registry::new();
        let mut session = MineSession::new().with_obs(reg.clone());
        f(&mut session);
        let total = stage_samples(&reg);
        assert!(total > 0, "{name}: no stage-latency samples recorded");
        // Every miner assembles a model as its final stage.
        assert!(
            reg.stage_latency(Stage::Assemble).snapshot().count > 0,
            "{name}: Assemble stage not sampled"
        );
    };

    run("special", &|s| {
        mine_special_dag_in(s, &log, &options).unwrap();
    });
    run("general", &|s| {
        mine_general_dag_in(s, &log, &options).unwrap();
    });
    run("cyclic", &|s| {
        mine_cyclic_in(s, &cyclic_log(), &options).unwrap();
    });
    run("auto", &|s| {
        mine_auto_in(s, &log, &options).unwrap();
    });
    run("incremental", &|s| {
        let mut inc = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
        inc.absorb_log(&log).unwrap();
        inc.snapshot_in(s).unwrap();
    });
}

#[test]
fn each_stage_is_sampled_once_per_run_serial_or_fanned_out() {
    // The general miner runs all six stages once. Fanned out over two
    // threads, count_pairs and reduce run inside the same stage frame
    // as the serial bodies, so they too are sampled exactly once.
    let log = example_log();
    for threads in [1, 2] {
        let reg = Registry::new();
        let mut session = MineSession::new()
            .with_obs(reg.clone())
            .with_threads(threads);
        mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
        for stage in ALL_STAGES {
            assert_eq!(
                reg.stage_latency(stage).snapshot().count,
                1,
                "threads={threads}: stage {}",
                stage.name()
            );
        }
    }
}

#[test]
fn parallel_entry_point_samples_through_shared_registry() {
    // A threaded session with a registry is the instrumented parallel
    // path; it must agree with an unobserved threaded session while
    // sampling.
    let log = example_log();
    let options = MinerOptions::default();
    let reg = Registry::new();
    let mut session = MineSession::new().with_obs(reg.clone()).with_threads(4);
    let metered = mine_general_dag_in(&mut session, &log, &options).unwrap();
    let plain =
        mine_general_dag_in(&mut MineSession::new().with_threads(4), &log, &options).unwrap();
    assert_eq!(metered.edges_named(), plain.edges_named());
    assert!(stage_samples(&reg) > 0);
}

#[test]
fn prometheus_exposition_carries_stage_histograms() {
    let log = example_log();
    let reg = Registry::new();
    let mut session = MineSession::new().with_obs(reg.clone());
    mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();

    let text = reg.render_prometheus();
    assert!(
        text.contains("# TYPE procmine_stage_latency_ns histogram"),
        "missing TYPE header:\n{text}"
    );
    assert!(text.contains("# HELP procmine_stage_latency_ns"));
    assert!(text.contains("procmine_stage_latency_ns_bucket{"));
    assert!(text.contains("le=\"+Inf\""));
    assert!(text.contains("stage=\"count_pairs\"") || text.contains("stage=\"CountPairs\""));
    assert!(text.contains("procmine_stage_latency_ns_count{"));
    assert!(text.contains("procmine_stage_latency_ns_sum{"));
}

#[test]
fn json_snapshot_is_versioned_and_lists_stage_latency() {
    let log = example_log();
    let reg = Registry::new();
    let mut session = MineSession::new().with_obs(reg.clone());
    mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();

    let json = reg.to_json();
    assert!(
        json.contains("\"schema\": \"procmine-metrics/v1\"")
            || json.contains("\"schema\":\"procmine-metrics/v1\""),
        "snapshot not versioned:\n{json}"
    );
    assert!(json.contains("procmine_stage_latency_ns"));
    assert!(json.contains("\"histogram\""));
}

#[test]
fn disabled_session_registry_records_nothing() {
    // MineSession::new() carries the disabled registry: mining through
    // it must leave no samples anywhere (and the handle reports it).
    let log = example_log();
    let mut session = MineSession::new();
    mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
    assert!(!session.obs().is_enabled());
    assert_eq!(stage_samples(session.obs()), 0);
}
