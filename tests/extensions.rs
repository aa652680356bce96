//! Integration coverage for the extension surface: XES interchange,
//! model definition files, gateway analysis, incremental + parallel
//! mining, route analytics, fitness, and log operations — all through
//! the public facade.

use procmine::graph::paths;
use procmine::log::codec::xes;
use procmine::log::WorkflowLog;
use procmine::mine::conformance::fitness;
use procmine::mine::splits::{analyze_gateways, GatewayKind};
use procmine::mine::{
    mine_auto, mine_general_dag, mine_general_dag_in, MineSession, MinerOptions, OnlineMiner,
    SnapshotPolicy,
};
use procmine::sim::{engine, presets, textfmt, walk};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn xes_export_import_mine() {
    let process = presets::order_fulfillment();
    let mut rng = StdRng::seed_from_u64(21);
    let cfg = engine::EngineConfig {
        duration: engine::DurationSpec::Uniform(100, 500),
        agents: 3,
    };
    let log = engine::generate_log_with(&process, 150, &cfg, &mut rng).unwrap();

    let mut buf = Vec::new();
    xes::write_log(&log, &mut buf).unwrap();
    let back = xes::read_log(buf.as_slice()).unwrap();

    assert_eq!(back.len(), log.len());
    // Interval structure and outputs survive, so mining agrees.
    let (a, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    let (b, _) = mine_auto(&back, &MinerOptions::default()).unwrap();
    let mut ea = a.edges_named();
    let mut eb = b.edges_named();
    ea.sort();
    eb.sort();
    assert_eq!(ea, eb);
}

#[test]
fn model_file_to_mined_model() {
    let definition = "\
process Claims
activity Receive
activity Triage output uniform 0..100
activity FastTrack
activity FullReview
activity Payout

edge Receive -> Triage
edge Triage -> FastTrack if o[0] <= 30
edge Triage -> FullReview if o[0] > 30
edge FastTrack -> Payout
edge FullReview -> Payout
";
    let model = textfmt::read_model(definition.as_bytes()).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let log = engine::generate_log(&model, 200, &mut rng).unwrap();
    let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();
    assert!(mined.has_edge("Receive", "Triage"));
    assert!(mined.has_edge("Triage", "FastTrack") && mined.has_edge("Triage", "FullReview"));

    // The split is exclusive on Triage's output.
    let gateways = analyze_gateways(&mined, &log);
    assert_eq!(gateways.split_at("Triage").unwrap().kind, GatewayKind::Xor);
    assert_eq!(gateways.join_at("Payout").unwrap().kind, GatewayKind::Xor);
}

#[test]
fn parallel_and_incremental_match_batch_on_real_workload() {
    let process = presets::graph10();
    let mut rng = StdRng::seed_from_u64(9);
    let log = walk::random_walk_log(&process, 400, &mut rng).unwrap();

    let batch = mine_general_dag(&log, &MinerOptions::default()).unwrap();
    let parallel = mine_general_dag_in(
        &mut MineSession::new().with_threads(4),
        &log,
        &MinerOptions::default(),
    )
    .unwrap();
    let mut inc = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand());
    inc.absorb_log(&log).unwrap();
    let incremental = inc.snapshot().unwrap();

    let mut a = batch.edges_named();
    let mut b = parallel.edges_named();
    let mut c = incremental.edges_named();
    a.sort();
    b.sort();
    c.sort();
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn route_analytics_on_mined_graph10() {
    let process = presets::graph10();
    let mut rng = StdRng::seed_from_u64(13);
    let log = walk::random_walk_log(&process, 500, &mut rng).unwrap();
    let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    let g = model.graph();
    let source = g.sources()[0];
    let sink = g.sinks()[0];
    let routes = paths::count_paths(g, source, sink).unwrap();
    assert!(routes >= 2, "Graph10 has branching: {routes}");
    let critical = paths::longest_path(g, source, sink).unwrap().unwrap();
    assert!(critical.len() >= 4, "A→G→C→F→I→B→E→J is long");
    assert_eq!(critical.first(), Some(&source));
    assert_eq!(critical.last(), Some(&sink));
}

#[test]
fn fitness_flags_foreign_executions() {
    // Mine a model from clean executions, then score a log containing
    // rule-breaking cases.
    let clean = WorkflowLog::from_strings(["ABCE", "ACBE", "ABCE"]).unwrap();
    let (model, _) = mine_auto(&clean, &MinerOptions::default()).unwrap();

    let mut mixed = WorkflowLog::with_activities(clean.activities().clone());
    for e in clean.executions() {
        mixed.push(e.clone());
    }
    // E before B violates B→E / C→E dependencies.
    let ids: Vec<_> = "AEBC"
        .chars()
        .map(|c| clean.activities().id(&c.to_string()).unwrap())
        .collect();
    mixed.push(procmine::log::Execution::from_ids("bad", &ids).unwrap());

    let f = fitness(&model, &mixed);
    assert_eq!(f.executions, 4);
    assert_eq!(f.consistent, 3);
    assert!(f.dependency_violated > 0 || f.wrong_endpoints > 0);
    assert!((f.fraction() - 0.75).abs() < 1e-12);
}

#[test]
fn log_ops_compose_with_mining() {
    let process = presets::pend_block();
    let mut rng = StdRng::seed_from_u64(17);
    let log = walk::random_walk_log(&process, 200, &mut rng).unwrap();

    // Dedup: mining the deduplicated log yields the same model
    // (threshold 1 depends only on which orderings exist).
    let deduped = log.dedup_sequences();
    assert!(deduped.len() < log.len());
    let (a, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    let (b, _) = mine_auto(&deduped, &MinerOptions::default()).unwrap();
    let mut ea = a.edges_named();
    let mut eb = b.edges_named();
    ea.sort();
    eb.sort();
    assert_eq!(ea, eb);

    // Split + merge round-trips the log.
    let (train, test) = log.split_at_fraction(0.8);
    assert_eq!(train.len() + test.len(), log.len());
    let mut rejoined = train;
    rejoined.merge(&test);
    assert_eq!(rejoined.len(), log.len());
}

#[test]
fn mined_models_are_executable_round_trip() {
    // The paper's end goal: feed the discovered model back into a
    // workflow system. Simulate → mine → rebuild an executable model
    // (learned conditions + bootstrapped outputs) → simulate → re-mine:
    // the control-flow graph must be stable under the round trip.
    use procmine::bridge::executable_model;
    use procmine::classify::TreeConfig;

    let original = presets::order_fulfillment();
    let mut rng = StdRng::seed_from_u64(41);
    let log = engine::generate_log(&original, 400, &mut rng).unwrap();
    let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();

    let rebuilt = executable_model(&mined, &log, &TreeConfig::default()).unwrap();
    assert_eq!(rebuilt.activity_count(), mined.activity_count());
    assert_eq!(rebuilt.edge_count(), mined.edge_count());

    let relog = engine::generate_log(&rebuilt, 400, &mut rng).unwrap();
    // The rebuilt model routes like the original: branch frequencies in
    // the same ballpark.
    let frac = |log: &WorkflowLog, name: &str| {
        let id = log.activities().id(name).unwrap();
        log.executions().iter().filter(|e| e.contains(id)).count() as f64 / log.len() as f64
    };
    let orig_approval = frac(&log, "ManagerApproval");
    let new_approval = frac(&relog, "ManagerApproval");
    assert!(
        (orig_approval - new_approval).abs() < 0.15,
        "approval rate drifted: {orig_approval} vs {new_approval}"
    );

    let remined = mine_general_dag(&relog, &MinerOptions::default()).unwrap();
    let mut a = mined.edges_named();
    let mut b = remined.edges_named();
    a.sort();
    b.sort();
    assert_eq!(
        a, b,
        "control flow stable under the execute-mine round trip"
    );
}

#[test]
fn multi_agent_interval_logs_mine_correctly() {
    // With overlap, even a handful of executions reveal the AND-split
    // structure of StressSleep's parallel lanes.
    let process = presets::stress_sleep();
    let cfg = engine::EngineConfig {
        duration: engine::DurationSpec::Uniform(10, 50),
        agents: 6,
    };
    let mut rng = StdRng::seed_from_u64(23);
    let log = engine::generate_log_with(&process, 40, &cfg, &mut rng).unwrap();

    let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    // Overlapping intervals show the Sleep lanes as independent within
    // single executions, so no edges appear among them even in a small
    // log — something a sequential log of 40 runs rarely achieves.
    let lanes = ["Sleep1", "Sleep2", "Sleep3", "Sleep4"];
    for a in lanes {
        for b in lanes {
            if a != b {
                assert!(
                    !model.has_edge(a, b),
                    "{a}->{b} should be independent: {:?}",
                    model.edges_named()
                );
            }
        }
    }
}
