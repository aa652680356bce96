//! Differential suite pinning conformance replay, `OrderCounts` and the
//! gateway report to test-local copies of the all-pairs implementations
//! they replaced (module [`reference`] below).
//!
//! Replay checks Definition 6 through one reusable context with an
//! edge-only dependency test; the reference builds each execution's
//! induced subgraph and its full transitive closure. `OrderCounts` runs
//! the miners' pair-count kernel; the reference loops over all ordered
//! pairs. Gateways are classified per distinct activity set; the
//! reference scans the log once per gateway. For every generated model ×
//! log pair the suite requires identical `ConformanceReport`s (violation
//! order included), `ConformanceMetrics` counters, `fitness`, per-execution
//! `check_execution` results, `ordered`/`cooccur` entries and
//! `GatewayAnalysis`.
//!
//! Models come from four sources: mined from the checked log, mined from
//! another log over the same names (so the tables intern names in other
//! orders, or hold more or fewer names), and random edge sets with
//! cycles and self-loops over either the log's own table plus extra
//! nodes or a shuffled subset of the name pool. Each log is also checked
//! through foreign tables: its names permuted, and permuted with unknown
//! names inserted into executions.

use procmine_core::conformance::{
    check_conformance, check_conformance_in, check_execution, fitness, ConformanceReport, Fitness,
    Violation,
};
use procmine_core::follows::OrderCounts;
use procmine_core::splits::analyze_gateways;
use procmine_core::{
    mine_cyclic, mine_general_dag, ConformanceMetrics, MineSession, MinedModel, MinerOptions,
};
use procmine_graph::{DiGraph, NodeId};
use procmine_log::{ActivityInstance, ActivityTable, CompactLog, Execution, LogView, WorkflowLog};
use proptest::prelude::*;
use proptest::{collection, sample};

mod common;
use common::{cyclic_log, general_log, interval_log, log_from_indices, set_reuse_log, NAMES};

/// The earlier implementations, verbatim apart from instrumentation.
mod reference {
    use procmine_core::conformance::{ConformanceReport, Violation};
    use procmine_core::follows::FollowsAnalysis;
    use procmine_core::splits::{Gateway, GatewayAnalysis, GatewayKind};
    use procmine_core::MinedModel;
    use procmine_graph::{reach, scc, NodeId};
    use procmine_log::{ActivityId, ActivityInstance, Execution, WorkflowLog};
    use std::collections::HashMap;

    /// Definition 6 over one execution's induced subgraph and its full
    /// transitive closure.
    pub fn check_execution(model: &MinedModel, exec: &Execution) -> Vec<Violation> {
        let g = model.graph();
        let n = g.node_count();
        let mut violations = Vec::new();

        let mut present: Vec<usize> = Vec::new();
        let mut seen = vec![false; n];
        let mut unknown: Vec<usize> = Vec::new();
        for a in exec.sequence() {
            let idx = a.index();
            if idx >= n {
                if !unknown.contains(&idx) {
                    unknown.push(idx);
                    violations.push(Violation::UnknownActivity {
                        activity: format!("#{idx}"),
                    });
                }
            } else if !seen[idx] {
                seen[idx] = true;
                present.push(idx);
            }
        }
        if present.is_empty() {
            return violations;
        }

        let present_ids: Vec<NodeId> = present.iter().map(|&a| NodeId::new(a)).collect();
        let induced = procmine_graph::induced::induced_subgraph(g, &present_ids).graph;

        if !reach::is_weakly_connected(&induced) {
            violations.push(Violation::NotConnected);
        }

        let mut known = exec
            .instances()
            .iter()
            .map(|i| i.activity)
            .filter(|a| a.index() < n);
        let Some(first) = known.next() else {
            return violations;
        };
        let last = known.next_back().unwrap_or(first);
        let sources = g.sources();
        let sinks = g.sinks();
        if !sources.is_empty() && !sources.contains(&NodeId::new(first.index())) {
            violations.push(Violation::WrongInitiating {
                found: model.name_of(NodeId::new(first.index())).to_string(),
            });
        }
        if !sinks.is_empty() && !sinks.contains(&NodeId::new(last.index())) {
            violations.push(Violation::WrongTerminating {
                found: model.name_of(NodeId::new(last.index())).to_string(),
            });
        }

        let Some(first_pos) = present.iter().position(|&a| a == first.index()) else {
            return violations;
        };
        let start_pos = NodeId::new(first_pos);
        let mut reachable = reach::reachable_from(&induced, start_pos);
        reachable.insert(start_pos.index());
        for (i, &a) in present.iter().enumerate() {
            if !reachable.contains(i) {
                violations.push(Violation::Unreachable {
                    activity: model.name_of(NodeId::new(a)).to_string(),
                });
            }
        }

        let closure = reach::transitive_closure(&induced);
        let mut min_start = vec![u64::MAX; n];
        let mut max_end = vec![0u64; n];
        for inst in exec.instances() {
            let a = inst.activity.index();
            if a >= n {
                continue;
            }
            min_start[a] = min_start[a].min(inst.start);
            max_end[a] = max_end[a].max(inst.end);
        }
        for (i, &u) in present.iter().enumerate() {
            for (j, &v) in present.iter().enumerate() {
                if i != j
                    && closure.has_edge(i, j)
                    && !closure.has_edge(j, i)
                    && max_end[u] >= min_start[v]
                {
                    violations.push(Violation::DependencyViolated {
                        from: model.name_of(NodeId::new(u)).to_string(),
                        to: model.name_of(NodeId::new(v)).to_string(),
                    });
                }
            }
        }
        violations
    }

    /// Remaps a foreign execution onto model ids and checks it.
    fn check_foreign_execution(
        model: &MinedModel,
        exec: &Execution,
        map: &[Option<usize>],
        log_names: &[String],
    ) -> Vec<Violation> {
        let mut violations = Vec::new();
        let mut unknown_seen: Vec<usize> = Vec::new();
        let mut mapped: Vec<ActivityInstance> = Vec::new();
        for inst in exec.instances() {
            let idx = inst.activity.index();
            match map.get(idx).copied().flatten() {
                Some(node) => {
                    let mut remapped = inst.clone();
                    remapped.activity = ActivityId::from_index(node);
                    mapped.push(remapped);
                }
                None => {
                    if !unknown_seen.contains(&idx) {
                        unknown_seen.push(idx);
                        let activity = log_names
                            .get(idx)
                            .cloned()
                            .unwrap_or_else(|| format!("#{idx}"));
                        violations.push(Violation::UnknownActivity { activity });
                    }
                }
            }
        }
        if mapped.is_empty() {
            return violations;
        }
        let remapped = Execution::new(exec.id.clone(), mapped).unwrap();
        violations.extend(check_execution(model, &remapped));
        violations
    }

    /// Definition 7 with the name-aligned execution loop; also returns
    /// every execution's violations, in log order.
    pub fn check_conformance(
        model: &MinedModel,
        log: &WorkflowLog,
    ) -> (ConformanceReport, Vec<Vec<Violation>>) {
        let g = model.graph();
        let n = g.node_count();
        let follows = FollowsAnalysis::analyze(log);
        let n_log = follows.activity_count();

        let node_by_name: HashMap<&str, usize> = (0..n)
            .map(|i| (g.node(NodeId::new(i)).as_str(), i))
            .collect();
        let log_names = log.activities().names();
        let map: Vec<Option<usize>> = log_names
            .iter()
            .map(|name| node_by_name.get(name.as_str()).copied())
            .collect();
        let identity = map.iter().enumerate().all(|(i, &m)| m == Some(i));

        let mut report = ConformanceReport::default();
        for (i, m) in map.iter().enumerate() {
            if m.is_none() {
                report.unknown_activities.push(log_names[i].clone());
            }
        }
        let closure = reach::transitive_closure(g);
        let sccs = scc::tarjan_scc(g);
        for u in 0..n_log {
            for v in 0..n_log {
                if u == v {
                    continue;
                }
                match (map[u], map[v]) {
                    (Some(mu), Some(mv)) => {
                        let path = closure.has_edge(mu, mv);
                        let same_cycle = sccs.same_component(NodeId::new(mu), NodeId::new(mv));
                        if follows.depends(u, v) && !path {
                            report
                                .missing_dependencies
                                .push((log_names[u].clone(), log_names[v].clone()));
                        }
                        if follows.independent(u, v) && path && !same_cycle {
                            report
                                .spurious_dependencies
                                .push((log_names[u].clone(), log_names[v].clone()));
                        }
                    }
                    _ => {
                        if follows.depends(u, v) {
                            report
                                .missing_dependencies
                                .push((log_names[u].clone(), log_names[v].clone()));
                        }
                    }
                }
            }
        }

        let mut per_exec = Vec::new();
        for exec in log.executions() {
            let violations = if identity {
                check_execution(model, exec)
            } else {
                check_foreign_execution(model, exec, &map, log_names)
            };
            if !violations.is_empty() {
                report
                    .inconsistent_executions
                    .push((exec.id.clone(), violations.clone()));
            }
            per_exec.push(violations);
        }
        (report, per_exec)
    }

    /// `(ordered, cooccur)`, row-major `n × n`, by the all-pairs loop.
    pub fn order_counts(log: &WorkflowLog) -> (Vec<u32>, Vec<u32>) {
        let n = log.activities().len();
        let mut ordered = vec![0u32; n * n];
        let mut cooccur = vec![0u32; n * n];
        let mut min_start = vec![u64::MAX; n];
        let mut max_end = vec![0u64; n];
        let mut present: Vec<usize> = Vec::new();
        for exec in log.executions() {
            present.clear();
            for inst in exec.instances() {
                let a = inst.activity.index();
                if min_start[a] == u64::MAX {
                    present.push(a);
                }
                min_start[a] = min_start[a].min(inst.start);
                max_end[a] = max_end[a].max(inst.end);
            }
            for &u in &present {
                for &v in &present {
                    if u == v {
                        continue;
                    }
                    cooccur[u * n + v] += 1;
                    if max_end[u] < min_start[v] {
                        ordered[u * n + v] += 1;
                    }
                }
            }
            for &a in &present {
                min_start[a] = u64::MAX;
                max_end[a] = 0;
            }
        }
        (ordered, cooccur)
    }

    /// Splits and joins, each classified by a scan of the whole log.
    pub fn analyze_gateways(model: &MinedModel, log: &WorkflowLog) -> GatewayAnalysis {
        let g = model.graph();
        let mut analysis = GatewayAnalysis::default();
        for v in g.node_ids() {
            let succs: Vec<NodeId> = g.successors(v).to_vec();
            if succs.len() >= 2 {
                let (kind, support) = classify(log, v, &succs);
                analysis.splits.push(Gateway {
                    activity: g.node(v).clone(),
                    branches: succs.iter().map(|&s| g.node(s).clone()).collect(),
                    kind,
                    support,
                });
            }
            let preds: Vec<NodeId> = g.predecessors(v).to_vec();
            if preds.len() >= 2 {
                let (kind, support) = classify(log, v, &preds);
                analysis.joins.push(Gateway {
                    activity: g.node(v).clone(),
                    branches: preds.iter().map(|&p| g.node(p).clone()).collect(),
                    kind,
                    support,
                });
            }
        }
        analysis
    }

    fn classify(log: &WorkflowLog, center: NodeId, branches: &[NodeId]) -> (GatewayKind, usize) {
        let center_id = ActivityId::from_index(center.index());
        let ids: Vec<ActivityId> = branches
            .iter()
            .map(|&b| ActivityId::from_index(b.index()))
            .collect();
        let mut support = 0usize;
        let mut always_all = true;
        let mut never_two = true;
        for exec in log.executions() {
            if !exec.contains(center_id) {
                continue;
            }
            support += 1;
            let present = ids.iter().filter(|&&a| exec.contains(a)).count();
            if present < ids.len() {
                always_all = false;
            }
            if present >= 2 {
                never_two = false;
            }
        }
        let kind = if support == 0 {
            GatewayKind::Or
        } else if always_all {
            GatewayKind::And
        } else if never_two {
            GatewayKind::Xor
        } else {
            GatewayKind::Or
        };
        (kind, support)
    }
}

/// Random edges over node indices, reduced modulo the node count:
/// repeats, two-cycles, longer cycles and self-loops all occur.
fn edge_draws() -> impl Strategy<Value = Vec<(usize, usize)>> {
    collection::vec((0usize..16, 0usize..16), 0..=14)
}

/// A random order of the whole name pool.
fn name_order() -> impl Strategy<Value = Vec<usize>> {
    sample::subsequence((0..NAMES.len()).collect::<Vec<_>>(), NAMES.len()).prop_shuffle()
}

/// Unknown instances to splice into a log: `(execution, which, start,
/// duration)`, reduced modulo the log's size.
fn unknown_draws() -> impl Strategy<Value = Vec<(usize, usize, u64, u64)>> {
    collection::vec((0usize..16, 0usize..2, 0u64..40, 0u64..4), 0..=6)
}

/// Everything one case draws besides the log itself.
#[derive(Debug)]
struct Variation {
    /// Two independently generated logs over the same name pool.
    others: (WorkflowLog, WorkflowLog),
    table_edges: Vec<(usize, usize)>,
    /// Extra model nodes beyond the log's table.
    extra_nodes: usize,
    subset_edges: Vec<(usize, usize)>,
    /// Names of the shuffled-subset model, and the foreign table order.
    subset_order: Vec<usize>,
    subset_len: usize,
    table_order: Vec<usize>,
    unknowns: Vec<(usize, usize, u64, u64)>,
}

fn variation() -> impl Strategy<Value = Variation> {
    (
        (general_log(4), general_log(8)),
        (edge_draws(), 0usize..=2),
        (edge_draws(), name_order(), 1usize..=NAMES.len()),
        name_order(),
        unknown_draws(),
    )
        .prop_map(
            |(
                others,
                (table_edges, extra_nodes),
                (subset_edges, subset_order, subset_len),
                table_order,
                unknowns,
            )| {
                Variation {
                    others,
                    table_edges,
                    extra_nodes,
                    subset_edges,
                    subset_order,
                    subset_len,
                    table_order,
                    unknowns,
                }
            },
        )
}

/// A model over `names` with `draws` reduced modulo the node count.
fn graph_model(names: Vec<String>, draws: &[(usize, usize)]) -> MinedModel {
    let n = names.len();
    let edges: Vec<_> = draws.iter().map(|&(u, v)| (u % n, v % n)).collect();
    MinedModel::from_graph(DiGraph::from_edges(names, edges))
}

/// The models a case checks `log` against.
fn models_for(
    log: &WorkflowLog,
    mined: MinedModel,
    var: &Variation,
) -> Vec<(&'static str, MinedModel)> {
    let options = MinerOptions::default();
    let table: Vec<String> = log.activities().names().to_vec();
    let mut with_extras = table.clone();
    with_extras.extend(
        NAMES
            .iter()
            .filter(|name| !table.iter().any(|t| t == *name))
            .take(var.extra_nodes)
            .map(|name| name.to_string()),
    );
    let subset: Vec<String> = var.subset_order[..var.subset_len]
        .iter()
        .map(|&i| NAMES[i].to_string())
        .collect();
    vec![
        ("mined from the log", mined),
        (
            "mined from a smaller log",
            mine_general_dag(&var.others.0, &options).unwrap(),
        ),
        (
            "mined from a larger log",
            mine_general_dag(&var.others.1, &options).unwrap(),
        ),
        (
            "random edges over the table plus extra nodes",
            graph_model(with_extras, &var.table_edges),
        ),
        (
            "random edges over a shuffled name subset",
            graph_model(subset, &var.subset_edges),
        ),
    ]
}

/// `log` re-encoded over a foreign table: its names in `order` (indices
/// into the pool), with `unknowns` — instances of names no model has —
/// spliced into its executions when `with_unknowns` is set. Executions
/// are rebuilt through `Execution::new`, so ties re-sort by the new ids.
fn reencode(
    log: &WorkflowLog,
    order: &[usize],
    unknowns: &[(usize, usize, u64, u64)],
) -> WorkflowLog {
    let names = log.activities().names();
    let mut table_names: Vec<&str> = order
        .iter()
        .map(|&i| NAMES[i])
        .filter(|name| names.iter().any(|n| n == name))
        .collect();
    let unknown_names = ["X", "Y"];
    if !unknowns.is_empty() {
        // Interleave the unknown names with the known ones.
        table_names.insert(unknowns[0].0 % (table_names.len() + 1), "X");
        table_names.insert(unknowns[0].1 % (table_names.len() + 1), "Y");
    }
    let table = ActivityTable::from_names(table_names);
    let mut foreign = WorkflowLog::with_activities(table);
    for (x, exec) in log.executions().iter().enumerate() {
        let mut instances: Vec<ActivityInstance> = exec
            .instances()
            .iter()
            .map(|inst| ActivityInstance {
                activity: foreign
                    .activities()
                    .id(&names[inst.activity.index()])
                    .unwrap(),
                ..inst.clone()
            })
            .collect();
        for &(at, which, start, dur) in unknowns {
            if at % log.len() == x {
                instances.push(ActivityInstance {
                    activity: foreign.activities().id(unknown_names[which]).unwrap(),
                    start,
                    end: start + dur,
                    output: None,
                });
            }
        }
        foreign.push(Execution::new(exec.id.clone(), instances).unwrap());
    }
    foreign
}

/// The counters `check_conformance_in` must record, tallied from the
/// reference report and per-execution violations.
fn reference_counters(
    report: &ConformanceReport,
    per_exec: &[Vec<Violation>],
) -> ConformanceMetrics {
    let mut m = ConformanceMetrics::new();
    for violations in per_exec {
        m.executions_checked += 1;
        if violations.is_empty() {
            m.consistent_executions += 1;
        }
        for v in violations {
            match v {
                Violation::UnknownActivity { .. } => m.violations_unknown_activity += 1,
                Violation::NotConnected => m.violations_not_connected += 1,
                Violation::WrongInitiating { .. } => m.violations_wrong_initiating += 1,
                Violation::WrongTerminating { .. } => m.violations_wrong_terminating += 1,
                Violation::Unreachable { .. } => m.violations_unreachable += 1,
                Violation::DependencyViolated { .. } => m.violations_dependency += 1,
            }
        }
    }
    m.missing_dependencies = report.missing_dependencies.len() as u64;
    m.spurious_dependencies = report.spurious_dependencies.len() as u64;
    m.unknown_activities = report.unknown_activities.len() as u64;
    m
}

/// The fitness tally of per-execution violations.
fn reference_fitness(per_exec: &[Vec<Violation>]) -> Fitness {
    let mut f = Fitness {
        executions: per_exec.len(),
        ..Fitness::default()
    };
    for violations in per_exec {
        if violations.is_empty() {
            f.consistent += 1;
        }
        for v in violations {
            match v {
                Violation::NotConnected => f.not_connected += 1,
                Violation::WrongInitiating { .. } | Violation::WrongTerminating { .. } => {
                    f.wrong_endpoints += 1
                }
                Violation::Unreachable { .. } => f.unreachable += 1,
                Violation::DependencyViolated { .. } => f.dependency_violated += 1,
                Violation::UnknownActivity { .. } => f.unknown_activity += 1,
            }
        }
    }
    f
}

/// Every pair count of `OrderCounts` against the all-pairs loop, from
/// the nested log and from its columns.
fn assert_order_counts_match(log: &WorkflowLog) {
    let compact = CompactLog::from_log(log);
    let (ordered, cooccur) = reference::order_counts(log);
    let n = log.activities().len();
    for counts in [OrderCounts::from_log(log), OrderCounts::from_log(&compact)] {
        assert_eq!(counts.activity_count(), n);
        for u in 0..n {
            for v in 0..n {
                assert_eq!(
                    counts.ordered(u, v),
                    ordered[u * n + v],
                    "ordered({u}, {v})"
                );
                assert_eq!(
                    counts.cooccur(u, v),
                    cooccur[u * n + v],
                    "cooccur({u}, {v})"
                );
            }
        }
    }
}

/// Every replay and gateway output for one model × log pair. The
/// report, its counters, fitness and the gateways are checked for the
/// nested log and for the same log in columns.
fn assert_pair_matches(model: &MinedModel, log: &WorkflowLog, what: &str) {
    let (expected, per_exec) = reference::check_conformance(model, log);
    let compact = CompactLog::from_log(log);
    for (view, how) in [
        (LogView::Nested(log), "nested"),
        (LogView::Compact(&compact), "columns"),
    ] {
        assert_eq!(
            check_conformance(model, view),
            expected,
            "{what} {how}: report"
        );

        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let report = check_conformance_in(&mut session, model, view);
        drop(session);
        assert_eq!(report, expected, "{what} {how}: session report");
        assert_eq!(
            metrics.counters(),
            reference_counters(&expected, &per_exec).counters(),
            "{what} {how}: counters"
        );

        assert_eq!(
            fitness(model, view),
            reference_fitness(&per_exec),
            "{what} {how}: fitness"
        );
        assert_eq!(
            analyze_gateways(model, view),
            reference::analyze_gateways(model, log),
            "{what} {how}: gateways"
        );
    }

    let mut raw = Vec::new();
    for exec in log.executions() {
        let violations = reference::check_execution(model, exec);
        assert_eq!(
            check_execution(model, exec),
            violations,
            "{what}: check_execution({})",
            exec.id
        );
        raw.push(violations);
    }
    let shares_table = model.activity_count() >= log.activities().len()
        && log
            .activities()
            .names()
            .iter()
            .enumerate()
            .all(|(i, name)| model.graph().node(NodeId::new(i)) == name);
    if shares_table {
        // Fitness on a log that shares the model's table is unchanged
        // from checking raw ids.
        assert_eq!(
            fitness(model, log),
            reference_fitness(&raw),
            "{what}: raw fitness"
        );
    }

    assert_eq!(
        analyze_gateways(model, log),
        reference::analyze_gateways(model, log),
        "{what}: gateways"
    );
}

/// Checks `log` — as generated and through two foreign tables — against
/// every model of the case.
fn assert_case_matches(log: &WorkflowLog, mined: MinedModel, var: &Variation) {
    let logs = [
        ("own table", log.clone()),
        ("permuted table", reencode(log, &var.table_order, &[])),
        (
            "permuted table with unknown names",
            reencode(log, &var.table_order, &var.unknowns),
        ),
    ];
    let models = models_for(log, mined, var);
    for (log_what, log) in &logs {
        assert_order_counts_match(log);
        for (model_what, model) in &models {
            assert_pair_matches(model, log, &format!("{model_what} × {log_what}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn general_logs_replay_like_reference(log in general_log(6), var in variation()) {
        let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        assert_case_matches(&log, mined, &var);
    }

    #[test]
    fn cyclic_logs_replay_like_reference(log in cyclic_log(4), var in variation()) {
        let mined = mine_cyclic(&log, &MinerOptions::default()).unwrap();
        assert_case_matches(&log, mined, &var);
    }

    #[test]
    fn interval_logs_replay_like_reference(log in interval_log(5), var in variation()) {
        let mined = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        assert_case_matches(&log, mined, &var);
    }

    #[test]
    fn set_reuse_logs_replay_like_reference(log in set_reuse_log(6), var in variation()) {
        let mined = mine_general_dag(&log, &MinerOptions::with_threshold(2)).unwrap();
        assert_case_matches(&log, mined, &var);
    }
}

/// The generated corpus must reach every violation kind; a generator
/// change that loses one would silently weaken the comparisons above.
/// This hand-built pair reaches all six, through the foreign-table path
/// and a self-loop that forces the dependency fallback.
#[test]
fn hand_built_pair_reaches_every_violation_kind() {
    let log = log_from_indices(&[vec![0, 1, 2, 3], vec![0, 2, 1, 3], vec![3, 1, 0]]);
    let chain = graph_model(
        NAMES[..5].iter().map(|s| s.to_string()).collect(),
        &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 1)],
    );
    let foreign = reencode(&log, &[3, 2, 1, 0], &[(2, 0, 9, 1)]);
    let (report, _) = reference::check_conformance(&chain, &foreign);
    let mut kinds = [false; 6];
    for v in report.inconsistent_executions.iter().flat_map(|(_, vs)| vs) {
        kinds[match v {
            Violation::UnknownActivity { .. } => 0,
            Violation::NotConnected => 1,
            Violation::WrongInitiating { .. } => 2,
            Violation::WrongTerminating { .. } => 3,
            Violation::Unreachable { .. } => 4,
            Violation::DependencyViolated { .. } => 5,
        }] = true;
    }
    assert_eq!(kinds, [true; 6], "violation kinds reached: {kinds:?}");
    assert_pair_matches(&chain, &foreign, "hand-built chain × foreign log");
}
