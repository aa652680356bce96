//! Conformance checking: Definitions 6 and 7 of the paper, implemented
//! independently of the miners so mined models can be *verified*, not
//! just trusted.
//!
//! * [`check_execution`] — Definition 6: is one execution consistent
//!   with a model graph? (Induced subgraph connected, endpoints are the
//!   initiating/terminating activities, everything reachable from the
//!   start, no graph dependency contradicted by the observed ordering.)
//! * [`check_conformance`] — Definition 7: is the model conformal with a
//!   whole log? (Dependency completeness + irredundancy against the
//!   [`follows`](crate::follows) relations, plus execution completeness
//!   via Definition 6.)
//!
//! For models with cycles, activities in the same strongly connected
//! component follow each other both ways and are therefore *independent*
//! (Definition 4); dependency checks skip such pairs, which generalizes
//! the paper's DAG-centric definitions the way §5 intends.
//!
//! Conformance checking exists to diagnose *foreign* logs — a log whose
//! activity table differs from the model's is the interesting case, not
//! a programming error. [`check_conformance`] therefore aligns the two
//! tables by activity name and reports unmatched names in
//! [`ConformanceReport::unknown_activities`]; [`check_execution`]
//! reports out-of-range activity ids as
//! [`Violation::UnknownActivity`]. Neither panics. Both have `*_in`
//! forms that run inside a [`MineSession`] and feed its
//! [`ConformanceMetrics`] sink.
//!
//! **Replay cost.** Checking one execution of `k` activities costs
//! O(k + |E_S|) (plus the model degrees of its activities), where `E_S`
//! is the set of model edges among them. One replay context per log
//! holds the model's endpoint flags and a node-indexed position map that
//! each check resets for its own activities only. Connectivity and
//! reachability are searches over the model's adjacency lists that skip
//! absent nodes; no induced subgraph is built. The dependency-order
//! clause tests only the induced *edges*: if every edge `u→v` has
//! `max_end(u) < min_start(v)`, no violated pair exists, because
//! precedence composes along a path (`min_start(w) ≤ max_end(w)`) and
//! such edges cannot close a cycle (it would need
//! `max_end(u) < min_start(u) ≤ max_end(u)`). Only when some edge fails
//! — always the case for an induced cycle or self-loop — does the check
//! build the induced closure and list every violated pair, in the same
//! order as the all-pairs definition.

use crate::follows::FollowsAnalysis;
use crate::session::MineSession;
use crate::telemetry::{ConformanceMetrics, MetricsSink, NullSink};
use crate::MinedModel;
use procmine_graph::{reach, scc, AdjMatrix, NodeId};
use procmine_log::{ActivityId, ActivityInstance, Execution, WorkflowLog};
use std::collections::HashMap;
use std::time::Instant;

/// One way an execution can fail Definition 6 against a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// The execution contains an activity the model has no node for.
    UnknownActivity {
        /// The activity's name where known ([`check_conformance`]
        /// resolves it from the log's table), otherwise its raw id
        /// rendered as `#id` (a bare [`check_execution`] has no table
        /// to consult).
        activity: String,
    },
    /// The induced subgraph over the execution's activities is not
    /// (weakly) connected.
    NotConnected,
    /// The execution does not start at the model's initiating activity.
    WrongInitiating {
        /// The activity the execution actually started with.
        found: String,
    },
    /// The execution does not end at the model's terminating activity.
    WrongTerminating {
        /// The activity the execution actually ended with.
        found: String,
    },
    /// An activity in the execution cannot be reached from the
    /// initiating activity within the induced subgraph.
    Unreachable {
        /// The unreachable activity.
        activity: String,
    },
    /// The execution orders two activities against a model dependency.
    DependencyViolated {
        /// Dependency source (must come first per the model).
        from: String,
        /// Dependency target (observed not-after `from`).
        to: String,
    },
}

/// Checks one execution against a model graph (Definition 6). Returns
/// all violations found (empty = consistent).
///
/// The model's node ids are assumed to align with the log's activity
/// table (true for models mined from that log and for simulator ground
/// truth). Activity ids the model has no node for are reported as
/// [`Violation::UnknownActivity`] — never a panic — and the remaining
/// checks run over the known activities only.
pub fn check_execution(model: &MinedModel, exec: &Execution) -> Vec<Violation> {
    Replay::new(model).check(exec)
}

/// [`check_execution`] inside a [`MineSession`]: counts the execution,
/// its violations by variant, and the check's wall time into the
/// session's sink (see [`ConformanceMetrics`]). With a default session
/// this is the plain twin; the single-execution check records no spans.
pub fn check_execution_in<S: MetricsSink<ConformanceMetrics>>(
    session: &mut MineSession<S>,
    model: &MinedModel,
    exec: &Execution,
) -> Vec<Violation> {
    let (sink, _) = session.handles();
    let started = S::ENABLED.then(Instant::now);
    let violations = Replay::new(model).check(exec);
    record_execution_check(sink, &violations, elapsed_nanos(started));
    violations
}

fn elapsed_nanos(started: Option<Instant>) -> u64 {
    started.map_or(0, |s| s.elapsed().as_nanos() as u64)
}

/// Tallies one checked execution's violations into the sink.
fn record_execution_check<S: MetricsSink<ConformanceMetrics>>(
    sink: &mut S,
    violations: &[Violation],
    nanos: u64,
) {
    if !S::ENABLED {
        return;
    }
    sink.record(|m| {
        m.executions_checked += 1;
        m.check_nanos += nanos;
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
    });
}

/// Marks a node that is absent from the execution being checked.
const ABSENT: u32 = u32::MAX;

/// Definition 6 replay against one model, reusable across executions.
/// Built once per log (or per single-execution call); each
/// [`check`](Replay::check) resets only the scratch entries of its own
/// activities. See the module doc for the cost model.
struct Replay<'m> {
    model: &'m MinedModel,
    /// The model has at least one source / sink. Membership of a node
    /// is then just its in-degree / out-degree being zero.
    has_sources: bool,
    has_sinks: bool,
    /// Node → position in `present`, or [`ABSENT`].
    pos: Vec<u32>,
    /// The execution's known activities in first-occurrence order.
    present: Vec<usize>,
    /// Per position: the activity's earliest start and latest end.
    min_start: Vec<u64>,
    max_end: Vec<u64>,
    /// Per position: visited by the current search.
    seen: Vec<bool>,
    /// Search queue of positions.
    queue: Vec<usize>,
}

impl<'m> Replay<'m> {
    fn new(model: &'m MinedModel) -> Self {
        let g = model.graph();
        let n = g.node_count();
        Replay {
            model,
            has_sources: g.node_ids().any(|v| g.in_degree(v) == 0),
            has_sinks: g.node_ids().any(|v| g.out_degree(v) == 0),
            pos: vec![ABSENT; n],
            present: Vec::new(),
            min_start: Vec::new(),
            max_end: Vec::new(),
            seen: Vec::new(),
            queue: Vec::new(),
        }
    }

    /// Checks one execution whose activity ids are the model's node ids.
    fn check(&mut self, exec: &Execution) -> Vec<Violation> {
        let n = self.pos.len();
        let mut violations = Vec::new();

        // Present known activities, in start order (dedup, keep first
        // occurrence), with their whole-activity intervals. Ids the
        // model has no node for become UnknownActivity violations (one
        // per distinct id). The last known instance is the execution's
        // terminating activity.
        let mut unknown: Vec<usize> = Vec::new();
        let mut last = None;
        for inst in exec.instances() {
            let a = inst.activity.index();
            if a >= n {
                if !unknown.contains(&a) {
                    unknown.push(a);
                    violations.push(Violation::UnknownActivity {
                        activity: format!("#{a}"),
                    });
                }
                continue;
            }
            last = Some(a);
            match self.pos[a] {
                ABSENT => {
                    self.pos[a] = self.present.len() as u32;
                    self.present.push(a);
                    self.min_start.push(inst.start);
                    self.max_end.push(inst.end);
                }
                p => {
                    let p = p as usize;
                    self.min_start[p] = self.min_start[p].min(inst.start);
                    self.max_end[p] = self.max_end[p].max(inst.end);
                }
            }
        }
        // With no known activity the structural checks are vacuous.
        if let Some(last) = last {
            self.check_present(last, &mut violations);
        }

        for &a in &self.present {
            self.pos[a] = ABSENT;
        }
        self.present.clear();
        self.min_start.clear();
        self.max_end.clear();
        violations
    }

    /// The structural clauses of Definition 6 over the subgraph induced
    /// by `present`, whose first entry is the initiating activity.
    fn check_present(&mut self, last: usize, violations: &mut Vec<Violation>) {
        let model = self.model;
        let g = model.graph();
        let name = |a: usize| model.name_of(NodeId::new(a)).to_string();
        let k = self.present.len();

        if self.search(0, true) < k {
            violations.push(Violation::NotConnected);
        }

        // Endpoints: the model's initiating/terminating activities are
        // its sources/sinks. (A well-formed process model has exactly
        // one of each; we accept membership so partially-mined graphs
        // still check.) With unknown activities in the mix, the
        // first/last *known* activity stands in for the endpoints.
        let first = self.present[0];
        if self.has_sources && g.in_degree(NodeId::new(first)) != 0 {
            violations.push(Violation::WrongInitiating { found: name(first) });
        }
        if self.has_sinks && g.out_degree(NodeId::new(last)) != 0 {
            violations.push(Violation::WrongTerminating { found: name(last) });
        }

        // Reachability from the initiating activity within the induced
        // subgraph.
        self.search(0, false);
        for (i, &a) in self.present.iter().enumerate() {
            if !self.seen[i] {
                violations.push(Violation::Unreachable { activity: name(a) });
            }
        }

        // Dependency ordering: for each pair with a path u→v in the
        // induced subgraph but not v→u (a real dependency — mutual paths
        // mean a cycle, i.e. independence), u must terminate before v
        // starts. Ordered edges imply every such pair is ordered.
        if !self.edges_ordered() {
            self.list_dependency_violations(violations);
        }
    }

    /// Breadth-first search from position `start` over the induced
    /// subgraph — along edges both ways when `undirected` — leaving the
    /// visited positions in `seen`. Returns how many were visited.
    fn search(&mut self, start: usize, undirected: bool) -> usize {
        let g = self.model.graph();
        self.seen.clear();
        self.seen.resize(self.present.len(), false);
        self.queue.clear();
        self.seen[start] = true;
        self.queue.push(start);
        let mut head = 0;
        while let Some(&p) = self.queue.get(head) {
            head += 1;
            let u = NodeId::new(self.present[p]);
            let preds = if undirected { g.predecessors(u) } else { &[] };
            for w in g.successors(u).iter().chain(preds) {
                let q = self.pos[w.index()];
                if q != ABSENT && !self.seen[q as usize] {
                    self.seen[q as usize] = true;
                    self.queue.push(q as usize);
                }
            }
        }
        self.queue.len()
    }

    /// `true` if every induced edge u→v has u ending before v starts.
    fn edges_ordered(&self) -> bool {
        let g = self.model.graph();
        self.present.iter().enumerate().all(|(i, &u)| {
            g.successors(NodeId::new(u)).iter().all(|w| {
                let q = self.pos[w.index()];
                q == ABSENT || self.max_end[i] < self.min_start[q as usize]
            })
        })
    }

    /// Lists every closure pair of the induced subgraph that the
    /// execution orders against the model, in position order.
    fn list_dependency_violations(&mut self, violations: &mut Vec<Violation>) {
        let k = self.present.len();
        let mut closure = AdjMatrix::new(k);
        for i in 0..k {
            self.search(i, false);
            for j in (0..k).filter(|&j| self.seen[j]) {
                closure.add_edge(i, j);
            }
        }
        for (i, &u) in self.present.iter().enumerate() {
            for (j, &v) in self.present.iter().enumerate() {
                if i != j
                    && closure.has_edge(i, j)
                    && !closure.has_edge(j, i)
                    && self.max_end[i] >= self.min_start[j]
                {
                    violations.push(Violation::DependencyViolated {
                        from: self.model.name_of(NodeId::new(u)).to_string(),
                        to: self.model.name_of(NodeId::new(v)).to_string(),
                    });
                }
            }
        }
    }
}

/// The result of checking a model against a log (Definition 7).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConformanceReport {
    /// Dependencies in the log (`v` depends on `u`) with no `u→v` path
    /// in the model — failures of *dependency completeness*.
    pub missing_dependencies: Vec<(String, String)>,
    /// Independent activity pairs connected by a model path — failures
    /// of *irredundancy*.
    pub spurious_dependencies: Vec<(String, String)>,
    /// Executions that are not consistent with the model
    /// (Definition 6) — failures of *execution completeness*.
    pub inconsistent_executions: Vec<(String, Vec<Violation>)>,
    /// Activity names present in the log but absent from the model —
    /// a foreign log. The model cannot be conformal with a log it does
    /// not even cover.
    pub unknown_activities: Vec<String>,
}

impl ConformanceReport {
    /// `true` if the model is conformal with the log.
    pub fn is_conformal(&self) -> bool {
        self.missing_dependencies.is_empty()
            && self.spurious_dependencies.is_empty()
            && self.inconsistent_executions.is_empty()
            && self.unknown_activities.is_empty()
    }

    /// Renders the report as machine-readable JSON (the CLI's
    /// `check --json` output). Stable schema:
    ///
    /// ```json
    /// {
    ///   "conformal": false,
    ///   "missing_dependencies": [{"from": "A", "to": "B"}],
    ///   "spurious_dependencies": [],
    ///   "unknown_activities": ["X"],
    ///   "inconsistent_executions": [
    ///     {"execution": "e1",
    ///      "violations": [{"kind": "unreachable", "activity": "D"}]}
    ///   ]
    /// }
    /// ```
    pub fn to_json(&self) -> String {
        use crate::trace::escape;
        let pairs = |out: &mut String, list: &[(String, String)]| {
            out.push('[');
            for (i, (from, to)) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"from\":\"{}\",\"to\":\"{}\"}}",
                    escape(from),
                    escape(to)
                ));
            }
            out.push(']');
        };
        let mut out = String::new();
        out.push_str(&format!("{{\"conformal\":{}", self.is_conformal()));
        out.push_str(",\"missing_dependencies\":");
        pairs(&mut out, &self.missing_dependencies);
        out.push_str(",\"spurious_dependencies\":");
        pairs(&mut out, &self.spurious_dependencies);
        out.push_str(",\"unknown_activities\":[");
        for (i, name) in self.unknown_activities.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", escape(name)));
        }
        out.push_str("],\"inconsistent_executions\":[");
        for (i, (exec, violations)) in self.inconsistent_executions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"execution\":\"{}\",\"violations\":[",
                escape(exec)
            ));
            for (j, v) in violations.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_json());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

impl Violation {
    /// One violation as a JSON object with a discriminating `kind` field.
    fn to_json(&self) -> String {
        use crate::trace::escape;
        match self {
            Violation::UnknownActivity { activity } => format!(
                "{{\"kind\":\"unknown_activity\",\"activity\":\"{}\"}}",
                escape(activity)
            ),
            Violation::NotConnected => "{\"kind\":\"not_connected\"}".to_string(),
            Violation::WrongInitiating { found } => format!(
                "{{\"kind\":\"wrong_initiating\",\"found\":\"{}\"}}",
                escape(found)
            ),
            Violation::WrongTerminating { found } => format!(
                "{{\"kind\":\"wrong_terminating\",\"found\":\"{}\"}}",
                escape(found)
            ),
            Violation::Unreachable { activity } => format!(
                "{{\"kind\":\"unreachable\",\"activity\":\"{}\"}}",
                escape(activity)
            ),
            Violation::DependencyViolated { from, to } => format!(
                "{{\"kind\":\"dependency_violated\",\"from\":\"{}\",\"to\":\"{}\"}}",
                escape(from),
                escape(to)
            ),
        }
    }
}

/// Checks a model against a log for all three conformal-graph properties
/// (Definition 7).
///
/// The log's activity table is aligned to the model's nodes *by name*:
/// a model mined from this log shares the table outright (the identity
/// map, no overhead), while a foreign log may order activities
/// differently or mention activities the model has no node for. The
/// latter are reported in [`ConformanceReport::unknown_activities`];
/// executions and dependencies involving them are checked over the
/// known activities. This never panics.
pub fn check_conformance(model: &MinedModel, log: &WorkflowLog) -> ConformanceReport {
    check_conformance_in(&mut MineSession::new(), model, log)
}

/// [`check_conformance`] inside a [`MineSession`]: records the
/// closure/SCC/check timers and the report-level counters into the
/// session's sink (see [`ConformanceMetrics`]), and spans for the
/// closure, SCC and per-execution phases into its tracer (see
/// [`crate::trace`]). With a default session this is the plain twin.
pub fn check_conformance_in<S: MetricsSink<ConformanceMetrics>>(
    session: &mut MineSession<S>,
    model: &MinedModel,
    log: &WorkflowLog,
) -> ConformanceReport {
    let (sink, tracer) = session.handles();
    let _root = tracer.span_cat("check_conformance", "conformance");
    let g = model.graph();
    let follows = FollowsAnalysis::analyze(log);
    let n_log = follows.activity_count();
    let alignment = Alignment::new(model, log);
    let Alignment { map, log_names, .. } = &alignment;

    let mut report = ConformanceReport::default();
    for (i, m) in map.iter().enumerate() {
        if m.is_none() {
            report.unknown_activities.push(log_names[i].clone());
        }
    }

    let closure_span = tracer.span_cat("closure", "conformance");
    let started = S::ENABLED.then(Instant::now);
    let closure = reach::transitive_closure(g);
    if let Some(s) = started {
        let nanos = s.elapsed().as_nanos() as u64;
        sink.record(|m| m.closure_nanos += nanos);
    }
    drop(closure_span);
    let scc_span = tracer.span_cat("scc", "conformance");
    let started = S::ENABLED.then(Instant::now);
    let sccs = scc::tarjan_scc(g);
    if let Some(s) = started {
        let nanos = s.elapsed().as_nanos() as u64;
        sink.record(|m| m.scc_nanos += nanos);
    }
    drop(scc_span);

    let deps_span = tracer.span_cat("dependency_checks", "conformance");
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
                    // A dependency touching an activity the model lacks
                    // can never be a model path.
                    if follows.depends(u, v) {
                        report
                            .missing_dependencies
                            .push((log_names[u].clone(), log_names[v].clone()));
                    }
                }
            }
        }
    }
    drop(deps_span);

    let _exec_span = tracer.span_cat("execution_checks", "conformance");
    replay_log(sink, model, log, &alignment, |exec, violations| {
        if !violations.is_empty() {
            report
                .inconsistent_executions
                .push((exec.id.clone(), violations));
        }
    });

    if S::ENABLED {
        let missing = report.missing_dependencies.len() as u64;
        let spurious = report.spurious_dependencies.len() as u64;
        let unknown = report.unknown_activities.len() as u64;
        sink.record(|m| {
            m.missing_dependencies += missing;
            m.spurious_dependencies += spurious;
            m.unknown_activities += unknown;
        });
    }
    report
}

/// A log's activity table aligned to a model's nodes by name. A model
/// mined from the log shares its table, so the map is the identity and
/// executions are checked without remapping.
struct Alignment<'l> {
    /// Log activity index → model node, `None` for names the model
    /// lacks.
    map: Vec<Option<usize>>,
    /// `map[i] == Some(i)` for every log activity `i`.
    identity: bool,
    log_names: &'l [String],
}

impl<'l> Alignment<'l> {
    fn new(model: &MinedModel, log: &'l WorkflowLog) -> Self {
        let g = model.graph();
        let node_by_name: HashMap<&str, usize> = g
            .nodes()
            .map(|(id, name)| (name.as_str(), id.index()))
            .collect();
        let log_names = log.activities().names();
        let map: Vec<Option<usize>> = log_names
            .iter()
            .map(|name| node_by_name.get(name.as_str()).copied())
            .collect();
        let identity = map.iter().enumerate().all(|(i, &m)| m == Some(i));
        Alignment {
            map,
            identity,
            log_names,
        }
    }
}

/// Definition 6 over every execution of `log`, through one replay
/// context: records each check into `sink` and hands the execution and
/// its violations to `each`, in log order.
fn replay_log<S: MetricsSink<ConformanceMetrics>>(
    sink: &mut S,
    model: &MinedModel,
    log: &WorkflowLog,
    alignment: &Alignment<'_>,
    mut each: impl FnMut(&Execution, Vec<Violation>),
) {
    let mut replay = Replay::new(model);
    for exec in log.executions() {
        let started = S::ENABLED.then(Instant::now);
        let violations = if alignment.identity {
            replay.check(exec)
        } else {
            check_foreign_execution(&mut replay, exec, alignment)
        };
        record_execution_check(sink, &violations, elapsed_nanos(started));
        each(exec, violations);
    }
}

/// Definition 6 for an execution whose activity ids live in a foreign
/// table: remap instances onto model node ids (log activity index →
/// model node), report unmapped activities by their log name, and run
/// the plain check over what remains. The remapped execution is
/// re-sorted, which decides the order of ties and so the activity that
/// counts as initiating.
fn check_foreign_execution(
    replay: &mut Replay<'_>,
    exec: &Execution,
    alignment: &Alignment<'_>,
) -> Vec<Violation> {
    let Alignment { map, log_names, .. } = alignment;
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
    // Infallible: `mapped` is non-empty (checked above) and remapping
    // changes only activity ids, never the validated intervals.
    #[allow(clippy::expect_used)]
    let remapped = Execution::new(exec.id.clone(), mapped)
        .expect("remapping preserves the original execution's validated intervals");
    violations.extend(replay.check(&remapped));
    violations
}

/// Aggregate *fitness* of a log against a model: the fraction of
/// executions that are consistent (Definition 6), with a per-violation
/// breakdown. This is the replay-fitness notion process-mining practice
/// uses to score a purported model against reality — the paper's
/// "evaluation of the workflow system by comparing the synthesized
/// process graphs with purported graphs" application.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fitness {
    /// Total executions checked.
    pub executions: usize,
    /// Executions with no violations.
    pub consistent: usize,
    /// Count of [`Violation::NotConnected`].
    pub not_connected: usize,
    /// Count of wrong initiating/terminating endpoints.
    pub wrong_endpoints: usize,
    /// Count of [`Violation::Unreachable`].
    pub unreachable: usize,
    /// Count of [`Violation::DependencyViolated`].
    pub dependency_violated: usize,
    /// Count of [`Violation::UnknownActivity`].
    pub unknown_activity: usize,
}

impl Fitness {
    /// Fraction of consistent executions (1.0 for an empty log).
    pub fn fraction(&self) -> f64 {
        if self.executions == 0 {
            1.0
        } else {
            self.consistent as f64 / self.executions as f64
        }
    }
}

/// Computes the replay fitness of `log` against `model`. Like
/// [`check_conformance`], it aligns the log's activity table to the
/// model's nodes by name; it skips Definition 7's pair checks.
pub fn fitness(model: &MinedModel, log: &WorkflowLog) -> Fitness {
    let mut f = Fitness {
        executions: log.len(),
        ..Fitness::default()
    };
    let alignment = Alignment::new(model, log);
    replay_log(&mut NullSink, model, log, &alignment, |_, violations| {
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
    });
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine_general_dag, mine_special_dag, MinerOptions};
    use procmine_graph::DiGraph;

    /// Figure 1 of the paper: A→B, A→C, B→E, C→D, C→E, D→E.
    fn figure1() -> (MinedModel, WorkflowLog) {
        // Build a log over A..E so activity ids are 0..5 in this order.
        let log = WorkflowLog::from_strings(["ABCDE"]).unwrap();
        let g = DiGraph::from_edges(
            vec!["A".into(), "B".into(), "C".into(), "D".into(), "E".into()],
            [(0, 1), (0, 2), (1, 4), (2, 3), (2, 4), (3, 4)],
        );
        (MinedModel::from_graph(g), log)
    }

    fn exec_of(log: &WorkflowLog, s: &str) -> Execution {
        let ids: Vec<_> = s
            .chars()
            .map(|c| log.activities().id(&c.to_string()).unwrap())
            .collect();
        Execution::from_ids(s, &ids).unwrap()
    }

    #[test]
    fn paper_example_4_consistent() {
        // ACBE is consistent with Figure 1.
        let (model, log) = figure1();
        let exec = exec_of(&log, "ACBE");
        assert_eq!(check_execution(&model, &exec), vec![]);
    }

    #[test]
    fn paper_example_4_inconsistent() {
        // ADBE is not: D is unreachable from A in the induced subgraph
        // (its only incoming edge comes from the absent C).
        let (model, log) = figure1();
        let exec = exec_of(&log, "ADBE");
        let violations = check_execution(&model, &exec);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::Unreachable { activity } if activity == "D")),
            "got {violations:?}"
        );
    }

    #[test]
    fn dependency_order_violation_detected() {
        let (model, log) = figure1();
        // B before A contradicts A→B.
        let exec = exec_of(&log, "BACDE");
        let violations = check_execution(&model, &exec);
        assert!(violations.iter().any(
            |v| matches!(v, Violation::DependencyViolated { from, to } if from == "A" && to == "B")
        ));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::WrongInitiating { found } if found == "B")));
    }

    #[test]
    fn wrong_terminating_detected() {
        let (model, log) = figure1();
        let exec = exec_of(&log, "ABCD");
        let violations = check_execution(&model, &exec);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::WrongTerminating { found } if found == "D")));
    }

    #[test]
    fn mined_special_models_are_conformal() {
        let log = WorkflowLog::from_strings(["ABCDE", "ACDBE", "ACBDE"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let report = check_conformance(&model, &log);
        assert!(report.is_conformal(), "{report:?}");
    }

    #[test]
    fn mined_general_models_are_conformal() {
        for strings in [
            vec!["ABCF", "ACDF", "ADEF", "AECF"],
            vec!["ADCE", "ABCDE"],
            vec!["ACF", "ADCF", "ABCF", "ADECF"],
            vec!["ABCD", "ACD"],
        ] {
            let log = WorkflowLog::from_strings(strings.clone()).unwrap();
            let model = mine_general_dag(&log, &MinerOptions::default()).unwrap();
            let report = check_conformance(&model, &log);
            assert!(report.is_conformal(), "log {strings:?}: {report:?}");
        }
    }

    #[test]
    fn missing_dependency_reported() {
        // Log forces A→B dependency; an edgeless model misses it.
        let log = WorkflowLog::from_strings(["AB", "AB"]).unwrap();
        let g = DiGraph::from_edges(vec!["A".into(), "B".into()], std::iter::empty());
        let model = MinedModel::from_graph(g);
        let report = check_conformance(&model, &log);
        assert!(report
            .missing_dependencies
            .contains(&("A".to_string(), "B".to_string())));
        assert!(!report.is_conformal());
    }

    #[test]
    fn spurious_dependency_reported() {
        // B and C appear in both orders → independent; a model chaining
        // B→C introduces a spurious dependency.
        let log = WorkflowLog::from_strings(["ABCD", "ACBD"]).unwrap();
        let g = DiGraph::from_edges(
            vec!["A".into(), "B".into(), "C".into(), "D".into()],
            [(0, 1), (1, 2), (2, 3)],
        );
        let model = MinedModel::from_graph(g);
        let report = check_conformance(&model, &log);
        assert!(report
            .spurious_dependencies
            .contains(&("B".to_string(), "C".to_string())));
    }

    #[test]
    fn figure2_second_graph_fails_execution_completeness() {
        // Example 5: log {ADCE, ABCDE}; the second Figure-2 graph chains
        // … C→D …, forbidding ADCE (D before C).
        let log = WorkflowLog::from_strings(["ADCE", "ABCDE"]).unwrap();
        // Activity order in table: A,D,C,E,B → indices A=0,D=1,C=2,E=3,B=4.
        // Second graph of Figure 2: A→B, B→C, A→D? Paper's second graph:
        // A→B→C→D→E with D reachable only after C. Build edges by name.
        let names: Vec<String> = log.activities().names().to_vec();
        let idx = |s: &str| log.activities().id(s).unwrap().index();
        let g = DiGraph::from_edges(
            names,
            [
                (idx("A"), idx("B")),
                (idx("A"), idx("D")),
                (idx("B"), idx("C")),
                (idx("D"), idx("C")),
                (idx("C"), idx("E")),
                (idx("C"), idx("D")),
            ],
        );
        // This graph has both C→D and D→C — a cycle — so instead test
        // the straightforward inconsistent model: A→B→C→D→E chain.
        drop(g);
        let names: Vec<String> = log.activities().names().to_vec();
        let chain = DiGraph::from_edges(
            names,
            [
                (idx("A"), idx("B")),
                (idx("B"), idx("C")),
                (idx("C"), idx("D")),
                (idx("D"), idx("E")),
            ],
        );
        let model = MinedModel::from_graph(chain);
        let report = check_conformance(&model, &log);
        assert!(!report.is_conformal());
        assert!(!report.inconsistent_executions.is_empty());
    }

    #[test]
    fn fitness_counts_violation_kinds() {
        let (model, log) = figure1();
        let mut mixed = WorkflowLog::with_activities(log.activities().clone());
        mixed.push(exec_of(&log, "ACBE")); // consistent
        mixed.push(exec_of(&log, "ABCDE")); // consistent (full)
        mixed.push(exec_of(&log, "ADBE")); // D unreachable
        mixed.push(exec_of(&log, "BACDE")); // wrong start + dependency

        let f = fitness(&model, &mixed);
        assert_eq!(f.executions, 4);
        assert_eq!(f.consistent, 2);
        assert_eq!(f.fraction(), 0.5);
        // ADBE: D unreachable from A. BACDE: reachability is taken from
        // the observed first activity B, so A, C, D all count.
        assert_eq!(f.unreachable, 4);
        assert!(f.wrong_endpoints >= 1);
        assert!(f.dependency_violated >= 1);
    }

    #[test]
    fn fitness_of_empty_log_is_one() {
        let (model, _) = figure1();
        let empty = WorkflowLog::new();
        // An empty log over a different table: check_execution is never
        // called, so the table mismatch is irrelevant.
        let f = fitness(&model, &empty);
        assert_eq!(f.fraction(), 1.0);
    }

    #[test]
    fn not_connected_detected() {
        // B and D share no edge in Figure 1: the induced subgraph over
        // {B, D} has two components.
        let (model, log) = figure1();
        let exec = exec_of(&log, "BD");
        let violations = check_execution(&model, &exec);
        assert!(
            violations.contains(&Violation::NotConnected),
            "{violations:?}"
        );
    }

    #[test]
    fn unknown_activity_id_reported_not_panicked() {
        // The execution's table has an F (id 5) the 5-node model lacks.
        let (model, _) = figure1();
        let log = WorkflowLog::from_strings(["ABCDEF"]).unwrap();
        let exec = exec_of(&log, "ABCDEF");
        let violations = check_execution(&model, &exec);
        assert_eq!(
            violations,
            vec![Violation::UnknownActivity {
                activity: "#5".to_string()
            }],
            "the known prefix ABCDE is consistent; only F is foreign"
        );
    }

    #[test]
    fn execution_of_only_unknown_activities_is_inconsistent_not_fatal() {
        let log = WorkflowLog::from_strings(["AB"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let foreign = WorkflowLog::from_strings(["XY"]).unwrap();
        let report = check_conformance(&model, &foreign);
        assert_eq!(
            report.unknown_activities,
            vec!["X".to_string(), "Y".to_string()]
        );
        assert_eq!(report.inconsistent_executions.len(), 1);
        assert!(!report.is_conformal());
    }

    #[test]
    fn foreign_table_does_not_panic_check_conformance() {
        // Log mentions an X the model has never heard of, alongside
        // known activities.
        let (model, _) = figure1();
        let foreign = WorkflowLog::from_strings(["AXB", "AXB"]).unwrap();
        let report = check_conformance(&model, &foreign);
        assert!(report.unknown_activities.contains(&"X".to_string()));
        assert!(!report.is_conformal());
        // The dependency A→X can never be a path in a model without X.
        assert!(report
            .missing_dependencies
            .contains(&("A".to_string(), "X".to_string())));
        // Every execution contains the unknown X.
        assert_eq!(report.inconsistent_executions.len(), 2);
        for (_, violations) in &report.inconsistent_executions {
            assert!(violations
                .iter()
                .any(|v| matches!(v, Violation::UnknownActivity { activity } if activity == "X")));
        }
    }

    #[test]
    fn smaller_foreign_table_checks_known_subset() {
        // n_log < n: the old assert would have aborted here.
        let (model, _) = figure1();
        let small = WorkflowLog::from_strings(["AB"]).unwrap();
        let report = check_conformance(&model, &small);
        assert!(report.unknown_activities.is_empty());
        // AB stops at B, not the model's terminating E.
        assert!(report.inconsistent_executions.iter().any(|(_, vs)| vs
            .iter()
            .any(|v| matches!(v, Violation::WrongTerminating { found } if found == "B"))));
    }

    #[test]
    fn foreign_table_aligned_by_name() {
        // Same activities, same executions, but the foreign log's table
        // interns B before A. Alignment by name keeps the model
        // conformal; the old code asserted or checked garbage ids.
        let log = WorkflowLog::from_strings(["AB", "AB"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let table = procmine_log::ActivityTable::from_names(["B", "A"]);
        let mut foreign = WorkflowLog::with_activities(table);
        let a = foreign.activities().id("A").unwrap();
        let b = foreign.activities().id("B").unwrap();
        foreign.push(Execution::from_ids("x1", &[a, b]).unwrap());
        foreign.push(Execution::from_ids("x2", &[a, b]).unwrap());
        let report = check_conformance(&model, &foreign);
        assert!(report.is_conformal(), "{report:?}");
    }

    #[test]
    fn fitness_aligns_foreign_table_by_name() {
        // The setup of `foreign_table_aligned_by_name`: fitness must
        // agree with check_conformance that both executions replay.
        let log = WorkflowLog::from_strings(["AB", "AB"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let table = procmine_log::ActivityTable::from_names(["B", "A"]);
        let mut foreign = WorkflowLog::with_activities(table);
        let a = foreign.activities().id("A").unwrap();
        let b = foreign.activities().id("B").unwrap();
        foreign.push(Execution::from_ids("x1", &[a, b]).unwrap());
        foreign.push(Execution::from_ids("x2", &[a, b]).unwrap());
        assert!(check_conformance(&model, &foreign).is_conformal());
        assert_eq!(
            fitness(&model, &foreign),
            Fitness {
                executions: 2,
                consistent: 2,
                ..Fitness::default()
            }
        );
    }

    #[test]
    fn session_conformance_matches_plain() {
        use crate::telemetry::ConformanceMetrics;
        let (model, log) = figure1();
        let mut mixed = WorkflowLog::with_activities(log.activities().clone());
        mixed.push(exec_of(&log, "ACBE")); // consistent
        mixed.push(exec_of(&log, "ADBE")); // D unreachable
        mixed.push(exec_of(&log, "BACDE")); // wrong start + dependency

        let plain = check_conformance(&model, &mixed);
        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let instrumented = check_conformance_in(&mut session, &model, &mixed);
        drop(session);
        assert_eq!(plain, instrumented);

        assert_eq!(metrics.executions_checked, 3);
        assert_eq!(metrics.consistent_executions, 1);
        assert!(metrics.violations_unreachable >= 1);
        assert!(metrics.violations_wrong_initiating >= 1);
        assert!(metrics.violations_dependency >= 1);
        assert_eq!(
            metrics.missing_dependencies,
            plain.missing_dependencies.len() as u64
        );
        assert_eq!(
            metrics.spurious_dependencies,
            plain.spurious_dependencies.len() as u64
        );
        assert_eq!(metrics.unknown_activities, 0);
    }

    #[test]
    fn session_conformance_counts_unknowns_on_foreign_log() {
        use crate::telemetry::ConformanceMetrics;
        let (model, _) = figure1();
        let foreign = WorkflowLog::from_strings(["AXB"]).unwrap();
        let plain = check_conformance(&model, &foreign);
        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        let instrumented = check_conformance_in(&mut session, &model, &foreign);
        drop(session);
        assert_eq!(plain, instrumented);
        assert_eq!(metrics.unknown_activities, 1);
        assert_eq!(metrics.violations_unknown_activity, 1);
        assert_eq!(metrics.executions_checked, 1);
    }

    #[test]
    fn session_execution_check_matches_plain() {
        use crate::telemetry::ConformanceMetrics;
        let (model, log) = figure1();
        let exec = exec_of(&log, "ADBE");
        let mut metrics = ConformanceMetrics::new();
        let mut session = MineSession::new().with_sink(&mut metrics);
        assert_eq!(
            check_execution(&model, &exec),
            check_execution_in(&mut session, &model, &exec)
        );
        drop(session);
        assert_eq!(metrics.executions_checked, 1);
        assert_eq!(metrics.consistent_executions, 0);
        assert!(metrics.violations_unreachable >= 1);
    }

    #[test]
    fn fitness_counts_unknown_activities() {
        let (model, _) = figure1();
        let log = WorkflowLog::from_strings(["ABCDEF"]).unwrap();
        let f = fitness(&model, &log);
        assert_eq!(f.unknown_activity, 1);
        assert_eq!(f.consistent, 0);
    }

    #[test]
    fn report_json_is_well_formed_and_complete() {
        let (model, _) = figure1();
        let foreign = WorkflowLog::from_strings(["AXB", "AXB"]).unwrap();
        let report = check_conformance(&model, &foreign);
        let json = report.to_json();
        // Well-formed per the vendored parser, with the expected fields.
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        for expected in [
            "conformal",
            "missing_dependencies",
            "spurious_dependencies",
            "unknown_activities",
            "inconsistent_executions",
        ] {
            assert!(value.get(expected).is_some(), "missing key {expected}");
        }
        assert!(json.contains("\"conformal\":false"));
        assert!(json.contains("\"unknown_activity\""));
        assert!(json.contains("\"X\""));

        // A conformal report renders too.
        let log = WorkflowLog::from_strings(["ABCDE"]).unwrap();
        let model = mine_special_dag(&log, &MinerOptions::default()).unwrap();
        let clean = check_conformance(&model, &log).to_json();
        let _: serde_json::Value = serde_json::from_str(&clean).expect("valid JSON");
        assert!(clean.contains("\"conformal\":true"));
    }

    #[test]
    fn report_json_escapes_activity_names() {
        let report = ConformanceReport {
            unknown_activities: vec!["a\"b".to_string()],
            ..ConformanceReport::default()
        };
        let json = report.to_json();
        assert!(json.contains("a\\\"b"));
        let _: serde_json::Value =
            serde_json::from_str(&json).expect("valid JSON despite quotes in names");
    }

    #[test]
    fn cyclic_model_pairs_in_scc_not_flagged() {
        use crate::mine_cyclic;
        let log = WorkflowLog::from_strings(["ABDCE", "ABDCBCE", "ABCBDCE", "ADE"]).unwrap();
        let model = mine_cyclic(&log, &MinerOptions::default()).unwrap();
        let report = check_conformance(&model, &log);
        // B and C cycle: they are independent by Definition 4 but the
        // mutual paths must not be flagged as spurious.
        assert!(!report
            .spurious_dependencies
            .iter()
            .any(|(a, b)| (a == "B" && b == "C") || (a == "C" && b == "B")));
    }
}
