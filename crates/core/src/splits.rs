//! Split/join semantics: classifying branch and merge points of a mined
//! graph as parallel (AND) or exclusive (XOR).
//!
//! The paper's process model routes control with per-edge Boolean
//! conditions: an activity with several outgoing edges may activate all
//! of them (a parallel split), exactly one (an exclusive choice), or
//! something in between. The mined graph alone does not say which; the
//! log does. For a split activity `u` with successors `S`, the
//! co-occurrence statistics of `S` within executions containing `u`
//! discriminate the cases:
//!
//! * every pair of successors co-occurs whenever `u` runs → **AND**;
//! * no two successors ever co-occur → **XOR**;
//! * otherwise → **OR** (inclusive / mixed).
//!
//! This classification complements §7 conditions mining (an XOR split's
//! learned conditions partition the output space; an AND split's are
//! all constantly true) and is required to *execute* a mined model.
//!
//! Only an execution's activity *set* matters here, so one pass over the
//! log reduces it to its distinct sets — bit rows over the model's
//! nodes — each with the number of executions that have it. Every
//! gateway is then classified from those rows alone: a center-bit test
//! and a popcount of `row ∧ branches` per distinct set, with `support`
//! weighted by the set's execution count.

use crate::MinedModel;
use procmine_graph::{words, NodeId};
use procmine_log::LogView;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The behavioural class of a split or join point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GatewayKind {
    /// All branches activate together.
    And,
    /// Exactly one branch activates.
    Xor,
    /// Some subsets of branches activate (inclusive or data-dependent
    /// mix).
    Or,
}

impl std::fmt::Display for GatewayKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GatewayKind::And => "AND",
            GatewayKind::Xor => "XOR",
            GatewayKind::Or => "OR",
        })
    }
}

/// Classification of one branch point.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Gateway {
    /// The activity at the branch/merge point.
    pub activity: String,
    /// The branch targets (split) or sources (join).
    pub branches: Vec<String>,
    /// The inferred kind.
    pub kind: GatewayKind,
    /// Executions containing the gateway activity.
    pub support: usize,
}

/// The split/join analysis of a mined model against its log.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GatewayAnalysis {
    /// One entry per activity with out-degree ≥ 2.
    pub splits: Vec<Gateway>,
    /// One entry per activity with in-degree ≥ 2.
    pub joins: Vec<Gateway>,
}

impl GatewayAnalysis {
    /// Looks up the split at an activity, if it has one.
    pub fn split_at(&self, activity: &str) -> Option<&Gateway> {
        self.splits.iter().find(|g| g.activity == activity)
    }

    /// Looks up the join at an activity, if it has one.
    pub fn join_at(&self, activity: &str) -> Option<&Gateway> {
        self.joins.iter().find(|g| g.activity == activity)
    }
}

/// Classifies every split and join of `model` from the co-occurrence
/// statistics of `log`, a [`WorkflowLog`](procmine_log::WorkflowLog) or
/// a [`CompactLog`](procmine_log::CompactLog). The model's node indices
/// must align with the log's activity table (true for models mined from
/// that log).
pub fn analyze_gateways<'a>(model: &MinedModel, log: impl Into<LogView<'a>>) -> GatewayAnalysis {
    let g = model.graph();
    let sets = ActivitySets::of(log.into(), g.node_count());
    let mut analysis = GatewayAnalysis::default();

    for v in g.node_ids() {
        let succs = g.successors(v);
        if succs.len() >= 2 {
            let (kind, support) = sets.classify(v, succs);
            analysis.splits.push(Gateway {
                activity: g.node(v).clone(),
                branches: succs.iter().map(|&s| g.node(s).clone()).collect(),
                kind,
                support,
            });
        }
        let preds = g.predecessors(v);
        if preds.len() >= 2 {
            let (kind, support) = sets.classify(v, preds);
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

/// A log's distinct activity sets as bit rows over a model's nodes, each
/// with the number of executions that have it. Activity ids the model
/// has no node for are left out: they can be neither a gateway's center
/// nor one of its branches.
struct ActivitySets {
    /// Words per row.
    width: usize,
    /// The distinct rows and their execution counts. Their order cannot
    /// change a classification: support is a sum and the two flags are
    /// conjunctions.
    rows: Vec<(Box<[u64]>, usize)>,
}

impl ActivitySets {
    fn of(log: LogView<'_>, n: usize) -> Self {
        let width = n.div_ceil(u64::BITS as usize);
        let mut counts: HashMap<Box<[u64]>, usize> = HashMap::new();
        let mut row = vec![0u64; width];
        for x in 0..log.len() {
            row.fill(0);
            for a in log.exec_activities(x) {
                let a = a as usize;
                if a < n {
                    words::insert(&mut row, a);
                }
            }
            if let Some(count) = counts.get_mut(row.as_slice()) {
                *count += 1;
            } else {
                counts.insert(row.as_slice().into(), 1);
            }
        }
        ActivitySets {
            width,
            rows: counts.into_iter().collect(),
        }
    }

    /// Classifies the branches adjacent to `center` by their
    /// co-occurrence pattern across executions containing `center`.
    fn classify(&self, center: NodeId, branches: &[NodeId]) -> (GatewayKind, usize) {
        let mut mask = vec![0u64; self.width];
        for b in branches {
            words::insert(&mut mask, b.index());
        }

        let mut support = 0usize;
        let mut always_all = true;
        let mut never_two = true;
        for (row, count) in &self.rows {
            if !words::contains(row, center.index()) {
                continue;
            }
            support += count;
            let present: usize = row
                .iter()
                .zip(&mask)
                .map(|(r, m)| (r & m).count_ones() as usize)
                .sum();
            if present < branches.len() {
                always_all = false;
            }
            if present >= 2 {
                never_two = false;
            }
        }

        let kind = if support == 0 {
            // No evidence at all: report OR (the weakest claim).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mine_general_dag, MinerOptions};
    use procmine_log::WorkflowLog;

    fn mine(strings: &[&str]) -> (MinedModel, WorkflowLog) {
        let log = WorkflowLog::from_strings(strings.iter().copied()).unwrap();
        let model = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        (model, log)
    }

    #[test]
    fn and_split_and_join() {
        // B and C always run together, in either order.
        let (model, log) = mine(&["ABCD", "ACBD", "ABCD"]);
        let analysis = analyze_gateways(&model, &log);
        let split = analysis.split_at("A").expect("A splits");
        assert_eq!(split.kind, GatewayKind::And);
        assert_eq!(split.support, 3);
        let join = analysis.join_at("D").expect("D joins");
        assert_eq!(join.kind, GatewayKind::And);
        let mut branches = split.branches.clone();
        branches.sort();
        assert_eq!(branches, vec!["B", "C"]);
    }

    #[test]
    fn xor_split_and_join() {
        // Exactly one of B, C per execution.
        let (model, log) = mine(&["ABD", "ACD", "ABD", "ACD"]);
        let analysis = analyze_gateways(&model, &log);
        assert_eq!(analysis.split_at("A").unwrap().kind, GatewayKind::Xor);
        assert_eq!(analysis.join_at("D").unwrap().kind, GatewayKind::Xor);
    }

    #[test]
    fn or_split_mixed_behaviour() {
        // Sometimes both B and C, sometimes only B.
        let (model, log) = mine(&["ABCD", "ACBD", "ABD"]);
        let analysis = analyze_gateways(&model, &log);
        assert_eq!(analysis.split_at("A").unwrap().kind, GatewayKind::Or);
    }

    #[test]
    fn chains_have_no_gateways() {
        let (model, log) = mine(&["ABC", "ABC"]);
        let analysis = analyze_gateways(&model, &log);
        assert!(analysis.splits.is_empty());
        assert!(analysis.joins.is_empty());
    }

    #[test]
    fn order_fulfillment_gateways() {
        use procmine_sim::{engine, presets};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let process = presets::order_fulfillment();
        let mut rng = StdRng::seed_from_u64(3);
        let log = engine::generate_log(&process, 300, &mut rng).unwrap();
        let model = mine_general_dag(&log, &MinerOptions::default()).unwrap();
        let analysis = analyze_gateways(&model, &log);

        // Assess chooses between ManagerApproval/AutoApprove (XOR) and
        // independently adds FraudCheck — overall an OR split.
        let split = analysis.split_at("Assess").expect("Assess splits");
        assert_eq!(split.kind, GatewayKind::Or);
        // Ship joins the three paths; one or two of them arrive → OR.
        let join = analysis.join_at("Ship").expect("Ship joins");
        assert_eq!(join.kind, GatewayKind::Or);
    }

    #[test]
    fn display_names() {
        assert_eq!(GatewayKind::And.to_string(), "AND");
        assert_eq!(GatewayKind::Xor.to_string(), "XOR");
        assert_eq!(GatewayKind::Or.to_string(), "OR");
    }
}
