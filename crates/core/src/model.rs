//! The mined process model: a directed graph over named activities.

use procmine_graph::dot::{self, DotOptions};
use procmine_graph::{AdjMatrix, DiGraph, NodeId};
use procmine_log::{ActivityId, ActivityTable};
use serde::{Deserialize, Serialize};

/// The result of mining: a directed graph whose node `i` is the activity
/// with [`ActivityId`] index `i` in the log's activity table. Node
/// payloads are the activity names, so the model is self-describing and
/// can be rendered or serialized without the originating log.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinedModel {
    graph: DiGraph<String>,
    /// Per-edge observation counts from step 2 of the algorithm (how
    /// many executions ordered the pair that way), for surviving edges.
    /// Used by the noise analysis and for reporting edge confidence.
    edge_support: Vec<(usize, usize, u32)>,
}

impl MinedModel {
    pub(crate) fn new(graph: DiGraph<String>, edge_support: Vec<(usize, usize, u32)>) -> Self {
        MinedModel {
            graph,
            edge_support,
        }
    }

    /// Builds a model directly from a graph whose node ids align with
    /// `table` (used by the simulator to wrap ground-truth graphs and by
    /// tests).
    pub fn from_graph(graph: DiGraph<String>) -> Self {
        MinedModel {
            graph,
            edge_support: Vec::new(),
        }
    }

    /// The mined graph. Node `i` is activity `i` of the originating
    /// log's activity table; payloads are activity names.
    pub fn graph(&self) -> &DiGraph<String> {
        &self.graph
    }

    /// Number of activities.
    pub fn activity_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// The node id of the activity named `name`, if present.
    pub fn node_of(&self, name: &str) -> Option<NodeId> {
        self.graph
            .nodes()
            .find(|(_, n)| n.as_str() == name)
            .map(|(id, _)| id)
    }

    /// The name of node `id`.
    pub fn name_of(&self, id: NodeId) -> &str {
        self.graph.node(id)
    }

    /// Edge test by activity name. `false` if either name is unknown.
    pub fn has_edge(&self, from: &str, to: &str) -> bool {
        match (self.node_of(from), self.node_of(to)) {
            (Some(u), Some(v)) => self.graph.has_edge(u, v),
            _ => false,
        }
    }

    /// All edges as name pairs, in lexicographic node-id order.
    pub fn edges_named(&self) -> Vec<(&str, &str)> {
        self.graph
            .edges()
            .map(|(u, v)| (self.graph.node(u).as_str(), self.graph.node(v).as_str()))
            .collect()
    }

    /// How many executions supported each surviving edge (the step-2
    /// counters of the §6 noise treatment). Empty for models not built
    /// by the miners.
    pub fn edge_support(&self) -> &[(usize, usize, u32)] {
        &self.edge_support
    }

    /// Renders the model as Graphviz DOT (left-to-right, ellipse nodes,
    /// like the paper's figures).
    pub fn to_dot(&self, name: &str) -> String {
        let opts = DotOptions {
            name: name.to_string(),
            ..DotOptions::default()
        };
        dot::to_dot(&self.graph, &opts)
    }

    /// Renders the model as DOT with each edge labelled by its
    /// observation support (how many executions ordered the pair that
    /// way) and its pen width scaled by relative support — a quick
    /// visual of the dominant routes.
    pub fn to_dot_with_support(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let max = self
            .edge_support
            .iter()
            .map(|&(_, _, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        let support: std::collections::HashMap<(usize, usize), u32> = self
            .edge_support
            .iter()
            .map(|&(u, v, c)| ((u, v), c))
            .collect();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "digraph {} {{",
            name.replace(|c: char| !c.is_ascii_alphanumeric() && c != '_', "_")
        );
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [shape=ellipse];");
        for (id, label) in self.graph.nodes() {
            let _ = writeln!(
                out,
                "  n{} [label=\"{}\"];",
                id.index(),
                label.replace('"', "\\\"")
            );
        }
        for (u, v) in self.graph.edges() {
            let c = support.get(&(u.index(), v.index())).copied().unwrap_or(0);
            let width = 1.0 + 3.0 * (c as f64 / max as f64);
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}\", penwidth={:.2}];",
                u.index(),
                v.index(),
                c,
                width
            );
        }
        out.push_str("}\n");
        out
    }

    /// Converts an [`ActivityId`] from the originating log into this
    /// model's [`NodeId`] (they share the same dense index space).
    pub fn node_of_activity(&self, a: ActivityId) -> NodeId {
        NodeId::new(a.index())
    }
}

/// Builds the node-per-activity graph skeleton for a mining run: node
/// `i` carries the name of activity `i`.
pub(crate) fn graph_skeleton(table: &ActivityTable) -> DiGraph<String> {
    let mut g = DiGraph::with_capacity(table.len());
    for (_, name) in table.iter() {
        g.add_node(name.to_string());
    }
    g
}

/// The [`Stage::Assemble`](crate::Stage::Assemble) body of the acyclic
/// miners: the node-per-activity skeleton plus every edge of the final
/// `graph`, each with its step-2 support from the row-major `n × n`
/// `counts`.
pub(crate) fn assemble(table: &ActivityTable, graph: &AdjMatrix, counts: &[u32]) -> MinedModel {
    let n = table.len();
    let mut model = graph_skeleton(table);
    let mut support = Vec::with_capacity(graph.edge_count());
    for (u, v) in graph.edges() {
        model.add_edge(NodeId::new(u), NodeId::new(v));
        support.push((u, v, counts[u * n + v]));
    }
    MinedModel::new(model, support)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MinedModel {
        let g = DiGraph::from_edges(
            vec!["A".to_string(), "B".to_string(), "C".to_string()],
            [(0, 1), (1, 2)],
        );
        MinedModel::from_graph(g)
    }

    #[test]
    fn name_lookups() {
        let m = sample();
        assert!(m.has_edge("A", "B"));
        assert!(!m.has_edge("B", "A"));
        assert!(!m.has_edge("A", "Z"));
        assert_eq!(m.node_of("C"), Some(NodeId::new(2)));
        assert_eq!(m.node_of("Z"), None);
        assert_eq!(m.name_of(NodeId::new(0)), "A");
        assert_eq!(m.edges_named(), vec![("A", "B"), ("B", "C")]);
    }

    #[test]
    fn dot_contains_names() {
        let m = sample();
        let dot = m.to_dot("test");
        assert!(dot.contains("label=\"A\""));
        assert!(dot.contains("n0 -> n1;"));
    }

    #[test]
    fn dot_with_support_labels_edges() {
        let g = DiGraph::from_edges(
            vec!["A".to_string(), "B".to_string(), "C".to_string()],
            [(0, 1), (1, 2)],
        );
        let m = MinedModel::new(g, vec![(0, 1, 40), (1, 2, 10)]);
        let dot = m.to_dot_with_support("supported model");
        assert!(dot.starts_with("digraph supported_model {"));
        assert!(dot.contains("label=\"40\", penwidth=4.00"));
        assert!(dot.contains("label=\"10\", penwidth=1.75"));
    }

    #[test]
    fn dot_with_support_handles_missing_support() {
        // from_graph has no support data — every edge labels 0 with
        // base width.
        let m = sample();
        let dot = m.to_dot_with_support("x");
        assert!(dot.contains("label=\"0\", penwidth=1.00"));
    }

    #[test]
    fn skeleton_matches_table() {
        let t = ActivityTable::from_names(["X", "Y"]);
        let g = graph_skeleton(&t);
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.node(NodeId::new(1)), "Y");
        assert_eq!(g.edge_count(), 0);
    }
}
