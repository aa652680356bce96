//! Telemetry for conditions mining, on the same
//! [`MetricsSink`] machinery as the miner and conformance layers: the
//! session-based entry points are generic over
//! `S: MetricsSink<ClassifyMetrics>`, and with
//! [`NullSink`](procmine_core::NullSink) every guard is `if false` and
//! the instrumentation compiles to nothing.

use procmine_core::MetricsSink;
use std::fmt;

/// Counters and timers collected by one conditions-mining run (see
/// [`learn_edge_conditions_in`]): edges visited, training rows
/// extracted, candidate splits evaluated while growing trees, the
/// deepest tree fitted, and total learn time. Fields accumulate.
///
/// [`learn_edge_conditions_in`]: crate::learn_edge_conditions_in
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassifyMetrics {
    /// Model edges a condition was learned (or counted) for.
    pub edges_considered: u64,
    /// Edges with no recorded outputs, falling back to co-occurrence
    /// support.
    pub edges_without_outputs: u64,
    /// Training rows extracted across all edge datasets.
    pub rows_extracted: u64,
    /// Candidate `(feature, threshold)` splits whose Gini gain was
    /// evaluated during tree growth.
    pub splits_evaluated: u64,
    /// Decision trees fitted.
    pub trees_fitted: u64,
    /// Depth of the deepest fitted tree.
    pub max_tree_depth: u64,
    /// Nanoseconds spent learning end to end.
    pub learn_nanos: u64,
}

impl ClassifyMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ClassifyMetrics::default()
    }

    /// The counters as `(name, value)` pairs in the stable reporting
    /// order used by [`to_json`](Self::to_json).
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("edges_considered", self.edges_considered),
            ("edges_without_outputs", self.edges_without_outputs),
            ("rows_extracted", self.rows_extracted),
            ("splits_evaluated", self.splits_evaluated),
            ("trees_fitted", self.trees_fitted),
            ("max_tree_depth", self.max_tree_depth),
        ]
    }

    /// The timers as `(name, nanos)` pairs in reporting order.
    pub fn timers(&self) -> [(&'static str, u64); 1] {
        [("learn", self.learn_nanos)]
    }

    /// Writes the JSON fields `"counters":{…},"timers_ns":{…}` (no
    /// surrounding braces) so callers can splice sibling fields.
    pub fn write_json_fields(&self, out: &mut String) {
        write_json_object(out, "counters", &self.counters());
        out.push(',');
        write_json_object(out, "timers_ns", &self.timers());
    }

    /// Machine-readable JSON report with a stable key order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        self.write_json_fields(&mut out);
        out.push('}');
        out
    }

    /// Human-readable two-column table of timers and counters.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("classify timer                time\n");
        for (name, nanos) in self.timers() {
            out.push_str(&format!("  {name:<26}  {}\n", format_nanos(nanos)));
        }
        out.push_str("classify counter              value\n");
        for (name, value) in self.counters() {
            out.push_str(&format!("  {name:<26}  {value}\n"));
        }
        out
    }
}

impl fmt::Display for ClassifyMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

impl MetricsSink<ClassifyMetrics> for ClassifyMetrics {
    const ENABLED: bool = true;

    fn record(&mut self, update: impl FnOnce(&mut ClassifyMetrics)) {
        update(self);
    }
}

fn write_json_object(out: &mut String, name: &str, pairs: &[(&'static str, u64)]) {
    out.push('"');
    out.push_str(name);
    out.push_str("\":{");
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(key);
        out.push_str("\":");
        out.push_str(&value.to_string());
    }
    out.push('}');
}

fn format_nanos(nanos: u64) -> String {
    let ns = nanos as f64;
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_core::NullSink;

    fn sample() -> ClassifyMetrics {
        ClassifyMetrics {
            edges_considered: 1,
            edges_without_outputs: 2,
            rows_extracted: 3,
            splits_evaluated: 4,
            trees_fitted: 5,
            max_tree_depth: 6,
            learn_nanos: 7,
        }
    }

    #[test]
    fn json_schema_is_locked() {
        assert_eq!(
            sample().to_json(),
            concat!(
                "{\"counters\":{\"edges_considered\":1,\"edges_without_outputs\":2,",
                "\"rows_extracted\":3,\"splits_evaluated\":4,\"trees_fitted\":5,",
                "\"max_tree_depth\":6},\"timers_ns\":{\"learn\":7}}"
            )
        );
    }

    #[test]
    fn table_lists_all_keys() {
        let table = sample().render_table();
        for (name, _) in sample().counters() {
            assert!(table.contains(name), "missing counter {name}");
        }
        assert!(table.contains("learn"));
    }

    #[test]
    fn null_sink_is_disabled_for_classify_metrics() {
        const _: () = assert!(!<NullSink as MetricsSink<ClassifyMetrics>>::ENABLED);
        const _: () = assert!(<ClassifyMetrics as MetricsSink<ClassifyMetrics>>::ENABLED);
        let mut sink = NullSink;
        MetricsSink::<ClassifyMetrics>::record(&mut sink, |m: &mut ClassifyMetrics| {
            m.trees_fitted += 1
        });
    }
}
