//! The metrics the harness reports: names, units, and the result line.
//!
//! The lists here are the benchmark's contract with `BENCHMARK.json`
//! (a test keeps the two identical). Untraced runs report
//! [`END_TO_END`]; traced runs report [`PER_LAYER`]. Every time metric
//! in either list is measured on every workload, so none reads a
//! constant zero; layers that only some workloads run are reported as
//! their share of the end-to-end wall time instead.

/// One metric: its name and unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of `procmine` sees, per workload.
pub const END_TO_END: &[Def] = &[
    // Generating and writing the inputs plus the reference result
    // (median of several set-ups in one run).
    def("setup_s", "s"),
    // Input START/END records ÷ median wall time of one invocation.
    def("events_per_s", "events/s"),
    // Median over invocations of the kernel's peak resident set.
    def("peak_rss_mb", "MiB"),
];

/// Single layers, from the traced in-process run.
pub const PER_LAYER: &[Def] = &[
    // Layer times present on every workload.
    def("codec.decode_s", "s"),
    def("miner.total_s", "s"),
    def("miner.count_pairs_s", "s"),
    def("miner.reduce_s", "s"),
    def("miner.other_s", "s"),
    def("cli.residual_s", "s"),
    def("codec.mb_per_s", "MB/s"),
    // Shares of the untraced end-to-end wall time; with the residual
    // they add up to one.
    def("codec.share", "share"),
    def("assembler.share", "share"),
    def("miner.share", "share"),
    def("report.routes_share", "share"),
    def("report.gateways_share", "share"),
    def("conformance.share", "share"),
    def("checkpoint.share", "share"),
    def("teardown.share", "share"),
    def("cli.residual_share", "share"),
    def("trace.overhead_share", "share"),
    // Work and state.
    def("codec.events", "count"),
    def("codec.errors", "count"),
    def("log.heap_mb", "MiB"),
    def("online.heap_mb", "MiB"),
    def("pipeline.peak_heap_mb", "MiB"),
    def("assembler.open_cases_max", "count"),
    def("assembler.cases_evicted", "count"),
    def("online.executions", "count"),
    def("snapshot.count", "count"),
    def("snapshot.rescan_ratio", "ratio"),
    def("checkpoint.saves", "count"),
    def("checkpoint.bytes", "bytes"),
    def("miner.pairs_counted", "count"),
    def("miner.edges_final", "count"),
    def("miner.arena_bytes", "bytes"),
    def("conformance.executions", "count"),
    def("conformance.violations", "count"),
];

/// Values for one list of metrics; [`Values::finish`] insists on every
/// metric of the list and nothing else.
pub struct Values {
    defs: &'static [Def],
    values: Vec<Option<f64>>,
}

impl Values {
    pub fn new(defs: &'static [Def]) -> Values {
        Values {
            defs,
            values: vec![None; defs.len()],
        }
    }

    /// Records `name`. Panics on a name outside the list: that is a bug
    /// in the harness, not in the program measured.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the list"));
        self.values[i] = Some(value);
    }

    /// The values in list order, or the first metric missing or not
    /// finite.
    pub fn finish(self) -> Result<Vec<(Def, f64)>, String> {
        self.defs
            .iter()
            .zip(self.values)
            .map(|(d, v)| match v {
                Some(v) if v.is_finite() => Ok((*d, v)),
                Some(v) => Err(format!("metric `{}` is {v}", d.name)),
                None => Err(format!("metric `{}` was not measured", d.name)),
            })
            .collect()
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name":{"value":v,"unit":"u"},…}` with every digit of each value.
pub fn json_metrics(metrics: &[(Def, f64)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(d, v)| {
            format!(
                "{}:{{\"value\":{v:?},\"unit\":{}}}",
                json_str(d.name),
                json_str(d.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The harness's last line of output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[(Def, f64)]) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        json_metrics(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let all: Vec<&Def> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(valid_name(d.name), "bad metric name `{}`", d.name);
            assert!(
                d.unit.len() <= 16
                    && d.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric()
                            || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "bad unit `{}`",
                d.unit
            );
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric names");
        for w in crate::workload::Workload::ALL {
            assert!(valid_name(w.name()));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            match doc.get(key) {
                Some(serde_json::Value::Seq(items)) => items
                    .iter()
                    .map(|m| {
                        let field = |f: &str| match m.get(f) {
                            Some(serde_json::Value::Str(s)) => s.clone(),
                            other => panic!("{key} entry without `{f}`: {other:?}"),
                        };
                        (field("name"), field("unit"))
                    })
                    .collect(),
                other => panic!("BENCHMARK.json `{key}` is {other:?}"),
            }
        };
        let ours = |defs: &[Def]| -> Vec<(String, String)> {
            defs.iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = match doc.get("workloads") {
            Some(serde_json::Value::Seq(items)) => items
                .iter()
                .map(|w| match w.get("name") {
                    Some(serde_json::Value::Str(s)) => s.clone(),
                    other => panic!("workload without a name: {other:?}"),
                })
                .collect(),
            other => panic!("BENCHMARK.json `workloads` is {other:?}"),
        };
        let names: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn values_must_cover_the_list() {
        let mut v = Values::new(END_TO_END);
        v.set("setup_s", 1.5);
        v.set("events_per_s", 2e6);
        assert!(v.finish().unwrap_err().contains("peak_rss_mb"));
        let mut v = Values::new(END_TO_END);
        for d in END_TO_END {
            v.set(d.name, 0.125);
        }
        let line = result_line(true, 3, 0, &v.finish().unwrap());
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        assert!(line.contains("\"setup_s\":{\"value\":0.125,\"unit\":\"s\"}"));
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(|a| a.as_u64()), Some(3));
    }

    #[test]
    #[should_panic(expected = "not in the list")]
    fn unknown_metric_is_a_bug() {
        Values::new(PER_LAYER).set("setup_s", 1.0);
    }
}
