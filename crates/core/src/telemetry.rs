//! Pipeline telemetry: monotonic stage timers and counters for the
//! miners and the conformance checker, behind a sink trait that is
//! zero-cost when disabled.
//!
//! Every miner has a `*_in` form running inside a
//! [`MineSession`](crate::MineSession), whose [`MetricsSink`] receives
//! the measurements. The plain entry points use a default session
//! carrying [`NullSink`], whose `ENABLED = false` constant lets the
//! instrumentation monomorphize away entirely — the hot loops compile
//! to the same code as before the telemetry layer existed. A session
//! built `with_sink(&mut MinerMetrics)` collects:
//!
//! * CPU nanoseconds per pipeline [`Stage`] (for a fanned-out stage,
//!   its workers' busy time summed across threads);
//! * wall-clock nanoseconds per fanned-out stage, measured across its
//!   fan-out/join barrier — the ratio CPU-ns / wall-ns per stage is the
//!   stage's parallel efficiency;
//! * the counters of [`MinerMetrics`] — executions scanned, pairs
//!   counted, edge populations before/after the noise threshold,
//!   two-cycles dissolved, nontrivial SCCs dissolved, edges dropped by
//!   the per-execution transitive reduction, and final edge count.
//!
//! The sink trait is generic over the metrics type it carries:
//! `MetricsSink<MinerMetrics>` (the default) feeds the miners,
//! [`MetricsSink<ConformanceMetrics>`] feeds
//! [`conformance`](crate::conformance), and the classify crate supplies
//! its own metrics type against the same trait. [`NullSink`] disables
//! all of them.
//!
//! [`MinerMetrics::to_json`] renders a machine-readable report with a
//! stable key order (locked by a unit test, so downstream golden tests
//! can depend on it); [`MinerMetrics::render_table`] renders the same
//! data as a human-readable table. Codec-level byte/event counts live
//! in `procmine_log::codec::CodecStats` (the log crate cannot depend on
//! this one); the CLI merges both reports.

use std::fmt;

/// The pipeline stages timed by the session-based miners.
///
/// Not every algorithm exercises every stage: Algorithm 1 has no
/// marking pass (its step 4 is a global transitive reduction, timed as
/// [`Stage::Reduce`]). Untouched stages report zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Lowering the log to dense vertex ids: borrowing a
    /// [`CompactLog`](procmine_log::CompactLog)'s columns, copying a
    /// nested log's rows into columns, and instance labeling for the
    /// cyclic miner.
    Lower,
    /// Step 2: scanning executions and counting ordered/overlapping
    /// pairs.
    CountPairs,
    /// Step 3: noise thresholding and two-cycle removal.
    Prune,
    /// Step 4: dissolving strongly connected components (general and
    /// cyclic miners only; Algorithm 1 never forms cycles).
    SccRemoval,
    /// Transitive reduction: the per-execution marking pass of steps
    /// 5–6 (Algorithms 2–3) or the global reduction of Algorithm 1.
    Reduce,
    /// Final assembly of the named model graph and its edge support.
    Assemble,
}

impl Stage {
    /// Number of stages (size of the timer array).
    pub const COUNT: usize = 6;

    /// All stages, in reporting order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Lower,
        Stage::CountPairs,
        Stage::Prune,
        Stage::SccRemoval,
        Stage::Reduce,
        Stage::Assemble,
    ];

    /// Stable machine-readable name, used as the JSON key.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Lower => "lower",
            Stage::CountPairs => "count_pairs",
            Stage::Prune => "prune",
            Stage::SccRemoval => "scc_removal",
            Stage::Reduce => "reduce",
            Stage::Assemble => "assemble",
        }
    }

    /// The trace-span name for this stage (see [`crate::trace`]). This
    /// differs from [`name`](Self::name) only for [`Stage::Reduce`],
    /// whose span has always been called `transitive_reduction` while
    /// its JSON key stays `reduce`.
    pub fn span_name(self) -> &'static str {
        match self {
            Stage::Reduce => "transitive_reduction",
            other => other.name(),
        }
    }
}

/// Counters and stage timings collected by one mining run.
///
/// Counters accumulate: reusing one `MinerMetrics` across several runs
/// (as the CLI's streaming mode does per snapshot) sums them.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MinerMetrics {
    /// CPU nanoseconds per stage, indexed by `Stage as usize` (summed
    /// across worker threads for a fanned-out stage).
    stage_nanos: [u64; Stage::COUNT],
    /// Wall-clock nanoseconds per stage, measured across the fan-out/join
    /// barrier of a fanned-out stage. Zero for serial stages.
    wall_nanos: [u64; Stage::COUNT],
    /// Executions scanned by the step-2 counting pass.
    pub executions_scanned: u64,
    /// Pair observations recorded in step 2 (`k·(k−1)/2` per execution
    /// of length `k` — each unordered instance pair is inspected once).
    pub pairs_counted: u64,
    /// Ordered pairs with at least one observation, before the noise
    /// threshold is applied.
    pub edges_before_threshold: u64,
    /// Edges surviving the threshold (step 3, before two-cycle
    /// removal).
    pub edges_after_threshold: u64,
    /// Mutual edge pairs dissolved as two-cycles (each pair counts
    /// once).
    pub two_cycles_dissolved: u64,
    /// Nontrivial strongly connected components dissolved in step 4.
    pub scc_count: u64,
    /// Edges dropped because no execution's transitive reduction needed
    /// them (step 6), or by Algorithm 1's global reduction.
    pub edges_dropped_by_reduction: u64,
    /// Edges in the final mined model (for the cyclic miner, after
    /// its instance merge).
    pub edges_final: u64,
    /// Bytes handed out by the marking pass's scratch arenas (cumulative
    /// across executions and threads; see `procmine_graph::arena`).
    pub arena_bytes: u64,
    /// Scratch-arena recycle events, one per marked execution: one per
    /// distinct activity set at noise threshold T ≤ 1, one per
    /// execution otherwise.
    pub arena_resets: u64,
    /// Largest per-arena resident scratch footprint, in bytes (max
    /// across threads, not summed — it bounds one worker's memory).
    pub arena_high_water_bytes: u64,
}

impl MinerMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        MinerMetrics::default()
    }

    /// Adds `nanos` to a stage timer.
    pub fn add_stage_nanos(&mut self, stage: Stage, nanos: u64) {
        self.stage_nanos[stage as usize] += nanos;
    }

    /// CPU nanoseconds accumulated for a stage.
    pub fn stage_nanos(&self, stage: Stage) -> u64 {
        self.stage_nanos[stage as usize]
    }

    /// Adds `nanos` to a stage's wall-clock (barrier) timer.
    pub fn add_wall_nanos(&mut self, stage: Stage, nanos: u64) {
        self.wall_nanos[stage as usize] += nanos;
    }

    /// Wall-clock nanoseconds accumulated for a stage (zero for a
    /// stage that never fanned out).
    pub fn wall_nanos(&self, stage: Stage) -> u64 {
        self.wall_nanos[stage as usize]
    }

    /// The counters as `(name, value)` pairs in the stable reporting
    /// order used by [`to_json`](Self::to_json) — the single source of
    /// truth for the JSON schema.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        [
            ("executions_scanned", self.executions_scanned),
            ("pairs_counted", self.pairs_counted),
            ("edges_before_threshold", self.edges_before_threshold),
            ("edges_after_threshold", self.edges_after_threshold),
            ("two_cycles_dissolved", self.two_cycles_dissolved),
            ("scc_count", self.scc_count),
            (
                "edges_dropped_by_reduction",
                self.edges_dropped_by_reduction,
            ),
            ("edges_final", self.edges_final),
        ]
    }

    /// The CPU stage timers as `(name, nanos)` pairs in reporting order.
    pub fn stages(&self) -> [(&'static str, u64); Stage::COUNT] {
        Stage::ALL.map(|s| (s.name(), self.stage_nanos(s)))
    }

    /// The wall-clock stage timers as `(name, nanos)` pairs in
    /// reporting order.
    pub fn stages_wall(&self) -> [(&'static str, u64); Stage::COUNT] {
        Stage::ALL.map(|s| (s.name(), self.wall_nanos(s)))
    }

    /// The arena-telemetry fields as `(name, value)` pairs in the
    /// stable order of the `"arena"` JSON section.
    pub fn arena_counters(&self) -> [(&'static str, u64); 3] {
        [
            ("bytes", self.arena_bytes),
            ("resets", self.arena_resets),
            ("high_water_bytes", self.arena_high_water_bytes),
        ]
    }

    /// Writes the JSON fields
    /// `"counters":{…},"stages_ns":{…},"stages_wall_ns":{…},"arena":{…}`
    /// (no surrounding braces) so callers can splice additional sibling
    /// fields — the CLI prepends its codec stats.
    pub fn write_json_fields(&self, out: &mut String) {
        write_json_object(out, "counters", &self.counters());
        out.push(',');
        write_json_object(out, "stages_ns", &self.stages());
        out.push(',');
        write_json_object(out, "stages_wall_ns", &self.stages_wall());
        out.push(',');
        write_json_object(out, "arena", &self.arena_counters());
    }

    /// Machine-readable JSON report with a stable key order (suitable
    /// for golden tests, modulo the timing values).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        self.write_json_fields(&mut out);
        out.push('}');
        out
    }

    /// Human-readable table of stages (CPU time, wall time, parallel
    /// efficiency) and counters. The wall and efficiency columns show
    /// `-` for stages no barrier timer measured (serial stages).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        out.push_str("stage                         cpu         wall        cpu/wall\n");
        for ((name, cpu), (_, wall)) in self.stages().iter().zip(self.stages_wall()) {
            let (wall_col, eff_col) = if wall > 0 {
                (
                    format_nanos(wall),
                    format!("{:.2}x", *cpu as f64 / wall as f64),
                )
            } else {
                ("-".to_string(), "-".to_string())
            };
            out.push_str(&format!(
                "  {name:<26}  {:<10}  {wall_col:<10}  {eff_col}\n",
                format_nanos(*cpu)
            ));
        }
        out.push_str("counter                       value\n");
        for (name, value) in self.counters() {
            out.push_str(&format!("  {name:<26}  {value}\n"));
        }
        out
    }
}

/// Writes one `"name":{"key":value,…}` JSON object (shared by the
/// metrics types' `write_json_fields`).
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

impl fmt::Display for MinerMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
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

/// A destination for pipeline telemetry carrying metrics of type `M`
/// (defaulting to [`MinerMetrics`], so miner code writes plain
/// `S: MetricsSink` bounds).
///
/// The session-based entry points are generic over this trait and
/// guard every measurement behind `Self::ENABLED`, a compile-time
/// constant: with [`NullSink`] the guards are `if false` and the
/// instrumentation vanishes at monomorphization, so the plain entry
/// points pay nothing.
pub trait MetricsSink<M = MinerMetrics> {
    /// Whether this sink records anything. Instrumentation code checks
    /// this constant before doing measurement work.
    const ENABLED: bool;

    /// Applies `update` to the underlying metrics; a no-op when
    /// disabled.
    fn record(&mut self, update: impl FnOnce(&mut M));
}

/// The disabled sink: records nothing, costs nothing — for any metrics
/// type.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl<M> MetricsSink<M> for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _update: impl FnOnce(&mut M)) {}
}

/// A mutable reference to a sink is itself a sink, so a
/// [`MineSession`](crate::MineSession) can borrow caller-owned metrics
/// (`session.with_sink(&mut metrics)`) without taking ownership.
impl<M, S: MetricsSink<M>> MetricsSink<M> for &mut S {
    const ENABLED: bool = S::ENABLED;

    #[inline(always)]
    fn record(&mut self, update: impl FnOnce(&mut M)) {
        (**self).record(update);
    }
}

impl MetricsSink for MinerMetrics {
    const ENABLED: bool = true;

    fn record(&mut self, update: impl FnOnce(&mut MinerMetrics)) {
        update(self);
    }
}

/// Counters and timers collected by one conformance-checking run (see
/// [`crate::conformance`]): executions checked, violations by variant,
/// and the Definition-7 closure/SCC analysis times. Fields accumulate,
/// like [`MinerMetrics`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ConformanceMetrics {
    /// Executions checked against Definition 6.
    pub executions_checked: u64,
    /// Executions with no violations.
    pub consistent_executions: u64,
    /// Count of `Violation::UnknownActivity`.
    pub violations_unknown_activity: u64,
    /// Count of `Violation::NotConnected`.
    pub violations_not_connected: u64,
    /// Count of `Violation::WrongInitiating`.
    pub violations_wrong_initiating: u64,
    /// Count of `Violation::WrongTerminating`.
    pub violations_wrong_terminating: u64,
    /// Count of `Violation::Unreachable`.
    pub violations_unreachable: u64,
    /// Count of `Violation::DependencyViolated`.
    pub violations_dependency: u64,
    /// Missing dependencies found (dependency completeness failures).
    pub missing_dependencies: u64,
    /// Spurious dependencies found (irredundancy failures).
    pub spurious_dependencies: u64,
    /// Log activities with no same-named model node.
    pub unknown_activities: u64,
    /// Nanoseconds computing the model's transitive closure.
    pub closure_nanos: u64,
    /// Nanoseconds computing the model's strongly connected components.
    pub scc_nanos: u64,
    /// Nanoseconds spent in per-execution Definition-6 checks.
    pub check_nanos: u64,
}

impl ConformanceMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        ConformanceMetrics::default()
    }

    /// The counters as `(name, value)` pairs in the stable reporting
    /// order used by [`to_json`](Self::to_json).
    pub fn counters(&self) -> [(&'static str, u64); 11] {
        [
            ("executions_checked", self.executions_checked),
            ("consistent_executions", self.consistent_executions),
            (
                "violations_unknown_activity",
                self.violations_unknown_activity,
            ),
            ("violations_not_connected", self.violations_not_connected),
            (
                "violations_wrong_initiating",
                self.violations_wrong_initiating,
            ),
            (
                "violations_wrong_terminating",
                self.violations_wrong_terminating,
            ),
            ("violations_unreachable", self.violations_unreachable),
            ("violations_dependency", self.violations_dependency),
            ("missing_dependencies", self.missing_dependencies),
            ("spurious_dependencies", self.spurious_dependencies),
            ("unknown_activities", self.unknown_activities),
        ]
    }

    /// The timers as `(name, nanos)` pairs in reporting order.
    pub fn timers(&self) -> [(&'static str, u64); 3] {
        [
            ("closure", self.closure_nanos),
            ("scc", self.scc_nanos),
            ("execution_checks", self.check_nanos),
        ]
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
        out.push_str("conformance timer             time\n");
        for (name, nanos) in self.timers() {
            out.push_str(&format!("  {name:<26}  {}\n", format_nanos(nanos)));
        }
        out.push_str("conformance counter           value\n");
        for (name, value) in self.counters() {
            out.push_str(&format!("  {name:<26}  {value}\n"));
        }
        out
    }
}

impl fmt::Display for ConformanceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render_table())
    }
}

impl MetricsSink<ConformanceMetrics> for ConformanceMetrics {
    const ENABLED: bool = true;

    fn record(&mut self, update: impl FnOnce(&mut ConformanceMetrics)) {
        update(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MinerMetrics {
        let mut m = MinerMetrics::new();
        m.add_stage_nanos(Stage::Lower, 10);
        m.add_stage_nanos(Stage::CountPairs, 20);
        m.add_stage_nanos(Stage::Prune, 30);
        m.add_stage_nanos(Stage::SccRemoval, 35);
        m.add_stage_nanos(Stage::Reduce, 40);
        m.add_stage_nanos(Stage::Assemble, 50);
        m.add_wall_nanos(Stage::CountPairs, 11);
        m.add_wall_nanos(Stage::Reduce, 12);
        m.executions_scanned = 1;
        m.pairs_counted = 2;
        m.edges_before_threshold = 3;
        m.edges_after_threshold = 4;
        m.two_cycles_dissolved = 5;
        m.scc_count = 6;
        m.edges_dropped_by_reduction = 7;
        m.edges_final = 8;
        m.arena_bytes = 64;
        m.arena_resets = 2;
        m.arena_high_water_bytes = 32;
        m
    }

    #[test]
    fn json_schema_is_locked() {
        // This string is the contract for downstream golden tests: key
        // order and spelling must not change without a migration.
        assert_eq!(
            sample().to_json(),
            "{\"counters\":{\
             \"executions_scanned\":1,\
             \"pairs_counted\":2,\
             \"edges_before_threshold\":3,\
             \"edges_after_threshold\":4,\
             \"two_cycles_dissolved\":5,\
             \"scc_count\":6,\
             \"edges_dropped_by_reduction\":7,\
             \"edges_final\":8},\
             \"stages_ns\":{\
             \"lower\":10,\
             \"count_pairs\":20,\
             \"prune\":30,\
             \"scc_removal\":35,\
             \"reduce\":40,\
             \"assemble\":50},\
             \"stages_wall_ns\":{\
             \"lower\":0,\
             \"count_pairs\":11,\
             \"prune\":0,\
             \"scc_removal\":0,\
             \"reduce\":12,\
             \"assemble\":0},\
             \"arena\":{\
             \"bytes\":64,\
             \"resets\":2,\
             \"high_water_bytes\":32}}"
        );
    }

    #[test]
    fn conformance_json_schema_is_locked() {
        let mut m = ConformanceMetrics::new();
        m.executions_checked = 1;
        m.consistent_executions = 2;
        m.violations_unknown_activity = 3;
        m.violations_not_connected = 4;
        m.violations_wrong_initiating = 5;
        m.violations_wrong_terminating = 6;
        m.violations_unreachable = 7;
        m.violations_dependency = 8;
        m.missing_dependencies = 9;
        m.spurious_dependencies = 10;
        m.unknown_activities = 11;
        m.closure_nanos = 12;
        m.scc_nanos = 13;
        m.check_nanos = 14;
        assert_eq!(
            m.to_json(),
            "{\"counters\":{\
             \"executions_checked\":1,\
             \"consistent_executions\":2,\
             \"violations_unknown_activity\":3,\
             \"violations_not_connected\":4,\
             \"violations_wrong_initiating\":5,\
             \"violations_wrong_terminating\":6,\
             \"violations_unreachable\":7,\
             \"violations_dependency\":8,\
             \"missing_dependencies\":9,\
             \"spurious_dependencies\":10,\
             \"unknown_activities\":11},\
             \"timers_ns\":{\
             \"closure\":12,\
             \"scc\":13,\
             \"execution_checks\":14}}"
        );
        let table = m.render_table();
        for (name, _) in m.counters() {
            assert!(table.contains(name), "missing counter {name}");
        }
    }

    #[test]
    fn default_is_all_zero() {
        let m = MinerMetrics::default();
        assert!(m.counters().iter().all(|&(_, v)| v == 0));
        assert!(m.stages().iter().all(|&(_, v)| v == 0));
        assert!(m.stages_wall().iter().all(|&(_, v)| v == 0));
    }

    // The disabled path is a compile-time property.
    const _: () = assert!(!<NullSink as MetricsSink>::ENABLED);
    const _: () = assert!(MinerMetrics::ENABLED);
    const _: () = assert!(<ConformanceMetrics as MetricsSink<ConformanceMetrics>>::ENABLED);

    #[test]
    fn null_sink_records_nothing() {
        let mut sink = NullSink;
        sink.record(|m: &mut MinerMetrics| m.edges_final += 1);
        sink.record(|m: &mut ConformanceMetrics| m.executions_checked += 1);
    }

    #[test]
    fn metrics_sink_records() {
        let mut m = MinerMetrics::new();
        m.record(|m| m.edges_final += 3);
        assert_eq!(m.edges_final, 3);
    }

    #[test]
    fn table_lists_all_keys() {
        let table = sample().render_table();
        for (name, _) in sample().counters() {
            assert!(table.contains(name), "missing counter {name}");
        }
        for stage in Stage::ALL {
            assert!(
                table.contains(stage.name()),
                "missing stage {}",
                stage.name()
            );
        }
    }

    #[test]
    fn json_round_trips_through_serde_value() {
        // The report must stay parseable JSON.
        let parsed: serde_json::Value = serde_json::from_str(&sample().to_json()).unwrap();
        match parsed {
            serde_json::Value::Map(fields) => assert_eq!(fields.len(), 4),
            other => panic!("expected object, got {other:?}"),
        }
    }
}
