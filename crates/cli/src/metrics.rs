//! CLI surface for the metrics registry (`core::obs`): `--metrics`
//! export plumbing shared by `mine`/`check`/`conditions`, the cadenced
//! atomic rewrite behind `mine --follow --metrics-every`, and the
//! `procmine report` subcommand that renders a snapshot back into a
//! human-readable summary — doubling as the in-repo exposition checker
//! the CI metrics lane runs (`--validate`, `--prev`).
//!
//! Export format is chosen by file extension: `.prom` and `.txt` get
//! Prometheus text exposition, everything else the versioned JSON
//! snapshot (`procmine-metrics/v1`).

use crate::args::{parse, ArgError, Parsed};
use crate::output::{file_error, outln, read_to_string, write_file};
use procmine_core::Registry;
use std::collections::{BTreeMap, BTreeSet};
use std::error::Error;

type CliResult = Result<(), Box<dyn Error>>;

/// The registry implied by `--metrics FILE`: enabled when the flag is
/// present, the inert default otherwise (recording through it is a
/// single branch and never reads the clock).
pub fn registry_from_args(p: &Parsed) -> Registry {
    if p.get("metrics").is_some() {
        Registry::new()
    } else {
        Registry::disabled()
    }
}

/// Whether `path` selects the Prometheus text exposition (by
/// extension); everything else gets the JSON snapshot.
fn is_prometheus_path(path: &str) -> bool {
    matches!(
        std::path::Path::new(path)
            .extension()
            .and_then(|e| e.to_str())
            .map(str::to_ascii_lowercase)
            .as_deref(),
        Some("prom") | Some("txt")
    )
}

/// Renders the registry in the format `path`'s extension selects.
fn render_for_path(reg: &Registry, path: &str) -> String {
    if is_prometheus_path(path) {
        reg.render_prometheus()
    } else {
        let mut json = reg.to_json();
        json.push('\n');
        json
    }
}

/// Writes the final `--metrics FILE` export at command exit. No-op
/// without the flag.
pub fn write_metrics(reg: &Registry, p: &Parsed) -> CliResult {
    if let Some(path) = p.get("metrics") {
        write_file(path, render_for_path(reg, path))?;
    }
    Ok(())
}

/// Rewrites the metrics file atomically (tmp + rename, same primitive
/// as checkpoint saves) — the mid-stream cadence of
/// `--follow --metrics-every N`, safe to scrape at any moment.
pub fn write_metrics_atomic(reg: &Registry, path: &str) -> CliResult {
    // Raw atomic replace: a scraper reading mid-follow must see the
    // bare exposition/JSON, not a checkpoint envelope around it.
    procmine_log::stream::checkpoint::write_atomic_raw(
        std::path::Path::new(path),
        render_for_path(reg, path).as_bytes(),
    )
    .map_err(file_error(path))?;
    Ok(())
}

/// Records one ingest pass — the bytes and events this decode read —
/// into the per-format codec counters.
pub fn record_ingest(reg: &Registry, format: &str, bytes: u64, events: u64) {
    if !reg.is_enabled() {
        return;
    }
    let labels = [("format", format)];
    reg.counter(
        "procmine_ingest_bytes_total",
        "Bytes decoded per input log format.",
        &labels,
    )
    .add(bytes);
    reg.counter(
        "procmine_ingest_events_total",
        "Events decoded per input log format.",
        &labels,
    )
    .add(events);
}

/// `procmine report SNAPSHOT [--prev FILE] [--trace FILE] [--validate]`:
/// renders a metrics export (JSON snapshot or Prometheus exposition,
/// by extension) as a human-readable summary; with `--validate` it
/// instead checks the file — exposition: HELP/TYPE present for every
/// family, no duplicate series, counters monotone vs `--prev`; JSON:
/// schema id, per-kind field shape, bucket/count consistency; both:
/// every counter family named `…_total`.
pub fn report(argv: &[String]) -> CliResult {
    let p = parse(argv, &["prev", "trace"], &["validate"])?;
    let [path] = p.positional() else {
        return Err(ArgError::Required("metrics snapshot file").into());
    };
    let text = read_to_string(path)?;
    let prev = p
        .get("prev")
        .map(|prev| read_to_string(prev).map(|text| (prev, text)))
        .transpose()?;

    if is_prometheus_path(path) {
        let scrape = ExpositionScrape::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if p.has("validate") {
            scrape.validate().map_err(|e| format!("{path}: {e}"))?;
            if let Some((prev_path, prev_text)) = &prev {
                let earlier =
                    ExpositionScrape::parse(prev_text).map_err(|e| format!("{prev_path}: {e}"))?;
                scrape
                    .check_monotone_counters(&earlier)
                    .map_err(|e| format!("{path} vs {prev_path}: {e}"))?;
            }
            outln!(
                "{path}: valid exposition ({} families, {} series)",
                scrape.types.len(),
                scrape.samples.len()
            );
            return Ok(());
        }
        render_exposition(&scrape);
    } else {
        let snap = Snapshot::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        if p.has("validate") {
            snap.validate().map_err(|e| format!("{path}: {e}"))?;
            if let Some((prev_path, prev_text)) = &prev {
                let earlier =
                    Snapshot::parse(prev_text).map_err(|e| format!("{prev_path}: {e}"))?;
                snap.check_monotone_counters(&earlier)
                    .map_err(|e| format!("{path} vs {prev_path}: {e}"))?;
            }
            outln!(
                "{path}: valid {} snapshot ({} metric families)",
                procmine_core::obs::SNAPSHOT_SCHEMA,
                snap.metrics.len()
            );
            return Ok(());
        }
        render_snapshot(&snap);
    }

    if let Some(trace_path) = p.get("trace") {
        render_trace_summary(trace_path)?;
    }
    Ok(())
}

/// One decoded series from a JSON snapshot.
struct SnapSeries {
    labels: String,
    /// Counter/gauge value.
    value: Option<f64>,
    /// Histogram tallies.
    count: Option<u64>,
    sum: Option<u64>,
    min: Option<u64>,
    max: Option<u64>,
    bucket_total: u64,
}

struct SnapMetric {
    name: String,
    kind: String,
    series: Vec<SnapSeries>,
}

/// A parsed `procmine-metrics/v1` JSON snapshot.
struct Snapshot {
    schema: String,
    metrics: Vec<SnapMetric>,
}

impl Snapshot {
    fn parse(text: &str) -> Result<Snapshot, String> {
        use serde_json::Value;
        let value: Value = serde_json::from_str(text).map_err(|e| format!("not JSON: {e}"))?;
        let schema = match value.get("schema") {
            Some(Value::Str(s)) => s.clone(),
            _ => return Err("missing `schema` field".to_string()),
        };
        let Some(Value::Seq(raw)) = value.get("metrics") else {
            return Err("missing `metrics` array".to_string());
        };
        let mut metrics = Vec::with_capacity(raw.len());
        for (i, m) in raw.iter().enumerate() {
            let name = match m.get("name") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("metric {i}: missing `name`")),
            };
            let kind = match m.get("type") {
                Some(Value::Str(s)) => s.clone(),
                _ => return Err(format!("metric `{name}`: missing `type`")),
            };
            if !matches!(m.get("help"), Some(Value::Str(_))) {
                return Err(format!("metric `{name}`: missing `help`"));
            }
            let Some(Value::Seq(raw_series)) = m.get("series") else {
                return Err(format!("metric `{name}`: missing `series` array"));
            };
            let mut series = Vec::with_capacity(raw_series.len());
            for s in raw_series {
                let labels = match s.get("labels") {
                    Some(Value::Map(pairs)) => {
                        let mut rendered: Vec<String> = pairs
                            .iter()
                            .map(|(k, v)| match (k, v) {
                                (Value::Str(k), Value::Str(v)) => Ok(format!("{k}=\"{v}\"")),
                                _ => Err(format!("metric `{name}`: non-string label")),
                            })
                            .collect::<Result<_, _>>()?;
                        rendered.sort();
                        rendered.join(",")
                    }
                    _ => return Err(format!("metric `{name}`: series missing `labels`")),
                };
                let num = |key: &str| -> Option<f64> {
                    match s.get(key) {
                        Some(Value::U64(v)) => Some(*v as f64),
                        Some(Value::I64(v)) => Some(*v as f64),
                        Some(Value::F64(v)) => Some(*v),
                        _ => None,
                    }
                };
                let bucket_total = match s.get("buckets") {
                    Some(Value::Seq(buckets)) => buckets
                        .iter()
                        .map(|b| b.get("count").and_then(Value::as_u64).unwrap_or(0))
                        .sum(),
                    _ => 0,
                };
                series.push(SnapSeries {
                    labels,
                    value: num("value"),
                    count: s.get("count").and_then(Value::as_u64),
                    sum: s.get("sum").and_then(Value::as_u64),
                    min: s.get("min").and_then(Value::as_u64),
                    max: s.get("max").and_then(Value::as_u64),
                    bucket_total,
                });
            }
            metrics.push(SnapMetric { name, kind, series });
        }
        Ok(Snapshot { schema, metrics })
    }

    fn validate(&self) -> Result<(), String> {
        if self.schema != procmine_core::obs::SNAPSHOT_SCHEMA {
            return Err(format!(
                "schema mismatch: `{}` (want `{}`)",
                self.schema,
                procmine_core::obs::SNAPSHOT_SCHEMA
            ));
        }
        let mut seen = BTreeSet::new();
        for m in &self.metrics {
            if !matches!(m.kind.as_str(), "counter" | "gauge" | "histogram") {
                return Err(format!("metric `{}`: unknown type `{}`", m.name, m.kind));
            }
            if m.kind == "counter" {
                check_counter_name(&m.name)?;
            }
            for s in &m.series {
                if !seen.insert((m.name.clone(), s.labels.clone())) {
                    return Err(format!("duplicate series `{}{{{}}}`", m.name, s.labels));
                }
                match m.kind.as_str() {
                    "histogram" => {
                        let count = s.count.ok_or_else(|| {
                            format!("histogram `{}`: series missing `count`", m.name)
                        })?;
                        if s.sum.is_none() {
                            return Err(format!("histogram `{}`: series missing `sum`", m.name));
                        }
                        if s.bucket_total != count {
                            return Err(format!(
                                "histogram `{}{{{}}}`: bucket counts sum to {} but count is \
                                 {count}",
                                m.name, s.labels, s.bucket_total
                            ));
                        }
                    }
                    _ => {
                        if s.value.is_none() {
                            return Err(format!("{} `{}`: series missing `value`", m.kind, m.name));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Every counter series present in `earlier` must not have
    /// decreased (scrape-over-scrape monotonicity).
    fn check_monotone_counters(&self, earlier: &Snapshot) -> Result<(), String> {
        let now: BTreeMap<(String, String), f64> = self
            .metrics
            .iter()
            .filter(|m| m.kind == "counter")
            .flat_map(|m| {
                m.series
                    .iter()
                    .filter_map(|s| s.value.map(|v| ((m.name.clone(), s.labels.clone()), v)))
            })
            .collect();
        for m in earlier.metrics.iter().filter(|m| m.kind == "counter") {
            for s in &m.series {
                let (Some(old), Some(&new)) =
                    (s.value, now.get(&(m.name.clone(), s.labels.clone())))
                else {
                    continue;
                };
                if new < old {
                    return Err(format!(
                        "counter `{}{{{}}}` went backwards: {old} -> {new}",
                        m.name, s.labels
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A parsed Prometheus text exposition: declared types per family and
/// one value per full series line.
struct ExpositionScrape {
    /// family → declared TYPE.
    types: BTreeMap<String, String>,
    /// Families with a HELP line.
    helps: BTreeSet<String>,
    /// `(sample name, labels)` → value, in file order.
    samples: Vec<(String, String, f64)>,
}

impl ExpositionScrape {
    fn parse(text: &str) -> Result<ExpositionScrape, String> {
        let mut types = BTreeMap::new();
        let mut helps = BTreeSet::new();
        let mut samples = Vec::new();
        for (ln, line) in text.lines().enumerate() {
            let ln = ln + 1;
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split_whitespace().next().unwrap_or_default();
                helps.insert(name.to_string());
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return Err(format!("line {ln}: malformed TYPE line"));
                };
                types.insert(name.to_string(), kind.to_string());
            } else if line.starts_with('#') {
                continue; // comment
            } else {
                let (series, value) = line
                    .rsplit_once(' ')
                    .ok_or(format!("line {ln}: malformed sample line"))?;
                let value: f64 = value
                    .parse()
                    .map_err(|_| format!("line {ln}: `{value}` is not a number"))?;
                let (name, labels) = match series.split_once('{') {
                    Some((name, rest)) => {
                        let labels = rest
                            .strip_suffix('}')
                            .ok_or(format!("line {ln}: unterminated label set"))?;
                        (name.to_string(), labels.to_string())
                    }
                    None => (series.to_string(), String::new()),
                };
                samples.push((name, labels, value));
            }
        }
        Ok(ExpositionScrape {
            types,
            helps,
            samples,
        })
    }

    /// The declaring family of one sample name: histogram samples are
    /// rendered as `<family>_bucket` / `_sum` / `_count`.
    fn family_of(&self, sample: &str) -> Option<&str> {
        if self.types.contains_key(sample) {
            return self.types.get_key_value(sample).map(|(k, _)| k.as_str());
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = sample.strip_suffix(suffix) {
                if self.types.get(base).map(String::as_str) == Some("histogram") {
                    return self.types.get_key_value(base).map(|(k, _)| k.as_str());
                }
            }
        }
        None
    }

    fn validate(&self) -> Result<(), String> {
        let mut seen = BTreeSet::new();
        for (name, labels, _) in &self.samples {
            let family = self
                .family_of(name)
                .ok_or_else(|| format!("sample `{name}` has no TYPE declaration"))?;
            if !self.helps.contains(family) {
                return Err(format!("family `{family}` has no HELP line"));
            }
            if !seen.insert((name.clone(), labels.clone())) {
                return Err(format!("duplicate series `{name}{{{labels}}}`"));
            }
        }
        for (family, kind) in &self.types {
            if !self.helps.contains(family) {
                return Err(format!("family `{family}` has no HELP line"));
            }
            if kind == "counter" {
                check_counter_name(family)?;
            }
        }
        Ok(())
    }

    /// Counter families (and histograms' cumulative `_bucket`/`_count`
    /// samples) present in `earlier` must not have decreased.
    fn check_monotone_counters(&self, earlier: &ExpositionScrape) -> Result<(), String> {
        let monotone = |scrape: &ExpositionScrape, name: &str| -> bool {
            match scrape
                .family_of(name)
                .and_then(|f| scrape.types.get(f))
                .map(String::as_str)
            {
                Some("counter") => true,
                Some("histogram") => name.ends_with("_bucket") || name.ends_with("_count"),
                _ => false,
            }
        };
        let now: BTreeMap<(&str, &str), f64> = self
            .samples
            .iter()
            .map(|(n, l, v)| ((n.as_str(), l.as_str()), *v))
            .collect();
        for (name, labels, old) in &earlier.samples {
            if !monotone(earlier, name) {
                continue;
            }
            let Some(&new) = now.get(&(name.as_str(), labels.as_str())) else {
                continue;
            };
            if new < *old {
                return Err(format!(
                    "counter `{name}{{{labels}}}` went backwards: {old} -> {new}"
                ));
            }
        }
        Ok(())
    }
}

/// The Prometheus naming rule both checkers enforce: a counter family's
/// name ends in `_total`.
fn check_counter_name(name: &str) -> Result<(), String> {
    if name.ends_with("_total") {
        Ok(())
    } else {
        Err(format!("counter `{name}` does not end in `_total`"))
    }
}

/// Humanizes a nanosecond quantity for the summary tables.
fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.1}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

fn series_name(name: &str, labels: &str) -> String {
    if labels.is_empty() {
        name.to_string()
    } else {
        format!("{name}{{{labels}}}")
    }
}

fn render_snapshot(snap: &Snapshot) {
    outln!(
        "metrics snapshot ({}): {} families",
        snap.schema,
        snap.metrics.len()
    );
    for m in &snap.metrics {
        for s in &m.series {
            let id = series_name(&m.name, &s.labels);
            match m.kind.as_str() {
                "histogram" => {
                    let count = s.count.unwrap_or(0);
                    let is_ns = m.name.ends_with("_ns");
                    let stat = |v: Option<u64>| match v {
                        Some(v) if is_ns => fmt_ns(v as f64),
                        Some(v) => v.to_string(),
                        None => "-".to_string(),
                    };
                    let mean = match count {
                        0 => "-".to_string(),
                        n => {
                            let mean = s.sum.unwrap_or(0) as f64 / n as f64;
                            if is_ns {
                                fmt_ns(mean)
                            } else {
                                format!("{mean:.1}")
                            }
                        }
                    };
                    outln!(
                        "  {id:<56} {count:>8} samples  mean {mean:>10}  min {:>10}  max {:>10}",
                        stat(s.min),
                        stat(s.max)
                    );
                }
                _ => {
                    let v = s.value.unwrap_or(0.0);
                    let rendered = if v.fract() == 0.0 && v.abs() < 1e15 {
                        format!("{}", v as i64)
                    } else {
                        format!("{v:.3}")
                    };
                    outln!("  {id:<56} {rendered:>8} ({})", m.kind);
                }
            }
        }
    }
}

fn render_exposition(scrape: &ExpositionScrape) {
    outln!(
        "prometheus exposition: {} families, {} series",
        scrape.types.len(),
        scrape.samples.len()
    );
    for (name, labels, value) in &scrape.samples {
        outln!("  {:<64} {value}", series_name(name, labels));
    }
}

/// Joins a Chrome Trace Event file into the report: spans aggregated
/// per name (count and total duration — `dur` is microseconds in that
/// format).
fn render_trace_summary(path: &str) -> CliResult {
    use serde_json::Value;
    let text = read_to_string(path)?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let Some(Value::Seq(events)) = value.get("traceEvents") else {
        return Err(format!("{path}: missing `traceEvents` array").into());
    };
    let mut by_name: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for e in events {
        let (Some(Value::Str(name)), Some(dur)) = (e.get("name"), e.get("dur")) else {
            continue;
        };
        let dur = dur.as_u64().unwrap_or(0);
        let entry = by_name.entry(name.clone()).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += dur;
    }
    outln!("\ntrace spans ({path}):");
    for (name, (count, total_us)) in &by_name {
        outln!(
            "  {name:<32} {count:>6} span(s)  total {}",
            fmt_ns(*total_us as f64 * 1e3)
        );
    }
    if let Some(dropped) = value
        .get("metadata")
        .and_then(|m| m.get("dropped_spans"))
        .and_then(Value::as_u64)
    {
        if dropped > 0 {
            outln!("  ({dropped} span(s) dropped at capacity)");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_core::Stage;

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("procmine_a_total", "Counts a.", &[("format", "xes")])
            .add(3);
        reg.stage_latency(Stage::Prune).observe(1500);
        reg.gauge("procmine_rate", "A rate.", &[]).set(2.5);
        reg
    }

    #[test]
    fn exposition_round_trips_through_the_checker() {
        let reg = sample_registry();
        let scrape = ExpositionScrape::parse(&reg.render_prometheus()).unwrap();
        scrape.validate().unwrap();
        assert_eq!(scrape.types.len(), 3);
        // A later scrape with larger counters is monotone.
        reg.counter("procmine_a_total", "Counts a.", &[("format", "xes")])
            .add(5);
        reg.stage_latency(Stage::Prune).observe(99);
        let later = ExpositionScrape::parse(&reg.render_prometheus()).unwrap();
        later.check_monotone_counters(&scrape).unwrap();
        assert!(scrape.check_monotone_counters(&later).is_err());
    }

    #[test]
    fn exposition_checker_rejects_missing_type_and_duplicates() {
        let no_type = "procmine_x_total 4\n";
        let scrape = ExpositionScrape::parse(no_type).unwrap();
        assert!(scrape.validate().unwrap_err().contains("no TYPE"));

        let no_help = "# TYPE procmine_x_total counter\nprocmine_x_total 4\n";
        let scrape = ExpositionScrape::parse(no_help).unwrap();
        assert!(scrape.validate().unwrap_err().contains("no HELP"));

        let dup = "# HELP procmine_x_total X.\n# TYPE procmine_x_total counter\n\
                   procmine_x_total 4\nprocmine_x_total 5\n";
        let scrape = ExpositionScrape::parse(dup).unwrap();
        assert!(scrape.validate().unwrap_err().contains("duplicate series"));
    }

    /// A registry holding one counter family without the `_total`
    /// suffix.
    fn unsuffixed_counter_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("procmine_arena_bytes", "Bytes.", &[]).add(4);
        reg
    }

    #[test]
    fn exposition_checker_rejects_counter_without_total_suffix() {
        let scrape =
            ExpositionScrape::parse(&unsuffixed_counter_registry().render_prometheus()).unwrap();
        let err = scrape.validate().unwrap_err();
        assert!(
            err.contains("procmine_arena_bytes") && err.contains("_total"),
            "{err}"
        );
    }

    #[test]
    fn json_checker_rejects_counter_without_total_suffix() {
        let snap = Snapshot::parse(&unsuffixed_counter_registry().to_json()).unwrap();
        let err = snap.validate().unwrap_err();
        assert!(
            err.contains("procmine_arena_bytes") && err.contains("_total"),
            "{err}"
        );
    }

    #[test]
    fn json_snapshot_round_trips_through_the_checker() {
        let reg = sample_registry();
        let snap = Snapshot::parse(&reg.to_json()).unwrap();
        snap.validate().unwrap();
        assert_eq!(snap.metrics.len(), 3);
        reg.counter("procmine_a_total", "Counts a.", &[("format", "xes")])
            .add(1);
        let later = Snapshot::parse(&reg.to_json()).unwrap();
        later.check_monotone_counters(&snap).unwrap();
        assert!(snap.check_monotone_counters(&later).is_err());
    }

    #[test]
    fn json_checker_rejects_schema_and_shape_violations() {
        let bad_schema = r#"{"schema":"procmine-metrics/v0","metrics":[]}"#;
        let snap = Snapshot::parse(bad_schema).unwrap();
        assert!(snap.validate().unwrap_err().contains("schema mismatch"));

        let bad_buckets = r#"{"schema":"procmine-metrics/v1","metrics":[
            {"name":"h_ns","type":"histogram","help":"H.","series":[
             {"labels":{},"count":3,"sum":9,"min":1,"max":5,
              "buckets":[{"le":7,"count":2}]}]}]}"#;
        let snap = Snapshot::parse(bad_buckets).unwrap();
        assert!(snap.validate().unwrap_err().contains("bucket counts"));
    }

    #[test]
    fn export_format_follows_the_extension() {
        assert!(is_prometheus_path("out/metrics.prom"));
        assert!(is_prometheus_path("m.TXT"));
        assert!(!is_prometheus_path("metrics.json"));
        assert!(!is_prometheus_path("metrics"));
    }
}
