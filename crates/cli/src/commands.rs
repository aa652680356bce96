//! Command implementations: `generate`, `mine`, `check`, `conditions`,
//! `info`, `help`.

use crate::args::{parse, ArgError, Parsed};
use crate::metrics::{record_ingest, registry_from_args, write_metrics, write_metrics_atomic};
use crate::output::{errln, file_error, out, outln, read_to_string, write_file};
use procmine_classify::{ClassifyMetrics, TreeConfig};
use procmine_core::{
    conformance, mine_auto_in, mine_cyclic_in, mine_general_dag_in, mine_special_dag_in, Algorithm,
    ConformanceMetrics, MetricsSink, MineSession, MinedModel, MinerMetrics, MinerOptions, Registry,
    Tracer,
};
use procmine_log::codec::{CodecStats, IngestReport, RecoveryPolicy};
use procmine_log::{codec, LogError, WorkflowLog};
use procmine_sim::{engine, presets, randdag, walk, ProcessModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

type CliResult = Result<(), Box<dyn Error>>;

const USAGE: &str = "\
procmine — mine process models from workflow logs
(Agrawal, Gunopulos, Leymann; EDBT 1998)

USAGE:
  procmine <command> [options]

COMMANDS:
  generate    Generate a synthetic workflow log
      --preset NAME        graph10 | upload | stress | pend | swap | uwi | order
      --model FILE         load a process-model definition file instead
      --random-dag N       random DAG with N vertices instead of a preset
      --edge-prob P        edge probability for --random-dag (default 0.5)
      --executions M       number of executions (default 100)
      --seed S             RNG seed (default 42)
      --engine KIND        walk (§8.1 random walk, default) | conditions
                           (condition-driven engine with outputs)
      --agents N           concurrent agents for --engine conditions (default 1)
      --duration LO..HI    activity duration range for --engine conditions
      --format F           flowmark (default) | seqs | jsonl | xes
      -o / --out FILE      output file (default: stdout)

  mine        Mine a process model from a log
      <LOG>                input log file
      --format F           flowmark | seqs | jsonl | xes (default: by
                           file extension; --follow reads flowmark only)
      --algorithm A        auto (default) | special | general | cyclic
      --threshold T        noise threshold (default 1)
      --dot FILE           write the mined graph as Graphviz DOT
      --graphml FILE       write the mined graph as GraphML (yEd/Gephi)
      --json FILE          write the mined model as JSON
      --bpmn FILE          write the mined model as BPMN 2.0 XML
      --check              verify conformance (Definition 7) after mining
      --follow             online mining over a live event stream
                           (flowmark only; cases may interleave).
                           <LOG> may be `-` for stdin; final model
                           prints in the same shape as batch mining
      --snapshot-every N   with --follow: print an interim model
                           summary to stderr every N absorbed events
      --max-open-cases N   with --follow: bound on concurrently open
                           cases before the least-recently-touched one
                           is evicted (default 1024; 0 = unbounded)
      --idle-ms MS         with --follow on a file: keep tailing the
                           file as it grows, giving up after MS of
                           inactivity (default 0: read to EOF once)
      --poll-ms MS         with --follow --idle-ms: poll interval while
                           tailing (default 50)
      --checkpoint FILE    with --follow on a file: save resumable
                           pipeline state (miner counts, open cases,
                           source position) to FILE atomically every
                           --checkpoint-every events and at end of
                           stream; if FILE already exists the session
                           resumes from it instead of re-reading the
                           log. Corrupt checkpoints are refused
                           (--recover discards them and cold-starts);
                           changed mining options always refuse
      --checkpoint-every N with --checkpoint: consumed events between
                           saves (default 500000)
      --io-retries N       with --follow on a file: transient read
                           errors are retried with exponential backoff
                           up to N times before failing (default 3)
      --threads N          mine with the parallel general miner on N
                           threads (requires --algorithm auto|general)
      --stats              print pipeline telemetry (stage timings,
                           counters, codec byte/event tallies; with
                           --threads also per-stage wall time and
                           cpu/wall parallel efficiency)
      --stats-json FILE    write the same telemetry as JSON with a
                           stable key order
      --recover            skip undecodable records instead of aborting;
                           an ingest summary goes to stderr
      --max-errors N       like --recover but abort after N decode
                           errors
      --deadline-ms MS     abort mining if it exceeds MS milliseconds of
                           wall-clock time
      --trace FILE         write a Chrome Trace Event file of the run
                           (load in ui.perfetto.dev or chrome://tracing)
      --metrics FILE       write a metrics export at exit: Prometheus
                           text exposition for .prom/.txt, the
                           versioned JSON snapshot otherwise (stage
                           latency histograms, ingest rates; with
                           --follow also stream-health gauges)
      --metrics-every N    with --follow --metrics FILE: atomically
                           rewrite FILE every N consumed events, safe
                           to scrape mid-stream (works with `-` stdin)

  check       Check a mined model (JSON) against a log
      <MODEL.json> <LOG>
      --format F           log format (default: by file extension)
      --recover            skip undecodable records instead of aborting
      --max-errors N       like --recover but abort after N decode errors
      --json               print the conformance report as JSON on
                           stdout (exit status still reflects the
                           verdict)
      --stats              print conformance telemetry (executions
                           checked, violations by variant, closure/SCC
                           time, codec tallies)
      --stats-json FILE    write the same telemetry as JSON
      --trace FILE         write a Chrome Trace Event file of the run
      --metrics FILE       write a metrics export at exit (format by
                           extension, as for mine)

  conditions  Mine a model and learn Boolean edge conditions (§7)
      <LOG>
      --format F           log format (default: by file extension)
      --threshold T        noise threshold (default 1)
      --max-depth D        decision-tree depth limit (default 8)
      --recover            skip undecodable records instead of aborting
      --max-errors N       like --recover but abort after N decode errors
      --deadline-ms MS     abort mining if it exceeds MS milliseconds
      --stats              print miner and classifier telemetry (rows
                           extracted, splits evaluated, tree depth,
                           learn time)
      --stats-json FILE    write the same telemetry as JSON
      --trace FILE         write a Chrome Trace Event file of the run
      --metrics FILE       write a metrics export at exit (format by
                           extension, as for mine)

  report      Render a metrics export as a human-readable summary
      <SNAPSHOT>           a --metrics file (.prom/.txt: Prometheus
                           exposition; otherwise JSON snapshot)
      --trace FILE         join a Chrome Trace Event file into the
                           summary (spans aggregated per name)
      --validate           check the file instead of rendering it:
                           exposition must have HELP/TYPE per family
                           and no duplicate series; JSON must match
                           the procmine-metrics/v1 schema
      --prev FILE          with --validate: counters must be monotone
                           versus this earlier scrape

  info        Show log statistics
      <LOG>
      --format F           log format (default: by file extension)

  convert     Convert a log between formats
      <IN> <OUT>
      --from F             input format (default: by file extension)
      --to F               output format (default: by file extension)

  help        Show this message

Log formats: flowmark (.fm/.csv), seqs (.seqs/.txt), jsonl (.jsonl),
xes (.xes). Where a format is defaulted from a file extension, unknown
extensions fall back to flowmark.
";

/// Entry point: dispatches on the first argument.
pub fn run(argv: &[String]) -> CliResult {
    match argv.first().map(String::as_str) {
        None | Some("help") | Some("--help") | Some("-h") => {
            out!("{USAGE}");
            Ok(())
        }
        Some("generate") => generate(&argv[1..]),
        Some("mine") => mine(&argv[1..]),
        Some("check") => check(&argv[1..]),
        Some("conditions") => conditions(&argv[1..]),
        Some("info") => info(&argv[1..]),
        Some("convert") => convert(&argv[1..]),
        Some("report") => crate::metrics::report(&argv[1..]),
        Some(other) => Err(format!("unknown command `{other}`; see `procmine help`").into()),
    }
}

/// The format of the log at `path`: `--format` if given, else guessed
/// from the file extension.
fn log_format<'p>(p: &'p Parsed, path: &str) -> &'p str {
    p.get("format")
        .unwrap_or_else(|| format_from_extension(path))
}

/// Guesses a log format from a file extension; unknown extensions fall
/// back to flowmark.
fn format_from_extension(path: &str) -> &'static str {
    match std::path::Path::new(path)
        .extension()
        .and_then(|e| e.to_str())
        .map(str::to_ascii_lowercase)
        .as_deref()
    {
        Some("xes") => "xes",
        Some("jsonl") => "jsonl",
        Some("seqs") | Some("txt") => "seqs",
        _ => "flowmark",
    }
}

fn convert(argv: &[String]) -> CliResult {
    let p = parse(argv, &["from", "to"], &[])?;
    let [input, output] = p.positional() else {
        return Err(ArgError::Required("IN and OUT arguments").into());
    };
    let from = p
        .get("from")
        .unwrap_or_else(|| format_from_extension(input));
    let to = p.get("to").unwrap_or_else(|| format_from_extension(output));
    let log = Frame::new(&p)?.read_log(input, from)?;
    write_log(&log, Some(output), to)?;
    errln!(
        "converted {} executions: {input} ({from}) -> {output} ({to})",
        log.len()
    );
    Ok(())
}

/// What every log-reading command shares: the recovery policy, the
/// tracer and registry its flags enable, and the codec and ingest
/// tallies of the log it reads. The frame reads the log, summarizes a
/// recovering ingest, writes `--stats` / `--stats-json`, and at exit
/// writes `--trace` then `--metrics`.
struct Frame<'a> {
    p: &'a Parsed,
    policy: RecoveryPolicy,
    /// The serial session implied by `--trace FILE` / `--metrics FILE`;
    /// its tracer and registry are shared by every session the command
    /// runs.
    base: MineSession,
    codec: CodecStats,
    ingest: IngestReport,
}

impl<'a> Frame<'a> {
    fn new(p: &'a Parsed) -> Result<Self, ArgError> {
        // `--max-errors` bounds the decode-error budget (and implies
        // recovery on its own); bare `--recover` skips without limit.
        let policy = if p.get("max-errors").is_some() {
            let max_errors = p.get_parse("max-errors", 0, "error budget (integer)")?;
            RecoveryPolicy::Skip { max_errors }
        } else if p.has("recover") {
            RecoveryPolicy::BestEffort
        } else {
            RecoveryPolicy::Strict
        };
        let base = MineSession::new().with_obs(registry_from_args(p));
        let base = if p.get("trace").is_some() {
            base.with_tracer(Tracer::new())
        } else {
            base
        };
        Ok(Frame {
            p,
            policy,
            base,
            codec: CodecStats::default(),
            ingest: IngestReport::default(),
        })
    }

    /// A fresh serial session sharing the frame's tracer and registry.
    /// Commands attach their metrics sink (and thread count) to it.
    fn session(&self) -> MineSession {
        MineSession::new()
            .with_tracer(self.base.tracer().clone())
            .with_obs(self.base.obs().clone())
    }

    /// Decodes the log at `path` under the frame's policy into its
    /// tallies, inside an `ingest.<format>` span, and records the
    /// per-format ingest counters and decode-time histogram.
    fn read_log(&mut self, path: &str, format: &str) -> Result<WorkflowLog, Box<dyn Error>> {
        // Span names are static, so map the format up front (codecs live in
        // `procmine-log`, which cannot depend on core — the ingest spans
        // and per-format metrics are recorded here at the CLI layer
        // instead).
        let span_name = match format {
            "flowmark" => "ingest.flowmark",
            "seqs" => "ingest.seqs",
            "jsonl" => "ingest.jsonl",
            "xes" => "ingest.xes",
            other => return Err(format!("unknown log format `{other}`").into()),
        };
        let _span = self.base.tracer().span_cat(span_name, "codec");
        let reg = self.base.obs();
        let reg_started = reg.start();
        let reader = BufReader::new(File::open(path).map_err(file_error(path))?);
        let (policy, report) = (self.policy, &mut self.ingest);
        let mut stats = CodecStats::default();
        let log = match format {
            "flowmark" => codec::flowmark::read_log_with(reader, policy, &mut stats, report),
            "seqs" => codec::seqs::read_log_with(reader, policy, &mut stats, report),
            "jsonl" => codec::jsonl::read_log_with(reader, policy, &mut stats, report),
            // XES, the one format left.
            _ => codec::xes::read_log_with(reader, policy, &mut stats, report),
        }
        .map_err(|e| log_error(path, e))?;
        self.codec.merge(&stats);
        if reg.is_enabled() {
            record_ingest(reg, format, stats.bytes_read, stats.events_parsed);
            reg.histogram(
                "procmine_ingest_duration_ns",
                "Wall-clock time spent decoding one input log, in nanoseconds.",
                &[("format", format)],
            )
            .observe_since(reg_started);
        }
        Ok(log)
    }

    /// Summarizes a recovering ingest on stderr (silent under `Strict`,
    /// where any decode error already aborted the command).
    fn report_ingest(&self) {
        if self.policy.is_strict() {
            return;
        }
        let report = &self.ingest;
        errln!(
            "ingest: {} records parsed, {} skipped, {} decode errors",
            report.records_parsed,
            report.records_skipped,
            report.errors_total
        );
        for e in &report.errors {
            errln!("  byte {} (line {}): {}", e.byte_offset, e.line, e.message);
        }
        // `errors` can exceed `errors_total` — located assembly diagnostics
        // are retained without counting as decode errors.
        let unrecorded = (report.errors_total as usize).saturating_sub(report.errors.len());
        if unrecorded > 0 {
            errln!("  ... {unrecorded} more not recorded");
        }
    }

    /// The one `--stats` / `--stats-json` writer. `--stats` prints the
    /// codec line, the command's `table`, then the dropped-span count —
    /// silence there would read as "the trace is complete" when the ring
    /// buffer wrapped. `--stats-json` writes
    /// `{"codec":…,"ingest":…,<fields>,"trace":{"dropped_spans":N}}`.
    fn write_stats(
        &self,
        table: impl FnOnce() -> String,
        fields: impl FnOnce(&mut String),
    ) -> CliResult {
        let dropped_spans = self.base.tracer().dropped_spans();
        if self.p.has("stats") {
            outln!(
                "codec: {} bytes read, {} events parsed, {} executions parsed",
                self.codec.bytes_read,
                self.codec.events_parsed,
                self.codec.executions_parsed
            );
            out!("{}", table());
            if dropped_spans > 0 {
                outln!(
                    "trace: {dropped_spans} span(s) dropped at capacity (raise the tracer \
                     buffer or trace less)"
                );
            }
        }
        if let Some(stats_path) = self.p.get("stats-json") {
            let mut out = format!(
                "{{\"codec\":{},\"ingest\":{},",
                self.codec.to_json(),
                self.ingest.to_json()
            );
            fields(&mut out);
            out.push_str(&format!(
                ",\"trace\":{{\"dropped_spans\":{dropped_spans}}}}}\n"
            ));
            write_file(stats_path, out)?;
        }
        Ok(())
    }

    /// Writes `--trace FILE` as a Chrome Trace Event file, then
    /// `--metrics FILE`. Call after the traced work finishes (and before
    /// any verdict-driven early return, so failing runs still leave both
    /// behind).
    fn finish(&self) -> CliResult {
        if let Some(path) = self.p.get("trace") {
            let mut f = BufWriter::new(File::create(path).map_err(file_error(path))?);
            self.base
                .tracer()
                .write_chrome_json(&mut f)
                .and_then(|()| f.flush())
                .map_err(file_error(path))?;
            errln!("wrote {path}");
        }
        write_metrics(self.base.obs(), self.p)
    }
}

/// Names `path` in a codec's I/O error; decode errors already locate
/// themselves by line and byte.
fn log_error(path: &str, e: LogError) -> Box<dyn Error> {
    match e {
        LogError::Io(_) => file_error(path)(e).into(),
        e => e.into(),
    }
}

fn write_log(log: &WorkflowLog, out: Option<&str>, format: &str) -> CliResult {
    let mut sink: Box<dyn Write> = match out {
        Some(path) => Box::new(BufWriter::new(
            File::create(path).map_err(file_error(path))?,
        )),
        None => Box::new(std::io::stdout().lock()),
    };
    let written = match format {
        "flowmark" => codec::flowmark::write_log(log, &mut sink),
        "seqs" => codec::seqs::write_log(log, &mut sink),
        "jsonl" => codec::jsonl::write_log(log, &mut sink),
        "xes" => codec::xes::write_log(log, &mut sink),
        other => return Err(format!("unknown log format `{other}`").into()),
    }
    .and_then(|()| Ok(sink.flush()?));
    written.map_err(|e| match out {
        Some(path) => log_error(path, e),
        None => e.into(),
    })
}

fn preset_model(name: &str) -> Result<ProcessModel, Box<dyn Error>> {
    Ok(match name {
        "graph10" => presets::graph10(),
        "upload" => presets::upload_and_notify(),
        "stress" => presets::stress_sleep(),
        "pend" => presets::pend_block(),
        "swap" => presets::local_swap(),
        "uwi" => presets::uwi_pilot(),
        "order" => presets::order_fulfillment(),
        other => return Err(format!("unknown preset `{other}`").into()),
    })
}

fn generate(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &[
            "preset",
            "model",
            "random-dag",
            "edge-prob",
            "executions",
            "seed",
            "engine",
            "agents",
            "duration",
            "format",
            "out",
        ],
        &[],
    )?;
    let m: usize = p.get_parse("executions", 100, "integer")?;
    let seed: u64 = p.get_parse("seed", 42, "integer")?;
    let format = p.get("format").unwrap_or("flowmark");
    let mut rng = StdRng::seed_from_u64(seed);

    let source_flags = [
        p.get("preset").is_some(),
        p.get("model").is_some(),
        p.get("random-dag").is_some(),
    ];
    if source_flags.iter().filter(|&&f| f).count() > 1 {
        return Err("--preset, --model and --random-dag are mutually exclusive".into());
    }
    let model = if let Some(name) = p.get("preset") {
        preset_model(name)?
    } else if let Some(path) = p.get("model") {
        procmine_sim::textfmt::read_model(read_to_string(path)?.as_bytes())?
    } else if let Some(n) = p.get("random-dag") {
        let vertices: usize = n
            .parse()
            .map_err(|_| format!("--random-dag: `{n}` is not a vertex count"))?;
        let edge_prob: f64 = p.get_parse("edge-prob", 0.5, "probability")?;
        randdag::random_dag(
            &randdag::RandomDagConfig {
                vertices,
                edge_prob,
            },
            &mut rng,
        )?
    } else {
        presets::graph10()
    };

    let log = match p.get("engine").unwrap_or("walk") {
        "walk" => walk::random_walk_log(&model, m, &mut rng)?,
        "conditions" => {
            let agents: usize = p.get_parse("agents", 1, "integer")?;
            let duration = match p.get("duration") {
                None => engine::DurationSpec::Instant,
                Some(range) => {
                    let (lo, hi) = range
                        .split_once("..")
                        .ok_or_else(|| format!("--duration: `{range}` needs LO..HI"))?;
                    engine::DurationSpec::Uniform(
                        lo.parse()
                            .map_err(|_| format!("bad duration bound `{lo}`"))?,
                        hi.parse()
                            .map_err(|_| format!("bad duration bound `{hi}`"))?,
                    )
                }
            };
            let cfg = engine::EngineConfig { duration, agents };
            engine::generate_log_with(&model, m, &cfg, &mut rng)?
        }
        other => return Err(format!("unknown engine `{other}`").into()),
    };
    errln!(
        "generated {} executions of `{}` ({} activities, {} edges)",
        log.len(),
        model.name(),
        model.activity_count(),
        model.edge_count()
    );
    write_log(&log, p.get("out"), format)
}

/// Miner options from the shared `--threshold` / `--deadline-ms` flags.
fn miner_options(p: &Parsed) -> Result<MinerOptions, ArgError> {
    let mut opts = MinerOptions::with_threshold(p.get_parse("threshold", 1, "integer")?);
    let deadline_ms: u64 = p.get_parse("deadline-ms", 0, "integer")?;
    if deadline_ms > 0 {
        opts.limits.deadline = Some(std::time::Duration::from_millis(deadline_ms));
    }
    Ok(opts)
}

fn mine_with<S: MetricsSink>(
    p: &Parsed,
    session: &mut MineSession<S>,
    log: &WorkflowLog,
) -> Result<(MinedModel, Algorithm), Box<dyn Error>> {
    let opts = miner_options(p)?;
    // `--threads N` was validated and folded into the session by the
    // command; re-read the flag only to reject incompatible algorithms.
    let threads: usize = p.get_parse("threads", 0, "integer")?;
    if threads > 0 {
        return match p.get("algorithm").unwrap_or("auto") {
            "auto" | "general" => Ok((
                mine_general_dag_in(session, log, &opts)?,
                Algorithm::GeneralDag,
            )),
            other => Err(
                format!("--threads requires the general miner (got --algorithm {other})").into(),
            ),
        };
    }
    Ok(match p.get("algorithm").unwrap_or("auto") {
        "auto" => mine_auto_in(session, log, &opts)?,
        "special" => (
            mine_special_dag_in(session, log, &opts)?,
            Algorithm::SpecialDag,
        ),
        "general" => (
            mine_general_dag_in(session, log, &opts)?,
            Algorithm::GeneralDag,
        ),
        "cyclic" => (mine_cyclic_in(session, log, &opts)?, Algorithm::Cyclic),
        other => return Err(format!("unknown algorithm `{other}`").into()),
    })
}

/// Writes the `--dot` / `--graphml` / `--json` model artifacts shared
/// by batch and follow mining (`--bpmn` needs the materialized log and
/// stays batch-only).
fn write_model_artifacts(p: &Parsed, model: &MinedModel) -> CliResult {
    if let Some(dot_path) = p.get("dot") {
        write_file(dot_path, model.to_dot("mined"))?;
    }
    if let Some(graphml_path) = p.get("graphml") {
        let support: std::collections::HashMap<(usize, usize), u32> = model
            .edge_support()
            .iter()
            .map(|&(u, v, c)| ((u, v), c))
            .collect();
        let xml = procmine_graph::graphml::to_graphml_with(
            model.graph(),
            "mined_process",
            |_, name| name.clone(),
            |u, v| support.get(&(u.index(), v.index())).map(|&c| f64::from(c)),
        );
        write_file(graphml_path, xml)?;
    }
    if let Some(json_path) = p.get("json") {
        write_file(json_path, serde_json::to_string_pretty(model)?)?;
    }
    Ok(())
}

/// Prints a mined model in the one shape batch and follow mining share,
/// so their outputs diff cleanly: a header line, then one `  u -> v`
/// line per edge.
fn print_model(
    path: &str,
    algorithm: Algorithm,
    model: &MinedModel,
    executions: usize,
    elapsed: std::time::Duration,
) {
    outln!(
        "mined `{path}` with {algorithm:?}: {} activities, {} edges ({executions} executions, \
         {:.3}s)",
        model.activity_count(),
        model.edge_count(),
        elapsed.as_secs_f64()
    );
    for (u, v) in model.edges_named() {
        outln!("  {u} -> {v}");
    }
}

/// The consumer end of a `mine --follow` pipeline: absorbs completed
/// executions into the online miner, printing interim snapshots per
/// the `--snapshot-every` cadence. A named struct (not a closure) so
/// the pump loop can reach the miner *between* events through
/// [`CaseAssembler::observer`] — that is where checkpoint saves hook
/// in.
struct FollowDriver<'a, S: MetricsSink> {
    miner: &'a mut procmine_core::OnlineMiner,
    session: &'a mut MineSession<S>,
    skipped: &'a mut usize,
}

impl<S: MetricsSink> procmine_log::stream::Observer for FollowDriver<'_, S> {
    fn on_execution(
        &mut self,
        exec: &procmine_log::Execution,
        table: &procmine_log::ActivityTable,
    ) -> Result<(), procmine_log::stream::StreamError> {
        use procmine_log::stream::StreamError;
        match self.miner.absorb(exec, table) {
            Ok(false) => Ok(()),
            Ok(true) => {
                let snap = self
                    .miner
                    .snapshot_in(self.session)
                    .map_err(|e| StreamError::Sink(Box::new(e)))?;
                errln!(
                    "snapshot @ {} events: {} activities, {} edges ({} executions)",
                    self.miner.events_absorbed(),
                    snap.activity_count(),
                    snap.edge_count(),
                    self.miner.executions()
                );
                Ok(())
            }
            Err(e) => {
                errln!("warning: skipping case `{}`: {e}", exec.id);
                *self.skipped += 1;
                Ok(())
            }
        }
    }
}

/// State restored from a `--checkpoint` file: the resumed miner, the
/// assembler state to rebuild around a fresh observer, and the source
/// position/accounting to continue from.
type ResumeState = (
    procmine_core::OnlineMiner,
    procmine_log::stream::AssemblerState,
    procmine_core::SourceState,
);

/// Attempts to resume a follow session from `ck_path`. Returns
/// `Ok(None)` for a cold start — the file does not exist, or it is
/// corrupt and `recovering` allows discarding it. Version skew and an
/// options-fingerprint mismatch always refuse: the first is a
/// different build's format, the second would silently mix counts
/// accumulated under different mining semantics.
fn load_follow_checkpoint(
    ck_path: &str,
    log_path: &str,
    fingerprint: &procmine_core::OptionsFingerprint,
    options: &MinerOptions,
    snap_policy: procmine_core::SnapshotPolicy,
    config: procmine_log::stream::AssemblerConfig,
    recovering: bool,
) -> Result<Option<ResumeState>, Box<dyn Error>> {
    use procmine_core::{FollowCheckpoint, OnlineMiner};
    use procmine_log::stream::{CaseAssembler, CheckpointError, StreamError};
    use procmine_log::{ActivityTable, Execution};

    if !std::path::Path::new(ck_path).exists() {
        return Ok(None);
    }
    let degrade = |why: String| -> Result<Option<ResumeState>, Box<dyn Error>> {
        if recovering {
            errln!("warning: {why}; cold-starting (the checkpoint will be overwritten)");
            Ok(None)
        } else {
            Err(format!(
                "{why} (rerun with --recover to discard the checkpoint and cold-start, \
                 or delete the file)"
            )
            .into())
        }
    };
    let ck = match FollowCheckpoint::load(std::path::Path::new(ck_path)) {
        Ok(ck) => ck,
        Err(e @ CheckpointError::VersionSkew { .. }) => {
            return Err(format!(
                "cannot resume from `{ck_path}`: {e} (written by a different build; \
                 delete the file to start over)"
            )
            .into())
        }
        Err(e) => return degrade(format!("cannot resume from `{ck_path}`: {e}")),
    };
    if let Some(diff) = fingerprint.mismatch(&ck.fingerprint) {
        return Err(format!(
            "cannot resume from `{ck_path}`: options changed — {diff}; rerun with the \
             checkpoint's options, or delete the file to remine under the new ones"
        )
        .into());
    }
    let current_len = std::fs::metadata(log_path)
        .map_err(file_error(log_path))?
        .len();
    if current_len < ck.source.source_len {
        return degrade(format!(
            "cannot resume from `{ck_path}`: log `{log_path}` shrank from {} to \
             {current_len} bytes since the checkpoint (truncated or rotated)",
            ck.source.source_len
        ));
    }
    let miner = match OnlineMiner::from_state(options.clone(), snap_policy, ck.miner) {
        Ok(m) => m,
        Err(e) => return degrade(format!("cannot resume from `{ck_path}`: {e}")),
    };
    // Dry-run the assembler restore so structural corruption in its
    // half of the payload also degrades here, before the pipeline is
    // wired up.
    let probe = |_: &Execution, _: &ActivityTable| Ok::<(), StreamError>(());
    if let Err(e) = CaseAssembler::resume(config, probe, ck.assembler.clone()) {
        return degrade(format!("cannot resume from `{ck_path}`: {e}"));
    }
    Ok(Some((miner, ck.assembler, ck.source)))
}

/// The follow loop's work between events — checkpoint saves and health
/// exports — and the tallies both read.
struct FollowLoop<'a> {
    reg: &'a Registry,
    log_path: &'a str,
    checkpoint: Option<&'a str>,
    fingerprint: procmine_core::OptionsFingerprint,
    /// Source-side accounting carried over from the checkpoint this
    /// session resumed from (zeroed on a cold start).
    base: &'a procmine_core::SourceState,
    max_open_cases: usize,
    tail: Option<std::sync::Arc<procmine_log::stream::TailStats>>,
    started: std::time::Instant,
    /// `procmine_follow_events_total`: events consumed this session.
    events: procmine_core::Counter,
    /// Consumed events since the last cadenced checkpoint save.
    events_since_save: u64,
    /// (snapshots_taken, events_absorbed at that point) — tracks the
    /// snapshot-age gauge across exports.
    snap_seen: (u64, u64),
    ck_write_ns: procmine_core::Histogram,
    ck_writes: procmine_core::Counter,
}

type FollowAssembler<'a, S> = procmine_log::stream::CaseAssembler<FollowDriver<'a, S>>;

impl FollowLoop<'_> {
    /// Saves the full pipeline state to `ck_path` atomically and times
    /// the save into the registry. The miner's part is encoded straight
    /// from the live miner. The session's source tallies are merged
    /// over `base`, so the saved state is cumulative over the whole
    /// stream.
    fn save<S: MetricsSink>(
        &self,
        ck_path: &str,
        assembler: &FollowAssembler<'_, S>,
        source: &procmine_log::stream::FlowmarkSource<impl std::io::BufRead>,
    ) -> CliResult {
        let ck_started = self.reg.start();
        let (byte_offset, line) = source.position();
        let mut stats = self.base.stats;
        stats.merge(&source.stats());
        let mut report = self.base.report.clone();
        report.merge(source.report());
        let log_len = std::fs::metadata(self.log_path)
            .map_err(file_error(self.log_path))?
            .len();
        let source = procmine_core::SourceState {
            byte_offset,
            line: line as u64,
            // The file can only have grown since the bytes at
            // `byte_offset` were read; clamp defensively so the
            // invariant `source_len >= byte_offset` holds even
            // mid-rotation.
            source_len: log_len.max(byte_offset),
            stats,
            report,
        };
        procmine_core::FollowCheckpointView {
            fingerprint: self.fingerprint,
            miner: assembler.observer().miner.state_view(),
            assembler: &assembler.export_state(),
            source: &source,
        }
        .save(std::path::Path::new(ck_path))
        .map_err(file_error(ck_path))?;
        if ck_started.is_some() {
            self.ck_write_ns.observe_since(ck_started);
            self.ck_writes.inc();
        }
        Ok(())
    }

    /// Samples live-following health into the registry right before a
    /// metrics export (cadenced and final). Totals accumulated outside
    /// the registry (evictions, tail supervision) are synced into their
    /// counters by delta so scrape-over-scrape values stay monotone.
    fn export<S: MetricsSink>(&mut self, assembler: &FollowAssembler<'_, S>, cases_evicted: u64) {
        let reg = self.reg;
        if !reg.is_enabled() {
            return;
        }
        let miner = &*assembler.observer().miner;
        let (taken, absorbed) = (miner.snapshots_taken(), miner.events_absorbed());
        if taken > self.snap_seen.0 {
            self.snap_seen = (taken, absorbed);
        }
        let sync = |name: &'static str, help: &'static str, total: u64| {
            let c = reg.counter(name, help, &[]);
            c.add(total.saturating_sub(c.value()));
        };
        reg.gauge(
            "procmine_follow_open_cases",
            "Concurrently open (incomplete) cases in the assembler window.",
            &[],
        )
        .set_u64(assembler.open_cases() as u64);
        reg.gauge(
            "procmine_follow_open_cases_limit",
            "The --max-open-cases bound (0: unbounded).",
            &[],
        )
        .set_u64(self.max_open_cases as u64);
        reg.gauge(
            "procmine_follow_events_per_second",
            "Consumed events per wall-clock second since the session started.",
            &[],
        )
        .set(self.events.value() as f64 / self.started.elapsed().as_secs_f64().max(1e-9));
        reg.gauge(
            "procmine_follow_snapshot_age_events",
            "Absorbed events since the last interim model snapshot.",
            &[],
        )
        .set_u64(absorbed - self.snap_seen.1);
        sync(
            "procmine_follow_cases_evicted_total",
            "Incomplete open cases evicted by the --max-open-cases window.",
            cases_evicted,
        );
        sync(
            "procmine_follow_events_absorbed_total",
            "Events absorbed into the online miner (completed cases only).",
            absorbed,
        );
        sync(
            "procmine_follow_snapshots_total",
            "Interim model snapshots taken.",
            taken,
        );
        if self.checkpoint.is_some() {
            reg.gauge(
                "procmine_checkpoint_age_events",
                "Consumed events since the last checkpoint save.",
                &[],
            )
            .set_u64(self.events_since_save);
        }
        if let Some(tail) = &self.tail {
            sync(
                "procmine_tail_retries_total",
                "Transient read errors retried by the supervised tail reader.",
                tail.retries(),
            );
            sync(
                "procmine_tail_backoff_ns_total",
                "Nanoseconds slept in tail-retry exponential backoff.",
                tail.backoff_ns(),
            );
            sync(
                "procmine_tail_empty_polls_total",
                "Empty tail polls (EOF-for-now) observed while following.",
                tail.empty_polls(),
            );
        }
    }
}

/// `mine --follow`: online mining over a live event stream. `<LOG>` may
/// be `-` for stdin (read until EOF — the pipe case) or a file, which
/// with `--idle-ms` is tailed as it grows. Events flow through the
/// interleaved case assembler (bounded by `--max-open-cases`) into the
/// online miner; `--snapshot-every N` prints an interim model summary
/// to stderr every N absorbed events, and the final model prints to
/// stdout in the same shape as batch mining so outputs diff cleanly.
///
/// With `--checkpoint FILE` the pipeline persists its full resumable
/// state (miner counts, open cases, source position) every
/// `--checkpoint-every` consumed events and at end of stream; a later
/// run with the same flag resumes from the file instead of re-reading
/// the log. File reads are supervised: transient I/O errors retry with
/// exponential backoff (`--io-retries`), and a log that shrinks under
/// the follow surfaces as a located truncation error.
fn mine_follow(p: &Parsed) -> CliResult {
    use procmine_core::{OnlineMiner, OptionsFingerprint, SnapshotPolicy, SourceState};
    use procmine_log::stream::{
        AssemblerConfig, CaseAssembler, FlowmarkSource, RetryPolicy, StreamError, StreamSink,
        TailReader,
    };
    use procmine_log::validate::AssemblyPolicy;
    use std::io::Seek;

    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file (or - for stdin)"))?;
    if p.has("check") || p.get("bpmn").is_some() {
        return Err("--check/--bpmn need a materialized log and cannot follow a stream".into());
    }
    if p.get("threads").is_some() {
        return Err("--threads cannot be combined with --follow".into());
    }
    let format = log_format(p, path);
    if format != "flowmark" {
        let by = if p.get("format").is_some() {
            "--format"
        } else {
            "its extension"
        };
        return Err(format!(
            "{path}: --follow reads flowmark only, and this log is {format} by {by} \
             (pass --format flowmark to read it as flowmark)"
        )
        .into());
    }
    match p.get("algorithm").unwrap_or("auto") {
        "auto" | "general" => {}
        other => {
            return Err(format!(
                "--follow uses the incremental general miner (got --algorithm {other})"
            )
            .into())
        }
    }

    let mut frame = Frame::new(p)?;
    let policy = frame.policy;
    let snapshot_every: u64 = p.get_parse("snapshot-every", 0, "integer")?;
    let max_open_cases: usize = p.get_parse(
        "max-open-cases",
        procmine_log::stream::DEFAULT_OPEN_CASE_WINDOW,
        "integer",
    )?;
    let poll_ms: u64 = p.get_parse("poll-ms", 50, "integer")?;
    let idle_ms: u64 = p.get_parse("idle-ms", 0, "integer")?;
    let io_retries: u32 = p.get_parse("io-retries", 3, "integer")?;
    let checkpoint_path = p.get("checkpoint");
    let checkpoint_every: u64 = p.get_parse(
        "checkpoint-every",
        procmine_core::DEFAULT_CHECKPOINT_EVERY,
        "integer",
    )?;
    if checkpoint_path.is_none() && p.get("checkpoint-every").is_some() {
        return Err("--checkpoint-every requires --checkpoint".into());
    }
    if checkpoint_path.is_some() && *path == "-" {
        return Err("--checkpoint requires a file log (stdin has no resumable position)".into());
    }
    // Unlike --checkpoint, --metrics-every works with `-` stdin: the
    // export describes the session, not a resumable source position.
    let metrics_path = p.get("metrics");
    let metrics_every: u64 = p.get_parse("metrics-every", 0, "integer")?;
    if metrics_every > 0 && metrics_path.is_none() {
        return Err("--metrics-every requires --metrics FILE".into());
    }

    let options = miner_options(p)?;
    let snap_policy = if snapshot_every > 0 {
        SnapshotPolicy::every(snapshot_every)
    } else {
        SnapshotPolicy::on_demand()
    };
    let config = AssemblerConfig {
        max_open_cases,
        assembly: if policy.is_strict() {
            AssemblyPolicy::Strict
        } else {
            AssemblyPolicy::Lenient
        },
    };
    let fingerprint = OptionsFingerprint {
        noise_threshold: options.noise_threshold,
        max_open_cases: max_open_cases as u64,
        strict_assembly: policy.is_strict(),
    };

    // Resume decision — before the reader is even opened, so a refusal
    // costs nothing and a resume seeks straight to the saved offset.
    let resumed = match checkpoint_path {
        Some(ck_path) => load_follow_checkpoint(
            ck_path,
            path,
            &fingerprint,
            &options,
            snap_policy,
            config,
            !policy.is_strict(),
        )?,
        None => None,
    };
    let (mut miner, assembler_state, base_source) = match resumed {
        Some((miner, assembler, source)) => {
            errln!(
                "resuming from checkpoint @ byte {} ({} executions mined, {} open cases)",
                source.byte_offset,
                miner.executions(),
                assembler.open.len()
            );
            (miner, Some(assembler), source)
        }
        None => (
            OnlineMiner::new(options, snap_policy),
            None,
            SourceState::default(),
        ),
    };
    let start_offset = base_source.byte_offset;
    let start_line = base_source.line as usize;

    let mut metrics = MinerMetrics::new();
    let mut session = frame.session().with_sink(&mut metrics);
    let started = std::time::Instant::now();

    let mut tail_stats = None;
    let reader: Box<dyn std::io::BufRead> = if *path == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        // Files are always wrapped in the supervised tail reader: with
        // --idle-ms 0 the idle budget is zero (EOF stays immediate),
        // but transient-error retry and truncation detection still
        // protect the session.
        let mut f = File::open(path).map_err(file_error(path))?;
        if start_offset > 0 {
            f.seek(std::io::SeekFrom::Start(start_offset))
                .map_err(file_error(path))?;
        }
        let tail = TailReader::new(
            f,
            std::time::Duration::from_millis(poll_ms.max(1)),
            Some(std::time::Duration::from_millis(idle_ms)),
        )
        .with_retry(RetryPolicy::with_retries(io_retries))
        .watching(path.as_str(), start_offset);
        tail_stats = Some(tail.stats());
        Box::new(BufReader::new(tail))
    };

    let mut skipped = 0usize;
    let follow_span = frame.base.tracer().span_cat("stream.follow", "codec");
    let mut source = FlowmarkSource::with_origin(reader, policy, start_offset, start_line);
    let driver = FollowDriver {
        miner: &mut miner,
        session: &mut session,
        skipped: &mut skipped,
    };
    let mut assembler = match assembler_state {
        Some(state) => CaseAssembler::resume(config, driver, state)?,
        None => CaseAssembler::new(config, driver),
    };

    let reg = frame.base.obs();
    let mut follow = FollowLoop {
        reg,
        log_path: path,
        checkpoint: checkpoint_path,
        fingerprint,
        base: &base_source,
        max_open_cases,
        tail: tail_stats,
        started,
        events: reg.counter(
            "procmine_follow_events_total",
            "Events consumed from the live stream (open cases included).",
            &[],
        ),
        events_since_save: 0,
        snap_seen: (0, 0),
        // Registered up front: every follow export lists the checkpoint
        // families, with or without --checkpoint.
        ck_write_ns: reg.histogram(
            "procmine_checkpoint_write_duration_ns",
            "Wall-clock duration of one atomic checkpoint save, in nanoseconds.",
            &[],
        ),
        ck_writes: reg.counter(
            "procmine_checkpoint_writes_total",
            "Atomic checkpoint saves performed.",
            &[],
        ),
    };
    let metrics_export = metrics_path.filter(|_| metrics_every > 0);
    let mut events_since_export: u64 = 0;
    // Manual pump (rather than `source.pump`) so checkpoint saves can
    // run between events, where miner counts, open cases, and the
    // source position are mutually consistent. `feed` hands each
    // event's fields to the assembler borrowed from the line buffer.
    // The cadence counts *consumed* events — open cases included — not
    // absorbed executions: an assembler window that never overflows
    // delivers executions only at the final flush, which would mean no
    // mid-stream saves at all.
    let checkpoint_cadence = checkpoint_every.max(1);
    let pumped = (|| -> CliResult {
        while source.feed(&mut assembler).map_err(|e| match e {
            // A decode error names the log, as in batch reads.
            StreamError::Log(e) => log_error(path, e),
            e => e.into(),
        })? {
            follow.events.inc();
            if let Some(ck_path) = checkpoint_path {
                follow.events_since_save += 1;
                if follow.events_since_save >= checkpoint_cadence {
                    follow.save(ck_path, &assembler, &source)?;
                    errln!("checkpoint @ byte {} -> {ck_path}", source.position().0);
                    follow.events_since_save = 0;
                }
            }
            if let Some(mp) = metrics_export {
                events_since_export += 1;
                if events_since_export >= metrics_every {
                    follow.export(&assembler, assembler.report().cases_evicted);
                    write_metrics_atomic(reg, mp)?;
                    events_since_export = 0;
                }
            }
        }
        assembler.finish()?;
        // A final save after the flush: a clean-exit resume continues
        // with the full counts. Cases that were still open here were
        // assembled by the flush, so a case spanning this boundary
        // opens fresh on resume (same split the memory bound forces).
        if let Some(ck_path) = checkpoint_path {
            follow.save(ck_path, &assembler, &source)?;
            errln!(
                "checkpoint @ {} events -> {ck_path} (end of stream)",
                assembler.observer().miner.events_absorbed()
            );
        }
        Ok(())
    })();
    frame.codec = base_source.stats;
    frame.codec.merge(&source.stats());
    frame.codec.executions_parsed = assembler.executions_emitted();
    frame.ingest = base_source.report.clone();
    frame.ingest.merge(source.report());
    frame.ingest.merge(assembler.report());
    // Final health refresh so the exit export reflects the end state.
    follow.export(&assembler, frame.ingest.cases_evicted);
    drop(assembler);
    drop(follow_span);
    if let Err(e) = pumped {
        frame.report_ingest();
        return Err(e);
    }
    if skipped > 0 {
        errln!("followed with {skipped} case(s) skipped");
    }
    if frame.ingest.cases_evicted > 0 {
        errln!(
            "warning: {} incomplete open case(s) evicted by the --max-open-cases {} window",
            frame.ingest.cases_evicted,
            max_open_cases
        );
    }

    let executions = miner.executions();
    let model = miner.snapshot_in(&mut session)?;
    drop(session);
    frame.report_ingest();
    print_model(
        path,
        Algorithm::GeneralDag,
        &model,
        executions,
        started.elapsed(),
    );
    write_model_artifacts(p, &model)?;
    frame.write_stats(
        || metrics.render_table(),
        |out| metrics.write_json_fields(out),
    )?;
    frame.finish()
}

fn mine(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &[
            "format",
            "algorithm",
            "threshold",
            "threads",
            "dot",
            "graphml",
            "json",
            "bpmn",
            "stats-json",
            "max-errors",
            "deadline-ms",
            "trace",
            "snapshot-every",
            "max-open-cases",
            "poll-ms",
            "idle-ms",
            "checkpoint",
            "checkpoint-every",
            "io-retries",
            "metrics",
            "metrics-every",
        ],
        &["check", "stats", "recover", "follow"],
    )?;
    if p.has("follow") {
        return mine_follow(&p);
    }
    for follow_only in [
        "snapshot-every",
        "max-open-cases",
        "poll-ms",
        "idle-ms",
        "checkpoint",
        "checkpoint-every",
        "io-retries",
        "metrics-every",
    ] {
        if p.get(follow_only).is_some() {
            return Err(format!("--{follow_only} requires --follow").into());
        }
    }
    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file"))?;
    let mut frame = Frame::new(&p)?;
    let threads: usize = p.get_parse("threads", 0, "integer")?;
    let mut metrics = MinerMetrics::new();
    let mut session = frame
        .session()
        .with_threads(threads.max(1))
        .with_sink(&mut metrics);
    let started = std::time::Instant::now();
    let log = frame.read_log(path, log_format(&p, path))?;
    let (model, algorithm) = mine_with(&p, &mut session, &log)?;
    drop(session);
    frame.report_ingest();
    print_model(path, algorithm, &model, log.len(), started.elapsed());

    // Route analytics (acyclic models with a unique source and sink).
    let g = model.graph();
    if let (&[source], &[sink]) = (&g.sources()[..], &g.sinks()[..]) {
        if let Ok(routes) = procmine_graph::paths::count_paths(g, source, sink) {
            outln!("distinct routes: {routes}");
        }
        if let Ok(Some(critical)) = procmine_graph::paths::longest_path(g, source, sink) {
            let names: Vec<&str> = critical.iter().map(|&v| g.node(v).as_str()).collect();
            outln!("critical path:   {}", names.join(" -> "));
        }
        let mandatory = procmine_graph::dominators::mandatory_activities(g, source, sink);
        let names: Vec<&str> = mandatory.iter().map(|&v| g.node(v).as_str()).collect();
        outln!("mandatory:       {}", names.join(", "));
    }

    // Split/join semantics from the log's co-occurrence statistics.
    let gateways = procmine_core::splits::analyze_gateways(&model, &log);
    for gw in gateways.splits.iter() {
        outln!(
            "split at {}: {} over {{{}}}",
            gw.activity,
            gw.kind,
            gw.branches.join(", ")
        );
    }
    for gw in gateways.joins.iter() {
        outln!(
            "join at {}:  {} over {{{}}}",
            gw.activity,
            gw.kind,
            gw.branches.join(", ")
        );
    }

    write_model_artifacts(&p, &model)?;
    if let Some(bpmn_path) = p.get("bpmn") {
        write_file(
            bpmn_path,
            procmine_core::bpmn::to_bpmn_xml(&model, &gateways, "mined_process"),
        )?;
    }
    frame.write_stats(
        || metrics.render_table(),
        |out| metrics.write_json_fields(out),
    )?;
    let mut check_failed = false;
    if p.has("check") {
        let report = conformance::check_conformance_in(&mut frame.session(), &model, &log);
        if report.is_conformal() {
            outln!("conformance: OK (dependency-complete, irredundant, execution-complete)");
        } else {
            outln!("conformance: FAILED");
            for (u, v) in &report.missing_dependencies {
                outln!("  missing dependency: {u} -> {v}");
            }
            for (u, v) in &report.spurious_dependencies {
                outln!("  spurious dependency: {u} -> {v}");
            }
            for (exec, violations) in &report.inconsistent_executions {
                outln!("  inconsistent execution {exec}: {violations:?}");
            }
            for activity in &report.unknown_activities {
                outln!("  unknown activity: {activity}");
            }
            check_failed = true;
        }
    }
    frame.finish()?;
    if check_failed {
        return Err("mined model is not conformal".into());
    }
    Ok(())
}

fn check(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &["format", "stats-json", "max-errors", "trace", "metrics"],
        &["stats", "recover", "json"],
    )?;
    let [model_path, log_path] = p.positional() else {
        return Err(ArgError::Required("MODEL.json and LOG arguments").into());
    };
    let model: MinedModel = serde_json::from_str(&read_to_string(model_path)?)?;
    let mut frame = Frame::new(&p)?;
    let log = frame.read_log(log_path, log_format(&p, log_path))?;
    frame.report_ingest();
    let mut metrics = ConformanceMetrics::new();
    let report = conformance::check_conformance_in(
        &mut frame.session().with_sink(&mut metrics),
        &model,
        &log,
    );
    frame.write_stats(
        || metrics.render_table(),
        |out| metrics.write_json_fields(out),
    )?;
    frame.finish()?;
    if p.has("json") {
        // Machine-readable verdict on stdout; the exit status still
        // reflects conformality so scripts can branch either way.
        outln!("{}", report.to_json());
        return if report.is_conformal() {
            Ok(())
        } else {
            Err("model is not conformal".into())
        };
    }
    if report.is_conformal() {
        outln!("conformal: model satisfies Definition 7 for this log");
        Ok(())
    } else {
        outln!(
            "not conformal: {} missing, {} spurious, {} inconsistent executions, {} unknown activities",
            report.missing_dependencies.len(),
            report.spurious_dependencies.len(),
            report.inconsistent_executions.len(),
            report.unknown_activities.len()
        );
        for activity in &report.unknown_activities {
            outln!("  unknown activity: {activity}");
        }
        Err("model is not conformal".into())
    }
}

fn conditions(argv: &[String]) -> CliResult {
    let p = parse(
        argv,
        &[
            "format",
            "threshold",
            "max-depth",
            "stats-json",
            "max-errors",
            "deadline-ms",
            "trace",
            "metrics",
        ],
        &["stats", "recover"],
    )?;
    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file"))?;
    let mut frame = Frame::new(&p)?;
    let log = frame.read_log(path, log_format(&p, path))?;
    frame.report_ingest();
    let mut miner_metrics = MinerMetrics::new();
    let (model, _) = mine_with(&p, &mut frame.session().with_sink(&mut miner_metrics), &log)?;
    let cfg = TreeConfig {
        max_depth: p.get_parse("max-depth", 8, "integer")?,
        ..TreeConfig::default()
    };
    let mut classify_metrics = ClassifyMetrics::new();
    let learned = procmine_classify::learn_edge_conditions_in(
        &mut frame.session().with_sink(&mut classify_metrics),
        &model,
        &log,
        &cfg,
    );
    let table = || miner_metrics.render_table() + &classify_metrics.render_table();
    frame.write_stats(table, |out| {
        miner_metrics.write_json_fields(out);
        out.push_str(",\"classify\":");
        out.push_str(&classify_metrics.to_json());
    })?;
    for c in &learned {
        outln!(
            "{} -> {}   [{} taken / {} not, accuracy {:.2}]",
            c.from,
            c.to,
            c.support.1,
            c.support.0,
            c.train_accuracy
        );
        if c.tree.is_none() {
            outln!("    (no outputs logged; unconditional)");
        } else if c.rules.is_empty() {
            outln!("    never taken");
        } else {
            for rule in &c.rules {
                outln!("    when {rule}");
            }
        }
    }
    frame.finish()
}

fn info(argv: &[String]) -> CliResult {
    let p = parse(argv, &["format"], &[])?;
    let path = p
        .positional()
        .first()
        .ok_or(ArgError::Required("log file"))?;
    let log = Frame::new(&p)?.read_log(path, log_format(&p, path))?;
    let stats = procmine_log::stats::log_stats(&log);

    outln!("executions:  {}", stats.executions);
    outln!("activities:  {}", stats.activities);
    outln!("instances:   {}", stats.total_instances);
    outln!(
        "distinct:    {} distinct sequences",
        stats.distinct_sequences
    );
    outln!("max repeats: {}", log.max_repeats());
    outln!(
        "complete:    {} (every activity in every execution)",
        log.every_activity_in_every_execution()
    );
    outln!(
        "exec length: min {} / avg {:.1} / max {}",
        stats.min_len,
        stats.mean_len,
        stats.max_len
    );
    let names = |ids: &[procmine_log::ActivityId]| {
        ids.iter()
            .map(|&a| log.activities().name(a))
            .collect::<Vec<_>>()
            .join(", ")
    };
    outln!("starts with: {}", names(&stats.start_candidates()));
    outln!("ends with:   {}", names(&stats.end_candidates()));
    outln!("\nper-activity (executions / instances):");
    for s in &stats.per_activity {
        outln!(
            "  {:<24} {:>6} / {:<6}",
            log.activities().name(s.activity),
            s.executions,
            s.instances
        );
    }
    let variants = procmine_log::stats::variants(&log);
    outln!("\ntop variants ({} total):", variants.len());
    for v in variants.iter().take(5) {
        let names: Vec<&str> = v
            .sequence
            .iter()
            .map(|&a| log.activities().name(a))
            .collect();
        outln!(
            "  {:>4}x ({:>5.1}%)  {}",
            v.count,
            100.0 * v.count as f64 / log.len().max(1) as f64,
            names.join(" ")
        );
    }
    Ok(())
}
