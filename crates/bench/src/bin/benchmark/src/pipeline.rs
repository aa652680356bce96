//! The in-process pipeline: the public library calls `procmine mine`
//! makes, in the CLI's order, with the CLI's options, timed from the
//! outside.
//!
//! Untraced, a run reads the clock twice and reports its total. Traced,
//! it charges the time between consecutive calls to the layer that ran:
//! calls made at most a few thousand times per run (decode, mine,
//! report, conformance, snapshots, checkpoint saves) become individual
//! spans, and per-event calls (`FlowmarkSource::next_event`,
//! `CaseAssembler::on_event`, `OnlineMiner::absorb`) are aggregated
//! into a busy time and a call count per layer. Charges chain without
//! gaps, so the layers' self times add up to the traced total.

use crate::alloc;
use crate::workload::{Mode, Workload};
use procmine_core::{
    conformance, mine_auto_in, mine_general_dag_in, splits, ConformanceMetrics, FollowCheckpoint,
    MetricsSink, MineSession, MinedModel, MinerMetrics, MinerOptions, OnlineMiner,
    OptionsFingerprint, SnapshotPolicy, SourceState,
};
use procmine_graph::{dominators, paths};
use procmine_log::codec::{self, CodecStats, IngestReport, RecoveryPolicy};
use procmine_log::stream::{
    AssemblerConfig, CaseAssembler, FlowmarkSource, Observer, RetryPolicy, StreamError, StreamSink,
    TailReader, DEFAULT_OPEN_CASE_WINDOW,
};
use procmine_log::validate::AssemblyPolicy;
use procmine_log::{ActivityTable, Execution};
use std::error::Error;
use std::fs::{self, File};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// Individually stored spans per run; more are counted as dropped.
const SPAN_CAP: usize = 10_000;

/// The layers a run's time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// `read_log_with` (batch) or `FlowmarkSource` over its reader
    /// (follow).
    Codec,
    /// `CaseAssembler`, excluding the observer it calls.
    Assembler,
    /// `OnlineMiner::absorb`: lowering plus step-2 pair counting.
    Absorb,
    /// `OnlineMiner::snapshot_in`: the finishing steps over the
    /// retained executions.
    Snapshot,
    /// The batch miner call (`mine_auto_in` / `mine_general_dag_in`).
    Mine,
    /// `count_paths`, `longest_path`, `mandatory_activities`.
    Routes,
    /// `analyze_gateways`.
    Gateways,
    /// `check_conformance_in`.
    Conformance,
    /// `FollowCheckpoint::save`, with the state export it needs.
    Checkpoint,
    /// Dropping the log or the miner state, as the CLI does at exit.
    Teardown,
}

impl Layer {
    pub const COUNT: usize = 10;
    pub const ALL: [Layer; Layer::COUNT] = [
        Layer::Codec,
        Layer::Assembler,
        Layer::Absorb,
        Layer::Snapshot,
        Layer::Mine,
        Layer::Routes,
        Layer::Gateways,
        Layer::Conformance,
        Layer::Checkpoint,
        Layer::Teardown,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Codec => "codec",
            Layer::Assembler => "assembler",
            Layer::Absorb => "online.absorb",
            Layer::Snapshot => "snapshot",
            Layer::Mine => "miner",
            Layer::Routes => "report.routes",
            Layer::Gateways => "report.gateways",
            Layer::Conformance => "conformance",
            Layer::Checkpoint => "checkpoint",
            Layer::Teardown => "teardown",
        }
    }
}

/// One individually recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Counts the layers report. Open-case peaks, conformance executions,
/// checkpoint bytes and the heap figures are taken in traced runs only.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub events: u64,
    pub decode_errors: u64,
    pub open_cases_max: u64,
    pub cases_evicted: u64,
    pub executions_absorbed: u64,
    pub snapshots: u64,
    pub checkpoint_saves: u64,
    /// Size of the last checkpoint written.
    pub checkpoint_bytes: u64,
    pub conformance_executions: u64,
    pub conformance_violations: u64,
    /// Live heap held by the decoded log (batch).
    pub log_heap: i64,
    /// Live heap held by the online miner at end of stream (follow).
    pub online_heap: i64,
    /// Peak live-heap growth over the whole run.
    pub peak_heap: i64,
}

/// One pipeline run.
pub struct Run {
    /// Wall time of the whole pipeline.
    pub total_ns: u64,
    /// Self time per layer, indexed like [`Layer::ALL`] (traced only).
    pub self_ns: [u64; Layer::COUNT],
    pub calls: [u64; Layer::COUNT],
    /// The mined model's edges by activity name, sorted.
    pub edges: Vec<(String, String)>,
    /// The miner's stage timers and counters, summed over every mining
    /// call of the run.
    pub miner: MinerMetrics,
    pub counts: Counts,
    pub spans: Vec<Span>,
    pub dropped_spans: u64,
}

impl Run {
    pub fn self_of(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }
}

/// Charges elapsed time to layers. Untraced, it never reads the clock.
struct Recorder {
    traced: bool,
    origin: Instant,
    last: Instant,
    busy: [u64; Layer::COUNT],
    calls: [u64; Layer::COUNT],
    spans: Vec<Span>,
    dropped: u64,
}

impl Recorder {
    fn new(traced: bool) -> Recorder {
        let now = Instant::now();
        Recorder {
            traced,
            origin: now,
            last: now,
            busy: [0; Layer::COUNT],
            calls: [0; Layer::COUNT],
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Charges the time since the previous charge to `layer` as one
    /// call; returns the call's start and duration.
    fn charge(&mut self, layer: Layer) -> (Instant, u64) {
        if !self.traced {
            return (self.last, 0);
        }
        let now = Instant::now();
        let (start, dur) = (self.last, nanos(now - self.last));
        self.last = now;
        self.busy[layer as usize] += dur;
        self.calls[layer as usize] += 1;
        (start, dur)
    }

    /// [`charge`](Self::charge), keeping the call as a named span.
    fn span(&mut self, layer: Layer, name: &'static str) {
        let (start, dur) = self.charge(layer);
        if self.traced {
            push_span(
                &mut self.spans,
                &mut self.dropped,
                self.origin,
                name,
                start,
                dur,
            );
        }
    }
}

fn push_span(
    spans: &mut Vec<Span>,
    dropped: &mut u64,
    origin: Instant,
    name: &'static str,
    start: Instant,
    dur_ns: u64,
) {
    if spans.len() < SPAN_CAP {
        spans.push(Span {
            name,
            start_ns: nanos(start - origin),
            dur_ns,
        });
    } else {
        *dropped += 1;
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A model's edges by activity name, sorted.
pub fn sorted_edges(model: &MinedModel) -> Vec<(String, String)> {
    let mut edges: Vec<(String, String)> = model
        .edges_named()
        .into_iter()
        .map(|(u, v)| (u.to_string(), v.to_string()))
        .collect();
    edges.sort();
    edges
}

/// Runs workload `w`'s pipeline over `input`. `work` holds the
/// checkpoint file of workloads that checkpoint.
pub fn run(w: Workload, input: &Path, work: &Path, traced: bool) -> Result<Run, Box<dyn Error>> {
    // Counting starts before the first allocation of the run.
    let heap = traced.then(alloc::Window::open);
    let mut run = match w.mode() {
        Mode::Batch {
            xes,
            general,
            check,
        } => batch(input, xes, general, check, traced, &heap)?,
        Mode::Follow {
            stdin,
            snapshot_every,
            checkpoint_every,
        } => follow(
            input,
            &work.join("inprocess.ck"),
            stdin,
            snapshot_every,
            checkpoint_every,
            traced,
            &heap,
        )?,
    };
    if let Some(heap) = heap {
        run.counts.peak_heap = heap.peak();
    }
    Ok(run)
}

fn batch(
    input: &Path,
    xes: bool,
    general: bool,
    check: bool,
    traced: bool,
    heap: &Option<alloc::Window>,
) -> Result<Run, Box<dyn Error>> {
    let mut rec = Recorder::new(traced);
    let mut counts = Counts::default();

    let (mut stats, mut ingest) = (CodecStats::default(), IngestReport::default());
    let reader = BufReader::new(File::open(input)?);
    let log = if xes {
        codec::xes::read_log_with(reader, RecoveryPolicy::Strict, &mut stats, &mut ingest)?
    } else {
        codec::flowmark::read_log_with(reader, RecoveryPolicy::Strict, &mut stats, &mut ingest)?
    };
    rec.span(Layer::Codec, "codec.decode");
    counts.log_heap = heap.as_ref().map_or(0, alloc::Window::grown);
    counts.events = stats.events_parsed;
    counts.decode_errors = ingest.errors_total;

    let options = MinerOptions::default();
    let mut miner = MinerMetrics::new();
    let mut session = MineSession::new().with_sink(&mut miner);
    let model = if general {
        mine_general_dag_in(&mut session, &log, &options)?
    } else {
        mine_auto_in(&mut session, &log, &options)?.0
    };
    drop(session);
    rec.span(Layer::Mine, "miner.mine");

    let g = model.graph();
    if let (&[source], &[sink]) = (&g.sources()[..], &g.sinks()[..]) {
        black_box(paths::count_paths(g, source, sink).ok());
        black_box(paths::longest_path(g, source, sink).ok());
        black_box(dominators::mandatory_activities(g, source, sink));
    }
    rec.span(Layer::Routes, "report.routes");
    let gateways = splits::analyze_gateways(&model, &log);
    black_box(&gateways);
    rec.span(Layer::Gateways, "report.gateways");

    if check {
        let report = if traced {
            let mut sink = ConformanceMetrics::new();
            let report = conformance::check_conformance_in(
                &mut MineSession::new().with_sink(&mut sink),
                &model,
                &log,
            );
            counts.conformance_executions = sink.executions_checked;
            report
        } else {
            conformance::check_conformance_in(&mut MineSession::new(), &model, &log)
        };
        rec.span(Layer::Conformance, "conformance.replay");
        counts.conformance_violations = (report.missing_dependencies.len()
            + report.spurious_dependencies.len()
            + report.inconsistent_executions.len()
            + report.unknown_activities.len()) as u64;
        if !report.is_conformal() {
            return Err("in-process conformance replay found the model not conformal".into());
        }
    }

    drop(gateways);
    drop(log);
    rec.span(Layer::Teardown, "teardown");
    let total_ns = nanos(rec.origin.elapsed());
    Ok(Run {
        total_ns,
        self_ns: rec.busy,
        calls: rec.calls,
        edges: sorted_edges(&model),
        miner,
        counts,
        spans: rec.spans,
        dropped_spans: rec.dropped,
    })
}

/// The `mine --follow` consumer: absorbs completed executions and takes
/// the interim snapshots the cadence asks for, timing both when traced.
struct Consumer<'a, S: MetricsSink> {
    miner: &'a mut OnlineMiner,
    session: &'a mut MineSession<S>,
    traced: bool,
    absorb_ns: u64,
    absorbs: u64,
    snapshot_ns: u64,
    snapshot_spans: Vec<(Instant, u64)>,
}

impl<S: MetricsSink> Observer for Consumer<'_, S> {
    fn on_execution(&mut self, exec: &Execution, table: &ActivityTable) -> Result<(), StreamError> {
        let started = self.traced.then(Instant::now);
        let due = self
            .miner
            .absorb(exec, table)
            .map_err(|e| StreamError::Sink(Box::new(e)))?;
        let absorbed = started.map(|s| (s, Instant::now()));
        if let Some((s, e)) = absorbed {
            self.absorb_ns += nanos(e - s);
            self.absorbs += 1;
        }
        if due {
            let snap = self
                .miner
                .snapshot_in(self.session)
                .map_err(|e| StreamError::Sink(Box::new(e)))?;
            black_box((snap.activity_count(), snap.edge_count()));
            if let Some((_, s)) = absorbed {
                let dur = nanos(s.elapsed());
                self.snapshot_ns += dur;
                self.snapshot_spans.push((s, dur));
            }
        }
        Ok(())
    }
}

/// Saves the pipeline state as `procmine mine --follow --checkpoint`
/// does between events.
fn save_checkpoint<S: MetricsSink>(
    ck: &Path,
    input: &Path,
    fingerprint: OptionsFingerprint,
    assembler: &CaseAssembler<Consumer<'_, S>>,
    source: &FlowmarkSource<Box<dyn BufRead>>,
) -> Result<(), Box<dyn Error>> {
    let (byte_offset, line) = source.position();
    FollowCheckpoint {
        fingerprint,
        miner: assembler.observer().miner.export_state(),
        assembler: assembler.export_state(),
        source: SourceState {
            byte_offset,
            line: line as u64,
            source_len: fs::metadata(input)?.len().max(byte_offset),
            stats: source.stats(),
            report: source.report().clone(),
        },
    }
    .save(ck)?;
    Ok(())
}

fn follow(
    input: &Path,
    ck: &Path,
    stdin: bool,
    snapshot_every: u64,
    checkpoint_every: Option<u64>,
    traced: bool,
    heap: &Option<alloc::Window>,
) -> Result<Run, Box<dyn Error>> {
    match fs::remove_file(ck) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e.into()),
        _ => {}
    }
    let mut rec = Recorder::new(traced);
    let mut counts = Counts::default();
    let options = MinerOptions::default();
    let fingerprint = OptionsFingerprint {
        noise_threshold: options.noise_threshold,
        max_open_cases: DEFAULT_OPEN_CASE_WINDOW as u64,
        strict_assembly: true,
    };
    let config = AssemblerConfig {
        max_open_cases: DEFAULT_OPEN_CASE_WINDOW,
        assembly: AssemblyPolicy::Strict,
    };
    let mut miner = OnlineMiner::new(options, SnapshotPolicy::every(snapshot_every));
    let mut metrics = MinerMetrics::new();
    let mut session = MineSession::new().with_sink(&mut metrics);

    // The CLI wraps a file in the supervised tail reader; stdin (the
    // `-` input) is read through a plain buffer, here over the file
    // the benchmark pipes in.
    let file = File::open(input)?;
    let reader: Box<dyn BufRead> = if stdin {
        Box::new(BufReader::new(file))
    } else {
        let tail = TailReader::new(file, Duration::from_millis(50), Some(Duration::ZERO))
            .with_retry(RetryPolicy::with_retries(3))
            .watching(input, 0);
        Box::new(BufReader::new(tail))
    };
    let mut source = FlowmarkSource::with_origin(reader, RecoveryPolicy::Strict, 0, 0);
    let consumer = Consumer {
        miner: &mut miner,
        session: &mut session,
        traced,
        absorb_ns: 0,
        absorbs: 0,
        snapshot_ns: 0,
        snapshot_spans: Vec::new(),
    };
    let mut assembler = CaseAssembler::new(config, consumer);
    rec.span(Layer::Codec, "codec.open");

    let mut since_save = 0u64;
    while let Some((event, at)) = source.next_event()? {
        rec.charge(Layer::Codec);
        assembler.on_event(event, at)?;
        rec.charge(Layer::Assembler);
        if traced {
            counts.open_cases_max = counts.open_cases_max.max(assembler.open_cases() as u64);
        }
        if let Some(every) = checkpoint_every {
            since_save += 1;
            if since_save >= every {
                save_checkpoint(ck, input, fingerprint, &assembler, &source)?;
                rec.span(Layer::Checkpoint, "checkpoint.save");
                since_save = 0;
            }
        }
    }
    rec.charge(Layer::Codec);
    assembler.finish()?;
    rec.span(Layer::Assembler, "assembler.finish");
    if checkpoint_every.is_some() {
        save_checkpoint(ck, input, fingerprint, &assembler, &source)?;
        rec.span(Layer::Checkpoint, "checkpoint.save");
    }
    counts.events = source.stats().events_parsed;
    counts.decode_errors = source.report().errors_total;
    counts.cases_evicted = assembler.report().cases_evicted;

    let consumer = assembler.into_observer();
    let (absorb_ns, absorbs, snapshot_ns) =
        (consumer.absorb_ns, consumer.absorbs, consumer.snapshot_ns);
    for &(start, dur) in &consumer.snapshot_spans {
        push_span(
            &mut rec.spans,
            &mut rec.dropped,
            rec.origin,
            "snapshot",
            start,
            dur,
        );
    }
    drop(consumer);
    rec.charge(Layer::Assembler);

    let model = miner.snapshot_in(&mut session)?;
    drop(session);
    rec.span(Layer::Snapshot, "snapshot.final");
    counts.online_heap = heap.as_ref().map_or(0, alloc::Window::grown);
    counts.executions_absorbed = miner.executions() as u64;
    counts.snapshots = miner.snapshots_taken();
    if traced && checkpoint_every.is_some() {
        counts.checkpoint_bytes = fs::metadata(ck)?.len();
    }

    drop(source);
    drop(miner);
    rec.span(Layer::Teardown, "teardown");
    let total_ns = nanos(rec.origin.elapsed());

    // Absorbs and interim snapshots ran inside the assembler's calls.
    let mut self_ns = rec.busy;
    self_ns[Layer::Assembler as usize] =
        self_ns[Layer::Assembler as usize].saturating_sub(absorb_ns + snapshot_ns);
    self_ns[Layer::Absorb as usize] += absorb_ns;
    self_ns[Layer::Snapshot as usize] += snapshot_ns;
    let mut calls = rec.calls;
    calls[Layer::Absorb as usize] += absorbs;
    calls[Layer::Snapshot as usize] += counts.snapshots.saturating_sub(1);
    counts.checkpoint_saves = calls[Layer::Checkpoint as usize];
    Ok(Run {
        total_ns,
        self_ns,
        calls,
        edges: sorted_edges(&model),
        miner: metrics,
        counts,
        spans: rec.spans,
        dropped_spans: rec.dropped,
    })
}

/// Writes a traced run as a Chrome Trace Event file: one root span for
/// the pipeline (per-event layers aggregated into its args) and the
/// individually recorded spans under it.
pub fn write_chrome_trace(path: &Path, w: Workload, run: &Run) -> io::Result<()> {
    let mut out = io::BufWriter::new(File::create(path)?);
    let us = |ns: u64| ns as f64 / 1e3;
    write!(
        out,
        "{{\"traceEvents\":[\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
         \"args\":{{\"name\":\"procmine {} (in-process, traced)\"}}}}",
        w.name()
    )?;
    write!(
        out,
        ",\n{{\"name\":\"pipeline\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":0,\"dur\":{},\
         \"pid\":1,\"tid\":1,\"args\":{{\"dropped_spans\":{}",
        us(run.total_ns),
        run.dropped_spans
    )?;
    for layer in Layer::ALL {
        write!(
            out,
            ",\"{0}.self_ms\":{1},\"{0}.calls\":{2}",
            layer.name(),
            run.self_of(layer) as f64 / 1e6,
            run.calls[layer as usize]
        )?;
    }
    write!(out, "}}}}")?;
    for span in &run.spans {
        write!(
            out,
            ",\n{{\"name\":\"{}\",\"cat\":\"benchmark\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
             \"pid\":1,\"tid\":1}}",
            span.name,
            us(span.start_ns),
            us(span.dur_ns)
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
