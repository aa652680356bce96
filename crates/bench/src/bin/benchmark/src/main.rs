//! `benchmark`: the end-to-end benchmark of the release `procmine`
//! binary, with a traced in-process run that explains its time layer by
//! layer.
//!
//! ```text
//! benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! ```
//!
//! The harness generates the workload's input from the seed, checks
//! every invocation's output against a reference result, and prints
//! every metric as `name value unit`; its last line is one JSON object
//! with the fields `correct`, `attempted`, `failed` and `metrics`. See
//! README.md beside this package for the workloads and metrics.

mod alloc;
mod interleave;
mod invoke;
mod metrics;
mod pipeline;
mod stats;
mod workload;

use metrics::{Def, Values, END_TO_END, PER_LAYER};
use pipeline::{Layer, Run};
use stats::Summary;
use std::error::Error;
use std::ffi::OsString;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workload::{Descriptors, Mode, Prepared, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest timed invocations an untraced run makes.
const MIN_INVOCATIONS: usize = 5;
/// Fewest steps (an invocation plus an untraced and a traced in-process
/// run) a traced run makes.
const MIN_TRACED_SAMPLES: usize = 3;
/// A run stops early once it has spent this many times its planned
/// measuring time, so a much slower build still finishes.
const OVERRUN_FACTOR: f64 = 4.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload `{name}` (one of: {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Invocations and failures across a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            eprintln!("benchmark: {what} failed: {why}");
        }
    }
}

fn run() -> Result<(), Box<dyn Error>> {
    let args = parse_args()?;
    let w = args.workload;
    let exe = std::env::current_exe()?;
    let bin_dir = exe
        .parent()
        .ok_or("the harness executable has no directory")?;
    let procmine = bin_dir.join("procmine");
    if !procmine.is_file() {
        return Err(format!(
            "{} is missing; build it with `cargo build --release --workspace`",
            procmine.display()
        )
        .into());
    }
    let work = bin_dir
        .parent()
        .ok_or("the harness executable has no target directory")?
        .join("benchmark-work");
    fs::create_dir_all(&work)?;
    println!(
        "workload {} seed {} seconds {} trace {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        drop(prepared.take()); // free the previous log before generating the next
        let started = Instant::now();
        let done = workload::prepare(w, args.seed, &work)?;
        setup_s.push(started.elapsed().as_secs_f64());
        prepared = Some(done);
    }
    let (prepared, log) = prepared.expect("at least one set-up ran");
    let descriptors = Descriptors::of(w, &log, &prepared);
    drop(log);
    for (name, value) in descriptors.fields() {
        println!("descriptor {name} {value}");
    }

    let ck = work.join("follow.ck");
    let mut tally = Tally::default();
    let result = if args.trace {
        traced_run(w, &args, &prepared, &procmine, &work, &ck, &mut tally)?
    } else {
        let count = planned(args.seconds, w.nominal_s(), MIN_INVOCATIONS);
        let mut client = Client::new(w, &prepared, &procmine, &work, &ck);
        client.invoke(false, &mut tally)?;
        repeat(count, args.seconds, || client.invoke(true, &mut tally))?;
        let wall = client.summary()?;
        let mut values = Values::new(END_TO_END);
        values.set("setup_s", stats::median(&setup_s));
        values.set("events_per_s", prepared.records as f64 / wall.median);
        values.set("peak_rss_mb", stats::median(&client.rss_kib) / 1024.0);
        println!(
            "failed_frac {} share ({} of {} invocations)",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            tally.failed,
            tally.attempted
        );
        RunResult {
            metrics: values.finish()?,
            wall,
        }
    };
    for (d, v) in &result.metrics {
        println!("{} {v} {}", d.name, d.unit);
    }
    let correct = tally.failed == 0;
    write_result_file(
        &work.join(format!("result-{}.json", w.name())),
        &args,
        &setup_s,
        &descriptors,
        &result,
        correct,
        &tally,
    )?;
    println!(
        "{}",
        metrics::result_line(correct, tally.attempted, tally.failed, &result.metrics)
    );
    Ok(())
}

/// A run's metrics plus the wall-time summary of its invocations.
struct RunResult {
    metrics: Vec<(Def, f64)>,
    wall: Summary,
}

/// Invocations (or traced-run steps) that fill `seconds` at `nominal_s`
/// each: the same count for every commit measured with one setting.
fn planned(seconds: f64, nominal_s: f64, min: usize) -> usize {
    ((seconds / nominal_s).round() as usize).max(min)
}

/// The closed loop's one client: each invocation starts after the
/// previous one exits, and is checked against the reference.
struct Client<'a> {
    w: Workload,
    prepared: &'a Prepared,
    procmine: &'a Path,
    work: &'a Path,
    ck: &'a Path,
    args: Vec<OsString>,
    wall_s: Vec<f64>,
    rss_kib: Vec<f64>,
}

impl<'a> Client<'a> {
    fn new(
        w: Workload,
        prepared: &'a Prepared,
        procmine: &'a Path,
        work: &'a Path,
        ck: &'a Path,
    ) -> Client<'a> {
        Client {
            w,
            prepared,
            procmine,
            work,
            ck,
            args: w.cli_args(&prepared.input, ck),
            wall_s: Vec::new(),
            rss_kib: Vec::new(),
        }
    }

    /// Runs one invocation; a `timed` one that passes its check joins
    /// the sample, the others are warm-ups.
    fn invoke(&mut self, timed: bool, tally: &mut Tally) -> Result<(), Box<dyn Error>> {
        // A leftover checkpoint would make the invocation resume.
        if self.ck.exists() {
            fs::remove_file(self.ck)?;
        }
        let stdin = matches!(self.w.mode(), Mode::Follow { stdin: true, .. })
            .then_some(&*self.prepared.input);
        let out = invoke::run(self.procmine, &self.args, stdin, self.work)?;
        let label = format!("invocation {} (timed {timed})", tally.attempted);
        let checked = invoke::check(self.w, self.prepared, &out, self.ck);
        let passed = checked.is_ok();
        tally.record(&label, checked);
        if timed && passed {
            self.wall_s.push(out.wall.as_secs_f64());
            self.rss_kib.push(out.peak_rss_kib as f64);
        }
        Ok(())
    }

    /// Prints and returns the wall-time summary of the timed sample.
    fn summary(&self) -> Result<Summary, Box<dyn Error>> {
        if self.wall_s.is_empty() {
            return Err("no timed invocation passed its check".into());
        }
        let s = Summary::of(&self.wall_s);
        println!(
            "invocations {} (+1 warm-up) wall_s median {:.6} q1 {:.6} q3 {:.6} min {:.6} max {:.6}{}",
            s.n,
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.tail
                .map(|(p, v)| format!(" p{p} {v:.6}"))
                .unwrap_or_default()
        );
        Ok(s)
    }
}

/// Repeats `step` `count` times, stopping early once the loop has taken
/// [`OVERRUN_FACTOR`] times its planned `seconds`.
fn repeat(
    count: usize,
    seconds: f64,
    mut step: impl FnMut() -> Result<(), Box<dyn Error>>,
) -> Result<(), Box<dyn Error>> {
    let started = Instant::now();
    for i in 0..count {
        step()?;
        if started.elapsed().as_secs_f64() > OVERRUN_FACTOR * seconds {
            eprintln!(
                "benchmark: stopping after {} of {count} steps (over time)",
                i + 1
            );
            break;
        }
    }
    Ok(())
}

/// Median over runs of a per-run quantity.
fn median_of(runs: &[Run], f: impl Fn(&Run) -> f64) -> f64 {
    stats::median(&runs.iter().map(f).collect::<Vec<_>>())
}

fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

const MIB: f64 = 1024.0 * 1024.0;

/// The traced run: end-to-end invocations for the wall time to explain,
/// and untraced and traced in-process pipelines to explain it with.
#[allow(clippy::too_many_arguments)]
fn traced_run(
    w: Workload,
    args: &Args,
    prepared: &Prepared,
    procmine: &Path,
    work: &Path,
    ck: &Path,
    tally: &mut Tally,
) -> Result<RunResult, Box<dyn Error>> {
    // Each step runs one invocation and one untraced and one traced
    // in-process pipeline back to back, so a slow spell on the machine
    // hits both sides of the accounting alike.
    let steps = planned(args.seconds / 3.0, w.nominal_s(), MIN_TRACED_SAMPLES);
    let mut client = Client::new(w, prepared, procmine, work, ck);
    client.invoke(false, tally)?;
    let (mut untraced, mut traced) = (Vec::with_capacity(steps), Vec::with_capacity(steps));
    repeat(steps, args.seconds, || {
        client.invoke(true, tally)?;
        for (is_traced, runs) in [(false, &mut untraced), (true, &mut traced)] {
            let label = format!("in-process run {} (traced {is_traced})", runs.len());
            match pipeline::run(w, &prepared.input, work, is_traced) {
                Ok(run) if run.edges == prepared.edges => {
                    tally.record(&label, Ok(()));
                    runs.push(run);
                }
                Ok(_) => tally.record(&label, Err("mined edges differ from the reference".into())),
                Err(e) => tally.record(&label, Err(e.to_string())),
            }
        }
        Ok(())
    })?;
    if untraced.is_empty() || traced.is_empty() {
        return Err("no in-process run succeeded".into());
    }
    let wall = client.summary()?;
    let e2e = wall.median;
    let untraced_s = median_of(&untraced, |r| seconds(r.total_ns));
    let traced_s = median_of(&traced, |r| seconds(r.total_ns));
    // Tracing overhead is divided out of the traced self times in
    // proportion, so layer shares and the residual add up to one.
    let scale = untraced_s / traced_s;
    let layer_s = |layer: Layer| median_of(&traced, |r| seconds(r.self_of(layer)));
    let miner_s = |r: &Run| match w.mode() {
        Mode::Batch { .. } => seconds(r.self_of(Layer::Mine)),
        Mode::Follow { .. } => seconds(r.self_of(Layer::Absorb) + r.self_of(Layer::Snapshot)),
    };
    let count_s = |r: &Run| match w.mode() {
        Mode::Batch { .. } => seconds(
            r.miner.stage_nanos(procmine_core::Stage::Lower)
                + r.miner.stage_nanos(procmine_core::Stage::CountPairs),
        ),
        Mode::Follow { .. } => seconds(r.self_of(Layer::Absorb)),
    };
    let reduce_s = |r: &Run| seconds(r.miner.stage_nanos(procmine_core::Stage::Reduce));
    let residual_s = e2e - untraced_s;

    println!("layer                 self_s      calls  share_of_e2e");
    for layer in Layer::ALL {
        let calls = traced[0].calls[layer as usize];
        if calls > 0 {
            let s = layer_s(layer);
            println!(
                "{:<20} {:>8.4} {:>10} {:>12.1}%",
                layer.name(),
                s,
                calls,
                100.0 * s * scale / e2e
            );
        }
    }
    println!(
        "accounting {}: e2e {e2e:.4} s - layers {untraced_s:.4} s = residual {residual_s:.4} s \
         ({:.1}% of e2e); traced layers {traced_s:.4} s, tracing overhead {:.1}%",
        w.name(),
        100.0 * residual_s / e2e,
        100.0 * (traced_s / untraced_s - 1.0)
    );

    let last = traced.last().expect("at least one traced run");
    let trace_path = work.join(format!("trace-{}.json", w.name()));
    pipeline::write_chrome_trace(&trace_path, w, last)?;
    println!("trace {}", trace_path.display());

    let share = |s: f64| s * scale / e2e;
    let count = |f: fn(&Run) -> u64| median_of(&traced, |r| f(r) as f64);
    let mut v = Values::new(PER_LAYER);
    let decode_s = layer_s(Layer::Codec);
    v.set("codec.decode_s", decode_s);
    v.set("miner.total_s", median_of(&traced, miner_s));
    v.set("miner.count_pairs_s", median_of(&traced, count_s));
    v.set("miner.reduce_s", median_of(&traced, reduce_s));
    v.set(
        "miner.other_s",
        median_of(&traced, |r| miner_s(r) - count_s(r) - reduce_s(r)),
    );
    v.set("cli.residual_s", residual_s);
    v.set("codec.mb_per_s", prepared.bytes as f64 / 1e6 / decode_s);
    v.set("codec.share", share(decode_s));
    v.set("assembler.share", share(layer_s(Layer::Assembler)));
    v.set("miner.share", share(median_of(&traced, miner_s)));
    v.set("report.routes_share", share(layer_s(Layer::Routes)));
    v.set("report.gateways_share", share(layer_s(Layer::Gateways)));
    v.set("conformance.share", share(layer_s(Layer::Conformance)));
    v.set("checkpoint.share", share(layer_s(Layer::Checkpoint)));
    v.set("teardown.share", share(layer_s(Layer::Teardown)));
    v.set("cli.residual_share", residual_s / e2e);
    v.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    v.set("codec.events", count(|r| r.counts.events));
    v.set("codec.errors", count(|r| r.counts.decode_errors));
    let mib = |f: fn(&Run) -> i64| median_of(&traced, |r| f(r) as f64 / MIB);
    v.set("log.heap_mb", mib(|r| r.counts.log_heap));
    v.set("online.heap_mb", mib(|r| r.counts.online_heap));
    v.set("pipeline.peak_heap_mb", mib(|r| r.counts.peak_heap));
    v.set(
        "assembler.open_cases_max",
        count(|r| r.counts.open_cases_max),
    );
    v.set("assembler.cases_evicted", count(|r| r.counts.cases_evicted));
    v.set("online.executions", count(|r| r.counts.executions_absorbed));
    v.set("snapshot.count", count(|r| r.counts.snapshots));
    v.set(
        "snapshot.rescan_ratio",
        median_of(&traced, |r| match w.mode() {
            Mode::Follow { .. } => {
                r.miner.executions_scanned as f64 / r.counts.executions_absorbed.max(1) as f64
            }
            Mode::Batch { .. } => 0.0,
        }),
    );
    v.set("checkpoint.saves", count(|r| r.counts.checkpoint_saves));
    v.set("checkpoint.bytes", count(|r| r.counts.checkpoint_bytes));
    v.set("miner.pairs_counted", count(|r| r.miner.pairs_counted));
    v.set("miner.edges_final", count(|r| r.miner.edges_final));
    v.set("miner.arena_bytes", count(|r| r.miner.arena_bytes));
    v.set(
        "conformance.executions",
        count(|r| r.counts.conformance_executions),
    );
    v.set(
        "conformance.violations",
        count(|r| r.counts.conformance_violations),
    );
    Ok(RunResult {
        metrics: v.finish()?,
        wall,
    })
}

/// The model name of the first CPU, from `/proc/cpuinfo`.
fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Writes the run's full record: the machine, the sample sizes and
/// wall-time quartiles, the descriptors, and the metrics.
fn write_result_file(
    path: &Path,
    args: &Args,
    setup_s: &[f64],
    descriptors: &Descriptors,
    result: &RunResult,
    correct: bool,
    tally: &Tally,
) -> std::io::Result<()> {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let w = &result.wall;
    let descriptors: Vec<String> = descriptors
        .fields()
        .iter()
        .map(|(k, v)| format!("{}:{v:?}", metrics::json_str(k)))
        .collect();
    let setups: Vec<String> = setup_s.iter().map(|s| format!("{s:?}")).collect();
    let json = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{:?},\"trace\":{},\
         \"available_parallelism\":{parallelism},\"cpu_model\":{},\
         \"invocations\":{},\"warmup_invocations\":1,\
         \"wall_s\":{{\"min\":{:?},\"q1\":{:?},\"median\":{:?},\"q3\":{:?},\"max\":{:?}}},\
         \"setup_s\":[{}],\"descriptors\":{{{}}},\
         \"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}\n",
        metrics::json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        metrics::json_str(&cpu_model()),
        w.n,
        w.min,
        w.q1,
        w.median,
        w.q3,
        w.max,
        setups.join(","),
        descriptors.join(","),
        tally.attempted,
        tally.failed,
        metrics::json_metrics(&result.metrics),
    );
    fs::write(path, json)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced pipeline on a tiny input of every workload shape:
    /// layers account for the whole traced total and the model matches
    /// the reference miner.
    #[test]
    fn traced_pipeline_smoke() {
        let dir = std::env::temp_dir().join(format!("procmine-benchmark-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        for w in Workload::ALL {
            let log = workload::generate(w.shape(), 30, 5).unwrap();
            let input = dir.join(w.name());
            fs::write(&input, workload::encode(w, 5, &log).unwrap()).unwrap();
            let (reference, _) = procmine_core::reference::mine_general_reference(
                &log,
                &procmine_core::MinerOptions::default(),
            )
            .unwrap();
            let expected = pipeline::sorted_edges(&reference);
            for traced in [false, true] {
                let run = pipeline::run(w, &input, &dir, traced).unwrap();
                assert_eq!(run.edges, expected, "{} traced {traced}", w.name());
                if traced {
                    let layers: u64 = run.self_ns.iter().sum();
                    assert!(
                        layers <= run.total_ns,
                        "{}: layers exceed the total",
                        w.name()
                    );
                    assert!(
                        layers as f64 >= 0.9 * run.total_ns as f64,
                        "{}: layers {layers} ns of {} ns",
                        w.name(),
                        run.total_ns
                    );
                    assert!(run.self_of(Layer::Codec) > 0);
                    assert_eq!(
                        run.counts.events as usize,
                        2 * log.executions().iter().map(|e| e.len()).sum::<usize>()
                    );
                    assert!(run.counts.peak_heap > 0);
                    match w.mode() {
                        Mode::Batch { check, .. } => {
                            assert!(run.counts.log_heap > 0);
                            assert_eq!(
                                run.counts.conformance_executions,
                                if check { 30 } else { 0 }
                            );
                        }
                        Mode::Follow {
                            checkpoint_every, ..
                        } => {
                            assert_eq!(run.counts.executions_absorbed, 30);
                            assert!(run.counts.snapshots >= 1);
                            assert_eq!(run.counts.checkpoint_saves > 0, checkpoint_every.is_some());
                        }
                    }
                    let trace = dir.join(format!("{}.trace.json", w.name()));
                    pipeline::write_chrome_trace(&trace, w, &run).unwrap();
                    let doc: serde_json::Value =
                        serde_json::from_str(&fs::read_to_string(&trace).unwrap()).unwrap();
                    assert!(doc.get("traceEvents").is_some());
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn planned_counts_have_a_floor() {
        assert_eq!(planned(12.0, 0.8, 5), 15);
        assert_eq!(planned(1.0, 0.8, 5), 5);
        assert_eq!(planned(6.0, 1.6, 3), 4);
    }
}
