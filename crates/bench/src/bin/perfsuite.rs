//! The unified perf-regression harness.
//!
//! Runs a fixed matrix of (workload × pipeline stage) timings — the
//! §8.1 random-walk workloads through every miner, conformance
//! checking, the four codec round-trips and the Flowmark and XES
//! decodes on their own (`ingest.*`), plus micro-benchmarks of
//! the transitive-reduction and SCC graph phases — and writes
//! median/p95 wall times to a schema-stable JSON report
//! (`BENCH_perfsuite.json` by default). With `--compare old.json` it
//! diffs the fresh run against a saved baseline and exits nonzero when
//! any cell's median regressed past the threshold, so CI can gate on
//! performance without Criterion's runtime cost.
//!
//! ```text
//! perfsuite [--smoke] [--out FILE] [--repeats N] [--compare OLD.json]
//!           [--threshold-pct N] [--check-schema FILE] [--normalize]
//!           [--assert-xes-ratio FILE] [--assert-checkpoint-ratio FILE]
//!           [--assert-columnar-ratio FILE]
//! ```
//!
//! `--normalize` adds a `ratio_vs_general` field to every cell: its
//! median as a multiple of the same-scenario `mine.general` median, so
//! stage costs read as fractions of the reference pipeline.
//!
//! `--assert-xes-ratio FILE` runs no benchmarks: it loads a saved
//! report and fails when any scenario's `codec.xes` median exceeds
//! [`XES_RATIO_LIMIT`] times its `codec.jsonl` median — the codec
//! fast-path gate, pinned against the committed baseline.
//!
//! `--assert-checkpoint-ratio FILE` is the same kind of saved-report
//! gate for the `--follow` checkpoint subsystem: it fails when any
//! scenario's `stream.checkpoint` median (the follow pipeline with
//! cadenced atomic checkpoint saves, amortized per pass) exceeds
//! [`CHECKPOINT_RATIO_LIMIT`] times its `stream.mine` median.
//!
//! `--assert-columnar-ratio FILE` is the saved-report gate for the
//! columnar data-layer refactor: every scenario's `mine.columnar_ratio`
//! cell (the `mine.general` median over the `mine.legacy` median, in
//! milli-units — 1000 is parity) must stay at or below
//! [`COLUMNAR_RATIO_MILLI_LIMIT`], i.e. the columnar path may never be
//! slower than the retained nested-`Vec` reference implementation on
//! the §8.1 workloads.
//!
//! Exit status: 0 on success, 1 on usage or I/O errors, 2 when
//! `--compare` found regressions, 3 when the disabled-tracer overhead
//! guard tripped (a default-session `mine_general_dag_in` call
//! measurably slower than the plain entry point), 4 when
//! `--assert-xes-ratio` found the XES decoder too far behind JSONL,
//! 5 when `--assert-checkpoint-ratio` found checkpointing too far
//! above the plain follow pipeline, 6 when the disabled-registry
//! overhead guard tripped (a session explicitly carrying
//! `Registry::disabled()` measurably slower than the plain entry
//! point), 7 when `--assert-columnar-ratio` found the columnar miner
//! slower than the legacy layout.

use procmine_bench::perf::{
    compare, max_stage_ratio, normalize, summarize, Cell, RegistryOverhead, Report, TraceOverhead,
};
use procmine_bench::synthetic_workload;
use procmine_core::conformance::check_conformance;
use procmine_core::reference::mine_general_reference;
use procmine_core::{
    mine_auto, mine_cyclic, mine_general_dag, mine_general_dag_in, FollowCheckpoint, MineSession,
    MinerOptions, OnlineMiner, OptionsFingerprint, Registry, SnapshotPolicy, SourceState,
    DEFAULT_CHECKPOINT_EVERY,
};
use procmine_graph::reduction::{
    transitive_reduction_matrix, transitive_reduction_matrix_parallel_budgeted,
};
use procmine_graph::scc::{tarjan_scc, tarjan_scc_parallel_budgeted};
use procmine_graph::{AdjMatrix, Budget, DiGraph};
use procmine_log::codec;
use procmine_log::{RecoveryPolicy, WorkflowLog};
use std::fs;
use std::process::ExitCode;
use std::time::Instant;

/// Ratio above which disabled tracing counts as "not free". The plain
/// miners run through a default session, so today's expected ratio is
/// ~1.0; the guard exists to catch future divergence.
const TRACE_OVERHEAD_LIMIT: f64 = 1.5;

/// Ratio above which a disabled metrics registry counts as "not free".
/// Same contract as the tracer guard: a disabled [`Registry`] never
/// reads the clock and every recording path is a single branch, so a
/// session carrying one must track the plain entry point.
const REGISTRY_OVERHEAD_LIMIT: f64 = 1.5;

/// Thread count for the parallel micro cells and `mine.parallel4`.
const MICRO_THREADS: usize = 4;

/// `--assert-xes-ratio` limit: the `codec.xes` median may cost at most
/// this multiple of the same-scenario `codec.jsonl` median. The
/// zero-copy XES parser landed well under it; the gate keeps the XML
/// path from quietly sliding back to its pre-rewrite 10–20x.
const XES_RATIO_LIMIT: f64 = 2.0;

/// `--assert-checkpoint-ratio` limit: the `stream.checkpoint` median
/// (follow pipeline + cadenced atomic saves, amortized per pass) may
/// cost at most this multiple of the same-scenario `stream.mine`
/// median. At [`DEFAULT_CHECKPOINT_EVERY`] the save's ~1.5ms fsync is
/// spread over enough consumed events to stay inside 10%.
const CHECKPOINT_RATIO_LIMIT: f64 = 1.10;

/// `--assert-columnar-ratio` limit, in milli-units: the
/// `mine.columnar_ratio` cell (columnar `mine.general` median × 1000 /
/// `mine.legacy` median) must not exceed 1000 — the columnar layout
/// must be at least at parity with the nested-`Vec` reference path it
/// replaced.
const COLUMNAR_RATIO_MILLI_LIMIT: u64 = 1000;

/// [`MICRO_THREADS`] clamped to the host's cores: oversubscribing a
/// smaller machine only measures context-switch thrash, so on (say) a
/// single-core runner the parallel micro cells exercise the kernels'
/// serial fallback instead and stay comparable to the serial cells.
fn micro_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(MICRO_THREADS)
}

struct Args {
    smoke: bool,
    out: String,
    repeats: usize,
    compare: Option<String>,
    threshold_pct: f64,
    check_schema: Option<String>,
    assert_xes_ratio: Option<String>,
    assert_checkpoint_ratio: Option<String>,
    assert_columnar_ratio: Option<String>,
    normalize: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        out: "BENCH_perfsuite.json".to_string(),
        repeats: 0, // resolved after --smoke is known
        compare: None,
        threshold_pct: 15.0,
        check_schema: None,
        assert_xes_ratio: None,
        assert_checkpoint_ratio: None,
        assert_columnar_ratio: None,
        normalize: false,
    };
    let mut repeats: Option<usize> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = value("--out")?,
            "--repeats" => {
                repeats = Some(
                    value("--repeats")?
                        .parse()
                        .map_err(|e| format!("--repeats: {e}"))?,
                );
            }
            "--compare" => args.compare = Some(value("--compare")?),
            "--threshold-pct" => {
                args.threshold_pct = value("--threshold-pct")?
                    .parse()
                    .map_err(|e| format!("--threshold-pct: {e}"))?;
            }
            "--check-schema" => args.check_schema = Some(value("--check-schema")?),
            "--assert-xes-ratio" => args.assert_xes_ratio = Some(value("--assert-xes-ratio")?),
            "--assert-checkpoint-ratio" => {
                args.assert_checkpoint_ratio = Some(value("--assert-checkpoint-ratio")?);
            }
            "--assert-columnar-ratio" => {
                args.assert_columnar_ratio = Some(value("--assert-columnar-ratio")?);
            }
            "--normalize" => args.normalize = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.repeats = repeats.unwrap_or(if args.smoke { 3 } else { 5 });
    if args.repeats == 0 {
        return Err("--repeats must be positive".to_string());
    }
    Ok(args)
}

/// Times `op` (after `setup`-free warmup) `repeats` times in
/// nanoseconds. One untimed warmup run absorbs cold caches and lazy
/// allocations.
fn time_runs<F: FnMut()>(repeats: usize, mut op: F) -> Vec<u64> {
    op();
    (0..repeats)
        .map(|_| {
            let started = Instant::now();
            op();
            started.elapsed().as_nanos() as u64
        })
        .collect()
}

/// The names of a log's executions, for replaying through the
/// online miner's `absorb_sequence`.
fn sequences(log: &WorkflowLog) -> Vec<Vec<String>> {
    log.executions()
        .iter()
        .map(|exec| {
            exec.sequence()
                .iter()
                .map(|&a| log.activities().name(a).to_string())
                .collect()
        })
        .collect()
}

fn workload_cells(scenario: &str, log: &WorkflowLog, repeats: usize, cells: &mut Vec<Cell>) {
    let options = MinerOptions::default();

    let general = summarize(
        scenario,
        "mine.general",
        time_runs(repeats, || {
            mine_general_dag(log, &options).expect("mining succeeds");
        }),
    );
    // The retained nested-`Vec` implementation the columnar refactor
    // replaced: same Algorithm 2 semantics (pinned by the differential
    // suite), pre-refactor data layout.
    let legacy = summarize(
        scenario,
        "mine.legacy",
        time_runs(repeats, || {
            mine_general_reference(log, &options).expect("mining succeeds");
        }),
    );
    // Derived cell in milli-units (1000 == parity) so the committed
    // baseline records how the columnar layout compares to the legacy
    // one, and `--assert-columnar-ratio` can gate on it.
    let milli = |num: u64, den: u64| num.saturating_mul(1000) / den.max(1);
    cells.push(Cell {
        scenario: scenario.to_string(),
        stage: "mine.columnar_ratio".to_string(),
        median_ns: milli(general.median_ns, legacy.median_ns),
        p95_ns: milli(general.p95_ns, legacy.p95_ns),
        runs: repeats,
        ratio_vs_general: None,
    });
    cells.push(general);
    cells.push(legacy);
    cells.push(summarize(
        scenario,
        "mine.auto",
        time_runs(repeats, || {
            mine_auto(log, &options).expect("mining succeeds");
        }),
    ));
    cells.push(summarize(
        scenario,
        "mine.cyclic",
        time_runs(repeats, || {
            mine_cyclic(log, &options).expect("mining succeeds");
        }),
    ));
    cells.push(summarize(
        scenario,
        "mine.parallel4",
        time_runs(repeats, || {
            mine_general_dag_in(
                &mut MineSession::new().with_threads(MICRO_THREADS),
                log,
                &options,
            )
            .expect("mining succeeds");
        }),
    ));

    let seqs = sequences(log);
    cells.push(summarize(
        scenario,
        "mine.incremental",
        time_runs(repeats, || {
            let mut miner = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
            for seq in &seqs {
                miner.absorb_sequence(seq).expect("absorb succeeds");
            }
            miner.snapshot().expect("snapshot succeeds");
        }),
    ));

    // The --follow pipeline end to end: decode a pre-encoded flowmark
    // buffer event-by-event, assemble interleavable cases, feed the
    // online miner, and materialize the final snapshot. One pass over
    // the workload is sub-10ms — scheduler-noise territory — so the
    // cell loops enough passes to cover two DEFAULT_CHECKPOINT_EVERY
    // cadence windows and records per-pass time. stream.checkpoint
    // below runs the identical pass count with the checkpoint
    // subsystem engaged, so their ratio isolates the checkpoint cost.
    let mut follow_buf = Vec::new();
    codec::flowmark::write_log(log, &mut follow_buf).expect("write succeeds");
    let events_per_pass: u64 = log.executions().iter().map(|e| e.len() as u64).sum();
    let passes = (2 * DEFAULT_CHECKPOINT_EVERY / events_per_pass.max(1) + 1) as usize;
    let follow_pass = |capture: bool| -> Option<FollowCheckpoint> {
        use procmine_log::stream::{AssemblerConfig, CaseAssembler, FlowmarkSource, StreamError};
        use procmine_log::{ActivityTable, Execution};
        let mut miner = OnlineMiner::new(options.clone(), SnapshotPolicy::on_demand());
        let mut source = FlowmarkSource::new(&follow_buf[..], RecoveryPolicy::Strict);
        let mut assembler = CaseAssembler::new(
            AssemblerConfig::default(),
            |exec: &Execution, table: &ActivityTable| -> Result<(), StreamError> {
                miner
                    .absorb(exec, table)
                    .map(|_| ())
                    .map_err(|e| StreamError::Sink(Box::new(e)))
            },
        );
        source.pump(&mut assembler).expect("stream succeeds");
        let assembler_state = capture.then(|| assembler.export_state());
        drop(assembler);
        let ck = assembler_state.map(|assembler_state| {
            let (byte_offset, line) = source.position();
            FollowCheckpoint {
                fingerprint: OptionsFingerprint {
                    noise_threshold: options.noise_threshold,
                    max_open_cases: 1024,
                    strict_assembly: true,
                },
                miner: miner.export_state(),
                assembler: assembler_state,
                source: SourceState {
                    byte_offset,
                    line: line as u64,
                    source_len: follow_buf.len() as u64,
                    stats: source.stats(),
                    report: source.report().clone(),
                },
            }
        });
        miner.snapshot().expect("snapshot succeeds");
        ck
    };
    cells.push(summarize(
        scenario,
        "stream.mine",
        time_runs(repeats, || {
            for _ in 0..passes {
                follow_pass(false);
            }
        })
        .into_iter()
        .map(|ns| ns / passes as u64)
        .collect(),
    ));

    // The same pipeline with the checkpoint subsystem engaged: a real
    // atomic save (tmp + fsync + rename) every DEFAULT_CHECKPOINT_EVERY
    // consumed events — the steady-state cost of a crash-safe session
    // (the load side runs once per restart, not per cadence; its
    // correctness is pinned by tests/checkpoint_recovery.rs). The
    // carry counter survives passes and runs, exactly like a
    // long-lived follow session, so each run pays for exactly the
    // saves the cadence demands. Per-pass time, same pass count as
    // stream.mine; the --assert-checkpoint-ratio gate pins the ratio.
    let ck_path = std::env::temp_dir().join(format!(
        "procmine-perfsuite-{}-{scenario}.ckpt",
        std::process::id()
    ));
    let mut carry = 0u64;
    let runs = time_runs(repeats, || {
        for _ in 0..passes {
            carry += events_per_pass;
            let checkpoint_now = carry >= DEFAULT_CHECKPOINT_EVERY;
            if let Some(ck) = follow_pass(checkpoint_now) {
                carry = 0;
                ck.save(&ck_path).expect("save succeeds");
            }
        }
    });
    let _ = fs::remove_file(&ck_path);
    cells.push(summarize(
        scenario,
        "stream.checkpoint",
        runs.into_iter().map(|ns| ns / passes as u64).collect(),
    ));

    let model = mine_general_dag(log, &options).expect("mining succeeds");
    cells.push(summarize(
        scenario,
        "check_conformance",
        time_runs(repeats, || {
            check_conformance(&model, log);
        }),
    ));

    // Codec round-trips: serialize to a buffer, parse it back.
    macro_rules! codec_cell {
        ($stage:literal, $module:ident) => {
            cells.push(summarize(
                scenario,
                $stage,
                time_runs(repeats, || {
                    let mut buf = Vec::new();
                    codec::$module::write_log(log, &mut buf).expect("write succeeds");
                    codec::$module::read_log(&buf[..]).expect("read succeeds");
                }),
            ));
        };
    }
    codec_cell!("codec.flowmark", flowmark);
    codec_cell!("codec.seqs", seqs);
    codec_cell!("codec.jsonl", jsonl);
    codec_cell!("codec.xes", xes);

    // Decode only: `read_log` over a buffer encoded once, outside the
    // timed runs — the half of a codec cell a batch `mine` waits for.
    macro_rules! ingest_cell {
        ($stage:literal, $module:ident) => {
            let mut encoded = Vec::new();
            codec::$module::write_log(log, &mut encoded).expect("write succeeds");
            cells.push(summarize(
                scenario,
                $stage,
                time_runs(repeats, || {
                    codec::$module::read_log(&encoded[..]).expect("read succeeds");
                }),
            ));
        };
    }
    ingest_cell!("ingest.flowmark", flowmark);
    ingest_cell!("ingest.xes", xes);

    // Read→write round-trip from a pre-encoded buffer: isolates the
    // decode+encode cost from the initial materialization above.
    let mut pre_encoded = Vec::new();
    codec::xes::write_log(log, &mut pre_encoded).expect("write succeeds");
    cells.push(summarize(
        scenario,
        "codec.xes_roundtrip",
        time_runs(repeats, || {
            let back = codec::xes::read_log(&pre_encoded[..]).expect("read succeeds");
            let mut out = Vec::new();
            codec::xes::write_log(&back, &mut out).expect("write succeeds");
        }),
    ));
}

/// `k` disjoint directed cycles whose sizes sum to `total` vertices
/// (and therefore `total` edges) — the same V+E as one big cycle, but
/// with `k` weak components for the parallel SCC to spread over.
fn disjoint_cycles(total: usize, k: usize) -> DiGraph<()> {
    let base = total / k;
    let extra = total % k;
    let mut edges = Vec::with_capacity(total);
    let mut start = 0;
    for i in 0..k {
        let len = base + usize::from(i < extra);
        for j in 0..len {
            edges.push((start + j, start + (j + 1) % len));
        }
        start += len;
    }
    DiGraph::from_edges(vec![(); total], edges)
}

/// Micro-benchmarks of the two graph phases the miners lean on — matrix
/// transitive reduction over a transitive tournament (worst case — every
/// edge above the diagonal) and Tarjan SCC over 64 disjoint directed
/// cycles — each in its serial form and its [`micro_threads`]-way
/// parallel strategy.
fn micro_cells(smoke: bool, repeats: usize, cells: &mut Vec<Cell>) {
    let n = if smoke { 100 } else { 300 };
    let mut tournament = AdjMatrix::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            tournament.add_edge(u, v);
        }
    }
    cells.push(summarize(
        "micro",
        "transitive_reduction",
        time_runs(repeats, || {
            transitive_reduction_matrix(&tournament).expect("tournament is a DAG");
        }),
    ));
    cells.push(summarize(
        "micro",
        "transitive_reduction_parallel",
        time_runs(repeats, || {
            transitive_reduction_matrix_parallel_budgeted(
                &tournament,
                micro_threads(),
                &Budget::unlimited(),
            )
            .expect("tournament is a DAG");
        }),
    ));

    let cycle_n = if smoke { 2_000 } else { 10_000 };
    let cycles = disjoint_cycles(cycle_n, 64);
    cells.push(summarize(
        "micro",
        "scc",
        time_runs(repeats, || {
            tarjan_scc(&cycles);
        }),
    ));
    cells.push(summarize(
        "micro",
        "scc_parallel",
        time_runs(repeats, || {
            tarjan_scc_parallel_budgeted(&cycles, micro_threads(), &Budget::unlimited())
                .expect("unlimited budget");
        }),
    ));
}

/// Measures the disabled-tracer overhead: the plain general miner
/// against `mine_general_dag_in` with a default session (null sink,
/// no-op tracer), interleaved so drift hits both arms equally.
fn trace_overhead(log: &WorkflowLog, repeats: usize) -> TraceOverhead {
    let options = MinerOptions::default();
    let mut plain = Vec::with_capacity(repeats);
    let mut traced = Vec::with_capacity(repeats);
    mine_general_dag(log, &options).expect("mining succeeds"); // warmup
    for _ in 0..repeats {
        let started = Instant::now();
        mine_general_dag(log, &options).expect("mining succeeds");
        plain.push(started.elapsed().as_nanos() as u64);

        let started = Instant::now();
        mine_general_dag_in(&mut MineSession::new(), log, &options).expect("mining succeeds");
        traced.push(started.elapsed().as_nanos() as u64);
    }
    let plain_cell = summarize("overhead", "plain", plain);
    let traced_cell = summarize("overhead", "traced", traced);
    TraceOverhead {
        plain_median_ns: plain_cell.median_ns,
        traced_disabled_median_ns: traced_cell.median_ns,
        ratio: traced_cell.median_ns as f64 / plain_cell.median_ns.max(1) as f64,
    }
}

/// Measures the disabled-registry overhead: the plain general miner
/// against `mine_general_dag_in` with a session explicitly carrying
/// `Registry::disabled()`, interleaved so drift hits both arms equally.
/// Every stage boundary consults the registry (`Registry::start`), so
/// a disabled handle that started reading the clock — or grew a lookup
/// on the record path — shows up here.
fn registry_overhead(log: &WorkflowLog, repeats: usize) -> RegistryOverhead {
    let options = MinerOptions::default();
    let mut plain = Vec::with_capacity(repeats);
    let mut metered = Vec::with_capacity(repeats);
    mine_general_dag(log, &options).expect("mining succeeds"); // warmup
    for _ in 0..repeats {
        let started = Instant::now();
        mine_general_dag(log, &options).expect("mining succeeds");
        plain.push(started.elapsed().as_nanos() as u64);

        let started = Instant::now();
        mine_general_dag_in(
            &mut MineSession::new().with_obs(Registry::disabled()),
            log,
            &options,
        )
        .expect("mining succeeds");
        metered.push(started.elapsed().as_nanos() as u64);
    }
    let plain_cell = summarize("overhead", "plain", plain);
    let metered_cell = summarize("overhead", "registry_disabled", metered);
    RegistryOverhead {
        plain_median_ns: plain_cell.median_ns,
        registry_disabled_median_ns: metered_cell.median_ns,
        ratio: metered_cell.median_ns as f64 / plain_cell.median_ns.max(1) as f64,
    }
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;

    if let Some(path) = &args.check_schema {
        let json = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = Report::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid perfsuite report ({} mode, {} cells)",
            report.mode,
            report.cells.len()
        );
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &args.assert_xes_ratio {
        let json = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = Report::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        let Some(worst) = max_stage_ratio(&report.cells, "codec.xes", "codec.jsonl") else {
            return Err(format!(
                "{path}: no scenario carries both codec.xes and codec.jsonl cells"
            ));
        };
        if worst > XES_RATIO_LIMIT {
            eprintln!(
                "FAIL: codec.xes runs {worst:.2}x codec.jsonl in {path} (limit {XES_RATIO_LIMIT}x)"
            );
            return Ok(ExitCode::from(4));
        }
        println!("{path}: codec.xes within {worst:.2}x of codec.jsonl (limit {XES_RATIO_LIMIT}x)");
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &args.assert_checkpoint_ratio {
        let json = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = Report::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        let Some(worst) = max_stage_ratio(&report.cells, "stream.checkpoint", "stream.mine") else {
            return Err(format!(
                "{path}: no scenario carries both stream.checkpoint and stream.mine cells"
            ));
        };
        if worst > CHECKPOINT_RATIO_LIMIT {
            eprintln!(
                "FAIL: stream.checkpoint runs {worst:.2}x stream.mine in {path} \
                 (limit {CHECKPOINT_RATIO_LIMIT}x)"
            );
            return Ok(ExitCode::from(5));
        }
        println!(
            "{path}: stream.checkpoint within {worst:.2}x of stream.mine \
             (limit {CHECKPOINT_RATIO_LIMIT}x)"
        );
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(path) = &args.assert_columnar_ratio {
        let json = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report = Report::from_json(&json).map_err(|e| format!("{path}: {e}"))?;
        let worst = report
            .cells
            .iter()
            .filter(|c| c.stage == "mine.columnar_ratio")
            .map(|c| c.median_ns)
            .max();
        let Some(worst) = worst else {
            return Err(format!(
                "{path}: no scenario carries a mine.columnar_ratio cell"
            ));
        };
        if worst > COLUMNAR_RATIO_MILLI_LIMIT {
            eprintln!(
                "FAIL: columnar mine.general runs {:.2}x mine.legacy in {path} (limit {:.2}x)",
                worst as f64 / 1000.0,
                COLUMNAR_RATIO_MILLI_LIMIT as f64 / 1000.0
            );
            return Ok(ExitCode::from(7));
        }
        println!(
            "{path}: columnar mine.general within {:.2}x of mine.legacy (limit {:.2}x)",
            worst as f64 / 1000.0,
            COLUMNAR_RATIO_MILLI_LIMIT as f64 / 1000.0
        );
        return Ok(ExitCode::SUCCESS);
    }

    // Fixed workload matrix: §8.1 random-walk logs over the paper's
    // generating-graph sizes, deterministic seeds.
    let workloads: Vec<(String, usize, usize, usize, u64)> = if args.smoke {
        vec![("rw10x24m200".to_string(), 10, 24, 200, 7)]
    } else {
        vec![
            ("rw10x24m1000".to_string(), 10, 24, 1_000, 7),
            ("rw25x224m1000".to_string(), 25, 224, 1_000, 11),
            ("rw50x1058m1000".to_string(), 50, 1_058, 1_000, 13),
        ]
    };

    let mut cells = Vec::new();
    let mut overhead_log = None;
    for (scenario, n, edges, m, seed) in &workloads {
        eprintln!("perfsuite: {scenario} ({} repeats)", args.repeats);
        let (_, log) = synthetic_workload(*n, *edges, *m, *seed);
        workload_cells(scenario, &log, args.repeats, &mut cells);
        overhead_log.get_or_insert(log);
    }
    eprintln!("perfsuite: micro graph phases");
    micro_cells(args.smoke, args.repeats, &mut cells);

    if args.normalize {
        normalize(&mut cells);
    }

    eprintln!("perfsuite: trace-overhead guard");
    let overhead = overhead_log
        .as_ref()
        .map(|log| trace_overhead(log, args.repeats.max(5)));
    eprintln!("perfsuite: registry-overhead guard");
    let reg_overhead = overhead_log
        .as_ref()
        .map(|log| registry_overhead(log, args.repeats.max(5)));

    let report = Report {
        mode: if args.smoke { "smoke" } else { "full" }.to_string(),
        repeats: args.repeats,
        cells,
        trace_overhead: overhead.clone(),
        registry_overhead: reg_overhead.clone(),
    };
    fs::write(&args.out, report.to_json()).map_err(|e| format!("{}: {e}", args.out))?;
    eprintln!("wrote {} ({} cells)", args.out, report.cells.len());

    let mut status = ExitCode::SUCCESS;

    if let Some(t) = &overhead {
        eprintln!(
            "trace overhead: plain {}ns vs disabled-tracer {}ns (ratio {:.3})",
            t.plain_median_ns, t.traced_disabled_median_ns, t.ratio
        );
        if t.ratio > TRACE_OVERHEAD_LIMIT {
            eprintln!(
                "FAIL: disabled tracing costs {:.0}% (limit {:.0}%)",
                (t.ratio - 1.0) * 100.0,
                (TRACE_OVERHEAD_LIMIT - 1.0) * 100.0
            );
            status = ExitCode::from(3);
        }
    }

    if let Some(r) = &reg_overhead {
        eprintln!(
            "registry overhead: plain {}ns vs disabled-registry {}ns (ratio {:.3})",
            r.plain_median_ns, r.registry_disabled_median_ns, r.ratio
        );
        if r.ratio > REGISTRY_OVERHEAD_LIMIT {
            eprintln!(
                "FAIL: disabled metrics registry costs {:.0}% (limit {:.0}%)",
                (r.ratio - 1.0) * 100.0,
                (REGISTRY_OVERHEAD_LIMIT - 1.0) * 100.0
            );
            status = ExitCode::from(6);
        }
    }

    if let Some(baseline_path) = &args.compare {
        let json =
            fs::read_to_string(baseline_path).map_err(|e| format!("{baseline_path}: {e}"))?;
        let baseline = Report::from_json(&json).map_err(|e| format!("{baseline_path}: {e}"))?;
        let regressions = compare(&baseline.cells, &report.cells, args.threshold_pct);
        if regressions.is_empty() {
            eprintln!(
                "no regressions vs {baseline_path} (threshold {:.0}%)",
                args.threshold_pct
            );
        } else {
            for r in &regressions {
                eprintln!(
                    "REGRESSION {}/{}: {}ns -> {}ns ({:.2}x)",
                    r.scenario, r.stage, r.old_median_ns, r.new_median_ns, r.ratio
                );
            }
            eprintln!(
                "{} regression(s) vs {baseline_path} (threshold {:.0}%)",
                regressions.len(),
                args.threshold_pct
            );
            status = ExitCode::from(2);
        }
    }

    Ok(status)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfsuite: {e}");
            ExitCode::FAILURE
        }
    }
}
