//! The mining session: one place to carry *how* a pipeline run should
//! execute — metrics sink, tracer, metrics registry, and thread count —
//! so the miners themselves only describe *what* each stage computes.
//!
//! A [`MineSession`] is the single way to configure instrumentation
//! (the retired twin entry points hand-threaded `(sink, tracer)`
//! through every call instead). The convenience miners
//! (`mine_general_dag(log, &options)` etc.) build a default session
//! internally; instrumented callers build one explicitly:
//!
//! ```
//! use procmine_core::{mine_general_dag_in, MineSession, MinerMetrics, MinerOptions, Tracer};
//! use procmine_log::WorkflowLog;
//!
//! let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
//! let mut metrics = MinerMetrics::new();
//! let tracer = Tracer::new();
//! let mut session = MineSession::new()
//!     .with_tracer(tracer.clone())
//!     .with_sink(&mut metrics);
//! let model = mine_general_dag_in(&mut session, &log, &MinerOptions::default()).unwrap();
//! assert_eq!(metrics.edges_final, model.edge_count() as u64);
//! assert!(!tracer.records().is_empty());
//! ```
//!
//! Sessions also carry the execution strategy: [`with_threads`]
//! (MineSession::with_threads) turns the heavy stages (pair counting,
//! the marking pass, SCC dissolution, global transitive reduction) into
//! fan-out/join barriers over scoped threads, while the cheap stages
//! keep their serial bodies — the parallel miner is a per-stage
//! strategy, not a fork of the pipeline.
//!
//! Resource limits are not session state: each run starts its deadline
//! from `options.limits` ([`MinerOptions`](crate::MinerOptions)) at
//! miner entry.

use crate::limits::Deadline;
use crate::obs::Registry;
use crate::telemetry::{MetricsSink, NullSink, Stage};
use crate::trace::Tracer;
use crate::MineError;
use std::time::Instant;

/// A configured pipeline run: metrics sink, tracer, registry, and
/// thread count, set with the builder methods
/// ([`with_sink`](MineSession::with_sink),
/// [`with_tracer`](MineSession::with_tracer),
/// [`with_obs`](MineSession::with_obs),
/// [`with_threads`](MineSession::with_threads)). `S` defaults to
/// [`NullSink`], so `MineSession::new()` is the fully disabled
/// (zero-cost) session.
///
/// The sink is held by value. To record into caller-owned metrics,
/// pass a mutable reference — `&mut M` is itself a
/// [`MetricsSink`] — and read the metrics after the run.
#[derive(Debug)]
pub struct MineSession<S = NullSink> {
    pub(crate) sink: S,
    pub(crate) tracer: Tracer,
    pub(crate) obs: Registry,
    pub(crate) threads: usize,
}

impl MineSession<NullSink> {
    /// A fully disabled session: no metrics, no tracing, serial
    /// execution. The convenience miners use this internally.
    pub fn new() -> Self {
        MineSession {
            sink: NullSink,
            tracer: Tracer::disabled(),
            obs: Registry::disabled(),
            threads: 1,
        }
    }
}

impl Default for MineSession<NullSink> {
    fn default() -> Self {
        MineSession::new()
    }
}

impl<S> MineSession<S> {
    /// Replaces the metrics sink, changing the session's sink type.
    /// Pass `&mut metrics` to keep ownership of the metrics value.
    pub fn with_sink<S2>(self, sink: S2) -> MineSession<S2> {
        MineSession {
            sink,
            tracer: self.tracer,
            obs: self.obs,
            threads: self.threads,
        }
    }

    /// Replaces the tracer. [`Tracer`] clones share their span store,
    /// so the caller can keep a handle for export.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Replaces the metrics registry. [`Registry`] clones share their
    /// store, so the caller can keep a handle for export; every stage
    /// run in this session samples its wall latency into
    /// `procmine_stage_latency_ns{stage=…}`.
    pub fn with_obs(mut self, obs: Registry) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the thread count for the parallelizable stages. `0` and
    /// `1` both mean serial; with `threads > 1` the heavy stages fan
    /// out over scoped threads and merge at join barriers, producing
    /// output identical to the serial strategy.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The session's tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The session's metrics registry.
    pub fn obs(&self) -> &Registry {
        &self.obs
    }

    /// The configured thread count (at least 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The sink and tracer as a borrowed pair — the handles
    /// instrumented code records into. Splitting the borrow lets stage
    /// bodies hold the sink mutably while spans are open on the tracer.
    pub fn handles(&mut self) -> (&mut S, &Tracer) {
        (&mut self.sink, &self.tracer)
    }
}

/// Runs one pipeline stage as a named, traced, metered, budgeted unit —
/// the one place a stage is framed, serial or fanned out. It opens a
/// `miner`-category span named [`Stage::span_name`], checks the
/// deadline once at entry, and times the body with one clock pair, read
/// only when the sink or the registry records. That elapsed time is
/// sampled into the registry's per-stage latency histogram and credited
/// to the stage's [`MinerMetrics`](crate::MinerMetrics) timer.
///
/// A body that fans out over workers stores their summed busy
/// nanoseconds in its `busy_ns` argument. The stage then credits that
/// busy time to `stage_nanos` and the elapsed time, which spans the
/// join barrier, to `wall_nanos`. Stage bodies that loop over
/// executions re-check the deadline themselves, once per execution.
pub(crate) fn run_stage<S: MetricsSink, T>(
    session: &mut MineSession<S>,
    stage: Stage,
    deadline: Deadline,
    body: impl FnOnce(&mut MineSession<S>, &mut Option<u64>) -> Result<T, MineError>,
) -> Result<T, MineError> {
    // The span borrows its tracer for the whole body, which needs the
    // session mutably; a clone shares the span store.
    let tracer = session.tracer.clone();
    let _span = tracer.span_cat(stage.span_name(), "miner");
    deadline.check()?;
    let started = (S::ENABLED || session.obs.is_enabled()).then(Instant::now);
    let mut busy_ns = None;
    let out = body(session, &mut busy_ns)?;
    if let Some(started) = started {
        let elapsed = started.elapsed().as_nanos() as u64;
        session.obs.stage_latency(stage).observe(elapsed);
        session.sink.record(|m| match busy_ns {
            None => m.add_stage_nanos(stage, elapsed),
            Some(busy) => {
                m.add_stage_nanos(stage, busy);
                m.add_wall_nanos(stage, elapsed);
            }
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::MinerMetrics;
    use std::time::Duration;

    #[test]
    fn default_session_is_disabled_and_serial() {
        let session = MineSession::new();
        assert!(!session.tracer().is_enabled());
        assert!(!session.obs().is_enabled());
        assert_eq!(session.threads(), 1);
    }

    #[test]
    fn builders_compose_and_preserve_configuration() {
        let mut metrics = MinerMetrics::new();
        let tracer = Tracer::new();
        let mut session = MineSession::new()
            .with_threads(4)
            .with_tracer(tracer.clone())
            .with_sink(&mut metrics);
        assert_eq!(session.threads(), 4);
        let (sink, tracer_ref) = session.handles();
        assert!(tracer_ref.is_enabled());
        sink.record(|m| m.edges_final += 1);
        drop(session);
        assert_eq!(metrics.edges_final, 1);
    }

    #[test]
    fn zero_threads_means_serial() {
        assert_eq!(MineSession::new().with_threads(0).threads(), 1);
    }

    #[test]
    fn run_stage_times_and_traces_the_body() {
        let mut metrics = MinerMetrics::new();
        let tracer = Tracer::new();
        let mut session = MineSession::new()
            .with_tracer(tracer.clone())
            .with_sink(&mut metrics);
        let out = run_stage(&mut session, Stage::Prune, Deadline::unlimited(), |s, _| {
            s.sink.record(|m| m.edges_final += 7);
            Ok(7u32)
        })
        .unwrap();
        drop(session);
        assert_eq!(out, 7);
        assert_eq!(metrics.edges_final, 7);
        assert_eq!(metrics.wall_nanos(Stage::Prune), 0, "serial: no barrier");
        let records = tracer.records();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "prune");
        assert_eq!(records[0].cat, "miner");
    }

    #[test]
    fn fanned_out_body_splits_busy_and_barrier_time() {
        let mut metrics = MinerMetrics::new();
        let obs = Registry::new();
        let mut session = MineSession::new()
            .with_obs(obs.clone())
            .with_sink(&mut metrics);
        run_stage(
            &mut session,
            Stage::Reduce,
            Deadline::unlimited(),
            |_, busy_ns| {
                std::thread::sleep(Duration::from_millis(1));
                *busy_ns = Some(42);
                Ok(())
            },
        )
        .unwrap();
        drop(session);
        assert_eq!(
            metrics.stage_nanos(Stage::Reduce),
            42,
            "busy time is CPU time"
        );
        let wall = metrics.wall_nanos(Stage::Reduce);
        assert!(wall >= 1_000_000, "barrier time spans the body: {wall}");
        // The registry samples the same elapsed time, once.
        let snap = obs.stage_latency(Stage::Reduce).snapshot();
        assert_eq!((snap.count, snap.sum), (1, wall));
    }

    #[test]
    fn run_stage_samples_the_registry_histogram() {
        let obs = Registry::new();
        let mut session = MineSession::new().with_obs(obs.clone());
        run_stage(
            &mut session,
            Stage::Reduce,
            Deadline::unlimited(),
            |_, _| Ok(()),
        )
        .unwrap();
        let snap = obs.stage_latency(Stage::Reduce).snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(obs.stage_latency(Stage::Prune).snapshot().count, 0);
    }

    #[test]
    fn with_obs_is_carried_across_with_sink() {
        let obs = Registry::new();
        let session = MineSession::new().with_obs(obs.clone()).with_sink(NullSink);
        assert!(session.obs().is_enabled());
        drop(session);
        assert!(
            !MineSession::new().obs().is_enabled(),
            "default session has the disabled registry"
        );
    }

    #[test]
    fn run_stage_aborts_on_expired_deadline() {
        let deadline = Deadline::already_expired();
        std::thread::sleep(Duration::from_millis(2));
        let err = run_stage(
            &mut MineSession::new(),
            Stage::CountPairs,
            deadline,
            |_, _| Ok(()),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            MineError::LimitExceeded {
                kind: crate::LimitKind::Deadline,
                ..
            }
        ));
    }
}
