//! Process-model mining from workflow logs — the core algorithms of
//! Agrawal, Gunopulos & Leymann, *Mining Process Models from Workflow
//! Logs* (EDBT 1998).
//!
//! Given a [`WorkflowLog`](procmine_log::WorkflowLog) of `m` executions
//! over `n` activities, the miners synthesize a directed graph over the
//! activities that is **conformal** (Definition 7 of the paper):
//!
//! * *dependency complete* — every dependency observable in the log is a
//!   path in the graph;
//! * *irredundant* — no path connects activities the log shows to be
//!   independent;
//! * *execution complete* — every logged execution is consistent with
//!   the graph (Definition 6).
//!
//! Three miners cover the paper's three settings:
//!
//! | function | paper | setting | complexity |
//! |----------|-------|---------|------------|
//! | [`mine_special_dag`] | Algorithm 1 | acyclic, every activity in every execution; output is the *unique minimal* conformal graph | O(n²m) |
//! | [`mine_general_dag`] | Algorithm 2 | acyclic, activities may be skipped | O(n³m) |
//! | [`mine_cyclic`] | Algorithm 3 | general directed graphs with cycles | O((kn)³m) |
//!
//! [`mine_auto`] inspects the log and dispatches to the right one.
//! All miners accept [`MinerOptions`], which carries the §6 noise
//! threshold `T`; [`noise`] derives the optimal `T` from an error-rate
//! estimate. [`conformance`] independently re-checks mined models
//! against Definitions 6–7, and [`follows`] exposes the underlying
//! *follows* / *depends* relations (Definitions 3–5).
//!
//! Every miner also has a `*_in` form ([`mine_general_dag_in`] etc.)
//! that runs inside a [`MineSession`] — the one place to configure
//! metrics, tracing, and the thread count for the parallelizable
//! stages. See [`session`](MineSession) for the builder idiom. Resource
//! limits travel in [`MinerOptions::limits`].
//!
//! # Example
//!
//! ```
//! use procmine_log::WorkflowLog;
//! use procmine_core::{mine_general_dag, MinerOptions};
//!
//! // The paper's Example 7 log.
//! let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
//! let model = mine_general_dag(&log, &MinerOptions::default()).unwrap();
//!
//! // C, D, E form a cycle of followings, hence are independent: no
//! // edges among them survive (Figure 4).
//! assert!(!model.has_edge("C", "D") && !model.has_edge("D", "E"));
//! assert!(model.has_edge("A", "B"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cyclic;
mod error;
mod general_dag;
mod limits;
mod miner;
mod model;
mod online;
mod parallel;
mod session;
mod special_dag;

pub mod baseline;
pub mod bpmn;
pub mod checkpoint;
pub mod conformance;
pub mod follows;
pub mod metrics;
pub mod noise;
pub mod obs;
pub mod reference;
pub mod splits;
pub mod telemetry;
pub mod trace;

pub use checkpoint::{
    FollowCheckpoint, FollowCheckpointView, MinerStateView, OnlineMinerState, OptionsFingerprint,
    SourceState, DEFAULT_CHECKPOINT_EVERY,
};
pub use cyclic::{mine_cyclic, mine_cyclic_in};
pub use error::MineError;
pub use general_dag::{mine_general_dag, mine_general_dag_in};
pub use limits::{LimitKind, Limits};
pub use miner::{mine_auto, mine_auto_in, Algorithm, MinerOptions};
pub use model::MinedModel;
pub use obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use online::{OnlineMiner, SnapshotPolicy};
pub use session::MineSession;
pub use special_dag::{mine_special_dag, mine_special_dag_in};
pub use telemetry::{ConformanceMetrics, MetricsSink, MinerMetrics, NullSink, Stage};
pub use trace::{SpanGuard, SpanRecord, TraceBuffer, Tracer};
