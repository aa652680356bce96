//! Workflow execution-log model for the `procmine` workspace.
//!
//! Section 2 of the paper (Definition 2) models the log of one execution
//! as a list of event records `(P, A, E, T, O)` — process execution name,
//! activity name, event type (`START`/`END`), timestamp, and the
//! activity's output vector on `END`. This crate provides:
//!
//! * [`ActivityTable`] — string interning for activity names, so the
//!   mining inner loops work on dense `u32` ids;
//! * [`EventRecord`] / [`EventKind`] — the raw log schema;
//! * [`Execution`] — one execution, stored as activity *instances* with
//!   start/end intervals. Two activities that overlap in time are
//!   independent by construction (the paper's simplification to
//!   instantaneous activities is the special case `start == end`);
//! * [`WorkflowLog`] — a set of executions over a shared activity table;
//! * [`codec`] — Flowmark-style CSV event format, a one-line-per-execution
//!   sequence format, JSON-lines, and XES, each with a recovering decode
//!   path ([`RecoveryPolicy`] / [`IngestReport`]);
//! * [`validate`] — structural validation and diagnostics for raw event
//!   streams (unmatched STARTs, END-before-START, duplicate events);
//! * [`stream`] — streaming/online ingestion: the Flowmark event source
//!   (the one Flowmark decoder), the interleaved case assembler (bounded
//!   open-case window), and a follow-mode tail reader;
//! * [`fault`] — deterministic fault injection ([`fault::FaultReader`])
//!   for robustness tests and benchmarks.
//!
//! # Example
//!
//! ```
//! use procmine_log::WorkflowLog;
//!
//! let log = WorkflowLog::from_sequences([
//!     ["A", "B", "C", "E"],
//!     ["A", "C", "D", "E"],
//! ]).unwrap();
//! assert_eq!(log.len(), 2);
//! assert_eq!(log.activities().len(), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod activity;
mod error;
mod event;
mod execution;
mod log_impl;
mod ops;

pub mod codec;
pub mod columnar;
pub mod fault;
pub mod stats;
pub mod stream;
pub mod validate;

pub use activity::{ActivityId, ActivityTable};
pub use codec::{IngestError, IngestReport, RecoveryPolicy};
pub use columnar::{CompactLog, EventColumns, ExecColumns};
pub use error::LogError;
pub use event::{EventKind, EventRecord};
pub use execution::{ActivityInstance, Execution};
pub use log_impl::WorkflowLog;
