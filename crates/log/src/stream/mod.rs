//! Streaming/online ingestion: event sinks, the flowmark event source,
//! and the interleaved case assembler.
//!
//! The batch codecs materialize a whole [`WorkflowLog`](crate::WorkflowLog)
//! before any miner runs; the paper's motivating scenario — "evolution
//! of the current process model … by incorporating feedback from
//! successful process executions" — instead wants executions delivered
//! to a consumer *as they complete* out of an unbounded event stream.
//! This module provides that layer:
//!
//! * [`StreamSink`] — anything that consumes a stream of parsed events
//!   (with their source locations): borrowed [`EventFields`] straight
//!   off the source's line buffer, or owned [`EventRecord`]s;
//! * [`Observer`] — anything that consumes *completed executions*
//!   (the online miner's side of the contract; closures implement it);
//! * [`CaseAssembler`] — the interleaved case assembler: a keyed
//!   open-case map under a bounded memory window, so cases need not be
//!   contiguous in the log;
//! * [`FlowmarkSource`] — the pull-based Flowmark event source, with the
//!   same [`RecoveryPolicy`](crate::RecoveryPolicy) /
//!   [`IngestReport`](crate::IngestReport) semantics as the other
//!   codecs. It is the only Flowmark decoder: the batch reader
//!   [`flowmark::read_log_with`](crate::codec::flowmark::read_log_with)
//!   runs its line loop too, and [`FlowmarkSource::feed`] and
//!   [`FlowmarkSource::pump`] hand each line's fields, borrowed, to a
//!   sink;
//! * [`TailReader`] — a [`std::io::Read`] adapter that follows a
//!   growing file (`procmine mine --follow`) with bounded retry
//!   ([`RetryPolicy`]) and truncation detection;
//! * [`checkpoint`] — the crash-safe checkpoint envelope (magic,
//!   version, CRC-32, atomic tmp+fsync+rename writes) and the wire
//!   codec used to persist resumable state such as
//!   [`AssemblerState`].
//!
//! A typical pipeline:
//!
//! ```
//! use procmine_log::stream::{CaseAssembler, AssemblerConfig, FlowmarkSource, StreamError};
//! use procmine_log::RecoveryPolicy;
//!
//! let text = "p1,A,START,0\np2,B,START,0\np1,A,END,1\np2,B,END,1\n";
//! let mut seen = Vec::new();
//! let mut assembler = CaseAssembler::new(
//!     AssemblerConfig::default(),
//!     |exec: &procmine_log::Execution, table: &procmine_log::ActivityTable| {
//!         seen.push(exec.display(table));
//!         Ok::<(), StreamError>(())
//!     },
//! );
//! let mut source = FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::Strict);
//! source.pump(&mut assembler).unwrap();
//! drop(assembler);
//! assert_eq!(seen, ["A", "B"]);
//! ```

pub mod assembler;
pub mod checkpoint;
pub mod source;
pub mod tail;

pub use assembler::{
    AssemblerConfig, AssemblerState, CaseAssembler, OpenCaseState, DEFAULT_OPEN_CASE_WINDOW,
};
pub use checkpoint::{CheckpointError, WireError, WireReader, WireWriter};
pub use source::FlowmarkSource;
pub use tail::{RetryPolicy, TailReader, TailStats};

use crate::codec::flowmark::EventFields;
use crate::{ActivityTable, EventRecord, Execution, LogError};

/// Where an event sat in the source stream — threaded alongside each
/// record so downstream sinks can report problems with the same
/// byte-offset/line precision as the batch codecs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceLocation {
    /// Byte offset of the record's start in the source stream.
    pub byte_offset: u64,
    /// 1-based line number (0 when unknown / synthesized).
    pub line: usize,
}

/// Error from a streaming pipeline: a log-layer problem (parse,
/// assembly, I/O) or a failure in a downstream consumer (e.g. the
/// online miner rejecting an execution).
#[derive(Debug)]
pub enum StreamError {
    /// A problem in the log layer itself.
    Log(LogError),
    /// A downstream sink or observer failed.
    Sink(Box<dyn std::error::Error + Send + Sync>),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Log(e) => write!(f, "{e}"),
            StreamError::Sink(e) => write!(f, "stream consumer failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Log(e) => Some(e),
            StreamError::Sink(e) => Some(e.as_ref()),
        }
    }
}

impl From<LogError> for StreamError {
    fn from(e: LogError) -> Self {
        StreamError::Log(e)
    }
}

/// Consumes a stream of parsed events. [`CaseAssembler`] is the
/// terminal sink: it turns events into completed executions for an
/// [`Observer`].
pub trait StreamSink {
    /// Consumes one event record.
    fn on_event(&mut self, event: EventRecord, at: SourceLocation) -> Result<(), StreamError>;

    /// Consumes one event whose names are borrowed from the source's
    /// line buffer: what [`FlowmarkSource::feed`] and
    /// [`FlowmarkSource::pump`] hand over. The default copies the names
    /// into an [`EventRecord`] for [`StreamSink::on_event`];
    /// [`CaseAssembler`] takes the fields as they are, and its
    /// `on_event` lends a record's names to this method instead.
    fn on_fields(&mut self, event: EventFields<'_>, at: SourceLocation) -> Result<(), StreamError> {
        self.on_event(event.into(), at)
    }

    /// Signals end of input: flush any buffered state downstream.
    /// Called exactly once, after the last event.
    fn finish(&mut self) -> Result<(), StreamError>;
}

impl From<EventFields<'_>> for EventRecord {
    fn from(fields: EventFields<'_>) -> Self {
        EventRecord {
            process: fields.process.to_string(),
            activity: fields.activity.to_string(),
            kind: fields.kind,
            time: fields.time,
            output: fields.output,
        }
    }
}

/// Consumes executions as they complete out of an event stream.
///
/// Closures of type
/// `FnMut(&Execution, &ActivityTable) -> Result<(), StreamError>`
/// implement this trait, so ad-hoc consumers need no named type.
pub trait Observer {
    /// Called once per completed (or salvaged-at-eviction) execution.
    /// `table` is the assembler's activity table, which grows as the
    /// stream is consumed; ids in `exec` are relative to it.
    fn on_execution(&mut self, exec: &Execution, table: &ActivityTable) -> Result<(), StreamError>;

    /// Called when the assembler's memory bound evicts a case that was
    /// still structurally incomplete (open STARTs or dangling ENDs).
    /// The salvageable part of the case is still delivered through
    /// [`Observer::on_execution`]. Default: ignore.
    fn on_eviction(&mut self, _case: &str, _buffered_events: usize) {}
}

impl<F> Observer for F
where
    F: FnMut(&Execution, &ActivityTable) -> Result<(), StreamError>,
{
    fn on_execution(&mut self, exec: &Execution, table: &ActivityTable) -> Result<(), StreamError> {
        self(exec, table)
    }
}
