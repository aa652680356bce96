//! Pull-based Flowmark event source — the one Flowmark decoder.
//!
//! [`FlowmarkSource`] reads one Flowmark record at a time with the same
//! [`RecoveryPolicy`] / [`IngestReport`] semantics as the other codecs:
//! under [`RecoveryPolicy::Strict`] the first bad line is fatal; under
//! a recovering policy bad lines are skipped and counted, a truncated
//! unterminated tail surfaces as
//! [`LogError::UnexpectedEof`], and a
//! [`RecoveryPolicy::Skip`] budget overrun ends the stream with
//! [`LogError::TooManyErrors`]. It
//! emits raw *events* and leaves case assembly to the consumer. Every
//! consumer takes each line's fields borrowed from the line buffer: the
//! batch reader [`flowmark::read_log_with`] interns them into its table
//! of events, and [`FlowmarkSource::feed`] (one event, for a loop with
//! work between events such as `mine --follow`) and
//! [`FlowmarkSource::pump`] (the whole stream) hand them to a
//! [`StreamSink`] such as a [`CaseAssembler`](super::CaseAssembler),
//! which buffers them without a string per event.
//! [`FlowmarkSource::next_event`] copies the fields into an owned
//! [`EventRecord`] for callers that want to hold events.

use super::{SourceLocation, StreamError, StreamSink};
use crate::codec::flowmark::{self, EventFields};
use crate::codec::{ByteLines, CodecStats, IngestReport, Line, RecoveryPolicy};
use crate::{EventRecord, LogError};
use std::io::BufRead;

/// Streaming Flowmark reader: one event at a time, handed to a
/// [`StreamSink`] or returned as an `(EventRecord, SourceLocation)`
/// pair. After any decode error the source is exhausted — fatal errors
/// terminate the stream (they never repeat, so a retry loop cannot
/// spin).
pub struct FlowmarkSource<R: BufRead> {
    lines: ByteLines<R>,
    policy: RecoveryPolicy,
    stats: CodecStats,
    report: IngestReport,
    done: bool,
    /// Byte offset of the reader's first byte within the original
    /// source (nonzero when resuming from a checkpoint); added to every
    /// reported location so diagnostics stay absolute.
    base_offset: u64,
    /// Line number of the line *before* the reader's first line.
    base_line: usize,
}

impl<R: BufRead> FlowmarkSource<R> {
    /// Creates a source over `reader` with the given policy.
    pub fn new(reader: R, policy: RecoveryPolicy) -> Self {
        FlowmarkSource::with_origin(reader, policy, 0, 0)
    }

    /// Creates a source whose `reader` starts `byte_offset` bytes (and
    /// `line` full lines) into the original input — the resume
    /// constructor. All reported locations and
    /// [`FlowmarkSource::position`] are absolute in the original input.
    pub fn with_origin(reader: R, policy: RecoveryPolicy, byte_offset: u64, line: usize) -> Self {
        FlowmarkSource {
            lines: ByteLines::new(reader),
            policy,
            stats: CodecStats::default(),
            report: IngestReport::default(),
            done: false,
            base_offset: byte_offset,
            base_line: line,
        }
    }

    /// The absolute `(byte_offset, line)` position after the last
    /// consumed record — at a record boundary this is exactly the
    /// offset the next record starts at, which makes it safe to
    /// persist in a checkpoint and seek back to on resume.
    pub fn position(&self) -> (u64, usize) {
        (
            self.base_offset + self.lines.bytes(),
            self.base_line + self.lines.lineno(),
        )
    }

    /// Byte/event tallies so far (`executions_parsed` stays zero — the
    /// source does not assemble cases).
    pub fn stats(&self) -> CodecStats {
        CodecStats {
            bytes_read: self.lines.bytes(),
            ..self.stats
        }
    }

    /// Parse-side ingest accounting (records parsed/skipped, located
    /// errors). Merge with the downstream assembler's report for the
    /// complete picture.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// The reader, positioned after the last line decoded.
    pub(crate) fn into_inner(self) -> R {
        self.lines.into_inner()
    }

    /// Reads the next event as an owned record. `Ok(None)` at end of
    /// input; any `Err` also ends the stream. Blank lines and `#`
    /// comments are skipped.
    pub fn next_event(&mut self) -> Result<Option<(EventRecord, SourceLocation)>, LogError> {
        self.next_fields(|fields, at| (fields.into(), at))
    }

    /// Decodes the next event and hands its fields, borrowed from the
    /// line buffer, to `sink` through [`StreamSink::on_fields`].
    /// `Ok(false)` at end of input. A decode error ends the stream as
    /// in [`FlowmarkSource::next_event`] and comes back as
    /// [`StreamError::Log`]; the sink's own error comes back as it
    /// returned it.
    pub fn feed<S: StreamSink>(&mut self, sink: &mut S) -> Result<bool, StreamError> {
        match self.next_fields(|fields, at| sink.on_fields(fields, at))? {
            Some(handed) => handed.map(|()| true),
            None => Ok(false),
        }
    }

    /// The Flowmark line loop behind every consumer: decodes the next
    /// event line and hands its fields, borrowed from the line buffer,
    /// to `emit`, returning what `emit` returns. Errors, skips and
    /// accounting are `next_event`'s.
    pub(crate) fn next_fields<T>(
        &mut self,
        emit: impl FnOnce(EventFields<'_>, SourceLocation) -> T,
    ) -> Result<Option<T>, LogError> {
        if self.done {
            return Ok(None);
        }
        loop {
            let (offset, lineno, had_newline) = match self.lines.read_next() {
                Ok(Some((offset, lineno, had_newline))) => (
                    self.base_offset + offset,
                    self.base_line + lineno,
                    had_newline,
                ),
                Ok(None) => {
                    self.done = true;
                    return Ok(None);
                }
                Err(e) => {
                    // Fatal I/O error: record it and terminate — a
                    // persistently failing reader must not produce an
                    // unbounded error stream.
                    self.report.record_error(
                        self.base_offset + self.lines.bytes(),
                        self.base_line + self.lines.lineno(),
                        e.to_string(),
                    );
                    self.done = true;
                    return Err(e);
                }
            };
            let parsed = match self.lines.line() {
                Line::Text(line) => flowmark::parse_event_text(line, lineno),
                Line::Bytes(line) => flowmark::parse_event_line(line, lineno),
            };
            match parsed {
                Ok(None) => {} // a blank or comment line
                Ok(Some(fields)) => {
                    self.stats.events_parsed += 1;
                    self.report.records_parsed += 1;
                    let at = SourceLocation {
                        byte_offset: offset,
                        line: lineno,
                    };
                    return Ok(Some(emit(fields, at)));
                }
                Err(e) => {
                    // A bad final line with no newline is a truncated tail.
                    let err = if had_newline {
                        e
                    } else {
                        LogError::UnexpectedEof {
                            byte_offset: offset,
                            message: format!("input ends mid-record ({e})"),
                        }
                    };
                    self.report.record_error(offset, lineno, err.to_string());
                    if self.policy.is_strict() {
                        self.done = true;
                        return Err(err);
                    }
                    self.report.records_skipped += 1;
                    if let Err(give_up) = self.report.over_budget(self.policy) {
                        self.done = true;
                        return Err(give_up);
                    }
                }
            }
        }
    }

    /// Drives the whole stream into `sink`, calling
    /// [`StreamSink::finish`] at end of input. On error the sink is
    /// *not* finished — partial state would masquerade as a clean read.
    pub fn pump<S: StreamSink>(&mut self, sink: &mut S) -> Result<(), StreamError> {
        while self.feed(sink)? {}
        sink.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultReader};
    use std::io::BufReader;

    fn drain<R: BufRead>(source: &mut FlowmarkSource<R>) -> (Vec<EventRecord>, Option<LogError>) {
        let mut events = Vec::new();
        loop {
            match source.next_event() {
                Ok(Some((e, _))) => events.push(e),
                Ok(None) => return (events, None),
                Err(e) => return (events, Some(e)),
            }
        }
    }

    #[test]
    fn yields_events_with_locations() {
        let text = "# header\np1,A,START,0\n\np1,A,END,1\n";
        let mut source = FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::Strict);
        let (first, at) = source.next_event().unwrap().unwrap();
        assert_eq!(first.activity, "A");
        assert_eq!(at.line, 2);
        assert_eq!(at.byte_offset, "# header\n".len() as u64);
        let (_, at) = source.next_event().unwrap().unwrap();
        assert_eq!(at.line, 4);
        assert!(source.next_event().unwrap().is_none());
        assert_eq!(source.stats().events_parsed, 2);
        assert_eq!(source.stats().bytes_read, text.len() as u64);
    }

    #[test]
    fn strict_terminates_on_first_bad_line() {
        let text = "garbage\np1,A,START,0\n";
        let mut source = FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::Strict);
        let (events, err) = drain(&mut source);
        assert!(events.is_empty());
        assert!(matches!(err, Some(LogError::Parse { line: 1, .. })));
        assert!(source.next_event().unwrap().is_none(), "stream is done");
    }

    #[test]
    fn recovering_skips_and_counts_bad_lines() {
        let text = "p1,A,START,0\ngarbage\np1,A,END,1\n";
        let mut source = FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::BestEffort);
        let (events, err) = drain(&mut source);
        assert_eq!(events.len(), 2);
        assert!(err.is_none());
        assert_eq!(source.report().records_skipped, 1);
        assert_eq!(source.report().errors_total, 1);
        assert_eq!(source.report().errors[0].line, 2);
    }

    #[test]
    fn skip_budget_overrun_terminates() {
        let text = "bad one\nbad two\np1,A,START,0\n";
        let mut source =
            FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::Skip { max_errors: 1 });
        let (events, err) = drain(&mut source);
        assert!(events.is_empty());
        assert!(matches!(err, Some(LogError::TooManyErrors { .. })));
        assert!(source.next_event().unwrap().is_none(), "stream is done");
    }

    #[test]
    fn io_error_terminates_even_under_best_effort() {
        let text = "p1,A,START,0\np1,A,END,1\n";
        // max_read chunks delivery so the one-shot fault fires after
        // the first full line instead of after one slurping read.
        let reader = BufReader::new(FaultReader::new(
            text.as_bytes(),
            FaultConfig {
                io_error_at: Some(13),
                max_read: Some(13),
                ..FaultConfig::default()
            },
        ));
        let mut source = FlowmarkSource::new(reader, RecoveryPolicy::BestEffort);
        let (events, err) = drain(&mut source);
        assert_eq!(events.len(), 1, "first record parses before the fault");
        assert!(matches!(err, Some(LogError::Io(_))));
        assert!(
            source.next_event().unwrap().is_none(),
            "one-shot fault resumes the reader, but the source stays done"
        );
        assert_eq!(source.report().errors.len(), 1);
    }

    /// `feed` hands one event per call; a sink that implements only
    /// `on_event` gets owned records through the default `on_fields`.
    /// A decode error comes back as `StreamError::Log` and ends the
    /// stream.
    #[test]
    fn feed_hands_one_event_per_call_and_ends_on_a_decode_error() {
        #[derive(Default)]
        struct Records(Vec<(EventRecord, SourceLocation)>);
        impl StreamSink for Records {
            fn on_event(&mut self, e: EventRecord, at: SourceLocation) -> Result<(), StreamError> {
                self.0.push((e, at));
                Ok(())
            }
            fn finish(&mut self) -> Result<(), StreamError> {
                Ok(())
            }
        }
        let text = "p1,A,END,1,3;4\ngarbage\np1,B,START,2\n";
        let mut source = FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::Strict);
        let mut sink = Records::default();
        assert!(source.feed(&mut sink).unwrap());
        assert_eq!(
            sink.0,
            [(
                EventRecord::end("p1", "A", 1, Some(vec![3, 4])),
                SourceLocation {
                    byte_offset: 0,
                    line: 1
                }
            )]
        );
        assert!(matches!(
            source.feed(&mut sink),
            Err(StreamError::Log(LogError::Parse { line: 2, .. }))
        ));
        assert!(!source.feed(&mut sink).unwrap(), "stream is done");
        assert_eq!(sink.0.len(), 1);
    }

    #[test]
    fn truncated_tail_is_unexpected_eof() {
        let text = "p1,A,START,0\np1,A,EN";
        let mut source = FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::BestEffort);
        let (events, err) = drain(&mut source);
        assert_eq!(events.len(), 1);
        assert!(err.is_none(), "recovering read salvages past the tail");
        assert!(source.report().errors[0].message.contains("mid-record"));
    }
}
