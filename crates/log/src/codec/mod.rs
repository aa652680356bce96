//! Log codecs: serialization formats for workflow logs.
//!
//! Three formats are provided:
//!
//! * [`flowmark`] — a CSV-like event format modelled on the IBM Flowmark
//!   audit-trail convention the paper's implementation consumed: one
//!   event record `(process, activity, START|END, timestamp, output?)`
//!   per line;
//! * [`seqs`] — one execution per line as whitespace-separated activity
//!   names (the paper's compact `ABCE` notation, generalized to
//!   multi-character names);
//! * [`jsonl`] — one JSON object per execution, carrying full interval
//!   and output information losslessly;
//! * [`xes`] — the IEEE 1849 XML interchange format of the
//!   process-mining ecosystem (ProM, PM4Py), for cross-tool workflows.

pub mod flowmark;
pub mod jsonl;
pub mod seqs;
pub mod xes;
pub mod xes_reference;

use crate::validate::{assemble_events, AssemblyPolicy, EventTable};
use crate::{ActivityTable, LogError, WorkflowLog};
use std::io::{BufRead, Read};

/// How a codec treats decode errors (bad lines, truncated tails,
/// malformed XML). Every codec's `read_log_with` entry point takes one;
/// the plain `read_log` entry points use [`RecoveryPolicy::Strict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// The first decode error aborts the read (it is still recorded in
    /// the [`IngestReport`], with its byte offset).
    #[default]
    Strict,
    /// Skip bad records, but give up with
    /// [`LogError::TooManyErrors`] once
    /// more than `max_errors` decode errors accumulate.
    Skip {
        /// Decode-error budget; `Skip { max_errors: 0 }` behaves like
        /// [`RecoveryPolicy::Strict`] except that dropped-but-harmless
        /// assembly diagnostics do not count.
        max_errors: u64,
    },
    /// Skip bad records without limit and salvage everything parsable.
    BestEffort,
}

impl RecoveryPolicy {
    /// `true` for [`RecoveryPolicy::Strict`].
    pub fn is_strict(self) -> bool {
        matches!(self, RecoveryPolicy::Strict)
    }
}

/// At most this many individual errors are retained in
/// [`IngestReport::errors`]; the rest only bump
/// [`IngestReport::errors_total`].
pub const MAX_RECORDED_ERRORS: usize = 16;

/// One decode error, located in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestError {
    /// Byte offset of the offending record's start.
    pub byte_offset: u64,
    /// 1-based line number (0 when the format is not line-oriented).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

/// Outcome of one (possibly recovering) codec read: how many records
/// made it, how many were dropped, and where the first
/// [`MAX_RECORDED_ERRORS`] problems sat. Rides alongside [`CodecStats`]
/// through the telemetry layer. "Record" means the codec's natural
/// unit — event lines for flowmark, lines for seqs/jsonl, `<event>`
/// elements for XES.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestReport {
    /// Records decoded successfully.
    pub records_parsed: u64,
    /// Records lost to recovery: undecodable lines/events plus events
    /// dropped by lenient START/END assembly.
    pub records_skipped: u64,
    /// Decode errors encountered (assembly diagnostics not included).
    pub errors_total: u64,
    /// Open cases evicted by the interleaved assembler's memory bound
    /// (see [`crate::stream::CaseAssembler`]). Always zero for the
    /// batch codecs.
    pub cases_evicted: u64,
    /// The first [`MAX_RECORDED_ERRORS`] errors, in input order.
    pub errors: Vec<IngestError>,
}

impl IngestReport {
    /// Appends an error, retaining detail for the first
    /// [`MAX_RECORDED_ERRORS`].
    pub fn record_error(&mut self, byte_offset: u64, line: usize, message: impl Into<String>) {
        self.errors_total += 1;
        if self.errors.len() < MAX_RECORDED_ERRORS {
            self.errors.push(IngestError {
                byte_offset,
                line,
                message: message.into(),
            });
        }
    }

    /// Appends a located *assembly diagnostic* (a dropped unmatched
    /// START/END) to [`IngestReport::errors`] without counting it into
    /// [`IngestReport::errors_total`]: diagnostics are structural noise
    /// that recovery deliberately tolerates, so they never burn the
    /// [`RecoveryPolicy::Skip`] error budget, but streaming callers
    /// still want them located for `--recover` reporting.
    pub fn record_diagnostic(&mut self, byte_offset: u64, line: usize, message: impl Into<String>) {
        if self.errors.len() < MAX_RECORDED_ERRORS {
            self.errors.push(IngestError {
                byte_offset,
                line,
                message: message.into(),
            });
        }
    }

    /// Checks the error budget after recording an error: under
    /// [`RecoveryPolicy::Skip`] an exhausted budget aborts the read.
    pub(crate) fn over_budget(&self, policy: RecoveryPolicy) -> Result<(), LogError> {
        if let RecoveryPolicy::Skip { max_errors } = policy {
            if self.errors_total > max_errors {
                return Err(LogError::TooManyErrors {
                    errors: self.errors_total,
                    max_errors,
                });
            }
        }
        Ok(())
    }

    /// Adds `other`'s tallies into `self` (reports from separate reads).
    pub fn merge(&mut self, other: &IngestReport) {
        self.records_parsed += other.records_parsed;
        self.records_skipped += other.records_skipped;
        self.errors_total += other.errors_total;
        self.cases_evicted += other.cases_evicted;
        for e in &other.errors {
            if self.errors.len() >= MAX_RECORDED_ERRORS {
                break;
            }
            self.errors.push(e.clone());
        }
    }

    /// Machine-readable JSON object with a stable key order (matches
    /// the field order above).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"records_parsed\":{},\"records_skipped\":{},\"errors_total\":{},\"cases_evicted\":{},\"errors\":[",
            self.records_parsed, self.records_skipped, self.errors_total, self.cases_evicted
        );
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"byte_offset\":{},\"line\":{},\"message\":\"{}\"}}",
                e.byte_offset,
                e.line,
                json_escape(&e.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Assembles the events of one read into a [`WorkflowLog`]: strict
/// START/END pairing under [`RecoveryPolicy::Strict`], lenient pairing
/// otherwise (dropped events count as skipped records). An assembly
/// error is recorded at `bytes`, this read's input length, so its
/// offset stays inside the input when `stats` tallies several reads.
/// Shared by the Flowmark and XES readers.
pub(crate) fn assemble(
    events: EventTable,
    policy: RecoveryPolicy,
    bytes: u64,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let assembly = if policy.is_strict() {
        AssemblyPolicy::Strict
    } else {
        AssemblyPolicy::Lenient
    };
    let mut table = ActivityTable::new();
    let (executions, diagnostics) = assemble_events(events, &mut table, assembly).map_err(|e| {
        report.record_error(bytes, 0, e.to_string());
        e
    })?;
    report.records_skipped += diagnostics.len() as u64;
    let mut log = WorkflowLog::with_activities(table);
    for exec in executions {
        log.push(exec);
    }
    stats.executions_parsed += log.len() as u64;
    Ok(log)
}

/// Byte-level line reader for the recovering decode paths: unlike
/// [`BufRead::lines`], it survives invalid UTF-8 (a bit flip must not
/// abort the whole read as an I/O error), reports each line's starting
/// byte offset, and says whether the line was newline-terminated — the
/// signal that distinguishes a garbage line from a truncated tail.
pub(crate) struct ByteLines<R: BufRead> {
    reader: CountingReader<R>,
    buf: Vec<u8>,
    lineno: usize,
}

impl<R: BufRead> ByteLines<R> {
    pub fn new(reader: R) -> Self {
        ByteLines {
            reader: CountingReader::new(reader),
            buf: Vec::new(),
            lineno: 0,
        }
    }

    /// Bytes consumed so far.
    pub fn bytes(&self) -> u64 {
        // Fully qualified: `Read::bytes` (in scope here) would win the
        // by-value probe over the inherent counter.
        CountingReader::bytes(&self.reader)
    }

    /// Advances to the next line. Returns `Ok(Some((byte_offset,
    /// lineno, had_newline)))` and exposes the raw bytes via
    /// [`ByteLines::line`]; `Ok(None)` at EOF. I/O errors are fatal.
    pub fn read_next(&mut self) -> Result<Option<(u64, usize, bool)>, LogError> {
        let offset = CountingReader::bytes(&self.reader);
        self.buf.clear();
        let n = self.reader.read_until(b'\n', &mut self.buf)?;
        if n == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        let had_newline = self.buf.last() == Some(&b'\n');
        if had_newline {
            self.buf.pop();
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
        }
        Ok(Some((offset, self.lineno, had_newline)))
    }

    /// The bytes of the line returned by the last
    /// [`ByteLines::read_next`], without the line terminator.
    pub fn line(&self) -> &[u8] {
        &self.buf
    }

    /// Lines consumed so far (the 1-based number of the last line
    /// returned by [`ByteLines::read_next`]; 0 before the first).
    pub fn lineno(&self) -> usize {
        self.lineno
    }
}

/// Byte and event tallies from one codec read.
///
/// Every codec's `read_log_with` fills one of these; the plain
/// `read_log` entry points discard the stats. Fields accumulate, so one
/// `CodecStats` can tally several reads.
///
/// `events_parsed` counts the format's natural unit: event lines for
/// [`flowmark`], activity names for [`seqs`], activity instances for
/// [`jsonl`], and `<event>` elements for [`xes`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Bytes consumed from the underlying reader.
    pub bytes_read: u64,
    /// Events parsed (see the type docs for the per-format unit).
    pub events_parsed: u64,
    /// Executions in the assembled log.
    pub executions_parsed: u64,
}

impl CodecStats {
    /// Adds `other`'s tallies into `self` (stats from separate reads or
    /// a drained [`FlowmarkSource`](crate::stream::FlowmarkSource)).
    pub fn merge(&mut self, other: &CodecStats) {
        self.bytes_read += other.bytes_read;
        self.events_parsed += other.events_parsed;
        self.executions_parsed += other.executions_parsed;
    }

    /// Machine-readable JSON object with a stable key order (matches
    /// the field order above).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"bytes_read\":{},\"events_parsed\":{},\"executions_parsed\":{}}}",
            self.bytes_read, self.events_parsed, self.executions_parsed
        )
    }
}

/// A [`BufRead`] adapter that counts the bytes consumed through it.
///
/// Bytes are tallied in [`BufRead::consume`] (the line-oriented codecs)
/// and in [`Read::read`] (the slurping XES codec); each codec drives
/// exactly one of the two paths, so nothing is double-counted.
pub struct CountingReader<R> {
    inner: R,
    bytes: u64,
}

impl<R> CountingReader<R> {
    /// Wraps a reader with a zeroed byte counter.
    pub fn new(inner: R) -> Self {
        CountingReader { inner, bytes: 0 }
    }

    /// Bytes consumed so far.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }
}

impl<R: BufRead> BufRead for CountingReader<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.bytes += amt as u64;
        self.inner.consume(amt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A strict read into `stats`, discarding the ingest report.
    fn strict<R>(
        read: fn(
            R,
            RecoveryPolicy,
            &mut CodecStats,
            &mut IngestReport,
        ) -> Result<WorkflowLog, LogError>,
        reader: R,
        stats: &mut CodecStats,
    ) -> Result<WorkflowLog, LogError> {
        read(
            reader,
            RecoveryPolicy::Strict,
            stats,
            &mut IngestReport::default(),
        )
    }

    #[test]
    fn seqs_stats_count_bytes_names_and_executions() {
        let text = "# log\nA B C E\nA C D E\n";
        let mut stats = CodecStats::default();
        let log = strict(seqs::read_log_with, text.as_bytes(), &mut stats).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(stats.bytes_read, text.len() as u64);
        assert_eq!(stats.events_parsed, 8);
        assert_eq!(stats.executions_parsed, 2);
    }

    #[test]
    fn flowmark_stats_count_event_lines() {
        let text = "p1,A,START,0\np1,A,END,1\np1,B,START,2\np1,B,END,3\n";
        let mut stats = CodecStats::default();
        let log = strict(flowmark::read_log_with, text.as_bytes(), &mut stats).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(stats.bytes_read, text.len() as u64);
        assert_eq!(stats.events_parsed, 4);
        assert_eq!(stats.executions_parsed, 1);
    }

    #[test]
    fn jsonl_stats_count_instances() {
        let log = WorkflowLog::from_strings(["ABC", "AB"]).unwrap();
        let mut buf = Vec::new();
        jsonl::write_log(&log, &mut buf).unwrap();
        let mut stats = CodecStats::default();
        let back = strict(jsonl::read_log_with, buf.as_slice(), &mut stats).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(stats.bytes_read, buf.len() as u64);
        assert_eq!(stats.events_parsed, 5);
        assert_eq!(stats.executions_parsed, 2);
    }

    #[test]
    fn xes_stats_count_event_elements() {
        let log = WorkflowLog::from_strings(["ABC", "AB"]).unwrap();
        let mut buf = Vec::new();
        xes::write_log(&log, &mut buf).unwrap();
        let mut stats = CodecStats::default();
        let back = strict(xes::read_log_with, buf.as_slice(), &mut stats).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(stats.bytes_read, buf.len() as u64);
        // Instantaneous instances write one `complete` element each.
        assert_eq!(stats.events_parsed, 5);
        assert_eq!(stats.executions_parsed, 2);
    }

    #[test]
    fn stats_accumulate_across_reads() {
        let text = "A B\n";
        let mut stats = CodecStats::default();
        strict(seqs::read_log_with, text.as_bytes(), &mut stats).unwrap();
        strict(seqs::read_log_with, text.as_bytes(), &mut stats).unwrap();
        assert_eq!(stats.bytes_read, 2 * text.len() as u64);
        assert_eq!(stats.events_parsed, 4);
        assert_eq!(stats.executions_parsed, 2);
    }

    #[test]
    fn assembly_errors_are_located_within_this_read() {
        // A START never followed by an END fails strict assembly, which
        // records the error at the end of this read's input — also when
        // the stats already tally an earlier read.
        let flowmark = "p1,A,START,0\np1,A,END,1\np1,B,START,2\n";
        let xes = "<log><trace><string key=\"concept:name\" value=\"p1\"/>\
                   <event><string key=\"concept:name\" value=\"A\"/>\
                   <string key=\"lifecycle:transition\" value=\"start\"/></event>\
                   </trace></log>";
        type Read = fn(
            &'static [u8],
            RecoveryPolicy,
            &mut CodecStats,
            &mut IngestReport,
        ) -> Result<WorkflowLog, LogError>;
        let readers: [(&str, Read); 2] = [
            (flowmark, flowmark::read_log_with),
            (xes, xes::read_log_with),
        ];
        for (input, read) in readers {
            for earlier_bytes in [0, 1000] {
                let mut stats = CodecStats {
                    bytes_read: earlier_bytes,
                    ..CodecStats::default()
                };
                let mut report = IngestReport::default();
                let err = read(
                    input.as_bytes(),
                    RecoveryPolicy::Strict,
                    &mut stats,
                    &mut report,
                )
                .unwrap_err();
                assert!(matches!(err, LogError::UnmatchedStart { .. }), "{err}");
                assert_eq!(report.errors.len(), 1, "{input}");
                assert_eq!(
                    report.errors[0].byte_offset,
                    input.len() as u64,
                    "{input} read after {earlier_bytes} bytes"
                );
                assert_eq!(stats.bytes_read, earlier_bytes + input.len() as u64);
            }
        }
    }

    #[test]
    fn stats_merge_adds_fields() {
        let mut a = CodecStats {
            bytes_read: 1,
            events_parsed: 2,
            executions_parsed: 3,
        };
        a.merge(&CodecStats {
            bytes_read: 10,
            events_parsed: 20,
            executions_parsed: 30,
        });
        assert_eq!(
            a,
            CodecStats {
                bytes_read: 11,
                events_parsed: 22,
                executions_parsed: 33,
            }
        );
    }

    #[test]
    fn stats_json_has_stable_key_order() {
        let stats = CodecStats {
            bytes_read: 1,
            events_parsed: 2,
            executions_parsed: 3,
        };
        assert_eq!(
            stats.to_json(),
            "{\"bytes_read\":1,\"events_parsed\":2,\"executions_parsed\":3}"
        );
    }
}
