//! Reference XES reader — the original character-based pull parser,
//! kept as it was (apart from the shared output-vector parser below,
//! which refuses an output that is not a list of integers instead of
//! dropping its bad entries; the shared `unescape`, which decodes
//! numeric character references; and close tags, which must close the
//! innermost open element, with `concept:name` renaming a trace only
//! directly inside it, as in the fast parser) so differential tests can
//! pin the zero-copy parser in [`super::xes`] to its exact behaviour:
//! same `WorkflowLog`, same
//! [`IngestReport`] (error byte offsets, line numbers, messages), same
//! terminal errors.
//!
//! This module is test infrastructure, not API: it has no writer, it is
//! `O(chars)` in memory and `O(n²)` in START/END balancing, and it will
//! be removed once the fast parser has survived a few releases. Shared
//! pieces (timestamp conversion, entity unescaping, the output-vector
//! parser, assembly) are imported from [`super::xes`] and
//! [`super::flowmark`] so the comparison isolates the parsing itself.

use super::flowmark::parse_output_vector;
use super::xes::{iso8601_to_millis, mismatched_close, unescape};
use super::{CodecStats, IngestReport, RecoveryPolicy};
use crate::{EventKind, EventRecord, LogError, WorkflowLog};
use std::collections::HashMap;
use std::io::BufRead;

/// An XML event from the mini-parser.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Xml {
    Open {
        name: String,
        attrs: HashMap<String, String>,
        self_closing: bool,
    },
    Close(String),
}

struct XmlParser {
    text: Vec<char>,
    pos: usize,
    /// Where the close tag `next` returned last starts (its `<`).
    tag_start: usize,
}

impl XmlParser {
    fn new(text: &str) -> Self {
        XmlParser {
            text: text.chars().collect(),
            pos: 0,
            tag_start: 0,
        }
    }

    /// 1-based line, 1-based column (in characters), and byte offset of
    /// the current position. O(pos), but only paid on the error paths.
    fn position(&self) -> (usize, usize, u64) {
        self.position_at(self.pos)
    }

    /// [`XmlParser::position`] of character `at`.
    fn position_at(&self, at: usize) -> (usize, usize, u64) {
        let (mut line, mut column, mut bytes) = (1usize, 1usize, 0u64);
        for &c in &self.text[..at.min(self.text.len())] {
            bytes += c.len_utf8() as u64;
            if c == '\n' {
                line += 1;
                column = 1;
            } else {
                column += 1;
            }
        }
        (line, column, bytes)
    }

    /// An error at the current position: [`LogError::UnexpectedEof`]
    /// when input ran out (truncation), [`LogError::Xml`] with
    /// line/column otherwise.
    fn error(&self, message: impl Into<String>) -> LogError {
        let (line, column, byte_offset) = self.position();
        if self.pos >= self.text.len() {
            LogError::UnexpectedEof {
                byte_offset,
                message: message.into(),
            }
        } else {
            LogError::Xml {
                line,
                column,
                message: message.into(),
            }
        }
    }

    /// After a syntax error in a recovering read: step past the
    /// offending character so the pull loop re-syncs at the next `<`.
    /// Always advances, so a corrupt document cannot loop forever.
    fn resync(&mut self) {
        self.pos += 1;
    }

    /// Next element-open or element-close event, skipping text,
    /// comments, declarations and processing instructions.
    fn next(&mut self) -> Result<Option<Xml>, LogError> {
        loop {
            // Skip character data.
            while self.pos < self.text.len() && self.text[self.pos] != '<' {
                self.pos += 1;
            }
            if self.pos >= self.text.len() {
                return Ok(None);
            }
            // Comment / declaration / PI?
            if self.starts_with("<!--") {
                self.skip_until("-->")?;
                continue;
            }
            if self.starts_with("<?") {
                self.skip_until("?>")?;
                continue;
            }
            if self.starts_with("<!") {
                self.skip_until(">")?;
                continue;
            }
            if self.starts_with("</") {
                self.tag_start = self.pos;
                self.pos += 2;
                let name = self.read_name()?;
                self.skip_ws();
                if !self.consume('>') {
                    return Err(self.error("malformed closing tag"));
                }
                return Ok(Some(Xml::Close(name)));
            }
            // Opening tag.
            self.pos += 1;
            let name = self.read_name()?;
            let mut attrs = HashMap::new();
            loop {
                self.skip_ws();
                if self.consume('>') {
                    return Ok(Some(Xml::Open {
                        name,
                        attrs,
                        self_closing: false,
                    }));
                }
                if self.starts_with("/>") {
                    self.pos += 2;
                    return Ok(Some(Xml::Open {
                        name,
                        attrs,
                        self_closing: true,
                    }));
                }
                let key = self.read_name()?;
                self.skip_ws();
                if !self.consume('=') {
                    return Err(self.error(format!("attribute `{key}` missing `=`")));
                }
                self.skip_ws();
                let quote = if self.consume('"') {
                    '"'
                } else if self.consume('\'') {
                    '\''
                } else {
                    return Err(self.error(format!("attribute `{key}` missing quote")));
                };
                let start = self.pos;
                while self.pos < self.text.len() && self.text[self.pos] != quote {
                    self.pos += 1;
                }
                if self.pos >= self.text.len() {
                    return Err(self.error("unterminated attribute value"));
                }
                let raw: String = self.text[start..self.pos].iter().collect();
                self.pos += 1; // closing quote
                let value = unescape(&raw).map_err(|m| self.error(m))?;
                attrs.insert(key, value);
            }
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.text[self.pos..]
            .iter()
            .zip(s.chars())
            .filter(|(a, b)| **a == *b)
            .count()
            == s.len()
    }

    fn skip_until(&mut self, end: &str) -> Result<(), LogError> {
        while self.pos < self.text.len() {
            if self.starts_with(end) {
                self.pos += end.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.error(format!("unterminated construct (expected `{end}`)")))
    }

    fn skip_ws(&mut self) {
        while self.pos < self.text.len() && self.text[self.pos].is_whitespace() {
            self.pos += 1;
        }
    }

    fn consume(&mut self, c: char) -> bool {
        if self.pos < self.text.len() && self.text[self.pos] == c {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn read_name(&mut self) -> Result<String, LogError> {
        let start = self.pos;
        while self.pos < self.text.len() {
            let c = self.text[self.pos];
            if c.is_alphanumeric() || matches!(c, ':' | '_' | '-' | '.') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.error("expected a name"));
        }
        Ok(self.text[start..self.pos].iter().collect())
    }
}

/// Reference equivalent of [`super::xes::read_log_with`]: same policy
/// semantics, same report, same stats, produced by the original
/// character-based parser.
pub fn read_log_with<R: BufRead>(
    mut reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let mut raw = Vec::new();
    let read_result = reader.read_to_end(&mut raw);
    stats.bytes_read += raw.len() as u64;
    read_result?;
    let text = match String::from_utf8(raw) {
        Ok(text) => text,
        Err(e) => {
            let offset = e.utf8_error().valid_up_to() as u64;
            if policy.is_strict() {
                let err = LogError::Parse {
                    line: 0,
                    message: format!("input is not valid UTF-8 (first bad byte at {offset})"),
                };
                report.record_error(offset, 0, err.to_string());
                return Err(err);
            }
            report.record_error(offset, 0, "input is not valid UTF-8; decoding lossily");
            report.over_budget(policy)?;
            String::from_utf8_lossy(e.as_bytes()).into_owned()
        }
    };
    let mut parser = XmlParser::new(&text);
    let records = parse_events(&mut parser, policy, stats, report)?;
    let log = if policy.is_strict() {
        WorkflowLog::from_events(&records).map_err(|e| {
            report.record_error(stats.bytes_read, 0, e.to_string());
            e
        })?
    } else {
        let mut table = crate::ActivityTable::new();
        let assembled = crate::validate::assemble_executions_with(
            &records,
            &mut table,
            crate::validate::AssemblyPolicy::Lenient,
        )
        .map_err(|e| {
            report.record_error(stats.bytes_read, 0, e.to_string());
            e
        })?;
        report.records_skipped += assembled.diagnostics.len() as u64;
        let mut log = WorkflowLog::with_activities(table);
        for exec in assembled.executions {
            log.push(exec);
        }
        log
    };
    stats.executions_parsed += log.len() as u64;
    Ok(log)
}

fn parse_events(
    parser: &mut XmlParser,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<Vec<EventRecord>, LogError> {
    let mut records: Vec<EventRecord> = Vec::new();
    // Parse state.
    let mut trace_name: Option<String> = None;
    let mut trace_counter = 0usize;
    let mut in_event = false;
    let mut event_attrs: HashMap<String, String> = HashMap::new();
    // Open (non-self-closing) elements, innermost last. A non-empty
    // stack at EOF means the document was cut off between records —
    // truncation that clean XML-level parsing would otherwise miss.
    let mut open_elements: Vec<String> = Vec::new();
    loop {
        let xml = match parser.next() {
            Ok(None) => {
                if let Some(innermost) = open_elements.last() {
                    let (line, _, byte_offset) = parser.position();
                    let err = LogError::UnexpectedEof {
                        byte_offset,
                        message: format!("input ends inside an open <{innermost}> element"),
                    };
                    report.record_error(byte_offset, line, err.to_string());
                    if policy.is_strict() {
                        return Err(err);
                    }
                    report.over_budget(policy)?;
                }
                break;
            }
            Ok(Some(xml)) => xml,
            Err(e) => {
                let (line, _, byte_offset) = parser.position();
                report.record_error(byte_offset, line, e.to_string());
                if policy.is_strict() {
                    return Err(e);
                }
                report.over_budget(policy)?;
                // Attribute state is suspect after a syntax error.
                in_event = false;
                parser.resync();
                continue;
            }
        };
        let parent = open_elements.last().cloned();
        match &xml {
            Xml::Open {
                name,
                self_closing: false,
                ..
            } => open_elements.push(name.clone()),
            Xml::Close(name) if open_elements.last() == Some(name) => {
                open_elements.pop();
            }
            Xml::Close(name) => {
                // A close tag must close the innermost open element. A
                // recovering read records the mismatch and emits nothing
                // for it; it closes the innermost element of that name,
                // if one is open, with everything left open inside it.
                let (line, column, byte_offset) = parser.position_at(parser.tag_start);
                let err = LogError::Xml {
                    line,
                    column,
                    message: mismatched_close(name, open_elements.last().map(String::as_str)),
                };
                report.record_error(byte_offset, line, err.to_string());
                if policy.is_strict() {
                    return Err(err);
                }
                report.over_budget(policy)?;
                if let Some(i) = open_elements.iter().rposition(|n| n == name) {
                    let closed = &open_elements[i..];
                    if closed.iter().any(|n| n == "event") {
                        in_event = false;
                    }
                    if closed.iter().any(|n| n == "trace") {
                        trace_name = None;
                    }
                    open_elements.truncate(i);
                }
                continue;
            }
            _ => {}
        }
        match xml {
            Xml::Open { name, .. } if name == "trace" => {
                trace_counter += 1;
                trace_name = Some(format!("trace-{trace_counter}"));
            }
            Xml::Open { name, .. } if name == "event" => {
                in_event = true;
                event_attrs.clear();
            }
            Xml::Open { name, attrs, .. }
                if matches!(
                    name.as_str(),
                    "string" | "date" | "int" | "float" | "boolean"
                ) =>
            {
                // Nested attributes are allowed by XES; we only need the
                // top-level key/value, children are skipped naturally.
                let key = attrs.get("key").cloned().unwrap_or_default();
                let value = attrs.get("value").cloned().unwrap_or_default();
                if in_event {
                    event_attrs.insert(key, value);
                } else if key == "concept:name"
                    && parent.as_deref() == Some("trace")
                    && trace_name.is_some()
                {
                    trace_name = Some(value);
                }
            }
            Xml::Close(name) if name == "event" => {
                in_event = false;
                match close_event(&event_attrs, trace_name.as_deref(), &mut records, parser) {
                    Ok(()) => {
                        stats.events_parsed += 1;
                        report.records_parsed += 1;
                    }
                    Err(e) => {
                        let (line, _, byte_offset) = parser.position();
                        report.record_error(byte_offset, line, e.to_string());
                        if policy.is_strict() {
                            return Err(e);
                        }
                        report.records_skipped += 1;
                        report.over_budget(policy)?;
                    }
                }
            }
            Xml::Close(name) if name == "trace" => {
                trace_name = None;
            }
            _ => {}
        }
    }
    Ok(records)
}

/// Turns one closed `<event>` into START/END records. Validates before
/// pushing, so a failed event leaves `records` untouched.
fn close_event(
    event_attrs: &HashMap<String, String>,
    trace_name: Option<&str>,
    records: &mut Vec<EventRecord>,
    parser: &XmlParser,
) -> Result<(), LogError> {
    let case = trace_name.unwrap_or("trace-0").to_string();
    let activity = event_attrs
        .get("concept:name")
        .cloned()
        .ok_or_else(|| parser.error("event without concept:name"))?;
    let stamp = match event_attrs.get("time:timestamp") {
        Some(ts) => iso8601_to_millis(ts).map_err(|message| parser.error(message))?,
        None => records.len() as u64, // ordinal fallback
    };
    let transition = event_attrs
        .get("lifecycle:transition")
        .map(|s| s.to_ascii_lowercase())
        .unwrap_or_else(|| "complete".to_string());
    let output = event_attrs
        .get("procmine:output")
        .map(|v| {
            parse_output_vector(v)
                .ok_or_else(|| parser.error(format!("invalid output vector `{v}`")))
        })
        .transpose()?;
    match transition.as_str() {
        "start" => records.push(EventRecord {
            process: case,
            activity,
            kind: EventKind::Start,
            time: stamp,
            output: None,
        }),
        // Everything else — complete, and coarse lifecycles like
        // "ate_abort" — closes the instance.
        _ => {
            // If no START is open for this activity in this case,
            // synthesize an instantaneous one.
            let open_starts = records
                .iter()
                .filter(|r| {
                    r.process == case && r.activity == activity && r.kind == EventKind::Start
                })
                .count();
            let closed = records
                .iter()
                .filter(|r| r.process == case && r.activity == activity && r.kind == EventKind::End)
                .count();
            if open_starts == closed {
                records.push(EventRecord {
                    process: case.clone(),
                    activity: activity.clone(),
                    kind: EventKind::Start,
                    time: stamp,
                    output: None,
                });
            }
            records.push(EventRecord {
                process: case,
                activity,
                kind: EventKind::End,
                time: stamp,
                output,
            });
        }
    }
    Ok(())
}
