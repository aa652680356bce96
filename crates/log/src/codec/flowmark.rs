//! Flowmark-style CSV event format.
//!
//! One event per line:
//!
//! ```text
//! process,activity,START|END,timestamp[,o1;o2;...]
//! ```
//!
//! The output field is present only on END events that recorded an
//! output vector (semicolon-separated integers). Blank lines and lines
//! starting with `#` are ignored. Field values may not contain commas;
//! this mirrors the flat audit-trail files the paper's implementation
//! consumed ("lists of event records consisting of the process name, the
//! activity name, the event type, and the timestamp", §8).
//!
//! Lines are decoded by [`FlowmarkSource`], the one Flowmark decoder;
//! [`read_log_with`] drains it and assembles the records into a log.

use super::{assemble_records, CodecStats, IngestReport, RecoveryPolicy};
use crate::stream::FlowmarkSource;
use crate::{EventKind, EventRecord, LogError, WorkflowLog};
use std::io::{BufRead, Write};

/// Parses a Flowmark-style event stream and assembles it into a
/// [`WorkflowLog`] (strict START/END pairing).
pub fn read_log<R: BufRead>(reader: R) -> Result<WorkflowLog, LogError> {
    read_log_with(
        reader,
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut IngestReport::default(),
    )
}

/// [`read_log`] with telemetry and a [`RecoveryPolicy`]: bytes
/// consumed, event lines parsed, and executions assembled accumulate
/// into `stats`. Under `Strict` the first bad line aborts (it is still
/// recorded in `report`, with its byte offset); under `Skip`/`BestEffort`
/// bad lines are counted and skipped and START/END pairing falls back
/// to lenient assembly.
/// An unparsable final line with no trailing newline is reported as
/// [`LogError::UnexpectedEof`] — a truncated file, not a garbage line.
/// An I/O error is fatal under every policy and is recorded in
/// `report` too.
pub fn read_log_with<R: BufRead>(
    reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let mut source = FlowmarkSource::new(reader, policy);
    let mut records = Vec::new();
    let drained = loop {
        match source.next_event() {
            Ok(Some((record, _))) => records.push(record),
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let bytes = source.stats().bytes_read;
    stats.bytes_read += bytes;
    report.merge(source.report());
    drained?;
    stats.events_parsed += records.len() as u64;
    assemble_records(&records, policy, bytes, stats, report)
}

/// Writes a log as a Flowmark-style event stream. Instances are emitted
/// per execution in start-time order: a START line, then an END line.
/// Instantaneous instances (`start == end`) still emit both events, so
/// the format round-trips.
pub fn write_log<W: Write>(log: &WorkflowLog, mut writer: W) -> Result<(), LogError> {
    for exec in log.executions() {
        // Emit all events of the execution sorted by time (START before
        // END at equal timestamps so strict re-assembly succeeds).
        let mut events: Vec<EventRecord> = Vec::with_capacity(exec.len() * 2);
        for inst in exec.instances() {
            let name = log.activities().name(inst.activity);
            events.push(EventRecord::start(exec.id.clone(), name, inst.start));
            events.push(EventRecord::end(
                exec.id.clone(),
                name,
                inst.end,
                inst.output.clone(),
            ));
        }
        events.sort_by_key(|e| (e.time, matches!(e.kind, EventKind::End)));
        for e in events {
            write_line(&e, &mut writer)?;
        }
    }
    Ok(())
}

fn write_line<W: Write>(e: &EventRecord, writer: &mut W) -> Result<(), LogError> {
    check_field(&e.process)?;
    check_field(&e.activity)?;
    match &e.output {
        Some(o) => {
            let joined = o.iter().map(i64::to_string).collect::<Vec<_>>().join(";");
            writeln!(
                writer,
                "{},{},{},{},{}",
                e.process, e.activity, e.kind, e.time, joined
            )?;
        }
        None => writeln!(writer, "{},{},{},{}", e.process, e.activity, e.kind, e.time)?,
    }
    Ok(())
}

fn check_field(s: &str) -> Result<(), LogError> {
    if s.contains(',') || s.contains('\n') {
        return Err(LogError::Parse {
            line: 0,
            message: format!("field `{s}` contains a comma or newline and cannot be written"),
        });
    }
    Ok(())
}

/// Parses one trimmed Flowmark-style event line (1-based `lineno` for
/// error reporting). [`FlowmarkSource::next_event`] is its one caller.
pub(crate) fn parse_event_line(line: &str, lineno: usize) -> Result<EventRecord, LogError> {
    let parts: Vec<&str> = line.split(',').collect();
    if parts.len() < 4 || parts.len() > 5 {
        return Err(LogError::Parse {
            line: lineno,
            message: format!(
                "expected 4 or 5 comma-separated fields, got {}",
                parts.len()
            ),
        });
    }
    let kind: EventKind = parts[2].trim().parse().map_err(|()| LogError::Parse {
        line: lineno,
        message: format!("unknown event type `{}`", parts[2]),
    })?;
    let time: u64 = parts[3].trim().parse().map_err(|_| LogError::Parse {
        line: lineno,
        message: format!("invalid timestamp `{}`", parts[3]),
    })?;
    let output = if parts.len() == 5 {
        if kind == EventKind::Start {
            return Err(LogError::Parse {
                line: lineno,
                message: "START events cannot carry an output vector".to_string(),
            });
        }
        let vec: Result<Vec<i64>, _> = parts[4]
            .split(';')
            .map(|v| v.trim().parse::<i64>())
            .collect();
        Some(vec.map_err(|_| LogError::Parse {
            line: lineno,
            message: format!("invalid output vector `{}`", parts[4]),
        })?)
    } else {
        None
    };
    Ok(EventRecord {
        process: parts[0].trim().to_string(),
        activity: parts[1].trim().to_string(),
        kind,
        time,
        output,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# a comment
p1,A,START,0
p1,A,END,1,3;4

p1,B,START,2
p1,B,END,3
p2,A,START,0
p2,A,END,2
";

    #[test]
    fn parses_sample() {
        let log = read_log(SAMPLE.as_bytes()).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log.executions()[0].len(), 2);
        let a = log.activities().id("A").unwrap();
        assert_eq!(log.executions()[0].output_of(a), Some(&[3i64, 4][..]));
    }

    #[test]
    fn round_trip() {
        let log = read_log(SAMPLE.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.len(), log.len());
        assert_eq!(back.display_sequences(), log.display_sequences());
        let a = back.activities().id("A").unwrap();
        assert_eq!(back.executions()[0].output_of(a), Some(&[3i64, 4][..]));
    }

    #[test]
    fn instantaneous_sequences_round_trip() {
        let log = WorkflowLog::from_strings(["ABCE", "ACDE"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.display_sequences(), log.display_sequences());
    }

    #[test]
    fn rejects_malformed_lines() {
        for (line, why) in [
            ("p1,A,START", "too few fields"),
            ("p1,A,BEGIN,0", "unknown event type"),
            ("p1,A,START,abc", "bad timestamp"),
            ("p1,A,START,0,1;2", "output on a START"),
            ("p1,A,END,0,1;x", "bad output vector"),
        ] {
            assert!(
                matches!(
                    parse_event_line(line, 7),
                    Err(LogError::Parse { line: 7, .. })
                ),
                "{why}: {line:?}"
            );
        }
    }

    #[test]
    fn rejects_unwritable_fields() {
        let mut log = WorkflowLog::new();
        log.push_sequence(&["bad,name"]).unwrap();
        let mut buf = Vec::new();
        assert!(write_log(&log, &mut buf).is_err());
    }
}
