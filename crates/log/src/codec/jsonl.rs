//! JSON-lines codec: one JSON object per execution, lossless.
//!
//! Each line is an object with the execution id and its instances, with
//! activity names inlined so the file is self-describing:
//!
//! ```json
//! {"id":"p1","instances":[{"activity":"A","start":0,"end":1,"output":[3,4]}]}
//! ```

use super::{ByteLines, CodecStats, IngestReport, Line, RecoveryPolicy};
use crate::{ActivityInstance, ActivityTable, Execution, LogError, WorkflowLog};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, Write};

#[derive(Serialize, Deserialize)]
struct JsonInstance {
    activity: String,
    start: u64,
    end: u64,
    #[serde(skip_serializing_if = "Option::is_none")]
    output: Option<Vec<i64>>,
}

#[derive(Serialize, Deserialize)]
struct JsonExecution {
    id: String,
    instances: Vec<JsonInstance>,
}

/// Writes a log as JSON-lines.
pub fn write_log<W: Write>(log: &WorkflowLog, mut writer: W) -> Result<(), LogError> {
    for exec in log.executions() {
        let je = JsonExecution {
            id: exec.id.clone(),
            instances: exec
                .instances()
                .iter()
                .map(|i| JsonInstance {
                    activity: log.activities().name(i.activity).to_string(),
                    start: i.start,
                    end: i.end,
                    output: i.output.clone(),
                })
                .collect(),
        };
        serde_json::to_writer(&mut writer, &je)?;
        writeln!(writer)?;
    }
    Ok(())
}

/// Reads a JSON-lines log. Blank lines are skipped.
pub fn read_log<R: BufRead>(reader: R) -> Result<WorkflowLog, LogError> {
    read_log_with(
        reader,
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut IngestReport::default(),
    )
}

/// [`read_log`] with telemetry and a [`RecoveryPolicy`]: bytes
/// consumed, activity instances parsed, and executions assembled
/// accumulate into `stats`. A line that is not valid JSON, or whose
/// execution is structurally invalid (no instances, an interval ending
/// before it starts), aborts under `Strict` and is counted and skipped
/// otherwise. An unparsable final line with no trailing newline is
/// reported as [`LogError::UnexpectedEof`] — a truncated file, not a
/// garbage line.
pub fn read_log_with<R: BufRead>(
    reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let mut lines = ByteLines::new(reader);
    let mut table = ActivityTable::new();
    let mut executions = Vec::new();
    let result = read_impl(
        &mut lines,
        policy,
        stats,
        report,
        &mut table,
        &mut executions,
    );
    stats.bytes_read += lines.bytes();
    result?;
    let mut log = WorkflowLog::with_activities(table);
    for e in executions {
        log.push(e);
    }
    stats.executions_parsed += log.len() as u64;
    Ok(log)
}

fn read_impl<R: BufRead>(
    lines: &mut ByteLines<R>,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
    table: &mut ActivityTable,
    executions: &mut Vec<Execution>,
) -> Result<(), LogError> {
    while let Some((offset, lineno, had_newline)) = lines.read_next()? {
        match parse_line(lines.line(), lineno, table) {
            Ok(None) => {}
            Ok(Some(exec)) => {
                stats.events_parsed += exec.len() as u64;
                report.records_parsed += 1;
                executions.push(exec);
            }
            Err(e) => {
                let err = if had_newline {
                    e
                } else {
                    LogError::UnexpectedEof {
                        byte_offset: offset,
                        message: format!("input ends mid-record ({e})"),
                    }
                };
                report.record_error(offset, lineno, err.to_string());
                if policy.is_strict() {
                    return Err(err);
                }
                report.records_skipped += 1;
                report.over_budget(policy)?;
            }
        }
    }
    Ok(())
}

/// Parses one JSON-lines record; `Ok(None)` for a blank line. The
/// execution is validated *before* names are interned, so a skipped
/// record cannot pollute the activity table.
fn parse_line(
    line: Line<'_>,
    lineno: usize,
    table: &mut ActivityTable,
) -> Result<Option<Execution>, LogError> {
    let text = line.text().ok_or_else(|| super::not_utf8(lineno))?;
    if text.trim().is_empty() {
        return Ok(None);
    }
    let je: JsonExecution = serde_json::from_str(text).map_err(|e| LogError::Parse {
        line: lineno,
        message: e.to_string(),
    })?;
    if je.instances.is_empty() {
        return Err(LogError::Parse {
            line: lineno,
            message: format!("execution `{}` has no instances", je.id),
        });
    }
    if let Some(bad) = je.instances.iter().find(|i| i.end < i.start) {
        return Err(LogError::Parse {
            line: lineno,
            message: format!(
                "execution `{}`: activity `{}` ends at {} before it starts at {}",
                je.id, bad.activity, bad.end, bad.start
            ),
        });
    }
    let instances: Vec<ActivityInstance> = je
        .instances
        .into_iter()
        .map(|i| ActivityInstance {
            activity: table.intern(&i.activity),
            start: i.start,
            end: i.end,
            output: i.output,
        })
        .collect();
    let exec = Execution::new(je.id, instances).map_err(|e| LogError::Parse {
        line: lineno,
        message: e.to_string(),
    })?;
    Ok(Some(exec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventRecord;

    #[test]
    fn lossless_round_trip() {
        let records = vec![
            EventRecord::start("p1", "A", 0),
            EventRecord::start("p1", "B", 1), // overlaps A
            EventRecord::end("p1", "A", 2, Some(vec![5, -3])),
            EventRecord::end("p1", "B", 4, None),
        ];
        let log = WorkflowLog::from_events(&records).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 1);
        let exec = &back.executions()[0];
        assert_eq!(exec.instances().len(), 2);
        assert_eq!(exec.instances()[0].start, 0);
        assert_eq!(exec.instances()[0].end, 2);
        assert_eq!(exec.instances()[0].output.as_deref(), Some(&[5i64, -3][..]));
        // Overlap is preserved — no precedence pair between A and B.
        assert_eq!(exec.precedence_pairs().count(), 0);
    }

    #[test]
    fn rejects_bad_json() {
        let result = read_log("{not json\n".as_bytes());
        assert!(matches!(result, Err(LogError::Parse { line: 1, .. })));
        // Without the newline the same garbage reads as a truncated tail.
        let result = read_log("{not json".as_bytes());
        assert!(matches!(
            result,
            Err(LogError::UnexpectedEof { byte_offset: 0, .. })
        ));
    }

    #[test]
    fn skips_blank_lines() {
        let log = WorkflowLog::from_strings(["AB"]).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let padded = format!("\n{}\n\n", String::from_utf8(buf).unwrap());
        let back = read_log(padded.as_bytes()).unwrap();
        assert_eq!(back.len(), 1);
    }
}
