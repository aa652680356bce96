//! Sequence format: one execution per line, whitespace-separated names.
//!
//! ```text
//! # optional comment
//! A B C E
//! A C D E
//! ```
//!
//! This is the paper's compact execution notation (`ABCE`), generalized
//! to multi-character activity names. Interval and output information is
//! not representable — executions are read back as instantaneous.

use super::{ByteLines, CodecStats, IngestReport, RecoveryPolicy};
use crate::{LogError, WorkflowLog};
use std::io::{BufRead, Write};

/// Reads a sequence-format log.
pub fn read_log<R: BufRead>(reader: R) -> Result<WorkflowLog, LogError> {
    read_log_with(
        reader,
        RecoveryPolicy::Strict,
        &mut CodecStats::default(),
        &mut IngestReport::default(),
    )
}

/// [`read_log`] with telemetry and a [`RecoveryPolicy`]: bytes
/// consumed, activity names parsed, and executions assembled accumulate
/// into `stats`. Bad lines abort (`Strict`) or are counted and skipped.
/// Note that truncation is mostly *undetectable* in this format — any
/// prefix of a line is itself a valid sequence — so a cut-off tail
/// silently drops activities; only an unparsable unterminated tail
/// (e.g. split multi-byte UTF-8) surfaces as [`LogError::UnexpectedEof`].
pub fn read_log_with<R: BufRead>(
    reader: R,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
) -> Result<WorkflowLog, LogError> {
    let mut lines = ByteLines::new(reader);
    let mut log = WorkflowLog::new();
    let result = read_impl(&mut lines, policy, stats, report, &mut log);
    stats.bytes_read += lines.bytes();
    result?;
    stats.executions_parsed += log.len() as u64;
    Ok(log)
}

fn read_impl<R: BufRead>(
    lines: &mut ByteLines<R>,
    policy: RecoveryPolicy,
    stats: &mut CodecStats,
    report: &mut IngestReport,
    log: &mut WorkflowLog,
) -> Result<(), LogError> {
    while let Some((offset, lineno, had_newline)) = lines.read_next()? {
        let pushed = match std::str::from_utf8(lines.line()) {
            Ok(text) => {
                let trimmed = text.trim();
                if trimmed.is_empty() || trimmed.starts_with('#') {
                    continue;
                }
                let names: Vec<&str> = trimmed.split_whitespace().collect();
                let count = names.len() as u64;
                log.push_sequence(&names)
                    .map(|_| count)
                    .map_err(|e| match e {
                        LogError::EmptyExecution { .. } => LogError::Parse {
                            line: lineno,
                            message: "empty execution".to_string(),
                        },
                        other => other,
                    })
            }
            Err(_) => Err(LogError::Parse {
                line: lineno,
                message: "line is not valid UTF-8".to_string(),
            }),
        };
        match pushed {
            Ok(count) => {
                stats.events_parsed += count;
                report.records_parsed += 1;
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

/// Writes a log in sequence format (activity names in start-time order,
/// one execution per line). Interval overlap and outputs are lost.
/// An execution whose line would start with `#` is refused: the reader
/// would skip it as a comment.
pub fn write_log<W: Write>(log: &WorkflowLog, mut writer: W) -> Result<(), LogError> {
    for exec in log.executions() {
        let line = exec.display(log.activities());
        if line.split_whitespace().count() != exec.len() {
            return Err(LogError::Parse {
                line: 0,
                message:
                    "activity names containing whitespace cannot be written in sequence format"
                        .to_string(),
            });
        }
        if line.trim_start().starts_with('#') {
            return Err(LogError::Parse {
                line: 0,
                message: format!(
                    "execution `{}` starts with an activity name beginning with `#`, which the \
                     reader takes for a comment line, and cannot be written in sequence format",
                    exec.id
                ),
            });
        }
        writeln!(writer, "{line}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_and_writes() {
        let text = "# log\nA B C E\nA C D E\n\nA D B E\n";
        let log = read_log(text.as_bytes()).unwrap();
        assert_eq!(log.len(), 3);
        assert_eq!(
            log.display_sequences(),
            vec!["A B C E", "A C D E", "A D B E"]
        );
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        let back = read_log(buf.as_slice()).unwrap();
        assert_eq!(back.display_sequences(), log.display_sequences());
    }

    #[test]
    fn multi_character_names() {
        let log = read_log("Receive Approve Ship\nReceive Reject\n".as_bytes()).unwrap();
        assert_eq!(log.activities().len(), 4);
        assert!(log.activities().id("Approve").is_some());
    }

    #[test]
    fn executions_starting_with_a_hash_name_are_unwritable() {
        // Written, `#A B` would read back as a comment line: one of the
        // two executions lost without an error.
        let mut log = WorkflowLog::new();
        log.push_sequence(&["#A", "B"]).unwrap();
        log.push_sequence(&["C"]).unwrap();
        let err = write_log(&log, &mut Vec::new()).unwrap_err().to_string();
        assert!(
            err.contains(&format!("`{}`", log.executions()[0].id)),
            "{err}"
        );
        // Later in a line, `#` is an ordinary name character.
        let log = read_log("A #B\n".as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_log(&log, &mut buf).unwrap();
        assert_eq!(buf, b"A #B\n");
    }

    #[test]
    fn whitespace_names_unwritable() {
        let mut log = WorkflowLog::new();
        log.push_sequence(&["bad name", "B"]).unwrap();
        assert!(write_log(&log, &mut Vec::new()).is_err());
    }
}
