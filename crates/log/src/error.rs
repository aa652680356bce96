//! Error type for log construction, parsing and validation.

use std::fmt;

/// Errors produced while building, parsing or validating workflow logs.
#[derive(Debug)]
pub enum LogError {
    /// An execution contained no activity instances.
    EmptyExecution {
        /// The execution (case) name.
        execution: String,
    },
    /// An activity instance ended before it started.
    NegativeInterval {
        /// The execution name.
        execution: String,
        /// Dense index of the offending activity.
        activity: usize,
        /// Recorded start time.
        start: u64,
        /// Recorded end time.
        end: u64,
    },
    /// An END event arrived for an activity with no open START.
    UnmatchedEnd {
        /// The execution name.
        execution: String,
        /// The activity name.
        activity: String,
        /// Timestamp of the END event.
        time: u64,
    },
    /// A START event was never closed by an END in the same execution.
    UnmatchedStart {
        /// The execution name.
        execution: String,
        /// The activity name.
        activity: String,
        /// Timestamp of the START event.
        time: u64,
    },
    /// A line of a text log could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The input ended in the middle of a record — a truncated file or
    /// stream. Distinct from [`LogError::Parse`] so callers can tell
    /// "the tail was cut off" from "this line is garbage".
    UnexpectedEof {
        /// Byte offset at which the truncated record starts.
        byte_offset: u64,
        /// Description of what was being parsed when input ran out.
        message: String,
    },
    /// A recovering read hit more decode errors than its
    /// `RecoveryPolicy::Skip { max_errors }` budget allows.
    TooManyErrors {
        /// Errors seen when the read gave up (`max_errors + 1`).
        errors: u64,
        /// The configured budget.
        max_errors: u64,
    },
    /// An XML syntax error in the XES codec, with source position.
    Xml {
        /// 1-based line number.
        line: usize,
        /// 1-based column (in characters).
        column: usize,
        /// Description of the problem.
        message: String,
    },
    /// An I/O error while reading or writing a log.
    Io(std::io::Error),
    /// A JSON (de)serialization error in the JSON-lines codec.
    Json(serde_json::Error),
    /// The log is empty (no executions) where at least one is required.
    EmptyLog,
}

impl fmt::Display for LogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogError::EmptyExecution { execution } => {
                write!(f, "execution `{execution}` contains no activities")
            }
            LogError::NegativeInterval { execution, activity, start, end } => write!(
                f,
                "execution `{execution}`: activity #{activity} ends at {end} before it starts at {start}"
            ),
            LogError::UnmatchedEnd { execution, activity, time } => write!(
                f,
                "execution `{execution}`: END for `{activity}` at t={time} without a matching START"
            ),
            LogError::UnmatchedStart { execution, activity, time } => write!(
                f,
                "execution `{execution}`: START for `{activity}` at t={time} never followed by an END"
            ),
            LogError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            LogError::UnexpectedEof {
                byte_offset,
                message,
            } => write!(
                f,
                "unexpected end of input at byte {byte_offset}: {message}"
            ),
            LogError::TooManyErrors { errors, max_errors } => write!(
                f,
                "recovery gave up after {errors} decode errors (budget: {max_errors})"
            ),
            LogError::Xml {
                line,
                column,
                message,
            } => write!(f, "XML error at line {line}, column {column}: {message}"),
            LogError::Io(e) => write!(f, "I/O error: {e}"),
            LogError::Json(e) => write!(f, "JSON error: {e}"),
            LogError::EmptyLog => write!(f, "log contains no executions"),
        }
    }
}

impl std::error::Error for LogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LogError::Io(e) => Some(e),
            LogError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for LogError {
    fn from(e: std::io::Error) -> Self {
        LogError::Io(e)
    }
}

impl From<serde_json::Error> for LogError {
    fn from(e: serde_json::Error) -> Self {
        LogError::Json(e)
    }
}
