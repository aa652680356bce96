//! Resource guards for the miners.
//!
//! The mining algorithms are polynomial but not cheap: Algorithm 2 is
//! O(n²) per execution and Algorithm 3 multiplies the vertex space by
//! the repeat count. A hostile (or merely corrupt) log can therefore
//! make a miner run for a very long time while staying perfectly
//! parseable. [`Limits`] bounds a mining run along four axes — total
//! events, distinct activities, events per execution, and wall-clock
//! time — turning "the process hangs" into a typed
//! [`MineError::LimitExceeded`].
//!
//! Size limits are enforced at miner entry (one pass over the log
//! before any quadratic work starts). The deadline is re-checked inside
//! every per-execution loop, so a run over `m` executions exceeds its
//! deadline by at most the cost of one execution — which the size
//! limits in turn bound. The graph post-processing passes (the special
//! miner's global transitive reduction and the SCC dissolution of the
//! pruning step) re-check it too, as a [`procmine_graph::Budget`], so a
//! pathological dense graph cannot hide from the deadline inside a
//! single graph call.

use crate::MineError;
use std::time::{Duration, Instant};

/// Which resource limit a mining run exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LimitKind {
    /// Total activity instances across the log ([`Limits::max_events`]).
    Events,
    /// Distinct activities ([`Limits::max_activities`]).
    Activities,
    /// Activity instances in a single execution
    /// ([`Limits::max_execution_len`]).
    ExecutionLength,
    /// Wall-clock deadline ([`Limits::deadline`]).
    Deadline,
}

impl std::fmt::Display for LimitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LimitKind::Events => "events",
            LimitKind::Activities => "activities",
            LimitKind::ExecutionLength => "execution-length",
            LimitKind::Deadline => "deadline",
        })
    }
}

/// Resource bounds for a mining run. Every field defaults to `None`
/// (unlimited), so `Limits::default()` preserves the unguarded
/// behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Limits {
    /// Maximum total activity instances across the whole log.
    pub max_events: Option<u64>,
    /// Maximum number of distinct activities.
    pub max_activities: Option<usize>,
    /// Maximum activity instances in any single execution.
    pub max_execution_len: Option<usize>,
    /// Wall-clock budget for the mining run, measured from miner entry.
    pub deadline: Option<Duration>,
}

impl Limits {
    /// Checks the size limits against a whole log — run once at miner
    /// entry, before any quadratic work.
    pub fn check_log(&self, log: &procmine_log::WorkflowLog) -> Result<(), MineError> {
        if let Some(max) = self.max_activities {
            let n = log.activities().len();
            if n > max {
                return Err(MineError::LimitExceeded {
                    kind: LimitKind::Activities,
                    details: format!("log has {n} distinct activities (limit {max})"),
                });
            }
        }
        let mut events: u64 = 0;
        for exec in log.executions() {
            let len = exec.len();
            if let Some(max) = self.max_execution_len {
                if len > max {
                    return Err(MineError::LimitExceeded {
                        kind: LimitKind::ExecutionLength,
                        details: format!(
                            "execution `{}` has {len} activity instances (limit {max})",
                            exec.id
                        ),
                    });
                }
            }
            events += len as u64;
            if let Some(max) = self.max_events {
                if events > max {
                    return Err(MineError::LimitExceeded {
                        kind: LimitKind::Events,
                        details: format!("log exceeds {max} total activity instances"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Starts the wall clock: the returned [`Deadline`] is re-checked
    /// inside the per-execution mining loops.
    pub(crate) fn start_clock(&self) -> Deadline {
        Deadline(self.deadline.map(|d| Instant::now() + d))
    }
}

/// A started wall-clock deadline, threaded through the mining loops.
/// `Deadline(None)` (no limit) checks without touching the clock.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Deadline(Option<Instant>);

impl Deadline {
    /// A deadline that never fires.
    #[cfg(test)]
    pub(crate) fn unlimited() -> Self {
        Deadline(None)
    }

    /// A deadline that has effectively already passed (it expires the
    /// instant it is created), for deterministic tests of the budgeted
    /// graph phases.
    #[cfg(test)]
    pub(crate) fn already_expired() -> Self {
        Deadline(Some(Instant::now()))
    }

    /// The same deadline as a [`procmine_graph::Budget`], for the
    /// budgeted graph algorithms (transitive reduction, Tarjan SCC).
    pub(crate) fn budget(self) -> procmine_graph::Budget {
        match self.0 {
            Some(t) => procmine_graph::Budget::with_deadline(t),
            None => procmine_graph::Budget::unlimited(),
        }
    }

    /// The typed error the graph algorithms' budget exhaustion maps to.
    pub(crate) fn exceeded_in(context: &str) -> MineError {
        MineError::LimitExceeded {
            kind: LimitKind::Deadline,
            details: format!("wall-clock deadline passed during {context}"),
        }
    }

    /// Errors with [`MineError::LimitExceeded`] once the deadline has
    /// passed. Free when no deadline is set.
    #[inline]
    pub(crate) fn check(self) -> Result<(), MineError> {
        match self.0 {
            None => Ok(()),
            Some(t) => {
                if Instant::now() <= t {
                    Ok(())
                } else {
                    Err(MineError::LimitExceeded {
                        kind: LimitKind::Deadline,
                        details: "wall-clock deadline passed".to_string(),
                    })
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use procmine_log::WorkflowLog;

    #[test]
    fn default_limits_pass_everything() {
        let log = WorkflowLog::from_strings(["ABC", "AC"]).unwrap();
        assert!(Limits::default().check_log(&log).is_ok());
        assert!(Deadline::unlimited().check().is_ok());
    }

    #[test]
    fn activity_limit_enforced() {
        let log = WorkflowLog::from_strings(["ABC"]).unwrap();
        let limits = Limits {
            max_activities: Some(2),
            ..Limits::default()
        };
        assert!(matches!(
            limits.check_log(&log),
            Err(MineError::LimitExceeded {
                kind: LimitKind::Activities,
                ..
            })
        ));
    }

    #[test]
    fn event_limit_counts_across_executions() {
        let log = WorkflowLog::from_strings(["ABC", "ABC"]).unwrap();
        let limits = Limits {
            max_events: Some(5),
            ..Limits::default()
        };
        assert!(matches!(
            limits.check_log(&log),
            Err(MineError::LimitExceeded {
                kind: LimitKind::Events,
                ..
            })
        ));
        let roomy = Limits {
            max_events: Some(6),
            ..Limits::default()
        };
        assert!(roomy.check_log(&log).is_ok());
    }

    #[test]
    fn execution_length_limit_names_the_execution() {
        let log = WorkflowLog::from_strings(["AB", "ABCD"]).unwrap();
        let limits = Limits {
            max_execution_len: Some(3),
            ..Limits::default()
        };
        match limits.check_log(&log) {
            Err(MineError::LimitExceeded {
                kind: LimitKind::ExecutionLength,
                details,
            }) => assert!(details.contains("exec-1"), "details: {details}"),
            other => panic!("expected ExecutionLength, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_fires() {
        let limits = Limits {
            deadline: Some(Duration::ZERO),
            ..Limits::default()
        };
        let clock = limits.start_clock();
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            clock.check(),
            Err(MineError::LimitExceeded {
                kind: LimitKind::Deadline,
                ..
            })
        ));
    }
}
