//! Validation and assembly of raw event streams into executions.
//!
//! Real logs (the paper's §6) contain noise: unmatched events, activities
//! reported out of order, clock oddities. This module turns a flat,
//! possibly interleaved stream of [`EventRecord`]s into per-execution
//! [`Execution`] values, either strictly (any structural problem is an
//! error) or leniently (problems are dropped and reported as
//! diagnostics, letting the noise-tolerant miner see the rest).

use crate::{ActivityInstance, ActivityTable, EventKind, EventRecord, Execution, LogError};
use std::collections::HashMap;

/// How [`assemble_executions_with`] treats structural problems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AssemblyPolicy {
    /// Any unmatched START or END is an error.
    #[default]
    Strict,
    /// Unmatched events are skipped and reported as diagnostics.
    Lenient,
}

/// A non-fatal problem found while assembling a log leniently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Diagnostic {
    /// An END with no open START (dropped).
    DanglingEnd {
        /// Execution name.
        execution: String,
        /// Activity name.
        activity: String,
        /// Event time.
        time: u64,
    },
    /// A START never closed (dropped).
    DanglingStart {
        /// Execution name.
        execution: String,
        /// Activity name.
        activity: String,
        /// Event time.
        time: u64,
    },
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Diagnostic::DanglingEnd {
                execution,
                activity,
                time,
            } => write!(
                f,
                "case `{execution}`: dropped END for `{activity}` at t={time} (no open START)"
            ),
            Diagnostic::DanglingStart {
                execution,
                activity,
                time,
            } => write!(
                f,
                "case `{execution}`: dropped START for `{activity}` at t={time} (never ended)"
            ),
        }
    }
}

/// Finds the index of the event record a lenient-assembly diagnostic
/// refers to (first match by kind, activity, and time), so streaming
/// callers can report the diagnostic with the record's byte offset and
/// line number.
pub fn locate_diagnostic(records: &[EventRecord], diag: &Diagnostic) -> Option<usize> {
    let (want_kind, activity, time) = match diag {
        Diagnostic::DanglingEnd { activity, time, .. } => (EventKind::End, activity, *time),
        Diagnostic::DanglingStart { activity, time, .. } => (EventKind::Start, activity, *time),
    };
    records
        .iter()
        .position(|r| r.kind == want_kind && r.activity == *activity && r.time == time)
}

/// Result of a lenient assembly: the usable executions plus diagnostics.
#[derive(Debug)]
pub struct AssemblyReport {
    /// Executions that could be assembled (empty ones are skipped).
    pub executions: Vec<Execution>,
    /// Problems encountered.
    pub diagnostics: Vec<Diagnostic>,
}

/// Strictly assembles `records` into executions, interning activity names
/// into `table`. Equivalent to
/// [`assemble_executions_with`]`(records, table, AssemblyPolicy::Strict)`.
pub fn assemble_executions(
    records: &[EventRecord],
    table: &mut ActivityTable,
) -> Result<Vec<Execution>, LogError> {
    let (execs, _) = assemble_impl(records, table, AssemblyPolicy::Strict)?;
    Ok(execs)
}

/// Assembles `records` into executions under the given policy.
///
/// Events are grouped by process name (executions keep the order of their
/// first event) and sorted by timestamp within each group (stable, so
/// equal timestamps keep log order — in particular a START logged before
/// an END at the same instant pairs correctly). An END closes the
/// earliest open START of the same activity.
pub fn assemble_executions_with(
    records: &[EventRecord],
    table: &mut ActivityTable,
    policy: AssemblyPolicy,
) -> Result<AssemblyReport, LogError> {
    let (executions, diagnostics) = assemble_impl(records, table, policy)?;
    Ok(AssemblyReport {
        executions,
        diagnostics,
    })
}

fn assemble_impl(
    records: &[EventRecord],
    table: &mut ActivityTable,
    policy: AssemblyPolicy,
) -> Result<(Vec<Execution>, Vec<Diagnostic>), LogError> {
    // Group by process name, preserving first-seen order.
    let mut order: Vec<&str> = Vec::new();
    let mut groups: HashMap<&str, Vec<&EventRecord>> = HashMap::new();
    for r in records {
        groups
            .entry(&r.process)
            .or_insert_with(|| {
                order.push(&r.process);
                Vec::new()
            })
            .push(r);
    }

    let mut diagnostics = Vec::new();
    let mut executions = Vec::new();
    for name in order {
        let Some(mut events) = groups.remove(name) else {
            continue; // unreachable: `order` mirrors `groups` keys
        };
        events.sort_by_key(|r| r.time); // stable: log order breaks ties

        // Open STARTs per activity, FIFO.
        let mut open: HashMap<&str, Vec<(u64, usize)>> = HashMap::new();
        let mut instances: Vec<ActivityInstance> = Vec::new();
        for r in &events {
            match r.kind {
                EventKind::Start => {
                    let idx = instances.len();
                    instances.push(ActivityInstance {
                        activity: table.intern(&r.activity),
                        start: r.time,
                        end: u64::MAX, // patched on END
                        output: None,
                    });
                    open.entry(&r.activity).or_default().push((r.time, idx));
                }
                EventKind::End => {
                    let slot = open.get_mut(r.activity.as_str()).and_then(|v| {
                        if v.is_empty() {
                            None
                        } else {
                            Some(v.remove(0))
                        }
                    });
                    match slot {
                        Some((_, idx)) => {
                            instances[idx].end = r.time;
                            instances[idx].output = r.output.clone();
                        }
                        None => match policy {
                            AssemblyPolicy::Strict => {
                                return Err(LogError::UnmatchedEnd {
                                    execution: name.to_string(),
                                    activity: r.activity.clone(),
                                    time: r.time,
                                })
                            }
                            AssemblyPolicy::Lenient => diagnostics.push(Diagnostic::DanglingEnd {
                                execution: name.to_string(),
                                activity: r.activity.clone(),
                                time: r.time,
                            }),
                        },
                    }
                }
            }
        }

        // Any still-open STARTs are unmatched; report them in instance
        // order, not the map's hash order.
        let mut dangling: Vec<(usize, &str, u64)> = open
            .into_iter()
            .flat_map(|(activity, starts)| {
                starts
                    .into_iter()
                    .map(move |(time, idx)| (idx, activity, time))
            })
            .collect();
        dangling.sort_unstable_by_key(|&(idx, ..)| idx);
        for &(_, activity, time) in &dangling {
            match policy {
                AssemblyPolicy::Strict => {
                    return Err(LogError::UnmatchedStart {
                        execution: name.to_string(),
                        activity: activity.to_string(),
                        time,
                    })
                }
                AssemblyPolicy::Lenient => diagnostics.push(Diagnostic::DanglingStart {
                    execution: name.to_string(),
                    activity: activity.to_string(),
                    time,
                }),
            }
        }
        for &(idx, ..) in dangling.iter().rev() {
            instances.remove(idx);
        }

        if instances.is_empty() {
            // A lenient pass may have dropped everything; skip the case.
            continue;
        }
        executions.push(Execution::new(name, instances)?);
    }
    Ok((executions, diagnostics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strict_rejects_dangling_end() {
        let records = vec![EventRecord::end("p", "A", 3, None)];
        let mut t = ActivityTable::new();
        assert!(matches!(
            assemble_executions(&records, &mut t),
            Err(LogError::UnmatchedEnd { .. })
        ));
    }

    #[test]
    fn strict_rejects_dangling_start() {
        let records = vec![
            EventRecord::start("p", "A", 0),
            EventRecord::end("p", "A", 1, None),
            EventRecord::start("p", "B", 2),
        ];
        let mut t = ActivityTable::new();
        assert!(matches!(
            assemble_executions(&records, &mut t),
            Err(LogError::UnmatchedStart { .. })
        ));
    }

    #[test]
    fn lenient_drops_and_reports() {
        let records = vec![
            EventRecord::end("p", "Z", 0, None), // dangling END
            EventRecord::start("p", "A", 1),
            EventRecord::end("p", "A", 2, None),
            EventRecord::start("p", "B", 3), // dangling START
        ];
        let mut t = ActivityTable::new();
        let report = assemble_executions_with(&records, &mut t, AssemblyPolicy::Lenient).unwrap();
        assert_eq!(report.executions.len(), 1);
        assert_eq!(report.executions[0].len(), 1);
        assert_eq!(report.diagnostics.len(), 2);
    }

    #[test]
    fn unmatched_starts_reported_in_instance_order() {
        // Several never-ended STARTs in one case: strict assembly names
        // the earliest, and lenient diagnostics follow log order, not
        // hash order.
        let names = ["H", "C", "F", "A", "G", "B", "E", "D"];
        let mut records = vec![
            EventRecord::start("p", "X", 0),
            EventRecord::end("p", "X", 1, None),
        ];
        for (t, &name) in names.iter().enumerate() {
            records.push(EventRecord::start("p", name, 2 + t as u64));
        }
        let mut t = ActivityTable::new();
        match assemble_executions(&records, &mut t) {
            Err(LogError::UnmatchedStart { activity, time, .. }) => {
                assert_eq!((activity.as_str(), time), ("H", 2));
            }
            other => panic!("expected UnmatchedStart, got {other:?}"),
        }
        let mut t = ActivityTable::new();
        let report = assemble_executions_with(&records, &mut t, AssemblyPolicy::Lenient).unwrap();
        let reported: Vec<(&str, u64)> = report
            .diagnostics
            .iter()
            .map(|d| match d {
                Diagnostic::DanglingStart { activity, time, .. } => (activity.as_str(), *time),
                other => panic!("unexpected diagnostic {other:?}"),
            })
            .collect();
        let expected: Vec<(&str, u64)> = names
            .iter()
            .enumerate()
            .map(|(t, &name)| (name, 2 + t as u64))
            .collect();
        assert_eq!(reported, expected);
        assert_eq!(report.executions[0].display(&t), "X");
    }

    #[test]
    fn events_sorted_by_time_within_execution() {
        // Out-of-order delivery: B's events logged before A's, but A ran first.
        let records = vec![
            EventRecord::start("p", "B", 10),
            EventRecord::end("p", "B", 11, None),
            EventRecord::start("p", "A", 0),
            EventRecord::end("p", "A", 1, None),
        ];
        let mut t = ActivityTable::new();
        let execs = assemble_executions(&records, &mut t).unwrap();
        assert_eq!(execs[0].display(&t), "A B");
    }

    #[test]
    fn concurrent_instances_of_same_activity_pair_fifo() {
        // Two overlapping instances of A: starts at 0 and 2, ends at 3 and 5.
        // FIFO pairing gives [0,3] and [2,5].
        let records = vec![
            EventRecord::start("p", "A", 0),
            EventRecord::start("p", "A", 2),
            EventRecord::end("p", "A", 3, Some(vec![1])),
            EventRecord::end("p", "A", 5, Some(vec![2])),
        ];
        let mut t = ActivityTable::new();
        let execs = assemble_executions(&records, &mut t).unwrap();
        let inst = execs[0].instances();
        assert_eq!((inst[0].start, inst[0].end), (0, 3));
        assert_eq!(inst[0].output.as_deref(), Some(&[1i64][..]));
        assert_eq!((inst[1].start, inst[1].end), (2, 5));
    }

    #[test]
    fn lenient_skips_fully_dropped_execution() {
        let records = vec![
            EventRecord::end("ghost", "A", 0, None),
            EventRecord::start("real", "A", 0),
            EventRecord::end("real", "A", 1, None),
        ];
        let mut t = ActivityTable::new();
        let report = assemble_executions_with(&records, &mut t, AssemblyPolicy::Lenient).unwrap();
        assert_eq!(report.executions.len(), 1);
        assert_eq!(report.executions[0].id, "real");
    }
}
