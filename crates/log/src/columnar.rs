//! Columnar (struct-of-arrays) log layout.
//!
//! [`WorkflowLog`] stores one `Vec<ActivityInstance>` per execution —
//! convenient for codecs and validation, but pointer-heavy for the
//! miners, whose step-2 pair scans and follows counting stream over
//! every instance of every execution. [`EventColumns`] flattens a log
//! into four parallel arrays — activity ids, start times, end times,
//! and a CSR-style offsets array delimiting executions — so those scans
//! run over contiguous buffers with no per-execution indirection.
//!
//! [`CompactLog`] bundles the columns with everything the row layout
//! carries that the miners do not need per-event (the activity table,
//! execution ids, sparse output vectors), making the conversion
//! lossless in both directions: `CompactLog::from_log(&log).to_log()`
//! reproduces the original log exactly.
//!
//! Batch reads build a `CompactLog` directly: the one pairing kernel
//! (`validate::assemble_case`) appends each case's instances to the
//! columns, so the Flowmark and XES readers' `read_compact_with` hand
//! the miners their columns without a nested log in between, and
//! `read_log_with` converts the same columns into a [`WorkflowLog`]
//! ([`CompactLog::into_log`]). The streaming case assembler still hands
//! the online miner one [`Execution`] per closed case.
//!
//! [`LogView`] is what the miners and reports read: a `CompactLog`'s
//! columns in place, or a `WorkflowLog` lowered to columns once.

use crate::{ActivityId, ActivityInstance, ActivityTable, Execution, LogError, WorkflowLog};
use std::borrow::Cow;

/// Struct-of-arrays event storage: all instances of all executions in
/// four parallel buffers, executions delimited CSR-style by `offsets`.
///
/// Execution `i` owns the index range `offsets[i]..offsets[i + 1]` of
/// `activities` / `starts` / `ends`. Within an execution, events keep
/// the [`Execution`] invariant: sorted by `(start, end, activity)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventColumns {
    activities: Vec<u32>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    /// `offsets[0] == 0`, one extra entry per execution; length is
    /// `exec_count() + 1`.
    offsets: Vec<usize>,
}

/// Borrowed view of one execution's columns (see
/// [`EventColumns::exec`]). The three slices are index-parallel.
#[derive(Debug, Clone, Copy)]
pub struct ExecColumns<'a> {
    /// Activity id of each event.
    pub activities: &'a [u32],
    /// Start timestamp of each event.
    pub starts: &'a [u64],
    /// End timestamp of each event.
    pub ends: &'a [u64],
}

impl ExecColumns<'_> {
    /// Number of events in this execution.
    pub fn len(&self) -> usize {
        self.activities.len()
    }

    /// `true` if the execution has no events.
    pub fn is_empty(&self) -> bool {
        self.activities.is_empty()
    }
}

impl Default for EventColumns {
    /// Empty columns: [`EventColumns::new`].
    fn default() -> Self {
        EventColumns::new()
    }
}

impl EventColumns {
    /// Empty columns (zero executions).
    pub fn new() -> Self {
        EventColumns {
            activities: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            offsets: vec![0],
        }
    }

    /// Empty columns with room for `execs` executions totalling
    /// `events` events.
    pub fn with_capacity(execs: usize, events: usize) -> Self {
        EventColumns {
            activities: Vec::with_capacity(events),
            starts: Vec::with_capacity(events),
            ends: Vec::with_capacity(events),
            offsets: {
                let mut o = Vec::with_capacity(execs + 1);
                o.push(0);
                o
            },
        }
    }

    /// Flattens a [`WorkflowLog`]'s instance rows into columns
    /// (dropping ids and outputs — see [`CompactLog`] for the lossless
    /// wrapper).
    pub fn from_log(log: &WorkflowLog) -> Self {
        let events = log.executions().iter().map(Execution::len).sum();
        let mut cols = EventColumns::with_capacity(log.len(), events);
        for e in log.executions() {
            cols.push_exec(
                e.instances()
                    .iter()
                    .map(|i| (i.activity.index() as u32, i.start, i.end)),
            );
        }
        cols
    }

    /// Appends one execution from `(activity, start, end)` event
    /// triples, in order.
    pub fn push_exec(&mut self, events: impl IntoIterator<Item = (u32, u64, u64)>) {
        for (a, s, e) in events {
            self.activities.push(a);
            self.starts.push(s);
            self.ends.push(e);
        }
        self.offsets.push(self.activities.len());
    }

    /// Number of executions.
    pub fn exec_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of events across all executions.
    pub fn event_count(&self) -> usize {
        self.activities.len()
    }

    /// `true` if there are no executions.
    pub fn is_empty(&self) -> bool {
        self.exec_count() == 0
    }

    /// The columns of execution `i`. Panics if `i` is out of range.
    pub fn exec(&self, i: usize) -> ExecColumns<'_> {
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        ExecColumns {
            activities: &self.activities[lo..hi],
            starts: &self.starts[lo..hi],
            ends: &self.ends[lo..hi],
        }
    }

    /// Number of events in execution `i` without materializing a view.
    pub fn exec_len(&self, i: usize) -> usize {
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The CSR offsets array (`exec_count() + 1` entries, first is 0).
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The flat activity-id column.
    pub fn activities(&self) -> &[u32] {
        &self.activities
    }

    /// The flat start-time column.
    pub fn starts(&self) -> &[u64] {
        &self.starts
    }

    /// The flat end-time column.
    pub fn ends(&self) -> &[u64] {
        &self.ends
    }
}

/// A [`WorkflowLog`] in columnar form, losslessly.
///
/// [`EventColumns`] carries what the miners consume; this wrapper adds
/// the activity table, per-execution case ids, and the sparse output
/// vectors (Definition 2's `O` field, present on few events in
/// practice) so the row form can be reconstructed exactly. Batch reads
/// assemble straight into one (see the module docs); every execution
/// holds at least one instance, sorted by `(start, end, activity)` with
/// `start <= end`, as an [`Execution`]'s are.
#[derive(Debug, Clone, Default)]
pub struct CompactLog {
    pub(crate) activities: ActivityTable,
    pub(crate) ids: Vec<String>,
    pub(crate) columns: EventColumns,
    /// `(exec index, event index within the execution, output vector)`
    /// for each event that recorded an output, in log order.
    pub(crate) outputs: Vec<(u32, u32, Vec<i64>)>,
}

/// Two logs are equal when their activity names, ids, columns and
/// outputs are.
impl PartialEq for CompactLog {
    fn eq(&self, other: &Self) -> bool {
        self.activities.names() == other.activities.names()
            && self.ids == other.ids
            && self.columns == other.columns
            && self.outputs == other.outputs
    }
}

impl Eq for CompactLog {}

impl CompactLog {
    /// Converts a row-layout log to columns, keeping everything needed
    /// to invert the conversion.
    pub fn from_log(log: &WorkflowLog) -> Self {
        let mut outputs = Vec::new();
        for (x, e) in log.executions().iter().enumerate() {
            for (j, inst) in e.instances().iter().enumerate() {
                if let Some(out) = &inst.output {
                    outputs.push((x as u32, j as u32, out.clone()));
                }
            }
        }
        CompactLog {
            activities: log.activities().clone(),
            ids: log.executions().iter().map(|e| e.id.clone()).collect(),
            columns: EventColumns::from_log(log),
            outputs,
        }
    }

    /// Reconstructs the row-layout log. Exact inverse of
    /// [`from_log`](Self::from_log): ids, instance order, and outputs
    /// all round-trip. Never fails: a `CompactLog` holds only valid
    /// executions (see the type docs).
    pub fn to_log(&self) -> Result<WorkflowLog, LogError> {
        Ok(self.clone().into_log())
    }

    /// [`to_log`](Self::to_log) without the copy: the ids, the activity
    /// table and the output vectors move into the nested log.
    pub fn into_log(self) -> WorkflowLog {
        let CompactLog {
            activities,
            ids,
            columns,
            outputs,
        } = self;
        let mut log = WorkflowLog::with_activities(activities);
        let mut outputs = outputs.into_iter().peekable();
        for (x, id) in ids.into_iter().enumerate() {
            let cols = columns.exec(x);
            let mut instances: Vec<ActivityInstance> = (0..cols.len())
                .map(|j| ActivityInstance {
                    activity: ActivityId::from_index(cols.activities[j] as usize),
                    start: cols.starts[j],
                    end: cols.ends[j],
                    output: None,
                })
                .collect();
            while let Some((_, j, out)) = outputs.next_if(|&(ex, _, _)| ex as usize == x) {
                instances[j as usize].output = Some(out);
            }
            log.push(Execution::from_sorted(id, instances));
        }
        log
    }

    /// The shared activity table.
    pub fn activities(&self) -> &ActivityTable {
        &self.activities
    }

    /// The per-execution case ids, in log order.
    pub fn ids(&self) -> &[String] {
        &self.ids
    }

    /// The event columns.
    pub fn columns(&self) -> &EventColumns {
        &self.columns
    }

    /// Number of executions.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the log has no executions.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// A log as the miners and reports read it: a [`CompactLog`]'s columns
/// in place, or a [`WorkflowLog`]'s rows.
///
/// Functions that take `impl Into<LogView>` accept `&CompactLog` and
/// `&WorkflowLog` alike. What needs only activity ids per execution
/// ([`LogView::exec_activities`], [`LogView::repeats`]) reads either
/// form in place; what needs the time columns calls
/// [`LogView::columns`], which borrows a compact log's columns and
/// lowers a nested log's rows once.
#[derive(Debug, Clone, Copy)]
pub enum LogView<'a> {
    /// A row-layout log.
    Nested(&'a WorkflowLog),
    /// A columnar log.
    Compact(&'a CompactLog),
}

impl<'a> From<&'a WorkflowLog> for LogView<'a> {
    fn from(log: &'a WorkflowLog) -> Self {
        LogView::Nested(log)
    }
}

impl<'a> From<&'a CompactLog> for LogView<'a> {
    fn from(log: &'a CompactLog) -> Self {
        LogView::Compact(log)
    }
}

impl<'a> LogView<'a> {
    /// The log's activity table.
    pub fn activities(self) -> &'a ActivityTable {
        match self {
            LogView::Nested(log) => log.activities(),
            LogView::Compact(log) => &log.activities,
        }
    }

    /// Number of executions.
    pub fn len(self) -> usize {
        match self {
            LogView::Nested(log) => log.len(),
            LogView::Compact(log) => log.len(),
        }
    }

    /// `true` if the log has no executions.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The case id of execution `x`. Panics if `x` is out of range.
    pub fn id(self, x: usize) -> &'a str {
        match self {
            LogView::Nested(log) => &log.executions()[x].id,
            LogView::Compact(log) => &log.ids[x],
        }
    }

    /// Number of instances in execution `x`. Panics if `x` is out of
    /// range.
    pub fn exec_len(self, x: usize) -> usize {
        match self {
            LogView::Nested(log) => log.executions()[x].len(),
            LogView::Compact(log) => log.columns.exec_len(x),
        }
    }

    /// The activity ids of execution `x`'s instances, in start order.
    /// Panics if `x` is out of range.
    pub fn exec_activities(self, x: usize) -> impl Iterator<Item = u32> + 'a {
        let (rows, column): (&[ActivityInstance], &[u32]) = match self {
            LogView::Nested(log) => (log.executions()[x].instances(), &[]),
            LogView::Compact(log) => (&[], log.columns.exec(x).activities),
        };
        rows.iter()
            .map(|i| i.activity.0)
            .chain(column.iter().copied())
    }

    /// Per execution, in log order: `true` if it repeats an activity.
    /// One pass over the log with one stamp per activity of the table;
    /// every instance's activity must come from the table.
    pub fn repeats(self) -> impl Iterator<Item = bool> + 'a {
        // Execution `x` stamps its activities with `x + 1`: a stamp
        // already equal to it is a repeat.
        let mut stamps = vec![0usize; self.activities().len()];
        (0..self.len()).map(move |x| {
            let mut repeated = false;
            for a in self.exec_activities(x) {
                let stamp = &mut stamps[a as usize];
                repeated |= *stamp == x + 1;
                *stamp = x + 1;
            }
            repeated
        })
    }

    /// The event columns: a compact log's own, borrowed, or a nested
    /// log's rows lowered into new columns.
    pub fn columns(self) -> Cow<'a, EventColumns> {
        match self {
            LogView::Nested(log) => Cow::Owned(EventColumns::from_log(log)),
            LogView::Compact(log) => Cow::Borrowed(&log.columns),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> WorkflowLog {
        let mut log = WorkflowLog::new();
        let a = log.intern_activity("A");
        let b = log.intern_activity("B");
        let c = log.intern_activity("C");
        let mk = |act, start, end, output| ActivityInstance {
            activity: act,
            start,
            end,
            output,
        };
        log.push(
            Execution::new(
                "case-1",
                vec![
                    mk(a, 0, 2, None),
                    mk(b, 3, 5, Some(vec![7, -1])),
                    mk(c, 6, 6, None),
                ],
            )
            .unwrap(),
        );
        log.push(
            Execution::new(
                "case-2",
                vec![mk(a, 10, 11, None), mk(c, 12, 15, Some(vec![0]))],
            )
            .unwrap(),
        );
        log
    }

    #[test]
    fn columns_flatten_csr_style() {
        let log = sample_log();
        let cols = EventColumns::from_log(&log);
        assert_eq!(cols.exec_count(), 2);
        assert_eq!(cols.event_count(), 5);
        assert_eq!(cols.offsets(), &[0, 3, 5]);
        assert_eq!(cols.activities(), &[0, 1, 2, 0, 2]);
        assert_eq!(cols.starts(), &[0, 3, 6, 10, 12]);
        assert_eq!(cols.ends(), &[2, 5, 6, 11, 15]);
        let e1 = cols.exec(1);
        assert_eq!(e1.len(), 2);
        assert_eq!(e1.activities, &[0, 2]);
        assert_eq!(e1.starts, &[10, 12]);
        assert_eq!(cols.exec_len(0), 3);
    }

    #[test]
    fn empty_columns() {
        let cols = EventColumns::new();
        assert!(cols.is_empty());
        assert_eq!(cols.exec_count(), 0);
        assert_eq!(cols.offsets(), &[0]);
        let cols = EventColumns::from_log(&WorkflowLog::new());
        assert!(cols.is_empty());
    }

    #[test]
    fn push_exec_appends_in_order() {
        let mut cols = EventColumns::new();
        cols.push_exec([(4u32, 0u64, 1u64), (2, 2, 3)]);
        cols.push_exec([(1u32, 5u64, 5u64)]);
        assert_eq!(cols.exec_count(), 2);
        assert_eq!(cols.exec(0).activities, &[4, 2]);
        assert_eq!(cols.exec(1).ends, &[5]);
    }

    #[test]
    fn compact_log_round_trips_losslessly() {
        let log = sample_log();
        let compact = CompactLog::from_log(&log);
        assert_eq!(compact.len(), 2);
        assert_eq!(compact.ids(), &["case-1".to_string(), "case-2".to_string()]);
        let back = compact.to_log().unwrap();
        assert_eq!(back.activities().names(), log.activities().names());
        assert_eq!(back.executions(), log.executions());
    }

    #[test]
    fn round_trip_preserves_outputs_and_empty_log() {
        let log = sample_log();
        let back = CompactLog::from_log(&log).to_log().unwrap();
        assert_eq!(
            back.executions()[0].instances()[1].output,
            Some(vec![7, -1])
        );
        assert_eq!(back.executions()[1].instances()[1].output, Some(vec![0]));
        let empty = WorkflowLog::new();
        let back = CompactLog::from_log(&empty).to_log().unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn round_trip_from_sequences() {
        let log = WorkflowLog::from_sequences([vec!["A", "B", "C", "E"], vec!["A", "C", "D", "E"]])
            .unwrap();
        let back = CompactLog::from_log(&log).to_log().unwrap();
        assert_eq!(back.executions(), log.executions());
        assert_eq!(back.activities().names(), log.activities().names());
    }
}
