//! Validation and assembly of raw event streams into executions.
//!
//! Real logs (the paper's §6) contain noise: unmatched events, activities
//! reported out of order, clock oddities. This module turns a flat,
//! possibly interleaved stream of [`EventRecord`]s into per-execution
//! [`Execution`] values, either strictly (any structural problem is an
//! error) or leniently (problems are dropped and reported as
//! diagnostics, letting the noise-tolerant miner see the rest).

use crate::{
    ActivityId, ActivityInstance, ActivityTable, EventKind, EventRecord, Execution, LogError,
};
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
    let (execs, _) = assemble_events(
        EventTable::from_records(records),
        table,
        AssemblyPolicy::Strict,
    )?;
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
    let (executions, diagnostics) =
        assemble_events(EventTable::from_records(records), table, policy)?;
    Ok(AssemblyReport {
        executions,
        diagnostics,
    })
}

/// A table id as stored in an [`EventTable`] row.
// Reaching 2^32 names or outputs takes more than 2^32 rows, hundreds of
// GiB of table, so the conversion cannot fail on a table that fits in
// memory.
#[allow(clippy::expect_used)]
fn id32(index: usize) -> u32 {
    u32::try_from(index).expect("event table ids fit in u32")
}

/// Names interned to dense ids in first-seen order.
#[derive(Debug, Default)]
struct Names {
    names: Vec<String>,
    index: HashMap<String, u32>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = id32(self.names.len());
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    fn clear(&mut self) {
        self.names.clear();
        self.index.clear();
    }
}

/// `EventRow::output` of an event without an output vector.
const NO_OUTPUT: u32 = u32::MAX;

/// One event of an [`EventTable`], its names replaced by table ids.
#[derive(Debug, Clone, Copy)]
struct EventRow {
    time: u64,
    case: u32,
    activity: u32,
    /// Index into [`EventTable::outputs`], or [`NO_OUTPUT`].
    output: u32,
    kind: EventKind,
}

/// Events as [`EventTable`] rows, their outputs in a side list: the
/// events of a table, or the events of one open case that
/// [`CaseAssembler`](crate::stream::CaseAssembler) buffers until the
/// case closes and [`EventTable::load_case`] takes them.
#[derive(Debug, Default)]
pub(crate) struct EventRows {
    rows: Vec<EventRow>,
    /// Output vectors, taken by the END that closes an instance.
    outputs: Vec<Vec<i64>>,
}

impl EventRows {
    /// The number of events.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Appends one event of case `case` and activity `activity` (ids
    /// from [`EventTable::case_id`] and [`EventTable::activity_id`]).
    pub(crate) fn push(
        &mut self,
        case: u32,
        activity: u32,
        kind: EventKind,
        time: u64,
        output: Option<Vec<i64>>,
    ) {
        let output = match output {
            Some(o) => {
                self.outputs.push(o);
                id32(self.outputs.len() - 1)
            }
            None => NO_OUTPUT,
        };
        self.rows.push(EventRow {
            time,
            case,
            activity,
            output,
            kind,
        });
    }

    /// The events as `(activity id, kind, time, output)`, in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, EventKind, u64, Option<&[i64]>)> + '_ {
        self.rows.iter().map(|row| {
            let output =
                (row.output != NO_OUTPUT).then(|| self.outputs[row.output as usize].as_slice());
            (row.activity, row.kind, row.time, output)
        })
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.outputs.clear();
    }
}

/// Decoded events with their case and activity names interned as they
/// arrive, one row per event: the input of the one grouping
/// ([`assemble_events`]) and the one pairing ([`assemble_case`]).
///
/// A table's activity ids are its own. [`assemble_case`] maps each to
/// an id of the [`ActivityTable`] it assembles into at the activity's
/// first START, and keeps the mapping, so a table must always be
/// assembled into the same activity table.
#[derive(Debug, Default)]
pub(crate) struct EventTable {
    cases: Names,
    activities: Names,
    /// Per table activity id: its id in the activity table, once a
    /// START has interned it there.
    log_ids: Vec<Option<ActivityId>>,
    events: EventRows,
}

impl EventTable {
    /// A table holding `records`, in order.
    pub(crate) fn from_records(records: &[EventRecord]) -> Self {
        let mut events = EventTable::default();
        events.events.rows.reserve(records.len());
        for r in records {
            let case = events.case_id(&r.process);
            let activity = events.activity_id(&r.activity);
            events.push(case, activity, r.kind, r.time, r.output.clone());
        }
        events
    }

    /// The id of case `name`, interning it if unseen.
    pub(crate) fn case_id(&mut self, name: &str) -> u32 {
        self.cases.intern(name)
    }

    /// The id of activity `name`, interning it if unseen.
    pub(crate) fn activity_id(&mut self, name: &str) -> u32 {
        self.activities.intern(name)
    }

    /// The name of activity `id` (from [`EventTable::activity_id`]).
    pub(crate) fn activity_name(&self, id: u32) -> &str {
        &self.activities.names[id as usize]
    }

    /// The number of events (rows) in the table.
    pub(crate) fn len(&self) -> usize {
        self.events.len()
    }

    /// Appends one event of case `case` and activity `activity` (ids
    /// from [`EventTable::case_id`] and [`EventTable::activity_id`]).
    pub(crate) fn push(
        &mut self,
        case: u32,
        activity: u32,
        kind: EventKind,
        time: u64,
        output: Option<Vec<i64>>,
    ) {
        self.events.push(case, activity, kind, time, output);
    }

    /// Replaces the table's cases and events with one case named
    /// `name`, id 0, whose events are `rows` (buffered against this
    /// table's activity ids). The rows move in without a copy: `rows`
    /// gets the table's previous buffers back, emptied. Activities and
    /// their activity-table ids are kept.
    pub(crate) fn load_case(&mut self, name: String, rows: &mut EventRows) {
        // Nothing looks the one case up by name, so it is not indexed.
        self.cases.clear();
        self.cases.names.push(name);
        std::mem::swap(&mut self.events, rows);
        rows.clear();
    }

    /// Row indices grouped by case with one counting sort: cases in id
    /// (first-seen) order, log order within a case. Case `c` owns
    /// `order[offsets[c]..offsets[c + 1]]`.
    fn group_by_case(&self) -> (Vec<usize>, Vec<usize>) {
        let rows = &self.events.rows;
        let mut offsets = vec![0usize; self.cases.names.len() + 1];
        for row in rows {
            offsets[row.case as usize + 1] += 1;
        }
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        let mut next = offsets.clone();
        let mut order = vec![0usize; rows.len()];
        for (i, row) in rows.iter().enumerate() {
            let slot = &mut next[row.case as usize];
            order[*slot] = i;
            *slot += 1;
        }
        (offsets, order)
    }
}

/// Groups `events` by case and pairs each case into an execution,
/// interning activity names into `table`: the one batch assembly,
/// behind every codec read and [`assemble_executions_with`].
/// Executions keep the order of their case's first event; returns them
/// with the diagnostics of dropped events (lenient only).
pub(crate) fn assemble_events(
    mut events: EventTable,
    table: &mut ActivityTable,
    policy: AssemblyPolicy,
) -> Result<(Vec<Execution>, Vec<Diagnostic>), LogError> {
    let (offsets, order) = events.group_by_case();
    let mut work = CaseWork::default();
    let mut executions = Vec::with_capacity(offsets.len() - 1);
    for (case, span) in offsets.windows(2).enumerate() {
        let members = order[span[0]..span[1]].iter().copied();
        if let Some(exec) = assemble_case(&mut events, case, members, table, policy, &mut work)? {
            executions.push(exec);
        }
    }
    Ok((executions, work.diagnostics))
}

/// End of a chain in [`CaseWork`].
const NONE: usize = usize::MAX;

/// Reusable working memory of [`assemble_case`], plus what it reports
/// about dropped events.
#[derive(Debug, Default)]
pub(crate) struct CaseWork {
    /// Row indices of the case being paired, sorted by time.
    order: Vec<usize>,
    /// Per event-table activity id: the oldest and newest open START,
    /// as instance indices (`NONE` when the activity has no open
    /// START). Every entry is back to empty between calls.
    chains: Vec<(usize, usize)>,
    /// Per instance of the case being paired.
    starts: Vec<OpenStart>,
    /// One diagnostic per dropped event, across calls (lenient only).
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// The row index of each dropped event, parallel to `diagnostics`.
    pub(crate) dropped: Vec<usize>,
}

/// The START that opened one instance of the case being paired.
#[derive(Debug)]
struct OpenStart {
    /// Next open START of the same activity, or `NONE`.
    next: usize,
    /// Row index of the START.
    row: usize,
    /// Not yet closed by an END.
    open: bool,
}

/// Assembles case `case` of `events` from the rows in `members` (in
/// log order) — the one per-case pairing behind batch reads and
/// [`CaseAssembler`](crate::stream::CaseAssembler).
///
/// Events are sorted by timestamp (stable, so equal timestamps keep log
/// order) and each END closes the earliest open START of its activity,
/// through a FIFO chain per event-table activity id: O(1) amortized per
/// event, whatever the number of open STARTs. STARTs intern their
/// activity into `table` in that order, so ids match a pass that
/// interned every START's name. The execution takes the case name and
/// the closing ENDs' outputs out of `events`. Under
/// [`AssemblyPolicy::Lenient`] every dropped event appends a diagnostic
/// to `work.diagnostics` and its row index to `work.dropped` — dangling
/// ENDs in time order, then never-ended STARTs in instance order.
/// Returns `None` when nothing survives.
pub(crate) fn assemble_case(
    events: &mut EventTable,
    case: usize,
    members: impl IntoIterator<Item = usize>,
    table: &mut ActivityTable,
    policy: AssemblyPolicy,
    work: &mut CaseWork,
) -> Result<Option<Execution>, LogError> {
    let EventTable {
        cases,
        activities,
        log_ids,
        events: EventRows { rows, outputs },
    } = events;
    let CaseWork {
        order,
        chains,
        starts,
        diagnostics,
        dropped,
    } = work;
    let name = cases.names[case].as_str();
    let names = &activities.names;
    order.clear();
    order.extend(members);
    if order.windows(2).any(|w| rows[w[0]].time > rows[w[1]].time) {
        order.sort_by_key(|&i| rows[i].time); // stable: log order breaks ties
    }
    if chains.len() < names.len() {
        chains.resize(names.len(), (NONE, NONE));
    }
    if log_ids.len() < names.len() {
        log_ids.resize(names.len(), None);
    }

    starts.clear();
    let mut instances: Vec<ActivityInstance> = Vec::with_capacity(order.len() / 2);
    let mut unmatched_end = None;
    for &i in order.iter() {
        let row = rows[i];
        let a = row.activity as usize;
        match row.kind {
            EventKind::Start => {
                let activity = *log_ids[a].get_or_insert_with(|| table.intern(&names[a]));
                debug_assert_eq!(table.name(activity), names[a]);
                let idx = instances.len();
                instances.push(ActivityInstance {
                    activity,
                    start: row.time,
                    end: u64::MAX, // patched on END
                    output: None,
                });
                starts.push(OpenStart {
                    next: NONE,
                    row: i,
                    open: true,
                });
                let chain = &mut chains[a];
                if chain.0 == NONE {
                    chain.0 = idx;
                } else {
                    starts[chain.1].next = idx;
                }
                chain.1 = idx;
            }
            EventKind::End => {
                let chain = &mut chains[a];
                if chain.0 != NONE {
                    let idx = chain.0;
                    chain.0 = starts[idx].next;
                    starts[idx].open = false;
                    instances[idx].end = row.time;
                    instances[idx].output = (row.output != NO_OUTPUT)
                        .then(|| std::mem::take(&mut outputs[row.output as usize]));
                } else if policy == AssemblyPolicy::Strict {
                    unmatched_end = Some(row);
                    break;
                } else {
                    diagnostics.push(Diagnostic::DanglingEnd {
                        execution: name.to_string(),
                        activity: names[a].clone(),
                        time: row.time,
                    });
                    dropped.push(i);
                }
            }
        }
    }
    for start in starts.iter() {
        chains[rows[start.row].activity as usize] = (NONE, NONE);
    }
    if let Some(row) = unmatched_end {
        return Err(LogError::UnmatchedEnd {
            execution: name.to_string(),
            activity: names[row.activity as usize].clone(),
            time: row.time,
        });
    }

    // Any still-open STARTs are unmatched; report them in instance order.
    let mut any_open = false;
    for start in starts.iter().filter(|s| s.open) {
        let row = rows[start.row];
        let activity = names[row.activity as usize].clone();
        if policy == AssemblyPolicy::Strict {
            return Err(LogError::UnmatchedStart {
                execution: name.to_string(),
                activity,
                time: row.time,
            });
        }
        diagnostics.push(Diagnostic::DanglingStart {
            execution: name.to_string(),
            activity,
            time: row.time,
        });
        dropped.push(start.row);
        any_open = true;
    }
    if any_open {
        let mut open = starts.iter().map(|s| s.open);
        instances.retain(|_| open.next() == Some(false));
    }

    if instances.is_empty() {
        // A lenient pass may have dropped everything; skip the case.
        return Ok(None);
    }
    Execution::new(std::mem::take(&mut cases.names[case]), instances).map(Some)
}

/// The record-keyed assembly, kept as the reference the id-keyed
/// kernel and the batch readers are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    /// Reference grouping and pairing: a hash map of FIFO vectors per
    /// activity, `Vec::remove(0)` per END.
    pub(crate) fn reference_assemble(
        records: &[EventRecord],
        table: &mut ActivityTable,
        policy: AssemblyPolicy,
    ) -> Result<(Vec<Execution>, Vec<Diagnostic>), LogError> {
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
            let mut events = groups.remove(name).unwrap();
            events.sort_by_key(|r| r.time);
            let mut open: HashMap<&str, Vec<(u64, usize)>> = HashMap::new();
            let mut instances: Vec<ActivityInstance> = Vec::new();
            for r in &events {
                match r.kind {
                    EventKind::Start => {
                        let idx = instances.len();
                        instances.push(ActivityInstance {
                            activity: table.intern(&r.activity),
                            start: r.time,
                            end: u64::MAX,
                            output: None,
                        });
                        open.entry(&r.activity).or_default().push((r.time, idx));
                    }
                    EventKind::End => {
                        let slot = open
                            .get_mut(r.activity.as_str())
                            .and_then(|v| (!v.is_empty()).then(|| v.remove(0)));
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
                                AssemblyPolicy::Lenient => {
                                    diagnostics.push(Diagnostic::DanglingEnd {
                                        execution: name.to_string(),
                                        activity: r.activity.clone(),
                                        time: r.time,
                                    })
                                }
                            },
                        }
                    }
                }
            }
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
            if !instances.is_empty() {
                executions.push(Execution::new(name, instances)?);
            }
        }
        Ok((executions, diagnostics))
    }
}

#[cfg(test)]
mod tests {
    use super::reference::reference_assemble;
    use super::*;
    use proptest::prelude::*;

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
    fn many_open_starts_pair_fifo() {
        // Every START precedes every END: each END closes the oldest
        // open START, so instance i runs from i to N + i.
        const N: u64 = 50_000;
        let mut records: Vec<EventRecord> =
            (0..N).map(|t| EventRecord::start("p", "A", t)).collect();
        records.extend((N..2 * N).map(|t| EventRecord::end("p", "A", t, None)));
        let mut t = ActivityTable::new();
        let execs = assemble_executions(&records, &mut t).unwrap();
        let inst = execs[0].instances();
        assert_eq!(inst.len(), N as usize);
        assert!(inst
            .iter()
            .zip(0..)
            .all(|(i, t)| (i.start, i.end) == (t, N + t)));
    }

    /// Random events over `cases` case ids, four activities and a few
    /// timestamps, so dangling, duplicated and same-time events abound.
    fn arb_records(cases: u8) -> impl Strategy<Value = Vec<EventRecord>> {
        let event = (0..cases, 0u8..4, 0u8..2, 0u64..6, 0i64..3);
        proptest::collection::vec(event, 0..24).prop_map(|events| {
            events
                .into_iter()
                .map(|(case, activity, end, time, out)| {
                    let case = format!("p{case}");
                    let activity = ((b'A' + activity) as char).to_string();
                    if end == 1 {
                        EventRecord::end(case, activity, time, (out > 0).then(|| vec![out]))
                    } else {
                        EventRecord::start(case, activity, time)
                    }
                })
                .collect()
        })
    }

    /// A table already holding some names, so ENDs also meet activities
    /// known to the table but never started in the case.
    fn seeded_table(seed: u8) -> ActivityTable {
        ActivityTable::from_names(["C", "X", "A"].iter().take(usize::from(seed)))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// One case through `assemble_case` (reusing its working memory
        /// across calls and errors) equals the hash-map pairing:
        /// execution, table order, diagnostics in order, strict errors.
        #[test]
        fn assemble_case_matches_reference(
            records in arb_records(1),
            seed in 0u8..4,
        ) {
            let mut work = CaseWork::default();
            for policy in [AssemblyPolicy::Strict, AssemblyPolicy::Lenient, AssemblyPolicy::Strict] {
                let mut table = seeded_table(seed);
                let mut events = EventTable::from_records(&records);
                let case = events.case_id("p0") as usize;
                let got = assemble_case(&mut events, case, 0..records.len(), &mut table, policy, &mut work);
                let mut ref_table = seeded_table(seed);
                let want = reference_assemble(&records, &mut ref_table, policy);
                prop_assert_eq!(table.names(), ref_table.names());
                let (diagnostics, dropped) =
                    (std::mem::take(&mut work.diagnostics), std::mem::take(&mut work.dropped));
                match (got, want) {
                    (Ok(exec), Ok((execs, want_diags))) => {
                        prop_assert_eq!(exec.into_iter().collect::<Vec<_>>(), execs);
                        prop_assert_eq!(&diagnostics, &want_diags);
                    }
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                        prop_assert!(diagnostics.is_empty());
                    }
                    (got, want) => panic!("assemble_case gave {got:?}, the reference {want:?}"),
                }
                // Each dropped index names a distinct record matching its
                // diagnostic.
                prop_assert_eq!(dropped.len(), diagnostics.len());
                let mut seen = dropped.clone();
                seen.sort_unstable();
                seen.dedup();
                prop_assert_eq!(seen.len(), dropped.len());
                for (diag, &i) in diagnostics.iter().zip(&dropped) {
                    let r = &records[i];
                    let want = match diag {
                        Diagnostic::DanglingEnd { activity, time, .. } => (EventKind::End, activity, *time),
                        Diagnostic::DanglingStart { activity, time, .. } => (EventKind::Start, activity, *time),
                    };
                    prop_assert_eq!((r.kind, &r.activity, r.time), want);
                }
            }
        }

        /// Interleaved cases through the batch entry point equal the
        /// hash-map grouping and pairing.
        #[test]
        fn batch_assembly_matches_reference(
            records in arb_records(3),
            seed in 0u8..4,
        ) {
            for policy in [AssemblyPolicy::Strict, AssemblyPolicy::Lenient] {
                let mut table = seeded_table(seed);
                let got = assemble_executions_with(&records, &mut table, policy);
                let mut ref_table = seeded_table(seed);
                let want = reference_assemble(&records, &mut ref_table, policy);
                prop_assert_eq!(table.names(), ref_table.names());
                match (got, want) {
                    (Ok(report), Ok((execs, diags))) => {
                        prop_assert_eq!(report.executions, execs);
                        prop_assert_eq!(report.diagnostics, diags);
                    }
                    (Err(got), Err(want)) => {
                        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                    }
                    (got, want) => panic!("batch assembly gave {got:?}, the reference {want:?}"),
                }
            }
        }
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
