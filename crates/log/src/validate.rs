//! Validation and assembly of raw event streams into executions.
//!
//! Real logs (the paper's §6) contain noise: unmatched events, activities
//! reported out of order, clock oddities. This module turns a flat,
//! possibly interleaved stream of [`EventRecord`]s into per-execution
//! [`Execution`] values, either strictly (any structural problem is an
//! error) or leniently (problems are dropped and reported as
//! diagnostics, letting the noise-tolerant miner see the rest).
//!
//! One grouping and one pairing serve every reader. The pairing,
//! `assemble_case`, pairs one case's STARTs and ENDs. A batch read
//! appends each paired case to the columns of a
//! [`CompactLog`]; the streaming case assembler
//! builds the one [`Execution`] it hands the online miner. The grouping
//! either takes a whole table of events at once or, for a Flowmark read
//! whose cases arrive one after another, pairs each case as the next one
//! starts (`GroupedCases`) and hands the read back to the whole-table
//! grouping wherever the two could decide differently.

use crate::hash::FoldMap;
use crate::{
    ActivityId, ActivityInstance, ActivityTable, CompactLog, EventKind, EventRecord, Execution,
    LogError, WorkflowLog,
};
use std::hash::BuildHasher;

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
    assemble_executions_with(records, table, AssemblyPolicy::Strict).map(|r| r.executions)
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
    let mut log = CompactLog {
        activities: std::mem::take(table),
        ..CompactLog::default()
    };
    let assembled = assemble_events(EventTable::from_records(records), &mut log, policy);
    let WorkflowLog {
        activities,
        executions,
    } = log.into_log();
    *table = activities;
    Ok(AssemblyReport {
        diagnostics: assembled?,
        executions,
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
///
/// Consecutive events often share a name: most lines of a log whose
/// cases arrive grouped repeat the previous line's case. So
/// [`Names::intern`] compares the name with the one it returned last
/// before it hashes, and hashes with the crate's keyed fold hash.
#[derive(Debug, Default)]
struct Names {
    names: Vec<String>,
    index: FoldMap<String, u32>,
    /// The id [`Names::intern`] returned last, `None` after a clear.
    last: Option<u32>,
}

impl Names {
    fn intern(&mut self, name: &str) -> u32 {
        if let Some(last) = self.last {
            if self.names[last as usize] == name {
                return last;
            }
        }
        let id = match self.index.get(name) {
            Some(&id) => id,
            None => {
                let id = id32(self.names.len());
                self.names.push(name.to_string());
                self.index.insert(name.to_string(), id);
                id
            }
        };
        self.last = Some(id);
        id
    }

    fn clear(&mut self) {
        self.names.clear();
        self.index.clear();
        self.last = None;
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
    /// Set once a row's case id is below the previous row's. Until
    /// then every case's rows are contiguous and cases arrive in id
    /// order, so [`EventTable::group_by_case`] needs no sort.
    interleaved: bool,
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
        if self.events.rows.last().is_some_and(|row| case < row.case) {
            self.interleaved = true;
        }
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
        self.interleaved = false;
    }

    /// Replaces the table's cases and events with one case named
    /// `name`, id 0, and no events yet. Activities and their
    /// activity-table ids are kept.
    fn open_case(&mut self, name: &str) {
        self.cases.clear();
        self.cases.names.push(name.to_string());
        self.events.clear();
    }

    /// The one case an [`EventTable::open_case`] table holds, if any.
    fn open_case_name(&self) -> Option<&str> {
        self.cases.names.first().map(String::as_str)
    }

    /// Row indices grouped by case: cases in id (first-seen) order, log
    /// order within a case. Case `c` owns
    /// `order[offsets[c]..offsets[c + 1]]`. When the rows arrived
    /// grouped, `order` is the identity and comes back as `None`: case
    /// `c` owns the rows `offsets[c]..offsets[c + 1]`. Otherwise one
    /// counting sort builds it.
    fn group_by_case(&self) -> (Vec<usize>, Option<Vec<usize>>) {
        let rows = &self.events.rows;
        let mut offsets = vec![0usize; self.cases.names.len() + 1];
        for row in rows {
            offsets[row.case as usize + 1] += 1;
        }
        for c in 1..offsets.len() {
            offsets[c] += offsets[c - 1];
        }
        if !self.interleaved {
            return (offsets, None);
        }
        let mut next = offsets.clone();
        let mut order = vec![0usize; rows.len()];
        for (i, row) in rows.iter().enumerate() {
            let slot = &mut next[row.case as usize];
            order[*slot] = i;
            *slot += 1;
        }
        (offsets, Some(order))
    }
}

/// Groups `events` by case and pairs each case onto the end of `log`,
/// interning activity names into its table: the whole-table batch
/// assembly, behind every codec read and [`assemble_executions_with`].
/// Executions keep the order of their case's first event; returns the
/// diagnostics of dropped events (lenient only).
pub(crate) fn assemble_events(
    mut events: EventTable,
    log: &mut CompactLog,
    policy: AssemblyPolicy,
) -> Result<Vec<Diagnostic>, LogError> {
    let (offsets, order) = events.group_by_case();
    let mut work = CaseWork::default();
    for (case, span) in offsets.windows(2).enumerate() {
        let table = &mut log.activities;
        let paired = match &order {
            Some(order) => {
                let members = order[span[0]..span[1]].iter().copied();
                assemble_case(&mut events, case, members, table, policy, &mut work)?
            }
            None => assemble_case(
                &mut events,
                case,
                span[0]..span[1],
                table,
                policy,
                &mut work,
            )?,
        };
        if paired {
            append_case(&mut events, case, &mut work, log);
        }
    }
    Ok(work.diagnostics)
}

/// Appends the case `assemble_case` paired last to `log`: its instances
/// sorted by `(start, end, activity)`, stably, as [`Execution::new`]
/// sorts them, with the case name and the closing ENDs' outputs moved
/// out of `events`.
fn append_case(events: &mut EventTable, case: usize, work: &mut CaseWork, log: &mut CompactLog) {
    let paired = &mut work.paired;
    let key = |i: &ActivityInstance| (i.start, i.end, i.activity);
    if paired.windows(2).any(|w| key(&w[0]) > key(&w[1])) {
        paired.sort_by_key(key);
    }
    let exec = id32(log.ids.len());
    for (j, inst) in paired.iter_mut().enumerate() {
        if let Some(output) = inst.output.take() {
            log.outputs.push((exec, id32(j), output));
        }
    }
    log.columns.push_exec(
        paired
            .iter()
            .map(|i| (i.activity.index() as u32, i.start, i.end)),
    );
    log.ids.push(std::mem::take(&mut events.cases.names[case]));
}

/// The case `assemble_case` paired last as an [`Execution`], taking the
/// paired instances and the case name: what
/// [`CaseAssembler`](crate::stream::CaseAssembler) hands its observer.
/// The caller gives the instance vector back with
/// [`CaseWork::reuse_paired`] once the execution is done with.
pub(crate) fn case_execution(
    events: &mut EventTable,
    case: usize,
    work: &mut CaseWork,
) -> Result<Execution, LogError> {
    Execution::new(
        std::mem::take(&mut events.cases.names[case]),
        std::mem::take(&mut work.paired),
    )
}

/// The whole-table grouping must decide the read: a closed case
/// reappeared, or pairing a case failed or dropped an event.
#[derive(Debug)]
pub(crate) struct HandOver;

/// The grouping of a read whose cases arrive one after another: each
/// case is paired and appended to the log as soon as the next case
/// starts, so the table holds one case's events at a time.
///
/// The result equals the whole-table grouping's as long as no case
/// reappears after it closed and every case pairs cleanly. Anything
/// else returns [`HandOver`] and the caller re-reads through the whole
/// table: a closed case's name coming back, a case that fails strict
/// pairing (a later decode error would win over it there), and a case
/// from which lenient pairing drops an event.
pub(crate) struct GroupedCases {
    events: EventTable,
    policy: AssemblyPolicy,
    work: CaseWork,
    /// Closed cases by the fold hash of their name, probing on to the
    /// next value past a slot whose case is named differently: a hit is
    /// confirmed against `log.ids`, so no name is kept twice.
    closed: FoldMap<u64, u32>,
    log: CompactLog,
}

impl GroupedCases {
    /// An empty grouping under `policy`.
    pub(crate) fn new(policy: AssemblyPolicy) -> Self {
        GroupedCases {
            events: EventTable::default(),
            policy,
            work: CaseWork::default(),
            closed: FoldMap::default(),
            log: CompactLog::default(),
        }
    }

    /// Takes one event of case `case` and activity `activity`. When
    /// `case` differs from the open case, the open case closes first.
    pub(crate) fn push(
        &mut self,
        case: &str,
        activity: &str,
        kind: EventKind,
        time: u64,
        output: Option<Vec<i64>>,
    ) -> Result<(), HandOver> {
        if self.events.open_case_name() != Some(case) {
            self.close()?;
            if self.is_closed(case) {
                return Err(HandOver);
            }
            self.events.open_case(case);
        }
        let activity = self.events.activity_id(activity);
        self.events.push(0, activity, kind, time, output);
        Ok(())
    }

    /// Closes the last case and returns the log.
    pub(crate) fn finish(mut self) -> Result<CompactLog, HandOver> {
        self.close()?;
        Ok(self.log)
    }

    /// Pairs the open case, if any, and appends it to the log.
    fn close(&mut self) -> Result<(), HandOver> {
        if self.events.open_case_name().is_none() {
            return Ok(());
        }
        let rows = self.events.len();
        let table = &mut self.log.activities;
        let paired = assemble_case(
            &mut self.events,
            0,
            0..rows,
            table,
            self.policy,
            &mut self.work,
        );
        if !matches!(paired, Ok(true)) || !self.work.diagnostics.is_empty() {
            return Err(HandOver);
        }
        append_case(&mut self.events, 0, &mut self.work, &mut self.log);
        let exec = self.log.ids.len() - 1;
        let mut slot = self.closed.hasher().hash_one(self.log.ids[exec].as_str());
        while self.closed.contains_key(&slot) {
            slot = slot.wrapping_add(1);
        }
        self.closed.insert(slot, id32(exec));
        self.events.cases.clear();
        Ok(())
    }

    /// `true` if a case named `name` has closed.
    fn is_closed(&self, name: &str) -> bool {
        let mut slot = self.closed.hasher().hash_one(name);
        while let Some(&exec) = self.closed.get(&slot) {
            if self.log.ids[exec as usize] == name {
                return true;
            }
            slot = slot.wrapping_add(1);
        }
        false
    }
}

/// End of a chain in [`CaseWork`].
const NONE: usize = usize::MAX;

/// Reusable working memory of [`assemble_case`], the instances it
/// paired last, and what it reports about dropped events.
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
    /// The instances of the case paired last, in START order, with the
    /// closing ENDs' outputs.
    paired: Vec<ActivityInstance>,
    /// One diagnostic per dropped event, across calls (lenient only).
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// The row index of each dropped event, parallel to `diagnostics`.
    pub(crate) dropped: Vec<usize>,
}

impl CaseWork {
    /// Takes back the instance vector of an execution from
    /// [`case_execution`], emptied, for the next case's pairing.
    pub(crate) fn reuse_paired(&mut self, mut instances: Vec<ActivityInstance>) {
        instances.clear();
        self.paired = instances;
    }
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

/// Pairs case `case` of `events` from the rows in `members` (in log
/// order) into `work`'s paired instances — the one per-case pairing
/// behind batch reads and
/// [`CaseAssembler`](crate::stream::CaseAssembler).
///
/// Events are sorted by timestamp (stable, so equal timestamps keep log
/// order) and each END closes the earliest open START of its activity,
/// through a FIFO chain per event-table activity id: O(1) amortized per
/// event, whatever the number of open STARTs. STARTs intern their
/// activity into `table` in that order, so ids match a pass that
/// interned every START's name. The paired instances stay in START
/// order, each with its closing END's output moved out of `events`; the
/// caller takes them with `append_case` or [`case_execution`]. Under [`AssemblyPolicy::Lenient`] every dropped
/// event appends a diagnostic to `work.diagnostics` and its row index
/// to `work.dropped` — dangling ENDs in time order, then never-ended
/// STARTs in instance order. Returns `false` when nothing survives.
pub(crate) fn assemble_case(
    events: &mut EventTable,
    case: usize,
    members: impl IntoIterator<Item = usize>,
    table: &mut ActivityTable,
    policy: AssemblyPolicy,
    work: &mut CaseWork,
) -> Result<bool, LogError> {
    let EventTable {
        cases,
        activities,
        log_ids,
        events: EventRows { rows, outputs },
        interleaved: _,
    } = events;
    let CaseWork {
        order,
        chains,
        starts,
        paired,
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
    paired.clear();
    // Sized for the case's instances (half its events). The streaming
    // path takes the vector with `case_execution` and gives it back
    // with `CaseWork::reuse_paired`, so this allocates only for a case
    // larger than any before it.
    paired.reserve_exact(order.len() / 2);
    let mut unmatched_end = None;
    for &i in order.iter() {
        let row = rows[i];
        let a = row.activity as usize;
        match row.kind {
            EventKind::Start => {
                let activity = *log_ids[a].get_or_insert_with(|| table.intern(&names[a]));
                debug_assert_eq!(table.name(activity), names[a]);
                let idx = paired.len();
                paired.push(ActivityInstance {
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
                    paired[idx].end = row.time;
                    paired[idx].output = (row.output != NO_OUTPUT)
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
        paired.retain(|_| open.next() == Some(false));
    }
    // A lenient pass may have dropped everything; the caller skips the
    // case.
    Ok(!paired.is_empty())
}

/// The record-keyed assembly, kept as the reference the id-keyed
/// kernel and the batch readers are tested against.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;
    use std::collections::HashMap;

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
    use std::hash::BuildHasher;

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
                let got = assemble_case(&mut events, case, 0..records.len(), &mut table, policy, &mut work)
                    .and_then(|paired| match paired {
                        true => case_execution(&mut events, case, &mut work).map(Some),
                        false => Ok(None),
                    });
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
        /// hash-map grouping and pairing; so do the same records
        /// grouped by case, which skip the counting sort.
        #[test]
        fn batch_assembly_matches_reference(
            records in arb_records(3),
            seed in 0u8..4,
        ) {
            let mut grouped = records.clone();
            let first_seen = |name: &str| records.iter().position(|r| r.process == name);
            grouped.sort_by_key(|r| first_seen(&r.process));
            prop_assert!(!EventTable::from_records(&grouped).interleaved);
            let case_ids: Vec<u32> = {
                let mut events = EventTable::default();
                records.iter().map(|r| events.case_id(&r.process)).collect()
            };
            prop_assert_eq!(
                EventTable::from_records(&records).interleaved,
                case_ids.windows(2).any(|w| w[1] < w[0])
            );
            for (records, policy) in [
                (&records, AssemblyPolicy::Strict),
                (&records, AssemblyPolicy::Lenient),
                (&grouped, AssemblyPolicy::Strict),
                (&grouped, AssemblyPolicy::Lenient),
            ] {
                let mut table = seeded_table(seed);
                let got = assemble_executions_with(records, &mut table, policy);
                let mut ref_table = seeded_table(seed);
                let want = reference_assemble(records, &mut ref_table, policy);
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

        /// The interner assigns the ids of a linear-scan, first-seen
        /// interner, to cases and activities interned in turn, in two
        /// tables under two hash keys; `activity_name` gives each name
        /// back; and after `load_case` the check against the previous
        /// name cannot hand out an id that now names another case.
        #[test]
        fn interned_ids_are_first_seen_ids(
            cases in arb_names(),
            activities in arb_names(),
        ) {
            let first_seen = |names: &[String]| -> Vec<u32> {
                let mut seen: Vec<&str> = Vec::new();
                names
                    .iter()
                    .map(|name| match seen.iter().position(|s| s == name) {
                        Some(id) => id as u32,
                        None => {
                            seen.push(name);
                            seen.len() as u32 - 1
                        }
                    })
                    .collect()
            };
            let (want_cases, want_activities) = (first_seen(&cases), first_seen(&activities));
            let mut tables = [EventTable::default(), EventTable::default()];
            prop_assert_ne!(
                tables[0].cases.index.hasher().hash_one("walk-1"),
                tables[1].cases.index.hasher().hash_one("walk-1")
            );
            for events in &mut tables {
                let (mut got_cases, mut got_activities) = (Vec::new(), Vec::new());
                for i in 0..cases.len().max(activities.len()) {
                    if let Some(case) = cases.get(i) {
                        got_cases.push(events.case_id(case));
                    }
                    if let Some(activity) = activities.get(i) {
                        got_activities.push(events.activity_id(activity));
                    }
                }
                prop_assert_eq!(&got_cases, &want_cases);
                prop_assert_eq!(&got_activities, &want_activities);
                for (name, &id) in activities.iter().zip(&got_activities) {
                    prop_assert_eq!(events.activity_name(id), name.as_str());
                }
            }
            if let Some(last) = cases.last() {
                // `last` is the previous name; the loaded case takes id 0.
                let events = &mut tables[0];
                events.case_id(last);
                events.load_case("loaded".to_string(), &mut EventRows::default());
                let after = events.case_id(last);
                prop_assert_ne!(after, 0);
                prop_assert_eq!(events.cases.names[after as usize].as_str(), last.as_str());
            }
        }
    }

    /// Name sequences with runs (a name up to four times in a row),
    /// repeats of earlier names and many distinct names: short ones,
    /// `walk-N` case names, names longer than a hash word and non-ASCII
    /// ones.
    fn arb_names() -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec((1usize..5, 0u16..400, 0u8..4), 0..80).prop_map(|runs| {
            runs.into_iter()
                .flat_map(|(run, pick, style)| {
                    let name = match style {
                        0 => format!("{}", pick % 8),
                        1 => format!("walk-{pick}"),
                        2 => format!("a long activity name {pick}"),
                        _ => format!("活动{pick}"),
                    };
                    std::iter::repeat(name).take(run)
                })
                .collect()
        })
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
