//! The interleaved case assembler: events in, completed executions out.
//!
//! Real multi-writer audit trails interleave cases freely, so a reader
//! that assumed *contiguous cases* — all records of one case adjacent
//! in the log — would split a case id that reappears into two
//! executions, corrupting follows counts. [`CaseAssembler`] makes no
//! such assumption: events are keyed into an open-case map by case id,
//! and a case is assembled into an [`Execution`](crate::Execution) when
//! it *closes* — evicted by the memory bound, or flushed at end of
//! input.
//!
//! # Memory bound
//!
//! An unbounded stream can contain cases that never complete (a crashed
//! writer, a case id typo). The map is therefore bounded by
//! [`AssemblerConfig::max_open_cases`]: when a new case would exceed
//! the bound, the least-recently-touched case is *evicted* — assembled
//! leniently, its salvageable part delivered downstream, its unmatched
//! events dropped and reported. Evictions of structurally incomplete
//! cases are counted in
//! [`IngestReport::cases_evicted`](crate::IngestReport::cases_evicted)
//! and announced through [`Observer::on_eviction`]; an evicted case
//! whose events happen to pair up cleanly is delivered as a normal
//! completion and not counted (indistinguishable from a finished case).
//!
//! If events for an evicted case arrive later they open a *fresh* case
//! under the same id — the split the bound forces. Size the window
//! above the log's interleaving depth and no complete case is ever
//! split; the `--follow` parity tests pin exactly this.

use super::checkpoint::{self, CheckpointError, WireError, WireReader, WireWriter};
use super::{Observer, SourceLocation, StreamError, StreamSink};
use crate::codec::flowmark::EventFields;
use crate::validate::{assemble_case, AssemblyPolicy, CaseWork, EventRows, EventTable};
use crate::{ActivityTable, EventRecord, IngestReport};
use std::collections::HashMap;

/// Default [`AssemblerConfig::max_open_cases`]: generous for real logs
/// (the paper's 107 MB trail had far fewer concurrent cases) while
/// keeping worst-case memory far below materializing the log.
pub const DEFAULT_OPEN_CASE_WINDOW: usize = 1024;

/// Configuration for [`CaseAssembler`].
#[derive(Debug, Clone, Copy)]
pub struct AssemblerConfig {
    /// Upper bound on concurrently open cases; `0` means unbounded.
    pub max_open_cases: usize,
    /// How end-of-input assembly treats unmatched events. Evicted cases
    /// are always assembled leniently — under
    /// [`AssemblyPolicy::Strict`] an eviction would otherwise turn the
    /// memory bound itself into an input error.
    pub assembly: AssemblyPolicy,
}

impl Default for AssemblerConfig {
    fn default() -> Self {
        AssemblerConfig {
            max_open_cases: DEFAULT_OPEN_CASE_WINDOW,
            assembly: AssemblyPolicy::Lenient,
        }
    }
}

/// End of the recency list.
const NIL: usize = usize::MAX;

/// Buffered state of one open case: a slot of the assembler's slab,
/// linked into the recency list while the case is open. A freed slot
/// keeps its buffers for the next case it holds.
struct OpenCase {
    /// Case id.
    case: String,
    /// Buffered events as rows of the assembler's event table, in
    /// arrival order (empty while the slot is free).
    rows: EventRows,
    /// Source location of each buffered event.
    locations: Vec<SourceLocation>,
    /// Sequence number of the first event (flush order at finish).
    opened: u64,
    /// Sequence number of the latest event (LRU eviction order).
    last_touch: u64,
    /// Neighbouring slot touched less recently, or `NIL`.
    prev: usize,
    /// Neighbouring slot touched more recently, or `NIL`.
    next: usize,
}

/// One open case as exported into a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenCaseState {
    /// Case id.
    pub case: String,
    /// Buffered events, in arrival order.
    pub records: Vec<EventRecord>,
    /// Source location of each buffered event (same length as
    /// `records`).
    pub locations: Vec<SourceLocation>,
    /// Logical-clock tick of the first event.
    pub opened: u64,
    /// Logical-clock tick of the latest event.
    pub last_touch: u64,
}

/// The full resumable state of a [`CaseAssembler`]: activity table,
/// open cases (with their clocks, so LRU eviction and flush order
/// replay identically), and the accumulated ingest accounting.
/// Produced by [`CaseAssembler::export_state`], consumed by
/// [`CaseAssembler::resume`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AssemblerState {
    /// Interned activity names, in id order.
    pub activities: Vec<String>,
    /// Open cases, sorted by `opened` for deterministic encoding.
    pub open: Vec<OpenCaseState>,
    /// The logical clock (next event tick).
    pub clock: u64,
    /// Executions delivered to the observer so far.
    pub executions_emitted: u64,
    /// Assembly-side ingest accounting accumulated so far.
    pub report: IngestReport,
}

impl AssemblerState {
    /// Encodes the state into `w` (checkpoint wire format).
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_usize(self.activities.len());
        for name in &self.activities {
            w.put_str(name);
        }
        w.put_usize(self.open.len());
        for case in &self.open {
            w.put_str(&case.case);
            w.put_u64(case.opened);
            w.put_u64(case.last_touch);
            w.put_usize(case.records.len());
            for (record, at) in case.records.iter().zip(&case.locations) {
                checkpoint::encode_event(w, record);
                checkpoint::encode_location(w, at);
            }
        }
        w.put_u64(self.clock);
        w.put_u64(self.executions_emitted);
        checkpoint::encode_report(w, &self.report);
    }

    /// Decodes a state from `r` (checkpoint wire format).
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.get_len("assembler.activities.len", 8)?;
        let mut activities = Vec::with_capacity(n);
        for _ in 0..n {
            activities.push(r.get_str("assembler.activity")?);
        }
        let cases = r.get_len("assembler.open.len", 24)?;
        let mut open = Vec::with_capacity(cases);
        for _ in 0..cases {
            let case = r.get_str("assembler.case")?;
            let opened = r.get_u64("assembler.case.opened")?;
            let last_touch = r.get_u64("assembler.case.last_touch")?;
            let events = r.get_len("assembler.case.events", 16)?;
            let mut records = Vec::with_capacity(events);
            let mut locations = Vec::with_capacity(events);
            for _ in 0..events {
                records.push(checkpoint::decode_event(r)?);
                locations.push(checkpoint::decode_location(r)?);
            }
            open.push(OpenCaseState {
                case,
                records,
                locations,
                opened,
                last_touch,
            });
        }
        let clock = r.get_u64("assembler.clock")?;
        let executions_emitted = r.get_u64("assembler.executions_emitted")?;
        let report = checkpoint::decode_report(r)?;
        Ok(AssemblerState {
            activities,
            open,
            clock,
            executions_emitted,
            report,
        })
    }
}

/// Keyed open-case map turning an interleaved event stream into
/// completed executions for an [`Observer`]. See the module docs for
/// the state machine and eviction policy.
///
/// Open cases live in a slab of slots, found by case id through
/// `index` and threaded oldest-to-newest touch on a doubly linked
/// recency list, so touching a case and evicting the least recently
/// touched one are both O(1).
///
/// Each event takes one path, [`StreamSink::on_fields`], with its names
/// borrowed: the case is found by name, and the activity is interned
/// into the assembler's event table as the event arrives, so the case
/// buffers an id row and no string. Closing a case moves its rows into
/// the event table and pairs them with
/// [`assemble_case`](crate::validate) — no string and no hash per
/// event. [`StreamSink::on_event`] lends an owned record's names to the
/// same path.
pub struct CaseAssembler<O: Observer> {
    config: AssemblerConfig,
    observer: O,
    table: ActivityTable,
    /// Open case id → its slot in `slots`. A closing case's key becomes
    /// its execution's id; the slot keeps its own copy of the id, whose
    /// buffer the next case in the slot reuses.
    index: HashMap<String, usize>,
    slots: Vec<OpenCase>,
    /// Slots not holding an open case (their buffers keep capacity).
    free: Vec<usize>,
    /// Least and most recently touched open cases, or `NIL`.
    lru: usize,
    mru: usize,
    /// Every activity seen so far, interned as events arrive, with the
    /// activity ids it has mapped into `table`; holds the closing
    /// case's events while it is paired.
    events: EventTable,
    work: CaseWork,
    /// Logical clock: one tick per event, orders `opened`/`last_touch`.
    clock: u64,
    executions_emitted: u64,
    report: IngestReport,
    finished: bool,
}

impl<O: Observer> CaseAssembler<O> {
    /// Creates an assembler delivering completed executions to
    /// `observer`.
    pub fn new(config: AssemblerConfig, observer: O) -> Self {
        CaseAssembler {
            config,
            observer,
            table: ActivityTable::new(),
            index: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            events: EventTable::default(),
            work: CaseWork::default(),
            clock: 0,
            executions_emitted: 0,
            report: IngestReport::default(),
            finished: false,
        }
    }

    /// The activity table accumulated so far (ids in delivered
    /// executions are relative to it; it only grows).
    pub fn activities(&self) -> &ActivityTable {
        &self.table
    }

    /// Cases currently buffered — always `<= max_open_cases` when the
    /// bound is set (the eviction test pins this).
    pub fn open_cases(&self) -> usize {
        self.index.len()
    }

    /// Executions delivered to the observer so far.
    pub fn executions_emitted(&self) -> u64 {
        self.executions_emitted
    }

    /// Assembly-side ingest accounting: events dropped by lenient
    /// assembly (`records_skipped`, located in `errors`) and
    /// `cases_evicted`. Parse-side tallies live in the upstream
    /// source's report; merge the two for a complete picture.
    pub fn report(&self) -> &IngestReport {
        &self.report
    }

    /// Unwraps the observer (after [`StreamSink::finish`]).
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// Borrows the observer (e.g. to consult miner state between
    /// events while deciding whether a checkpoint is due).
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Mutably borrows the observer.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Exports the full resumable state: activity table, open cases
    /// with their logical clocks, and the accumulated report. Open
    /// cases are sorted by `opened` so the encoding is deterministic.
    pub fn export_state(&self) -> AssemblerState {
        let mut open: Vec<OpenCaseState> = self
            .open_slots()
            .map(|slot| {
                let c = &self.slots[slot];
                let records = c
                    .rows
                    .iter()
                    .map(|(activity, kind, time, output)| EventRecord {
                        process: c.case.clone(),
                        activity: self.events.activity_name(activity).to_string(),
                        kind,
                        time,
                        output: output.map(<[i64]>::to_vec),
                    })
                    .collect();
                OpenCaseState {
                    case: c.case.clone(),
                    records,
                    locations: c.locations.clone(),
                    opened: c.opened,
                    last_touch: c.last_touch,
                }
            })
            .collect();
        open.sort_by_key(|c| c.opened);
        AssemblerState {
            activities: self.table.names().to_vec(),
            open,
            clock: self.clock,
            executions_emitted: self.executions_emitted,
            report: self.report.clone(),
        }
    }

    /// Rebuilds an assembler from an exported [`AssemblerState`],
    /// delivering future executions to `observer`. The restored
    /// assembler replays exactly like the original: same activity-id
    /// assignment, same LRU eviction order, same finish flush order.
    /// Structural inconsistencies (length mismatches, events filed
    /// under another case, clock violations, two cases sharing a tick,
    /// duplicate names) are rejected — a checkpoint that fails them is
    /// corrupt even if its checksum matched.
    pub fn resume(
        config: AssemblerConfig,
        observer: O,
        state: AssemblerState,
    ) -> Result<Self, CheckpointError> {
        let invalid = |message: String| CheckpointError::Payload { message };
        let table = ActivityTable::from_names(state.activities.iter().map(String::as_str));
        if table.len() != state.activities.len() {
            return Err(invalid(format!(
                "assembler activity table has duplicate names ({} unique of {})",
                table.len(),
                state.activities.len()
            )));
        }
        let mut events = EventTable::default();
        let mut index = HashMap::with_capacity(state.open.len());
        let mut slots = Vec::with_capacity(state.open.len());
        for case in state.open {
            if case.records.len() != case.locations.len() {
                return Err(invalid(format!(
                    "open case `{}` has {} records but {} locations",
                    case.case,
                    case.records.len(),
                    case.locations.len()
                )));
            }
            if case.records.is_empty() {
                return Err(invalid(format!("open case `{}` has no events", case.case)));
            }
            if let Some(stray) = case.records.iter().find(|r| r.process != case.case) {
                return Err(invalid(format!(
                    "open case `{}` holds an event of case `{}`",
                    case.case, stray.process
                )));
            }
            if case.opened > case.last_touch || case.last_touch >= state.clock {
                return Err(invalid(format!(
                    "open case `{}` has clock ticks {}..{} outside the assembler clock {}",
                    case.case, case.opened, case.last_touch, state.clock
                )));
            }
            if index.insert(case.case.clone(), slots.len()).is_some() {
                return Err(invalid(format!("open case `{}` appears twice", case.case)));
            }
            let mut rows = EventRows::default();
            for r in case.records {
                let activity = events.activity_id(&r.activity);
                rows.push(0, activity, r.kind, r.time, r.output);
            }
            slots.push(OpenCase {
                case: case.case,
                rows,
                locations: case.locations,
                opened: case.opened,
                last_touch: case.last_touch,
                prev: NIL,
                next: NIL,
            });
        }
        if config.max_open_cases > 0 && slots.len() > config.max_open_cases {
            return Err(invalid(format!(
                "{} open cases exceed the --max-open-cases window {}",
                slots.len(),
                config.max_open_cases
            )));
        }
        // Every event has its own tick, so no two open cases share a
        // first or a latest one; eviction and flush order rely on it.
        let clash = shared_tick(&slots, |c| c.opened)
            .map(|clash| ("first", clash))
            .or_else(|| shared_tick(&slots, |c| c.last_touch).map(|clash| ("latest", clash)));
        if let Some((what, (a, b, tick))) = clash {
            return Err(invalid(format!(
                "open cases `{a}` and `{b}` share their {what} clock tick {tick}"
            )));
        }
        let mut assembler = CaseAssembler {
            config,
            observer,
            table,
            index,
            slots,
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            events,
            work: CaseWork::default(),
            clock: state.clock,
            executions_emitted: state.executions_emitted,
            report: state.report,
            finished: false,
        };
        let mut order: Vec<usize> = (0..assembler.slots.len()).collect();
        order.sort_unstable_by_key(|&slot| assembler.slots[slot].last_touch);
        for slot in order {
            assembler.link_mru(slot);
        }
        Ok(assembler)
    }

    /// Open slots from the least to the most recently touched.
    fn open_slots(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(Some(self.lru).filter(|&s| s != NIL), |&s| {
            Some(self.slots[s].next).filter(|&n| n != NIL)
        })
    }

    /// Appends `slot` to the recency list as the most recently touched.
    fn link_mru(&mut self, slot: usize) {
        self.slots[slot].prev = self.mru;
        self.slots[slot].next = NIL;
        match self.mru {
            NIL => self.lru = slot,
            mru => self.slots[mru].next = slot,
        }
        self.mru = slot;
    }

    /// Takes `slot` off the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        match prev {
            NIL => self.lru = next,
            prev => self.slots[prev].next = next,
        }
        match next {
            NIL => self.mru = prev,
            next => self.slots[next].prev = prev,
        }
    }

    /// Closes the case in `slot`: frees the slot, moves the case's
    /// rows into the event table, assembles them, accounts their
    /// dropped events and hands the execution to the observer.
    fn close_case(
        &mut self,
        slot: usize,
        assembly: AssemblyPolicy,
        eviction: bool,
    ) -> Result<(), StreamError> {
        self.unlink(slot);
        self.free.push(slot);
        let case = &mut self.slots[slot];
        let buffered = case.rows.len();
        // The map key becomes the execution's id. Every open case is
        // indexed; the copy only keeps this total.
        let name = match self.index.remove_entry(case.case.as_str()) {
            Some((key, _)) => key,
            None => case.case.clone(),
        };
        self.events.load_case(name, &mut case.rows);
        let work = &mut self.work;
        let exec = assemble_case(
            &mut self.events,
            0,
            0..buffered,
            &mut self.table,
            assembly,
            work,
        );
        let dropped = work.diagnostics.len();
        self.report.records_skipped += dropped as u64;
        for (diag, i) in work.diagnostics.drain(..).zip(work.dropped.drain(..)) {
            let at = case.locations[i];
            self.report
                .record_diagnostic(at.byte_offset, at.line, diag.to_string());
        }
        case.locations.clear();
        if eviction && dropped > 0 {
            self.report.cases_evicted += 1;
            self.observer.on_eviction(&case.case, buffered);
        }
        if let Some(exec) = exec? {
            self.observer.on_execution(&exec, &self.table)?;
            self.executions_emitted += 1;
        }
        Ok(())
    }
}

/// Two open cases that share a `tick`, with the tick, if any.
fn shared_tick(slots: &[OpenCase], tick: impl Fn(&OpenCase) -> u64) -> Option<(&str, &str, u64)> {
    let mut ticks: Vec<(u64, &str)> = slots.iter().map(|c| (tick(c), c.case.as_str())).collect();
    ticks.sort_unstable();
    ticks
        .windows(2)
        .find(|w| w[0].0 == w[1].0)
        .map(|w| (w[0].1, w[1].1, w[0].0))
}

impl<O: Observer> StreamSink for CaseAssembler<O> {
    /// Lends the record's names to [`StreamSink::on_fields`], the one
    /// event path.
    fn on_event(&mut self, event: EventRecord, at: SourceLocation) -> Result<(), StreamError> {
        let EventRecord {
            process,
            activity,
            kind,
            time,
            output,
        } = event;
        let fields = EventFields {
            process: &process,
            activity: &activity,
            kind,
            time,
            output,
        };
        self.on_fields(fields, at)
    }

    fn on_fields(&mut self, event: EventFields<'_>, at: SourceLocation) -> Result<(), StreamError> {
        let tick = self.clock;
        self.clock += 1;
        let slot = match self.index.get(event.process) {
            Some(&slot) => {
                if slot != self.mru {
                    self.unlink(slot);
                    self.link_mru(slot);
                }
                slot
            }
            None => {
                if self.config.max_open_cases > 0
                    && self.index.len() >= self.config.max_open_cases
                    && self.lru != NIL
                {
                    // Evict the least recently touched case to honor the bound.
                    self.close_case(self.lru, AssemblyPolicy::Lenient, true)?;
                }
                let slot = match self.free.pop() {
                    Some(slot) => slot,
                    None => {
                        self.slots.push(OpenCase {
                            case: String::new(),
                            rows: EventRows::default(),
                            locations: Vec::new(),
                            opened: 0,
                            last_touch: 0,
                            prev: NIL,
                            next: NIL,
                        });
                        self.slots.len() - 1
                    }
                };
                self.index.insert(event.process.to_string(), slot);
                let case = &mut self.slots[slot];
                case.case.clear();
                case.case.push_str(event.process);
                case.opened = tick;
                self.link_mru(slot);
                slot
            }
        };
        let activity = self.events.activity_id(event.activity);
        let case = &mut self.slots[slot];
        case.last_touch = tick;
        case.rows
            .push(0, activity, event.kind, event.time, event.output);
        case.locations.push(at);
        Ok(())
    }

    fn finish(&mut self) -> Result<(), StreamError> {
        if self.finished {
            return Ok(());
        }
        self.finished = true;
        // Flush remaining cases in the order they were opened, so a
        // fully buffered (non-evicting) run reproduces batch order.
        let mut open: Vec<(u64, usize)> = self
            .open_slots()
            .map(|slot| (self.slots[slot].opened, slot))
            .collect();
        open.sort_unstable();
        let assembly = self.config.assembly;
        for (_, slot) in open {
            self.close_case(slot, assembly, false)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Execution;

    /// Observer capturing displayed sequences and eviction notices.
    #[derive(Default)]
    struct Capture {
        execs: Vec<(String, String)>,
        evictions: Vec<(String, usize)>,
    }

    impl Observer for &mut Capture {
        fn on_execution(
            &mut self,
            exec: &Execution,
            table: &ActivityTable,
        ) -> Result<(), StreamError> {
            self.execs.push((exec.id.clone(), exec.display(table)));
            Ok(())
        }

        fn on_eviction(&mut self, case: &str, buffered: usize) {
            self.evictions.push((case.to_string(), buffered));
        }
    }

    fn feed(
        assembler: &mut CaseAssembler<impl Observer>,
        events: &[EventRecord],
    ) -> Result<(), StreamError> {
        for (i, e) in events.iter().enumerate() {
            assembler.on_event(
                e.clone(),
                SourceLocation {
                    byte_offset: i as u64,
                    line: i + 1,
                },
            )?;
        }
        assembler.finish()
    }

    #[test]
    fn interleaved_cases_assemble_whole() {
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(AssemblerConfig::default(), &mut cap);
        feed(
            &mut asm,
            &[
                EventRecord::start("p1", "A", 0),
                EventRecord::start("p2", "A", 0),
                EventRecord::end("p1", "A", 1, None),
                EventRecord::end("p2", "A", 1, None),
                EventRecord::start("p1", "B", 2), // p1 reappears: same case
                EventRecord::end("p1", "B", 3, None),
            ],
        )
        .unwrap();
        assert_eq!(asm.report().cases_evicted, 0);
        drop(asm);
        assert_eq!(
            cap.execs,
            vec![
                ("p1".to_string(), "A B".to_string()),
                ("p2".to_string(), "A".to_string()),
            ]
        );
    }

    #[test]
    fn eviction_bounds_open_cases_and_reports() {
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(
            AssemblerConfig {
                max_open_cases: 2,
                ..AssemblerConfig::default()
            },
            &mut cap,
        );
        // Three never-completing cases: the third arrival evicts p1.
        for (i, case) in ["p1", "p2", "p3"].iter().enumerate() {
            asm.on_event(
                EventRecord::start(*case, "A", i as u64),
                SourceLocation::default(),
            )
            .unwrap();
            assert!(asm.open_cases() <= 2);
        }
        assert_eq!(asm.report().cases_evicted, 1);
        assert_eq!(asm.report().records_skipped, 1, "p1's dangling START");
        drop(asm);
        assert_eq!(cap.evictions, vec![("p1".to_string(), 1)]);
    }

    #[test]
    fn evicted_balanced_case_is_a_normal_completion() {
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(
            AssemblerConfig {
                max_open_cases: 1,
                ..AssemblerConfig::default()
            },
            &mut cap,
        );
        feed(
            &mut asm,
            &[
                EventRecord::start("p1", "A", 0),
                EventRecord::end("p1", "A", 1, None),
                EventRecord::start("p2", "B", 2), // evicts balanced p1
                EventRecord::end("p2", "B", 3, None),
            ],
        )
        .unwrap();
        assert_eq!(asm.report().cases_evicted, 0, "balanced eviction is free");
        drop(asm);
        assert_eq!(cap.evictions, vec![]);
        assert_eq!(cap.execs.len(), 2);
    }

    #[test]
    fn finish_flushes_in_opened_order() {
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(AssemblerConfig::default(), &mut cap);
        feed(
            &mut asm,
            &[
                EventRecord::start("late", "A", 0),
                EventRecord::start("early", "B", 0),
                EventRecord::end("early", "B", 1, None),
                EventRecord::end("late", "A", 1, None),
            ],
        )
        .unwrap();
        drop(asm);
        let ids: Vec<&str> = cap.execs.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["late", "early"], "first-event order, not close order");
    }

    #[test]
    fn strict_finish_surfaces_unmatched_events() {
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(
            AssemblerConfig {
                assembly: AssemblyPolicy::Strict,
                ..AssemblerConfig::default()
            },
            &mut cap,
        );
        let err = feed(&mut asm, &[EventRecord::start("p1", "A", 0)]).unwrap_err();
        assert!(matches!(
            err,
            StreamError::Log(crate::LogError::UnmatchedStart { .. })
        ));
    }

    #[test]
    fn lenient_diagnostics_carry_source_locations() {
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(AssemblerConfig::default(), &mut cap);
        feed(
            &mut asm,
            &[
                EventRecord::start("p1", "A", 0),
                EventRecord::end("p1", "A", 1, None),
                EventRecord::end("p1", "Z", 2, None), // dangling END at line 3
            ],
        )
        .unwrap();
        assert_eq!(asm.report().records_skipped, 1);
        assert_eq!(asm.report().errors.len(), 1);
        assert_eq!(asm.report().errors[0].line, 3);
        assert_eq!(asm.report().errors[0].byte_offset, 2);
        assert_eq!(
            asm.report().errors_total,
            0,
            "diagnostics must not burn the Skip budget"
        );
    }

    /// Mid-stream export/resume replays exactly like an uninterrupted
    /// run: same executions in the same order, same report.
    #[test]
    fn export_resume_roundtrip_replays_identically() {
        let events = [
            EventRecord::start("p1", "A", 0),
            EventRecord::start("p2", "A", 0),
            EventRecord::end("p1", "A", 1, None),
            EventRecord::start("p1", "B", 2),
            EventRecord::end("p2", "A", 1, None),
            EventRecord::end("p1", "B", 3, None),
            EventRecord::start("p3", "C", 4),
            EventRecord::end("p3", "C", 5, None),
        ];
        let at = |i: usize| SourceLocation {
            byte_offset: i as u64,
            line: i + 1,
        };

        // Uninterrupted baseline.
        let mut base_cap = Capture::default();
        let mut base = CaseAssembler::new(AssemblerConfig::default(), &mut base_cap);
        for (i, e) in events.iter().enumerate() {
            base.on_event(e.clone(), at(i)).unwrap();
        }
        base.finish().unwrap();
        let base_report = base.report().clone();
        drop(base);

        // Interrupted at an arbitrary mid-stream boundary.
        let split = 4;
        let mut first_cap = Capture::default();
        let mut first = CaseAssembler::new(AssemblerConfig::default(), &mut first_cap);
        for (i, e) in events[..split].iter().enumerate() {
            first.on_event(e.clone(), at(i)).unwrap();
        }
        let state = first.export_state();
        drop(first); // "crash": never finished

        // Wire roundtrip, then resume and replay the tail.
        let mut w = WireWriter::new();
        state.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let restored = AssemblerState::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored, state);

        let mut resumed_cap = Capture::default();
        let mut resumed =
            CaseAssembler::resume(AssemblerConfig::default(), &mut resumed_cap, restored).unwrap();
        for (i, e) in events[split..].iter().enumerate() {
            resumed.on_event(e.clone(), at(split + i)).unwrap();
        }
        resumed.finish().unwrap();
        let resumed_report = resumed.report().clone();
        drop(resumed);

        let mut combined = first_cap.execs;
        combined.extend(resumed_cap.execs);
        assert_eq!(combined, base_cap.execs);
        assert_eq!(resumed_report, base_report);
    }

    #[test]
    fn resume_rejects_structurally_corrupt_state() {
        let sane = |name: &str| OpenCaseState {
            case: name.to_string(),
            records: vec![EventRecord::start(name, "A", 0)],
            locations: vec![SourceLocation::default()],
            opened: 0,
            last_touch: 0,
        };
        let reject = |state: AssemblerState, needle: &str| {
            let err =
                CaseAssembler::resume(AssemblerConfig::default(), &mut Capture::default(), state)
                    .err()
                    .map(|e| e.to_string())
                    .unwrap_or_else(|| panic!("corrupt state accepted ({needle})"));
            assert!(err.contains(needle), "got: {err}");
        };

        reject(
            AssemblerState {
                activities: vec!["A".to_string(), "A".to_string()],
                clock: 1,
                ..AssemblerState::default()
            },
            "duplicate names",
        );
        let mut mismatched = sane("p1");
        mismatched.locations.clear();
        reject(
            AssemblerState {
                open: vec![mismatched],
                clock: 1,
                ..AssemblerState::default()
            },
            "records but",
        );
        reject(
            AssemblerState {
                open: vec![sane("p1")],
                clock: 0, // last_touch 0 is not < clock 0
                ..AssemblerState::default()
            },
            "outside the assembler clock",
        );
        let err = CaseAssembler::resume(
            AssemblerConfig {
                max_open_cases: 2,
                ..AssemblerConfig::default()
            },
            &mut Capture::default(),
            AssemblerState {
                open: vec![sane("p1"), sane("p2"), sane("p3")],
                clock: 1,
                ..AssemblerState::default()
            },
        )
        .map(|_| ())
        .expect_err("over-window state accepted")
        .to_string();
        assert!(err.contains("exceed the --max-open-cases"), "got: {err}");
    }

    /// Each event has its own tick, so two open cases never share a
    /// first or a latest one. A state where they do would make the
    /// eviction order arbitrary; it is refused as corrupt.
    #[test]
    fn resume_rejects_cases_sharing_a_clock_tick() {
        let case = |name: &str, opened: u64, last_touch: u64| OpenCaseState {
            case: name.to_string(),
            records: vec![
                EventRecord::start(name, "A", 0),
                EventRecord::start(name, "B", 1),
            ],
            locations: vec![SourceLocation::default(); 2],
            opened,
            last_touch,
        };
        let resume = |open: Vec<OpenCaseState>| {
            CaseAssembler::resume(
                AssemblerConfig::default(),
                &mut Capture::default(),
                AssemblerState {
                    open,
                    clock: 4,
                    ..AssemblerState::default()
                },
            )
            .map(|_| ())
            .map_err(|e| e.to_string())
        };
        let err = resume(vec![case("p1", 0, 3), case("p2", 1, 3)]).unwrap_err();
        assert!(
            err.contains("`p1` and `p2` share their latest clock tick 3"),
            "got: {err}"
        );
        let err = resume(vec![case("p1", 1, 2), case("p2", 1, 3)]).unwrap_err();
        assert!(
            err.contains("`p1` and `p2` share their first clock tick 1"),
            "got: {err}"
        );
        resume(vec![case("p1", 0, 3), case("p2", 1, 2)]).unwrap();
    }

    #[test]
    fn resume_rejects_events_filed_under_another_case() {
        let mut stray = OpenCaseState {
            case: "p1".to_string(),
            records: vec![EventRecord::start("p1", "A", 0)],
            locations: vec![SourceLocation::default(); 2],
            opened: 0,
            last_touch: 1,
        };
        stray.records.push(EventRecord::start("p2", "A", 1));
        let err = CaseAssembler::resume(
            AssemblerConfig::default(),
            &mut Capture::default(),
            AssemblerState {
                open: vec![stray],
                clock: 2,
                ..AssemblerState::default()
            },
        )
        .map(|_| ())
        .expect_err("stray event accepted")
        .to_string();
        assert!(err.contains("holds an event of case `p2`"), "got: {err}");
    }

    /// Eviction follows the recency list: touching a case moves it
    /// behind every other, and a resumed assembler evicts in the same
    /// order as the one it was exported from.
    #[test]
    fn eviction_follows_recency_across_resume() {
        let config = AssemblerConfig {
            max_open_cases: 3,
            ..AssemblerConfig::default()
        };
        let start = |case: &str, t: u64| EventRecord::start(case, "A", t);
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(config, &mut cap);
        for (i, case) in ["p1", "p2", "p3", "p1", "p2"].iter().enumerate() {
            asm.on_event(start(case, i as u64), SourceLocation::default())
                .unwrap();
        }
        let state = asm.export_state();
        drop(asm);
        let mut resumed_cap = Capture::default();
        let mut resumed = CaseAssembler::resume(config, &mut resumed_cap, state).unwrap();
        for (i, case) in ["p4", "p5", "p6"].iter().enumerate() {
            resumed
                .on_event(start(case, 10 + i as u64), SourceLocation::default())
                .unwrap();
        }
        drop(resumed);
        let order: Vec<&str> = resumed_cap
            .evictions
            .iter()
            .map(|(case, _)| case.as_str())
            .collect();
        assert_eq!(order, ["p3", "p1", "p2"]);
    }

    #[test]
    fn finish_is_idempotent() {
        let mut cap = Capture::default();
        let mut asm = CaseAssembler::new(AssemblerConfig::default(), &mut cap);
        asm.on_event(EventRecord::start("p", "A", 0), SourceLocation::default())
            .unwrap();
        asm.on_event(
            EventRecord::end("p", "A", 1, None),
            SourceLocation::default(),
        )
        .unwrap();
        asm.finish().unwrap();
        asm.finish().unwrap();
        drop(asm);
        assert_eq!(cap.execs.len(), 1);
    }
}
