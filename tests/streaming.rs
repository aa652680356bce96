//! Streaming-layer tests: the `--follow` pipeline (FlowmarkSource →
//! CaseAssembler → OnlineMiner) against batch mining.
//!
//! * proptest parity: on clean logs — with cases arbitrarily
//!   interleaved in the event stream — online mining produces the same
//!   edge set *and the same edge-support counts* as batch mining the
//!   materialized log;
//! * corruption fuzz: the interleaved assembler survives corrupted
//!   streams under all three `RecoveryPolicy` variants;
//! * eviction: memory stays bounded by the open-case window;
//! * differential: the recency-list assembler evicts, delivers and
//!   resumes exactly like a reference that scans every open case;
//! * one event path: handing the assembler each line's borrowed fields
//!   (`FlowmarkSource::feed`) and handing it owned records
//!   (`next_event` → `on_event`) are observably the same.

use procmine::log::stream::{
    AssemblerConfig, AssemblerState, CaseAssembler, FlowmarkSource, Observer, SourceLocation,
    StreamError, StreamSink, WireReader, WireWriter,
};
use procmine::log::validate::{assemble_executions_with, AssemblyPolicy};
use procmine::log::{
    codec::{flowmark, CodecStats, MAX_RECORDED_ERRORS},
    ActivityInstance, ActivityTable, EventKind, EventRecord, Execution, IngestReport, LogError,
    RecoveryPolicy, WorkflowLog,
};
use procmine::mine::{mine_general_dag, MinedModel, MinerOptions, OnlineMiner, SnapshotPolicy};
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a random log of executions over activities `A`..`J`
/// (shuffled subsets wrapped in fixed start/end activities — the same
/// shape as tests/properties.rs).
fn arb_log(max_execs: usize) -> impl Strategy<Value = WorkflowLog> {
    let activity_pool: Vec<String> = (b'B'..=b'I').map(|c| (c as char).to_string()).collect();
    let exec = proptest::sample::subsequence(activity_pool, 0..=8).prop_shuffle();
    proptest::collection::vec(exec, 1..=max_execs).prop_map(|execs| {
        let mut log = WorkflowLog::new();
        for middle in execs {
            let mut seq = vec!["A".to_string()];
            seq.extend(middle);
            seq.push("J".to_string());
            log.push_sequence(&seq).unwrap();
        }
        log
    })
}

/// Serializes `log` as flowmark text with the cases *interleaved*:
/// `picks` decides, event slot by event slot, which still-unfinished
/// case contributes the next record. Relative event order within each
/// case is preserved (START before END, instance order), which is all
/// the assembler requires.
fn interleaved_flowmark(log: &WorkflowLog, picks: &[usize]) -> String {
    let table = log.activities();
    let mut queues: Vec<Vec<EventRecord>> = log
        .executions()
        .iter()
        .map(|exec| {
            let mut events = Vec::new();
            for inst in exec.instances() {
                let name = table.name(inst.activity);
                events.push(EventRecord::start(&exec.id, name, inst.start));
                events.push(EventRecord::end(&exec.id, name, inst.end, None));
            }
            events.reverse(); // pop() from the back = front of the case
            events
        })
        .collect();
    let mut out = String::new();
    let mut emit = |e: EventRecord| {
        let kind = match e.kind {
            EventKind::Start => "START",
            EventKind::End => "END",
        };
        out.push_str(&format!(
            "{},{},{},{}\n",
            e.process, e.activity, kind, e.time
        ));
    };
    for &pick in picks {
        // Choose among the still-non-empty queues, wrapping the pick.
        let live: Vec<usize> = (0..queues.len())
            .filter(|&i| !queues[i].is_empty())
            .collect();
        if live.is_empty() {
            break;
        }
        let q = live[pick % live.len()];
        if let Some(e) = queues[q].pop() {
            emit(e);
        }
    }
    for q in &mut queues {
        while let Some(e) = q.pop() {
            emit(e);
        }
    }
    out
}

/// Sorted `(from, to, support)` triples, names resolved so models with
/// different interning orders compare equal.
fn support_triples(model: &MinedModel) -> Vec<(String, String, u32)> {
    let mut triples: Vec<(String, String, u32)> = model
        .edge_support()
        .iter()
        .map(|&(u, v, c)| {
            let name = |i: usize| model.name_of(procmine::graph::NodeId::new(i)).to_string();
            (name(u), name(v), c)
        })
        .collect();
    triples.sort();
    triples
}

/// Runs the full follow pipeline over flowmark `text` and returns the
/// final model (plus executions absorbed).
fn mine_following(
    text: &str,
    policy: RecoveryPolicy,
    max_open_cases: usize,
) -> Result<(MinedModel, usize), StreamError> {
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand());
    let mut source = FlowmarkSource::new(text.as_bytes(), policy);
    let mut assembler = CaseAssembler::new(
        AssemblerConfig {
            max_open_cases,
            assembly: if policy.is_strict() {
                AssemblyPolicy::Strict
            } else {
                AssemblyPolicy::Lenient
            },
        },
        |exec: &Execution, table: &ActivityTable| -> Result<(), StreamError> {
            // Tolerate miner rejections (corruption can fabricate
            // repeats) the way the CLI does: skip the case.
            let _ = miner.absorb(exec, table);
            Ok(())
        },
    );
    source.pump(&mut assembler)?;
    drop(assembler);
    let executions = miner.executions();
    let model = miner
        .snapshot()
        .map_err(|e| StreamError::Sink(Box::new(e)))?;
    Ok((model, executions))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Parity: online mining an interleaved stream == batch mining the
    /// materialized log — same edges, same support counts.
    #[test]
    fn follow_parity_with_batch(
        log in arb_log(10),
        picks in proptest::collection::vec(0usize..64, 0..200),
    ) {
        let text = interleaved_flowmark(&log, &picks);
        let batch_log = flowmark::read_log(text.as_bytes()).unwrap();
        let batch = mine_general_dag(&batch_log, &MinerOptions::default()).unwrap();
        // Window comfortably above the interleaving depth: no complete
        // case is ever split.
        let (online, executions) =
            mine_following(&text, RecoveryPolicy::Strict, 1024).unwrap();
        prop_assert_eq!(executions, log.len());
        prop_assert_eq!(support_triples(&online), support_triples(&batch));
    }

    /// The interleaved assembler survives corrupted streams under all
    /// three recovery policies: no panics, bounded behavior, and under
    /// `Skip` any give-up is the budget error.
    #[test]
    fn assembler_survives_corruption_under_all_policies(
        log in arb_log(6),
        picks in proptest::collection::vec(0usize..64, 0..100),
        rate_per_mille in 1u32..50,
        seed in 0u64..=u64::MAX,
    ) {
        use procmine::log::fault::{corrupt_bytes, FaultConfig};
        let clean = interleaved_flowmark(&log, &picks);
        let rate = f64::from(rate_per_mille) / 1000.0;
        let dirty = corrupt_bytes(clean.as_bytes(), &FaultConfig::bit_flips(rate, seed));
        let text = String::from_utf8_lossy(&dirty).into_owned();

        for policy in [
            RecoveryPolicy::Strict,
            RecoveryPolicy::Skip { max_errors: 4 },
            RecoveryPolicy::BestEffort,
        ] {
            match mine_following(&text, policy, 1024) {
                Ok(_) => {}
                Err(StreamError::Log(e)) => {
                    if let RecoveryPolicy::Skip { .. } = policy {
                        // Mid-stream give-up must be the budget error;
                        // only a corrupted *unterminated tail* may
                        // surface as UnexpectedEof instead.
                        prop_assert!(
                            matches!(
                                e,
                                LogError::TooManyErrors { .. } | LogError::UnexpectedEof { .. }
                            ),
                            "Skip surfaced {e:?}"
                        );
                    }
                }
                // Snapshot of an empty miner (everything corrupted away).
                Err(StreamError::Sink(_)) => {}
            }
        }
    }
}

/// Memory stays bounded by the open-case window: a horde of
/// never-completing cases cannot grow the assembler past the bound, and
/// each eviction is reported.
#[test]
fn eviction_bounds_memory_under_never_completing_cases() {
    const WINDOW: usize = 8;
    const CASES: usize = 100;
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand());
    let mut assembler = CaseAssembler::new(
        AssemblerConfig {
            max_open_cases: WINDOW,
            assembly: AssemblyPolicy::Lenient,
        },
        |exec: &Execution, table: &ActivityTable| -> Result<(), StreamError> {
            miner
                .absorb(exec, table)
                .map(|_| ())
                .map_err(|e| StreamError::Sink(Box::new(e)))
        },
    );
    for i in 0..CASES {
        let case = format!("case-{i}");
        // One complete instance (salvageable) …
        assembler
            .on_event(EventRecord::start(&case, "A", 0), Default::default())
            .unwrap();
        assembler
            .on_event(EventRecord::end(&case, "A", 1, None), Default::default())
            .unwrap();
        // … and a START that never ends: the case stays open forever.
        assembler
            .on_event(EventRecord::start(&case, "B", 2), Default::default())
            .unwrap();
        assert!(
            assembler.open_cases() <= WINDOW,
            "open cases {} exceeded the window at case {i}",
            assembler.open_cases()
        );
    }
    assembler.finish().unwrap();
    let report = assembler.report().clone();
    assert_eq!(
        report.cases_evicted as usize,
        CASES - WINDOW,
        "every case beyond the window was evicted incomplete"
    );
    assert_eq!(
        report.records_skipped as usize, CASES,
        "each case drops exactly its dangling START"
    );
    drop(assembler);
    // Every salvaged fragment still reached the miner.
    assert_eq!(miner.executions(), CASES);
    let model = miner.snapshot().unwrap();
    assert_eq!(model.activity_count(), 1, "only the completed A survives");
}

/// An eviction callback fires for cases cut down by the memory bound.
#[test]
fn eviction_notices_reach_the_observer() {
    struct Notice {
        evicted: Vec<String>,
    }
    impl Observer for &mut Notice {
        fn on_execution(
            &mut self,
            _exec: &Execution,
            _table: &ActivityTable,
        ) -> Result<(), StreamError> {
            Ok(())
        }
        fn on_eviction(&mut self, case: &str, _buffered: usize) {
            self.evicted.push(case.to_string());
        }
    }
    let mut notice = Notice { evicted: vec![] };
    let mut assembler = CaseAssembler::new(
        AssemblerConfig {
            max_open_cases: 1,
            assembly: AssemblyPolicy::Lenient,
        },
        &mut notice,
    );
    assembler
        .on_event(EventRecord::start("p1", "A", 0), Default::default())
        .unwrap();
    assembler
        .on_event(EventRecord::start("p2", "A", 0), Default::default())
        .unwrap();
    assembler.finish().unwrap();
    drop(assembler);
    assert_eq!(notice.evicted, vec!["p1".to_string()]);
}

/// Lenient-assembly diagnostics carry the location of the record that
/// was dropped, not of an earlier record with the same kind, activity
/// and time.
#[test]
fn follow_diagnostics_point_at_the_dropped_records() {
    let text = "p1,A,START,0\np1,A,END,1\np1,A,END,1\np1,B,START,2\np1,B,START,2\np1,B,END,3\n";
    let mut assembler = CaseAssembler::new(
        AssemblerConfig {
            max_open_cases: 1024,
            assembly: AssemblyPolicy::Lenient,
        },
        |_: &Execution, _: &ActivityTable| Ok::<(), StreamError>(()),
    );
    FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::BestEffort)
        .pump(&mut assembler)
        .unwrap();
    let located: Vec<(usize, u64, &str)> = assembler
        .report()
        .errors
        .iter()
        .map(|e| (e.line, e.byte_offset, e.message.as_str()))
        .collect();
    assert_eq!(
        located,
        [
            (
                3,
                24,
                "case `p1`: dropped END for `A` at t=1 (no open START)"
            ),
            (
                5,
                48,
                "case `p1`: dropped START for `B` at t=2 (never ended)"
            ),
        ]
    );
    assert_eq!(assembler.report().records_skipped, 2);
}

/// What an assembler showed the outside world: executions delivered,
/// eviction notices, and its report.
#[derive(Debug, Default, PartialEq)]
struct Delivered {
    executions: Vec<(String, Vec<ActivityInstance>)>,
    evictions: Vec<(String, usize)>,
}

impl Observer for &mut Delivered {
    fn on_execution(
        &mut self,
        exec: &Execution,
        _table: &ActivityTable,
    ) -> Result<(), StreamError> {
        self.executions
            .push((exec.id.clone(), exec.instances().to_vec()));
        Ok(())
    }

    fn on_eviction(&mut self, case: &str, buffered: usize) {
        self.evictions.push((case.to_string(), buffered));
    }
}

/// Reference assembler: evicting scans every open case for the oldest
/// touch, and closing runs the batch assembly over the case's records.
struct ScanningAssembler {
    config: AssemblerConfig,
    table: ActivityTable,
    /// Case id → (records, opened, last touch).
    open: HashMap<String, (Vec<EventRecord>, u64, u64)>,
    clock: u64,
    records_skipped: u64,
    cases_evicted: u64,
    messages: Vec<String>,
    out: Delivered,
}

impl ScanningAssembler {
    fn new(config: AssemblerConfig) -> Self {
        ScanningAssembler {
            config,
            table: ActivityTable::new(),
            open: HashMap::new(),
            clock: 0,
            records_skipped: 0,
            cases_evicted: 0,
            messages: Vec::new(),
            out: Delivered::default(),
        }
    }

    fn close(
        &mut self,
        name: &str,
        policy: AssemblyPolicy,
        eviction: bool,
    ) -> Result<(), LogError> {
        let (records, ..) = self.open.remove(name).unwrap();
        let report = assemble_executions_with(&records, &mut self.table, policy)?;
        self.records_skipped += report.diagnostics.len() as u64;
        self.messages
            .extend(report.diagnostics.iter().map(ToString::to_string));
        if eviction && !report.diagnostics.is_empty() {
            self.cases_evicted += 1;
            self.out.evictions.push((name.to_string(), records.len()));
        }
        for exec in report.executions {
            self.out
                .executions
                .push((exec.id.clone(), exec.instances().to_vec()));
        }
        Ok(())
    }

    fn on_event(&mut self, event: EventRecord) -> Result<(), LogError> {
        let tick = self.clock;
        self.clock += 1;
        if let Some((records, _, last_touch)) = self.open.get_mut(&event.process) {
            *last_touch = tick;
            records.push(event);
            return Ok(());
        }
        if self.config.max_open_cases > 0 && self.open.len() >= self.config.max_open_cases {
            let victim = self
                .open
                .iter()
                .min_by_key(|(_, (_, _, last_touch))| *last_touch)
                .map(|(name, _)| name.clone())
                .unwrap();
            self.close(&victim, AssemblyPolicy::Lenient, true)?;
        }
        self.open
            .insert(event.process.clone(), (vec![event], tick, tick));
        Ok(())
    }

    fn finish(&mut self) -> Result<(), LogError> {
        let mut names: Vec<(u64, String)> = self
            .open
            .iter()
            .map(|(name, (_, opened, _))| (*opened, name.clone()))
            .collect();
        names.sort_unstable();
        for (_, name) in names {
            self.close(&name, self.config.assembly, false)?;
        }
        Ok(())
    }
}

/// Strategy: interleaved events over up to eight cases and four
/// activities at a handful of timestamps — unmatched STARTs and ENDs,
/// duplicates and same-time events included.
fn arb_events() -> impl Strategy<Value = Vec<EventRecord>> {
    let event = (0u8..8, 0u8..4, 0u8..3, 0u64..8);
    proptest::collection::vec(event, 0..80).prop_map(|events| {
        events
            .into_iter()
            .map(|(case, activity, kind, time)| {
                let case = format!("c{case}");
                let activity = ((b'A' + activity) as char).to_string();
                // START twice as often as END: cases stay open for a while.
                if kind == 2 {
                    EventRecord::end(case, activity, time, None)
                } else {
                    EventRecord::start(case, activity, time)
                }
            })
            .collect()
    })
}

fn location(i: usize) -> SourceLocation {
    SourceLocation {
        byte_offset: 100 * i as u64,
        line: i + 1,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// The recency-list assembler is observably the scanning one: same
    /// executions in the same order, same eviction notices, same
    /// skip/eviction counts and diagnostics, same open-case count after
    /// every event — and the same again when the run is exported, sent
    /// through the checkpoint wire format, and resumed at any prefix.
    #[test]
    fn assembler_matches_scanning_reference(
        events in arb_events(),
        window in 1usize..=8,
        strict in 0u8..2,
        cut in 0usize..=80,
    ) {
        let config = AssemblerConfig {
            max_open_cases: window,
            assembly: if strict == 1 { AssemblyPolicy::Strict } else { AssemblyPolicy::Lenient },
        };
        let mut reference = ScanningAssembler::new(config);
        let mut out = Delivered::default();
        let mut assembler = CaseAssembler::new(config, &mut out);
        let mut open_after = Vec::new();
        for (i, e) in events.iter().enumerate() {
            reference.on_event(e.clone()).unwrap();
            assembler.on_event(e.clone(), location(i)).unwrap();
            open_after.push(reference.open.len());
            prop_assert_eq!(assembler.open_cases(), reference.open.len());
        }
        let want_finish = reference.finish().map_err(|e| e.to_string());
        let got_finish = assembler.finish().map_err(|e| e.to_string());
        prop_assert_eq!(&got_finish, &want_finish);
        let report = assembler.report().clone();
        drop(assembler);
        prop_assert_eq!(&out, &reference.out);
        prop_assert_eq!(report.records_skipped, reference.records_skipped);
        prop_assert_eq!(report.cases_evicted, reference.cases_evicted);
        let messages: Vec<&str> = report.errors.iter().map(|e| e.message.as_str()).collect();
        let want: Vec<&str> = reference
            .messages
            .iter()
            .take(MAX_RECORDED_ERRORS)
            .map(String::as_str)
            .collect();
        prop_assert_eq!(messages, want);

        // Interrupted after `cut` events: export, wire, resume, go on.
        let cut = cut.min(events.len());
        let mut first = Delivered::default();
        let mut head = CaseAssembler::new(config, &mut first);
        for (i, e) in events[..cut].iter().enumerate() {
            head.on_event(e.clone(), location(i)).unwrap();
        }
        let state = head.export_state();
        drop(head);
        let mut w = WireWriter::new();
        state.encode_into(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        let restored = AssemblerState::decode(&mut r).unwrap();
        r.finish().unwrap();
        let mut rest = Delivered::default();
        let mut tail = CaseAssembler::resume(config, &mut rest, restored).unwrap();
        for (i, e) in events.iter().enumerate().skip(cut) {
            tail.on_event(e.clone(), location(i)).unwrap();
            prop_assert_eq!(tail.open_cases(), open_after[i]);
        }
        let resumed_finish = tail.finish().map_err(|e| e.to_string());
        prop_assert_eq!(&resumed_finish, &want_finish);
        let resumed_report = tail.report().clone();
        drop(tail);
        first.executions.extend(rest.executions);
        first.evictions.extend(rest.evictions);
        prop_assert_eq!(&first, &reference.out);
        prop_assert_eq!(resumed_report, report);
    }
}

/// Strategy: Flowmark text of interleaved events over up to eight
/// cases and four activities at a handful of timestamps — unmatched
/// and duplicate STARTs and ENDs, same-time events, and output vectors
/// on some ENDs.
fn arb_flowmark() -> impl Strategy<Value = String> {
    let event = (0u8..8, 0u8..4, 0u8..4, 0u64..8, -2i64..3);
    proptest::collection::vec(event, 0..80).prop_map(|events| {
        events
            .into_iter()
            .map(|(case, activity, kind, time, out)| {
                let activity = (b'A' + activity) as char;
                match kind {
                    0 | 1 => format!("c{case},{activity},START,{time}\n"),
                    2 => format!("c{case},{activity},END,{time}\n"),
                    _ => format!("c{case},{activity},END,{time},{out};{}\n", out * 7),
                }
            })
            .collect()
    })
}

/// Everything an assembler run over a Flowmark text showed.
#[derive(Debug, PartialEq)]
struct Followed {
    out: Delivered,
    activities: Vec<String>,
    /// `open_cases()` after every event.
    open_after: Vec<usize>,
    finished: Result<(), String>,
    report: IngestReport,
    source_report: IngestReport,
    stats: CodecStats,
    /// `export_state` after `cut` events, and the same state after the
    /// wire format and `resume`, exported again.
    at_cut: AssemblerState,
    resumed: AssemblerState,
}

/// Runs `text` through a case assembler, one `step` per event, and
/// records what it showed.
fn follow_text(
    text: &str,
    config: AssemblerConfig,
    cut: usize,
    step: impl Fn(
        &mut FlowmarkSource<&[u8]>,
        &mut CaseAssembler<&mut Delivered>,
    ) -> Result<bool, StreamError>,
) -> Followed {
    let mut out = Delivered::default();
    let mut source = FlowmarkSource::new(text.as_bytes(), RecoveryPolicy::Strict);
    let mut assembler = CaseAssembler::new(config, &mut out);
    let mut open_after = Vec::new();
    let mut at_cut = None;
    loop {
        if open_after.len() == cut {
            at_cut = Some(assembler.export_state());
        }
        if !step(&mut source, &mut assembler).unwrap() {
            break;
        }
        open_after.push(assembler.open_cases());
    }
    let at_cut = at_cut.unwrap_or_else(|| assembler.export_state());
    let finished = assembler.finish().map_err(|e| e.to_string());
    let activities = assembler.activities().names().to_vec();
    let report = assembler.report().clone();
    drop(assembler);

    let mut w = WireWriter::new();
    at_cut.encode_into(&mut w);
    let bytes = w.into_bytes();
    let mut r = WireReader::new(&bytes);
    let restored = AssemblerState::decode(&mut r).unwrap();
    r.finish().unwrap();
    let mut ignored = Delivered::default();
    let resumed = CaseAssembler::resume(config, &mut ignored, restored)
        .unwrap()
        .export_state();
    Followed {
        out,
        activities,
        open_after,
        finished,
        report,
        source_report: source.report().clone(),
        stats: source.stats(),
        at_cut,
        resumed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// `CaseAssembler` has one event path: the borrowed hand-off
    /// (`FlowmarkSource::feed`, what `pump` and `mine --follow` use)
    /// and owned records (`next_event` → `on_event`) deliver the same
    /// executions, intern the same activity table, evict and report the
    /// same, hold the same open cases after every event, and export the
    /// same state at any cut — before and after the wire format and
    /// `resume`.
    #[test]
    fn borrowed_hand_off_matches_owned_records(
        text in arb_flowmark(),
        window in 1usize..=8,
        strict in 0u8..2,
        cut in 0usize..=80,
    ) {
        let config = AssemblerConfig {
            max_open_cases: window,
            assembly: if strict == 1 { AssemblyPolicy::Strict } else { AssemblyPolicy::Lenient },
        };
        let borrowed = follow_text(&text, config, cut, |source, assembler| source.feed(assembler));
        let owned = follow_text(&text, config, cut, |source, assembler| {
            match source.next_event()? {
                Some((event, at)) => assembler.on_event(event, at).map(|()| true),
                None => Ok(false),
            }
        });
        prop_assert_eq!(&borrowed.resumed, &borrowed.at_cut);
        prop_assert_eq!(borrowed, owned);
    }
}
