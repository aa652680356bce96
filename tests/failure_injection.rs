//! Failure injection: malformed inputs, corrupted event streams, and
//! boundary conditions must produce typed errors or diagnostics — never
//! panics or silently wrong models.

use procmine::log::codec::{flowmark, jsonl, seqs};
use procmine::log::validate::{assemble_executions_with, AssemblyPolicy, Diagnostic};
use procmine::log::{ActivityTable, EventRecord, LogError, WorkflowLog};
use procmine::mine::{mine_auto, mine_general_dag, mine_special_dag, MineError, MinerOptions};

#[test]
fn truncated_flowmark_lines_are_rejected_with_line_numbers() {
    // Newline-terminated, so each bad line is garbage rather than a
    // truncated tail (which reads as `UnexpectedEof`).
    let cases = [
        ("p1,A,START\n", 1usize),
        ("p1,A,START,0\np1,A,END,1\np2,B,WAT,0\n", 3),
        ("p1,A,START,0\np1,A,END,notatime\n", 2),
        ("p1,A,START,0\np1,A,END,1,xx;2\n", 2), // bad output vector
    ];
    for (text, expected) in cases {
        match flowmark::read_log(text.as_bytes()) {
            Err(LogError::Parse { line, .. }) => assert_eq!(line, expected, "{text:?}"),
            other => panic!("expected parse error for {text:?}, got {other:?}"),
        }
    }
}

#[test]
fn clock_skew_is_reordered_not_fatal() {
    // END arrives before START in file order but timestamps are sane.
    let text = "p1,A,END,5\np1,A,START,1\n";
    let log = flowmark::read_log(text.as_bytes()).unwrap();
    assert_eq!(log.executions()[0].instances()[0].start, 1);
    assert_eq!(log.executions()[0].instances()[0].end, 5);
}

#[test]
fn end_before_start_in_time_is_unmatched() {
    // END at t=0, START at t=1: after time-sorting the END has no open
    // START, so strict assembly fails and lenient drops it.
    let records = vec![
        EventRecord::end("p1", "A", 0, None),
        EventRecord::start("p1", "A", 1),
    ];
    let mut table = ActivityTable::new();
    let err = WorkflowLog::from_events(&records).unwrap_err();
    assert!(matches!(err, LogError::UnmatchedEnd { .. }));

    let report = assemble_executions_with(&records, &mut table, AssemblyPolicy::Lenient).unwrap();
    assert_eq!(
        report.diagnostics.len(),
        2,
        "dangling END and dangling START"
    );
    assert!(report
        .diagnostics
        .iter()
        .any(|d| matches!(d, Diagnostic::DanglingEnd { .. })));
    assert!(report.executions.is_empty(), "nothing usable remains");
}

#[test]
fn duplicate_end_events_are_diagnosed() {
    let records = vec![
        EventRecord::start("p1", "A", 0),
        EventRecord::end("p1", "A", 1, None),
        EventRecord::end("p1", "A", 2, None), // duplicate END
        EventRecord::start("p1", "B", 3),
        EventRecord::end("p1", "B", 4, None),
    ];
    let mut table = ActivityTable::new();
    let report = assemble_executions_with(&records, &mut table, AssemblyPolicy::Lenient).unwrap();
    assert_eq!(report.executions.len(), 1);
    assert_eq!(report.executions[0].len(), 2);
    assert_eq!(report.diagnostics.len(), 1);
}

#[test]
fn empty_and_whitespace_logs() {
    assert_eq!(flowmark::read_log("".as_bytes()).unwrap().len(), 0);
    assert_eq!(
        seqs::read_log("\n\n# nothing\n".as_bytes()).unwrap().len(),
        0
    );
    assert_eq!(jsonl::read_log("\n\n".as_bytes()).unwrap().len(), 0);

    // Mining an empty log is a typed error for every algorithm.
    let empty = WorkflowLog::new();
    assert!(matches!(
        mine_auto(&empty, &MinerOptions::default()),
        Err(MineError::EmptyLog)
    ));
    assert!(matches!(
        mine_special_dag(&empty, &MinerOptions::default()),
        Err(MineError::EmptyLog)
    ));
}

#[test]
fn wrong_algorithm_for_log_shape_is_rejected() {
    let cyclic = WorkflowLog::from_strings(["ABAB"]).unwrap();
    assert!(matches!(
        mine_general_dag(&cyclic, &MinerOptions::default()),
        Err(MineError::RepeatsRequireCyclicMiner { .. })
    ));
    let partial = WorkflowLog::from_strings(["ABC", "AC"]).unwrap();
    assert!(matches!(
        mine_special_dag(&partial, &MinerOptions::default()),
        Err(MineError::SpecialPreconditionViolated { .. })
    ));
}

#[test]
fn single_activity_and_single_execution_edge_cases() {
    // One activity, one execution: a 1-node, 0-edge model.
    let log = WorkflowLog::from_strings(["A"]).unwrap();
    let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    assert_eq!(model.activity_count(), 1);
    assert_eq!(model.edge_count(), 0);

    // Two activities, always together.
    let log = WorkflowLog::from_strings(["AB"]).unwrap();
    let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    assert_eq!(model.edges_named(), vec![("A", "B")]);
}

#[test]
fn threshold_larger_than_log_yields_edgeless_model() {
    let log = WorkflowLog::from_strings(["ABC", "ABC"]).unwrap();
    let (model, _) = mine_auto(&log, &MinerOptions::with_threshold(1000)).unwrap();
    assert_eq!(model.edge_count(), 0, "no pair reaches the threshold");
}

#[test]
fn overlapping_intervals_never_create_dependencies() {
    // A and B overlap in every execution; C strictly follows both.
    let records = vec![
        EventRecord::start("p", "A", 0),
        EventRecord::start("p", "B", 1),
        EventRecord::end("p", "A", 3, None),
        EventRecord::end("p", "B", 4, None),
        EventRecord::start("p", "C", 5),
        EventRecord::end("p", "C", 6, None),
    ];
    let log = WorkflowLog::from_events(&records).unwrap();
    let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    assert!(!model.has_edge("A", "B") && !model.has_edge("B", "A"));
    assert!(model.has_edge("A", "C") && model.has_edge("B", "C"));
}

#[test]
fn unicode_activity_names_survive_the_pipeline() {
    let log = WorkflowLog::from_sequences([
        ["Start", "Prüfen", "支払い", "End"],
        ["Start", "支払い", "Prüfen", "End"],
    ])
    .unwrap();
    let (model, _) = mine_auto(&log, &MinerOptions::default()).unwrap();
    assert!(model.has_edge("Start", "Prüfen"));
    assert!(!model.has_edge("Prüfen", "支払い"));

    let mut buf = Vec::new();
    flowmark::write_log(&log, &mut buf).unwrap();
    let back = flowmark::read_log(buf.as_slice()).unwrap();
    assert_eq!(back.display_sequences(), log.display_sequences());
}
