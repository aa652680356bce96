//! Resource guards: adversarially large logs must produce
//! `MineError::LimitExceeded` — promptly for deadlines — instead of
//! hanging or exhausting memory.

use procmine::log::WorkflowLog;
use procmine::mine::{
    mine_auto, mine_cyclic, mine_general_dag, mine_general_dag_in, mine_special_dag, LimitKind,
    Limits, MineError, MineSession, MinerOptions, OnlineMiner, SnapshotPolicy,
};
use std::time::{Duration, Instant};

/// A log big enough that mining it outlives any sub-second deadline:
/// `execs` identical executions over `n` distinct activities.
fn adversarial_log(n: usize, execs: usize) -> WorkflowLog {
    let names: Vec<String> = (0..n).map(|i| format!("a{i}")).collect();
    let mut log = WorkflowLog::new();
    for _ in 0..execs {
        log.push_sequence(&names).unwrap();
    }
    log
}

/// Like [`adversarial_log`], but execution `j` skips activity `i` when
/// bit `i` of `j` is set, so no two executions share an activity set and
/// the marking pass must reduce every one of them.
fn distinct_set_log(n: usize, execs: usize) -> WorkflowLog {
    let mut log = WorkflowLog::new();
    for j in 0..execs {
        let names: Vec<String> = (0..n)
            .filter(|&i| i >= 64 || (j >> i) & 1 == 0)
            .map(|i| format!("a{i}"))
            .collect();
        log.push_sequence(&names).unwrap();
    }
    log
}

fn deadline_options(deadline: Duration) -> MinerOptions {
    MinerOptions::default().with_limits(Limits {
        deadline: Some(deadline),
        ..Limits::default()
    })
}

#[test]
fn deadline_fires_within_twice_the_budget() {
    let log = distinct_set_log(150, 10_000);
    let deadline = Duration::from_millis(250);
    let started = Instant::now();
    let result = mine_general_dag(&log, &deadline_options(deadline));
    let elapsed = started.elapsed();
    match result {
        Err(MineError::LimitExceeded {
            kind: LimitKind::Deadline,
            ..
        }) => {}
        other => panic!("expected a deadline error, got {other:?} after {elapsed:?}"),
    }
    assert!(
        elapsed < deadline * 2,
        "deadline overshot: {elapsed:?} vs budget {deadline:?}"
    );
}

#[test]
fn deadline_bounds_reduction_dominated_special_mining() {
    // Two identical executions over many activities: pair counting is
    // O(execs·n²) and cheap, but the followings graph is a transitive
    // tournament whose O(n³/64) matrix reduction dominates. Before the
    // reduction ran under the deadline's budget, this workload blew
    // straight through `--deadline-ms`; now the error must surface
    // promptly whichever phase the clock runs out in.
    let log = adversarial_log(3_500, 2);
    let deadline = Duration::from_millis(200);
    let started = Instant::now();
    let result = mine_special_dag(&log, &deadline_options(deadline));
    let elapsed = started.elapsed();
    match result {
        Err(MineError::LimitExceeded {
            kind: LimitKind::Deadline,
            ..
        }) => {}
        other => panic!("expected a deadline error, got {other:?} after {elapsed:?}"),
    }
    assert!(
        elapsed < Duration::from_millis(1_500),
        "deadline overshot: {elapsed:?} vs budget {deadline:?}"
    );
}

#[test]
fn deadline_fires_in_parallel_miner() {
    let log = distinct_set_log(150, 10_000);
    let result = mine_general_dag_in(
        &mut MineSession::new().with_threads(4),
        &log,
        &deadline_options(Duration::from_millis(100)),
    );
    assert!(matches!(
        result,
        Err(MineError::LimitExceeded {
            kind: LimitKind::Deadline,
            ..
        })
    ));
}

#[test]
fn deadline_fires_in_cyclic_miner() {
    // A repeated activity routes the log to Algorithm 3. Execution `j`
    // skips the second occurrence of `a{i}` when bit `i` of `j` is set,
    // so every execution has its own instance set.
    let mut log = WorkflowLog::new();
    for j in 0..20_000usize {
        let names: Vec<String> = (0..60)
            .filter(|&i| i < 30 || (j >> (i - 30)) & 1 == 0)
            .map(|i| format!("a{}", i % 30))
            .collect();
        log.push_sequence(&names).unwrap();
    }
    let result = mine_cyclic(&log, &deadline_options(Duration::from_millis(100)));
    assert!(matches!(
        result,
        Err(MineError::LimitExceeded {
            kind: LimitKind::Deadline,
            ..
        })
    ));
}

#[test]
fn entry_size_limits_reject_before_mining() {
    let log = WorkflowLog::from_strings(["ABC", "AC"]).unwrap();

    let too_many_activities = MinerOptions::default().with_limits(Limits {
        max_activities: Some(2),
        ..Limits::default()
    });
    assert!(matches!(
        mine_auto(&log, &too_many_activities),
        Err(MineError::LimitExceeded {
            kind: LimitKind::Activities,
            ..
        })
    ));

    let too_many_events = MinerOptions::default().with_limits(Limits {
        max_events: Some(4),
        ..Limits::default()
    });
    assert!(matches!(
        mine_auto(&log, &too_many_events),
        Err(MineError::LimitExceeded {
            kind: LimitKind::Events,
            ..
        })
    ));

    let too_long = MinerOptions::default().with_limits(Limits {
        max_execution_len: Some(2),
        ..Limits::default()
    });
    assert!(matches!(
        mine_auto(&log, &too_long),
        Err(MineError::LimitExceeded {
            kind: LimitKind::ExecutionLength,
            ..
        })
    ));
}

#[test]
fn generous_limits_do_not_change_the_model() {
    let log = WorkflowLog::from_strings(["ABCF", "ACDF", "ADEF", "AECF"]).unwrap();
    let unguarded = mine_general_dag(&log, &MinerOptions::default()).unwrap();
    let guarded = mine_general_dag(
        &log,
        &MinerOptions::default().with_limits(Limits {
            max_events: Some(1_000),
            max_activities: Some(100),
            max_execution_len: Some(100),
            deadline: Some(Duration::from_secs(60)),
        }),
    )
    .unwrap();
    assert_eq!(unguarded.edges_named(), guarded.edges_named());
}

#[test]
fn incremental_miner_enforces_limits_at_absorb_time() {
    let mut inc = OnlineMiner::new(
        MinerOptions::default().with_limits(Limits {
            max_events: Some(5),
            max_activities: Some(3),
            ..Limits::default()
        }),
        SnapshotPolicy::on_demand(),
    );
    inc.absorb_sequence(&["A", "B", "C"]).unwrap();

    // A fourth distinct activity would exceed max_activities — and must
    // not pollute the table on rejection.
    assert!(matches!(
        inc.absorb_sequence(&["A", "D"]),
        Err(MineError::LimitExceeded {
            kind: LimitKind::Activities,
            ..
        })
    ));
    assert_eq!(inc.activities().len(), 3, "rejected absorb left no trace");

    // Three more events would blow the 5-event budget.
    assert!(matches!(
        inc.absorb_sequence(&["A", "B", "C"]),
        Err(MineError::LimitExceeded {
            kind: LimitKind::Events,
            ..
        })
    ));
    // A two-event execution still fits, and the miner remains usable.
    inc.absorb_sequence(&["A", "B"]).unwrap();
    assert!(inc.snapshot().is_ok());
}
