//! Log generators shared by the core differential suites.

use procmine_log::{ActivityInstance, Execution, WorkflowLog};
use proptest::prelude::*;
use proptest::{collection, sample};

/// Activity-name pool shared by all generators.
pub const NAMES: [&str; 8] = ["A", "B", "C", "D", "E", "F", "G", "H"];

/// Builds a log from index sequences (instantaneous executions).
pub fn log_from_indices(seqs: &[Vec<usize>]) -> WorkflowLog {
    WorkflowLog::from_sequences(
        seqs.iter()
            .map(|seq| seq.iter().map(|&i| NAMES[i]).collect::<Vec<_>>()),
    )
    .expect("generated sequences are non-empty")
}

/// A repeat-free execution: random activity draws deduplicated to their
/// first occurrence, so arbitrary orders (and order conflicts across
/// executions) appear without ever repeating an activity.
pub fn repeat_free_exec(n: usize) -> impl Strategy<Value = Vec<usize>> {
    collection::vec(0usize..n, 1..=n * 2).prop_map(|draws| {
        let mut seen = [false; NAMES.len()];
        let mut seq = Vec::new();
        for d in draws {
            if !seen[d] {
                seen[d] = true;
                seq.push(d);
            }
        }
        seq
    })
}

/// A repeat-free log over `n` activities where every activity occurs in
/// at least one execution (so the table is exactly `0..n`).
pub fn general_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(repeat_free_exec(n), 1..10).prop_map(move |mut seqs| {
        // Guarantee full coverage of the activity universe so models
        // over the same table are compared like for like.
        seqs.push((0..n).collect());
        log_from_indices(&seqs)
    })
}

/// A log whose executions may repeat activities (Algorithm 3 input).
pub fn cyclic_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(collection::vec(0usize..n, 1..=12), 1..10).prop_map(move |mut seqs| {
        seqs.push((0..n).collect());
        log_from_indices(&seqs)
    })
}

/// An interval log: events carry real (start, duration) intervals, so
/// the overlap-counting path (§2 independence evidence) is exercised,
/// not just the strictly-ordered instantaneous form.
pub fn interval_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    collection::vec(collection::vec((0u64..40, 0u64..6), 1..=8), 1..8).prop_map(move |execs| {
        let mut log = WorkflowLog::new();
        let ids: Vec<_> = (0..n).map(|i| log.intern_activity(NAMES[i])).collect();
        for (x, events) in execs.iter().enumerate() {
            // One instance per distinct activity, at most n per
            // execution: take the first occurrence of each index.
            let mut seen = vec![false; n];
            let mut instances = Vec::new();
            for (j, &(start, dur)) in events.iter().enumerate() {
                let a = j % n;
                if !seen[a] {
                    seen[a] = true;
                    instances.push(ActivityInstance {
                        activity: ids[a],
                        start,
                        end: start + dur,
                        output: None,
                    });
                }
            }
            log.push(Execution::new(format!("case-{x}"), instances).unwrap());
        }
        log
    })
}

/// An interval log whose executions reuse two or three fixed activity
/// subsets, each run in its own order with jittered starts and random
/// durations, so executions sharing a set conflict in order and overlap.
/// At T ≤ 1 the marking pass reduces one execution per set; the
/// reference still reduces every execution.
pub fn set_reuse_log(n: usize) -> impl Strategy<Value = WorkflowLog> {
    let subset = sample::subsequence((0..n).collect::<Vec<_>>(), 1..=n).prop_shuffle();
    let exec = (0usize..3, collection::vec((0u64..8, 0u64..5), n));
    (collection::vec(subset, 2..=3), collection::vec(exec, 1..12)).prop_map(
        move |(subsets, execs)| {
            let mut log = WorkflowLog::new();
            let ids: Vec<_> = (0..n).map(|i| log.intern_activity(NAMES[i])).collect();
            for (x, (which, times)) in execs.iter().enumerate() {
                let instances = subsets[which % subsets.len()]
                    .iter()
                    .zip(times)
                    .enumerate()
                    .map(|(pos, (&a, &(jitter, dur)))| {
                        let start = 4 * pos as u64 + jitter;
                        ActivityInstance {
                            activity: ids[a],
                            start,
                            end: start + dur,
                            output: None,
                        }
                    })
                    .collect();
                log.push(Execution::new(format!("case-{x}"), instances).unwrap());
            }
            log
        },
    )
}
