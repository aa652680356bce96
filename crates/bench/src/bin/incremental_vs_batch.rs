//! Ablation: incremental vs. batch mining for the process-evolution
//! use case.
//!
//! A monitoring deployment re-mines after every batch of fresh
//! executions. The batch miner recounts all `m` executions each time
//! (`O(B·m)` total counting over `B` batches); the online miner
//! counts each execution once and re-runs only the finishing steps.
//! This binary streams the same workload through both and compares
//! total time and outputs. Run with `--release`.

use procmine_bench::{synthetic_workload, TextTable};
use procmine_core::{mine_general_dag, MinerOptions, OnlineMiner, SnapshotPolicy};
use procmine_log::WorkflowLog;
use std::time::Instant;

fn main() {
    println!("Incremental vs. batch re-mining (model refreshed after every batch)\n");
    let mut table = TextTable::new([
        "n",
        "batches x size",
        "batch total(s)",
        "incremental(s)",
        "speedup",
        "same output",
    ]);

    for &(n, edges, batches, batch_size) in &[
        (25usize, 224usize, 50usize, 100usize),
        (50, 1058, 20, 100),
        (25, 224, 100, 20),
    ] {
        let (_, full_log) = synthetic_workload(n, edges, batches * batch_size, 6000 + n as u64);
        let execs = full_log.executions();

        // Batch: after each batch, re-mine everything seen so far.
        let started = Instant::now();
        let mut batch_model = None;
        for b in 1..=batches {
            let mut seen = WorkflowLog::with_activities(full_log.activities().clone());
            for e in &execs[..b * batch_size] {
                seen.push(e.clone());
            }
            batch_model = Some(mine_general_dag(&seen, &MinerOptions::default()).expect("mine"));
        }
        let batch_t = started.elapsed().as_secs_f64();

        // Incremental: absorb each batch, refresh the model.
        let started = Instant::now();
        let mut inc = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand());
        let mut inc_model = None;
        for b in 0..batches {
            for e in &execs[b * batch_size..(b + 1) * batch_size] {
                inc.absorb(e, full_log.activities()).expect("absorb");
            }
            inc_model = Some(inc.snapshot().expect("snapshot"));
        }
        let inc_t = started.elapsed().as_secs_f64();

        let batch_model = batch_model.expect("ran");
        let inc_model = inc_model.expect("ran");
        let mut a = batch_model.edges_named();
        let mut b = inc_model.edges_named();
        a.sort();
        b.sort();
        table.row([
            n.to_string(),
            format!("{batches} x {batch_size}"),
            format!("{batch_t:.3}"),
            format!("{inc_t:.3}"),
            format!("{:.1}x", batch_t / inc_t.max(1e-9)),
            (a == b).to_string(),
        ]);
    }
    println!("{}", table.render());
    println!("(the incremental miner amortizes step-2 counting; the finishing steps");
    println!("still scan retained executions, so the speedup is bounded by their share)");
}
