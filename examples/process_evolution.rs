//! Process evolution with the online miner.
//!
//! The paper motivates mining as a way "to allow the evolution of the
//! current process model into future versions of the model by
//! incorporating feedback from successful process executions". This
//! example streams executions into an [`OnlineMiner`] in three eras
//! of a purchasing process and snapshots the model after each:
//!
//! 1. a strict sequential approval chain;
//! 2. a reorganization makes two checks parallel;
//! 3. a new express path bypasses approval for small orders.
//!
//! ```sh
//! cargo run --example process_evolution
//! ```

use procmine::mine::metrics::compare_dependencies;
use procmine::mine::{MinerOptions, OnlineMiner, SnapshotPolicy};

fn show(title: &str, miner: &mut OnlineMiner) -> procmine::mine::MinedModel {
    let model = miner.snapshot().expect("model available");
    println!("{title} ({} executions absorbed):", miner.executions());
    for (u, v) in model.edges_named() {
        println!("  {u} -> {v}");
    }
    println!();
    model
}

fn main() {
    let mut miner = OnlineMiner::new(MinerOptions::default(), SnapshotPolicy::on_demand());

    // Era 1: Request → LegalCheck → BudgetCheck → Approve → Order.
    for _ in 0..20 {
        miner
            .absorb_sequence(&["Request", "LegalCheck", "BudgetCheck", "Approve", "Order"])
            .unwrap();
    }
    let era1 = show("Era 1 — sequential chain", &mut miner);
    assert!(era1.has_edge("LegalCheck", "BudgetCheck"));

    // Era 2: the two checks now run in parallel — both interleavings
    // appear in the feed.
    for i in 0..20 {
        let seq: &[&str] = if i % 2 == 0 {
            &["Request", "LegalCheck", "BudgetCheck", "Approve", "Order"]
        } else {
            &["Request", "BudgetCheck", "LegalCheck", "Approve", "Order"]
        };
        miner.absorb_sequence(seq).unwrap();
    }
    let era2 = show("Era 2 — checks run in parallel", &mut miner);
    assert!(!era2.has_edge("LegalCheck", "BudgetCheck"));
    assert!(!era2.has_edge("BudgetCheck", "LegalCheck"));

    // Era 3: small orders skip the checks entirely via an express path.
    for _ in 0..10 {
        miner
            .absorb_sequence(&["Request", "ExpressOk", "Order"])
            .unwrap();
    }
    let era3 = show("Era 3 — express path added", &mut miner);
    assert!(era3.has_edge("Request", "ExpressOk"));
    assert!(era3.has_edge("ExpressOk", "Order"));

    // Dependency-level diff between eras — the view a process owner
    // would review before updating the official model.
    let diff = compare_dependencies(&era1, &era2).expect("same activity set");
    println!("dependency changes era 1 -> era 2:");
    for (u, v) in &diff.added {
        println!("  + {u} must now precede {v}");
    }
    for (u, v) in &diff.removed {
        println!("  - {u} no longer precedes {v}");
    }

    // Era 3 introduced a new activity, so a dependency diff is not
    // defined over the old universe — the comparison reports exactly
    // which activities are new.
    match compare_dependencies(&era2, &era3) {
        Err(e) => println!("\nera 2 -> era 3: {e}"),
        Ok(_) => unreachable!("ExpressOk is new in era 3"),
    }
}
