//! Ablation: parallel vs. serial mining (Algorithm 2).
//!
//! The per-execution passes (ordered-pair counting and induced-subgraph
//! reduction) dominate at `m ≫ n`; this binary measures wall-clock time
//! of the serial miner against the scoped-thread parallel miner at
//! 1/2/4/8 threads on the Table 1 workloads, verifying the outputs
//! match. Run with `--release`.

use procmine_bench::{synthetic_workload, TextTable};
use procmine_core::{
    mine_general_dag, mine_general_dag_in, MineSession, MinerMetrics, MinerOptions, Stage,
};
use std::time::Instant;

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!("Parallel mining ablation (Algorithm 2) — {cores} hardware thread(s) available\n");
    if cores == 1 {
        println!("NOTE: single-core host; expect ~1.0x — this run verifies overhead and");
        println!("output equality rather than speedup.\n");
    }
    let mut table = TextTable::new([
        "n",
        "m",
        "serial(s)",
        "2 thr",
        "4 thr",
        "8 thr",
        "cpu/wall@8",
        "same output",
    ]);

    for &(n, edges) in &[(50usize, 1058usize), (100, 4569)] {
        for &m in &[50_000usize, 200_000] {
            let (_, log) = synthetic_workload(n, edges, m, 4000 + n as u64);

            let started = Instant::now();
            let serial = mine_general_dag(&log, &MinerOptions::default()).expect("mine");
            let serial_t = started.elapsed().as_secs_f64();

            let mut row = vec![n.to_string(), m.to_string(), format!("{serial_t:.3}")];
            let mut all_match = true;
            for threads in [2usize, 4, 8] {
                let started = Instant::now();
                let parallel = mine_general_dag_in(
                    &mut MineSession::new().with_threads(threads),
                    &log,
                    &MinerOptions::default(),
                )
                .expect("mine");
                let t = started.elapsed().as_secs_f64();
                row.push(format!("{t:.3} ({:.1}x)", serial_t / t.max(1e-9)));
                let mut a = serial.edges_named();
                let mut b = parallel.edges_named();
                a.sort();
                b.sort();
                all_match &= a == b;
            }

            // Parallel efficiency at 8 threads: CPU-ns summed across
            // workers over wall-ns at the two join barriers. Near the
            // thread count means the workers stayed busy.
            let mut metrics = MinerMetrics::new();
            let mut session = MineSession::new().with_threads(8).with_sink(&mut metrics);
            mine_general_dag_in(&mut session, &log, &MinerOptions::default()).expect("mine");
            drop(session);
            let cpu = metrics.stage_nanos(Stage::CountPairs) + metrics.stage_nanos(Stage::Reduce);
            let wall = metrics.wall_nanos(Stage::CountPairs) + metrics.wall_nanos(Stage::Reduce);
            row.push(format!("{:.2}x", cpu as f64 / wall.max(1) as f64));
            row.push(all_match.to_string());
            table.row(row);
        }
    }
    println!("{}", table.render());
    println!("(speedups depend on core count; outputs are bit-identical by construction)");
}
