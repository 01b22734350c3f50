//! Interleaving stress test for the work-stealing Solve stage and the
//! sharded Partition stage.
//!
//! The parallel solver claims partitions through a Relaxed atomic
//! cursor (see the `// sync:` note in `flow.rs`); determinism rests on
//! every claimed result being written back to its own pre-allocated
//! slot, not on claim order. The sharded partitioner splits the
//! top-level block grid across one shard per thread, each filling a
//! private ledger, and merges the ledgers through the serial-merge
//! seam. Cranking the thread count from 1 to 8 across several fixed
//! seeds explores many interleavings (the OS scheduler varies them
//! between counts and runs) and asserts every one of them lands on the
//! serial answer, bit for bit.

use cpla::{Cpla, CplaConfig};
use route::{initial_assignment, route_netlist, RouterConfig};

fn run(seed: u64, threads: usize) -> (net::Assignment, u64) {
    let cfg = ispd::SyntheticConfig::small(seed);
    let (mut grid, specs) = cfg.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    let report = Cpla::new(CplaConfig {
        critical_ratio: 0.05,
        max_rounds: 2,
        threads,
        ..CplaConfig::default()
    })
    .run(&mut grid, &netlist, &mut assignment)
    .expect("stress workload is well-formed");
    (assignment, report.final_metrics.avg_tcp.to_bits())
}

#[test]
fn every_thread_count_matches_the_serial_result() {
    // The partitioner runs one shard per thread, so this also
    // exercises shards 1..=8 alongside the solver interleavings.
    for seed in [3, 6, 42] {
        let (serial_assignment, serial_bits) = run(seed, 1);
        for threads in 2..=8 {
            let (assignment, bits) = run(seed, threads);
            assert_eq!(
                assignment, serial_assignment,
                "seed {seed}: threads={threads} diverged from serial"
            );
            assert_eq!(
                bits, serial_bits,
                "seed {seed}: threads={threads} perturbed avg_tcp"
            );
        }
    }
}
