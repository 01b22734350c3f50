//! Recorder for the pinned engine snapshot: prints bit-exact final
//! metrics of the engine on the fixed workloads that
//! `tests/stage_pipeline_snapshot.rs` pins — `SyntheticConfig::small`
//! seeds 3 and 42, plus two congested Table 2 designs whose leaves
//! carry binding capacity slacks.

use cpla_suite::cpla::{Cpla, CplaConfig};
use cpla_suite::ispd::SyntheticConfig;
use cpla_suite::route::{initial_assignment, route_netlist, RouterConfig};

fn main() {
    let mut rows: Vec<(String, SyntheticConfig, CplaConfig)> = Vec::new();
    for seed in [3u64, 42] {
        let config = CplaConfig {
            critical_ratio: 0.05,
            max_rounds: 8,
            threads: 1,
            ..CplaConfig::default()
        };
        rows.push((format!("seed={seed}"), SyntheticConfig::small(seed), config));
    }
    for name in ["adaptec1", "newblue1"] {
        let design = SyntheticConfig::named(name).expect("Table 2 design");
        let config = CplaConfig {
            threads: 1,
            ..CplaConfig::default()
        };
        rows.push((format!("design={name}"), design, config));
    }
    for (label, design, config) in rows {
        let (mut grid, specs) = design.generate().unwrap();
        let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
        let mut assignment = initial_assignment(&mut grid, &netlist);
        let r = Cpla::new(config)
            .run(&mut grid, &netlist, &mut assignment)
            .expect("snapshot workload is well-formed");
        let round_bits: Vec<String> = r
            .rounds
            .iter()
            .map(|s| format!("{:#018x}", s.avg_tcp.to_bits()))
            .collect();
        println!(
            "{label} avg_bits={:#018x} max_bits={:#018x} \
             avg={} max={} ov={} vias={} rounds={} solved={} reused={} \
             evals={} gate_acc={} gate_rej={} round_avg_bits=[{}] released={:?}",
            r.final_metrics.avg_tcp.to_bits(),
            r.final_metrics.max_tcp.to_bits(),
            r.final_metrics.avg_tcp,
            r.final_metrics.max_tcp,
            r.final_metrics.via_overflow,
            r.final_metrics.via_count,
            r.rounds.len(),
            r.stats.partitions_solved,
            r.stats.partitions_reused,
            r.stats.evaluations,
            r.stats.gate_accepted,
            r.stats.gate_rejected,
            round_bits.join(", "),
            r.released,
        );
    }
}
