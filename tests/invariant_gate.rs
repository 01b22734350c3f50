//! Runtime invariant-audit gate over the two pinned `SyntheticConfig::small`
//! snapshot workloads.
//!
//! With `CplaConfig::audit_invariants` on, every Gate stage and the
//! final incumbent restore re-verify the paper's constraints — 4b (one
//! layer per segment, direction-correct), 4c (edge capacity), 4d (via
//! capacity and the `V_o` overflow tally) — plus the incremental Elmore
//! caches against from-scratch recomputation. The audited run must both
//! succeed (no invariant drift anywhere in the pipeline) and land on
//! bit-identical results to the unaudited run (observation must not
//! perturb the experiment).

use cpla::{Cpla, CplaConfig};
use ispd::SyntheticConfig;
use route::{initial_assignment, route_netlist, RouterConfig};

struct Outcome {
    report: cpla::CplaReport,
    grid: grid::Grid,
    assignment: net::Assignment,
    netlist: net::Netlist,
}

fn run(seed: u64, audit_invariants: bool) -> Outcome {
    let cfg = SyntheticConfig::small(seed);
    let (mut grid, specs) = cfg.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let mut assignment = initial_assignment(&mut grid, &netlist);
    let report = Cpla::new(CplaConfig {
        critical_ratio: 0.05,
        max_rounds: 8,
        threads: 1,
        audit_invariants,
        ..CplaConfig::default()
    })
    .run(&mut grid, &netlist, &mut assignment)
    .expect("snapshot workload is well-formed");
    Outcome {
        report,
        grid,
        assignment,
        netlist,
    }
}

#[test]
fn audited_runs_match_unaudited_runs_on_all_pinned_workloads() {
    for seed in [3, 42] {
        let plain = run(seed, false);
        let audited = run(seed, true);
        let label = format!("seed={seed}");
        assert_eq!(
            plain.report.final_metrics.avg_tcp.to_bits(),
            audited.report.final_metrics.avg_tcp.to_bits(),
            "{label}: the audit gate perturbed avg_tcp"
        );
        assert_eq!(
            plain.report.final_metrics.max_tcp.to_bits(),
            audited.report.final_metrics.max_tcp.to_bits(),
            "{label}: the audit gate perturbed max_tcp"
        );
        assert_eq!(
            plain.report.final_metrics.via_count, audited.report.final_metrics.via_count,
            "{label}: the audit gate perturbed via_count"
        );
        assert_eq!(
            plain.report.rounds.len(),
            audited.report.rounds.len(),
            "{label}: the audit gate perturbed the round count"
        );
        assert_eq!(
            plain.assignment, audited.assignment,
            "{label}: the audit gate perturbed the final assignment"
        );
        // The final state must also satisfy the invariants when
        // checked directly (not just when the engine checks it).
        audit::check_solution(&audited.grid, &audited.netlist, &audited.assignment)
            .unwrap_or_else(|e| panic!("{label}: final state violates invariants: {e}"));
    }
}

#[test]
fn the_gate_rejects_a_corrupted_solution() {
    // Sanity-check that check_solution actually has teeth on a real
    // workload: sabotage one net's recorded layers after the run.
    let mut out = run(3, false);
    let layers = out.assignment.net_layers(0).to_vec();
    let seg_dir = out.netlist.net(0).tree().segment(0).dir;
    let wrong = out
        .grid
        .layers_in_direction(seg_dir.flipped())
        .next()
        .expect("grids have layers in both directions");
    let mut bad = layers.clone();
    bad[0] = wrong;
    out.assignment.set_net_layers(0, bad);
    assert!(
        audit::check_solution(&out.grid, &out.netlist, &out.assignment).is_err(),
        "a direction-violating layer must fail the 4b check"
    );
}
