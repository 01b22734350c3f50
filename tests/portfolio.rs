//! Portfolio integration tests through the umbrella crate: the racing
//! driver over all four `LayerAssigner` backends on real generated
//! designs, checked against the solo runs it is defined in terms of.
//!
//! Everything here goes through `cpla_suite::...` re-export paths on
//! purpose — the umbrella is the one-dependency surface downstream
//! integration tests are told to use, so these tests break if a crate
//! falls out of the re-export list.

use cpla_suite::flow::{Cancel, Greedy, GreedyConfig, LayerAssigner};
use cpla_suite::ispd::SyntheticConfig;
use cpla_suite::lagrange::{Lagrange, LagrangeConfig};
use cpla_suite::portfolio::{priced_score, Baseline, Race};
use cpla_suite::route::{initial_assignment, route_netlist, RouterConfig};
use cpla_suite::{cpla, net, tila};

const RATIO: f64 = 0.05;

fn pipeline(seed: u64) -> (cpla_suite::grid::Grid, net::Netlist, net::Assignment) {
    let config = SyntheticConfig::small(seed);
    let (mut grid, specs) = config.generate().expect("valid config");
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let assignment = initial_assignment(&mut grid, &netlist);
    (grid, netlist, assignment)
}

fn backends(cancel: &Cancel) -> Vec<Box<dyn LayerAssigner + Send + Sync>> {
    vec![
        Box::new(cpla::Cpla::new(cpla::CplaConfig {
            critical_ratio: RATIO,
            ..cpla::CplaConfig::default()
        })),
        Box::new(tila::Tila::new(tila::TilaConfig {
            critical_ratio: RATIO,
            ..tila::TilaConfig::default()
        })),
        Box::new(Lagrange::cancellable(
            LagrangeConfig {
                critical_ratio: RATIO,
                ..LagrangeConfig::default()
            },
            cancel.clone(),
        )),
        Box::new(Greedy::cancellable(
            GreedyConfig {
                critical_ratio: RATIO,
            },
            cancel.clone(),
        )),
    ]
}

fn race() -> Race {
    let cancel = Cancel::new();
    let lanes = backends(&cancel);
    Race::with_cancel(lanes, cancel)
}

#[test]
fn race_lands_the_best_solo_backend_on_generated_designs() {
    for seed in [3u64, 17, 29] {
        let (grid, netlist, assignment) = pipeline(seed);
        let input = Baseline::measure(&grid, &netlist, &assignment);

        // Solo runs, in the race's backend-precedence order; argmin
        // with an earliest-index tie-break is the race's contract.
        let cancel = Cancel::new();
        let mut best: Option<(usize, f64, cpla_suite::grid::Grid, net::Assignment)> = None;
        for (i, backend) in backends(&cancel).iter().enumerate() {
            let mut g = grid.clone();
            let mut a = assignment.clone();
            backend
                .assign(&mut g, &netlist, &mut a)
                .expect("solo backend on a generated design");
            let score = priced_score(&g, &netlist, &a, &input);
            if best
                .as_ref()
                .is_none_or(|(_, s, _, _)| score.total_cmp(s).is_lt())
            {
                best = Some((i, score, g, a));
            }
        }
        let (best_idx, best_score, best_grid, best_assignment) = best.unwrap();

        let mut g = grid.clone();
        let mut a = assignment.clone();
        let outcome = race().run(&mut g, &netlist, &mut a).expect("clean race");
        assert_eq!(
            outcome.winner, best_idx,
            "seed {seed}: race picked lane {} over the best solo lane",
            outcome.winner
        );
        assert_eq!(
            outcome.lanes[outcome.winner].score.to_bits(),
            best_score.to_bits(),
            "seed {seed}: winning score is not the solo score"
        );
        assert_eq!(g, best_grid, "seed {seed}: raced grid != best solo grid");
        assert_eq!(
            a, best_assignment,
            "seed {seed}: raced assignment != best solo assignment"
        );
        a.validate(&netlist, &g).expect("raced result is valid");
    }
}

#[test]
fn race_is_deterministic_across_reruns() {
    let (grid, netlist, assignment) = pipeline(23);
    let run = || {
        let mut g = grid.clone();
        let mut a = assignment.clone();
        let outcome = race().run(&mut g, &netlist, &mut a).expect("clean race");
        (outcome.winner, g, a)
    };
    let first = run();
    for _ in 0..2 {
        let again = run();
        assert_eq!(again.0, first.0, "winner drifted between reruns");
        assert_eq!(again.1, first.1, "grid drifted between reruns");
        assert_eq!(again.2, first.2, "assignment drifted between reruns");
    }
}

#[test]
fn every_lane_reports_through_the_assigner_seam() {
    let (mut grid, netlist, mut assignment) = pipeline(41);
    let outcome = race()
        .run(&mut grid, &netlist, &mut assignment)
        .expect("clean race");
    assert_eq!(
        outcome.lanes.iter().map(|l| l.name).collect::<Vec<_>>(),
        ["cpla", "tila", "lagrange", "greedy"],
        "lane order must be the assembly (precedence) order"
    );
    for lane in &outcome.lanes {
        assert_eq!(lane.report.assigner, lane.name);
        assert!(
            lane.score.is_finite(),
            "{}: priced score must be finite",
            lane.name
        );
        assert!(
            !lane.log.is_empty(),
            "{}: observer log must carry the lane's spans",
            lane.name
        );
    }
    assert!(
        outcome.baseline.avg_tcp > 0.0,
        "baseline comes from the routed input"
    );
}
