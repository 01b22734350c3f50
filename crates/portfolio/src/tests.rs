use super::*;
use cpla::{Cpla, CplaConfig};
use flow::{Greedy, GreedyConfig};
use grid::{Cell, Direction, GridBuilder};
use lagrange::{Lagrange, LagrangeConfig};
use net::{NetSpec, Pin};
use obs::Event;
use prng::Rng;
use route::{initial_assignment, route_netlist, RouterConfig};
use tila::{Tila, TilaConfig};

fn sweep_cases() -> usize {
    if cfg!(feature = "proptest") {
        12
    } else {
        4
    }
}

const RATIO: f64 = 0.25;

fn fixture(seed: u64) -> (Grid, Netlist, Assignment) {
    let mut rng = Rng::seed_from_u64(seed);
    let w = rng.range_u16(12, 24);
    let h = rng.range_u16(12, 24);
    let mut grid = GridBuilder::new(w, h)
        .alternating_layers(rng.range_usize(4, 7), Direction::Horizontal)
        .uniform_capacity(rng.range_u32(2, 5))
        .build()
        .unwrap();
    let nets = rng.range_usize(5, 10);
    let mut specs = Vec::new();
    for i in 0..nets {
        let sx = rng.range_u16(0, w - 1);
        let sy = rng.range_u16(0, h - 1);
        let tx = rng.range_u16(0, w - 1);
        let ty = rng.range_u16(0, h - 1);
        let sink = if (tx, ty) == (sx, sy) {
            Cell::new((sx + 1) % w, sy)
        } else {
            Cell::new(tx, ty)
        };
        specs.push(NetSpec::new(
            format!("n{i}"),
            vec![
                Pin::source(Cell::new(sx, sy), 0.0),
                Pin::sink(sink, rng.range_f64(0.5, 3.0)),
            ],
        ));
    }
    let netlist = route_netlist(&grid, &specs, &RouterConfig::default());
    let assignment = initial_assignment(&mut grid, &netlist);
    (grid, netlist, assignment)
}

fn cpla_box() -> Box<dyn LayerAssigner + Send + Sync> {
    Box::new(Cpla::new(CplaConfig {
        critical_ratio: RATIO,
        threads: 1,
        ..CplaConfig::default()
    }))
}

fn tila_box() -> Box<dyn LayerAssigner + Send + Sync> {
    Box::new(Tila::new(TilaConfig {
        critical_ratio: RATIO,
        ..TilaConfig::default()
    }))
}

fn lagrange_box(cancel: Cancel) -> Box<dyn LayerAssigner + Send + Sync> {
    Box::new(Lagrange::cancellable(
        LagrangeConfig {
            critical_ratio: RATIO,
            ..LagrangeConfig::default()
        },
        cancel,
    ))
}

fn greedy_box(cancel: Cancel) -> Box<dyn LayerAssigner + Send + Sync> {
    Box::new(Greedy::cancellable(
        GreedyConfig {
            critical_ratio: RATIO,
        },
        cancel,
    ))
}

fn full_race() -> Race {
    let cancel = Cancel::new();
    Race::with_cancel(
        vec![
            cpla_box(),
            tila_box(),
            lagrange_box(cancel.clone()),
            greedy_box(cancel.clone()),
        ],
        cancel,
    )
}

/// A lane that always fails with an input error (for precedence tests).
struct Failing;

impl LayerAssigner for Failing {
    fn name(&self) -> &'static str {
        "failing"
    }

    fn config_description(&self) -> String {
        "failing: always errors".to_string()
    }

    fn assign_observed(
        &self,
        _grid: &mut Grid,
        _netlist: &Netlist,
        _assignment: &mut Assignment,
        _observers: &mut [&mut dyn StageObserver],
    ) -> Result<FlowReport, FlowError> {
        Err(FlowError::Input(flow::InputError::ShapeMismatch {
            detail: "poisoned lane".to_string(),
        }))
    }
}

/// The event payload minus wall-clock times, for cross-run comparison.
fn event_shape(e: &Event) -> (u8, usize, &'static str, usize) {
    match *e {
        Event::StageStart { round, stage } => (0, round, stage.name(), 0),
        Event::Leaf(l) => (1, l.round, l.stage.name(), l.index),
        Event::StageEnd { round, stage, .. } => (2, round, stage.name(), 0),
        Event::RoundEnd(s) => (3, s.round, "", s.improved as usize),
    }
}

#[test]
fn race_lands_the_best_solo_result_bitwise() {
    let mut picker = Rng::seed_from_u64(0xace);
    for _ in 0..sweep_cases() {
        let seed = picker.range_u64(0, 9_999);

        // Solo runs, one per backend, in precedence order.
        let solos: Vec<(Grid, Assignment, f64)> = (0..4)
            .map(|which| {
                let (mut g, nl, mut a) = fixture(seed);
                let baseline = Baseline::measure(&g, &nl, &a);
                let backend: Box<dyn LayerAssigner + Send + Sync> = match which {
                    0 => cpla_box(),
                    1 => tila_box(),
                    2 => lagrange_box(Cancel::new()),
                    _ => greedy_box(Cancel::new()),
                };
                backend.assign(&mut g, &nl, &mut a).unwrap();
                let score = priced_score(&g, &nl, &a, &baseline);
                (g, a, score)
            })
            .collect();
        // Same tie-break the race uses: earliest of equal scores.
        let mut best = 0;
        for (i, solo) in solos.iter().enumerate().skip(1) {
            if solo.2.total_cmp(&solos[best].2) == std::cmp::Ordering::Less {
                best = i;
            }
        }

        let (mut g, nl, mut a) = fixture(seed);
        let outcome = full_race().run(&mut g, &nl, &mut a).unwrap();
        assert_eq!(outcome.winner, best, "seed {seed}");
        assert_eq!(g, solos[best].0, "seed {seed}: race grid != best solo");
        assert_eq!(
            a, solos[best].1,
            "seed {seed}: race assignment != best solo"
        );
        for (lane, solo) in outcome.lanes.iter().zip(&solos) {
            assert_eq!(lane.score, solo.2, "seed {seed}: lane {}", lane.name);
        }
        a.validate(&nl, &g).unwrap();
    }
}

#[test]
fn race_is_deterministic_across_reruns() {
    let (mut g1, nl1, mut a1) = fixture(7);
    let (mut g2, nl2, mut a2) = fixture(7);
    let o1 = full_race().run(&mut g1, &nl1, &mut a1).unwrap();
    let o2 = full_race().run(&mut g2, &nl2, &mut a2).unwrap();
    assert_eq!(o1.winner, o2.winner);
    assert_eq!(a1, a2);
    assert_eq!(g1, g2);
    for (l1, l2) in o1.lanes.iter().zip(&o2.lanes) {
        assert_eq!(l1.score, l2.score);
        assert_eq!(l1.report, l2.report);
        let s1: Vec<_> = l1.log.events().iter().map(event_shape).collect();
        let s2: Vec<_> = l2.log.events().iter().map(event_shape).collect();
        assert_eq!(s1, s2, "lane {}", l1.name);
    }
}

#[test]
fn poisoned_lane_propagates_its_error_after_the_join() {
    let (mut g, nl, mut a) = fixture(3);
    let race = Race::new(vec![
        cpla_box(),
        Box::new(Tila::new(TilaConfig {
            critical_ratio: 7.0, // poison: invalid ratio
            ..TilaConfig::default()
        })),
        lagrange_box(Cancel::new()),
    ]);
    let err = race.run(&mut g, &nl, &mut a).unwrap_err();
    assert!(matches!(err, FlowError::Config(_)), "{err}");
}

#[test]
fn error_precedence_is_backend_order_not_finish_order() {
    // Two poisoned lanes with distinct error classes; whichever
    // finishes first, the error of the EARLIER backend must surface.
    let (mut g, nl, mut a) = fixture(3);
    let race = Race::new(vec![
        Box::new(Tila::new(TilaConfig {
            critical_ratio: -1.0, // Config error, fails instantly
            ..TilaConfig::default()
        })),
        Box::new(Failing), // Input error, also instant
    ]);
    let err = race.run(&mut g, &nl, &mut a).unwrap_err();
    assert!(matches!(err, FlowError::Config(_)), "{err}");

    let race = Race::new(vec![Box::new(Failing), tila_box()]);
    let err = race.run(&mut g, &nl, &mut a).unwrap_err();
    assert!(matches!(err, FlowError::Input(_)), "{err}");
}

#[test]
fn empty_portfolio_is_an_input_error() {
    let (mut g, nl, mut a) = fixture(5);
    let race = Race::new(Vec::new());
    let err = race.run(&mut g, &nl, &mut a).unwrap_err();
    assert!(matches!(err, FlowError::Input(_)), "{err}");
}

#[test]
fn winner_spans_replay_into_caller_observers() {
    let (mut g, nl, mut a) = fixture(11);
    let race = full_race();
    let mut log = obs::EventLog::new();
    let report = race
        .assign_observed(&mut g, &nl, &mut a, &mut [&mut log])
        .unwrap();
    assert!(
        !log.is_empty(),
        "the winning lane must deliver its stage spans"
    );
    // The replayed stream matches the winner's buffered log, payloads
    // included (times differ across runs, shapes must not).
    let (mut g2, nl2, mut a2) = fixture(11);
    let outcome = race.run(&mut g2, &nl2, &mut a2).unwrap();
    let replayed: Vec<_> = log.events().iter().map(event_shape).collect();
    let winner: Vec<_> = outcome.lanes[outcome.winner]
        .log
        .events()
        .iter()
        .map(event_shape)
        .collect();
    assert_eq!(replayed, winner);
    assert_eq!(report.assigner, outcome.lanes[outcome.winner].name);
    assert_eq!(g, g2);
    assert_eq!(a, a2);
}

#[test]
fn pre_cancelled_backends_still_land_a_valid_state() {
    let (mut g, nl, mut a) = fixture(13);
    let cancel = Cancel::new();
    cancel.cancel();
    let race = Race::with_cancel(
        vec![lagrange_box(cancel.clone()), greedy_box(cancel.clone())],
        cancel,
    );
    let outcome = race.run(&mut g, &nl, &mut a).unwrap();
    assert_eq!(outcome.lanes.len(), 2);
    a.validate(&nl, &g).unwrap();
}

#[test]
fn config_description_names_every_lane() {
    let race = full_race();
    let desc = race.config_description();
    for name in ["cpla", "tila", "lagrange", "greedy"] {
        assert!(desc.contains(name), "{desc}");
    }
    assert_eq!(LayerAssigner::name(&race), "race");
    assert_eq!(race.len(), 4);
    assert!(!race.is_empty());
}
