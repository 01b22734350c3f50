//! One design run through the public flow — `ispd` generate, `route`,
//! `timing::analyze`, `tila` and `cpla` — with its output checks, and
//! the round-1 solver replay of the traced run.

use std::time::Instant;

use cpla::partition::partition_segments_sharded;
use cpla::problem::PartitionProblem;
use cpla::{timing_context_into, Cpla, CplaConfig, CplaReport, Metrics, SegCtxTable, SolverKind};
use flow::LeafSpan;
use grid::Grid;
use net::{Assignment, DesignArena, Netlist, SegmentRef};
use route::{initial_assignment, route_netlist, RouterConfig};
use solver::SolveScratch;
use tila::Tila;

use crate::trace::{CplaSpans, Trace};
use crate::workload::Workload;

/// Everything one design run measured and checked.
#[derive(Debug, Default)]
pub struct DesignRun {
    pub name: String,
    pub generate_s: f64,
    pub route_s: f64,
    pub initial_s: f64,
    pub analyze_s: f64,
    pub segments: usize,
    pub tila_s: f64,
    pub tila_rounds: usize,
    pub tila: Metrics,
    pub assign_s: f64,
    pub report: Option<CplaReport>,
    /// Final minus input wire + via overflow.
    pub overflow_added: i64,
    /// Final metrics (bitwise) plus a hash of the final assignment.
    pub fingerprint: u64,
    /// Solve leaves the engine reported (traced runs only).
    pub solve_leaves: Vec<LeafSpan>,
    pub replay: Option<Replay>,
    /// Why the run failed its output check, if it did.
    pub failure: Option<String>,
}

impl DesignRun {
    /// Generate + route + initial assignment + initial timing analysis.
    pub fn setup_s(&self) -> f64 {
        self.generate_s + self.route_s + self.initial_s + self.analyze_s
    }

    fn fail(&mut self, why: String) {
        if self.failure.is_none() {
            self.failure = Some(why);
        }
    }
}

/// Runs `f` under a span named `name` (when tracing) and times it.
fn timed<T>(trace: &mut Option<&mut Trace>, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let id = trace.as_deref_mut().map(|t| t.open(name));
    let t0 = Instant::now();
    let out = f();
    let secs = t0.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (trace.as_deref_mut(), id) {
        t.close(id);
    }
    (out, secs)
}

fn total_overflow(grid: &Grid) -> u64 {
    grid.total_wire_overflow() + grid.total_via_overflow()
}

/// FNV-1a over the final metrics' bits, the wire overflow and every
/// segment's layer.
fn fingerprint(metrics: &Metrics, grid: &Grid, netlist: &Netlist, asg: &Assignment) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    };
    eat(metrics.avg_tcp.to_bits());
    eat(metrics.max_tcp.to_bits());
    eat(metrics.via_overflow);
    eat(metrics.via_count);
    eat(grid.total_wire_overflow());
    for n in 0..netlist.len() {
        for &l in asg.net_layers(n) {
            eat(l as u64);
        }
    }
    h
}

/// Checks a CPLA answer against the input and records it in `run`:
/// overflow must not grow, and the engine's reported metrics must equal
/// `Metrics::measure` on the input and on the final state.
fn check_cpla(
    run: &mut DesignRun,
    report: CplaReport,
    (grid, netlist, asg): (&Grid, &Netlist, &Assignment),
    input: &Metrics,
    input_overflow: u64,
) {
    let recomputed = Metrics::measure(grid, netlist, asg, &report.released);
    let final_overflow = total_overflow(grid);
    run.overflow_added = final_overflow as i64 - input_overflow as i64;
    run.fingerprint = fingerprint(&report.final_metrics, grid, netlist, asg);
    if report.initial_metrics != *input {
        run.fail(format!(
            "engine initial metrics {:?} differ from the measured input {input:?}",
            report.initial_metrics
        ));
    } else if recomputed != report.final_metrics {
        run.fail(format!(
            "engine final metrics {:?} differ from Metrics::measure {recomputed:?}",
            report.final_metrics
        ));
    } else if run.overflow_added > 0 {
        run.fail(format!(
            "wire + via overflow grew from {input_overflow} to {final_overflow}"
        ));
    }
    run.report = Some(report);
}

/// Generates, routes, analyzes and assigns design `index` of `w`.
///
/// Tracing (`trace`) wraps every call in a span and attaches the stage
/// observer to CPLA; `one_thread` also runs CPLA at one thread and
/// requires the same fingerprint; `replay` re-solves the round-1 leaves
/// (traced runs only, since it needs the engine's leaves).
pub fn run_design(
    w: &Workload,
    index: usize,
    mut trace: Option<&mut Trace>,
    one_thread: bool,
    replay: bool,
) -> DesignRun {
    let config = &w.designs[index];
    let mut run = DesignRun {
        name: config.name.clone(),
        ..DesignRun::default()
    };
    let design_span = trace
        .as_deref_mut()
        .map(|t| t.open(format!("design:{}", config.name)));

    let (generated, secs) = timed(&mut trace, "ispd.generate", || config.generate());
    run.generate_s = secs;
    let (mut grid, specs) = match generated {
        Ok(g) => g,
        Err(e) => {
            run.fail(format!("generate: {e}"));
            close(&mut trace, design_span);
            return run;
        }
    };
    let (netlist, secs) = timed(&mut trace, "route.route_netlist", || {
        route_netlist(&grid, &specs, &RouterConfig::default())
    });
    run.route_s = secs;
    run.segments = netlist.num_segments();
    let (assignment, secs) = timed(&mut trace, "route.initial_assignment", || {
        initial_assignment(&mut grid, &netlist)
    });
    run.initial_s = secs;
    let (released, secs) = timed(&mut trace, "timing.analyze", || {
        let report = timing::analyze(&grid, &netlist, &assignment);
        flow::select_critical_nets(&report, w.ratio)
    });
    run.analyze_s = secs;

    let input = Metrics::measure(&grid, &netlist, &assignment, &released);
    let input_overflow = total_overflow(&grid);

    // TILA, the baseline, on its own copy of the prepared state.
    let (mut tg, mut ta) = (grid.clone(), assignment.clone());
    let (tila, secs) = timed(&mut trace, "tila.run", || {
        Tila::new(w.tila).run(&mut tg, &netlist, &mut ta, &released)
    });
    run.tila_s = secs;
    match tila {
        Ok(r) => {
            run.tila_rounds = r.rounds_run;
            run.tila = Metrics::measure(&tg, &netlist, &ta, &released);
        }
        Err(e) => run.fail(format!("tila: {e}")),
    }
    drop((tg, ta));

    // CPLA, the measured call.
    let (mut cg, mut ca) = (grid.clone(), assignment.clone());
    let engine = Cpla::new(w.cpla);
    let cpla_span = trace.as_deref_mut().map(|t| t.open("cpla.run"));
    let t0 = Instant::now();
    let result = match trace.as_deref_mut() {
        Some(t) => {
            let mut spans = CplaSpans::new(t);
            let r = engine.run_released_observed(
                &mut cg,
                &netlist,
                &mut ca,
                &released,
                &mut [&mut spans],
            );
            run.solve_leaves = spans.solve_leaves;
            r
        }
        None => engine.run_released(&mut cg, &netlist, &mut ca, &released),
    };
    run.assign_s = t0.elapsed().as_secs_f64();
    close(&mut trace, cpla_span);

    match result {
        Ok(report) => check_cpla(
            &mut run,
            report,
            (&cg, &netlist, &ca),
            &input,
            input_overflow,
        ),
        Err(e) => run.fail(format!("cpla: {e}")),
    }
    drop((cg, ca));

    if one_thread && run.report.is_some() {
        let (mut g1, mut a1) = (grid.clone(), assignment.clone());
        let single = CplaConfig {
            threads: 1,
            ..w.cpla
        };
        match Cpla::new(single).run_released(&mut g1, &netlist, &mut a1, &released) {
            Ok(r) => {
                let fp = fingerprint(&r.final_metrics, &g1, &netlist, &a1);
                if fp != run.fingerprint {
                    run.fail(format!(
                        "answer at 1 thread differs from {} threads",
                        w.cpla.threads
                    ));
                }
            }
            Err(e) => run.fail(format!("cpla at 1 thread: {e}")),
        }
    }

    if replay && run.report.is_some() {
        match replay_round1(&grid, &netlist, &assignment, &released, &w.cpla) {
            Ok(r) => {
                if let Some(why) = guard_replay(&run.solve_leaves, &r) {
                    run.fail(why);
                }
                run.replay = Some(r);
            }
            Err(e) => run.fail(e),
        }
    }
    close(&mut trace, design_span);
    run
}

fn close(trace: &mut Option<&mut Trace>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (trace.as_deref_mut(), id) {
        t.close(id);
    }
}

/// One replayed round-1 leaf solve.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LeafReplay {
    /// Segments in the partition.
    pub items: usize,
    /// SDP matrix dimension.
    pub dim: usize,
    /// Assignment variables (the rest of `dim` are capacity slacks).
    pub vars: usize,
    pub iters: usize,
    pub converged: bool,
    /// Stopped at the iteration cap.
    pub capped: bool,
}

/// The round-1 leaf problems re-solved outside the engine.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Replay {
    pub leaves: Vec<LeafReplay>,
    /// Wall seconds of the solves alone (one thread).
    pub secs: f64,
}

/// Rebuilds the engine's round-1 leaf problems through the public chain
/// (`select_critical_nets_flat` → `timing_context_into` →
/// `partition_segments_sharded` → `PartitionProblem::extract` →
/// `to_sdp`) and solves each cold with the engine's solver settings,
/// ranking only the assignment variables as the incremental pipeline
/// does.
///
/// # Errors
///
/// Fails when the flat selection disagrees with `released`, the solver
/// is not the SDP, or a leaf solve errors.
pub fn replay_round1(
    grid: &Grid,
    netlist: &Netlist,
    asg: &Assignment,
    released: &[usize],
    cfg: &CplaConfig,
) -> Result<Replay, String> {
    let SolverKind::Sdp(base) = cfg.solver else {
        return Err("replay needs the SDP solver".into());
    };
    let arena = DesignArena::from_netlist(netlist);
    let full = timing::DesignTiming::compute(grid, netlist, &arena, asg);
    if flow::select_critical_nets_flat(&full, cfg.critical_ratio) != released {
        return Err("replay: flat selection differs from the released set".into());
    }
    let segments: Vec<SegmentRef> = released
        .iter()
        .flat_map(|&n| {
            let count = netlist.net(n).tree().num_segments();
            (0..count).map(move |s| SegmentRef::new(n as u32, s as u32))
        })
        .collect();
    let mut table = SegCtxTable::new(&arena, &segments);
    timing_context_into(grid, netlist, asg, released, cfg.focus, None, &mut table);
    let (parts, _, _) = partition_segments_sharded(
        &arena,
        &segments,
        grid.width(),
        grid.height(),
        cfg.uniform_divisions,
        cfg.max_segments_per_partition,
        (0, 0),
        cfg.threads.max(1),
    );
    let lookup = |r: SegmentRef| *table.get(r).expect("pooled segment has a context");
    let mut scratch = SolveScratch::new();
    let mut out = Replay::default();
    for part in &parts {
        let problem =
            PartitionProblem::extract(grid, netlist, asg, &part.segments, &lookup, &cfg.problem);
        let (sdp, _) = problem.to_sdp();
        let mut solver = base;
        solver.rank_stop_vars = problem.num_variables();
        let t0 = Instant::now();
        let sol = solver
            .try_solve_from_with(&sdp, None, &mut scratch)
            .map_err(|e| format!("replay solve: {e}"))?;
        out.secs += t0.elapsed().as_secs_f64();
        out.leaves.push(LeafReplay {
            items: part.segments.len(),
            dim: sdp.dim(),
            vars: problem.num_variables(),
            iters: sol.iterations,
            converged: sol.converged,
            capped: sol.iterations >= solver.max_iterations,
        });
    }
    Ok(out)
}

/// The replay must see the engine's round-1 Solve leaves: the same
/// count and, partition by partition, the same segment counts.
fn guard_replay(engine: &[LeafSpan], replay: &Replay) -> Option<String> {
    let mut round1: Vec<(usize, usize)> = engine
        .iter()
        .filter(|l| l.round == 1)
        .map(|l| (l.index, l.items))
        .collect();
    round1.sort_unstable();
    let replayed: Vec<(usize, usize)> = replay
        .leaves
        .iter()
        .enumerate()
        .map(|(i, l)| (i, l.items))
        .collect();
    (round1 != replayed).then(|| {
        format!(
            "replay guard: engine solved {} round-1 leaves, replay {} (or segment counts differ)",
            round1.len(),
            replayed.len()
        )
    })
}
