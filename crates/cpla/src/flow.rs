//! The stage-based flow driver.
//!
//! One CPLA round is an explicit pipeline of eight [`Stage`]s — Select,
//! Partition, Extract, Solve, PostMap, Gate, Accept, Measure — each a
//! plain `fn(&mut FlowContext)` listed once in the `STAGES` table. The
//! paper's incremental mechanisms live in the stages themselves: the
//! cross-round partition cache (Extract/PostMap), warm-started ADMM with
//! the rank-based early stop (Solve) and the exact timing gate (Gate).
//!
//! [`drive`] owns the round loop: it times every stage, forwards the
//! boundaries to the attached [`StageObserver`]s, emits a
//! [`RoundSnapshot`] per round, and restores the incumbent state when
//! the flow stops improving. Stage wall times reach callers only
//! through those observers; the report's [`PipelineStats`] is built
//! from the run's counters at the end.

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ::flow::{
    FlowCounters, FlowError, LeafSpan, Metrics, RoundSnapshot, SolveError, Stage, StageObserver,
};
use grid::{Grid, UsageSnapshot};
use net::{Assignment, Netlist, SegmentRef};
use solver::{SolveScratch, WarmStart};
use timing::TimingModel;

use crate::context::{timing_context_into, SegCtx, SegCtxTable};
use crate::engine::{CplaConfig, CplaReport, PipelineStats, RoundStats, SolverKind};
use crate::mapping::{self, timing_gate};
use crate::partition::{partition_segments_sharded, Partition, PartitionStats};
use crate::problem::PartitionProblem;

/// Cross-round cache entry for one partition, keyed by its segment set.
///
/// A hit requires the freshly extracted problem to compare equal to
/// `problem` — any drift in costs, candidates or capacities (because a
/// neighboring partition's acceptance moved segments or usage) misses
/// and re-solves, warm-started from `warm` (the PSD block plus the
/// slack vectors of the last solve).
struct CacheEntry {
    problem: PartitionProblem,
    result: Vec<(SegmentRef, usize)>,
    warm: Option<WarmStart>,
}

/// A cache miss awaiting a solve: partition index, extracted problem,
/// and the warm-start iterates of a stale cache entry (if any).
type Miss = (usize, PartitionProblem, Option<WarmStart>);

/// What the Solve stage produces per miss, before post-mapping.
enum RawSolve {
    /// A relaxation vector to round: the SDP diagonal, or the uniform
    /// 0.5 vector of the ablation control. `warm` carries the ADMM
    /// iterates for the cross-round warm start (SDP only).
    Relaxed {
        x: Vec<f64>,
        warm: Option<WarmStart>,
    },
    /// An exact ILP solution (`None` when the node budget ran out, in
    /// which case PostMap keeps the current assignment).
    Exact(Option<Vec<usize>>),
}

/// All state one flow run threads through its stages.
struct FlowContext<'a> {
    // Inputs.
    config: CplaConfig,
    grid: &'a mut Grid,
    netlist: &'a Netlist,
    assignment: &'a mut Assignment,
    released: &'a [usize],

    // Run-wide derived state.
    segments: Vec<SegmentRef>,
    /// Flat id layout of the whole design: the dense context table and
    /// the sharded partitioner index through its CSR ranges.
    arena: net::DesignArena,
    model: TimingModel,
    cache: HashMap<Vec<SegmentRef>, CacheEntry>,
    counters: FlowCounters,
    /// One solve scratch per Solve worker, kept across rounds so
    /// buffers that grew in one round are reused by the next.
    scratch: Vec<SolveScratch>,

    // Per-round scratch, produced by one stage and consumed by the next.
    round: usize,
    cd: SegCtxTable,
    partitions: Vec<Partition>,
    first_round_pstats: PartitionStats,
    results: Vec<Vec<(SegmentRef, usize)>>,
    misses: Vec<Miss>,
    raw: Vec<RawSolve>,
    proposals: Vec<(SegmentRef, usize)>,
    pending: Vec<(usize, Vec<usize>, Vec<usize>)>,
    /// Leaf spans recorded by the running stage (partition solves,
    /// accept applications); [`drive`] drains them to the observers
    /// between the stage body and its `on_stage_end` callback.
    leaves: Vec<LeafSpan>,

    // Incumbent tracking. Rounds compete on a *priced* objective
    // mirroring the paper's `α·V_o` relaxation of (4c)/(4d):
    // `Avg(Tcp)` plus `overflow_price · input-average-delay` per unit
    // of wire/via overflow beyond the input state. A dominant delay
    // win can buy a unit of fresh congestion, but gratuitous overflow
    // (via stacks through a zero-capacity layer, say) never pays for
    // itself, and the input state — score `input_avg`, excess 0 — is
    // the seed incumbent, so the answer is never worse than the input
    // under that score.
    best_score: f64,
    best_assignment: Assignment,
    best_usage: UsageSnapshot,
    input_avg: f64,
    input_wire_overflow: u64,
    input_via_overflow: u64,
    stagnant: usize,
    rounds: Vec<RoundStats>,
    stop: bool,
}

impl<'a> FlowContext<'a> {
    fn new(
        config: CplaConfig,
        grid: &'a mut Grid,
        netlist: &'a Netlist,
        assignment: &'a mut Assignment,
        released: &'a [usize],
        initial_metrics: Metrics,
    ) -> FlowContext<'a> {
        // Electrical parameters are usage-independent, so one snapshot
        // serves the timing gate for the whole run.
        let model = TimingModel::from_grid(grid);

        let segments: Vec<SegmentRef> = released
            .iter()
            .flat_map(|&ni| {
                let n = netlist.net(ni).tree().num_segments();
                // cast: net/segment ordinals come from the u32-indexed arena.
                (0..n).map(move |s| SegmentRef::new(ni as u32, s as u32))
            })
            .collect();

        // One arena + slot map for the whole run: the pool is fixed
        // across rounds, so Select only rewrites pooled slots.
        let arena = net::DesignArena::from_netlist(netlist);
        let cd = SegCtxTable::new(&arena, &segments);

        let input_avg = initial_metrics.avg_tcp;
        let best_assignment = assignment.clone();
        let best_usage = grid.snapshot_usage();
        let input_wire_overflow = grid.total_wire_overflow();
        let input_via_overflow = grid.total_via_overflow();
        FlowContext {
            config,
            grid,
            netlist,
            assignment,
            released,
            segments,
            arena,
            model,
            cache: HashMap::new(),
            counters: FlowCounters::default(),
            round: 0,
            cd,
            partitions: Vec::new(),
            first_round_pstats: PartitionStats::default(),
            results: Vec::new(),
            misses: Vec::new(),
            raw: Vec::new(),
            scratch: Vec::new(),
            proposals: Vec::new(),
            pending: Vec::new(),
            leaves: Vec::new(),
            best_score: input_avg,
            best_assignment,
            best_usage,
            input_avg,
            input_wire_overflow,
            input_via_overflow,
            stagnant: 0,
            rounds: Vec::new(),
            stop: false,
        }
    }
}

/// A stage body: reads its inputs from the shared [`FlowContext`] and
/// leaves its products there for the next stage.
type StageFn = fn(&mut FlowContext<'_>) -> Result<(), FlowError>;

/// The eight-stage pipeline, in [`Stage::ALL`] order.
const STAGES: [(Stage, StageFn); 8] = [
    (Stage::Select, select),
    (Stage::Partition, partition),
    (Stage::Extract, extract),
    (Stage::Solve, solve),
    (Stage::PostMap, post_map),
    (Stage::Gate, gate),
    (Stage::Accept, accept),
    (Stage::Measure, measure),
];

/// Select: freezes the weighted timing context of the released
/// segments for this round.
fn select(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    // Every pooled slot is rewritten below (the pool is exactly the
    // released nets' segments), so the table needs no per-round clear.
    timing_context_into(
        ctx.grid,
        ctx.netlist,
        ctx.assignment,
        ctx.released,
        ctx.config.focus,
        None,
        &mut ctx.cd,
    );
    Ok(())
}

/// Partition: partitions the released segments, alternating the
/// division origin between rounds so segments frozen at a partition
/// boundary become jointly optimizable in the next round.
fn partition(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    let bw = (ctx.grid.width() as usize).div_ceil(ctx.config.uniform_divisions) as u16;
    let bh = (ctx.grid.height() as usize).div_ceil(ctx.config.uniform_divisions) as u16;
    let offset = if ctx.round.is_multiple_of(2) {
        (bw / 2, bh / 2)
    } else {
        (0, 0)
    };
    let (partitions, pstats, ledgers) = partition_segments_sharded(
        &ctx.arena,
        &ctx.segments,
        ctx.grid.width(),
        ctx.grid.height(),
        ctx.config.uniform_divisions,
        ctx.config.max_segments_per_partition,
        offset,
        ctx.config.threads.max(1),
    );
    // Each shard ledger becomes one leaf span, so partition-shard
    // activity flows through the same observer seam as solve leaves.
    for l in &ledgers {
        ctx.leaves.push(LeafSpan {
            round: ctx.round,
            stage: Stage::Partition,
            index: l.shard,
            items: l.segments,
            thread: l.shard,
            start_secs: l.start_secs,
            dur_secs: l.dur_secs,
            alloc_bytes: 0,
            alloc_events: 0,
        });
    }
    if ctx.round == 1 {
        ctx.first_round_pstats = pstats;
    }
    ctx.partitions = partitions;
    Ok(())
}

/// Extract: extracts per-partition mathematical programs serially,
/// splitting them into cache hits (whose stored result is reused
/// verbatim) and misses (carrying the stale entry's warm-start iterates,
/// if any).
fn extract(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    let FlowContext {
        ref config,
        ref grid,
        netlist,
        ref assignment,
        ref cd,
        ref partitions,
        ref mut results,
        ref mut misses,
        ref mut counters,
        ref cache,
        ..
    } = *ctx;
    // invariant: partitioning only groups segments from the released
    // pool, and Select froze a context for every pooled segment.
    let lookup =
        |r: SegmentRef| -> SegCtx { *cd.get(r).expect("released segment has a frozen context") };
    *results = vec![Vec::new(); partitions.len()];
    misses.clear();
    for (pi, part) in partitions.iter().enumerate() {
        let problem = PartitionProblem::extract(
            grid,
            netlist,
            assignment,
            &part.segments,
            &lookup,
            &config.problem,
        );
        let mut warm = None;
        if let Some(entry) = cache.get(&part.segments) {
            if entry.problem == problem {
                counters.partitions_reused += 1;
                // alloc: cache hits hand out owned copies; the
                // entry stays resident for later rounds.
                results[pi] = entry.result.clone();
                continue;
            }
            // alloc: warm starts are per-leaf owned seeds.
            warm = entry.warm.clone();
        }
        misses.push((pi, problem, warm));
    }
    Ok(())
}

/// Runs the configured mathematical program on one extracted problem,
/// without rounding or acceptance (that is PostMap's job).
fn solve_raw(
    config: &CplaConfig,
    problem: &PartitionProblem,
    warm: Option<&WarmStart>,
    scratch: &mut SolveScratch,
) -> Result<RawSolve, SolveError> {
    match config.solver {
        SolverKind::Sdp(mut sdp_config) => {
            // The rank-stability early stop ranks only the assignment
            // variables (the slacks never influence post-mapping).
            sdp_config.rank_stop_vars = problem.num_variables();
            let (sdp, _) = problem.to_sdp();
            let sol = sdp_config.try_solve_from_with(&sdp, warm, scratch)?;
            Ok(RawSolve::Relaxed {
                x: sol.x.diagonal(),
                warm: Some(sol.warm),
            })
        }
        SolverKind::Ilp { node_budget } => Ok(RawSolve::Exact(
            problem
                .choice_problem()
                .solve(node_budget)
                .map(|s| s.choices),
        )),
        SolverKind::UniformRelaxation => Ok(RawSolve::Relaxed {
            x: vec![0.5; problem.num_variables()],
            warm: None,
        }),
    }
}

/// Solve: solves the cache misses' mathematical programs — the parallel
/// phase.
///
/// Misses sorted by descending segment count are claimed off an atomic
/// counter by one worker loop (work stealing: no worker idles while a
/// heavy partition pins another). At one thread the loop runs inline on
/// the driver thread as worker 0; otherwise it runs on scoped threads
/// 1..=N. Each solve is a pure function of its extracted problem and
/// frozen warm start, so the claim order cannot change any result.
fn solve(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    let FlowContext {
        ref config,
        ref misses,
        round,
        ref mut scratch,
        ref mut raw,
        ref mut leaves,
        ..
    } = *ctx;
    let workers = config.threads.min(misses.len()).max(1);
    if scratch.len() < workers {
        scratch.resize_with(workers, SolveScratch::new);
    }
    // Largest first; the stable sort breaks ties by miss index.
    let mut order: Vec<usize> = (0..misses.len()).collect();
    order.sort_by_key(|&mi| Reverse(misses[mi].1.segments.len()));
    let next = AtomicUsize::new(0);
    // One monotonic anchor for the whole stage: leaf offsets are
    // seconds since this instant, on whichever thread ran the leaf.
    let anchor = Instant::now();
    let work = |thread: usize, worker_scratch: &mut SolveScratch| {
        let mut done = Vec::new();
        loop {
            // sync: Relaxed — the counter is a pure claim ticket
            // (atomicity alone prevents double claims); results publish
            // via the scope join or the inline return.
            let k = next.fetch_add(1, Ordering::Relaxed);
            let Some(&mi) = order.get(k) else { break };
            let (pi, p, w) = &misses[mi];
            let alloc0 = obs::alloc::thread_stats();
            let start_secs = anchor.elapsed().as_secs_f64();
            let out = solve_raw(config, p, w.as_ref(), worker_scratch);
            let dur_secs = anchor.elapsed().as_secs_f64() - start_secs;
            let alloc = obs::alloc::thread_stats().since(alloc0);
            let leaf = LeafSpan {
                round,
                stage: Stage::Solve,
                index: *pi,
                items: p.segments.len(),
                thread,
                start_secs,
                dur_secs,
                alloc_bytes: alloc.bytes,
                alloc_events: alloc.events,
            };
            done.push((mi, out, leaf));
        }
        done
    };
    let per_worker = if workers == 1 {
        vec![work(0, &mut scratch[0])]
    } else {
        let work = &work;
        std::thread::scope(|scope| {
            let handles: Vec<_> = scratch[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, s)| scope.spawn(move || work(w + 1, s)))
                .collect();
            handles
                .into_iter()
                // invariant: workers run no user code and cannot unwind
                // past solve_raw's Result.
                .map(|h| h.join().expect("partition worker panicked"))
                .collect()
        })
    };
    // Merge by miss index: results and leaf delivery follow miss order,
    // deterministic regardless of which worker claimed what.
    let mut done: Vec<_> = per_worker.into_iter().flatten().collect();
    done.sort_unstable_by_key(|&(mi, ..)| mi);
    raw.clear();
    for (_, out, leaf) in done {
        leaves.push(leaf);
        raw.push(out?);
    }
    Ok(())
}

/// PostMap: rounds the raw solutions to integral layers (Algorithm 1),
/// judges acceptance against the partition objective, refreshes the
/// cache, and merges the accepted per-segment proposals back in
/// partition order.
fn post_map(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    let alpha = ctx.config.alpha;
    for ((pi, problem, _), raw) in ctx.misses.drain(..).zip(ctx.raw.drain(..)) {
        let (proposed, warm_out): (Option<Vec<usize>>, _) = match raw {
            RawSolve::Relaxed { x, warm } => (Some(mapping::post_map(&problem, &x)), warm),
            RawSolve::Exact(choices) => (choices, None),
        };
        // Accept only if the partition objective does not regress.
        let accepted: &[usize] = match &proposed {
            Some(choices) => {
                ctx.counters.evaluations += 2;
                if soft_cost(alpha, &problem, choices)
                    <= soft_cost(alpha, &problem, &problem.current)
                {
                    choices
                } else {
                    &problem.current
                }
            }
            None => &problem.current,
        };
        let layers = problem.choices_to_layers(accepted);
        // alloc: one result row per solved leaf, retained past the
        // loop in `ctx.results`.
        let result: Vec<(SegmentRef, usize)> =
            problem.segments.iter().copied().zip(layers).collect();
        ctx.counters.partitions_solved += 1;
        // alloc: the cross-round cache owns its key and entry.
        ctx.cache.insert(
            problem.segments.clone(),
            CacheEntry {
                // alloc: the entry keeps its own copy of the row.
                result: result.clone(),
                warm: warm_out,
                problem,
            },
        );
        ctx.results[pi] = result;
    }
    ctx.proposals = ctx.results.drain(..).flatten().collect();
    Ok(())
}

/// Gate: groups the proposals per net (in index order, so application
/// is deterministic), drops no-op changes, and verifies each critical
/// net's proposal against its exact Elmore delay before letting it land.
fn gate(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    // Group per net by a *stable* sort: nets come out in index order,
    // and each net's proposals keep their partition-order sequence —
    // the same grouping the old per-net buckets built, without a hash
    // map on the hot path.
    let mut proposals = std::mem::take(&mut ctx.proposals);
    proposals.sort_by_key(|&(sref, _)| sref.net);
    ctx.pending.clear();
    let mut at = 0;
    while at < proposals.len() {
        let ni = proposals[at].0.net as usize;
        let mut hi = at;
        while hi < proposals.len() && proposals[hi].0.net as usize == ni {
            hi += 1;
        }
        let changes = &proposals[at..hi];
        at = hi;
        let net = ctx.netlist.net(ni);
        // alloc: `current` seeds the commit/revert ledger entry and is
        // retained in `ctx.pending`; `real` is the per-net change set
        // the gate consumes.
        let current = ctx.assignment.net_layers(ni).to_vec();
        let real: Vec<(usize, usize)> = changes
            .iter()
            .map(|&(sref, l)| (sref.seg as usize, l))
            .filter(|&(s, l)| current[s] != l)
            // alloc: per-net change set consumed by the gate below.
            .collect();
        if real.is_empty() {
            continue;
        }
        // Gate every net on its exact Elmore delay: the partition
        // objective ranks with frozen downstream caps, so a mapped win
        // can still be an exact-timing loss.
        let Some(layers) = timing_gate(&ctx.model, net, &current, &real) else {
            ctx.counters.gate_rejected += 1;
            continue;
        };
        ctx.counters.gate_accepted += 1;
        ctx.pending.push((ni, current, layers));
    }
    // Optional paranoia gate: before any pending change lands,
    // re-verify the paper's constraints (4b/4c/4d) and the cached
    // Elmore timing against from-scratch recomputation.
    if ctx.config.audit_invariants {
        audit::check_solution(ctx.grid, ctx.netlist, ctx.assignment)?;
    }
    Ok(())
}

/// Accept: lands the surviving per-net layer vectors in the assignment
/// and grid usage, visiting nets in index order. Each application is
/// recorded as one leaf span (`items` = layers actually changed).
fn accept(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    let anchor = Instant::now();
    let round = ctx.round;
    for (ni, current, layers) in std::mem::take(&mut ctx.pending) {
        let alloc0 = obs::alloc::thread_stats();
        let start_secs = anchor.elapsed().as_secs_f64();
        let changed = current.iter().zip(&layers).filter(|(a, b)| a != b).count();
        let net = ctx.netlist.net(ni);
        net::remove_net_from_grid(ctx.grid, net, &current);
        net::restore_net_to_grid(ctx.grid, net, &layers);
        ctx.assignment.set_net_layers(ni, layers);
        let dur_secs = anchor.elapsed().as_secs_f64() - start_secs;
        let alloc = obs::alloc::thread_stats().since(alloc0);
        ctx.leaves.push(LeafSpan {
            round,
            stage: Stage::Accept,
            index: ni,
            items: changed,
            thread: 0,
            start_secs,
            dur_secs,
            alloc_bytes: alloc.bytes,
            alloc_events: alloc.events,
        });
    }
    Ok(())
}

/// Measure: measures round metrics, records the round, and tracks the
/// incumbent state and stagnation stop.
fn measure(ctx: &mut FlowContext<'_>) -> Result<(), FlowError> {
    let m = Metrics::measure(ctx.grid, ctx.netlist, ctx.assignment, ctx.released);
    // Price overflow added beyond the input state instead of forbidding
    // it outright — the Measure-stage mirror of the paper's `α·V_o`
    // relaxation (see `CplaConfig::overflow_price`).
    let excess = ctx
        .grid
        .total_wire_overflow()
        .saturating_sub(ctx.input_wire_overflow)
        + m.via_overflow.saturating_sub(ctx.input_via_overflow);
    let score = m.avg_tcp + ctx.config.overflow_price * ctx.input_avg * excess as f64;
    let improved = score < ctx.best_score - 1e-12;
    ctx.rounds.push(RoundStats {
        round: ctx.round,
        avg_tcp: m.avg_tcp,
        max_tcp: m.max_tcp,
        partitions: ctx.partitions.len(),
        improved,
    });
    if improved {
        ctx.best_score = score;
        ctx.best_assignment = ctx.assignment.clone();
        ctx.best_usage = ctx.grid.snapshot_usage();
        ctx.stagnant = 0;
    } else {
        // One stagnant round is tolerated: the partition origin
        // alternates between rounds, so a stalled round may be followed
        // by an improving one under the shifted cut.
        ctx.stagnant += 1;
        if ctx.stagnant >= 2 {
            ctx.stop = true; // no further optimization achievable
        }
    }
    Ok(())
}

/// Partition objective with soft overflow: linear + pair costs plus
/// α·(mean linear cost)·overflow units.
fn soft_cost(alpha: f64, problem: &PartitionProblem, choices: &[usize]) -> f64 {
    let mut cost = 0.0;
    for (i, &c) in choices.iter().enumerate() {
        cost += problem.linear_cost[i][c];
    }
    for pair in &problem.pairs {
        cost += pair.costs[choices[pair.a]][choices[pair.b]];
    }
    let mean_linear = {
        let total: f64 = problem.linear_cost.iter().flat_map(|c| c.iter()).sum();
        let count: usize = problem.linear_cost.iter().map(|c| c.len()).sum();
        if count == 0 {
            0.0
        } else {
            total / count as f64
        }
    };
    let mut overflow = 0u32;
    for ec in &problem.edge_constraints {
        let used = ec.members.iter().filter(|&&(i, c)| choices[i] == c).count() as u32;
        overflow += used.saturating_sub(ec.limit);
    }
    cost + alpha * mean_linear * overflow as f64
}

/// Runs the full stage pipeline: the outer round loop, observer
/// notification, stagnation stop, and incumbent restoration.
pub(crate) fn drive(
    config: CplaConfig,
    grid: &mut Grid,
    netlist: &Netlist,
    assignment: &mut Assignment,
    released: &[usize],
    initial_metrics: Metrics,
    observers: &mut [&mut dyn StageObserver],
) -> Result<CplaReport, FlowError> {
    // Scoped allocation accounting: a no-op unless the hosting binary
    // installed `obs::CountingAlloc`; restored on every exit path.
    let _alloc_scope = config.alloc_stats.then(obs::alloc::ScopedEnable::new);
    let mut ctx = FlowContext::new(config, grid, netlist, assignment, released, initial_metrics);

    for round in 1..=ctx.config.max_rounds {
        ctx.round = round;
        for (s, run) in STAGES {
            for obs in observers.iter_mut() {
                obs.on_stage_start(round, s);
            }
            let t = Instant::now();
            run(&mut ctx)?;
            let secs = t.elapsed().as_secs_f64();
            // Leaves recorded by the stage body (possibly on worker
            // threads) are delivered here, on the driver thread, before
            // the stage-end boundary — observers stay lock-free.
            for leaf in ctx.leaves.drain(..) {
                for obs in observers.iter_mut() {
                    obs.on_leaf(&leaf);
                }
            }
            for obs in observers.iter_mut() {
                obs.on_stage_end(round, s, secs);
            }
        }
        // invariant: Measure, the last stage, records every round.
        let last = ctx.rounds.last().expect("Measure recorded the round");
        let snapshot = RoundSnapshot {
            round,
            objective: last.avg_tcp,
            improved: last.improved,
            counters: ctx.counters,
        };
        for obs in observers.iter_mut() {
            obs.on_round_end(&snapshot);
        }
        if ctx.stop {
            break;
        }
    }

    // Restore the best accepted state.
    *ctx.assignment = ctx.best_assignment;
    ctx.grid.restore_usage(ctx.best_usage);
    // The restored incumbent is what callers keep: audit it too.
    if ctx.config.audit_invariants {
        audit::check_solution(ctx.grid, ctx.netlist, ctx.assignment)?;
    }
    let final_metrics = Metrics::measure(ctx.grid, ctx.netlist, ctx.assignment, ctx.released);
    let c = ctx.counters;
    let stats = PipelineStats {
        rounds: ctx.rounds.len(),
        partitions_solved: c.partitions_solved,
        partitions_reused: c.partitions_reused,
        evaluations: c.evaluations,
        gate_accepted: c.gate_accepted,
        gate_rejected: c.gate_rejected,
    };
    Ok(CplaReport {
        released: released.to_vec(),
        initial_metrics,
        final_metrics,
        rounds: ctx.rounds,
        partition_stats: ctx.first_round_pstats,
        stats,
    })
}
