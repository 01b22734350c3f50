//! Per-stage microbenchmarks: one group per pipeline stage, sized like
//! the per-partition work items the engine actually schedules.
//!
//! Compiled as a no-op stub unless the `criterion-benches` feature is
//! enabled (the default build must stay hermetic and fast):
//!
//! ```text
//! cargo bench -p cpla-bench --features criterion-benches --bench stages
//! ```

#[cfg(feature = "criterion-benches")]
mod real {
    use cpla::partition::partition_segments_sharded;
    use cpla::problem::{PartitionProblem, ProblemConfig};
    use cpla::{timing_context_into, SegCtxTable};
    use cpla_bench::harness::Harness;
    use cpla_bench::Prepared;
    use ispd::SyntheticConfig;
    use net::{DesignArena, SegmentRef};
    use solver::{PsdScratch, SdpSolver, SymMatrix};

    /// Shared fixture: a routed small benchmark, its arena and frozen
    /// context table, plus one representative partition problem of the
    /// default (10-segment) size.
    struct Fixture {
        prepared: Prepared,
        released: Vec<usize>,
        segments: Vec<SegmentRef>,
        arena: DesignArena,
        ctx: SegCtxTable,
        problem: PartitionProblem,
    }

    fn fixture() -> Fixture {
        let mut config = SyntheticConfig::small(99);
        config.num_nets = 400;
        let prepared = Prepared::from_config(&config);
        let released = prepared.released(0.05);
        let segments: Vec<SegmentRef> = released
            .iter()
            .flat_map(|&ni| {
                (0..prepared.netlist.net(ni).tree().num_segments())
                    .map(move |s| SegmentRef::new(ni as u32, s as u32))
            })
            .collect();
        let arena = DesignArena::from_netlist(&prepared.netlist);
        let mut ctx = SegCtxTable::new(&arena, &segments);
        timing_context_into(
            &prepared.grid,
            &prepared.netlist,
            &prepared.assignment,
            &released,
            4.0,
            None,
            &mut ctx,
        );
        let (parts, _, _) = partition_segments_sharded(
            &arena,
            &segments,
            prepared.grid.width(),
            prepared.grid.height(),
            4,
            10,
            (0, 0),
            1,
        );
        let part = parts
            .iter()
            .max_by_key(|p| p.segments.len())
            .expect("non-empty partitioning")
            .clone();
        let problem = PartitionProblem::extract(
            &prepared.grid,
            &prepared.netlist,
            &prepared.assignment,
            &part.segments,
            &|r| *ctx.get(r).expect("released segment"),
            &ProblemConfig::default(),
        );
        Fixture {
            prepared,
            released,
            segments,
            arena,
            ctx,
            problem,
        }
    }

    pub fn main() {
        let mut f = fixture();
        let mut h = Harness::new();

        h.bench("timing/analyze_released", || {
            timing::analyze_nets(
                &f.prepared.grid,
                &f.prepared.netlist,
                &f.prepared.assignment,
                f.released.iter().copied(),
            )
        });

        h.bench("context/timing_context_into", || {
            timing_context_into(
                &f.prepared.grid,
                &f.prepared.netlist,
                &f.prepared.assignment,
                &f.released,
                4.0,
                None,
                &mut f.ctx,
            )
        });

        h.bench("partition/quadtree", || {
            partition_segments_sharded(
                &f.arena,
                &f.segments,
                f.prepared.grid.width(),
                f.prepared.grid.height(),
                4,
                10,
                (0, 0),
                1,
            )
        });

        h.bench("problem/extract", || {
            PartitionProblem::extract(
                &f.prepared.grid,
                &f.prepared.netlist,
                &f.prepared.assignment,
                &f.problem.segments,
                &|r| *f.ctx.get(r).expect("released segment"),
                &ProblemConfig::default(),
            )
        });

        {
            let (sdp, _) = f.problem.to_sdp();
            let solver = SdpSolver {
                max_iterations: 200,
                tolerance: 1e-4,
                ..SdpSolver::default()
            };
            h.bench("solver/sdp_partition", || solver.solve(&sdp));
        }

        {
            let choice = f.problem.to_choice_problem();
            h.bench("solver/ilp_partition", || choice.solve(1_000_000));
        }

        {
            let (sdp, _) = f.problem.to_sdp();
            let sol = SdpSolver {
                max_iterations: 200,
                tolerance: 1e-4,
                ..SdpSolver::default()
            }
            .solve(&sdp);
            let diag = sol.x.diagonal();
            h.bench("mapping/post_map", || {
                cpla::mapping::post_map(&f.problem, &diag)
            });
        }

        {
            // The fixture leaf's own PSD pattern: indices its cost
            // couples, transitively, form one block of mixed-sign
            // entries; entries between blocks are zero. The dense
            // projection and the per-block one run on this same matrix.
            let (sdp, _) = f.problem.to_sdp();
            let cost = sdp.cost();
            let n = cost.dim();
            let mut label: Vec<usize> = (0..n).collect();
            let mut changed = true;
            while changed {
                changed = false;
                for i in 0..n {
                    for j in 0..n {
                        if cost.get(i, j) != 0.0 && label[i] != label[j] {
                            let low = label[i].min(label[j]);
                            (label[i], label[j]) = (low, low);
                            changed = true;
                        }
                    }
                }
            }
            let mut members: Vec<usize> = (0..n).collect();
            members.sort_by_key(|&i| (label[i], i));
            let starts: Vec<usize> = (0..n)
                .filter(|&k| k == 0 || label[members[k]] != label[members[k - 1]])
                .chain([n])
                .collect();
            let mut m = SymMatrix::zeros(n);
            let mut v = 1.0f64;
            for i in 0..n {
                for j in (i..n).filter(|&j| label[j] == label[i]) {
                    v = (v * 1.31 + 0.7) % 5.0;
                    m.set(i, j, v - 2.5);
                }
            }
            let flat = || m.as_slice().to_vec();
            let mut scratch = PsdScratch::new();
            h.bench_batched("solver/psd_project", flat, |mut a| {
                solver::psd_project_in_place(&mut a, n, &mut scratch);
                a
            });
            h.bench_batched("solver/psd_project_blocks", flat, |mut a| {
                solver::psd_project_blocks(&mut a, n, &members, &starts, &mut scratch);
                a
            });
        }

        // A 64×64 dense matrix: about twice the largest PSD order the
        // engine builds (30 assignment rows on scale-100k).
        let dense64 = || {
            let mut m = SymMatrix::zeros(64);
            let mut v = 1.0f64;
            for i in 0..64 {
                for j in i..64 {
                    v = (v * 1.31 + 0.7) % 5.0;
                    m.set(i, j, v - 2.5);
                }
            }
            m
        };
        h.bench_batched("solver/eigen_ql_64", dense64, |m| {
            solver::eigen_decompose(&m)
        });
        h.bench_batched("solver/eigen_jacobi_64", dense64, |m| {
            solver::eigen_decompose_jacobi(&m)
        });
    }
}

fn main() {
    #[cfg(feature = "criterion-benches")]
    real::main();
    #[cfg(not(feature = "criterion-benches"))]
    eprintln!("stages: bench stub; rerun with --features criterion-benches");
}
