//! Quality ablations of the CPLA design choices (the timing counterpart
//! of `benches/ablation.rs`): each row disables one mechanism and
//! reports the resulting Table-2 metrics on one benchmark.
//!
//! Usage: `ablation [benchmark]` (default adaptec1).

use cpla::problem::ProblemConfig;
use cpla::{CplaConfig, SolverKind};
use cpla_bench::{benchmarks_from_args, row, run_cpla, Prepared};
use solver::SdpSolver;

fn main() {
    let configs = benchmarks_from_args(&["adaptec1"]);
    for config in &configs {
        let prepared = Prepared::from_config(config);
        let released = prepared.released(0.005);
        println!(
            "== ablations on {} ({} released nets) ==",
            config.name,
            released.len()
        );
        let widths = [24usize, 12, 12, 8, 8, 8];
        println!(
            "{}",
            row(
                &[
                    "variant".into(),
                    "Avg(Tcp)".into(),
                    "Max(Tcp)".into(),
                    "OV#".into(),
                    "via#".into(),
                    "time(s)".into(),
                ],
                &widths
            )
        );

        let variants: Vec<(&str, CplaConfig)> = vec![
            ("default", CplaConfig::default()),
            (
                "uniform-partition-only",
                CplaConfig {
                    max_segments_per_partition: usize::MAX / 2,
                    ..CplaConfig::default()
                },
            ),
            (
                "no-via-penalty",
                CplaConfig {
                    problem: ProblemConfig {
                        via_penalty_weight: 0.0,
                        overflow_penalty_weight: 0.0,
                    },
                    ..CplaConfig::default()
                },
            ),
            (
                "focus-0 (sum objective)",
                CplaConfig {
                    focus: 0.0,
                    ..CplaConfig::default()
                },
            ),
            (
                "admm-50-iters",
                CplaConfig {
                    solver: SolverKind::Sdp(SdpSolver {
                        max_iterations: 50,
                        tolerance: 1e-4,
                        ..SdpSolver::default()
                    }),
                    ..CplaConfig::default()
                },
            ),
            (
                "single-round",
                CplaConfig {
                    max_rounds: 1,
                    ..CplaConfig::default()
                },
            ),
            (
                "uniform-x-postmap",
                CplaConfig {
                    solver: SolverKind::UniformRelaxation,
                    ..CplaConfig::default()
                },
            ),
        ];
        for (label, cfg) in variants {
            let (run, _) = run_cpla(&prepared, &released, cfg);
            println!(
                "{}",
                row(
                    &[
                        label.to_string(),
                        format!("{:.1}", run.metrics.avg_tcp),
                        format!("{:.1}", run.metrics.max_tcp),
                        run.metrics.via_overflow.to_string(),
                        run.metrics.via_count.to_string(),
                        format!("{:.2}", run.seconds),
                    ],
                    &widths
                )
            );
        }
    }
}
