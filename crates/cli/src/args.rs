//! Hand-rolled argument parsing (no external dependencies), kept in a
//! module so it is unit-testable.

use std::fmt;

/// Which engine `optimize` runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// CPLA with the SDP relaxation (default).
    Sdp,
    /// CPLA with the exact branch-and-bound ILP.
    Ilp,
    /// The TILA Lagrangian baseline.
    Tila,
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Engine::Sdp => f.write_str("sdp"),
            Engine::Ilp => f.write_str("ilp"),
            Engine::Tila => f.write_str("tila"),
        }
    }
}

/// Which `LayerAssigner` backend `optimize` dispatches to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Assigner {
    /// The DAC'16 CPLA engine (stage pipeline; solver from `--engine`).
    Cpla,
    /// The ICCAD'15 TILA Lagrangian baseline.
    Tila,
    /// The subgradient Lagrangian dual-ascent engine.
    Lagrange,
    /// The one-pass greedy longest-path baseline (latency floor).
    Greedy,
    /// All four backends raced on scoped threads; best priced result
    /// wins and is written back.
    Race,
}

impl fmt::Display for Assigner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Assigner::Cpla => f.write_str("cpla"),
            Assigner::Tila => f.write_str("tila"),
            Assigner::Lagrange => f.write_str("lagrange"),
            Assigner::Greedy => f.write_str("greedy"),
            Assigner::Race => f.write_str("race"),
        }
    }
}

/// A parsed command line.
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// `generate <benchmark> -o <file>`: write a synthetic benchmark in
    /// the ISPD'08 format.
    Generate {
        /// Named benchmark (e.g. `adaptec1`) or `small:<seed>`.
        benchmark: String,
        /// Output path.
        output: String,
    },
    /// `report <file>`: parse, route, initially assign, print a summary.
    Report {
        /// ISPD'08 input path.
        input: String,
    },
    /// `optimize <file> [--assigner cpla|tila|lagrange|greedy|race] [--ratio R]
    /// [--engine sdp|ilp|tila] [--threads N] [--alpha A] [--node-budget N]
    /// [--trace-chrome FILE] [--metrics FILE]`: run incremental layer
    /// assignment through the `LayerAssigner` seam.
    Optimize {
        /// ISPD'08 input path.
        input: String,
        /// Backend selection (defaults to `cpla`; `--engine tila` also
        /// selects the TILA backend for backwards compatibility).
        assigner: Assigner,
        /// Critical ratio (fraction of nets released).
        ratio: f64,
        /// CPLA solver selection.
        engine: Engine,
        /// Partition-solver threads.
        threads: usize,
        /// Overflow weight α (`None` keeps the engine default). Range
        /// checking is the engine's job, so a bad value surfaces as a
        /// typed `ConfigError` with its own exit code.
        alpha: Option<f64>,
        /// ILP search budget in branch-and-bound nodes (`None` keeps
        /// the front end's default).
        node_budget: Option<u64>,
        /// Write a Chrome `trace_event` span dump of the run here
        /// (loadable in `chrome://tracing` / Perfetto).
        trace_chrome: Option<String>,
        /// Write a Prometheus-text metrics dump of the run here.
        metrics: Option<String>,
    },
    /// `replay <repro.json>`: re-run a `cpla-conform` reproducer
    /// through the full conformance check and report the outcome.
    Replay {
        /// Reproducer JSON path (written by `cpla-conform` on failure).
        input: String,
    },
    /// `svg <file> -o <out.svg> [--ratio R]`: render congestion +
    /// critical nets after the initial assignment.
    Svg {
        /// ISPD'08 input path.
        input: String,
        /// Output SVG path.
        output: String,
        /// Critical ratio used for the highlight set.
        ratio: f64,
    },
    /// `help`.
    Help,
}

/// Usage text.
pub const USAGE: &str = "\
cpla-cli — critical-path layer assignment

USAGE:
  cpla-cli generate <benchmark> -o <file.ispd>
  cpla-cli report   <file.ispd>
  cpla-cli optimize <file.ispd> [--assigner cpla|tila|lagrange|greedy|race]
                                [--ratio 0.005]
                                [--engine sdp|ilp|tila]
                                [--threads N] [--alpha A] [--node-budget N]
                                [--trace-chrome out.json] [--metrics out.txt]
  cpla-cli replay   <repro.json>
  cpla-cli svg      <file.ispd> -o <out.svg> [--ratio 0.005]
  cpla-cli help

Benchmarks: adaptec1..5, bigblue1..4, newblue1,2,4,5,6,7, small:<seed>.";

/// Parses the argument vector (without the program name).
///
/// # Errors
///
/// Returns a human-readable message on malformed input.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "generate" => {
            let benchmark = it.next().ok_or("generate: missing <benchmark>")?.clone();
            let mut output = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-o" | "--output" => {
                        output = Some(it.next().ok_or("generate: -o needs a path")?.clone());
                    }
                    other => return Err(format!("generate: unknown argument `{other}`")),
                }
            }
            let output = output.ok_or("generate: -o <file> is required")?;
            Ok(Command::Generate { benchmark, output })
        }
        "report" => {
            let input = it.next().ok_or("report: missing <file>")?.clone();
            if let Some(extra) = it.next() {
                return Err(format!("report: unexpected `{extra}`"));
            }
            Ok(Command::Report { input })
        }
        "optimize" => {
            let input = it.next().ok_or("optimize: missing <file>")?.clone();
            let mut assigner = None;
            let mut ratio = 0.005f64;
            let mut engine = Engine::Sdp;
            let mut threads = 1usize;
            let mut alpha: Option<f64> = None;
            let mut node_budget: Option<u64> = None;
            let mut trace_chrome: Option<String> = None;
            let mut metrics: Option<String> = None;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--assigner" => {
                        let v = it.next().ok_or("--assigner needs a value")?;
                        assigner = Some(match v.as_str() {
                            "cpla" => Assigner::Cpla,
                            "tila" => Assigner::Tila,
                            "lagrange" => Assigner::Lagrange,
                            "greedy" => Assigner::Greedy,
                            "race" => Assigner::Race,
                            other => return Err(format!("unknown assigner `{other}`")),
                        });
                    }
                    "--ratio" => {
                        let v = it.next().ok_or("--ratio needs a value")?;
                        ratio = v.parse().map_err(|_| format!("bad ratio `{v}`"))?;
                        if !(0.0..=1.0).contains(&ratio) {
                            return Err(format!("ratio {ratio} outside 0..=1"));
                        }
                    }
                    "--engine" => {
                        let v = it.next().ok_or("--engine needs a value")?;
                        engine = match v.as_str() {
                            "sdp" => Engine::Sdp,
                            "ilp" => Engine::Ilp,
                            "tila" => Engine::Tila,
                            other => return Err(format!("unknown engine `{other}`")),
                        };
                    }
                    "--threads" => {
                        let v = it.next().ok_or("--threads needs a value")?;
                        threads = v.parse().map_err(|_| format!("bad thread count `{v}`"))?;
                        if threads == 0 {
                            return Err("--threads must be positive".into());
                        }
                    }
                    "--alpha" => {
                        let v = it.next().ok_or("--alpha needs a value")?;
                        alpha = Some(v.parse().map_err(|_| format!("bad alpha `{v}`"))?);
                    }
                    "--node-budget" => {
                        let v = it.next().ok_or("--node-budget needs a value")?;
                        node_budget =
                            Some(v.parse().map_err(|_| format!("bad node budget `{v}`"))?);
                    }
                    "--trace-chrome" => {
                        trace_chrome =
                            Some(it.next().ok_or("--trace-chrome needs a path")?.clone());
                    }
                    "--metrics" => {
                        metrics = Some(it.next().ok_or("--metrics needs a path")?.clone());
                    }
                    other => return Err(format!("optimize: unknown argument `{other}`")),
                }
            }
            // `--engine tila` predates `--assigner` and keeps working:
            // without an explicit assigner it selects the TILA backend.
            let assigner = assigner.unwrap_or(match engine {
                Engine::Tila => Assigner::Tila,
                _ => Assigner::Cpla,
            });
            Ok(Command::Optimize {
                input,
                assigner,
                ratio,
                engine,
                threads,
                alpha,
                node_budget,
                trace_chrome,
                metrics,
            })
        }
        "replay" => {
            let input = it.next().ok_or("replay: missing <repro.json>")?.clone();
            if let Some(extra) = it.next() {
                return Err(format!("replay: unexpected `{extra}`"));
            }
            Ok(Command::Replay { input })
        }
        "svg" => {
            let input = it.next().ok_or("svg: missing <file>")?.clone();
            let mut output = None;
            let mut ratio = 0.005f64;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "-o" | "--output" => {
                        output = Some(it.next().ok_or("svg: -o needs a path")?.clone());
                    }
                    "--ratio" => {
                        let v = it.next().ok_or("--ratio needs a value")?;
                        ratio = v.parse().map_err(|_| format!("bad ratio `{v}`"))?;
                    }
                    other => return Err(format!("svg: unknown argument `{other}`")),
                }
            }
            let output = output.ok_or("svg: -o <file> is required")?;
            Ok(Command::Svg {
                input,
                output,
                ratio,
            })
        }
        other => Err(format!("unknown command `{other}` (try `help`)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&v(&["--help"])).unwrap(), Command::Help);
    }

    #[test]
    fn generate_requires_output() {
        let err = parse(&v(&["generate", "adaptec1"])).unwrap_err();
        assert!(err.contains("-o"), "{err}");
        let ok = parse(&v(&["generate", "adaptec1", "-o", "x.ispd"])).unwrap();
        assert_eq!(
            ok,
            Command::Generate {
                benchmark: "adaptec1".into(),
                output: "x.ispd".into()
            }
        );
    }

    #[test]
    fn optimize_defaults_and_flags() {
        let c = parse(&v(&["optimize", "d.ispd"])).unwrap();
        assert_eq!(
            c,
            Command::Optimize {
                input: "d.ispd".into(),
                assigner: Assigner::Cpla,
                ratio: 0.005,
                engine: Engine::Sdp,
                threads: 1,
                alpha: None,
                node_budget: None,
                trace_chrome: None,
                metrics: None,
            }
        );
        let c = parse(&v(&[
            "optimize",
            "d.ispd",
            "--ratio",
            "0.02",
            "--engine",
            "tila",
            "--threads",
            "4",
        ]))
        .unwrap();
        assert_eq!(
            c,
            Command::Optimize {
                input: "d.ispd".into(),
                assigner: Assigner::Tila,
                ratio: 0.02,
                engine: Engine::Tila,
                threads: 4,
                alpha: None,
                node_budget: None,
                trace_chrome: None,
                metrics: None,
            }
        );
    }

    #[test]
    fn the_removed_neighbors_flag_is_rejected() {
        let e = parse(&v(&["optimize", "d.ispd", "--neighbors"])).unwrap_err();
        assert!(e.contains("unknown argument `--neighbors`"), "{e}");
    }

    #[test]
    fn optimize_parses_observability_flags() {
        let c = parse(&v(&[
            "optimize",
            "d.ispd",
            "--trace-chrome",
            "spans.json",
            "--metrics",
            "m.txt",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Optimize {
                ref trace_chrome,
                ref metrics,
                ..
            } if trace_chrome.as_deref() == Some("spans.json")
                && metrics.as_deref() == Some("m.txt")
        ));
        assert!(parse(&v(&["optimize", "d.ispd", "--trace-chrome"])).is_err());
        assert!(parse(&v(&["optimize", "d.ispd", "--metrics"])).is_err());
    }

    #[test]
    fn assigner_flag_selects_the_backend() {
        let c = parse(&v(&["optimize", "d.ispd", "--assigner", "tila"])).unwrap();
        assert!(matches!(
            c,
            Command::Optimize {
                assigner: Assigner::Tila,
                ..
            }
        ));
        // Explicit --assigner wins over the legacy --engine mapping.
        let c = parse(&v(&[
            "optimize",
            "d.ispd",
            "--assigner",
            "cpla",
            "--engine",
            "tila",
        ]))
        .unwrap();
        assert!(matches!(
            c,
            Command::Optimize {
                assigner: Assigner::Cpla,
                ..
            }
        ));
        assert!(parse(&v(&["optimize", "d", "--assigner", "magic"])).is_err());
    }

    #[test]
    fn portfolio_assigners_parse() {
        for (name, want) in [
            ("lagrange", Assigner::Lagrange),
            ("greedy", Assigner::Greedy),
            ("race", Assigner::Race),
        ] {
            let c = parse(&v(&["optimize", "d.ispd", "--assigner", name])).unwrap();
            assert!(
                matches!(c, Command::Optimize { assigner, .. } if assigner == want),
                "--assigner {name} parsed to the wrong backend"
            );
            assert_eq!(want.to_string(), name, "Display drifted from the flag");
        }
    }

    #[test]
    fn svg_parses_with_defaults() {
        let c = parse(&v(&["svg", "d.ispd", "-o", "x.svg"])).unwrap();
        assert_eq!(
            c,
            Command::Svg {
                input: "d.ispd".into(),
                output: "x.svg".into(),
                ratio: 0.005
            }
        );
        assert!(parse(&v(&["svg", "d.ispd"])).is_err());
    }

    #[test]
    fn replay_takes_exactly_one_path() {
        let c = parse(&v(&["replay", "repro.json"])).unwrap();
        assert_eq!(
            c,
            Command::Replay {
                input: "repro.json".into()
            }
        );
        assert!(parse(&v(&["replay"])).is_err());
        assert!(parse(&v(&["replay", "a", "b"])).is_err());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse(&v(&["optimize", "d", "--ratio", "2.0"])).is_err());
        assert!(parse(&v(&["optimize", "d", "--engine", "magic"])).is_err());
        assert!(parse(&v(&["optimize", "d", "--threads", "0"])).is_err());
        assert!(parse(&v(&["report", "a", "b"])).is_err());
        assert!(parse(&v(&["frobnicate"])).is_err());
    }
}
