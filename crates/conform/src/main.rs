//! `cpla-conform` — the conformance fuzzer binary.
//!
//! Drives N seeded trials through both layer-assignment backends,
//! classifies every outcome, and on failure shrinks the workload and
//! writes a self-contained JSON reproducer (replayable with
//! `cpla-cli replay <file>` or [`conform::check_workload`]). Exits
//! nonzero when any gated check fails.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use conform::{check_workload, run_trial, shrink, FailureClass, TrialConfig};
use prng::Rng;

struct Args {
    trials: u64,
    cfg: TrialConfig,
    out_dir: PathBuf,
    verbose: bool,
}

const USAGE: &str = "usage: cpla-conform [--trials N] [--seed S] [--max-combos M] \
[--gap-bound G] [--lagrange-gap-bound G] [--greedy-gap-bound G] \
[--out DIR] [--verbose]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        trials: 200,
        cfg: TrialConfig::default(),
        out_dir: PathBuf::from("target/conform"),
        verbose: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--trials" => args.trials = parse_num(&value("--trials")?)?,
            "--seed" => args.cfg.seed = parse_num(&value("--seed")?)?,
            "--max-combos" => args.cfg.max_combos = parse_num(&value("--max-combos")?)?,
            "--gap-bound" => {
                let v = value("--gap-bound")?;
                args.cfg.cpla_gap_bound = v
                    .parse::<f64>()
                    .map_err(|_| format!("--gap-bound: not a number: {v}"))?;
            }
            "--lagrange-gap-bound" => {
                let v = value("--lagrange-gap-bound")?;
                args.cfg.lagrange_gap_bound = v
                    .parse::<f64>()
                    .map_err(|_| format!("--lagrange-gap-bound: not a number: {v}"))?;
            }
            "--greedy-gap-bound" => {
                let v = value("--greedy-gap-bound")?;
                args.cfg.greedy_gap_bound = v
                    .parse::<f64>()
                    .map_err(|_| format!("--greedy-gap-bound: not a number: {v}"))?;
            }
            "--out" => args.out_dir = PathBuf::from(value("--out")?),
            "--verbose" | "-v" => args.verbose = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn parse_num(v: &str) -> Result<u64, String> {
    v.parse::<u64>().map_err(|_| format!("not a number: {v}"))
}

fn write_reproducer(
    dir: &Path,
    cfg: &TrialConfig,
    trial: u64,
    failure: &conform::Failure,
    workload: &conform::gen::Workload,
) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let name = format!(
        "seed{}-trial{}-{}-{}.json",
        cfg.seed,
        trial,
        failure.assigner,
        failure.class.label()
    );
    let path = dir.join(name);
    let mut doc = conform::io::workload_to_json(workload);
    if let conform::json::Value::Obj(pairs) = &mut doc {
        pairs.insert(
            0,
            (
                "failure".to_string(),
                conform::json::obj(vec![
                    ("seed", conform::json::int(cfg.seed)),
                    ("trial", conform::json::int(trial)),
                    (
                        "class",
                        conform::json::Value::Str(failure.class.label().to_string()),
                    ),
                    (
                        "assigner",
                        conform::json::Value::Str(failure.assigner.to_string()),
                    ),
                    ("detail", conform::json::Value::Str(failure.detail.clone())),
                ]),
            ),
        );
    }
    std::fs::write(&path, doc.to_pretty())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cpla-conform: {e}");
            return ExitCode::from(2);
        }
    };

    let mut failed_trials = 0u64;
    let mut class_counts = [0u64; 4];
    let mut oracle_trials = 0u64;
    let mut worst_cpla_gap: Option<(f64, u64)> = None;
    let mut worst_gated_gap: Option<(f64, u64)> = None;
    let mut worst_tila_gap: Option<(f64, u64)> = None;
    let mut worst_lagrange_gap: Option<(f64, u64)> = None;
    let mut worst_gated_lagrange: Option<(f64, u64)> = None;
    let mut worst_greedy_gap: Option<(f64, u64)> = None;
    let mut worst_gated_greedy: Option<(f64, u64)> = None;
    let mut notes = 0usize;

    for trial in 0..args.trials {
        let out = run_trial(&args.cfg, trial);
        if let Some(c) = out.oracle_combos {
            oracle_trials += 1;
            if args.verbose {
                println!(
                    "conform: trial {trial} [{}] oracle combos={} cpla_gap={:?} tila_gap={:?}",
                    out.params.describe(),
                    c,
                    out.cpla_gap,
                    out.tila_gap
                );
            }
        } else if args.verbose {
            println!("conform: trial {trial} [{}]", out.params.describe());
        }
        let gate = |g: Option<f64>| if out.gap_gated { g } else { None };
        for (g, worst) in [
            (out.cpla_gap, &mut worst_cpla_gap),
            (gate(out.cpla_gap), &mut worst_gated_gap),
            (out.tila_gap, &mut worst_tila_gap),
            (out.lagrange_gap, &mut worst_lagrange_gap),
            (gate(out.lagrange_gap), &mut worst_gated_lagrange),
            (out.greedy_gap, &mut worst_greedy_gap),
            (gate(out.greedy_gap), &mut worst_gated_greedy),
        ] {
            if let Some(g) = g {
                if worst.map(|(w, _)| g > w).unwrap_or(true) {
                    *worst = Some((g, trial));
                }
            }
        }
        for note in &out.notes {
            notes += 1;
            if args.verbose {
                println!("conform: trial {trial} note: {note}");
            }
        }
        if out.passed() {
            continue;
        }

        failed_trials += 1;
        for failure in &out.failures {
            let idx = match failure.class {
                FailureClass::InfeasibleOutput => 0,
                FailureClass::GapExceeded => 1,
                FailureClass::PropertyViolation => 2,
                FailureClass::Flow => 3,
            };
            class_counts[idx] += 1;
            eprintln!(
                "conform: FAIL seed={} trial={} [{}] assigner={} class={}: {}",
                args.cfg.seed,
                trial,
                out.params.describe(),
                failure.assigner,
                failure.class.label(),
                failure.detail
            );
        }

        // Shrink and emit one reproducer per distinct (class, assigner)
        // failure signature — a trial that trips, say, a CPLA gap bound
        // AND a TILA property violation yields two independent repro
        // files, so neither regression hides behind the other. The
        // filename already encodes the signature, so a trial's
        // reproducers never collide.
        let mut signatures: Vec<(FailureClass, &'static str)> = Vec::new();
        for f in &out.failures {
            let sig = (f.class, f.assigner);
            if !signatures.contains(&sig) {
                signatures.push(sig);
            }
        }
        for (class, assigner) in signatures {
            let witness = out
                .failures
                .iter()
                .find(|f| f.class == class && f.assigner == assigner)
                .cloned()
                .expect("signature came from this failure list");
            let cfg = args.cfg;
            let mut predicate = |w: &conform::gen::Workload| {
                // The mutation stream must be as deterministic as the
                // trial itself; derive it from the workload's own
                // provenance.
                let mut rng = Rng::seed_from_u64(cfg.seed).fork(w.params.trial);
                let _ = conform::gen::GenParams::lattice(w.params.trial, &mut rng);
                check_workload(&cfg, w, &mut rng)
                    .failures
                    .iter()
                    .any(|f| f.class == class && f.assigner == assigner)
            };
            let minimized = if predicate(&out.workload) {
                shrink::shrink(&out.workload, &mut predicate)
            } else {
                out.workload.clone()
            };
            match write_reproducer(&args.out_dir, &args.cfg, trial, &witness, &minimized) {
                Ok(path) => {
                    eprintln!(
                        "conform: reproducer written to {} ({} nets); replay with `cpla-cli replay {}`",
                        path.display(),
                        minimized.netlist.len(),
                        path.display()
                    );
                    eprintln!(
                        "conform: pin it as a regression test:\n\
                             #[test]\n\
                             fn replays_seed{}_trial{}() {{\n\
                                 let w = conform::io::workload_from_str(include_str!(\"{}\")).unwrap();\n\
                                 let mut rng = prng::Rng::seed_from_u64({}).fork({});\n\
                                 let _ = conform::gen::GenParams::lattice({}, &mut rng);\n\
                                 let out = conform::check_workload(&conform::TrialConfig::default(), &w, &mut rng);\n\
                                 assert!(out.passed(), \"{{:?}}\", out.failures);\n\
                             }}",
                        args.cfg.seed,
                        trial,
                        path.file_name().and_then(|n| n.to_str()).unwrap_or("repro.json"),
                        args.cfg.seed,
                        trial,
                        trial
                    );
                }
                Err(e) => eprintln!("conform: could not write reproducer: {e}"),
            }
        }
    }

    println!(
        "conform: {} trials, {} oracle-bounded, {} failed ({} infeasible-output, {} gap-exceeded, {} property-violation, {} flow-error), {} notes",
        args.trials,
        oracle_trials,
        failed_trials,
        class_counts[0],
        class_counts[1],
        class_counts[2],
        class_counts[3],
        notes
    );
    if let Some((g, t)) = worst_cpla_gap {
        println!("conform: worst cpla gap {g:.4} (trial {t})");
    }
    if let Some((g, t)) = worst_gated_gap {
        println!(
            "conform: worst gated cpla gap {g:.4} (trial {t}, bound {})",
            args.cfg.cpla_gap_bound
        );
    }
    if let Some((g, t)) = worst_tila_gap {
        println!("conform: worst tila gap {g:.4} (trial {t}, reported only)");
    }
    if let Some((g, t)) = worst_lagrange_gap {
        println!("conform: worst lagrange gap {g:.4} (trial {t})");
    }
    if let Some((g, t)) = worst_gated_lagrange {
        println!(
            "conform: worst gated lagrange gap {g:.4} (trial {t}, bound {})",
            args.cfg.lagrange_gap_bound
        );
    }
    if let Some((g, t)) = worst_greedy_gap {
        println!("conform: worst greedy gap {g:.4} (trial {t})");
    }
    if let Some((g, t)) = worst_gated_greedy {
        println!(
            "conform: worst gated greedy gap {g:.4} (trial {t}, bound {})",
            args.cfg.greedy_gap_bound
        );
    }

    if failed_trials > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
