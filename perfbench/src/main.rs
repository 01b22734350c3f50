//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload table2 --seed 0 --seconds 20 --trace 0
//! ```
//!
//! One run repeats passes over the workload's designs until `--seconds`
//! have elapsed, and makes at least the workload's minimum (two or three
//! passes, so every answer is checked against a repeat). With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it alternates untraced and traced passes and reports the
//! per-layer metrics. The last line of standard output is the result
//! object; `perfbench/out/` receives the full record and, when traced,
//! the spans. See `perfbench/README.md`.

mod json;
mod run;
mod stats;
mod trace;
mod workload;

use std::fs;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

use json::Value;
use run::{run_design, DesignRun};
use trace::Trace;
use workload::Workload;

const USAGE: &str = "usage: perfbench --workload table2|scale-100k|small-uncongested \
                     --seed N --seconds S --trace 0|1 [--reseed-named]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Let the seed re-seed the named `table2`/`scale-100k` designs too.
    reseed_named: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        reseed_named: false,
    };
    let mut it = argv.iter().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got {v}")),
                }
            }
            "--reseed-named" => args.reseed_named = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One timed figure of a design run.
type DesignTime = fn(&DesignRun) -> f64;

/// One pass over every design of the workload.
struct Pass {
    runs: Vec<DesignRun>,
    /// Spans of a traced pass.
    trace: Option<Trace>,
}

impl Pass {
    fn sum(&self, f: impl Fn(&DesignRun) -> f64) -> f64 {
        self.runs.iter().map(f).sum()
    }
}

/// A metric as the result line reports it.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Median over passes of a per-pass figure (0 without passes).
fn median_of(passes: &[&Pass], f: impl Fn(&Pass) -> f64) -> f64 {
    let v: Vec<f64> = passes.iter().map(|p| f(p)).collect();
    stats::median(&v).unwrap_or(0.0)
}

/// Runs with a CPLA report (the quality figures need one).
fn reported(pass: &Pass) -> impl Iterator<Item = (&DesignRun, &cpla::CplaReport)> {
    pass.runs
        .iter()
        .filter_map(|r| r.report.as_ref().map(|rep| (r, rep)))
}

/// Geometric mean over designs of `final/initial` for one metric.
fn ratio_geomean(pass: &Pass, f: impl Fn(&cpla::Metrics) -> f64) -> f64 {
    let ratios: Vec<f64> = reported(pass)
        .map(|(_, rep)| f(&rep.final_metrics) / f(&rep.initial_metrics))
        .collect();
    stats::geomean(&ratios).unwrap_or(f64::NAN)
}

/// Mean CPLA final value over mean TILA value: the Table 2 ratio row.
fn sdp_over_tila(pass: &Pass, f: impl Fn(&cpla::Metrics) -> f64) -> f64 {
    let (mut sdp, mut tila) = (0.0, 0.0);
    for (run, rep) in reported(pass) {
        sdp += f(&rep.final_metrics);
        tila += f(&run.tila);
    }
    sdp / tila
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn end_to_end(passes: &[&Pass]) -> Vec<Metric> {
    let first = passes[0];
    vec![
        metric(
            "assign_s",
            median_of(passes, |p| p.sum(|r| r.assign_s)),
            "s",
        ),
        metric(
            "setup_s",
            median_of(passes, |p| p.sum(DesignRun::setup_s)),
            "s",
        ),
        metric(
            "avg_tcp_ratio",
            ratio_geomean(first, |m| m.avg_tcp),
            "ratio",
        ),
        metric(
            "max_tcp_ratio",
            ratio_geomean(first, |m| m.max_tcp),
            "ratio",
        ),
        metric("sdp_tila_avg", sdp_over_tila(first, |m| m.avg_tcp), "ratio"),
        metric("sdp_tila_max", sdp_over_tila(first, |m| m.max_tcp), "ratio"),
        metric(
            "via_ratio",
            ratio_geomean(first, |m| m.via_count as f64),
            "ratio",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(w: &Workload, traced: &[&Pass], untraced: &[&Pass]) -> Vec<Metric> {
    let first = traced[0];
    let span_total =
        |name: &str| median_of(traced, |p| p.trace.as_ref().map_or(0.0, |t| t.total(name)));
    let count = |f: &dyn Fn(&cpla::CplaReport) -> f64| reported(first).map(|(_, r)| f(r)).sum();

    let mut m = vec![
        metric("ispd.generate_s", span_total("ispd.generate"), "s"),
        metric(
            "route.route_netlist_s",
            span_total("route.route_netlist"),
            "s",
        ),
        metric(
            "route.initial_assignment_s",
            span_total("route.initial_assignment"),
            "s",
        ),
        metric("timing.analyze_s", span_total("timing.analyze"), "s"),
        metric("route.segments", first.sum(|r| r.segments as f64), "count"),
    ];
    for stage in flow::Stage::ALL {
        let name = format!("cpla.{}", stage.name());
        m.push(metric(format!("{name}_s"), span_total(&name), "s"));
    }
    // The rest of the traced CPLA wall: engine work outside any stage
    // (input validation, context set-up, incumbent restore) plus the
    // observer's own leaf delivery.
    m.push(metric("cpla.assign_s", span_total("cpla.run"), "s"));
    m.push(metric(
        "cpla.unattributed_s",
        median_of(traced, |p| {
            p.trace.as_ref().map_or(0.0, |t| {
                t.self_total("cpla.run") + t.self_total("cpla.round")
            })
        }),
        "s",
    ));

    let stats_sum = |f: fn(&cpla::PipelineStats) -> usize| count(&|r| f(&r.stats) as f64);
    let accepted = stats_sum(|s| s.gate_accepted);
    let rejected = stats_sum(|s| s.gate_rejected);
    let solved = stats_sum(|s| s.partitions_solved);
    let reused = stats_sum(|s| s.partitions_reused);
    let designs = reported(first).count() as f64;
    let improved = count(&|r| {
        f64::from(u8::from(
            r.final_metrics.avg_tcp < r.initial_metrics.avg_tcp,
        ))
    });
    m.extend([
        metric("cpla.rounds", stats_sum(|s| s.rounds), "count"),
        metric(
            "cpla.rounds_improved",
            count(&|r| r.rounds.iter().filter(|x| x.improved).count() as f64),
            "count",
        ),
        metric("cpla.gate_accepted", accepted, "count"),
        metric("cpla.gate_rejected", rejected, "count"),
        metric(
            "cpla.gate_accept_rate",
            ratio(accepted, accepted + rejected),
            "ratio",
        ),
        metric("cpla.partitions_solved", solved, "count"),
        metric("cpla.partitions_reused", reused, "count"),
        metric(
            "cpla.cache_hit_rate",
            ratio(reused, solved + reused),
            "ratio",
        ),
        metric("cpla.improved_frac", ratio(improved, designs), "ratio"),
        metric(
            "cpla.overflow_added",
            first.sum(|r| r.overflow_added as f64),
            "count",
        ),
    ]);

    // Solve leaves as the engine reported them, pooled over designs.
    let leaf_s: Vec<f64> = first
        .runs
        .iter()
        .flat_map(|r| r.solve_leaves.iter().map(|l| l.dur_secs))
        .collect();
    let leaf_q = |q: f64| stats::quantile(&leaf_s, q);
    let solve_wall = first.trace.as_ref().map_or(0.0, |t| t.total("cpla.solve"));
    m.extend([
        metric("cpla.solve_leaves", leaf_s.len() as f64, "count"),
        metric("cpla.solve_leaf_s_p50", leaf_q(0.5), "s"),
        metric("cpla.solve_leaf_s_p95", leaf_q(0.95), "s"),
        metric("cpla.solve_leaf_s_max", leaf_q(1.0), "s"),
        metric(
            "cpla.solve_parallel_eff",
            ratio(
                leaf_s.iter().sum(),
                w.cpla.threads.max(1) as f64 * solve_wall,
            ),
            "ratio",
        ),
    ]);

    // The round-1 solver replay, pooled over designs.
    let leaves: Vec<run::LeafReplay> = first
        .runs
        .iter()
        .filter_map(|r| r.replay.as_ref())
        .flat_map(|r| r.leaves.iter().copied())
        .collect();
    let dims: Vec<f64> = leaves.iter().map(|l| l.dim as f64).collect();
    let vars: Vec<f64> = leaves.iter().map(|l| l.vars as f64).collect();
    let iters: Vec<f64> = leaves.iter().map(|l| l.iters as f64).collect();
    let cube = |x: usize| (x as f64).powi(3);
    let dim_sum: f64 = dims.iter().sum();
    let slack_sum: f64 = leaves.iter().map(|l| (l.dim - l.vars) as f64).sum();
    let dim3: f64 = leaves.iter().map(|l| cube(l.dim)).sum();
    let vars3: f64 = leaves.iter().map(|l| cube(l.vars)).sum();
    let replay_s: f64 = first
        .runs
        .iter()
        .filter_map(|r| r.replay.as_ref())
        .map(|r| r.secs)
        .sum();
    m.extend([
        metric("solver.leaf_dim_p50", stats::quantile(&dims, 0.5), "count"),
        metric("solver.leaf_dim_p95", stats::quantile(&dims, 0.95), "count"),
        metric("solver.leaf_dim_max", stats::quantile(&dims, 1.0), "count"),
        metric(
            "solver.leaf_vars_p95",
            stats::quantile(&vars, 0.95),
            "count",
        ),
        metric("solver.slack_share", ratio(slack_sum, dim_sum), "ratio"),
        metric("solver.dim3_over_vars3", ratio(dim3, vars3), "ratio"),
        metric("solver.iters_p50", stats::quantile(&iters, 0.5), "count"),
        metric("solver.iters_p95", stats::quantile(&iters, 0.95), "count"),
        metric(
            "solver.capped",
            leaves.iter().filter(|l| l.capped).count() as f64,
            "count",
        ),
        metric(
            "solver.converged_frac",
            ratio(
                leaves.iter().filter(|l| l.converged).count() as f64,
                leaves.len() as f64,
            ),
            "ratio",
        ),
        metric(
            "solver.psd_work",
            leaves.iter().map(|l| l.iters as f64 * cube(l.dim)).sum(),
            "ops",
        ),
        metric("solver.replay_s", replay_s, "s"),
        metric("tila.run_s", span_total("tila.run"), "s"),
        metric("tila.rounds", first.sum(|r| r.tila_rounds as f64), "count"),
    ]);

    let untraced_assign = median_of(untraced, |p| p.sum(|r| r.assign_s));
    let traced_assign_wall = median_of(traced, |p| p.sum(|r| r.assign_s));
    m.push(metric(
        "trace.overhead_frac",
        ratio(traced_assign_wall, untraced_assign) - 1.0,
        "ratio",
    ));
    m
}

/// The repository root as this binary was built from it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
}

/// `git` revision from `.git` when the tree is a clone, else `unknown`.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => fs::read_to_string(git.join(r))
            .map_or_else(|_| format!("unknown ({r})"), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

/// FNV-1a over the workspace sources (`crates/**/*.rs` and manifests,
/// in path order), which identifies the measured code even where the
/// checkout carries no `.git`.
fn source_hash(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf29ce484222325u64;
    for f in &files {
        let rel = f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(fs::read(f).unwrap_or_default()) {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    }
    format!("{h:016x} ({} files)", files.len())
}

fn metrics_value(ms: &[Metric]) -> Value {
    Value::obj(ms.iter().map(|m| {
        (
            m.name.as_str(),
            Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
        )
    }))
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(w) = workload::build(&args.workload, args.seed, args.reseed_named) else {
        eprintln!(
            "perfbench: unknown workload `{}`; valid: {}",
            args.workload,
            workload::NAMES.join(", ")
        );
        std::process::exit(2);
    };

    let epoch = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0u64;
    loop {
        let index = passes.len();
        // Traced runs alternate untraced and traced passes; the first
        // traced pass also replays the round-1 solves.
        let traced = args.trace && index % 2 == 1;
        let replay = traced && index == 1;
        let mut trace = traced.then(|| Trace::new(epoch));
        let mut runs = Vec::with_capacity(w.designs.len());
        for d in 0..w.designs.len() {
            let mut r = run_design(
                &w,
                d,
                trace.as_mut(),
                w.check_one_thread && index == 0,
                replay,
            );
            if let Some(first) = passes.first().map(|p: &Pass| &p.runs[d]) {
                if r.failure.is_none() && r.fingerprint != first.fingerprint {
                    r.failure = Some("answer differs from the first pass".into());
                }
            }
            attempted += 1;
            if let Some(f) = &r.failure {
                failures.push(format!("pass {index} design {}: {f}", r.name));
            }
            runs.push(r);
        }
        passes.push(Pass { runs, trace });
        if passes.len() >= w.min_passes && epoch.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) =
        passes.iter().partition(|p| p.trace.is_some());
    let metrics = if args.trace {
        per_layer(&w, &traced, &untraced)
    } else {
        end_to_end(&untraced)
    };
    let failed = failures.len() as u64;
    let result = Value::obj([
        ("correct", Value::Bool(failed == 0)),
        ("attempted", Value::Num(attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        ("metrics", metrics_value(&metrics)),
    ]);

    // Human-readable report, then the record file, then the result line.
    let root = repo_root();
    let provenance = Value::obj([
        ("git_revision", Value::str(git_revision(&root))),
        ("source_hash", Value::str(source_hash(&root))),
        (
            "argv",
            Value::Arr(argv.iter().map(|a| Value::str(a.as_str())).collect()),
        ),
        (
            "available_parallelism",
            Value::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("threads", Value::Num(w.cpla.threads as f64)),
        ("workload", Value::str(w.name)),
        ("seed", Value::Num(args.seed as f64)),
        ("reseed_named", Value::Bool(args.reseed_named)),
        ("designs", Value::Num(w.designs.len() as f64)),
        ("passes", Value::Num(passes.len() as f64)),
        ("traced_passes", Value::Num(traced.len() as f64)),
        ("wall_s", Value::Num(epoch.elapsed().as_secs_f64())),
    ]);
    println!("perfbench {}", provenance.render());
    for m in &metrics {
        println!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let time_of: [(&str, DesignTime); 3] = [
        ("assign_s", |r| r.assign_s),
        ("setup_s", DesignRun::setup_s),
        ("tila_s", |r| r.tila_s),
    ];
    // Per-design samples of the untraced passes, then per-pass sums.
    let per_design = Value::obj(time_of.map(|(k, f)| {
        let v: Vec<f64> = untraced.iter().flat_map(|p| p.runs.iter().map(f)).collect();
        println!("  {k:<9} per design {}", stats::describe(&v));
        let tail = stats::tail_percentile(&v);
        (
            k,
            Value::obj([
                ("n", Value::Num(v.len() as f64)),
                ("p50", stats::median(&v).map_or(Value::Null, Value::Num)),
                (
                    "tail_pct",
                    tail.map_or(Value::Null, |(p, _)| Value::Num(f64::from(p))),
                ),
                (
                    "tail_value",
                    tail.map_or(Value::Null, |(_, x)| Value::Num(x)),
                ),
            ]),
        )
    }));
    let per_pass = Value::obj(time_of.map(|(k, f)| {
        let sums: Vec<f64> = passes.iter().map(|p| p.sum(f)).collect();
        let shown: Vec<String> = sums.iter().map(|x| format!("{x:.3}")).collect();
        println!("  {k:<9} per pass [{}]", shown.join(", "));
        (k, Value::Arr(sums.into_iter().map(Value::Num).collect()))
    }));
    for f in &failures {
        println!("  FAILED {f}");
    }

    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let stem = format!("{}-seed{}-trace{}", w.name, args.seed, u8::from(args.trace));
    let record = Value::obj([
        ("provenance", provenance),
        ("result", result.clone()),
        ("per_design", per_design),
        ("per_pass", per_pass),
        (
            "failures",
            Value::Arr(failures.iter().map(|f| Value::str(f.as_str())).collect()),
        ),
    ]);
    if let Err(e) = write_outputs(&out_dir, &stem, &record, &passes) {
        eprintln!("perfbench: cannot write {}: {e}", out_dir.display());
    }
    println!("{}", result.render());
}

fn write_outputs(dir: &Path, stem: &str, record: &Value, passes: &[Pass]) -> std::io::Result<()> {
    fs::create_dir_all(dir)?;
    fs::write(dir.join(format!("{stem}.json")), record.render() + "\n")?;
    if passes.iter().any(|p| p.trace.is_some()) {
        let mut out = BufWriter::new(fs::File::create(dir.join(format!("{stem}.spans.jsonl")))?);
        for (i, p) in passes.iter().enumerate() {
            if let Some(t) = &p.trace {
                t.write_jsonl(i, &mut out)?;
            }
        }
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_parses_back_with_the_contract_keys() {
        let ms = [metric("assign_s", 1.25, "s"), metric("setup_s", 0.5, "s")];
        let line = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(30.0)),
            ("failed", Value::Num(0.0)),
            ("metrics", metrics_value(&ms)),
        ])
        .render();
        let v = json::parse(&line).unwrap();
        let Value::Obj(pairs) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let a = v.get("metrics").and_then(|m| m.get("assign_s")).unwrap();
        assert_eq!(a.get("value").and_then(Value::as_num), Some(1.25));
        assert_eq!(a.get("unit"), Some(&Value::str("s")));
    }

    #[test]
    fn args_are_checked() {
        let argv = |s: &str| -> Vec<String> {
            std::iter::once("perfbench")
                .chain(s.split_whitespace())
                .map(String::from)
                .collect()
        };
        let a = parse_args(&argv("--workload table2 --seed 3 --seconds 5 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("table2", 3, 5.0, true)
        );
        assert!(parse_args(&argv("--workload table2 --trace 2")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload table2 --bogus 1")).is_err());
    }
}
