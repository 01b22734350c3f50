//! `cpla-bench-check`: validates the observability artifacts that
//! `cpla-bench` emits, so CI fails loudly when an exporter regresses
//! instead of committing a broken trace.
//!
//! ```text
//! cpla-bench-check --trace t.json --metrics m.txt \
//!                  --bench BENCH_cpla.json [--baseline BENCH_cpla.json]
//! ```
//!
//! Exit codes: 0 when every check passes (or on `--help`), 1 when a
//! check fails, 2 on a usage error (an unknown flag, a flag without its
//! value, nothing to check, `--baseline` without `--bench`), matching
//! `cpla-bench`, `cpla-conform` and `cpla-audit`.
//!
//! Checks, in order:
//!
//! 1. the Chrome trace parses (via the hand-rolled `conform::json`
//!    reader), has a non-empty `traceEvents` array, well-formed events,
//!    and mentions every pipeline stage at least once;
//! 2. every metrics sample line parses as `name{labels} value` with a
//!    finite value, and the per-stage wall metric is present;
//! 3. `BENCH_cpla.json` parses, carries `schema` 4, every mode's
//!    `stages` object has exactly the eight pipeline stage keys, and
//!    every mode's `peak_alloc_bytes` is a number when `alloc_stats`
//!    is `true` and `null`/absent when it is `false`;
//! 4. with `--baseline`, the baseline also carries `schema` 4, the
//!    bench report's mode labels and stage keys match it, and so does
//!    every mode's [`QUALITY_FIELDS`] value, exactly. Those fields are
//!    deterministic across thread counts and hosts; wall-clock, stage
//!    and allocator numbers are machine-dependent and stay unchecked.

use std::process::ExitCode;

use conform::json::{self, Value};
use flow::Stage;

/// The `BENCH_cpla.json` schema this checker reads, in both the report
/// and its baseline.
const SCHEMA: u64 = 4;

/// Per-mode fields that `--baseline` compares exactly: the run's
/// quality and shape, which no thread count or host may change.
const QUALITY_FIELDS: [&str; 8] = [
    "avg_tcp_initial",
    "avg_tcp_final",
    "max_tcp_final",
    "wire_overflow",
    "via_overflow",
    "via_count",
    "rounds",
    "released",
];

const USAGE: &str = "usage: cpla-bench-check [--trace FILE] [--metrics FILE] \
                     [--bench FILE] [--baseline FILE]";

struct Args {
    trace: Option<String>,
    metrics: Option<String>,
    bench: Option<String>,
    baseline: Option<String>,
}

/// Parses the command line; `Ok(None)` asks for the usage text.
fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        trace: None,
        metrics: None,
        bench: None,
        baseline: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let slot = match arg.as_str() {
            "--trace" => &mut args.trace,
            "--metrics" => &mut args.metrics,
            "--bench" => &mut args.bench,
            "--baseline" => &mut args.baseline,
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown flag `{other}`")),
        };
        *slot = Some(it.next().ok_or_else(|| format!("{arg} needs a value"))?);
    }
    if args.trace.is_none() && args.metrics.is_none() && args.bench.is_none() {
        return Err(String::from(
            "nothing to check: pass at least one of --trace/--metrics/--bench",
        ));
    }
    if args.baseline.is_some() && args.bench.is_none() {
        return Err(String::from("--baseline requires --bench"));
    }
    Ok(Some(args))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Chrome `trace_event` sanity: shape of the container and of each event.
fn check_trace(path: &str) -> Result<String, String> {
    let root = json::parse(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: missing `traceEvents` array"))?;
    if events.is_empty() {
        return Err(format!("{path}: `traceEvents` is empty"));
    }
    let mut complete = 0usize;
    let mut seen: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: event {i} has no string `name`"))?;
        let ph = ev
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: event {i} has no string `ph`"))?;
        ev.get("pid")
            .and_then(Value::as_num)
            .ok_or_else(|| format!("{path}: event {i} has no numeric `pid`"))?;
        if ph == "X" {
            for key in ["ts", "dur"] {
                let n = ev
                    .get(key)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("{path}: event {i} has no numeric `{key}`"))?;
                if !n.is_finite() || n < 0.0 {
                    return Err(format!("{path}: event {i} `{key}` = {n} is not a duration"));
                }
            }
            complete += 1;
            if !seen.iter().any(|s| s == name) {
                seen.push(name.to_string());
            }
        }
    }
    for stage in Stage::ALL {
        if !seen.iter().any(|n| n == stage.name()) {
            return Err(format!(
                "{path}: no complete event for stage `{}`",
                stage.name()
            ));
        }
    }
    Ok(format!(
        "trace {path}: {} events ({complete} complete), all {} stages present",
        events.len(),
        Stage::ALL.len()
    ))
}

/// Flat-text metrics sanity: every sample line is `name{labels} value`.
fn check_metrics(path: &str) -> Result<String, String> {
    let body = read(path)?;
    let mut samples = 0usize;
    let mut has_stage_wall = false;
    for (lineno, line) in body.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |what: &str| format!("{path}:{}: {what}: `{line}`", lineno + 1);
        let (head, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| bad("no value separator"))?;
        let v: f64 = value.parse().map_err(|_| bad("value is not a number"))?;
        if !v.is_finite() {
            return Err(bad("value is not finite"));
        }
        let name = head.split('{').next().unwrap_or(head);
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        {
            return Err(bad("metric name is not prometheus-clean"));
        }
        if head.contains('{') && !head.ends_with('}') {
            return Err(bad("unterminated label set"));
        }
        if name == "cpla_stage_wall_seconds" {
            has_stage_wall = true;
        }
        samples += 1;
    }
    if samples == 0 {
        return Err(format!("{path}: no metric samples"));
    }
    if !has_stage_wall {
        return Err(format!("{path}: missing cpla_stage_wall_seconds samples"));
    }
    Ok(format!("metrics {path}: {samples} samples parse"))
}

/// Sorted stage-key list of one mode's `stages` object.
fn stage_keys(mode: &Value) -> Result<Vec<String>, String> {
    match mode.get("stages") {
        Some(Value::Obj(pairs)) => {
            let mut keys: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
            keys.sort();
            Ok(keys)
        }
        _ => Err(String::from("mode has no `stages` object")),
    }
}

/// The `modes` object of a bench report, label → mode.
fn modes<'a>(root: &'a Value, path: &str) -> Result<&'a [(String, Value)], String> {
    match root.get("modes") {
        Some(Value::Obj(pairs)) if !pairs.is_empty() => Ok(pairs),
        _ => Err(format!("{path}: missing or empty `modes` object")),
    }
}

/// Mode-label → sorted stage keys for a whole bench report.
fn mode_map(root: &Value, path: &str) -> Result<Vec<(String, Vec<String>)>, String> {
    modes(root, path)?
        .iter()
        .map(|(label, mode)| {
            let keys = stage_keys(mode).map_err(|e| format!("{path}: mode `{label}`: {e}"))?;
            Ok((label.clone(), keys))
        })
        .collect()
}

/// Parses a bench report and checks that it carries [`SCHEMA`].
fn parse_bench(text: &str, path: &str) -> Result<Value, String> {
    let root = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
    let schema = root
        .get("schema")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("{path}: missing numeric `schema`"))?;
    if schema != SCHEMA {
        return Err(format!(
            "{path}: unsupported schema {schema} (expected {SCHEMA})"
        ));
    }
    Ok(root)
}

/// Checks a bench report against its baseline: the same mode labels
/// and stage keys, and bit-equal [`QUALITY_FIELDS`] in every mode.
fn compare_to_baseline(
    root: &Value,
    path: &str,
    base: &Value,
    base_path: &str,
) -> Result<(), String> {
    let keys = mode_map(root, path)?;
    let base_keys = mode_map(base, base_path)?;
    if keys != base_keys {
        return Err(format!(
            "{path}: mode labels and stage keys {keys:?} != baseline {base_keys:?}"
        ));
    }
    for ((label, mode), (_, base_mode)) in modes(root, path)?.iter().zip(modes(base, base_path)?) {
        for field in QUALITY_FIELDS {
            let value = |m: &Value, p: &str| {
                m.get(field)
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("{p}: mode `{label}` has no numeric `{field}`"))
            };
            let (got, want) = (value(mode, path)?, value(base_mode, base_path)?);
            if got.to_bits() != want.to_bits() {
                return Err(format!(
                    "{path}: mode `{label}`: {field} {got} != baseline {want}"
                ));
            }
        }
    }
    Ok(())
}

fn check_bench(path: &str, baseline: Option<&str>) -> Result<String, String> {
    let root = parse_bench(&read(path)?, path)?;
    let modes = mode_map(&root, path)?;
    let mut expected: Vec<String> = Stage::ALL.iter().map(|s| s.name().to_string()).collect();
    expected.sort();
    for (label, keys) in &modes {
        if keys != &expected {
            return Err(format!(
                "{path}: mode `{label}` stage keys {keys:?} != pipeline stages {expected:?}"
            ));
        }
    }
    // `peak_alloc_bytes` must agree with the top-level `alloc_stats`
    // flag: a measured number only when the counting allocator was on,
    // `null` (or absent) when it was off. A literal 0 with the flag off
    // is the regression this check exists for — it reads as "measured,
    // allocated nothing".
    let alloc_stats = match root.get("alloc_stats") {
        Some(Value::Bool(b)) => *b,
        _ => return Err(format!("{path}: missing boolean `alloc_stats`")),
    };
    if let Some(Value::Obj(pairs)) = root.get("modes") {
        for (label, mode) in pairs {
            match (alloc_stats, mode.get("peak_alloc_bytes")) {
                (true, Some(v)) if v.as_u64().is_some() => {}
                (true, other) => {
                    return Err(format!(
                        "{path}: mode `{label}`: alloc_stats is on but \
                         `peak_alloc_bytes` is {other:?}, not a number"
                    ));
                }
                (false, None) | (false, Some(Value::Null)) => {}
                (false, Some(v)) => {
                    return Err(format!(
                        "{path}: mode `{label}`: alloc_stats is off but \
                         `peak_alloc_bytes` is {v:?} instead of null"
                    ));
                }
            }
        }
    }
    let mut summary = format!(
        "bench {path}: schema {SCHEMA}, {} mode(s), stage keys ok",
        modes.len()
    );
    if let Some(base_path) = baseline {
        let base_root = parse_bench(&read(base_path)?, base_path)?;
        compare_to_baseline(&root, path, &base_root, base_path)?;
        summary.push_str(&format!(", quality matches baseline {base_path}"));
    }
    Ok(summary)
}

fn run(args: &Args) -> Result<(), String> {
    if let Some(path) = &args.trace {
        println!("{}", check_trace(path)?);
    }
    if let Some(path) = &args.metrics {
        println!("{}", check_metrics(path)?);
    }
    if let Some(path) = &args.bench {
        println!("{}", check_bench(path, args.baseline.as_deref())?);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            eprintln!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("cpla-bench-check: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("cpla-bench-check: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-mode schema-4 bench report.
    fn report(schema: u64, wall_secs: &str, avg_tcp_final: &str) -> String {
        let stages = Stage::ALL
            .iter()
            .map(|s| format!("\"{}\":{{}}", s.name()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":{schema},\"alloc_stats\":false,\"modes\":{{\"incremental\":{{\
             \"wall_secs\":{wall_secs},\"avg_tcp_initial\":5722.628584,\
             \"avg_tcp_final\":{avg_tcp_final},\"max_tcp_final\":8153.431900,\
             \"via_overflow\":0,\"via_count\":1287,\"wire_overflow\":0,\
             \"rounds\":8,\"released\":20,\"peak_alloc_bytes\":null,\
             \"stages\":{{{stages}}}}}}}}}"
        )
    }

    fn compare(bench: &str, baseline: &str) -> Result<(), String> {
        let root = parse_bench(bench, "bench")?;
        let base = parse_bench(baseline, "baseline")?;
        compare_to_baseline(&root, "bench", &base, "baseline")
    }

    #[test]
    fn baseline_quality_fields_are_compared_exactly() {
        let bench = report(4, "0.124726", "2170.024150");
        compare(&bench, &bench).expect("an identical baseline passes");
        // Wall times are machine-dependent and stay unchecked.
        compare(&bench, &report(4, "0.5", "2170.024150")).expect("wall drift passes");
        let err = compare(&bench, &report(4, "0.124726", "2170.024151"))
            .expect_err("a doctored baseline fails");
        assert!(err.contains("avg_tcp_final"), "{err}");
    }

    #[test]
    fn a_stale_baseline_schema_fails() {
        let bench = report(4, "0.1", "2170.024150");
        let err = compare(&bench, &report(3, "0.1", "2170.024150")).expect_err("schema 3");
        assert!(err.contains("unsupported schema 3"), "{err}");
    }
}
