//! `benchmark` — one end-to-end and per-layer benchmark for modemerge.
//!
//! ```text
//! benchmark --workload <merge_cold|eco_edits|service_mixed|lsp_edits|all>
//!           [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--smoke]
//! ```
//!
//! One workload runs in this process and prints `metric
//! <workload>.<name> <value> <unit>` lines, then one JSON object
//! `{"correct","attempted","failed","metrics"}` as its last line: the
//! end-to-end metrics, or with `--trace 1` the per-layer ones (and the
//! trace files). `all`, `--runs K` and `--smoke` run each workload in a
//! fresh child process of this executable and aggregate. The exit code
//! is non-zero when any output check fails. See README.md.

mod eco_edits;
mod host;
mod lsp_edits;
mod merge_cold;
mod service_mixed;
mod stats;
mod support;
mod trace;

use modemerge_core::json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use support::{Config, RunResult};

/// The benchmark's declaration, the one list of workload and metric
/// names: this executable runs and reports exactly what it names.
const SPEC_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of one metric.
type Metric = (String, String);

/// What `BENCHMARK.json` declares.
#[derive(Debug)]
struct Spec {
    /// Workload names, in the order `all` runs them.
    workloads: Vec<String>,
    /// End-to-end metrics, reported by every workload.
    end_to_end: Vec<Metric>,
    /// Per-layer metrics. A `*_ms` metric a workload does not compute
    /// itself is the median over operations of the time spent in spans
    /// of that name; a layer a workload never enters reads 0.
    per_layer: Vec<Metric>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let entries = |list: &str| {
            json.get(list)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("BENCHMARK.json has no `{list}` list"))
        };
        let field = |entry: &Json, list: &str, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("BENCHMARK.json: a `{list}` entry has no `{key}`"))
        };
        let metrics = |list: &str| {
            entries(list)?
                .iter()
                .map(|m| Ok((field(m, list, "name")?, field(m, list, "unit")?)))
                .collect::<Result<Vec<Metric>, String>>()
        };
        Ok(Spec {
            workloads: entries("workloads")?
                .iter()
                .map(|w| field(w, "workloads", "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// One workload's entry point.
type Workload = fn(&Config) -> Result<RunResult, String>;

/// The workload named `name`.
fn runner(name: &str) -> Option<Workload> {
    Some(match name {
        "merge_cold" => merge_cold::run,
        "eco_edits" => eco_edits::run,
        "service_mixed" => service_mixed::run,
        "lsp_edits" => lsp_edits::run,
        _ => return None,
    })
}

const USAGE: &str =
    "usage: benchmark --workload <merge_cold|eco_edits|service_mixed|lsp_edits|all> \
                     [--seed N] [--seconds S] [--trace 0|1] [--runs K] [--smoke]";

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    smoke: bool,
    /// Internal: what a child process of a workload does.
    child: Option<Child>,
}

/// The work of a child process.
#[derive(Debug)]
enum Child {
    /// One `merge_cold` operation `(dir, threads, op)`.
    MergeOp(PathBuf, usize, u64),
    /// One host probe.
    Probe,
}

fn parse_args(argv: &[String], spec: &Spec) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: f64::NAN,
        trace: false,
        runs: 1,
        smoke: false,
        child: None,
    };
    let (mut child, mut dir, mut threads, mut op) = (None, None, 2, 0);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: `{value}` is not valid");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|&s: &f64| s > 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--runs" => args.runs = value.parse().ok().filter(|&k| k > 0).ok_or_else(bad)?,
            "--child" => child = Some(value.as_str()),
            "--dir" => dir = Some(PathBuf::from(value)),
            "--threads" => threads = value.parse().map_err(|_| bad())?,
            "--op" => op = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    match child {
        Some("merge_op") => {
            let dir = dir.ok_or("--child merge_op needs --dir")?;
            args.child = Some(Child::MergeOp(dir, threads, op));
            return Ok(args);
        }
        Some("probe") => {
            args.child = Some(Child::Probe);
            return Ok(args);
        }
        Some(other) => return Err(format!("unknown child `{other}`")),
        None => {}
    }
    if args.smoke && args.workload.is_empty() {
        args.workload = "all".into();
    }
    if args.workload != "all" && !spec.workloads.contains(&args.workload) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.seconds.is_nan() {
        args.seconds = if args.smoke { 1.0 } else { 15.0 };
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let spec = match Spec::parse(SPEC_JSON) {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let args = match parse_args(&argv, &spec) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match &args.child {
        Some(Child::MergeOp(dir, threads, op)) => {
            merge_cold::child_main(dir, *threads, *op).map(|()| true)
        }
        Some(Child::Probe) => host::child_main().map(|()| true),
        None if args.workload == "all" || args.runs > 1 => orchestrate(&args, &spec),
        None => run_one(&args, &spec),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `(name, value, unit)` rows.
type Rows = Vec<(String, f64, String)>;

fn end_to_end_rows(spec: &Spec, result: &RunResult) -> Result<Rows, String> {
    spec.end_to_end
        .iter()
        .map(|(name, unit)| {
            let value = result
                .end_to_end
                .get(name.as_str())
                .ok_or_else(|| format!("workload did not report {name}"))?;
            Ok((name.clone(), *value, unit.clone()))
        })
        .collect()
}

fn per_layer_rows(spec: &Spec, result: &RunResult) -> Rows {
    spec.per_layer
        .iter()
        .map(|(name, unit)| {
            let value = result
                .layers
                .get(name.as_str())
                .copied()
                .unwrap_or_else(|| {
                    let span = name.strip_suffix("_ms").unwrap_or(name);
                    stats::median(&trace::per_op_ms(&result.spans, &[span]))
                });
            (name.clone(), value, unit.clone())
        })
        .collect()
}

fn result_json(correct: bool, attempted: u64, failed: u64, rows: &Rows) -> Json {
    let metrics = rows
        .iter()
        .map(|(name, value, unit)| {
            (
                name.clone(),
                Json::Obj(vec![
                    ("value".into(), Json::num(*value)),
                    ("unit".into(), Json::str(unit)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::num(attempted as f64)),
        ("failed".into(), Json::num(failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Runs one workload in this process and prints its metrics.
fn run_one(args: &Args, spec: &Spec) -> Result<bool, String> {
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
    };
    let workload = args.workload.as_str();
    let run = runner(workload).ok_or_else(|| format!("workload {workload} is not implemented"))?;
    let result = run(&cfg)?;
    for e in &result.tally.errors {
        eprintln!("benchmark: {workload}: check failed: {e}");
    }
    let end_to_end = end_to_end_rows(spec, &result)?;
    let ops = result.spans.iter().filter(|s| s.name == trace::OP).count();
    println!("samples {workload} {ops} operations");
    let rows = if args.trace {
        let dir = support::target_dir()?.join("benchmark-trace");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let stem = dir.join(format!("{workload}-seed{}", args.seed));
        let events = stem.with_extension("trace.json");
        let table = trace::layer_table(workload, &result.spans);
        std::fs::write(&events, trace::trace_events(&result.spans).to_string())
            .and_then(|()| std::fs::write(stem.with_extension("layers.txt"), &table))
            .map_err(|e| format!("writing the trace: {e}"))?;
        print!("{table}");
        println!("trace {}", events.display());
        for (name, value, unit) in &end_to_end {
            println!("metric {workload}.{name}.traced {value} {unit}");
        }
        per_layer_rows(spec, &result)
    } else {
        end_to_end
    };
    for (name, value, unit) in &rows {
        println!("metric {workload}.{name} {value} {unit}");
    }
    let correct = result.tally.failed == 0 && result.tally.attempted > 0;
    println!(
        "{}",
        result_json(correct, result.tally.attempted, result.tally.failed, &rows)
    );
    Ok(correct)
}

/// Runs each selected workload `--runs` times in fresh child processes
/// (untraced, then traced with `--trace 1`) and aggregates: medians in
/// the final JSON, and with several runs the quartiles and spread of
/// every metric.
fn orchestrate(args: &Args, spec: &Spec) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let workloads: Vec<&str> = if args.workload == "all" {
        spec.workloads.iter().map(String::as_str).collect()
    } else {
        vec![args.workload.as_str()]
    };
    let passes: &[bool] = if args.trace { &[false, true] } else { &[false] };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut combined: Rows = Vec::new();
    for workload in workloads {
        for &traced in passes {
            let mut samples: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
            for _ in 0..args.runs {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }]);
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let out = cmd
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawn {workload}: {e}"))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let last = stdout.lines().last().unwrap_or("");
                if args.runs == 1 {
                    for line in stdout.lines().filter(|l| *l != last) {
                        println!("{line}");
                    }
                }
                let Some(report) = Json::parse(last).ok().filter(|_| out.status.success()) else {
                    eprintln!("benchmark: {workload} run failed ({})", out.status);
                    correct = false;
                    continue;
                };
                correct &= report.get("correct").and_then(Json::as_bool) == Some(true);
                attempted += report.get("attempted").and_then(Json::as_u64).unwrap_or(0);
                failed += report.get("failed").and_then(Json::as_u64).unwrap_or(0);
                if let Some(Json::Obj(metrics)) = report.get("metrics") {
                    for (name, m) in metrics {
                        let entry = samples.entry(name.clone()).or_default();
                        entry
                            .0
                            .push(m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN));
                        entry.1 = m
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_owned();
                    }
                }
            }
            for (name, (values, unit)) in samples {
                let median = stats::median(&values);
                if args.runs > 1 {
                    let (q1, q3) = stats::quartiles(&values);
                    println!(
                        "runs {workload}.{name} median={median} q1={q1} q3={q3} spread={:.4} {unit} (n={})",
                        stats::spread(&values),
                        values.len()
                    );
                }
                combined.push((format!("{workload}.{name}"), median, unit));
            }
        }
    }
    println!("{}", result_json(correct, attempted, failed, &combined));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        Spec::parse(SPEC_JSON).expect("BENCHMARK.json parses")
    }

    #[test]
    fn every_declared_workload_is_implemented() {
        for w in &spec().workloads {
            assert!(runner(w).is_some(), "{w}");
        }
    }

    #[test]
    fn workloads_report_exactly_the_declared_end_to_end_metrics() {
        let spec = spec();
        let timed = [(std::time::Instant::now(), 1.0)];
        let result = RunResult::measured(&timed, 1.0, &timed, 1.0, &host::HostSpeed::default());
        let reported: Vec<&str> = result.end_to_end.keys().copied().collect();
        let mut declared: Vec<&str> = spec.end_to_end.iter().map(|(n, _)| n.as_str()).collect();
        declared.sort_unstable();
        assert_eq!(reported, declared);
        for name in result.layers.keys() {
            assert!(spec.per_layer.iter().any(|(n, _)| n == name), "{name}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let spec = spec();
        let mut names: Vec<&String> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|(n, _)| n)
            .collect();
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn arguments_are_checked_against_the_declared_workloads() {
        let argv = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        let spec = spec();
        let args = parse_args(&argv("--workload lsp_edits --seed 3 --trace 1"), &spec).unwrap();
        assert_eq!((args.seed, args.trace), (3, true));
        assert!(parse_args(&argv("--workload nope"), &spec).is_err());
        assert_eq!(parse_args(&argv("--smoke"), &spec).unwrap().workload, "all");
    }
}
