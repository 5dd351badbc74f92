//! `merge_cold`: the batch user's flow, one CLI-like merge per fresh
//! process.
//!
//! Each operation is a child process that parses the netlist and SDC
//! text (its set-up), then runs bind → warm-up → mergeability → cliques
//! → merge every group → emit at 2 threads. The group merges are split
//! into the program's own preliminary / refine (3-pass + other) /
//! validate stage times. The host probe runs between children. One
//! untimed single-threaded child must emit byte-identical output.

use crate::host::HostSpeed;
use crate::stats::median;
use crate::support::{
    digest, merged_texts, peak_rss_mb, ratio, text_suite, Config, RunResult, Spawned, Tally, Timed,
    WorkDir,
};
use crate::trace::{per_op_max_ms, per_op_ms, spans_from_json, spans_to_json, Tracer, OP, SETUP};
use modemerge_core::greedy_cliques;
use modemerge_core::json::Json;
use modemerge_core::merge::{MergeAllOutcome, MergeOptions, ModeInput};
use modemerge_core::session::{MergeSession, SessionInputs, StageTimings};
use modemerge_netlist::library::Library;
use modemerge_netlist::text;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

/// Prefix of the child's report line on its standard output.
const CHILD_PREFIX: &str = "MERGE_OP ";
/// Worker threads of the timed merges.
const THREADS: usize = 2;
/// Operations run even when the window is shorter.
const MIN_OPS: usize = 3;
/// An operation slower than this counts as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let (cells, modes) = if cfg.smoke { (1_000, 4) } else { (5_000, 8) };
    let suite = text_suite(cells, modes, cfg.seed);
    let work = WorkDir::new("merge_cold")?;
    work.write_suite(&suite)?;
    let names: Vec<&str> = suite.modes.iter().map(|(n, _)| n.as_str()).collect();
    std::fs::write(work.0.join("modes.list"), names.join("\n"))
        .map_err(|e| format!("modes.list: {e}"))?;

    let mut tracer = Tracer::new(Instant::now(), 0);
    let mut host = HostSpeed::start()?;
    let mut tally = Tally::default();
    let mut reports: Vec<Json> = Vec::new();
    let mut starts: Vec<Instant> = Vec::new();
    let window = Instant::now();
    while reports.len() < MIN_OPS || window.elapsed().as_secs_f64() < cfg.seconds {
        host.probe_if_due()?;
        let op = reports.len() as u64;
        let spawned = Instant::now();
        match run_child(&work.0, THREADS, op) {
            Ok(report) => {
                let spans = report
                    .get("spans")
                    .and_then(spans_from_json)
                    .ok_or("child report lacks spans")?;
                tracer.absorb(spans, tracer.offset_of(spawned));
                tally.record(check_report(&report, suite.expected_merged));
                reports.push(report);
                starts.push(spawned);
            }
            Err(e) => {
                tally.record(Err(e));
                if tally.failed >= MIN_OPS as u64 {
                    break;
                }
            }
        }
    }
    let measured_s = window.elapsed().as_secs_f64();

    // Untimed single-threaded reference: the same bytes at any thread
    // count.
    let digest_of = |r: &Json| r.get("digest").and_then(Json::as_str).map(str::to_owned);
    tally.record(run_child(&work.0, 1, u64::MAX).and_then(|reference| {
        let want = digest_of(&reference);
        if reports.iter().all(|r| digest_of(r) == want) {
            Ok(())
        } else {
            Err("merged output differs between 1 and 2 threads".into())
        }
    }));

    let num = |key: &str| -> Vec<f64> {
        reports
            .iter()
            .filter_map(|r| r.get(key).and_then(Json::as_f64))
            .collect()
    };
    let timed = |key: &str, unit: f64| -> Vec<Timed> {
        starts
            .iter()
            .zip(&reports)
            .filter_map(|(at, r)| Some((*at, r.get(key)?.as_f64()? * unit)))
            .collect()
    };
    let rss = median(&num("rss_mb"));
    let mut result = RunResult::measured(
        &timed("op_ms", 1.0),
        measured_s,
        &timed("setup_ms", 1e-3),
        rss,
        &host,
    );

    let spans = tracer.spans();
    let passes = per_op_ms(spans, &["core.pass1", "core.pass2", "core.pass3"]);
    let refine = per_op_ms(spans, &["core.refine"]);
    let refine_other: Vec<f64> = refine.iter().zip(&passes).map(|(r, p)| r - p).collect();
    let merged = median(&num("merged"));
    let hits: f64 = num("propagation_cache_hits").iter().sum();
    let propagations: f64 = num("propagations").iter().sum();
    result.layers.extend([
        (
            "core.merge_group_max_ms",
            median(&per_op_max_ms(spans, "core.merge_group")),
        ),
        ("core.three_pass_ms", median(&passes)),
        ("core.refine_other_ms", median(&refine_other)),
        ("core.groups", merged),
        (
            "core.mode_reduction_pct",
            100.0 * (modes as f64 - merged) / modes as f64,
        ),
        ("sta.analysis_ms", median(&num("analysis_ms"))),
        ("sta.analyses_run", median(&num("analyses_run"))),
        ("sta.propagations", median(&num("propagations"))),
        ("sta.memo_evictions", median(&num("memo_evictions"))),
        (
            "sta.propagation_hit_ratio",
            ratio(hits, hits + propagations),
        ),
    ]);
    host.trace(&mut tracer);
    result.spans = tracer.spans().to_vec();
    result.tally = tally;
    Ok(result)
}

/// Checks one operation's report: every group validated, the clique
/// cover the generator built in (the paper's mode reduction, exact).
fn check_report(report: &Json, expected_merged: usize) -> Result<(), String> {
    if report.get("validated").and_then(Json::as_bool) != Some(true) {
        return Err("a merged group was not validated".into());
    }
    let merged = report.get("merged").and_then(Json::as_u64);
    if merged != Some(expected_merged as u64) {
        return Err(format!(
            "merged into {merged:?} modes, expected {expected_merged}"
        ));
    }
    Ok(())
}

/// Runs one operation in a fresh process and returns its report.
fn run_child(dir: &Path, threads: usize, op: u64) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut child = Spawned(
        Command::new(exe)
            .args(["--child", "merge_op", "--threads", &threads.to_string()])
            .args(["--op", &op.to_string(), "--dir"])
            .arg(dir)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn merge child: {e}"))?,
    );
    let stdout = child.0.stdout.take().expect("stdout is piped");
    let reader = std::thread::spawn(move || std::io::read_to_string(stdout));
    let exited = child.wait_exit(OP_TIMEOUT);
    let out = reader
        .join()
        .map_err(|_| "child reader panicked".to_owned())?
        .map_err(|e| e.to_string())?;
    exited.map_err(|e| format!("merge operation: {e}"))?;
    let line = out
        .lines()
        .find_map(|l| l.strip_prefix(CHILD_PREFIX))
        .ok_or("merge child printed no report")?;
    Json::parse(line)
}

/// Child-process entry: one operation over the suite in `dir`, report
/// printed as one prefixed JSON line.
pub fn child_main(dir: &Path, threads: usize, op: u64) -> Result<(), String> {
    let report = child_op(dir, threads, op)?;
    println!("{CHILD_PREFIX}{report}");
    Ok(())
}

fn child_op(dir: &Path, threads: usize, op: u64) -> Result<Json, String> {
    let read =
        |name: &str| std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"));
    let names = read("modes.list")?;
    let netlist_text = read("design.nl")?;
    let sdc_texts: Vec<(String, String)> = names
        .lines()
        .map(|n| Ok((n.to_owned(), read(&format!("{n}.sdc"))?)))
        .collect::<Result<_, String>>()?;

    let mut t = Tracer::new(Instant::now(), 1);
    let setup = t.begin(SETUP, op);
    let netlist = t
        .time("netlist.parse", op, || {
            text::parse(&netlist_text, Library::standard())
        })
        .map_err(|e| format!("netlist: {e}"))?;
    let inputs = t
        .time("sdc.parse", op, || {
            sdc_texts
                .iter()
                .map(|(n, s)| ModeInput::parse(n.clone(), s))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("sdc: {e}"))?;
    let setup_ms = t.end(setup);

    let options = MergeOptions {
        threads,
        ..Default::default()
    };
    let root = t.begin(OP, op);
    let bound = t
        .time("sta.bind", op, || SessionInputs::bind(&netlist, &inputs))
        .map_err(|e| format!("bind: {e}"))?;
    let session = MergeSession::new(&netlist, &bound, &options);
    t.time("sta.warm_up", op, || session.warm_up());
    let graph = t.time("core.mergeability", op, || session.mergeability());
    let groups = t.time("core.cliques", op, || greedy_cliques(&graph));
    let mut outcome = MergeAllOutcome {
        merged: Vec::new(),
        groups: groups.clone(),
        reports: Vec::new(),
    };
    for group in &groups {
        let before = session.stage_timings();
        let span = t.begin("core.merge_group", op);
        let merged = session.merge_indices(group);
        t.end(span);
        lay_out_stages(&mut t, span, &before, &session.stage_timings());
        let merged = merged.map_err(|e| format!("group {group:?}: {e}"))?;
        outcome.merged.push(merged.merged);
        outcome.reports.push(merged.report);
    }
    let texts = t.time("sdc.emit", op, || merged_texts(&outcome));
    let op_ms = t.end(root);

    let timings = session.stage_timings();
    let n = |v: f64| Json::num(v);
    Ok(Json::Obj(vec![
        ("setup_ms".into(), n(setup_ms)),
        ("op_ms".into(), n(op_ms)),
        ("merged".into(), Json::count(outcome.merged.len())),
        (
            "validated".into(),
            Json::Bool(outcome.reports.iter().all(|r| r.validated)),
        ),
        (
            "digest".into(),
            Json::str(format!("{:016x}", digest(&texts))),
        ),
        ("rss_mb".into(), n(peak_rss_mb(None))),
        ("analyses_run".into(), Json::count(session.analyses_run())),
        ("analysis_ms".into(), n(timings.analysis_ns as f64 / 1e6)),
        ("propagations".into(), n(timings.propagations as f64)),
        (
            "propagation_cache_hits".into(),
            n(timings.propagation_cache_hits as f64),
        ),
        ("memo_evictions".into(), n(timings.memo_evictions as f64)),
        ("spans".into(), spans_to_json(t.spans())),
    ]))
}

/// Lays the program's own stage times for one group merge out as
/// derived spans inside it, in pipeline order: preliminary, refine
/// (3-pass passes first, the rest of refine as its self time), validate.
fn lay_out_stages(t: &mut Tracer, group: usize, before: &StageTimings, after: &StageTimings) {
    let us = |a: u64, b: u64| a.saturating_sub(b) as f64 / 1e3;
    let prelim = us(after.preliminary_ns, before.preliminary_ns);
    let refine = us(after.refine_ns, before.refine_ns);
    let validate = us(after.validate_ns, before.validate_ns);
    t.derived("core.preliminary", group, 0.0, prelim);
    let r = t.derived("core.refine", group, prelim, refine);
    let mut offset = 0.0;
    for (name, a, b) in [
        ("core.pass1", after.pass1_ns, before.pass1_ns),
        ("core.pass2", after.pass2_ns, before.pass2_ns),
        ("core.pass3", after.pass3_ns, before.pass3_ns),
    ] {
        let d = us(a, b);
        t.derived(name, r, offset, d);
        offset += d;
    }
    t.derived("core.validate", group, prelim + refine, validate);
}
