//! `eco_edits`: the incremental loop.
//!
//! The suite is installed cold into an [`EcoEngine`] (the set-up, five
//! times, median reported). Then seeded cumulative edits run for the
//! window: 70% value edits (clock latency or input delay, within the
//! merge tolerance), 10% identical resubmits and 20% `set_false_path`
//! additions or removals. One operation parses the edited suite, binds
//! it and re-merges it through the engine; the host probe runs between
//! operations. Every 30th edit and the last must be byte-identical to
//! an untimed cold merge.

use crate::host::HostSpeed;
use crate::stats::median;
use crate::support::{
    digest, join_lines, merged_texts, peak_rss_mb, ratio, set_value, split_lines, text_suite,
    Config, RunResult, Tally, TextSuite,
};
use crate::trace::{Tracer, OP, SETUP};
use modemerge_core::eco::input_fingerprint;
use modemerge_core::merge::{MergeOptions, ModeInput};
use modemerge_core::session::{MergeSession, SessionInputs};
use modemerge_core::{EcoCounters, EcoEngine, EcoRunReport};
use modemerge_netlist::library::Library;
use modemerge_netlist::{text, Netlist};
use modemerge_workload::rng::XorShift;
use std::time::Instant;

/// Cold installs per run; their scaled median is `setup_s`.
const SETUPS: u64 = 5;
/// Operations run even when the window is shorter.
const MIN_OPS: u64 = 10;
/// Every this many edits is checked against a cold merge.
const CHECK_EVERY: u64 = 30;

/// One edit of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    /// A clock-latency or input-delay value changed.
    Value,
    /// The suite resubmitted unchanged.
    Noop,
    /// A `set_false_path` added.
    ExceptionAdd,
    /// A previously added `set_false_path` removed.
    ExceptionRemove,
}

/// The seeded, cumulative edit sequence over one suite's SDC lines.
#[derive(Debug, Clone)]
pub struct EditSchedule {
    rng: XorShift,
    banks: usize,
    regs_per_bank: usize,
    io_ports: usize,
    /// The generated `mclk1` latency of every mode (its family value).
    base_latency: Vec<f64>,
    /// `(mode, line)` of every false path added and not yet removed.
    added: Vec<(usize, String)>,
}

impl EditSchedule {
    /// A schedule over `suite`, drawn from `seed`.
    pub fn new(seed: u64, suite: &TextSuite) -> Self {
        let base_latency = suite
            .modes
            .iter()
            .map(|(_, sdc)| {
                sdc.lines()
                    .find(|l| l.starts_with("set_clock_latency") && l.contains("mclk1"))
                    .and_then(|l| l.split(' ').nth(1))
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(1.0)
            })
            .collect();
        Self {
            rng: XorShift::seed_from_u64(seed ^ 0xec0_ed17),
            banks: suite.design.banks,
            regs_per_bank: suite.design.regs_per_bank,
            io_ports: suite.design.io_ports(),
            base_latency,
            added: Vec::new(),
        }
    }

    /// Applies the next edit to `modes` (one line list per mode).
    pub fn apply(&mut self, modes: &mut [Vec<String>]) -> Edit {
        let draw = self.rng.gen_range(0..100);
        let m = self.rng.gen_range(0..modes.len());
        if draw < 70 {
            // Fresh values around the generated ones, so cumulative
            // edits never drift out of the merge tolerance.
            let jitter = 2.0 * self.rng.gen_f64() - 1.0;
            let edited = if self.rng.gen_bool() {
                let v = self.base_latency[m] * (1.0 + 0.03 * jitter);
                set_value(&mut modes[m], "set_clock_latency", "mclk1", v)
            } else {
                let port = format!("[get_ports din{}]", self.rng.gen_range(0..self.io_ports));
                set_value(
                    &mut modes[m],
                    "set_input_delay",
                    &port,
                    1.5 * (1.0 + 0.05 * jitter),
                )
            };
            assert!(
                edited,
                "generated modes carry latency and input-delay lines"
            );
            Edit::Value
        } else if draw < 80 {
            Edit::Noop
        } else if !self.added.is_empty() && self.rng.gen_bool() {
            let (mode, line) = self.added.remove(self.rng.gen_range(0..self.added.len()));
            let at = modes[mode]
                .iter()
                .rposition(|l| *l == line)
                .expect("added false path is still present");
            modes[mode].remove(at);
            Edit::ExceptionRemove
        } else {
            let line = format!(
                "set_false_path -to [get_pins reg_{}_{}/D]",
                self.rng.gen_range(0..self.banks),
                self.rng.gen_range(0..self.regs_per_bank)
            );
            modes[m].push(line.clone());
            self.added.push((m, line));
            Edit::ExceptionAdd
        }
    }
}

/// Which warm path an incremental run took.
fn tier(report: &EcoRunReport) -> &'static str {
    let c = &report.counters;
    if c.groups_recomputed > 0 || !report.warm {
        "recompute"
    } else if c.tail_replays > 0 {
        "tail"
    } else {
        "replay"
    }
}

fn parse_modes(texts: &[(String, String)]) -> Result<Vec<ModeInput>, String> {
    texts
        .iter()
        .map(|(n, s)| ModeInput::parse(n.clone(), s).map_err(|e| format!("{n}: {e}")))
        .collect()
}

/// Cold merge of `texts` (the reference a warm run must equal).
fn cold_digest(
    netlist: &Netlist,
    texts: &[(String, String)],
    options: &MergeOptions,
) -> Result<u64, String> {
    let inputs = parse_modes(texts)?;
    let bound = SessionInputs::bind(netlist, &inputs).map_err(|e| e.to_string())?;
    let session = MergeSession::new(netlist, &bound, options);
    session.warm_up();
    let outcome = session.merge_all().map_err(|e| e.to_string())?;
    Ok(digest(&merged_texts(&outcome)))
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let (cells, modes) = if cfg.smoke { (1_000, 8) } else { (8_000, 16) };
    let suite = text_suite(cells, modes, cfg.seed);
    let options = MergeOptions {
        threads: 2,
        ..Default::default()
    };
    let fp = input_fingerprint(&suite.netlist);
    let mut t = Tracer::new(Instant::now(), 0);
    let mut host = HostSpeed::start()?;

    let mut setups = Vec::new();
    let mut installed = None;
    for k in 0..SETUPS {
        // One installed engine at a time, so peak memory is the loop's.
        drop(installed.take());
        host.probe()?;
        let id = u64::MAX - k;
        let started = Instant::now();
        let root = t.begin(SETUP, id);
        let netlist = t
            .time("netlist.parse", id, || {
                text::parse(&suite.netlist, Library::standard())
            })
            .map_err(|e| format!("netlist: {e}"))?;
        let inputs = t.time("sdc.parse", id, || parse_modes(&suite.modes))?;
        let bound = t
            .time("sta.bind", id, || SessionInputs::bind(&netlist, &inputs))
            .map_err(|e| e.to_string())?;
        let mut engine = EcoEngine::new();
        {
            let session = MergeSession::new(&netlist, &bound, &options);
            t.time("sta.warm_up", id, || session.warm_up());
            t.time("core.eco.install", id, || {
                session.rebind_delta(&mut engine, fp, false)
            })
            .map_err(|e| e.to_string())?;
        }
        setups.push((started, t.end(root) / 1e3));
        installed = Some((netlist, engine));
    }
    let (netlist, mut engine) = installed.expect("at least one set-up");

    let names: Vec<&str> = suite.modes.iter().map(|(n, _)| n.as_str()).collect();
    let mut lines: Vec<Vec<String>> = suite.modes.iter().map(|(_, s)| split_lines(s)).collect();
    let mut schedule = EditSchedule::new(cfg.seed, &suite);
    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    let mut tiers: Vec<(&'static str, f64)> = Vec::new();
    let mut counters = EcoCounters::default();
    let mut checks: Vec<(Vec<(String, String)>, u64)> = Vec::new();
    let mut last = None;
    let mut merged_modes = 0;
    let window = Instant::now();
    let mut op = 0u64;
    while op < MIN_OPS || window.elapsed().as_secs_f64() < cfg.seconds {
        host.probe_if_due()?;
        schedule.apply(&mut lines);
        let texts: Vec<(String, String)> = names
            .iter()
            .zip(&lines)
            .map(|(n, l)| ((*n).to_owned(), join_lines(l)))
            .collect();
        let started = Instant::now();
        let root = t.begin(OP, op);
        let result = (|| {
            let inputs = t.time("sdc.parse", op, || parse_modes(&texts))?;
            let bound = t
                .time("sta.bind", op, || SessionInputs::bind(&netlist, &inputs))
                .map_err(|e| e.to_string())?;
            let session = MergeSession::new(&netlist, &bound, &options);
            let span = t.begin("core.eco.remerge", op);
            let remerged = session.rebind_delta(&mut engine, fp, false);
            let ms = t.end(span);
            let (outcome, report) = remerged.map_err(|e| e.to_string())?;
            let merged = t.time("sdc.emit", op, || merged_texts(&outcome));
            Ok::<_, String>((merged, report, ms))
        })();
        let latency = t.end(root);
        match result {
            Ok((merged, report, remerge_ms)) => {
                latencies.push((started, latency));
                tiers.push((tier(&report), remerge_ms));
                counters.accumulate(&report.counters);
                merged_modes = merged.len();
                let d = digest(&merged);
                if (op + 1).is_multiple_of(CHECK_EVERY) {
                    checks.push((texts, d));
                    last = None;
                } else {
                    last = Some((texts, d));
                }
            }
            Err(e) => tally.record(Err(format!("edit {op}: {e}"))),
        }
        op += 1;
    }
    let measured_s = window.elapsed().as_secs_f64();
    let rss = peak_rss_mb(None);

    // The last edit is checked too; every other unchecked edit that
    // completed is one successful attempt.
    checks.extend(last);
    for _ in 0..latencies.len().saturating_sub(checks.len()) {
        tally.record(Ok(()));
    }
    for (texts, warm) in &checks {
        tally.record(cold_digest(&netlist, texts, &options).and_then(|cold| {
            if cold == *warm {
                Ok(())
            } else {
                Err("warm re-merge differs from a cold merge".into())
            }
        }));
    }

    let tier_ms = |name: &str| -> Vec<f64> {
        tiers
            .iter()
            .filter(|(t, _)| *t == name)
            .map(|(_, ms)| *ms)
            .collect()
    };
    let share = |name: &str| ratio(tier_ms(name).len() as f64, tiers.len() as f64);
    let c = &counters;
    let mut result = RunResult::measured(&latencies, measured_s, &setups, rss, &host);
    result.layers.extend([
        ("core.eco.replay_ms", median(&tier_ms("replay"))),
        ("core.eco.tail_ms", median(&tier_ms("tail"))),
        ("core.eco.recompute_ms", median(&tier_ms("recompute"))),
        ("core.eco.replay_share", share("replay")),
        ("core.eco.tail_share", share("tail")),
        ("core.eco.recompute_share", share("recompute")),
        (
            "core.eco.stage_reuse_ratio",
            ratio(
                c.stages_reused as f64,
                (c.stages_reused + c.stages_recomputed) as f64,
            ),
        ),
        (
            "core.eco.pair_reuse_ratio",
            ratio(
                c.pairs_reused as f64,
                (c.pairs_reused + c.pairs_recomputed) as f64,
            ),
        ),
        (
            "core.eco.endpoint_reuse_ratio",
            ratio(
                c.endpoints_reused as f64,
                (c.endpoints_reused + c.endpoints_rerun) as f64,
            ),
        ),
        ("core.groups", merged_modes as f64),
        (
            "core.mode_reduction_pct",
            100.0 * (modes - merged_modes) as f64 / modes as f64,
        ),
    ]);
    host.trace(&mut t);
    result.spans = t.spans().to_vec();
    result.tally = tally;
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines_of(suite: &TextSuite) -> Vec<Vec<String>> {
        suite.modes.iter().map(|(_, s)| split_lines(s)).collect()
    }

    fn run_schedule(seed: u64, suite: &TextSuite, steps: usize) -> (Vec<Edit>, Vec<Vec<String>>) {
        let mut schedule = EditSchedule::new(seed, suite);
        let mut lines = lines_of(suite);
        let edits = (0..steps).map(|_| schedule.apply(&mut lines)).collect();
        (edits, lines)
    }

    #[test]
    fn same_seed_same_edits() {
        let suite = text_suite(300, 4, 1);
        assert_eq!(run_schedule(5, &suite, 200), run_schedule(5, &suite, 200));
        assert_ne!(run_schedule(5, &suite, 200), run_schedule(6, &suite, 200));
    }

    #[test]
    fn mix_covers_every_edit_kind_in_proportion() {
        let suite = text_suite(300, 4, 1);
        let (edits, lines) = run_schedule(9, &suite, 1000);
        let count = |e: Edit| edits.iter().filter(|&&x| x == e).count();
        assert!(
            (630..=770).contains(&count(Edit::Value)),
            "{}",
            count(Edit::Value)
        );
        assert!((60..=140).contains(&count(Edit::Noop)));
        assert!(count(Edit::ExceptionAdd) > 0 && count(Edit::ExceptionRemove) > 0);
        // Every edited suite still parses.
        for (i, l) in lines.iter().enumerate() {
            ModeInput::parse(format!("m{i}"), &join_lines(l)).expect("edited SDC parses");
        }
    }
}
