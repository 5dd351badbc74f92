//! `lsp_edits`: per-keystroke diagnostics from a `modemerge lsp` child.
//!
//! Set-up (five times, median reported) spawns the server over the
//! suite written to disk, initializes it and opens every mode. Then
//! seeded full-document `didChange` keystrokes go round-robin over the
//! modes for the window, one at a time, as an editor sends them; the
//! host probe runs between keystrokes. A
//! document with a defect in it gets the fix as its next keystroke;
//! otherwise the keystroke is drawn from four kinds with equal
//! probability: a value tweak, a comment line, a command typo
//! (`SDC-*`) or a reference to a pin that does not exist
//! (`ML-REF-UNDEF`). One operation is `didChange` →
//! `publishDiagnostics`; each defect's code must be published exactly
//! while the defect is in the buffer. The median latency of every kind
//! is reported per layer, which shows whether the mix moves the latency.
//!
//! A traced run replays every keystroke's buffers in-process through
//! the calls the server makes (lossy parse of every buffer, then the
//! static-analyzer lint), which splits the keystroke into parse, lint
//! and the rest (transport and JSON).

use crate::host::HostSpeed;
use crate::stats::median;
use crate::support::{
    join_lines, modemerge_exe, peak_rss_mb, scan_strs, set_value, split_lines, text_suite, Config,
    RunResult, Spawned, Tally, TextSuite, WorkDir,
};
use crate::trace::{Tracer, OP, SETUP};
use modemerge_core::json::Json;
use modemerge_core::lint::lint_modes_fast;
use modemerge_core::merge::ModeInput;
use modemerge_netlist::library::Library;
use modemerge_netlist::text;
use modemerge_workload::rng::XorShift;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Server set-ups per run; their scaled median is `setup_s`.
const SETUPS: u64 = 5;
/// Keystrokes sent even when the window is shorter.
const MIN_OPS: u64 = 20;
/// A keystroke unanswered for this long fails the run.
const TIMEOUT: Duration = Duration::from_secs(30);
/// Published for the injected command typo.
const TYPO_CODE: &str = "SDC-CMD-UNKNOWN";
/// Published for the injected reference to a missing pin.
const UNDEFINED_CODE: &str = "ML-REF-UNDEF";

/// What one keystroke did to its document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keystroke {
    /// A constraint value changed.
    Value,
    /// A comment line added or removed.
    Comment,
    /// `set_drive` misspelled.
    Typo,
    /// A false path to a missing pin appended.
    Undefined,
    /// The document's defect removed again.
    Fix,
}

impl Keystroke {
    /// Every kind, in reporting order.
    const ALL: [Keystroke; 5] = [
        Keystroke::Value,
        Keystroke::Comment,
        Keystroke::Typo,
        Keystroke::Undefined,
        Keystroke::Fix,
    ];

    /// Per-layer metric holding the median latency of this kind.
    fn metric(self) -> &'static str {
        match self {
            Keystroke::Value => "cli.lsp.value_ms",
            Keystroke::Comment => "cli.lsp.comment_ms",
            Keystroke::Typo => "cli.lsp.typo_ms",
            Keystroke::Undefined => "cli.lsp.undefined_ms",
            Keystroke::Fix => "cli.lsp.fix_ms",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Doc {
    lines: Vec<String>,
    typo: bool,
    undefined: Option<String>,
}

/// The seeded keystroke sequence over a suite's documents.
#[derive(Debug, Clone)]
pub struct KeystrokeSchedule {
    rng: XorShift,
    docs: Vec<Doc>,
    count: usize,
}

impl KeystrokeSchedule {
    /// A schedule over `suite`, drawn from `seed`.
    pub fn new(seed: u64, suite: &TextSuite) -> Self {
        Self {
            rng: XorShift::seed_from_u64(seed ^ 0x15b_ed17),
            docs: suite
                .modes
                .iter()
                .map(|(_, sdc)| Doc {
                    lines: split_lines(sdc),
                    typo: false,
                    undefined: None,
                })
                .collect(),
            count: 0,
        }
    }

    /// Applies the next keystroke and returns the edited document.
    pub fn next(&mut self) -> (usize, Keystroke) {
        let d = self.count % self.docs.len();
        self.count += 1;
        let n = self.count;
        let rng = &mut self.rng;
        let doc = &mut self.docs[d];
        let kind = if doc.typo {
            let line = doc.lines.iter_mut().find(|l| l.starts_with("set_drvie "));
            let line = line.expect("typo line present");
            *line = line.replacen("set_drvie ", "set_drive ", 1);
            doc.typo = false;
            Keystroke::Fix
        } else if let Some(undefined) = doc.undefined.take() {
            doc.lines.retain(|l| *l != undefined);
            Keystroke::Fix
        } else {
            match rng.gen_range(0..4) {
                0 => {
                    let jitter = 2.0 * rng.gen_f64() - 1.0;
                    let edited = if rng.gen_bool() {
                        set_value(
                            &mut doc.lines,
                            "set_clock_uncertainty",
                            "mclk1",
                            0.2 * (1.0 + 0.5 * jitter),
                        )
                    } else {
                        set_value(
                            &mut doc.lines,
                            "set_input_delay",
                            "[get_ports din0]",
                            1.5 * (1.0 + 0.05 * jitter),
                        )
                    };
                    assert!(
                        edited,
                        "generated modes carry uncertainty and input-delay lines"
                    );
                    Keystroke::Value
                }
                1 => {
                    match doc.lines.iter().position(|l| l.starts_with("# edit ")) {
                        Some(at) if rng.gen_bool() => {
                            doc.lines.remove(at);
                        }
                        _ => doc.lines.insert(0, format!("# edit {n}")),
                    }
                    Keystroke::Comment
                }
                2 => {
                    let line = doc.lines.iter_mut().find(|l| l.starts_with("set_drive "));
                    let line = line.expect("generated modes set_drive");
                    *line = line.replacen("set_drive ", "set_drvie ", 1);
                    doc.typo = true;
                    Keystroke::Typo
                }
                _ => {
                    let line = format!("set_false_path -to [get_pins no_such_cell_{n}/D]");
                    doc.lines.push(line.clone());
                    doc.undefined = Some(line);
                    Keystroke::Undefined
                }
            }
        };
        (d, kind)
    }

    /// Current text of document `d`.
    pub fn text(&self, d: usize) -> String {
        join_lines(&self.docs[d].lines)
    }

    /// `(typo, undefined reference)` currently in document `d`.
    pub fn defects(&self, d: usize) -> (bool, bool) {
        (self.docs[d].typo, self.docs[d].undefined.is_some())
    }
}

/// A running `modemerge lsp` child speaking line-framed JSON-RPC.
struct Lsp {
    process: Spawned,
    stdin: ChildStdin,
    lines: mpsc::Receiver<(Instant, String)>,
    reader: std::thread::JoinHandle<()>,
}

impl Lsp {
    fn spawn(exe: &Path, netlist: &Path, modes: &[(String, PathBuf)]) -> Result<Lsp, String> {
        let mut cmd = Command::new(exe);
        cmd.args(["lsp", "--threads", "2", "--netlist"])
            .arg(netlist);
        for (name, path) in modes {
            cmd.arg("--mode").arg(format!("{name}={}", path.display()));
        }
        let mut process = Spawned(
            cmd.stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn lsp: {e}"))?,
        );
        let stdin = process.0.stdin.take().expect("stdin is piped");
        let stdout = process.0.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        // Stamped on arrival; ends when the server closes its output.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        Ok(Lsp {
            process,
            stdin,
            lines,
            reader,
        })
    }

    fn send(&mut self, msg: &Json) -> Result<Instant, String> {
        let sent = Instant::now();
        writeln!(self.stdin, "{msg}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("lsp write: {e}"))?;
        Ok(sent)
    }

    fn recv(&mut self) -> Result<(Instant, String), String> {
        self.lines
            .recv_timeout(TIMEOUT)
            .map_err(|e| format!("lsp reply: {e}"))
    }

    /// Sends `msg` and returns the arrival time and text of the
    /// `publishDiagnostics` it triggers.
    fn publish(&mut self, msg: &Json) -> Result<(Instant, Instant, String), String> {
        let sent = self.send(msg)?;
        loop {
            let (at, line) = self.recv()?;
            if line.contains("textDocument/publishDiagnostics") {
                return Ok((sent, at, line));
            }
        }
    }

    fn shutdown(mut self) -> Result<(), String> {
        self.send(&rpc(Some(2), "shutdown", Json::Null))?;
        self.recv()?;
        self.send(&rpc(None, "exit", Json::Null))?;
        self.process.wait_exit(TIMEOUT)?;
        self.reader
            .join()
            .map_err(|_| "lsp reader panicked".to_owned())
    }
}

fn rpc(id: Option<usize>, method: &str, params: Json) -> Json {
    let mut pairs = vec![("jsonrpc".into(), Json::str("2.0"))];
    if let Some(id) = id {
        pairs.push(("id".into(), Json::count(id)));
    }
    pairs.push(("method".into(), Json::str(method)));
    pairs.push(("params".into(), params));
    Json::Obj(pairs)
}

fn did_change(uri: &str, version: usize, text: String) -> Json {
    rpc(
        None,
        "textDocument/didChange",
        Json::Obj(vec![
            (
                "textDocument".into(),
                Json::Obj(vec![
                    ("uri".into(), Json::str(uri)),
                    ("version".into(), Json::count(version)),
                ]),
            ),
            (
                "contentChanges".into(),
                Json::Arr(vec![Json::Obj(vec![("text".into(), Json::str(text))])]),
            ),
        ]),
    )
}

/// Spawns the server, initializes it and opens every document.
fn set_up(
    exe: &Path,
    work: &WorkDir,
    files: &[(String, PathBuf)],
    suite: &TextSuite,
    uris: &[String],
    t: &mut Tracer,
    id: u64,
) -> Result<Lsp, String> {
    let mut lsp = t.time("cli.lsp.spawn", id, || {
        Lsp::spawn(exe, &work.netlist_path(), files)
    })?;
    t.time("cli.lsp.initialize", id, || {
        lsp.send(&rpc(Some(1), "initialize", Json::Obj(Vec::new())))?;
        lsp.recv()
    })?;
    t.time("cli.lsp.open", id, || {
        for (uri, (_, sdc)) in uris.iter().zip(&suite.modes) {
            let doc = Json::Obj(vec![
                ("uri".into(), Json::str(uri)),
                ("languageId".into(), Json::str("sdc")),
                ("version".into(), Json::count(1)),
                ("text".into(), Json::str(sdc)),
            ]);
            lsp.publish(&rpc(
                None,
                "textDocument/didOpen",
                Json::Obj(vec![("textDocument".into(), doc)]),
            ))?;
        }
        Ok::<_, String>(())
    })?;
    Ok(lsp)
}

/// One keystroke as sent and answered.
struct Sent {
    doc: usize,
    kind: Keystroke,
    text: String,
    defects: (bool, bool),
    publish: String,
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let exe = modemerge_exe()?;
    let (cells, modes) = if cfg.smoke { (1_000, 4) } else { (20_000, 16) };
    let suite = text_suite(cells, modes, cfg.seed);
    let work = WorkDir::new("lsp_edits")?;
    let files = work.write_suite(&suite)?;
    let uris: Vec<String> = files
        .iter()
        .map(|(_, path)| {
            let abs =
                std::fs::canonicalize(path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(format!("file://{}", abs.display()))
        })
        .collect::<Result<_, String>>()?;

    let mut t = Tracer::new(Instant::now(), 0);
    let mut host = HostSpeed::start()?;
    let mut setups = Vec::new();
    let mut running: Option<Lsp> = None;
    for k in 0..SETUPS {
        if let Some(old) = running.take() {
            old.shutdown()?;
        }
        host.probe()?;
        let id = u64::MAX - k;
        let started = Instant::now();
        let root = t.begin(SETUP, id);
        let up = set_up(&exe, &work, &files, &suite, &uris, &mut t, id);
        setups.push((started, t.end(root) / 1e3));
        running = Some(up?);
    }
    let mut lsp = running.expect("at least one set-up");

    let mut schedule = KeystrokeSchedule::new(cfg.seed, &suite);
    let mut tally = Tally::default();
    let mut sent: Vec<Sent> = Vec::new();
    let mut latency = Vec::new();
    let window = Instant::now();
    let mut k = 0u64;
    while k < MIN_OPS || window.elapsed().as_secs_f64() < cfg.seconds {
        host.probe_if_due()?;
        let (doc, kind) = schedule.next();
        let text = schedule.text(doc);
        let msg = did_change(&uris[doc], k as usize + 2, text.clone());
        let (start, arrived, publish) = lsp.publish(&msg)?;
        latency.push((start, t.record(OP, k, 1, start, arrived)));
        sent.push(Sent {
            doc,
            kind,
            text,
            defects: schedule.defects(doc),
            publish,
        });
        k += 1;
    }
    let measured_s = window.elapsed().as_secs_f64();
    let rss = peak_rss_mb(Some(lsp.process.0.id()));
    tally.record(lsp.shutdown().map_err(|e| format!("lsp shutdown: {e}")));

    for (i, s) in sent.iter().enumerate() {
        tally.record(check_publish(s, &uris[s.doc]).map_err(|e| format!("keystroke {i}: {e}")));
    }

    let mut result = RunResult::measured(&latency, measured_s, &setups, rss, &host);
    let bytes: Vec<f64> = sent.iter().map(|s| s.publish.len() as f64).collect();
    result
        .layers
        .insert("cli.lsp.publish_bytes", median(&bytes));
    let latency: Vec<f64> = latency.iter().map(|(_, ms)| *ms).collect();
    for kind in Keystroke::ALL {
        let of_kind: Vec<f64> = sent
            .iter()
            .zip(&latency)
            .filter(|(s, _)| s.kind == kind)
            .map(|(_, ms)| *ms)
            .collect();
        result.layers.insert(kind.metric(), median(&of_kind));
    }
    if cfg.trace {
        let overhead = replay(&suite, &sent, &latency, &mut t)?;
        result
            .layers
            .insert("cli.lsp.overhead_ms", median(&overhead));
    }
    host.trace(&mut t);
    result.spans = t.spans().to_vec();
    result.tally = tally;
    Ok(result)
}

/// A keystroke passes when its diagnostics are for its document and
/// carry each injected defect's code exactly while it is present.
fn check_publish(s: &Sent, uri: &str) -> Result<(), String> {
    if scan_strs(&s.publish, "uri") != [uri] {
        return Err("diagnostics published for another document".into());
    }
    let codes = scan_strs(&s.publish, "code");
    let (typo, undefined) = s.defects;
    for (present, code) in [(typo, TYPO_CODE), (undefined, UNDEFINED_CODE)] {
        if present != codes.contains(&code) {
            return Err(format!(
                "{code} published = {}, defect present = {present}",
                !present
            ));
        }
    }
    Ok(())
}

/// Replays every keystroke's buffers through the server's calls and
/// returns, per keystroke, the latency not spent in parse or lint.
fn replay(
    suite: &TextSuite,
    sent: &[Sent],
    latency: &[f64],
    t: &mut Tracer,
) -> Result<Vec<f64>, String> {
    let netlist = text::parse(&suite.netlist, Library::standard()).map_err(|e| e.to_string())?;
    let mut buffers: Vec<(String, String)> = suite.modes.clone();
    let mut overhead = Vec::with_capacity(sent.len());
    for ((k, s), ms) in sent.iter().enumerate().zip(latency) {
        buffers[s.doc].1.clone_from(&s.text);
        let op = k as u64;
        let parse = t.begin("sdc.parse_lossy", op);
        let inputs: Vec<ModeInput> = buffers
            .iter()
            .map(|(n, sdc)| ModeInput::parse_lossy(n.clone(), sdc))
            .collect();
        let parse_ms = t.end(parse);
        let lint = t.begin("core.lint_fast", op);
        let report = lint_modes_fast(&netlist, &inputs, 1);
        let lint_ms = t.end(lint);
        std::hint::black_box(report.map_err(|e| e.to_string())?);
        overhead.push(ms - parse_ms - lint_ms);
    }
    Ok(overhead)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_schedule(seed: u64, suite: &TextSuite, steps: usize) -> Vec<(usize, Keystroke, String)> {
        let mut schedule = KeystrokeSchedule::new(seed, suite);
        (0..steps)
            .map(|_| {
                let (d, kind) = schedule.next();
                (d, kind, schedule.text(d))
            })
            .collect()
    }

    #[test]
    fn same_seed_same_keystrokes() {
        let suite = text_suite(300, 4, 2);
        assert_eq!(run_schedule(1, &suite, 120), run_schedule(1, &suite, 120));
        assert_ne!(run_schedule(1, &suite, 120), run_schedule(2, &suite, 120));
    }

    #[test]
    fn defects_are_fixed_on_the_documents_next_keystroke() {
        let suite = text_suite(300, 4, 2);
        let mut schedule = KeystrokeSchedule::new(3, &suite);
        let mut injected = [false; 4];
        let mut kinds = Vec::new();
        for _ in 0..400 {
            let (d, kind) = schedule.next();
            assert_eq!(kind == Keystroke::Fix, injected[d], "doc {d}");
            injected[d] = matches!(kind, Keystroke::Typo | Keystroke::Undefined);
            let (typo, undefined) = schedule.defects(d);
            assert_eq!(typo || undefined, injected[d]);
            kinds.push(kind);
        }
        for k in Keystroke::ALL {
            assert!(kinds.contains(&k), "{k:?}");
        }
    }

    #[test]
    fn drawn_kinds_are_equally_likely() {
        let suite = text_suite(300, 4, 2);
        let kinds: Vec<Keystroke> = run_schedule(4, &suite, 3000)
            .into_iter()
            .map(|(_, kind, _)| kind)
            .filter(|&kind| kind != Keystroke::Fix)
            .collect();
        for k in &Keystroke::ALL[..4] {
            let share = kinds.iter().filter(|&x| x == k).count() as f64 / kinds.len() as f64;
            assert!((0.21..=0.29).contains(&share), "{k:?}: {share}");
        }
    }
}
