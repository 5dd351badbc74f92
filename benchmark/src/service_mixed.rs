//! `service_mixed`: fleet traffic against a `modemerge serve --threads 2`
//! child.
//!
//! Set-up (five times, median reported) spawns the server, registers
//! three suites and runs a merge and a lint of each once. Then a closed
//! loop of rounds over two connections, an untimed warm-up and the
//! measured window. In a round, each connection sends a burst of ten
//! pipelined requests at once and waits for all ten replies; the host
//! probe runs between rounds, while the server is idle. A burst is one
//! block of the mix, exact and in seeded order:
//!
//! * 60% hash-referenced `merge` (result-cache reads),
//! * 20% hash-referenced `lint` (static analyzer, cache reads),
//! * 20% full-payload `merge` of a freshly value-edited copy of the
//!   first suite (payload parse, cache miss, warm ECO engine).
//!
//! One operation is a burst, from sending its first request until its
//! last reply arrives. Every burst holds the same mix, so its time does
//! not hang on which requests happened to queue together, as a single
//! request's does. Each request's own latency, from `send` until
//! its raw reply line arrives, is reported by reply kind. Only after
//! the window is every reply's `result` compared byte for byte with a
//! direct in-process run.

use crate::host::HostSpeed;
use crate::stats::{median, percentile};
use crate::support::{
    join_lines, json_num, modemerge_exe, peak_rss_mb, ratio, scan_num, set_value, split_lines,
    text_suite, Config, RunResult, Spawned, Tally, TextSuite,
};
use crate::trace::{Tracer, OP, SETUP};
use modemerge_core::json::Json;
use modemerge_core::lint::{attach_parse_findings, lint_modes_fast};
use modemerge_core::merge::{MergeOptions, ModeInput};
use modemerge_core::report::outcome_to_json;
use modemerge_core::session::{MergeSession, SessionInputs};
use modemerge_netlist::library::Library;
use modemerge_netlist::{text, Netlist};
use modemerge_service::client::{Client, Response};
use modemerge_service::proto::{compute_request, suite_request, JobSpec, NetlistFormat};
use modemerge_workload::rng::XorShift;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Client connections (the machine has two cores).
const CONNECTIONS: u64 = 2;
/// Requests of one burst: one block of the mix.
const BURST: usize = 10;
/// Rounds run even when the window is shorter.
const MIN_ROUNDS: usize = 3;
/// Server set-ups per run; their scaled median is `setup_s`.
const SETUPS: u64 = 5;
/// A reply slower than this counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Replies whose full client-side decode a traced run times.
const DECODE_SAMPLE: usize = 40;

/// What one request asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Hash-referenced merge of registered suite `n`.
    Merge(usize),
    /// Hash-referenced fast lint of registered suite `n`.
    Lint(usize),
    /// Full-payload merge of suite 0 with `mode`'s first input delay
    /// set to `delay`.
    Payload {
        /// Edited mode.
        mode: usize,
        /// New `set_input_delay` value.
        delay: f64,
    },
}

/// The seeded request sequence of one connection: blocks of ten with
/// exactly six merges, two lints and two payloads in shuffled order,
/// registered suites taken round-robin — the mix is exact, only its
/// order depends on the seed.
#[derive(Debug, Clone)]
pub struct Mix {
    rng: XorShift,
    block: Vec<u8>,
    suites: usize,
    payload_modes: usize,
    merges: usize,
    lints: usize,
}

impl Mix {
    /// The sequence for connection `c` over `suites` registered suites.
    pub fn new(seed: u64, c: u64, suites: usize, payload_modes: usize) -> Self {
        Self {
            rng: XorShift::seed_from_u64(seed.wrapping_mul(31).wrapping_add(c)),
            block: Vec::new(),
            suites,
            payload_modes,
            merges: c as usize,
            lints: c as usize,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> Request {
        if self.block.is_empty() {
            self.block = vec![0, 0, 0, 0, 0, 0, 1, 1, 2, 2];
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.gen_range(0..i + 1));
            }
        }
        match self.block.pop().expect("refilled above") {
            0 => {
                self.merges += 1;
                Request::Merge(self.merges % self.suites)
            }
            1 => {
                self.lints += 1;
                Request::Lint(self.lints % self.suites)
            }
            _ => Request::Payload {
                mode: self.rng.gen_range(0..self.payload_modes),
                // Within the merge tolerance: the ECO engine's tail tier.
                delay: 1.5 * (1.0 + 0.05 * (2.0 * self.rng.gen_f64() - 1.0)),
            },
        }
    }
}

fn merge_options() -> MergeOptions {
    MergeOptions {
        threads: 2,
        ..Default::default()
    }
}

fn lint_options() -> MergeOptions {
    MergeOptions {
        threads: 2,
        fast: true,
        ..Default::default()
    }
}

/// Suite 0's modes with `mode`'s `din0` input delay set to `delay`.
fn payload_modes(base: &TextSuite, mode: usize, delay: f64) -> Vec<(String, String)> {
    let mut modes = base.modes.clone();
    let mut lines = split_lines(&modes[mode].1);
    assert!(
        set_value(&mut lines, "set_input_delay", "[get_ports din0]", delay),
        "generated modes constrain din0"
    );
    modes[mode].1 = join_lines(&lines);
    modes
}

fn job_spec(netlist: &str, modes: Vec<(String, String)>) -> JobSpec {
    JobSpec {
        netlist: netlist.to_owned(),
        format: NetlistFormat::Text,
        modes,
        options: merge_options(),
    }
}

/// Appends an `id` tag to a request line built by the protocol helpers
/// (a compact JSON object), without re-parsing it.
fn tagged(line: &str, id: u64) -> String {
    format!("{},\"id\":{id}}}", &line[..line.len() - 1])
}

/// The `id` tag the server appends as the last field of every reply.
fn reply_id(raw: &str) -> Option<u64> {
    let at = raw.rfind("\"id\":")?;
    raw[at + 5..].trim_end_matches('}').parse().ok()
}

/// Parses a suite the way the server parses a payload.
fn parse_suite(
    netlist: &str,
    modes: &[(String, String)],
) -> Result<(Netlist, Vec<ModeInput>), String> {
    let netlist = text::parse(netlist, Library::standard()).map_err(|e| e.to_string())?;
    let inputs = modes
        .iter()
        .map(|(n, s)| ModeInput::parse_lossy(n.clone(), s))
        .collect();
    Ok((netlist, inputs))
}

/// The same result bytes the server computes for a merge.
fn direct_merge(netlist: &str, modes: &[(String, String)]) -> Result<String, String> {
    let (netlist, inputs) = parse_suite(netlist, modes)?;
    let bound = SessionInputs::bind(&netlist, &inputs).map_err(|e| e.to_string())?;
    let session = MergeSession::new(&netlist, &bound, &merge_options());
    let mut outcome = session.merge_all().map_err(|e| e.to_string())?;
    attach_parse_findings(bound.inputs(), &mut outcome.reports);
    Ok(outcome_to_json(&outcome, inputs.len()).to_string())
}

/// The same result bytes the server computes for a fast lint.
fn direct_lint(netlist: &str, modes: &[(String, String)]) -> Result<String, String> {
    let (netlist, inputs) = parse_suite(netlist, modes)?;
    let report =
        lint_modes_fast(&netlist, &inputs, lint_options().threads).map_err(|e| e.to_string())?;
    Ok(report.to_json().to_string())
}

/// A running `modemerge serve` child.
struct Server {
    process: Spawned,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Server {
    fn spawn(exe: &Path) -> Result<Server, String> {
        let mut process = Spawned(
            Command::new(exe)
                .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("spawn server: {e}"))?,
        );
        let mut stdout = BufReader::new(process.0.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).map_err(|e| e.to_string())?;
        let addr = banner
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("unexpected server banner `{}`", banner.trim()))?;
        Ok(Server {
            process,
            stdout,
            addr,
        })
    }

    fn shutdown(mut self) -> Result<(), String> {
        let bye = Client::connect(self.addr)
            .map_err(|e| e.to_string())?
            .simple("shutdown")?;
        if !bye.ok {
            return Err(format!("shutdown refused: {:?}", bye.error));
        }
        self.process.wait_exit(REPLY_TIMEOUT)?;
        let _ = self.stdout.read_to_string(&mut String::new());
        Ok(())
    }
}

/// One reply as it arrived.
struct Reply {
    id: u64,
    request: Request,
    request_bytes: usize,
    raw: String,
    sent: Instant,
    received: Instant,
}

/// One burst as the client saw it.
struct Burst {
    /// Id of its first request.
    id: u64,
    /// When its first request was sent.
    sent: Instant,
    /// When its last reply arrived.
    done: Instant,
}

/// One client connection and what it saw.
struct Connection {
    client: Client,
    mix: Mix,
    next: u64,
    replies: Vec<Reply>,
    bursts: Vec<Burst>,
    error: Option<String>,
}

impl Connection {
    fn open(
        c: u64,
        seed: u64,
        addr: SocketAddr,
        hashes: &[String],
        base: &TextSuite,
    ) -> Result<Self, String> {
        Ok(Self {
            client: Client::connect(addr).map_err(|e| format!("connect: {e}"))?,
            mix: Mix::new(seed, c, hashes.len(), base.modes.len()),
            next: c << 32,
            replies: Vec::new(),
            bursts: Vec::new(),
            error: None,
        })
    }

    /// Sends the next burst and waits for every reply. Does nothing
    /// after an error.
    fn burst(&mut self, hashes: &[String], base: &TextSuite) {
        if self.error.is_none() {
            self.error = self.try_burst(hashes, base).err();
        }
    }

    fn try_burst(&mut self, hashes: &[String], base: &TextSuite) -> Result<(), String> {
        let id = self.next;
        let mut pending: HashMap<u64, (Request, usize, Instant)> = HashMap::new();
        for _ in 0..BURST {
            let request = self.mix.next_request();
            let line = match request {
                Request::Merge(s) => suite_request("merge", &hashes[s], &merge_options()),
                Request::Lint(s) => suite_request("lint", &hashes[s], &lint_options()),
                Request::Payload { mode, delay } => compute_request(
                    "merge",
                    &job_spec(&base.netlist, payload_modes(base, mode, delay)),
                ),
            };
            let line = tagged(&line, self.next);
            let sent = Instant::now();
            self.client.send(&line).map_err(|e| format!("send: {e}"))?;
            pending.insert(self.next, (request, line.len(), sent));
            self.next += 1;
        }
        let sent = pending
            .values()
            .map(|p| p.2)
            .min()
            .expect("a burst is not empty");
        while !pending.is_empty() {
            let raw = self.client.recv_raw().map_err(|e| format!("recv: {e}"))?;
            let received = Instant::now();
            let (id, (request, request_bytes, sent)) = reply_id(&raw)
                .and_then(|id| pending.remove_entry(&id))
                .ok_or_else(|| format!("reply without a pending id: {raw:.200}"))?;
            self.replies.push(Reply {
                id,
                request,
                request_bytes,
                raw,
                sent,
                received,
            });
        }
        let done = self.replies.last().expect("a burst has replies").received;
        self.bursts.push(Burst { id, sent, done });
        Ok(())
    }
}

/// One round: every connection sends a burst at once, each on its own
/// thread. Returns when every reply has arrived, with the server idle.
fn round(connections: &mut [Connection], hashes: &[String], base: &TextSuite, server: &mut Server) {
    let deadline = Instant::now() + REPLY_TIMEOUT;
    std::thread::scope(|scope| {
        let handles: Vec<_> = connections
            .iter_mut()
            .map(|conn| scope.spawn(move || conn.burst(hashes, base)))
            .collect();
        // A stuck server must not stall the run: past the deadline it is
        // killed, which fails the blocked reads.
        while !handles.iter().all(|h| h.is_finished()) {
            if Instant::now() > deadline {
                server.process.kill();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    });
}

/// Spawns a server, registers the suites and runs each job kind once.
fn set_up(
    exe: &Path,
    suites: &[TextSuite],
    t: &mut Tracer,
    id: u64,
) -> Result<(Server, Vec<String>), String> {
    let server = t.time("service.spawn", id, || Server::spawn(exe))?;
    let mut control = Client::connect(server.addr).map_err(|e| e.to_string())?;
    let hashes = t.time("service.register", id, || {
        suites
            .iter()
            .map(|s| {
                let reply = control.register(&job_spec(&s.netlist, s.modes.clone()))?;
                reply
                    .suite()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("register refused: {:?}", reply.error))
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    t.time("service.first_run", id, || {
        for hash in &hashes {
            for (kind, options) in [("merge", merge_options()), ("lint", lint_options())] {
                let reply = control.compute_registered(kind, hash, &options)?;
                if !reply.ok {
                    return Err(format!("first {kind}: {:?}", reply.error));
                }
            }
        }
        Ok::<_, String>(())
    })?;
    Ok((server, hashes))
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let exe = modemerge_exe()?;
    let sizes: [(usize, usize); 3] = if cfg.smoke {
        [(300, 4), (300, 4), (600, 4)]
    } else {
        [(1_200, 4), (1_200, 4), (5_000, 8)]
    };
    let suites: Vec<TextSuite> = sizes
        .iter()
        .zip(0u64..)
        .map(|(&(cells, modes), k)| text_suite(cells, modes, cfg.seed + k))
        .collect();

    let epoch = Instant::now();
    let mut t = Tracer::new(epoch, 0);
    let mut host = HostSpeed::start()?;
    let mut setups = Vec::new();
    let mut running: Option<(Server, Vec<String>)> = None;
    for k in 0..SETUPS {
        if let Some((old, _)) = running.take() {
            old.shutdown()?;
        }
        host.probe()?;
        let id = u64::MAX - k;
        let started = Instant::now();
        let root = t.begin(SETUP, id);
        let up = set_up(&exe, &suites, &mut t, id);
        setups.push((started, t.end(root) / 1e3));
        running = Some(up?);
    }
    let (mut server, hashes) = running.expect("at least one set-up");

    let base = &suites[0];
    let mut connections = (0..CONNECTIONS)
        .map(|c| Connection::open(c, cfg.seed, server.addr, &hashes, base))
        .collect::<Result<Vec<_>, String>>()?;
    let warm_up = if cfg.smoke { 0.2 } else { 2.0 };
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < warm_up {
        round(&mut connections, &hashes, base, &mut server);
    }
    for conn in &mut connections {
        conn.replies.clear();
        conn.bursts.clear();
    }
    // Rounds until the window is over; the probe runs between them, while
    // the server is idle.
    let window = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || window.elapsed().as_secs_f64() < cfg.seconds {
        host.probe_if_due()?;
        round(&mut connections, &hashes, base, &mut server);
        rounds += 1;
    }
    let measured_s = window.elapsed().as_secs_f64();

    // Everything below is outside the timed window.
    let mut tally = Tally::default();
    let mut replies: Vec<Reply> = Vec::new();
    let mut latency = Vec::new();
    for (c, conn) in connections.into_iter().enumerate() {
        if let Some(e) = conn.error {
            tally.record(Err(format!("connection {c}: {e}")));
        }
        for burst in &conn.bursts {
            // Lane = connection (the high half of the id).
            let ms = t.record(OP, burst.id, 1 + (burst.id >> 32), burst.sent, burst.done);
            latency.push((burst.sent, ms));
        }
        replies.extend(conn.replies);
    }
    replies.sort_by_key(|r| r.id);

    let stats = Client::connect(server.addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.simple("stats"))
        .map(|r| r.json)
        .unwrap_or(Json::Null);
    let rss = peak_rss_mb(Some(server.process.0.id()));
    tally.record(
        server
            .shutdown()
            .map_err(|e| format!("server shutdown: {e}")),
    );

    let mut expected: HashMap<String, Result<String, String>> = HashMap::new();
    let (mut hit, mut miss, mut payload, mut waits, mut reduction) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (n, reply) in replies.iter().enumerate() {
        let ms = reply.received.duration_since(reply.sent).as_secs_f64() * 1e3;
        if cfg.trace && n < DECODE_SAMPLE {
            let decode = t.begin("service.client_decode", reply.id);
            std::hint::black_box(Response::decode(&reply.raw).ok());
            t.end(decode);
        }
        let (envelope, result) = split_reply(&reply.raw);
        let envelope = Response::decode(&envelope);
        let want = match reply.request {
            Request::Merge(s) => expected
                .entry(format!("merge{s}"))
                .or_insert_with(|| direct_merge(&suites[s].netlist, &suites[s].modes)),
            Request::Lint(s) => expected
                .entry(format!("lint{s}"))
                .or_insert_with(|| direct_lint(&suites[s].netlist, &suites[s].modes)),
            Request::Payload { mode, delay } => expected
                .entry(format!("payload{mode}:{delay}"))
                .or_insert_with(|| direct_merge(&base.netlist, &payload_modes(base, mode, delay))),
        };
        tally.record(
            check_reply(envelope.as_ref(), result, want, ms)
                .map_err(|e| format!("reply {}: {e}", reply.id)),
        );
        let Ok(envelope) = envelope else { continue };
        match envelope.cached {
            Some(true) => hit.push(ms),
            Some(false) => miss.push(ms),
            None => {}
        }
        if matches!(reply.request, Request::Payload { .. }) {
            payload.push(ms);
        }
        if let Some(w) = envelope.json.get("queue_wait_ms").and_then(Json::as_f64) {
            waits.push(w);
        }
        if let (Request::Merge(_) | Request::Payload { .. }, Some(result)) = (reply.request, result)
        {
            let count = |k: &str| scan_num(result, k);
            if let (Some(input), Some(merged)) = (count("input_modes"), count("merged_modes")) {
                reduction.push(100.0 * (input - merged) / input);
            }
        }
    }

    let sizes_of =
        |f: fn(&Reply) -> usize| -> Vec<f64> { replies.iter().map(|r| f(r) as f64).collect() };
    let results = |k: &str| json_num(&stats, &["cache", "results", k]);
    let steals = stats
        .get("queue")
        .and_then(|q| q.get("shards"))
        .and_then(Json::as_array)
        .map_or(f64::NAN, |shards| {
            shards.iter().map(|s| json_num(s, &["stolen"])).sum()
        });
    let mut result = RunResult::measured(&latency, measured_s, &setups, rss, &host);
    result.layers.extend([
        ("service.hit_ms", median(&hit)),
        ("service.miss_ms", median(&miss)),
        ("service.payload_ms", median(&payload)),
        ("service.reply_bytes", median(&sizes_of(|r| r.raw.len()))),
        (
            "service.request_bytes",
            median(&sizes_of(|r| r.request_bytes)),
        ),
        ("service.queue_wait_p50_ms", median(&waits)),
        ("service.queue_wait_p90_ms", percentile(&waits, 90.0)),
        (
            "service.result_hit_ratio",
            ratio(results("hits"), results("hits") + results("misses")),
        ),
        (
            "service.binds",
            json_num(&stats, &["cache", "suites", "binds"]),
        ),
        (
            "service.bind_reuses",
            json_num(&stats, &["cache", "suites", "bind_reuses"]),
        ),
        (
            "service.queue_high_water",
            json_num(&stats, &["queue", "high_water"]),
        ),
        (
            "service.eco_hits",
            json_num(&stats, &["cache", "eco", "eco_hits"]),
        ),
        ("service.steals", steals),
        ("core.mode_reduction_pct", median(&reduction)),
    ]);
    host.trace(&mut t);
    result.spans = t.spans().to_vec();
    result.tally = tally;
    Ok(result)
}

/// Splits a reply line into its envelope (every field but `result`, as
/// a small JSON object) and the raw bytes of its `result`, which the
/// server writes after the envelope fields and before the trailing `id`.
/// The checks compare those bytes instead of parsing them: the in-tree
/// JSON parser re-validates the rest of its input for every string
/// character, so parsing every large reply would outlast the run.
fn split_reply(raw: &str) -> (String, Option<&str>) {
    let Some(at) = raw.find(",\"result\":") else {
        return (raw.to_owned(), None);
    };
    let rest = &raw[at + ",\"result\":".len()..];
    let end = rest
        .rfind(",\"id\":")
        .unwrap_or(rest.len().saturating_sub(1));
    (format!("{}}}", &raw[..at]), Some(&rest[..end]))
}

/// A measured reply passes when its envelope decodes and is `ok`, it
/// arrived within the timeout and its `result` is byte-identical to the
/// direct run.
fn check_reply(
    envelope: Result<&Response, &String>,
    result: Option<&str>,
    want: &Result<String, String>,
    ms: f64,
) -> Result<(), String> {
    let envelope = envelope.map_err(|e| e.clone())?;
    if !envelope.ok {
        return Err(format!("error reply: {:?}", envelope.error));
    }
    if ms > REPLY_TIMEOUT.as_secs_f64() * 1e3 {
        return Err(format!("took {ms:.0} ms"));
    }
    let want = want
        .as_ref()
        .map_err(|e| format!("direct run failed: {e}"))?;
    if result == Some(want.as_str()) {
        Ok(())
    } else {
        Err("result differs from the direct run".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_requests_in_exact_proportions() {
        let draw = |seed: u64, c: u64| {
            let mut mix = Mix::new(seed, c, 3, 4);
            (0..500).map(|_| mix.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(draw(3, 0), draw(3, 0));
        assert_ne!(draw(3, 0), draw(4, 0));
        assert_ne!(draw(3, 0), draw(3, 1));
        let mix = draw(3, 0);
        let merges = mix
            .iter()
            .filter(|r| matches!(r, Request::Merge(_)))
            .count();
        let lints = mix.iter().filter(|r| matches!(r, Request::Lint(_))).count();
        assert_eq!((merges, lints), (300, 100));
        for s in 0..3 {
            let hits = mix.iter().filter(|r| **r == Request::Merge(s)).count();
            assert!((99..=101).contains(&hits), "suite {s}: {hits}");
        }
    }

    #[test]
    fn replies_split_into_envelope_and_result_bytes() {
        let raw = "{\"ok\":true,\"type\":\"merge\",\"cached\":true,\"result\":{\"id\":1,\"x\":[2]},\"id\":9}";
        let (envelope, result) = split_reply(raw);
        assert_eq!(envelope, "{\"ok\":true,\"type\":\"merge\",\"cached\":true}");
        assert_eq!(result, Some("{\"id\":1,\"x\":[2]}"));
        let error = "{\"ok\":false,\"type\":\"merge\",\"error\":\"x\",\"id\":3}";
        assert_eq!(split_reply(error), (error.to_owned(), None));
    }

    #[test]
    fn tags_and_reply_ids() {
        assert_eq!(
            tagged("{\"type\":\"stats\"}", 7),
            "{\"type\":\"stats\",\"id\":7}"
        );
        assert_eq!(
            reply_id("{\"ok\":true,\"result\":{\"id\":3},\"id\":42}"),
            Some(42)
        );
        assert_eq!(reply_id("{\"ok\":false,\"error\":\"bad\"}"), None);
    }
}
