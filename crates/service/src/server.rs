//! The persistent merge server.
//!
//! Architecture (one process, std-only):
//!
//! ```text
//! accept loop ── one handler thread per connection (pipelined JSONL)
//!                  │  status/stats/shutdown/register: answered inline
//!                  │  merge/plan/lint: resolve suite (inline payload or
//!                  │     registry hash) → content-addressed cache probe
//!                  │     hit  → reply O(hash), "cached":true
//!                  │     full → structured "overloaded" refusal
//!                  │     miss → sharded queue (shard = suite identity)
//!                  │              └──► worker pool, own-shard-first with
//!                  │                   work stealing; each worker writes
//!                  │                   its tagged reply straight to the
//!                  └───────◄──────────  connection (completion order)
//! ```
//!
//! A connection may write many requests before reading: replies carry
//! the request's echoed `id` and arrive as jobs finish, so one socket
//! saturates the whole worker pool. Shards are keyed by suite content,
//! giving per-suite FIFO affinity — a cold 100k-cell merge queued on
//! one shard cannot head-of-line-block warm resubmits of another suite
//! — while stealing keeps every worker busy whenever any shard has
//! work.
//!
//! Graceful shutdown (`{"type":"shutdown"}`): the server stops
//! accepting new work, closes the queue (workers drain the backlog —
//! no accepted job is dropped), waits until nothing is queued **or in
//! flight**, replies with the drain count and only then stops the
//! accept loop.
//!
//! Determinism: job computation is a plain [`MergeSession`] run, whose
//! output is bit-identical for any worker/thread count, so concurrent
//! submissions — cached or not, inline or hash-referenced, shared
//! bound inputs or fresh — always observe the same `result` bytes.

use crate::cache::{job_key_for, suite_content_key, CacheStats, ResultCache};
use crate::eco_store::{suite_key_from_seed, suite_seed, EcoStore};
use crate::proto::{
    error_response, error_response_tagged, error_response_with, max_request_bytes, ok_response,
    overloaded_response, result_response, JobRef, JobSpec, Request,
};
use crate::queue::{PushError, ShardedQueue};
use crate::registry::{
    parse_mode_inputs, parse_mode_inputs_lossy, parse_netlist, RegisteredSuite, SuiteRegistry,
};
use modemerge_core::json::Json;
use modemerge_core::merge::MergeOptions;
use modemerge_core::mergeability::greedy_cliques;
use modemerge_core::report::{outcome_to_json, plan_to_json};
use modemerge_core::session::{MergeSession, SessionInputs, StageTimings};
use modemerge_netlist::Netlist;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Worker threads computing merge/plan/lint jobs.
    pub workers: usize,
    /// Content-addressed result-cache budget, in entries (0 disables).
    pub cache_entries: usize,
    /// Bounded job-queue capacity (global across shards); pushes beyond
    /// it are refused with a structured `overloaded` reply rather than
    /// blocking the connection or buffering unboundedly.
    pub queue_capacity: usize,
    /// Queue shards (0 = one per worker). Jobs are routed by suite
    /// identity; workers prefer their own shard and steal otherwise.
    pub shards: usize,
    /// Warm incremental re-merge engines kept resident, one per suite
    /// identity (0 disables incremental reuse — every merge runs cold).
    pub eco_engines: usize,
    /// Suite-registry byte budget in KiB (`None` = the
    /// `MODEMERGE_SUITE_CACHE_KB` environment variable, else 256 MiB).
    pub suite_cache_kb: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 1,
            cache_entries: 128,
            queue_capacity: 256,
            shards: 0,
            eco_engines: 8,
            suite_cache_kb: None,
        }
    }
}

/// What kind of computation a queued job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Merge,
    Plan,
    Lint,
}

impl JobKind {
    fn name(self) -> &'static str {
        match self {
            JobKind::Merge => "merge",
            JobKind::Plan => "plan",
            JobKind::Lint => "lint",
        }
    }
}

/// The per-connection reply channel: workers serialize their tagged
/// reply lines through this mutex, interleaving with the connection
/// thread's inline answers at line granularity.
type ConnWriter = Arc<Mutex<TcpStream>>;

fn write_line(writer: &ConnWriter, line: &str) -> std::io::Result<()> {
    let mut stream = writer.lock().expect("connection writer poisoned");
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()
}

/// What a queued job computes over: a self-contained payload (legacy
/// path, parsed and bound per job) or a registered suite whose parsed
/// netlist and bound inputs are shared `Arc`s.
enum Payload {
    Inline(JobSpec),
    Shared {
        suite: Arc<RegisteredSuite>,
        options: MergeOptions,
    },
}

struct Job {
    kind: JobKind,
    key: u64,
    id: Option<Json>,
    payload: Payload,
    writer: ConnWriter,
    queued_at: Instant,
}

struct ServerState {
    config: ServiceConfig,
    addr: SocketAddr,
    queue: ShardedQueue<Job>,
    cache: Mutex<ResultCache>,
    eco: EcoStore,
    registry: SuiteRegistry,
    /// `false` once shutdown was requested: new compute work is refused
    /// (status/stats stay available while draining).
    accepting: AtomicBool,
    /// `true` once the drain finished and the accept loop must exit.
    stopping: AtomicBool,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    /// Total `MM-*` diagnostics emitted by computed (non-cached) merge
    /// jobs — a cheap server-side signal of how much judgement the
    /// pipeline had to exercise.
    diagnostics_emitted: AtomicU64,
    /// Total lint findings produced by computed (non-cached) lint jobs.
    lint_findings: AtomicU64,
    /// Aggregate time jobs spent queued, in microseconds (reported as
    /// fractional ms — the saturation bench's backlog explanation).
    queue_wait_us_total: AtomicU64,
    queue_wait_us_max: AtomicU64,
    stage_totals: Mutex<StageTimings>,
}

impl ServerState {
    fn status_fields(&self) -> Vec<(String, Json)> {
        vec![
            ("queue_depth".into(), Json::count(self.queue.len())),
            ("in_flight".into(), Json::count(self.queue.active())),
            ("workers".into(), Json::count(self.config.workers)),
            ("shards".into(), Json::count(self.queue.shards())),
            (
                "accepting".into(),
                Json::Bool(self.accepting.load(Ordering::SeqCst)),
            ),
        ]
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("cache poisoned").stats()
    }

    fn stats_fields(&self) -> Vec<(String, Json)> {
        let mut fields = self.status_fields();
        fields.push((
            "submitted".into(),
            Json::num(self.submitted.load(Ordering::SeqCst) as f64),
        ));
        fields.push((
            "completed".into(),
            Json::num(self.completed.load(Ordering::SeqCst) as f64),
        ));
        fields.push((
            "failed".into(),
            Json::num(self.failed.load(Ordering::SeqCst) as f64),
        ));
        fields.push((
            "diagnostics_emitted".into(),
            Json::num(self.diagnostics_emitted.load(Ordering::SeqCst) as f64),
        ));
        fields.push((
            "lint_findings".into(),
            Json::num(self.lint_findings.load(Ordering::SeqCst) as f64),
        ));
        fields.push((
            "queue".into(),
            Json::Obj(vec![
                ("capacity".into(), Json::count(self.config.queue_capacity)),
                ("high_water".into(), Json::count(self.queue.high_water())),
                (
                    "wait_ms_total".into(),
                    Json::num(self.queue_wait_us_total.load(Ordering::SeqCst) as f64 / 1000.0),
                ),
                (
                    "wait_ms_max".into(),
                    Json::num(self.queue_wait_us_max.load(Ordering::SeqCst) as f64 / 1000.0),
                ),
                (
                    "shards".into(),
                    Json::Arr(
                        self.queue
                            .shard_counters()
                            .iter()
                            .map(|c| {
                                Json::Obj(vec![
                                    ("pushed".into(), Json::num(c.pushed as f64)),
                                    ("popped".into(), Json::num(c.popped as f64)),
                                    ("stolen".into(), Json::num(c.stolen as f64)),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
        fields.push((
            "cache".into(),
            Json::Obj(vec![
                ("results".into(), self.cache_stats().to_json()),
                ("suites".into(), self.registry.to_json()),
                ("eco".into(), self.eco.to_json()),
            ]),
        ));
        let totals = self.stage_totals.lock().expect("timings poisoned");
        fields.push(("stage_totals".into(), totals.to_json()));
        fields
    }

    fn record_queue_wait(&self, waited: Duration) {
        let us = waited.as_micros().min(u128::from(u64::MAX)) as u64;
        self.queue_wait_us_total.fetch_add(us, Ordering::SeqCst);
        self.queue_wait_us_max.fetch_max(us, Ordering::SeqCst);
    }
}

/// A running (not yet serving) merge server.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// A handle for observing a served instance from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Whether the server has fully stopped accepting connections.
    pub fn stopped(&self) -> bool {
        self.state.stopping.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// Propagates address-resolution and bind failures.
    pub fn bind(addr: impl ToSocketAddrs, config: ServiceConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shards = if config.shards == 0 {
            workers
        } else {
            config.shards
        };
        let state = Arc::new(ServerState {
            cache: Mutex::new(ResultCache::new(config.cache_entries)),
            eco: EcoStore::new(config.eco_engines),
            registry: SuiteRegistry::new(config.suite_cache_kb),
            queue: ShardedQueue::new(config.queue_capacity, shards),
            accepting: AtomicBool::new(true),
            stopping: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            diagnostics_emitted: AtomicU64::new(0),
            lint_findings: AtomicU64::new(0),
            queue_wait_us_total: AtomicU64::new(0),
            queue_wait_us_max: AtomicU64::new(0),
            stage_totals: Mutex::new(StageTimings::default()),
            addr,
            config,
        });
        Ok(Server { listener, state })
    }

    /// The bound address (useful when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// An observation handle that outlives [`Server::run`].
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until a `shutdown` request drains the queue. Blocks the
    /// calling thread; spawn it if you need to keep working.
    ///
    /// # Errors
    ///
    /// Propagates fatal listener errors (individual connection errors
    /// are swallowed — one bad client must not kill the daemon).
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let workers: Vec<_> = (0..state.config.workers.max(1))
            .map(|idx| {
                let state = Arc::clone(&state);
                thread::spawn(move || worker_loop(&state, idx))
            })
            .collect();

        for stream in self.listener.incoming() {
            if state.stopping.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let state = Arc::clone(&state);
            thread::spawn(move || {
                let _ = handle_connection(stream, &state);
            });
        }
        for w in workers {
            let _ = w.join();
        }
        Ok(())
    }
}

/// One worker: pop (own shard first, steal otherwise) → compute →
/// cache → write the tagged reply straight to the job's connection,
/// until the queue is closed and drained.
fn worker_loop(state: &ServerState, worker: usize) {
    while let Some(job) = state.queue.pop(worker) {
        let waited = job.queued_at.elapsed();
        state.record_queue_wait(waited);
        let response = match compute(state, &job) {
            Ok(result_text) => {
                let result: Arc<str> = result_text.into();
                state
                    .cache
                    .lock()
                    .expect("cache poisoned")
                    .insert(job.key, Arc::clone(&result));
                state.completed.fetch_add(1, Ordering::SeqCst);
                result_response(
                    job.kind.name(),
                    false,
                    job.key,
                    Some(waited.as_micros() as f64 / 1000.0),
                    &result,
                    job.id.as_ref(),
                )
            }
            Err(message) => {
                state.failed.fetch_add(1, Ordering::SeqCst);
                error_response_tagged(Some(job.kind.name()), &message, job.id.as_ref())
            }
        };
        // A vanished client (reset connection) is not a server error.
        let _ = write_line(&job.writer, &response);
        state.queue.task_done();
    }
}

/// Runs one job and serializes the shared summary object (the same
/// bytes `modemerge merge --json` prints) — from a fresh parse+bind for
/// inline payloads, or the registry's shared artifacts for
/// hash-referenced ones. Both paths end in the same [`MergeSession`]
/// code, so their `result` bytes are identical.
fn compute(state: &ServerState, job: &Job) -> Result<String, String> {
    match &job.payload {
        Payload::Inline(spec) => {
            let netlist = parse_netlist(spec.format, &spec.netlist)?;
            // Lossy by default: defective SDC still computes over its
            // valid commands and the reply carries the `SDC-*` findings
            // as data. `strict_parse` restores the old refusal.
            let inputs = if spec.options.strict_parse {
                parse_mode_inputs(&spec.modes)?
            } else {
                parse_mode_inputs_lossy(&spec.modes)
            };
            if job.kind == JobKind::Lint {
                return lint(state, &netlist, &inputs, &spec.options);
            }
            let bound = SessionInputs::bind(&netlist, &inputs).map_err(|e| e.to_string())?;
            let eco_seed = suite_seed(&spec.netlist, &spec.modes);
            let input_fp = modemerge_core::eco::input_fingerprint(&spec.netlist);
            run_session(
                state,
                job.kind,
                &netlist,
                &bound,
                &spec.options,
                eco_seed,
                input_fp,
            )
        }
        Payload::Shared { suite, options } => {
            if job.kind == JobKind::Lint {
                return lint(state, suite.netlist(), suite.mode_inputs(), options);
            }
            let bound = suite.bound_for(options)?;
            run_session(
                state,
                job.kind,
                suite.netlist(),
                &bound,
                options,
                suite.eco_seed(),
                suite.input_fp(),
            )
        }
    }
}

/// Lint must succeed on defective suites (that is its job), so it binds
/// per mode itself instead of going through the all-or-nothing
/// [`SessionInputs::bind`]. `options.fast` routes to the static
/// analyzer backend — identical findings, no per-mode STA.
fn lint(
    state: &ServerState,
    netlist: &Netlist,
    inputs: &[modemerge_core::ModeInput],
    options: &MergeOptions,
) -> Result<String, String> {
    let report = if options.fast {
        modemerge_core::lint::lint_modes_fast(netlist, inputs, options.threads)
    } else {
        modemerge_core::lint::lint_modes(netlist, inputs, options.threads)
    }
    .map_err(|e| e.to_string())?;
    state
        .lint_findings
        .fetch_add(report.findings.len() as u64, Ordering::SeqCst);
    Ok(report.to_json().to_string())
}

fn run_session(
    state: &ServerState,
    kind: JobKind,
    netlist: &Netlist,
    bound: &SessionInputs,
    options: &MergeOptions,
    eco_seed: u64,
    input_fp: u64,
) -> Result<String, String> {
    let session = MergeSession::new(netlist, bound, options);
    let result = match kind {
        JobKind::Merge => {
            // Incremental path: check out the warm engine of this suite
            // identity (fresh and cold on first contact; a second merge
            // of the suite waits for it instead of merging cold beside
            // it). Only a cold run benefits from warming every mode
            // analysis up front — a warm remerge may skip STA entirely,
            // so warming eagerly would pay the cost the engine exists to
            // avoid.
            let mut engine = state.eco.checkout(suite_key_from_seed(eco_seed, options));
            if !engine.has_baseline() {
                session.warm_up();
            }
            let check = std::env::var("MODEMERGE_ECO_CHECK").as_deref() == Ok("1");
            let remerged = session.rebind_delta(&mut engine, input_fp, check);
            drop(engine);
            let (mut outcome, _report) = remerged.map_err(|e| e.to_string())?;
            // Parse findings of lossily parsed inputs ride the group
            // diagnostics — the same bytes `merge --json` prints.
            modemerge_core::lint::attach_parse_findings(bound.inputs(), &mut outcome.reports);
            let emitted: usize = outcome.reports.iter().map(|r| r.diagnostics.len()).sum();
            state
                .diagnostics_emitted
                .fetch_add(emitted as u64, Ordering::SeqCst);
            outcome_to_json(&outcome, bound.inputs().len())
        }
        JobKind::Plan => {
            let graph = session.mergeability();
            let cliques = greedy_cliques(&graph);
            let names: Vec<String> = bound.inputs().iter().map(|i| i.name.clone()).collect();
            plan_to_json(&names, &graph, &cliques)
        }
        JobKind::Lint => unreachable!("lint handled before binding"),
    };
    state
        .stage_totals
        .lock()
        .expect("timings poisoned")
        .accumulate(&session.stage_timings());
    Ok(result.to_string())
}

/// One bounded read: a line, a structured refusal, or end-of-stream.
enum ReadLine {
    /// A complete request line within the cap (`\r\n` stripped).
    Line(String),
    /// The line exceeded the cap; its bytes were discarded up to the
    /// newline so the connection can continue.
    Oversize,
    /// EOF arrived mid-line — the request was truncated.
    Truncated,
    /// Clean EOF at a line boundary.
    Eof,
}

/// Reads one `\n`-terminated line, holding at most `max` bytes: the
/// oversize-line defense the stdlib's unbounded `read_line` lacks. An
/// over-cap line is consumed (not buffered) to the newline, so one
/// abusive request costs O(cap) memory and the connection survives.
fn read_request_line(reader: &mut BufReader<TcpStream>, max: usize) -> std::io::Result<ReadLine> {
    let mut line: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() && !overflowed {
                ReadLine::Eof
            } else {
                ReadLine::Truncated
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if overflowed || line.len() + pos > max {
                    reader.consume(pos + 1);
                    return Ok(ReadLine::Oversize);
                }
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(ReadLine::Line(String::from_utf8_lossy(&line).into_owned()));
            }
            None => {
                let n = buf.len();
                if !overflowed && line.len() + n <= max {
                    line.extend_from_slice(buf);
                } else {
                    overflowed = true;
                    line = Vec::new();
                }
                reader.consume(n);
            }
        }
    }
}

/// Serves one client connection: pipelined JSONL until EOF. Inline
/// answers (status, cache hits, admission refusals…) are written here;
/// queued jobs are answered by whichever worker finishes them, through
/// the shared per-connection writer.
fn handle_connection(stream: TcpStream, state: &ServerState) -> std::io::Result<()> {
    // One-line responses must leave immediately; Nagle would hold them
    // back waiting for an ACK of the (already consumed) request.
    stream.set_nodelay(true)?;
    let writer: ConnWriter = Arc::new(Mutex::new(stream.try_clone()?));
    let mut reader = BufReader::new(stream);
    let max_line = max_request_bytes();
    loop {
        let line = match read_request_line(&mut reader, max_line)? {
            ReadLine::Line(line) => line,
            ReadLine::Oversize => {
                let message = format!(
                    "request line exceeds {max_line} bytes \
                     (MODEMERGE_MAX_REQUEST_KB); request dropped"
                );
                write_line(&writer, &error_response(None, &message))?;
                continue;
            }
            ReadLine::Truncated => {
                // Best effort: the peer may have already vanished.
                let _ = write_line(
                    &writer,
                    &error_response(None, "truncated request (connection closed mid-line)"),
                );
                break;
            }
            ReadLine::Eof => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, finish_shutdown) = dispatch_line(&line, state, &writer);
        let written = match response {
            Some(response) => write_line(&writer, &response),
            None => Ok(()), // queued — a worker writes the reply
        };
        // Shutdown is finalized only AFTER the response is flushed:
        // signalling `stopping` first would let the accept loop break
        // and the process exit before the reply bytes leave this
        // thread, so the shutting-down client would see a bare EOF.
        // It is signalled even when the write fails (client vanished) —
        // a drained daemon must still exit.
        if finish_shutdown {
            state.stopping.store(true, Ordering::SeqCst);
            // Wake the accept loop so `run` can return.
            let _ = TcpStream::connect(state.addr);
            written?;
            break;
        }
        written?;
        if state.stopping.load(Ordering::SeqCst) {
            break;
        }
    }
    Ok(())
}

/// Dispatches one request line. `Some(response)` must be written by the
/// caller; `None` means the job was queued and a worker owns the reply.
/// The `bool` is `true` when this was a `shutdown` whose drain finished
/// and the caller must, after writing the response, signal the accept
/// loop to exit.
fn dispatch_line(line: &str, state: &ServerState, writer: &ConnWriter) -> (Option<String>, bool) {
    let (request, id) = match Request::parse_tagged(line) {
        Ok(parsed) => parsed,
        Err(e) => return (Some(error_response(None, &e)), false),
    };
    match request {
        Request::Status => (
            Some(ok_response("status", tag_fields(state.status_fields(), id))),
            false,
        ),
        Request::Stats => (
            Some(ok_response("stats", tag_fields(state.stats_fields(), id))),
            false,
        ),
        Request::Shutdown => (Some(shutdown(state)), true),
        Request::Register(spec) => (Some(register_suite(state, &spec, id.as_ref())), false),
        Request::Merge(job) => (submit_job(state, JobKind::Merge, job, id, writer), false),
        Request::Plan(job) => (submit_job(state, JobKind::Plan, job, id, writer), false),
        Request::Lint(job) => (submit_job(state, JobKind::Lint, job, id, writer), false),
    }
}

/// Echoes the request's `id` tag onto an inline reply's field list, so
/// pipelined clients can correlate `status`/`stats` replies like any
/// other.
fn tag_fields(mut fields: Vec<(String, Json)>, id: Option<Json>) -> Vec<(String, Json)> {
    if let Some(id) = id {
        fields.push(("id".into(), id));
    }
    fields
}

/// Handles a `register` request inline (uploads are the cold path; the
/// eager parse keeps malformed suites out of the registry entirely).
fn register_suite(state: &ServerState, spec: &JobSpec, id: Option<&Json>) -> String {
    if !state.accepting.load(Ordering::SeqCst) {
        return error_response_tagged(Some("register"), "server is shutting down", id);
    }
    match state
        .registry
        .register(spec.format, &spec.netlist, &spec.modes)
    {
        Ok(suite) => {
            let mut extra = vec![
                ("suite".into(), Json::str(suite.hash_hex())),
                ("modes".into(), Json::count(suite.mode_inputs().len())),
                ("bytes".into(), Json::num(suite.bytes() as f64)),
            ];
            if let Some(id) = id {
                extra.push(("id".into(), id.clone()));
            }
            ok_response("register", extra)
        }
        Err(refusal) => {
            // Malformed SDC answers with machine-readable `SDC-*`
            // findings; the suite was refused atomically (never cached
            // half-bound) and the connection stays usable.
            let extra = if refusal.diagnostics.is_empty() {
                Vec::new()
            } else {
                vec![("diagnostics".into(), refusal.diagnostics_json())]
            };
            error_response_with(Some("register"), &refusal.message, extra, id)
        }
    }
}

fn submit_job(
    state: &ServerState,
    kind: JobKind,
    job_ref: JobRef,
    id: Option<Json>,
    writer: &ConnWriter,
) -> Option<String> {
    if !state.accepting.load(Ordering::SeqCst) {
        return Some(error_response_tagged(
            Some(kind.name()),
            "server is shutting down",
            id.as_ref(),
        ));
    }
    // Resolve the suite reference to a content key + payload.
    let (content_key, payload) = match job_ref {
        JobRef::Inline(spec) => (
            suite_content_key(&spec.netlist, &spec.modes),
            Payload::Inline(spec),
        ),
        JobRef::Registered { suite, options } => match state.registry.get(suite) {
            Some(registered) => (
                registered.hash(),
                Payload::Shared {
                    suite: registered,
                    options,
                },
            ),
            None => {
                return Some(error_response_tagged(
                    Some(kind.name()),
                    &format!(
                        "unknown suite {suite:016x}: not registered or evicted; \
                         re-register and retry"
                    ),
                    id.as_ref(),
                ))
            }
        },
    };
    state.submitted.fetch_add(1, Ordering::SeqCst);
    let key = job_key_for(kind.name(), content_key, payload_options(&payload));

    // Content-addressed fast path: O(hash of the input bytes) for
    // inline payloads, O(1) for registered suites. The lock covers the
    // lookup and an `Arc` clone; the reply is spliced outside it.
    let hit = state.cache.lock().expect("cache poisoned").get(key);
    if let Some(result) = hit {
        return Some(result_response(
            kind.name(),
            true,
            key,
            None,
            &result,
            id.as_ref(),
        ));
    }

    let job = Job {
        kind,
        key,
        id,
        payload,
        writer: Arc::clone(writer),
        queued_at: Instant::now(),
    };
    // Shard by suite content: every job of one suite shares a shard
    // (FIFO affinity), different suites spread across shards.
    match state.queue.try_push(content_key, job) {
        Ok(()) => None,
        Err((PushError::Full, job)) => Some(overloaded_response(
            kind.name(),
            state.queue.len(),
            state.config.queue_capacity,
            job.id.as_ref(),
        )),
        Err((PushError::Closed, job)) => Some(error_response_tagged(
            Some(kind.name()),
            "server is shutting down",
            job.id.as_ref(),
        )),
    }
}

fn payload_options(payload: &Payload) -> &MergeOptions {
    match payload {
        Payload::Inline(spec) => &spec.options,
        Payload::Shared { options, .. } => options,
    }
}

/// Graceful shutdown: refuse new work, drain, report. The caller
/// ([`handle_connection`]) signals the accept loop only after the
/// response below has been flushed to the client.
fn shutdown(state: &ServerState) -> String {
    state.accepting.store(false, Ordering::SeqCst);
    state.queue.close();
    // Drain: every queued job is popped and every popped job replied to
    // before we report success (`is_idle` counts popped-but-unfinished
    // jobs under the queue lock, so no job can fall through the gap).
    while !state.queue.is_idle() {
        thread::sleep(Duration::from_millis(1));
    }
    ok_response(
        "shutdown",
        vec![
            (
                "drained".into(),
                Json::num(state.completed.load(Ordering::SeqCst) as f64),
            ),
            (
                "failed".into(),
                Json::num(state.failed.load(Ordering::SeqCst) as f64),
            ),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = ServiceConfig::default();
        assert_eq!(c.workers, 1);
        assert!(c.cache_entries > 0);
        assert!(c.queue_capacity > 0);
        assert_eq!(c.shards, 0, "0 = one shard per worker");
        assert_eq!(c.suite_cache_kb, None, "None = env/default budget");
    }

    #[test]
    fn bind_reports_ephemeral_port() {
        let server = Server::bind("127.0.0.1:0", ServiceConfig::default()).unwrap();
        assert_ne!(server.local_addr().port(), 0);
        assert!(!server.handle().stopped());
    }

    #[test]
    fn shards_default_to_worker_count() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(server.state.queue.shards(), 3);
        let server = Server::bind(
            "127.0.0.1:0",
            ServiceConfig {
                workers: 4,
                shards: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(server.state.queue.shards(), 2);
    }
}
