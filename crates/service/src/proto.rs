//! The JSONL wire protocol.
//!
//! One request per line, one response line per request, over a plain
//! TCP stream. Requests may be **pipelined**: a client writes N lines
//! and reads N replies, which arrive in *completion* order — each
//! request may carry an `id` tag (string or number) that the server
//! echoes verbatim on the matching reply, so out-of-order completions
//! stay attributable. Every line is a single compact JSON object; the
//! request carries a `type` discriminator:
//!
//! ```text
//! request  := register | merge | plan | lint | status | stats | shutdown
//! register := {"type":"register","netlist":STR,["format":"text"|"verilog",]
//!              "modes":[{"name":STR,"sdc":STR}...],["id":TAG]}
//! merge    := {"type":"merge",(payload|ref),["options":OBJ,]["id":TAG]}
//! payload  := "netlist":STR,["format":...,]"modes":[...]
//! ref      := "suite":HEX16            (hash from a register reply)
//! plan     := like merge, with "type":"plan"
//! lint     := like merge, with "type":"lint" (static analysis only)
//! status   := {"type":"status"}
//! stats    := {"type":"stats"}
//! shutdown := {"type":"shutdown"}
//!
//! response := {"ok":true,"type":STR,["cached":BOOL,]["result":OBJ,]
//!              ...,["id":TAG]}
//!           | {"ok":false,["type":STR,]["overloaded":true,]"error":STR,
//!              ["diagnostics":ARR,]["id":TAG]}
//! ```
//!
//! `register` uploads a suite once and answers with its content hash
//! (`"suite":HEX16`); later compute requests reference it by hash, so
//! the hot path transfers one short line instead of the whole payload.
//! Registration is content-addressed and options-independent — an
//! `options` field on a `register` line is ignored. Referencing a hash
//! the server no longer holds (never registered, or evicted under
//! `MODEMERGE_SUITE_CACHE_KB`) yields a structured `unknown suite`
//! error; the client re-registers and retries. A `register` payload
//! whose SDC has parse defects is refused **atomically** with a
//! `diagnostics` array of structured `SDC-*` findings
//! (`[{"mode","code","line","col","end_col","message"}]`) — nothing is
//! cached, so a hash from a `register` reply always names a fully
//! parsed suite. `merge`/`plan`/`lint` with an **inline** payload parse
//! the SDC lossily instead: the job proceeds over the valid commands
//! and the reply's `result` carries the parse findings as data
//! (`options.strict_parse` restores the old refuse-on-first-error
//! behavior). `lint` with `options.fast` answers from the static
//! timing-graph analyzer instead of per-mode STA — same findings,
//! interactive latency — and the flag rides the options fingerprint,
//! so fast and slow reports are cached under distinct keys.
//!
//! A full queue refuses admission with `"overloaded":true` instead of
//! buffering unboundedly — backpressure the client sees immediately.
//! Request lines are capped at [`max_request_bytes`] (env-tunable
//! `MODEMERGE_MAX_REQUEST_KB`, default 64 MiB); an oversize or
//! EOF-truncated line gets a structured error, never an unbounded
//! buffer.
//!
//! `merge`/`plan` results reuse the exact summary objects the CLI's
//! `--json` flag prints ([`modemerge_core::report::outcome_to_json`] /
//! [`plan_to_json`](modemerge_core::report::plan_to_json)); the
//! response merely wraps them in an `ok`/`cached` envelope. The
//! serializer is deterministic (insertion-ordered objects), so a cached
//! reply's `result` is byte-identical to the reply that populated it —
//! and a hash-referenced reply to the one its payload twin produced.

use modemerge_core::json::Json;
use modemerge_core::merge::MergeOptions;
use std::fmt::Write as _;

/// Default per-request line cap: 64 MiB.
pub const DEFAULT_MAX_REQUEST_BYTES: usize = 64 * 1024 * 1024;

/// The per-request JSONL line cap in bytes, from the
/// `MODEMERGE_MAX_REQUEST_KB` environment variable (in KiB), else
/// [`DEFAULT_MAX_REQUEST_BYTES`].
pub fn max_request_bytes() -> usize {
    std::env::var("MODEMERGE_MAX_REQUEST_KB")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or(DEFAULT_MAX_REQUEST_BYTES, |kb| kb.saturating_mul(1024))
}

/// How the netlist text should be parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetlistFormat {
    /// The native line-oriented text format (`modemerge_netlist::text`).
    #[default]
    Text,
    /// Gate-level structural Verilog.
    Verilog,
}

/// A full compute payload: netlist plus per-mode SDCs.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Netlist source text.
    pub netlist: String,
    /// Netlist flavor.
    pub format: NetlistFormat,
    /// `(mode name, SDC text)` pairs, in submission order.
    pub modes: Vec<(String, String)>,
    /// Merge options (defaults filled for absent fields).
    pub options: MergeOptions,
}

/// What a compute request points at: an inline payload (self-contained,
/// O(suite bytes) per request) or a previously registered suite hash
/// (O(1) per request). Both resolve to the same content key, so they
/// share result-cache entries and produce byte-identical replies.
#[derive(Debug, Clone, PartialEq)]
pub enum JobRef {
    /// The legacy full-payload form.
    Inline(JobSpec),
    /// A `register`ed suite referenced by content hash.
    Registered {
        /// The suite hash from the `register` reply.
        suite: u64,
        /// Merge options (defaults filled for absent fields).
        options: MergeOptions,
    },
}

impl JobRef {
    /// The merge options of either form.
    pub fn options(&self) -> &MergeOptions {
        match self {
            JobRef::Inline(spec) => &spec.options,
            JobRef::Registered { options, .. } => options,
        }
    }
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Upload a suite once; replies with its content hash.
    Register(JobSpec),
    /// Full plan-and-merge pipeline; replies with the merged artifacts.
    Merge(JobRef),
    /// Mergeability graph + clique cover only.
    Plan(JobRef),
    /// Static-analysis lint over the mode suite (no merging).
    Lint(JobRef),
    /// Queue/worker snapshot (cheap, answered inline).
    Status,
    /// Cache counters, job totals and per-stage timing totals.
    Stats,
    /// Graceful shutdown: refuse new work, drain, then stop.
    Shutdown,
}

impl Request {
    /// The wire name of the request type.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Register(_) => "register",
            Request::Merge(_) => "merge",
            Request::Plan(_) => "plan",
            Request::Lint(_) => "lint",
            Request::Status => "status",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }

    /// Parses one request line, discarding any `id` tag.
    ///
    /// # Errors
    ///
    /// Returns a one-line message for malformed JSON, a missing or
    /// unknown `type`, or an invalid payload.
    pub fn parse(line: &str) -> Result<Request, String> {
        Self::parse_tagged(line).map(|(request, _)| request)
    }

    /// Parses one request line together with its optional `id` tag,
    /// which the server must echo verbatim on the reply.
    ///
    /// # Errors
    ///
    /// As [`Request::parse`].
    pub fn parse_tagged(line: &str) -> Result<(Request, Option<Json>), String> {
        let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let id = v.get("id").cloned();
        let kind = v
            .get("type")
            .and_then(Json::as_str)
            .ok_or("request needs a string `type` field")?;
        let request = match kind {
            "register" => Request::Register(parse_spec(&v)?),
            "merge" => Request::Merge(parse_job_ref(&v)?),
            "plan" => Request::Plan(parse_job_ref(&v)?),
            "lint" => Request::Lint(parse_job_ref(&v)?),
            "status" => Request::Status,
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => {
                return Err(format!(
                    "unknown request type `{other}` \
                     (expected register|merge|plan|lint|status|stats|shutdown)"
                ))
            }
        };
        Ok((request, id))
    }
}

/// Parses the wire form of a suite hash: exactly 16 hex digits, as
/// printed by the `register` reply.
///
/// # Errors
///
/// Returns a one-line message naming the expected shape.
pub fn parse_suite_hash(s: &str) -> Result<u64, String> {
    if s.len() == 16 {
        if let Ok(hash) = u64::from_str_radix(s, 16) {
            return Ok(hash);
        }
    }
    Err(format!(
        "suite: `{s}` is not a 16-hex-digit suite hash (as returned by `register`)"
    ))
}

fn parse_job_ref(v: &Json) -> Result<JobRef, String> {
    match v.get("suite") {
        None => Ok(JobRef::Inline(parse_spec(v)?)),
        Some(suite) => {
            if v.get("netlist").is_some() {
                return Err("request carries both `suite` and `netlist`; pick one".into());
            }
            let hex = suite
                .as_str()
                .ok_or("`suite` must be a 16-hex-digit string")?;
            Ok(JobRef::Registered {
                suite: parse_suite_hash(hex)?,
                options: parse_options(v)?,
            })
        }
    }
}

fn parse_options(v: &Json) -> Result<MergeOptions, String> {
    match v.get("options") {
        None => Ok(MergeOptions::default()),
        Some(o) => MergeOptions::from_json(o),
    }
}

fn parse_spec(v: &Json) -> Result<JobSpec, String> {
    let netlist = v
        .get("netlist")
        .and_then(Json::as_str)
        .ok_or("request needs a string `netlist` field (or a registered `suite` hash)")?
        .to_owned();
    let format = match v.get("format").and_then(Json::as_str) {
        None | Some("text") => NetlistFormat::Text,
        Some("verilog") => NetlistFormat::Verilog,
        Some(other) => return Err(format!("format: `{other}` is not text|verilog")),
    };
    let modes_json = v
        .get("modes")
        .and_then(Json::as_array)
        .ok_or("request needs a `modes` array")?;
    let mut modes = Vec::with_capacity(modes_json.len());
    for (i, m) in modes_json.iter().enumerate() {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("modes[{i}] needs a string `name`"))?;
        let sdc = m
            .get("sdc")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("modes[{i}] needs a string `sdc`"))?;
        modes.push((name.to_owned(), sdc.to_owned()));
    }
    if modes.is_empty() {
        return Err("request needs at least one mode".into());
    }
    Ok(JobSpec {
        netlist,
        format,
        modes,
        options: parse_options(v)?,
    })
}

fn format_name(format: NetlistFormat) -> &'static str {
    match format {
        NetlistFormat::Text => "text",
        NetlistFormat::Verilog => "verilog",
    }
}

fn payload_fields(spec: &JobSpec) -> Vec<(String, Json)> {
    vec![
        ("netlist".into(), Json::str(&spec.netlist)),
        ("format".into(), Json::str(format_name(spec.format))),
        (
            "modes".into(),
            Json::Arr(
                spec.modes
                    .iter()
                    .map(|(name, sdc)| {
                        Json::Obj(vec![
                            ("name".into(), Json::str(name)),
                            ("sdc".into(), Json::str(sdc)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

/// Builds a full-payload `merge`/`plan`/`lint` request line — **without**
/// the trailing newline; the transport adds framing.
pub fn compute_request(kind: &str, spec: &JobSpec) -> String {
    let mut pairs = vec![("type".into(), Json::str(kind))];
    pairs.extend(payload_fields(spec));
    pairs.push(("options".into(), spec.options.to_json()));
    Json::Obj(pairs).to_string()
}

/// Builds a `register` request line. Registration is options-
/// independent, so the spec's options are not serialized.
pub fn register_request(spec: &JobSpec) -> String {
    let mut pairs = vec![("type".into(), Json::str("register"))];
    pairs.extend(payload_fields(spec));
    Json::Obj(pairs).to_string()
}

/// Builds a hash-referenced compute request line — the O(1) hot path.
pub fn suite_request(kind: &str, suite_hex: &str, options: &MergeOptions) -> String {
    Json::Obj(vec![
        ("type".into(), Json::str(kind)),
        ("suite".into(), Json::str(suite_hex)),
        ("options".into(), options.to_json()),
    ])
    .to_string()
}

/// Builds a payload-free request line (`status`, `stats`, `shutdown`).
pub fn simple_request(kind: &str) -> String {
    Json::Obj(vec![("type".into(), Json::str(kind))]).to_string()
}

/// Appends an `id` tag to an already built request line (re-parsing the
/// compact object — pipelining setup is not the hot path).
///
/// # Panics
///
/// Panics if `line` is not a JSON object produced by a builder above.
pub fn tag_request(line: &str, id: &Json) -> String {
    match Json::parse(line).expect("builder lines are valid JSON") {
        Json::Obj(mut pairs) => {
            pairs.retain(|(k, _)| k != "id");
            pairs.push(("id".into(), id.clone()));
            Json::Obj(pairs).to_string()
        }
        _ => panic!("request lines are JSON objects"),
    }
}

/// Wraps a successful result in the response envelope. `extra` pairs
/// land after `ok`/`type` (e.g. `cached`, `result`, the echoed `id`).
pub fn ok_response(kind: &str, extra: Vec<(String, Json)>) -> String {
    let mut pairs = vec![
        ("ok".into(), Json::Bool(true)),
        ("type".into(), Json::str(kind)),
    ];
    pairs.extend(extra);
    Json::Obj(pairs).to_string()
}

/// The reply to a computed or cached `merge`/`plan`/`lint` job, spliced
/// around its already serialized `result` bytes. It is the line
/// [`ok_response`] prints for the fields `cached`, `key`,
/// `queue_wait_ms` (computed jobs only), `result` over
/// `Json::parse(result)` and `id` (tagged requests only), built without
/// parsing or re-printing the result: the serializer's output is a
/// fixed point of parse-then-print, so the two agree byte for byte.
pub fn result_response(
    kind: &str,
    cached: bool,
    key: u64,
    queue_wait_ms: Option<f64>,
    result: &str,
    id: Option<&Json>,
) -> String {
    let mut line = String::with_capacity(result.len() + 128);
    let _ = write!(
        line,
        "{{\"ok\":true,\"type\":{},\"cached\":{cached},\"key\":\"{key:016x}\"",
        Json::str(kind)
    );
    if let Some(ms) = queue_wait_ms {
        let _ = write!(line, ",\"queue_wait_ms\":{}", Json::num(ms));
    }
    line.push_str(",\"result\":");
    line.push_str(result);
    if let Some(id) = id {
        let _ = write!(line, ",\"id\":{id}");
    }
    line.push('}');
    line
}

/// An error response envelope, echoing the request's `id` tag when
/// present.
pub fn error_response_tagged(kind: Option<&str>, message: &str, id: Option<&Json>) -> String {
    error_response_with(kind, message, Vec::new(), id)
}

/// An error response envelope carrying extra structured fields after
/// `error` — e.g. the `diagnostics` array a `register` refusal attaches
/// for malformed SDC, so clients get machine-readable `SDC-*` findings
/// instead of a bare message.
pub fn error_response_with(
    kind: Option<&str>,
    message: &str,
    extra: Vec<(String, Json)>,
    id: Option<&Json>,
) -> String {
    let mut pairs = vec![("ok".into(), Json::Bool(false))];
    if let Some(kind) = kind {
        pairs.push(("type".into(), Json::str(kind)));
    }
    pairs.push(("error".into(), Json::str(message)));
    pairs.extend(extra);
    if let Some(id) = id {
        pairs.push(("id".into(), id.clone()));
    }
    Json::Obj(pairs).to_string()
}

/// An untagged error response envelope.
pub fn error_response(kind: Option<&str>, message: &str) -> String {
    error_response_tagged(kind, message, None)
}

/// The bounded-admission refusal: a full queue answers immediately with
/// `"overloaded":true` and the observed depth instead of buffering the
/// job. Clients treat it as retryable backpressure.
pub fn overloaded_response(kind: &str, depth: usize, capacity: usize, id: Option<&Json>) -> String {
    let mut pairs = vec![
        ("ok".into(), Json::Bool(false)),
        ("type".into(), Json::str(kind)),
        ("overloaded".into(), Json::Bool(true)),
        (
            "error".into(),
            Json::str(format!(
                "queue full ({depth} pending, capacity {capacity}); retry later"
            )),
        ),
        ("queue_depth".into(), Json::count(depth)),
    ];
    if let Some(id) = id {
        pairs.push(("id".into(), id.clone()));
    }
    Json::Obj(pairs).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            netlist: "# net\n".into(),
            format: NetlistFormat::Text,
            modes: vec![
                ("A".into(), "create_clock ...\n".into()),
                ("B".into(), "create_clock ...\n".into()),
            ],
            options: MergeOptions {
                threads: 2,
                ..Default::default()
            },
        }
    }

    #[test]
    fn spliced_result_replies_equal_the_parsed_envelope() {
        // Results as the cache holds them: the serializer's own output.
        let results = [
            Json::Obj(vec![
                (
                    "merged".into(),
                    Json::Arr(vec![Json::str("A+B \"q\" \\ \u{1} é\n😀")]),
                ),
                ("n".into(), Json::count(3)),
                ("frac".into(), Json::num(0.1 + 0.2)),
                ("big".into(), Json::num(1e300)),
                ("none".into(), Json::Null),
            ]),
            Json::Arr(vec![]),
            Json::num(-2.5),
            Json::Null,
            Json::str("text"),
        ];
        let ids = [
            None,
            Some(Json::str("tag \"x\" \\ é\t")),
            Some(Json::count(42)),
            Some(Json::num(-1.5)),
            Some(Json::Null),
            Some(Json::Obj(vec![
                ("c".into(), Json::count(1)),
                ("d".into(), Json::Arr(vec![Json::Bool(true)])),
            ])),
        ];
        let key = 0x00ab_cdef_0123_4567_u64;
        for result in results.iter().map(Json::to_string) {
            for id in &ids {
                for (cached, wait) in [(true, None), (false, Some(12.345)), (false, Some(0.0))] {
                    let mut extra = vec![
                        ("cached".into(), Json::Bool(cached)),
                        ("key".into(), Json::str(format!("{key:016x}"))),
                    ];
                    if let Some(ms) = wait {
                        extra.push(("queue_wait_ms".into(), Json::num(ms)));
                    }
                    extra.push(("result".into(), Json::parse(&result).unwrap()));
                    if let Some(id) = id {
                        extra.push(("id".into(), id.clone()));
                    }
                    assert_eq!(
                        result_response("lint", cached, key, wait, &result, id.as_ref()),
                        ok_response("lint", extra)
                    );
                }
            }
        }
    }

    #[test]
    fn compute_request_roundtrips() {
        let line = compute_request("merge", &spec());
        assert!(!line.contains('\n'), "JSONL framing: {line}");
        match Request::parse(&line).unwrap() {
            Request::Merge(JobRef::Inline(parsed)) => assert_eq!(parsed, spec()),
            other => panic!("{other:?}"),
        }
        let plan = compute_request("plan", &spec());
        assert!(matches!(Request::parse(&plan).unwrap(), Request::Plan(_)));
        let lint = compute_request("lint", &spec());
        match Request::parse(&lint).unwrap() {
            Request::Lint(JobRef::Inline(parsed)) => assert_eq!(parsed, spec()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn register_and_suite_requests_roundtrip() {
        let line = register_request(&spec());
        match Request::parse(&line).unwrap() {
            Request::Register(parsed) => {
                assert_eq!(parsed.netlist, spec().netlist);
                assert_eq!(parsed.modes, spec().modes);
                // Registration is options-independent.
                assert_eq!(parsed.options, MergeOptions::default());
            }
            other => panic!("{other:?}"),
        }
        let opts = MergeOptions {
            strict: true,
            ..Default::default()
        };
        let line = suite_request("merge", "00ff00ff00ff00ff", &opts);
        match Request::parse(&line).unwrap() {
            Request::Merge(JobRef::Registered { suite, options }) => {
                assert_eq!(suite, 0x00ff_00ff_00ff_00ff);
                assert_eq!(options, opts);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn id_tags_parse_and_echo() {
        let tagged = tag_request(
            &suite_request("lint", "0123456789abcdef", &MergeOptions::default()),
            &Json::str("job-7"),
        );
        let (request, id) = Request::parse_tagged(&tagged).unwrap();
        assert!(matches!(request, Request::Lint(JobRef::Registered { .. })));
        assert_eq!(id, Some(Json::str("job-7")));
        // Numeric tags survive verbatim too.
        let tagged = tag_request(&simple_request("status"), &Json::num(42.0));
        let (_, id) = Request::parse_tagged(&tagged).unwrap();
        assert_eq!(id, Some(Json::num(42.0)));
        // Untagged lines yield no id.
        assert_eq!(
            Request::parse_tagged(&simple_request("stats")).unwrap().1,
            None
        );
    }

    #[test]
    fn simple_requests_parse() {
        for (kind, want) in [
            ("status", Request::Status),
            ("stats", Request::Stats),
            ("shutdown", Request::Shutdown),
        ] {
            assert_eq!(Request::parse(&simple_request(kind)).unwrap(), want);
        }
    }

    #[test]
    fn options_default_when_absent() {
        let line =
            "{\"type\":\"merge\",\"netlist\":\"n\",\"modes\":[{\"name\":\"A\",\"sdc\":\"s\"}]}";
        match Request::parse(line).unwrap() {
            Request::Merge(JobRef::Inline(s)) => assert_eq!(s.options, MergeOptions::default()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_requests_get_clear_errors() {
        assert!(Request::parse("not json")
            .unwrap_err()
            .contains("malformed"));
        assert!(Request::parse("{}").unwrap_err().contains("type"));
        assert!(Request::parse("{\"type\":\"nope\"}")
            .unwrap_err()
            .contains("unknown request type"));
        let no_modes = "{\"type\":\"merge\",\"netlist\":\"n\",\"modes\":[]}";
        assert!(Request::parse(no_modes)
            .unwrap_err()
            .contains("at least one mode"));
        let bad_format = "{\"type\":\"plan\",\"netlist\":\"n\",\"format\":\"edif\",\"modes\":[{\"name\":\"A\",\"sdc\":\"s\"}]}";
        assert!(Request::parse(bad_format).unwrap_err().contains("edif"));
        let bad_hash = "{\"type\":\"merge\",\"suite\":\"xyz\"}";
        assert!(Request::parse(bad_hash)
            .unwrap_err()
            .contains("16-hex-digit"));
        let both = "{\"type\":\"merge\",\"suite\":\"0123456789abcdef\",\"netlist\":\"n\"}";
        assert!(Request::parse(both).unwrap_err().contains("pick one"));
    }

    #[test]
    fn suite_hash_wire_form_is_strict() {
        assert_eq!(parse_suite_hash("0000000000000001").unwrap(), 1);
        assert_eq!(parse_suite_hash("ffffffffffffffff").unwrap(), u64::MAX);
        assert!(parse_suite_hash("1").is_err(), "too short");
        assert!(parse_suite_hash("00000000000000001").is_err(), "too long");
        assert!(parse_suite_hash("000000000000000g").is_err(), "not hex");
    }

    #[test]
    fn envelopes_are_single_lines() {
        let ok = ok_response("merge", vec![("cached".into(), Json::Bool(true))]);
        assert_eq!(ok, "{\"ok\":true,\"type\":\"merge\",\"cached\":true}");
        let err = error_response(Some("merge"), "queue full");
        assert_eq!(
            err,
            "{\"ok\":false,\"type\":\"merge\",\"error\":\"queue full\"}"
        );
        assert_eq!(
            error_response(None, "bad"),
            "{\"ok\":false,\"error\":\"bad\"}"
        );
        let tagged = error_response_tagged(Some("lint"), "nope", Some(&Json::str("j1")));
        assert_eq!(
            tagged,
            "{\"ok\":false,\"type\":\"lint\",\"error\":\"nope\",\"id\":\"j1\"}"
        );
        let over = overloaded_response("merge", 3, 3, None);
        assert!(over.contains("\"overloaded\":true"), "{over}");
        assert!(
            over.contains("queue full (3 pending, capacity 3)"),
            "{over}"
        );
        assert!(over.contains("\"queue_depth\":3"), "{over}");
    }

    #[test]
    fn request_line_cap_defaults_to_64_mib() {
        if std::env::var("MODEMERGE_MAX_REQUEST_KB").is_err() {
            assert_eq!(max_request_bytes(), DEFAULT_MAX_REQUEST_BYTES);
        }
    }
}
