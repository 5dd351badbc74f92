//! `modemerge-service` — a persistent mode-merging server.
//!
//! The CLI pipeline rebuilds the world per invocation: parse the
//! netlist, bind every mode, run one STA analysis per mode, merge,
//! exit. Sign-off teams re-run exactly that workload constantly with
//! mostly-unchanged inputs, so this crate amortizes it behind a
//! long-running daemon:
//!
//! * [`proto`] — a newline-delimited-JSON protocol over TCP with
//!   request types `register`, `merge`, `plan`, `lint`, `status`,
//!   `stats` and `shutdown`; requests may be pipelined (N lines in, N
//!   tagged replies out, completion order) and lines are capped at
//!   `MODEMERGE_MAX_REQUEST_KB`;
//! * [`registry`] — the content-addressed suite registry: `register`
//!   uploads netlist + per-mode SDCs once and returns a hash; later
//!   requests reference the suite by hash and share its parsed netlist
//!   **and** bound inputs
//!   ([`SessionInputs`](modemerge_core::SessionInputs)) as immutable
//!   `Arc`s across concurrent jobs, byte-budgeted under
//!   `MODEMERGE_SUITE_CACHE_KB`;
//! * [`queue`] — a bounded **sharded** job queue with work stealing:
//!   jobs shard by suite identity (per-suite FIFO affinity, no
//!   head-of-line blocking across suites), workers prefer their own
//!   shard and steal otherwise; a full queue refuses admission with a
//!   structured `overloaded` reply;
//! * [`cache`] — a content-addressed result cache ([`hash`]: FNV-1a 64
//!   over netlist bytes + sorted mode SDC bytes + result-affecting
//!   options) with entry- and byte-budgeted LRU eviction
//!   (`MODEMERGE_RESULT_CACHE_KB`) and hit/miss/eviction counters, so
//!   repeated submissions of unchanged mode sets return in O(hash)
//!   instead of O(STA);
//! * [`eco_store`] — a suite-keyed pool of warm
//!   [`EcoEngine`](modemerge_core::EcoEngine)s, one per suite: an
//!   *edited* resubmission misses the result cache but lands on the
//!   engine holding its previous baseline (waiting for it while another
//!   merge of the suite holds it), which replays everything the
//!   command-level delta leaves valid instead of re-merging cold
//!   (`MODEMERGE_ECO_CHECK=1` cross-checks every warm result against a
//!   cold merge);
//! * [`server`] / [`client`] — the daemon (`modemerge serve`) and the
//!   blocking/pipelining submitter (`modemerge submit`).
//!
//! Everything is `std`-only (`std::net::TcpListener` + scoped OS
//! threads): the workspace builds hermetically offline, so there is no
//! tokio, no serde — the wire format rides on the deterministic
//! in-tree JSON writer ([`modemerge_core::json`]), which is also what
//! makes cached replies byte-identical to the replies that populated
//! them, and hash-referenced replies byte-identical to their
//! full-payload twins.
//!
//! # Quickstart
//!
//! ```no_run
//! use modemerge_service::server::{Server, ServiceConfig};
//! let server = Server::bind("127.0.0.1:7171", ServiceConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! server.run()?; // blocks until a shutdown request drains the queue
//! # Ok::<(), std::io::Error>(())
//! ```

pub mod cache;
pub mod client;
pub mod eco_store;
pub mod hash;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;

pub use cache::{job_key, suite_content_key, CacheBudget, CacheStats, ResultCache};
pub use client::{Client, Response};
pub use eco_store::{suite_key, EcoStore};
pub use proto::{JobRef, JobSpec, NetlistFormat, Request};
pub use queue::{PushError, ShardCounters, ShardedQueue};
pub use registry::{RegisteredSuite, SuiteRegistry};
pub use server::{Server, ServerHandle, ServiceConfig};
