//! The content-addressed result cache.
//!
//! Keyed by [`job_key`]: an FNV-1a 64-bit hash over the request kind,
//! the netlist bytes, the **sorted** set of `(mode name, SDC bytes)`
//! pairs and the result-affecting merge options
//! ([`MergeOptions::result_fingerprint`] — thread count is excluded
//! because the deterministic pool makes output bit-identical for any
//! thread count). Submitting the same mode set twice — in any `--mode`
//! order, at any thread count — therefore returns the stored result in
//! O(hash of the input bytes) instead of O(STA).
//!
//! Values are the serialized `result` JSON as shared [`Arc<str>`]
//! bytes: a hit clones the `Arc` under the lock and the server splices
//! those bytes into the reply line outside it — no copy of the result
//! under the lock, no re-parse, no second print.
//!
//! Eviction is LRU over a fixed entry budget **and** a byte budget
//! ([`CacheBudget`], default 64 MiB, overridable via
//! `MODEMERGE_RESULT_CACHE_KB` — the same resolve-override-else-env
//! convention as the STA layer's `MODEMERGE_MEMO_BUDGET_KB`); `get`
//! refreshes recency, `insert` of an over-budget cache evicts
//! least-recently-used entries, but never the entry just inserted.
//! Hit/miss/eviction counters feed the service `stats` reply and the
//! loopback tests.

use crate::hash::Fnv64;
use modemerge_core::json::Json;
use modemerge_core::merge::MergeOptions;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The content-addressed key of one suite's raw bytes: the netlist
/// text plus every `(mode name, SDC text)` pair, sorted internally so
/// submission order cannot split keys. This is also the **suite hash**
/// the `register` request answers with — job keys for both the inline
/// (full-payload) and the registered (hash-referenced) path derive from
/// it via [`job_key_for`], so the two paths share cache entries.
pub fn suite_content_key(netlist: &str, modes: &[(String, String)]) -> u64 {
    let mut sorted: Vec<&(String, String)> = modes.iter().collect();
    sorted.sort();
    let mut h = Fnv64::new();
    h.write_field(netlist.as_bytes());
    h.write_field(&(sorted.len() as u64).to_le_bytes());
    for (name, sdc) in sorted {
        h.write_field(name.as_bytes());
        h.write_field(sdc.as_bytes());
    }
    h.finish()
}

/// The result-cache key of one compute request over an already
/// content-addressed suite ([`suite_content_key`]).
///
/// `kind` distinguishes request types (`"merge"` vs `"plan"`) that
/// share inputs but not results. Registered suites precompute their
/// content key once, so the warm path hashes only the kind, 8 key
/// bytes and the options fingerprint — O(1) instead of O(suite bytes).
pub fn job_key_for(kind: &str, content_key: u64, options: &MergeOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_field(kind.as_bytes());
    h.write_field(&content_key.to_le_bytes());
    h.write_field(options.result_fingerprint().as_bytes());
    h.finish()
}

/// Computes the content-addressed key of one full-payload compute
/// request: [`suite_content_key`] of the raw bytes folded through
/// [`job_key_for`].
pub fn job_key(
    kind: &str,
    netlist: &str,
    modes: &[(String, String)],
    options: &MergeOptions,
) -> u64 {
    job_key_for(kind, suite_content_key(netlist, modes), options)
}

/// The byte budget of a [`ResultCache`]'s stored values.
///
/// Resolution follows the workspace convention set by the STA memo
/// layer: an explicit per-instance override wins, otherwise the
/// `MODEMERGE_RESULT_CACHE_KB` environment variable, otherwise
/// [`CacheBudget::DEFAULT_BYTES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Total bytes of stored result text the cache may retain.
    pub bytes: u64,
}

impl CacheBudget {
    /// Default byte budget: comfortably above the in-tree suites (no
    /// eviction in the loopback tests) while bounding a long-running
    /// daemon fed large merged-suite JSON.
    pub const DEFAULT_BYTES: u64 = 64 * 1024 * 1024;

    /// A budget of `kb` kibibytes.
    pub fn from_kb(kb: u64) -> Self {
        Self { bytes: kb * 1024 }
    }

    /// Resolves an explicit override (in KiB) against the
    /// environment/default fallback: `Some(kb)` wins, `None` defers to
    /// [`Self::from_env`].
    pub fn resolve(kb_override: Option<u64>) -> Self {
        match kb_override {
            Some(kb) => Self::from_kb(kb),
            None => Self::from_env(),
        }
    }

    /// The default budget, overridable via the
    /// `MODEMERGE_RESULT_CACHE_KB` environment variable.
    pub fn from_env() -> Self {
        Self::from_env_var("MODEMERGE_RESULT_CACHE_KB", Self::DEFAULT_BYTES)
    }

    /// A budget read from an arbitrary `*_KB` environment variable,
    /// falling back to `default_bytes`. The generic form behind
    /// [`Self::from_env`]; the suite registry uses it with
    /// `MODEMERGE_SUITE_CACHE_KB`.
    pub fn from_env_var(name: &str, default_bytes: u64) -> Self {
        match std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok()) {
            Some(kb) => Self::from_kb(kb),
            None => Self {
                bytes: default_bytes,
            },
        }
    }

    /// Resolves an explicit KiB override against `from_env_var`.
    pub fn resolve_var(kb_override: Option<u64>, name: &str, default_bytes: u64) -> Self {
        match kb_override {
            Some(kb) => Self::from_kb(kb),
            None => Self::from_env_var(name, default_bytes),
        }
    }
}

impl Default for CacheBudget {
    fn default() -> Self {
        Self {
            bytes: Self::DEFAULT_BYTES,
        }
    }
}

/// Monotonic counters of one cache's lifetime.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: usize,
    /// Maximum entries (0 = caching disabled).
    pub capacity: usize,
    /// Bytes of result text currently stored.
    pub bytes: u64,
    /// Byte budget eviction keeps [`Self::bytes`] under.
    pub budget_bytes: u64,
}

impl CacheStats {
    /// Serializes to the `stats` wire shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("hits".into(), Json::num(self.hits as f64)),
            ("misses".into(), Json::num(self.misses as f64)),
            ("evictions".into(), Json::num(self.evictions as f64)),
            ("entries".into(), Json::count(self.entries)),
            ("capacity".into(), Json::count(self.capacity)),
            ("bytes".into(), Json::num(self.bytes as f64)),
            ("budget_bytes".into(), Json::num(self.budget_bytes as f64)),
        ])
    }
}

/// An LRU map from content key to the serialized result JSON.
///
/// Recency is a [`VecDeque`] of keys (front = least recently used);
/// touch is O(entries), which is fine for the configured budgets
/// (hundreds of entries, values that each represent seconds of STA).
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    budget: CacheBudget,
    map: HashMap<u64, Arc<str>>,
    order: VecDeque<u64>,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ResultCache {
    /// A cache holding at most `capacity` results (0 disables caching)
    /// under the environment-resolved byte budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(capacity, CacheBudget::from_env())
    }

    /// A cache with an explicit byte budget (tests, embedders).
    pub fn with_budget(capacity: usize, budget: CacheBudget) -> Self {
        Self {
            capacity,
            budget,
            map: HashMap::new(),
            order: VecDeque::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn touch(&mut self, key: u64) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    /// Looks up a result, refreshing its recency and counting the
    /// hit/miss. A hit shares the stored bytes (an `Arc` clone).
    pub fn get(&mut self, key: u64) -> Option<Arc<str>> {
        match self.map.get(&key).cloned() {
            Some(v) => {
                self.hits += 1;
                self.touch(key);
                Some(v)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a result, evicting the least-recently-used entries while
    /// over the entry capacity or the byte budget — but never the entry
    /// just inserted, so a single oversized result still caches (the
    /// same never-evict-the-newest convention as the STA layer's
    /// `BoundedMemo`). Re-inserting an existing key refreshes value and
    /// recency without counting an eviction.
    pub fn insert(&mut self, key: u64, value: Arc<str>) {
        if self.capacity == 0 {
            return;
        }
        self.bytes += value.len() as u64;
        if let Some(old) = self.map.insert(key, value) {
            self.bytes -= old.len() as u64;
        }
        self.touch(key);
        while (self.map.len() > self.capacity || self.bytes > self.budget.bytes)
            && self.map.len() > 1
        {
            let Some(victim) = self.order.pop_front() else {
                break;
            };
            if let Some(old) = self.map.remove(&victim) {
                self.bytes -= old.len() as u64;
            }
            self.evictions += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.map.len(),
            capacity: self.capacity,
            bytes: self.bytes,
            budget_bytes: self.budget.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> u64 {
        n
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c = ResultCache::new(2);
        c.insert(key(1), "one".into());
        c.insert(key(2), "two".into());
        // Touch 1 so 2 becomes the LRU victim.
        assert_eq!(c.get(key(1)).as_deref(), Some("one"));
        c.insert(key(3), "three".into());
        assert_eq!(c.get(key(2)), None, "2 was evicted");
        assert_eq!(c.get(key(1)).as_deref(), Some("one"));
        assert_eq!(c.get(key(3)).as_deref(), Some("three"));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions, s.entries), (3, 1, 1, 2));
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut c = ResultCache::new(2);
        c.insert(key(1), "a".into());
        c.insert(key(2), "b".into());
        c.insert(key(1), "a2".into());
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.stats().entries, 2);
        // 2 is now LRU.
        c.insert(key(3), "c".into());
        assert_eq!(c.get(key(2)), None);
        assert_eq!(c.get(key(1)).as_deref(), Some("a2"));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = ResultCache::new(0);
        c.insert(key(1), "x".into());
        assert_eq!(c.get(key(1)), None);
        assert_eq!(c.stats().entries, 0);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_but_never_the_newest() {
        // 10-byte budget, roomy entry capacity: bytes drive eviction.
        let mut c = ResultCache::with_budget(16, CacheBudget { bytes: 10 });
        c.insert(key(1), "aaaa".into()); // 4 bytes
        c.insert(key(2), "bbbb".into()); // 8 bytes total
        c.insert(key(3), "cccc".into()); // 12 > 10 → evict 1
        let s = c.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 8);
        assert_eq!(s.evictions, 1);
        assert_eq!(c.get(key(1)), None, "LRU entry evicted");
        assert_eq!(c.get(key(2)).as_deref(), Some("bbbb"));

        // A single result larger than the whole budget still caches:
        // the just-inserted entry is never its own victim.
        let mut c = ResultCache::with_budget(16, CacheBudget { bytes: 10 });
        c.insert(key(1), "x".repeat(64).into());
        assert_eq!(c.stats().entries, 1);
        assert_eq!(c.stats().bytes, 64);
        assert_eq!(c.get(key(1)).map(|v| v.len()), Some(64));
        // The next insert evicts it immediately.
        c.insert(key(2), "y".into());
        assert_eq!(c.get(key(1)), None);
        assert_eq!(c.stats().bytes, 1);
    }

    #[test]
    fn reinsert_accounts_bytes_exactly_once() {
        let mut c = ResultCache::with_budget(4, CacheBudget { bytes: 1024 });
        c.insert(key(1), "aaaa".into());
        c.insert(key(1), "bb".into());
        assert_eq!(c.stats().bytes, 2, "replaced value must not leak bytes");
        c.insert(key(1), "cccccc".into());
        assert_eq!(c.stats().bytes, 6);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn budget_resolution_prefers_explicit_override() {
        assert_eq!(CacheBudget::from_kb(4).bytes, 4096);
        assert_eq!(CacheBudget::resolve(Some(2)).bytes, 2048);
        assert_eq!(CacheBudget::default().bytes, CacheBudget::DEFAULT_BYTES);
        // `resolve(None)` defers to the environment; without the
        // variable set it lands on the default. (Setting env vars in
        // tests races other threads, so only the unset path is pinned.)
        if std::env::var("MODEMERGE_RESULT_CACHE_KB").is_err() {
            assert_eq!(CacheBudget::resolve(None).bytes, CacheBudget::DEFAULT_BYTES);
        }
    }

    #[test]
    fn job_key_is_stable_and_order_insensitive() {
        let opts = MergeOptions::default();
        let ab = vec![
            ("A".to_owned(), "sdc a\n".to_owned()),
            ("B".to_owned(), "sdc b\n".to_owned()),
        ];
        let ba: Vec<(String, String)> = ab.iter().rev().cloned().collect();
        let k1 = job_key("merge", "net\n", &ab, &opts);
        // Same inputs → same key, every time (stability).
        assert_eq!(k1, job_key("merge", "net\n", &ab, &opts));
        // Mode submission order must not matter.
        assert_eq!(k1, job_key("merge", "net\n", &ba, &opts));
        // Thread count must not matter (bit-identical results).
        let threaded = MergeOptions {
            threads: 8,
            ..Default::default()
        };
        assert_eq!(k1, job_key("merge", "net\n", &ab, &threaded));
        // Anything content-bearing must matter.
        assert_ne!(k1, job_key("plan", "net\n", &ab, &opts));
        assert_ne!(k1, job_key("merge", "net2\n", &ab, &opts));
        let renamed = vec![
            ("A2".to_owned(), "sdc a\n".to_owned()),
            ("B".to_owned(), "sdc b\n".to_owned()),
        ];
        assert_ne!(k1, job_key("merge", "net\n", &renamed, &opts));
        let strict = MergeOptions {
            strict: true,
            ..Default::default()
        };
        assert_ne!(k1, job_key("merge", "net\n", &ab, &strict));
    }
}
