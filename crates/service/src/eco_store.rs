//! The suite-keyed store of warm incremental re-merge engines.
//!
//! Each [`EcoEngine`](modemerge_core::EcoEngine) carries the baseline
//! of one constraint *suite*: the previous merge outcome, per-command
//! content hashes and the stage/pair caches that make an edited
//! resubmission replay instead of recompute. The daemon keeps one
//! engine per suite identity ([`suite_key`]: design bytes + sorted
//! mode **names** + result-affecting options — deliberately *not* the
//! SDC contents, so an edited suite maps onto its warm engine), under
//! a small LRU cap: engines hold clones of whole merge outcomes, so
//! the budget is engines, not entries.
//!
//! Concurrency: there is at most one engine per suite key. A remerge
//! holds it through an [`EcoCheckout`] guard; a second merge of the
//! same suite meanwhile waits for the guard instead of merging cold
//! beside it, so it replays against the first merge's fresh baseline.
//! The guard puts the engine back on drop. If the merge panicked, it
//! drops the engine's baseline instead (it may be half updated) and
//! keeps its counters; either way the key is released. The `stats`
//! aggregate counts a checked-out engine at its counters from checkout
//! time, and those of evicted or discarded engines roll into a retired
//! accumulator, so every counter is monotonic.

use crate::hash::Fnv64;
use modemerge_core::json::Json;
use modemerge_core::merge::MergeOptions;
use modemerge_core::{EcoCounters, EcoEngine};
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// The options-independent half of a suite's engine identity: the
/// design bytes plus the **sorted mode names**. Mode SDC *contents* do
/// not participate — editing a constraint (or re-registering an edited
/// suite) must land on the warm engine that holds the pre-edit
/// baseline. Registered suites precompute this seed once so the warm
/// path never re-hashes the netlist.
pub fn suite_seed(netlist: &str, modes: &[(String, String)]) -> u64 {
    let mut names: Vec<&str> = modes.iter().map(|(n, _)| n.as_str()).collect();
    names.sort_unstable();
    let mut h = Fnv64::new();
    h.write_field(netlist.as_bytes());
    h.write_field(&(names.len() as u64).to_le_bytes());
    for name in names {
        h.write_field(name.as_bytes());
    }
    h.finish()
}

/// Folds the result-affecting options into a [`suite_seed`] — the full
/// engine identity. Engines replay baselines, so two option sets that
/// could produce different merges must never share one.
pub fn suite_key_from_seed(seed: u64, options: &MergeOptions) -> u64 {
    let mut h = Fnv64::new();
    h.write_field(&seed.to_le_bytes());
    h.write_field(options.result_fingerprint().as_bytes());
    h.finish()
}

/// Content key of one suite identity: [`suite_seed`] of the raw bytes
/// folded through [`suite_key_from_seed`].
pub fn suite_key(netlist: &str, modes: &[(String, String)], options: &MergeOptions) -> u64 {
    suite_key_from_seed(suite_seed(netlist, modes), options)
}

/// An LRU pool of at most `cap` warm engines, keyed by [`suite_key`],
/// handing out at most one engine per key at a time.
pub struct EcoStore {
    cap: usize,
    state: Mutex<StoreState>,
    /// Signalled whenever a checkout is released.
    released: Condvar,
}

#[derive(Default)]
struct StoreState {
    /// Checked-in engines in recency order (back = most recent). Linear
    /// scans are fine: the cap is single-digit.
    engines: Vec<(u64, EcoEngine)>,
    /// Keys of checked-out engines, with their counters at checkout.
    checked_out: Vec<(u64, EcoCounters)>,
    /// Counters of engines evicted or discarded, so the aggregate
    /// reported by [`EcoStore::counters`] never goes backwards.
    retired: EcoCounters,
}

impl EcoStore {
    /// A store keeping at most `cap` engines (0 disables reuse: every
    /// checkout is a fresh, cold engine).
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            state: Mutex::new(StoreState::default()),
            released: Condvar::new(),
        }
    }

    /// Every critical section leaves the state consistent and panics
    /// nowhere, so a poisoned lock is still sound to use — and a guard
    /// dropped during a panic must not panic again.
    fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Checks out the engine for `key` (a fresh one on first contact),
    /// waiting while another checkout of `key` is live. The engine goes
    /// back when the returned guard drops.
    pub fn checkout(&self, key: u64) -> EcoCheckout<'_> {
        let mut state = self.lock();
        while state.checked_out.iter().any(|(k, _)| *k == key) {
            state = self
                .released
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let engine = match state.engines.iter().position(|(k, _)| *k == key) {
            Some(pos) => state.engines.remove(pos).1,
            None => EcoEngine::new(),
        };
        state.checked_out.push((key, *engine.counters()));
        EcoCheckout {
            store: self,
            key,
            engine: Some(engine),
        }
    }

    /// Releases `key` and checks `engine` back in, evicting the
    /// least-recently-used engines while over the cap (their counters
    /// are retired, their baselines dropped). A `discard`ed engine is
    /// retired at once.
    fn release(&self, key: u64, engine: EcoEngine, discard: bool) {
        let mut state = self.lock();
        state.checked_out.retain(|(k, _)| *k != key);
        if discard || self.cap == 0 {
            state.retired.accumulate(engine.counters());
        } else {
            state.engines.push((key, engine));
            while state.engines.len() > self.cap {
                let (_, evicted) = state.engines.remove(0);
                state.retired.accumulate(evicted.counters());
            }
        }
        drop(state);
        self.released.notify_all();
    }

    /// The aggregate counters across retired, resident and checked-out
    /// engines, plus the resident engine count.
    pub fn counters(&self) -> (EcoCounters, usize) {
        let state = self.lock();
        let mut total = state.retired;
        for (_, engine) in &state.engines {
            total.accumulate(engine.counters());
        }
        for (_, at_checkout) in &state.checked_out {
            total.accumulate(at_checkout);
        }
        (total, state.engines.len())
    }

    /// Serializes the aggregate to the `stats` wire shape: every
    /// [`EcoCounters`] field plus `engines`, the resident count.
    pub fn to_json(&self) -> Json {
        let (counters, engines) = self.counters();
        match counters.to_json() {
            Json::Obj(mut fields) => {
                fields.push(("engines".into(), Json::count(engines)));
                Json::Obj(fields)
            }
            other => other,
        }
    }
}

/// Exclusive use of one suite's engine, from [`EcoStore::checkout`]
/// until drop.
pub struct EcoCheckout<'a> {
    store: &'a EcoStore,
    key: u64,
    /// `Some` until drop hands it back.
    engine: Option<EcoEngine>,
}

impl Deref for EcoCheckout<'_> {
    type Target = EcoEngine;

    fn deref(&self) -> &EcoEngine {
        self.engine.as_ref().expect("engine held until drop")
    }
}

impl DerefMut for EcoCheckout<'_> {
    fn deref_mut(&mut self) -> &mut EcoEngine {
        self.engine.as_mut().expect("engine held until drop")
    }
}

impl Drop for EcoCheckout<'_> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            self.store
                .release(self.key, engine, std::thread::panicking());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn modes(names: &[&str]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|n| ((*n).to_owned(), format!("sdc for {n}\n")))
            .collect()
    }

    #[test]
    fn suite_key_ignores_sdc_contents_and_mode_order() {
        let opts = MergeOptions::default();
        let a = suite_key("net\n", &modes(&["F1", "F2"]), &opts);
        // Editing a constraint keeps the suite identity.
        let mut edited = modes(&["F1", "F2"]);
        edited[0].1.push_str("set_clock_latency 1 [get_clocks c]\n");
        assert_eq!(a, suite_key("net\n", &edited, &opts));
        // Submission order cannot split suites.
        let mut reversed = modes(&["F1", "F2"]);
        reversed.reverse();
        assert_eq!(a, suite_key("net\n", &reversed, &opts));
        // Design, mode set and options all participate.
        assert_ne!(a, suite_key("net2\n", &modes(&["F1", "F2"]), &opts));
        assert_ne!(a, suite_key("net\n", &modes(&["F1", "F3"]), &opts));
        assert_ne!(a, suite_key("net\n", &modes(&["F1", "F2", "F3"]), &opts));
        let strict = MergeOptions {
            strict: true,
            ..Default::default()
        };
        assert_ne!(a, suite_key("net\n", &modes(&["F1", "F2"]), &strict));
    }

    /// The paper circuit's two-mode suite, merged cold once into the
    /// checked-out engine: leaves it with a baseline and `cold_runs`
    /// = 1.
    fn merge_cold(engine: &mut EcoEngine) {
        use modemerge_core::{MergeSession, ModeInput, SessionInputs};
        let netlist = modemerge_netlist::paper::paper_circuit();
        let sdc = "create_clock -name c -period 10 [get_ports clk1]\n";
        let inputs = vec![
            ModeInput::parse("A", sdc).unwrap(),
            ModeInput::parse("B", sdc).unwrap(),
        ];
        let bound = SessionInputs::bind(&netlist, &inputs).unwrap();
        let options = MergeOptions::default();
        let session = MergeSession::new(&netlist, &bound, &options);
        session.rebind_delta(engine, 1, false).unwrap();
    }

    #[test]
    fn store_round_trips_and_evicts_lru() {
        let store = EcoStore::new(2);
        // Fresh checkout, nothing resident yet.
        let e1 = store.checkout(1);
        assert!(!e1.has_baseline());
        drop(e1);
        drop(store.checkout(2));
        assert_eq!(store.counters().1, 2);
        // Third suite evicts the LRU engine (key 1).
        drop(store.checkout(3));
        assert_eq!(store.counters().1, 2);
        let state = store.lock();
        assert!(state.engines.iter().all(|(k, _)| *k != 1));
        assert!(state.engines.iter().any(|(k, _)| *k == 2));
        assert!(state.engines.iter().any(|(k, _)| *k == 3));
        assert!(state.checked_out.is_empty());
    }

    #[test]
    fn warm_engines_come_back_and_counters_never_dip() {
        let store = EcoStore::new(2);
        merge_cold(&mut store.checkout(1));
        assert_eq!(store.counters().0.cold_runs, 1);
        let again = store.checkout(1);
        assert!(again.has_baseline(), "the warm engine is handed out again");
        // A checked-out engine still counts, at its checkout counters.
        assert_eq!(store.counters(), (*again.counters(), 0));
        drop(again);
        assert_eq!(store.counters().0.cold_runs, 1);
    }

    #[test]
    fn a_second_checkout_of_a_suite_waits_for_the_first() {
        let store = EcoStore::new(2);
        let first = store.checkout(1);
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::channel();
            let waiter = &store;
            scope.spawn(move || tx.send(waiter.checkout(1).has_baseline()).unwrap());
            // Other suites are not blocked meanwhile.
            drop(store.checkout(2));
            assert!(rx.recv_timeout(Duration::from_millis(200)).is_err());
            let mut first = first;
            merge_cold(&mut first);
            drop(first);
            // The waiter gets the engine the first merge just warmed.
            assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(true));
        });
        assert_eq!(store.counters().0.cold_runs, 1);
    }

    #[test]
    fn a_checkout_dropped_by_a_panic_releases_its_key() {
        let store = EcoStore::new(2);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut engine = store.checkout(5);
                    merge_cold(&mut engine);
                    panic!("merge blew up mid-remerge");
                })
                .join()
        });
        assert!(panicked.is_err());
        // The key is free: a later merge of the suite gets a fresh
        // engine (the half-updated one was discarded) without blocking,
        // and the discarded engine's counters are kept.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|scope| {
            let later = &store;
            scope.spawn(move || tx.send(later.checkout(5).has_baseline()).unwrap());
            assert_eq!(rx.recv_timeout(Duration::from_secs(30)), Ok(false));
        });
        assert_eq!(store.counters().0.cold_runs, 1);
    }

    #[test]
    fn zero_cap_disables_residency_but_keeps_counters() {
        let store = EcoStore::new(0);
        merge_cold(&mut store.checkout(7));
        let (counters, engines) = store.counters();
        assert_eq!(engines, 0);
        assert_eq!(counters.cold_runs, 1);
        assert!(!store.checkout(7).has_baseline());
    }
}
