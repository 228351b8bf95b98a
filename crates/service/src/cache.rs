//! The warm-session store: an LRU of [`Instance`] sessions keyed by
//! canonical form, with per-key single-flight.
//!
//! Sessions are keyed by the **full canonical encoding** (not just its
//! 64-bit hash), so a hash collision can never hand a job the wrong
//! session; the hash is carried in responses as the human-readable key.
//! Renumbered twins share an entry by construction: the encoding is built
//! from the [`anet_graph::refine`] engine's class row at its stable depth,
//! which depends only on views and ports, so it is invariant under
//! renumbering ([`anet_graph::canon`]). Every job pays that one refinement,
//! hits included; the cached session then answers without refining again.
//!
//! An [`Instance`] is `Send` but not `Sync` (its caches use interior
//! mutability), so each slot guards its session with a
//! `parking_lot::Mutex` and jobs run their schemes *while holding the
//! lock*. That one lock is also the single-flight mechanism: the first
//! thread to take a cold slot builds the session inside the critical
//! section, and every concurrent requester for the same key blocks on the
//! same mutex and then finds the session warm — the expensive analysis is
//! paid exactly once per distinct canonical graph, which the end-to-end
//! tests prove via [`Instance::compute_counts`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use anet_election::Instance;
use anet_graph::{canon::CanonicalForm, Graph};
use parking_lot::Mutex;

/// A cached election session: the canonical representative graph and the
/// warm [`Instance`] built on it.
pub struct Session {
    /// The canonical representative (all cached analysis is in its
    /// numbering; callers translate leaders back through their job's
    /// canonical colors).
    pub graph: Arc<Graph>,
    /// The 64-bit canonical hash (for response `key` fields).
    pub key_hash: u64,
    /// The warm instance.
    pub instance: Instance,
}

/// One cache slot: LRU bookkeeping plus the mutex-guarded session.
struct Slot {
    last_used: AtomicU64,
    session: Mutex<Option<Session>>,
}

/// Monotonic counters describing cache behaviour. `misses` equals the
/// number of sessions ever built — one per distinct canonical graph while
/// nothing is evicted — so `hits`/`misses` are deterministic for a given
/// job multiset even under concurrency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Jobs that found their session already built.
    pub hits: u64,
    /// Jobs that had to build the session (cold, or rebuilt after
    /// eviction).
    pub misses: u64,
    /// Sessions evicted to respect the capacity.
    pub evictions: u64,
    /// Entries currently resident.
    pub len: u64,
}

/// The LRU session store. See the [module docs](self).
pub struct SessionCache {
    capacity: usize,
    map: Mutex<BTreeMap<Vec<u64>, Arc<Slot>>>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SessionCache {
    /// A cache holding at most `capacity` warm sessions (min 1).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            capacity: capacity.max(1),
            map: Mutex::new(BTreeMap::new()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Runs `work` against the session for `form`, building it via `build`
    /// if the slot is cold. The slot's mutex is held for the whole of
    /// `work`, which is what makes the non-`Sync` [`Instance`] safe to
    /// share and what serializes concurrent cold requests into exactly one
    /// build (single-flight). Same-key jobs arriving while one runs simply
    /// queue on the slot — batching by coalescing onto one warm session.
    pub fn with_session<R>(
        &self,
        form: &CanonicalForm,
        build: impl FnOnce() -> Session,
        work: impl FnOnce(&Session, bool) -> R,
    ) -> R {
        let stamp = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let slot = {
            let mut map = self.map.lock();
            let slot = match map.get(form.encoding()) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(Slot {
                        last_used: AtomicU64::new(stamp),
                        session: Mutex::new(None),
                    });
                    map.insert(form.encoding().to_vec(), Arc::clone(&slot));
                    slot
                }
            };
            slot.last_used.store(stamp, Ordering::Relaxed);
            // Evict the least-recently-used other entry while over
            // capacity. An evicted slot may still be executing a job — the
            // Arc keeps it alive for that job; it just stops being findable
            // (and a later same-key job rebuilds, counted as a miss).
            while map.len() > self.capacity {
                let victim = map
                    .iter()
                    .filter(|(k, _)| k.as_slice() != form.encoding())
                    .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(key) => {
                        map.remove(&key);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    None => break,
                }
            }
            slot
        };
        let mut guard = slot.session.lock();
        let warm = guard.is_some();
        if warm {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            *guard = Some(build());
        }
        match guard.as_ref() {
            Some(session) => work(session, warm),
            // The slot was just filled above; this arm is unreachable.
            None => unreachable!("session slot filled in this critical section"),
        }
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            len: self.map.lock().len() as u64,
        }
    }

    /// The `compute_counts` of every resident session, keyed by canonical
    /// hash, in key order. Tests use this to prove one analysis per
    /// distinct canonical graph across a whole concurrent job stream.
    pub fn compute_counts(&self) -> Vec<(u64, anet_election::ComputeCounts)> {
        let slots: Vec<Arc<Slot>> = self.map.lock().values().map(Arc::clone).collect();
        let mut out = Vec::new();
        for slot in slots {
            let guard = slot.session.lock();
            if let Some(session) = guard.as_ref() {
                out.push((session.key_hash, session.instance.compute_counts()));
            }
        }
        out.sort_by_key(|&(hash, _)| hash);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anet_graph::RefineOptions;

    fn session_for(g: &Graph) -> Session {
        let graph = Arc::new(g.clone());
        Session {
            key_hash: g.canonical_hash(),
            instance: Instance::from_arc(Arc::clone(&graph), RefineOptions::default()),
            graph,
        }
    }

    #[test]
    fn twins_share_an_entry_and_pay_one_build() {
        use anet_graph::relabel::random_node_permutation;
        let g = anet_graph::generators::lollipop(5, 3);
        let cache = SessionCache::new(4);
        let mut builds = 0usize;
        for seed in 0..5u64 {
            let (twin, _) = random_node_permutation(&g, seed);
            let form = twin.canonical_form();
            cache.with_session(
                &form,
                || {
                    builds += 1;
                    session_for(&twin)
                },
                |session, _| assert_eq!(session.key_hash, g.canonical_hash()),
            );
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (4, 1, 1));
    }

    #[test]
    fn lru_evicts_the_coldest_key() {
        let rings: Vec<Graph> = (3..7).map(anet_graph::generators::ring).collect();
        let cache = SessionCache::new(2);
        for g in &rings {
            cache.with_session(&g.canonical_form(), || session_for(g), |_, _| ());
        }
        let stats = cache.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 2);
        // The most recent two keys are warm; the first is cold again.
        cache.with_session(
            &rings[3].canonical_form(),
            || session_for(&rings[3]),
            |_, warm| assert!(warm),
        );
        cache.with_session(
            &rings[0].canonical_form(),
            || session_for(&rings[0]),
            |_, warm| assert!(!warm),
        );
    }

    #[test]
    fn concurrent_cold_requests_single_flight() {
        let g = anet_graph::generators::lollipop(6, 4);
        let cache = SessionCache::new(4);
        let builds = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let form = g.canonical_form();
                    cache.with_session(
                        &form,
                        || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            session_for(&g)
                        },
                        |session, _| {
                            // Touch the expensive analysis under the lock.
                            assert!(session.instance.phi().is_ok());
                        },
                    );
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 1);
        let counts = cache.compute_counts();
        assert_eq!(counts.len(), 1);
        assert_eq!(counts[0].1.analysis, 1, "analysis paid exactly once");
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 7);
    }
}
