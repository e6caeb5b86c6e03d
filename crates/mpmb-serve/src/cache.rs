//! Deterministic result cache with partial-result refinement.
//!
//! Every solver in `mpmb-core` is a pure function of `(graph, method,
//! trials, seed, …)` — parallel runs are bit-identical to sequential
//! ones — so a finished response body can be replayed verbatim for a
//! repeated request. Keys are canonical strings built by the handlers
//! from every determinism-relevant parameter; thread counts are
//! deliberately *excluded* because they do not affect results.
//!
//! Entries come in two flavors:
//!
//! * [`CacheEntry::Complete`] — a rendered response body, replayed
//!   verbatim on a hit;
//! * [`CacheEntry::Partial`] — the resumable
//!   [`PartialState`](crate::job::PartialState) of a request that hit
//!   its deadline. A repeat of the same request *resumes* from it with
//!   a fresh deadline instead of restarting at trial zero, so each 503
//!   carries more trials than the last and the answer eventually
//!   completes — deterministically identical to an uninterrupted run.
//!
//! Plain LRU under one mutex. Capacity is entry-count based; bodies are
//! small JSON documents and partials are bounded by the distribution
//! support, so byte accounting isn't worth the bookkeeping.

use crate::job::PartialState;
use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

/// One cached outcome: a finished body or a resumable partial.
#[derive(Clone)]
pub enum CacheEntry {
    /// Rendered response body of a completed request.
    Complete(String),
    /// Resumable progress of a request that hit its deadline.
    Partial(PartialState),
}

/// LRU cache from canonical request key to [`CacheEntry`].
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

struct Inner {
    map: HashMap<String, CacheEntry>,
    /// Keys from least- to most-recently used.
    order: VecDeque<String>,
}

impl ResultCache {
    /// A cache holding up to `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: &str) -> Option<CacheEntry> {
        let mut inner = self.lock();
        let entry = inner.map.get(key)?.clone();
        if let Some(pos) = inner.order.iter().position(|k| k == key) {
            inner.order.remove(pos);
            inner.order.push_back(key.to_string());
        }
        Some(entry)
    }

    /// Stores an entry (replacing any previous one — a completed body
    /// overwrites the partial it grew from), evicting the
    /// least-recently-used entry when full. No-op at capacity 0.
    pub fn put(&self, key: &str, entry: CacheEntry) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.lock();
        if inner.map.insert(key.to_string(), entry).is_some() {
            if let Some(pos) = inner.order.iter().position(|k| k == key) {
                inner.order.remove(pos);
            }
        } else if inner.map.len() > self.capacity {
            if let Some(evicted) = inner.order.pop_front() {
                inner.map.remove(&evicted);
            }
        }
        inner.order.push_back(key.to_string());
    }

    /// Stores a finished response body.
    pub fn put_complete(&self, key: &str, body: &str) {
        self.put(key, CacheEntry::Complete(body.to_string()));
    }

    /// Snapshot of every resumable partial, LRU to MRU, for the
    /// checkpoint writer. Complete entries are cheap to recompute from
    /// their partials' trail, so only partials are persisted.
    pub fn partials(&self) -> Vec<(String, PartialState)> {
        let inner = self.lock();
        inner
            .order
            .iter()
            .filter_map(|key| match inner.map.get(key) {
                Some(CacheEntry::Partial(state)) => Some((key.clone(), state.clone())),
                _ => None,
            })
            .collect()
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// The inner map, recovering from a poisoned mutex: a worker that
    /// panicked mid-`get`/`put` leaves the LRU bookkeeping at worst
    /// slightly stale, never structurally broken, so serving must keep
    /// going rather than propagate the poison.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get_body(c: &ResultCache, key: &str) -> Option<String> {
        match c.get(key)? {
            CacheEntry::Complete(b) => Some(b),
            CacheEntry::Partial(_) => panic!("expected a complete entry"),
        }
    }

    #[test]
    fn hit_miss_and_lru_eviction() {
        let c = ResultCache::new(2);
        assert!(c.get("a").is_none());
        c.put_complete("a", "1");
        c.put_complete("b", "2");
        assert_eq!(get_body(&c, "a").as_deref(), Some("1")); // refreshes `a`
        c.put_complete("c", "3"); // evicts `b`, the LRU entry
        assert!(c.get("b").is_none());
        assert_eq!(get_body(&c, "a").as_deref(), Some("1"));
        assert_eq!(get_body(&c, "c").as_deref(), Some("3"));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn overwrite_does_not_grow() {
        let c = ResultCache::new(2);
        c.put_complete("a", "1");
        c.put_complete("a", "2");
        assert_eq!(c.len(), 1);
        assert_eq!(get_body(&c, "a").as_deref(), Some("2"));
    }

    #[test]
    fn zero_capacity_disables() {
        let c = ResultCache::new(0);
        c.put_complete("a", "1");
        assert!(c.get("a").is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn partial_upgrades_to_complete_in_place() {
        use mpmb_core::{Partial, Tally};
        let c = ResultCache::new(2);
        let partial = PartialState::Os(Partial::empty(Tally::new(), 100));
        c.put("a", CacheEntry::Partial(partial));
        assert!(matches!(c.get("a"), Some(CacheEntry::Partial(_))));
        c.put_complete("a", "done");
        assert_eq!(c.len(), 1);
        assert_eq!(get_body(&c, "a").as_deref(), Some("done"));
    }
}
