//! The deterministic result cache: an in-memory, byte-bounded LRU
//! keyed by the canonical input hash ([`crate::JobRequest::cache_key`]).
//!
//! Soundness rests on the engine's determinism contract: a cache key
//! covers the *entire* normalized input, and identical inputs produce
//! bitwise-identical artifacts, so serving a cached artifact set is
//! indistinguishable from re-simulating (pinned by `tests/serve.rs`).
//! Eviction is two-level: a global byte capacity (`--cache-mb`) and a
//! per-tenant byte budget ([`crate::TenantQuota::max_cached_bytes`]),
//! both enforced least-recently-used-first. An entry is charged at
//! [`Artifacts::total_bytes`]: its rendered bytes plus the estimated
//! size of a simulate job's retained report. When a deferred artifact
//! renders on first fetch, [`ResultCache::charge`] re-charges the entry
//! at its new size.

use std::collections::HashMap;
use std::sync::Arc;

use crate::runner::Artifacts;

/// Hit/miss/eviction counters, exposed via `GET /v1/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups that returned a cached artifact set.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted (global or tenant budget pressure).
    pub evictions: u64,
    /// Artifact sets too large to ever fit and therefore never cached.
    pub uncacheable: u64,
}

struct Entry {
    tenant: String,
    artifacts: Arc<Artifacts>,
    bytes: usize,
    /// Monotone recency stamp; smallest = least recently used.
    used: u64,
}

/// The in-memory LRU result cache.
pub struct ResultCache {
    entries: HashMap<u64, Entry>,
    capacity_bytes: usize,
    used_bytes: usize,
    tick: u64,
    counters: CacheCounters,
}

impl ResultCache {
    /// An empty cache holding at most `capacity_bytes` of artifacts.
    pub fn new(capacity_bytes: usize) -> ResultCache {
        ResultCache {
            entries: HashMap::new(),
            capacity_bytes,
            used_bytes: 0,
            tick: 0,
            counters: CacheCounters::default(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: u64) -> Option<Arc<Artifacts>> {
        self.tick += 1;
        match self.entries.get_mut(&key) {
            Some(entry) => {
                entry.used = self.tick;
                self.counters.hits += 1;
                Some(Arc::clone(&entry.artifacts))
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Inserts a finished artifact set for `tenant`, evicting
    /// least-recently-used entries until both the global capacity and
    /// the tenant's byte budget hold. An artifact set larger than
    /// either bound is simply not cached (the job result was already
    /// delivered; only re-submission economics change).
    pub fn insert(
        &mut self,
        key: u64,
        tenant: &str,
        artifacts: Arc<Artifacts>,
        tenant_budget: usize,
    ) {
        if let Some(old) = self.entries.remove(&key) {
            // Same input re-ran (e.g. the entry was evicted mid-run and
            // a concurrent duplicate finished): replace, don't double-count.
            self.used_bytes -= old.bytes;
        }
        if self.place(key, tenant.to_string(), artifacts, tenant_budget) {
            self.counters.insertions += 1;
        } else {
            self.counters.uncacheable += 1;
        }
    }

    /// Charges `key`'s entry at its artifact set's current size, after a
    /// deferred artifact rendered, and marks it most recently used.
    /// Least-recently-used entries are evicted until both bounds hold
    /// again; an entry that alone outgrew a bound is evicted itself.
    pub fn charge(&mut self, key: u64, tenant_budget: usize) {
        let Some(entry) = self.entries.remove(&key) else {
            return;
        };
        self.used_bytes -= entry.bytes;
        if !self.place(key, entry.tenant, entry.artifacts, tenant_budget) {
            self.counters.evictions += 1;
        }
    }

    /// Caches `artifacts` at their current size, evicting LRU entries
    /// first; `false` (and nothing cached) when the set alone exceeds
    /// the capacity or the tenant budget.
    fn place(
        &mut self,
        key: u64,
        tenant: String,
        artifacts: Arc<Artifacts>,
        tenant_budget: usize,
    ) -> bool {
        let bytes = artifacts.total_bytes();
        if bytes > self.capacity_bytes || bytes > tenant_budget {
            return false;
        }
        while self.used_bytes + bytes > self.capacity_bytes {
            self.evict_lru(None);
        }
        while self.tenant_bytes(&tenant) + bytes > tenant_budget {
            self.evict_lru(Some(&tenant));
        }
        self.tick += 1;
        self.used_bytes += bytes;
        self.entries.insert(
            key,
            Entry {
                tenant,
                artifacts,
                bytes,
                used: self.tick,
            },
        );
        true
    }

    fn evict_lru(&mut self, tenant: Option<&str>) {
        let victim = self
            .entries
            .iter()
            .filter(|(_, e)| tenant.is_none_or(|t| e.tenant == t))
            .min_by_key(|(_, e)| e.used)
            .map(|(k, _)| *k);
        if let Some(key) = victim {
            let entry = self.entries.remove(&key).expect("victim exists");
            self.used_bytes -= entry.bytes;
            self.counters.evictions += 1;
        }
    }

    /// Bytes currently cached for `tenant`.
    pub fn tenant_bytes(&self, tenant: &str) -> usize {
        self.entries
            .values()
            .filter(|e| e.tenant == tenant)
            .map(|e| e.bytes)
            .sum()
    }

    /// Total bytes cached.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// The configured byte capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Number of cached artifact sets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// A snapshot of the counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifacts(bytes: usize) -> Arc<Artifacts> {
        Arc::new(Artifacts::new(vec![(
            "report.json".to_string(),
            vec![b'x'; bytes],
        )]))
    }

    #[test]
    fn get_after_insert_hits_and_counts() {
        let mut c = ResultCache::new(1000);
        assert!(c.get(1).is_none());
        c.insert(1, "alice", artifacts(10), 1000);
        let hit = c.get(1).expect("cached");
        assert_eq!(hit.total_bytes(), 10);
        let counters = c.counters();
        assert_eq!(
            (counters.hits, counters.misses, counters.insertions),
            (1, 1, 1)
        );
    }

    #[test]
    fn global_capacity_evicts_lru_first() {
        let mut c = ResultCache::new(100);
        c.insert(1, "a", artifacts(40), usize::MAX);
        c.insert(2, "a", artifacts(40), usize::MAX);
        c.get(1); // 2 is now least recently used
        c.insert(3, "a", artifacts(40), usize::MAX);
        assert!(c.get(1).is_some());
        assert!(c.get(2).is_none(), "LRU entry evicted");
        assert!(c.get(3).is_some());
        assert_eq!(c.counters().evictions, 1);
        assert!(c.used_bytes() <= 100);
    }

    #[test]
    fn tenant_budget_evicts_only_that_tenant() {
        let mut c = ResultCache::new(10_000);
        c.insert(1, "alice", artifacts(40), 100);
        c.insert(2, "bob", artifacts(40), 100);
        c.insert(3, "alice", artifacts(40), 100);
        c.insert(4, "alice", artifacts(40), 100); // alice over 100 → evict her LRU
        assert!(c.get(1).is_none(), "alice's LRU evicted");
        assert!(c.get(2).is_some(), "bob untouched");
        assert!(c.tenant_bytes("alice") <= 100);
    }

    #[test]
    fn oversized_sets_are_never_cached() {
        let mut c = ResultCache::new(100);
        c.insert(1, "a", artifacts(500), usize::MAX);
        assert!(c.is_empty());
        assert_eq!(c.counters().uncacheable, 1);
        // Tenant budget smaller than the set: same story.
        c.insert(2, "a", artifacts(50), 10);
        assert_eq!(c.counters().uncacheable, 2);
        assert_eq!(c.len(), 0);
    }

    /// A fresh simulate job's set: `report.json` rendered, three
    /// artifacts deferred.
    fn simulate_artifacts() -> Arc<Artifacts> {
        let request = crate::JobRequest::parse(
            br#"{"type":"simulate","workflow":"swarp:1:8","platform":"cori:striped"}"#,
        )
        .unwrap();
        let artifacts = crate::run_request(
            &request,
            &std::sync::atomic::AtomicBool::new(false),
            &std::sync::Mutex::new(Default::default()),
        )
        .unwrap();
        Arc::new(artifacts)
    }

    #[test]
    fn charging_a_rendered_artifact_grows_the_entry_and_evicts_lru() {
        let sim = simulate_artifacts();
        let small = sim.total_bytes();
        let trace = sim.get("trace.json").unwrap().len();
        // `sim` rendered trace.json above; a fresh copy of the same set
        // is charged before the render.
        let fresh = simulate_artifacts();
        assert_eq!(fresh.total_bytes(), small);
        let budget = small + trace;
        let mut c = ResultCache::new(usize::MAX);
        c.insert(1, "alice", artifacts(budget - small), budget);
        c.insert(2, "bob", artifacts(10), budget);
        c.insert(3, "alice", Arc::clone(&fresh), budget);
        assert_eq!(c.tenant_bytes("alice"), budget);

        fresh.get("trace.json").unwrap();
        c.charge(3, budget);
        assert_eq!(c.tenant_bytes("alice"), small + trace);
        assert_eq!(c.used_bytes(), small + trace + 10);
        assert!(c.get(1).is_none(), "alice's LRU entry evicted");
        assert!(c.get(2).is_some(), "bob untouched");
        assert!(c.get(3).is_some());
        assert_eq!(c.counters().evictions, 1);

        // An entry that alone outgrows the budget is evicted itself.
        fresh.get("trace.jsonl").unwrap();
        c.charge(3, budget);
        assert!(c.get(3).is_none());
        assert_eq!(c.counters().evictions, 2);
        assert_eq!(c.used_bytes(), 10);
        // Charging a key no longer cached is a no-op.
        c.charge(3, budget);
        assert_eq!(c.used_bytes(), 10);
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let mut c = ResultCache::new(100);
        c.insert(1, "a", artifacts(30), usize::MAX);
        c.insert(1, "a", artifacts(50), usize::MAX);
        assert_eq!(c.used_bytes(), 50);
        assert_eq!(c.len(), 1);
    }
}
