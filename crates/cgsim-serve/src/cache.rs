//! Compiled-graph cache.
//!
//! Parsing, linting, flattening and compiling a graph is the expensive,
//! request-independent front half of a run; instantiating the resulting
//! plan is the cheap per-request half. The cache keys the front half by a
//! digest of the submitted graph (app name, or the manifest's canonical
//! JSON) so repeated requests for the same graph skip straight to
//! instantiation. LRU-bounded; hit/miss/eviction counters land in the
//! serve metrics registry.

use aie_sim::DeployManifest;
use cgsim_core::FlatGraph;
use cgsim_lint::LintReport;
use cgsim_runtime::CompiledPlan;
use cgsim_trace::{Counter, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// What one cache entry holds, per graph source.
pub enum CachePayload {
    /// A built-in evaluation app: its flattened graph and (when the graph
    /// is statically schedulable) the compiled plan shared by every
    /// `Backend::Compiled` request.
    App {
        /// `EvalApp::name` of the app.
        name: String,
        /// The flattened graph (for bounds/lint rendering).
        graph: Box<FlatGraph>,
        /// Precompiled static schedule; `None` when compilation is not
        /// possible (dynamic graph).
        plan: Option<Box<CompiledPlan>>,
    },
    /// An inline deployment manifest, validated once.
    Manifest(Box<DeployManifest>),
}

/// One admitted graph: lint findings plus the compiled payload.
pub struct CacheEntry {
    /// Digest the entry is keyed by.
    pub digest: u64,
    /// Graph name (app name or manifest graph name).
    pub label: String,
    /// The admission lint report (findings, firing vector, bounds).
    pub lint: LintReport,
    /// The compiled artifact.
    pub payload: CachePayload,
}

struct CacheInner {
    map: HashMap<u64, Arc<CacheEntry>>,
    /// Recency order, least-recently-used first.
    order: VecDeque<u64>,
}

/// LRU cache of compiled graphs, keyed by content digest.
pub struct PlanCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl PlanCache {
    /// A cache holding at most `capacity` compiled graphs, reporting into
    /// `registry` as `serve_cache_{hits,misses,evictions}`.
    pub fn new(capacity: usize, registry: &MetricsRegistry) -> Self {
        PlanCache {
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            hits: registry.counter("serve_cache_hits", &[]),
            misses: registry.counter("serve_cache_misses", &[]),
            evictions: registry.counter("serve_cache_evictions", &[]),
        }
    }

    /// Look up a digest; counts a hit (and refreshes recency) or a miss.
    pub fn get(&self, digest: u64) -> Option<Arc<CacheEntry>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        match inner.map.get(&digest).cloned() {
            Some(entry) => {
                inner.order.retain(|d| *d != digest);
                inner.order.push_back(digest);
                self.hits.inc();
                Some(entry)
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Insert a freshly built entry, evicting the least-recently-used one
    /// when over capacity. Returns the shared entry (an entry raced in by
    /// another thread wins, so concurrent builders converge on one plan).
    pub fn insert(&self, entry: CacheEntry) -> Arc<CacheEntry> {
        let digest = entry.digest;
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(existing) = inner.map.get(&digest).cloned() {
            return existing;
        }
        let entry = Arc::new(entry);
        inner.map.insert(digest, Arc::clone(&entry));
        inner.order.push_back(digest);
        while inner.map.len() > self.capacity {
            let Some(oldest) = inner.order.pop_front() else {
                break;
            };
            if inner.map.remove(&oldest).is_some() {
                self.evictions.inc();
            }
        }
        entry
    }

    /// Drop every entry; returns how many were flushed.
    pub fn flush(&self) -> usize {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let n = inner.map.len();
        inner.map.clear();
        inner.order.clear();
        n
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// FNV-1a over a byte stream — the same digest the apps use for output
/// checksums, reused here for cache keys.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Cache key for a built-in app request.
pub fn digest_app(name: &str) -> u64 {
    fnv1a(format!("app:{name}").into_bytes())
}

/// Cache key for an inline manifest: a digest of its canonical (compact)
/// JSON, so semantically identical manifests share one compiled entry.
pub fn digest_manifest(manifest: &DeployManifest) -> u64 {
    let canonical = serde_json::to_string(manifest).expect("manifest serializes");
    fnv1a(format!("manifest:{canonical}").into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(digest: u64) -> CacheEntry {
        CacheEntry {
            digest,
            label: format!("g{digest}"),
            lint: LintReport::new(format!("g{digest}")),
            payload: CachePayload::App {
                name: format!("g{digest}"),
                graph: Box::new(cgsim_graphs::all_apps()[0].graph()),
                plan: None,
            },
        }
    }

    fn counters(registry: &MetricsRegistry) -> (u64, u64, u64) {
        let snap = registry.snapshot();
        (
            snap.counter_value("serve_cache_hits").unwrap_or(0),
            snap.counter_value("serve_cache_misses").unwrap_or(0),
            snap.counter_value("serve_cache_evictions").unwrap_or(0),
        )
    }

    #[test]
    fn hit_and_miss_counters_track_lookups() {
        let registry = MetricsRegistry::default();
        let cache = PlanCache::new(4, &registry);
        assert!(cache.get(1).is_none());
        cache.insert(entry(1));
        assert!(cache.get(1).is_some());
        assert!(cache.get(1).is_some());
        assert_eq!(counters(&registry), (2, 1, 0));
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let registry = MetricsRegistry::default();
        let cache = PlanCache::new(2, &registry);
        cache.insert(entry(1));
        cache.insert(entry(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(entry(3));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(1).is_some(), "recently used entry survives");
        assert!(cache.get(2).is_none(), "stale entry evicted");
        let (_, _, evictions) = counters(&registry);
        assert_eq!(evictions, 1);
    }

    #[test]
    fn insert_race_returns_first_entry() {
        let registry = MetricsRegistry::default();
        let cache = PlanCache::new(4, &registry);
        let first = cache.insert(entry(7));
        let second = cache.insert(entry(7));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn flush_empties_the_cache() {
        let registry = MetricsRegistry::default();
        let cache = PlanCache::new(4, &registry);
        cache.insert(entry(1));
        cache.insert(entry(2));
        assert_eq!(cache.flush(), 2);
        assert!(cache.is_empty());
    }

    #[test]
    fn digests_separate_sources() {
        assert_ne!(digest_app("bitonic"), digest_app("farrow"));
        // An app named like a manifest's JSON must not collide by
        // construction (distinct prefixes).
        assert_ne!(
            digest_app("x"),
            fnv1a("manifest:x".bytes().collect::<Vec<_>>())
        );
    }
}
