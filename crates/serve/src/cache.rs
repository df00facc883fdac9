//! The content-addressed DAG cache.
//!
//! Recording an application's communication DAG is the expensive part of a
//! what-if query (a full simulated run at the reference point, plus the
//! single-cluster baseline). The cache keys each frozen recording by
//! everything that determines its content — application, variant, problem
//! scale, wide-area wiring, fault seed namespace, and the WAN reference
//! point — so two requests that would record byte-identical DAGs share one
//! entry. Eviction is LRU over a bounded entry count; hit/miss/eviction
//! counters are served by `/v1/stats`.
//!
//! Cache state never leaks into response *bodies*: a hit replays the same
//! frozen DAG a miss just recorded, so cold and cached answers are
//! bit-identical (tested). The `X-Numagap-Cache` response header is the
//! only place hit/miss is visible.

use std::sync::Arc;

use numagap_apps::{AppId, Scale, Variant};
use numagap_model::{AnalyticModel, CommDag};
use numagap_net::WanTopology;
use numagap_sim::SimDuration;

/// Default cache capacity (entries): all 11 app/variant pairs at one
/// reference point, with headroom for a few alternate topologies or scales.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// Everything that determines a recording's content.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheKey {
    /// Application recorded.
    pub app: AppId,
    /// Program variant.
    pub variant: Variant,
    /// Problem scale.
    pub scale: Scale,
    /// Wide-area wiring; `None` is the DAS full mesh.
    pub topology: Option<WanTopology>,
    /// Fault-seed namespace (recordings are fault-free; the seed keys the
    /// namespace so future fault-aware recordings cannot collide).
    pub seed: u64,
    /// WAN latency of the reference recording, ms.
    pub ref_latency_ms: f64,
    /// WAN bandwidth of the reference recording, MByte/s.
    pub ref_bandwidth_mbs: f64,
}

impl CacheKey {
    /// The canonical content address, used for identity, LRU bookkeeping
    /// and the `key` field of every response.
    pub fn canonical(&self) -> String {
        let topology = match self.topology {
            Some(t) => t.label(),
            None => "mesh".to_string(),
        };
        format!(
            "{}/{}/{}/{}/seed{}/ref{}x{}",
            self.app,
            self.variant,
            self.scale.name(),
            topology,
            self.seed,
            self.ref_latency_ms,
            self.ref_bandwidth_mbs
        )
    }

    /// FNV-1a digest of the canonical address, printed as the short content
    /// hash in responses and logs.
    pub fn digest(&self) -> u64 {
        let step = |h: u64, b: u8| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        self.canonical().bytes().fold(0xcbf2_9ce4_8422_2325, step)
    }
}

/// One cached recording: the frozen DAG, its compiled analytic envelope,
/// and the two makespans every speedup computation needs.
#[derive(Debug)]
pub struct CacheEntry {
    /// The frozen communication DAG.
    pub dag: CommDag,
    /// The compiled analytic envelope (compiled once, at insert).
    pub analytic: AnalyticModel,
    /// Makespan of the recording run at the reference point.
    pub recorded: SimDuration,
    /// Makespan of the single-cluster all-Myrinet baseline run (the
    /// speedup denominator, always the unoptimized program).
    pub baseline: SimDuration,
}

/// Counters and occupancy served by `/v1/stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
    /// Maximum entry count.
    pub capacity: usize,
}

/// An LRU cache of frozen recordings, keyed by content address.
///
/// Not internally synchronized: the service wraps it in a `Mutex` and holds
/// the lock only for lookups/inserts, never across a recording run.
#[derive(Debug)]
pub struct DagCache {
    /// Front = most recently used.
    entries: Vec<(String, Arc<CacheEntry>)>,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DagCache {
    /// An empty cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        DagCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a key, refreshing its LRU position. Counts a hit or miss.
    pub fn lookup(&mut self, key: &CacheKey) -> Option<Arc<CacheEntry>> {
        let address = key.canonical();
        match self.entries.iter().position(|(k, _)| *k == address) {
            Some(i) => {
                self.hits += 1;
                let entry = self.entries.remove(i);
                let found = Arc::clone(&entry.1);
                self.entries.insert(0, entry);
                Some(found)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) an entry at the most-recent position,
    /// evicting the least-recently-used entry past capacity. Returns the
    /// shared handle actually stored — when another worker raced the same
    /// recording in, the first insert wins so all in-flight requests serve
    /// one entry.
    pub fn insert(&mut self, key: &CacheKey, entry: CacheEntry) -> Arc<CacheEntry> {
        let address = key.canonical();
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == address) {
            let existing = self.entries.remove(i);
            let found = Arc::clone(&existing.1);
            self.entries.insert(0, existing);
            return found;
        }
        let stored = Arc::new(entry);
        self.entries.insert(0, (address, Arc::clone(&stored)));
        while self.entries.len() > self.capacity {
            self.entries.pop();
            self.evictions += 1;
        }
        stored
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            capacity: self.capacity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numagap_model::record_app;

    fn key(app: AppId, seed: u64) -> CacheKey {
        CacheKey {
            app,
            variant: Variant::Optimized,
            scale: Scale::Small,
            topology: None,
            seed,
            ref_latency_ms: 10.0,
            ref_bandwidth_mbs: 0.3,
        }
    }

    fn entry() -> CacheEntry {
        let cfg = numagap_apps::SuiteConfig::at(Scale::Small);
        let machine = numagap_bench::wan_machine(10.0, 0.3);
        let (run, dag) = record_app(AppId::Asp, &cfg, Variant::Optimized, &machine).unwrap();
        let analytic = AnalyticModel::compile(&dag);
        CacheEntry {
            dag,
            analytic,
            recorded: run.elapsed,
            baseline: run.elapsed,
        }
    }

    #[test]
    fn canonical_addresses_are_distinct_and_stable() {
        let a = key(AppId::Asp, 0);
        assert_eq!(a.canonical(), "ASP/optimized/small/mesh/seed0/ref10x0.3");
        assert_ne!(a.canonical(), key(AppId::Asp, 1).canonical());
        assert_ne!(a.digest(), key(AppId::Fft, 0).digest());
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = DagCache::new(2);
        let shared = entry();
        // Three distinct keys through a 2-entry cache.
        for seed in 0..3u64 {
            assert!(cache.lookup(&key(AppId::Asp, seed)).is_none());
            cache.insert(
                &key(AppId::Asp, seed),
                CacheEntry {
                    dag: shared.dag.clone(),
                    analytic: shared.analytic.clone(),
                    recorded: shared.recorded,
                    baseline: shared.baseline,
                },
            );
        }
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.evictions, stats.entries), (3, 1, 2));
        // Seed 0 was evicted; 1 and 2 remain; a hit refreshes recency.
        assert!(cache.lookup(&key(AppId::Asp, 0)).is_none());
        assert!(cache.lookup(&key(AppId::Asp, 1)).is_some());
        assert_eq!(cache.stats().hits, 1);
    }
}
