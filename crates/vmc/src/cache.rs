//! Bounded program cache keyed on (policy, schema) fingerprints.
//!
//! Mirrors `ContainmentOracle`'s memo discipline: a fixed capacity, a
//! wholesale flush when full (counted as evictions, fed to a global
//! counter), and hit/miss/eviction stats published as gauges. Programs
//! are tiny, so the default capacity comfortably holds every annotation
//! query and request path a serving process sees; the bound exists so a
//! pathological workload cannot grow the map without limit.

use crate::bytecode::Program;
use crate::compile::{compile_path, compile_query, path_fingerprint, CompileError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use xac_obs::Counter;
use xac_policy::AnnotationQuery;
use xac_xml::Schema;
use xac_xpath::Path;

/// Default capacity of the global program cache.
pub const DEFAULT_PROGRAM_CACHE_CAPACITY: usize = 4096;

fn programs_compiled_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_vm_programs_compiled_total"))
}

fn cache_evictions_total() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| xac_obs::counter("xac_vm_cache_evictions_total"))
}

/// Cache effectiveness counters (cumulative since process start or the
/// last [`reset_cache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmCacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl VmCacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Publish the stats as gauges (`xac_vm_cache_hits`, `_misses`,
    /// `_evictions`, and `xac_vm_cache_hit_rate_pct` as an integer
    /// percentage).
    pub fn publish(&self) {
        xac_obs::gauge("xac_vm_cache_hits").set(self.hits);
        xac_obs::gauge("xac_vm_cache_misses").set(self.misses);
        xac_obs::gauge("xac_vm_cache_evictions").set(self.evictions);
        xac_obs::gauge("xac_vm_cache_hit_rate_pct").set((self.hit_rate() * 100.0).round() as u64);
    }
}

struct ProgramCache {
    map: HashMap<u64, Arc<Program>>,
    capacity: usize,
    stats: VmCacheStats,
}

/// Fetch the program for (`source`, `mark`) cached under `key`, or
/// build it outside the lock and cache it. A cached program for another
/// source or mark under the same key (a fingerprint collision) is a
/// miss, and the new program replaces it.
pub(crate) fn cached<E>(
    key: u64,
    source: &str,
    mark: char,
    build: impl FnOnce() -> Result<Program, E>,
) -> Result<Arc<Program>, E> {
    {
        let mut c = cache();
        let hit = c.map.get(&key).filter(|p| p.source == source && p.mark == mark).cloned();
        if let Some(p) = hit {
            c.stats.hits += 1;
            return Ok(p);
        }
        c.stats.misses += 1;
    }
    let program = Arc::new(build()?);
    programs_compiled_total().inc();
    let mut c = cache();
    if c.map.len() >= c.capacity && !c.map.contains_key(&key) {
        // Wholesale flush, like the containment memo: cheap, and a
        // full cache under a stable workload never reaches here.
        let cleared = c.map.len() as u64;
        c.map.clear();
        c.stats.evictions += cleared;
        cache_evictions_total().add(cleared);
    }
    c.map.insert(key, Arc::clone(&program));
    Ok(program)
}

fn cache() -> MutexGuard<'static, ProgramCache> {
    static CACHE: OnceLock<Mutex<ProgramCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            Mutex::new(ProgramCache {
                map: HashMap::new(),
                capacity: DEFAULT_PROGRAM_CACHE_CAPACITY,
                stats: VmCacheStats::default(),
            })
        })
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Fingerprint the cache keys a query program under. Exposed so callers
/// can correlate disassembly output with cache entries.
pub fn query_fingerprint(query: &AnnotationQuery, schema: Option<&Schema>) -> u64 {
    crate::compile::fingerprint(&query.describe(), query.mark.sign(), schema)
}

/// Compile-or-fetch the program for an annotation query. The schema only
/// contributes to the cache key (two schemas may shred the same query
/// differently downstream), not to the generated code.
pub fn cached_query_program(
    query: &AnnotationQuery,
    schema: Option<&Schema>,
) -> Result<Arc<Program>, CompileError> {
    let source = query.describe();
    let mark = query.mark.sign();
    let key = crate::compile::fingerprint(&source, mark, schema);
    cached(key, &source, mark, || compile_query(query, schema))
}

/// Compile-or-fetch the program for a single request path (decide path).
pub fn cached_path_program(path: &Path) -> Result<Arc<Program>, CompileError> {
    let source = path.to_string();
    cached(path_fingerprint(&source), &source, '+', || compile_path(path))
}

/// Current cache stats.
pub fn cache_stats() -> VmCacheStats {
    cache().stats
}

/// Drop every cached program and zero the stats (tests).
pub fn reset_cache() {
    let mut c = cache();
    c.map.clear();
    c.stats = VmCacheStats::default();
}

/// Serializes the tests that read the process-global cache's stats.
#[cfg(test)]
pub(crate) static CACHE_TESTS: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_colliding_key_is_a_miss_not_another_programs_decision() {
        let _serial = CACHE_TESTS.lock().unwrap_or_else(|p| p.into_inner());
        let key = 0x5eed_c011_1de5;
        let (a, b) = (xac_xpath::parse("//a").unwrap(), xac_xpath::parse("//b").unwrap());
        let fetch = |p: &Path| cached(key, &p.to_string(), '+', || compile_path(p)).unwrap();
        let before = cache_stats();
        assert_eq!(fetch(&a).source, "//a");
        assert_eq!(fetch(&b).source, "//b", "same key, another source: a miss");
        assert_eq!(fetch(&b).source, "//b");
        assert_eq!(fetch(&a).source, "//a");
        let after = cache_stats();
        assert_eq!((after.misses - before.misses, after.hits - before.hits), (3, 1));
        let q = cached(key, "//a", '-', || compile_path(&a).map(|p| Program { mark: '-', ..p }));
        assert_eq!(q.unwrap().mark, '-', "same source, another mark: a miss");
    }
}
