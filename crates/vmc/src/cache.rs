//! Bounded program cache keyed on (policy, schema) fingerprints.
//!
//! A fixed capacity with second-chance (CLOCK) eviction: a hit sets the
//! entry's reference bit, and a miss on a full cache sweeps the ring
//! from the clock hand, clearing set bits, and replaces the first entry
//! whose bit was already clear. A workload whose distinct paths exceed
//! the capacity therefore keeps its re-referenced programs — the
//! per-update annotation programs among them — instead of losing the
//! whole cache at once. Each eviction is counted (and fed to a global
//! counter); hit/miss/eviction stats are published as gauges.

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

/// One cached program and its CLOCK reference bit.
struct Entry {
    key: u64,
    program: Arc<Program>,
    referenced: bool,
}

struct ProgramCache {
    /// Key → position of its entry in `ring`.
    map: HashMap<u64, usize>,
    ring: Vec<Entry>,
    /// The next ring position the eviction sweep examines.
    hand: usize,
    capacity: usize,
    stats: VmCacheStats,
}

impl ProgramCache {
    fn new(capacity: usize) -> ProgramCache {
        ProgramCache {
            map: HashMap::new(),
            ring: Vec::new(),
            hand: 0,
            capacity,
            stats: VmCacheStats::default(),
        }
    }

    /// The program cached under `key` for exactly (`source`, `mark`);
    /// a hit sets its reference bit.
    fn get(&mut self, key: u64, source: &str, mark: char) -> Option<Arc<Program>> {
        let entry = &mut self.ring[*self.map.get(&key)?];
        if entry.program.source != source || entry.program.mark != mark {
            return None;
        }
        entry.referenced = true;
        Some(Arc::clone(&entry.program))
    }

    /// Cache `program` under `key`, replacing a colliding entry in
    /// place or, when full, the first entry the sweep finds
    /// unreferenced; returns the number of entries evicted (0 or 1).
    fn insert(&mut self, key: u64, program: Arc<Program>) -> u64 {
        let entry = Entry { key, program, referenced: false };
        if let Some(&at) = self.map.get(&key) {
            self.ring[at] = entry;
            return 0;
        }
        if self.ring.len() < self.capacity {
            self.map.insert(key, self.ring.len());
            self.ring.push(entry);
            return 0;
        }
        while std::mem::take(&mut self.ring[self.hand].referenced) {
            self.hand = (self.hand + 1) % self.ring.len();
        }
        let victim = self.hand;
        self.map.remove(&self.ring[victim].key);
        self.map.insert(key, victim);
        self.ring[victim] = entry;
        self.hand = (victim + 1) % self.ring.len();
        1
    }

    fn clear(&mut self) {
        self.map.clear();
        self.ring.clear();
        self.hand = 0;
    }
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
        if let Some(p) = c.get(key, source, mark) {
            c.stats.hits += 1;
            return Ok(p);
        }
        c.stats.misses += 1;
    }
    let program = Arc::new(build()?);
    programs_compiled_total().inc();
    let mut c = cache();
    let evicted = c.insert(key, Arc::clone(&program));
    c.stats.evictions += evicted;
    cache_evictions_total().add(evicted);
    Ok(program)
}

fn cache() -> MutexGuard<'static, ProgramCache> {
    static CACHE: OnceLock<Mutex<ProgramCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| Mutex::new(ProgramCache::new(DEFAULT_PROGRAM_CACHE_CAPACITY)))
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
    c.clear();
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

    #[test]
    fn clock_eviction_keeps_the_size_bounded_and_spares_re_referenced_entries() {
        const CAP: usize = 4;
        let program = |i: u64| {
            let path = xac_xpath::parse(&format!("//e{i}")).unwrap();
            Arc::new(compile_path(&path).unwrap())
        };
        let mut c = ProgramCache::new(CAP);
        for i in 0..CAP as u64 {
            assert_eq!(c.insert(i, program(i)), 0, "room left below the cap");
        }
        // Entry 1 is read between misses: each sweep clears its bit and
        // passes it by, so it survives while the others rotate out.
        assert!(c.get(1, "//e1", '+').is_some());
        let mut evicted = 0;
        for i in CAP as u64..3 * CAP as u64 {
            evicted += c.insert(i, program(i));
            assert!(c.ring.len() <= CAP && c.map.len() <= CAP, "size stays within the cap");
            assert!(c.get(1, "//e1", '+').is_some(), "re-referenced entry 1 survives miss {i}");
            if i == CAP as u64 {
                assert!(c.get(0, "//e0", '+').is_none(), "unreferenced entry 0 evicted first");
            }
        }
        assert_eq!(evicted, 2 * CAP as u64, "every insert past the cap evicts exactly one");
        for (key, &at) in &c.map {
            assert_eq!(c.ring[at].key, *key, "map and ring agree");
        }
    }
}
