//! The daemon's two caches: warm compiled worlds and memoized results.
//!
//! Both are deterministic-by-construction: the world cache stores pristine
//! prototypes (compiled CSR topologies + compiled interference banks) that
//! are cloned per use, and the memo cache stores the exact report bytes a
//! scenario produced, so a warm answer is byte-identical to a cold run.
//! Recency for eviction is tracked with a **logical clock** (a counter
//! bumped per access) rather than wall-clock time — the daemon's behaviour
//! is a pure function of the request sequence.

use std::collections::BTreeMap;
use std::sync::Arc;

use dimmer_bench::experiments::{city_worlds, CityWorld};

/// Warm cache of the prebuilt city [`CityWorld`]s.
///
/// City-scale worlds are the expensive part of a city trial (topology
/// generation plus interference-bank compilation); the daemon builds the
/// four `city` presets once and stamps out per-trial batches from the
/// pristine prototypes.
#[derive(Debug, Default)]
pub struct WorldCache {
    city: Option<Vec<Arc<CityWorld>>>,
    hits: u64,
    misses: u64,
}

impl WorldCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the city preset worlds, building them on first use.
    pub fn city(&mut self) -> Vec<Arc<CityWorld>> {
        if self.city.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        self.city
            .get_or_insert_with(|| city_worlds().into_iter().map(Arc::new).collect())
            .clone()
    }

    /// `(hits, misses)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Bytes resident in the cached worlds.
    pub fn resident_bytes(&self) -> usize {
        self.city.iter().flatten().map(|w| w.memory_bytes()).sum()
    }
}

/// Result memoization keyed by `(scenario_hash, seed)`, bounded by a byte
/// budget with least-recently-used eviction. Finished jobs hold only their
/// key, so the budget bounds every report byte the daemon retains.
#[derive(Debug)]
pub struct MemoCache {
    entries: BTreeMap<(u64, u64), MemoEntry>,
    budget_bytes: usize,
    bytes: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

#[derive(Debug)]
struct MemoEntry {
    report: Arc<str>,
    last_used: u64,
}

/// A snapshot of the memo cache counters for the `stats` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups that returned a stored report.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries dropped to stay within the byte budget.
    pub evictions: u64,
    /// Reports currently stored.
    pub entries: usize,
    /// Report bytes currently stored.
    pub bytes: usize,
    /// The configured byte budget.
    pub budget_bytes: usize,
}

impl MemoCache {
    /// Creates a cache bounded to `budget_bytes` of stored report bytes.
    pub fn new(budget_bytes: usize) -> Self {
        MemoCache {
            entries: BTreeMap::new(),
            budget_bytes,
            bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up a memoized report, marking the entry most-recently used
    /// and counting a hit or a miss.
    pub fn get(&mut self, scenario_hash: u64, seed: u64) -> Option<Arc<str>> {
        let report = self.recheck(scenario_hash, seed);
        match report {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        report
    }

    /// [`get`](Self::get) without counting: the executor's second look at
    /// a job whose lookup `submit` already counted.
    pub fn recheck(&mut self, scenario_hash: u64, seed: u64) -> Option<Arc<str>> {
        self.clock += 1;
        let entry = self.entries.get_mut(&(scenario_hash, seed))?;
        entry.last_used = self.clock;
        Some(entry.report.clone())
    }

    /// Stores a report, evicting least-recently-used entries until the
    /// budget holds, and returns whether it was stored: a report larger
    /// than the whole budget is not.
    pub fn insert(&mut self, scenario_hash: u64, seed: u64, report: Arc<str>) -> bool {
        if report.len() > self.budget_bytes {
            return false;
        }
        self.clock += 1;
        if let Some(old) = self.entries.insert(
            (scenario_hash, seed),
            MemoEntry {
                report: report.clone(),
                last_used: self.clock,
            },
        ) {
            self.bytes -= old.report.len();
        }
        self.bytes += report.len();
        while self.bytes > self.budget_bytes {
            let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            else {
                break;
            };
            if let Some(evicted) = self.entries.remove(&oldest) {
                self.bytes -= evicted.report.len();
                self.evictions += 1;
            }
        }
        true
    }

    /// Counter snapshot for the `stats` reply.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.bytes,
            budget_bytes: self.budget_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(tag: u8, len: usize) -> Arc<str> {
        Arc::from(String::from_utf8(vec![b'a' + tag; len]).unwrap())
    }

    #[test]
    fn memo_hits_and_misses_are_counted() {
        let mut memo = MemoCache::new(1000);
        assert!(memo.get(1, 2).is_none());
        memo.insert(1, 2, report(0, 10));
        assert_eq!(memo.get(1, 2).unwrap().len(), 10);
        assert!(memo.get(1, 3).is_none(), "seed is part of the key");
        assert!(memo.get(9, 2).is_none(), "scenario hash is part of the key");
        let s = memo.stats();
        assert_eq!((s.hits, s.misses, s.entries, s.bytes), (1, 3, 1, 10));
        // A re-check finds the same entries but counts nothing.
        assert!(memo.recheck(1, 2).is_some());
        assert!(memo.recheck(1, 3).is_none());
        assert_eq!(memo.stats(), s);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let mut memo = MemoCache::new(25);
        memo.insert(1, 0, report(0, 10));
        memo.insert(2, 0, report(1, 10));
        // Touch entry 1 so entry 2 is the least recently used.
        assert!(memo.get(1, 0).is_some());
        memo.insert(3, 0, report(2, 10));
        let s = memo.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= 25);
        assert!(memo.get(1, 0).is_some(), "recently-used entry survives");
        assert!(memo.get(2, 0).is_none(), "LRU entry was evicted");
        assert!(memo.get(3, 0).is_some());
    }

    #[test]
    fn oversized_reports_are_not_cached() {
        let mut memo = MemoCache::new(5);
        assert!(!memo.insert(1, 0, report(0, 10)));
        assert!(memo.get(1, 0).is_none());
        assert_eq!(memo.stats().bytes, 0);
    }

    #[test]
    fn a_new_cache_reports_only_its_budget() {
        assert_eq!(
            MemoCache::new(123).stats(),
            MemoStats {
                hits: 0,
                misses: 0,
                evictions: 0,
                entries: 0,
                bytes: 0,
                budget_bytes: 123,
            }
        );
    }

    #[test]
    fn a_large_insert_evicts_as_many_old_entries_as_it_needs() {
        let mut memo = MemoCache::new(30);
        for hash in 1..=3 {
            assert!(memo.insert(hash, 0, report(0, 10)));
        }
        assert!(memo.insert(4, 0, report(1, 25)));
        let s = memo.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 25, 3));
        assert!(
            memo.get(4, 0).is_some(),
            "the newest entry is never evicted"
        );
    }

    #[test]
    fn a_recheck_refreshes_recency() {
        let mut memo = MemoCache::new(25);
        memo.insert(1, 0, report(0, 10));
        memo.insert(2, 0, report(1, 10));
        assert!(memo.recheck(1, 0).is_some());
        memo.insert(3, 0, report(2, 10));
        assert!(memo.recheck(1, 0).is_some(), "rechecked entry survives");
        assert!(memo.recheck(2, 0).is_none(), "LRU entry was evicted");
    }

    #[test]
    fn a_report_of_exactly_the_budget_is_stored() {
        let mut memo = MemoCache::new(10);
        assert!(memo.insert(1, 0, report(0, 10)));
        assert!(memo.insert(2, 0, report(1, 10)));
        let s = memo.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 10, 1));
        assert_eq!(memo.get(2, 0).as_deref(), Some("bbbbbbbbbb"));
    }

    #[test]
    fn growing_an_entry_in_place_evicts_the_others_first() {
        let mut memo = MemoCache::new(30);
        memo.insert(1, 0, report(0, 10));
        memo.insert(2, 0, report(1, 10));
        memo.insert(1, 0, report(2, 25));
        let s = memo.stats();
        assert_eq!((s.entries, s.bytes, s.evictions), (1, 25, 1));
        assert_eq!(memo.get(1, 0).map(|r| r.len()), Some(25));
    }

    #[test]
    fn reinserting_a_key_replaces_its_bytes() {
        let mut memo = MemoCache::new(100);
        memo.insert(1, 0, report(0, 10));
        memo.insert(1, 0, report(1, 20));
        let s = memo.stats();
        assert_eq!((s.entries, s.bytes), (1, 20));
    }
}
