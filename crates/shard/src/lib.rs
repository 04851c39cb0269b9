//! # autopilot-shard
//!
//! The one memoization primitive of the stack. A [`ShardedMap`] splits
//! its key space across N independent shards (FNV-1a key hash, so shard
//! placement is deterministic across processes and runs), each guarded
//! by its own `Mutex` with poisoned-lock recovery, so concurrent jobs
//! contend only when they touch the same shard. Every cache above it
//! (candidate cache, pipeline cache, the server's per-scenario maps)
//! only builds keys and computes values:
//! [`ShardedMap::get_or_try_insert_with`] does the lookup, runs the
//! computation outside the lock on a miss, stores the value, and counts
//! the outcome.
//!
//! Capacity is bounded per shard with **clock** (second-chance)
//! eviction: every slot carries a referenced bit that lookups set; the
//! eviction hand sweeps the slot ring, clearing referenced bits until
//! it finds a cold slot to reuse. Unbounded maps (`capacity == 0`)
//! never evict.
//!
//! Entries are tagged with the **owner** (job id) that inserted them,
//! so a hit served from another tenant's work is reported as a
//! [`Lookup::CrossRunHit`] — the number the DSE-as-a-service refactor
//! exists to make non-zero.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use autopilot_obs as obs;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the key's `Hash` byte stream: deterministic across
/// processes (unlike `RandomState`), so shard placement — and hence
/// which entries a bounded shard evicts — is reproducible.
#[derive(Debug, Clone)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// How a get-or-compute lookup was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Served from an entry the caller's own owner inserted.
    Hit,
    /// Served from an entry a *different* owner inserted.
    CrossRunHit,
    /// Not cached: the caller computed the value.
    Miss,
}

/// Hit/miss/eviction counters of a cache, captured at a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache (cross-run hits included).
    pub hits: u64,
    /// Lookups that computed the value.
    pub misses: u64,
    /// Hits served from an entry a different owner inserted.
    pub cross_run_hits: u64,
    /// Entries displaced by clock eviction.
    pub evictions: u64,
    /// Live entries at snapshot time.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`; zero
    /// when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Atomic lookup counters: one set per shard, and one per Phase-2 run
/// for the run's own share of a shared cache.
#[derive(Debug, Default)]
pub struct LookupCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    cross_run_hits: AtomicU64,
    evictions: AtomicU64,
}

impl LookupCounters {
    /// Counts one lookup answered as `lookup`.
    pub fn record(&self, lookup: Lookup) {
        let counter = match lookup {
            Lookup::Miss => &self.misses,
            Lookup::Hit => &self.hits,
            Lookup::CrossRunHit => {
                self.cross_run_hits.fetch_add(1, Ordering::Relaxed);
                &self.hits
            }
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The counts so far (`entries` is zero: counters hold no entries).
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            cross_run_hits: self.cross_run_hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: 0,
        }
    }
}

/// One cache slot in a shard's clock ring.
#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    owner: u64,
    referenced: bool,
}

#[derive(Debug)]
struct ShardState<K, V> {
    /// Key → slot index in `slots`.
    index: HashMap<K, usize>,
    /// The clock ring.
    slots: Vec<Slot<K, V>>,
    /// Clock hand for the next eviction sweep.
    hand: usize,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardState<K, V> {
    /// The value and owner tag stored under `key`, marking the slot
    /// recently used for the clock sweep.
    fn lookup(&mut self, key: &K) -> Option<(V, u64)> {
        let slot = &mut self.slots[*self.index.get(key)?];
        slot.referenced = true;
        Some((slot.value.clone(), slot.owner))
    }

    /// Stores `value` unless `key` is already present, in which case
    /// the stored value wins. Returns the value now held and whether a
    /// cold entry was evicted to make room.
    fn insert_if_absent(&mut self, key: K, value: V, owner: u64, capacity: usize) -> (V, bool) {
        if let Some((held, _)) = self.lookup(&key) {
            return (held, false);
        }
        let slot = Slot { key: key.clone(), value: value.clone(), owner, referenced: true };
        if capacity == 0 || self.slots.len() < capacity {
            self.index.insert(key, self.slots.len());
            self.slots.push(slot);
            return (value, false);
        }
        // Clock sweep: give referenced slots a second chance, evict the
        // first cold one. Bounded by two revolutions.
        let len = self.slots.len();
        let mut victim = self.hand % len;
        for _ in 0..(2 * len) {
            let s = &mut self.slots[victim];
            if !s.referenced {
                break;
            }
            s.referenced = false;
            victim = (victim + 1) % len;
        }
        self.hand = (victim + 1) % len;
        let old = std::mem::replace(&mut self.slots[victim], slot);
        self.index.remove(&old.key);
        self.index.insert(key, victim);
        (value, true)
    }
}

#[derive(Debug)]
struct Shard<K, V> {
    state: Mutex<ShardState<K, V>>,
    counters: LookupCounters,
}

impl<K, V> Shard<K, V> {
    fn lock(&self) -> MutexGuard<'_, ShardState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Precomputed obs counter names so the hot path never formats strings.
#[derive(Debug, Clone)]
struct CounterNames {
    hits: String,
    misses: String,
    cross_run_hits: String,
    evictions: String,
}

/// A concurrent get-or-compute map sharded N ways by key hash, with
/// per-shard locks, bounded capacity, clock eviction, owner-tagged
/// entries and per-shard lookup counters.
///
/// Values are returned by clone; keep them cheap to clone (the repo's
/// cached payloads are small stat structs) or wrap them in `Arc`.
#[derive(Debug)]
pub struct ShardedMap<K, V> {
    shards: Vec<Shard<K, V>>,
    /// Per-shard slot budget; `0` means unbounded.
    per_shard_capacity: usize,
    /// Obs counter names, when enabled.
    names: Option<CounterNames>,
}

impl<K: Hash + Eq + Clone, V: Clone> ShardedMap<K, V> {
    /// Creates a map with `shards` shards (clamped to at least 1) and a
    /// total `capacity` spread evenly across them; `capacity == 0`
    /// means unbounded (no eviction ever). With one shard the bound is
    /// exact.
    pub fn new(shards: usize, capacity: usize) -> ShardedMap<K, V> {
        let shards = shards.max(1);
        let per_shard_capacity = if capacity == 0 { 0 } else { capacity.div_ceil(shards).max(1) };
        ShardedMap {
            shards: (0..shards)
                .map(|_| Shard {
                    state: Mutex::new(ShardState {
                        index: HashMap::new(),
                        slots: Vec::new(),
                        hand: 0,
                    }),
                    counters: LookupCounters::default(),
                })
                .collect(),
            per_shard_capacity,
            names: None,
        }
    }

    /// Also reports every lookup to obs: `{prefix}.hits`, `.misses` and
    /// `.cross_run_hits` (a cross-run hit bumps `.hits` too), and
    /// `.evictions`.
    pub fn with_obs_prefix(mut self, prefix: &str) -> ShardedMap<K, V> {
        self.names = Some(CounterNames {
            hits: format!("{prefix}.hits"),
            misses: format!("{prefix}.misses"),
            cross_run_hits: format!("{prefix}.cross_run_hits"),
            evictions: format!("{prefix}.evictions"),
        });
        self
    }

    fn shard_index(&self, key: &K) -> usize {
        let mut h = FnvHasher::default();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        &self.shards[self.shard_index(key)]
    }

    fn record(&self, shard: &Shard<K, V>, lookup: Lookup) {
        shard.counters.record(lookup);
        if let Some(names) = &self.names {
            match lookup {
                Lookup::Miss => obs::add(&names.misses, 1),
                Lookup::Hit => obs::add(&names.hits, 1),
                Lookup::CrossRunHit => {
                    obs::add(&names.hits, 1);
                    obs::add(&names.cross_run_hits, 1);
                }
            }
        }
    }

    /// Returns the value cached under `key`, or runs `compute` —
    /// outside the shard lock, so workers fill distinct entries
    /// concurrently — and caches its `Ok` value tagged with `owner`.
    ///
    /// The outcome says whether the value was a hit on the caller's own
    /// entry, a cross-run hit on another owner's entry, or a miss, and
    /// is counted once. When a racing writer stored `key` first, its
    /// entry is kept and returned (the miss is still counted: this
    /// caller computed). An `Err` is returned uncached and uncounted, so
    /// the next request retries.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_try_insert_with<E>(
        &self,
        key: K,
        owner: u64,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, Lookup), E> {
        let shard = self.shard(&key);
        let found = shard.lock().lookup(&key);
        if let Some((value, entry_owner)) = found {
            let lookup = if entry_owner == owner { Lookup::Hit } else { Lookup::CrossRunHit };
            self.record(shard, lookup);
            return Ok((value, lookup));
        }
        let value = compute()?;
        self.record(shard, Lookup::Miss);
        let (value, evicted) =
            shard.lock().insert_if_absent(key, value, owner, self.per_shard_capacity);
        if evicted {
            shard.counters.evictions.fetch_add(1, Ordering::Relaxed);
            if let Some(names) = &self.names {
                obs::add(&names.evictions, 1);
            }
        }
        Ok((value, Lookup::Miss))
    }

    /// [`ShardedMap::get_or_try_insert_with`] for a computation that
    /// cannot fail.
    pub fn get_or_insert_with(
        &self,
        key: K,
        owner: u64,
        compute: impl FnOnce() -> V,
    ) -> (V, Lookup) {
        match self.get_or_try_insert_with(key, owner, || Ok::<V, Infallible>(compute())) {
            Ok(found) => found,
            Err(never) => match never {},
        }
    }

    /// Non-counting lookup: returns the value without touching the
    /// counters (still refreshes the slot's referenced bit so
    /// assembly-style reads don't get their entries evicted).
    pub fn peek(&self, key: &K) -> Option<V> {
        self.shard(key).lock().lookup(key).map(|(value, _)| value)
    }

    /// Counters summed across all shards, with the live entry count.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in &self.shards {
            let per = shard.counters.snapshot();
            total.hits += per.hits;
            total.misses += per.misses;
            total.cross_run_hits += per.cross_run_hits;
            total.evictions += per.evictions;
            total.entries += shard.lock().index.len();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Caches `value` under `key` for `owner` unless already present.
    fn put(map: &ShardedMap<u64, u64>, key: u64, value: u64, owner: u64) -> Lookup {
        map.get_or_insert_with(key, owner, || value).1
    }

    #[test]
    fn get_or_insert_reports_hits_by_owner() {
        let map: ShardedMap<u64, String> = ShardedMap::new(4, 0);
        assert_eq!(map.get_or_insert_with(7, 42, || "seven".to_owned()).1, Lookup::Miss);
        let (value, lookup) = map.get_or_insert_with(7, 42, || unreachable!("cached"));
        assert_eq!((value.as_str(), lookup), ("seven", Lookup::Hit));
        let (value, lookup) = map.get_or_insert_with(7, 43, || unreachable!("cached"));
        assert_eq!((value.as_str(), lookup), ("seven", Lookup::CrossRunHit));
        assert_eq!(map.stats().entries, 1);
        let st = map.stats();
        assert_eq!((st.hits, st.misses, st.cross_run_hits, st.evictions), (2, 1, 1, 0));
        assert!((st.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn errors_are_neither_cached_nor_counted() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(2, 0);
        assert_eq!(map.get_or_try_insert_with(1, 0, || Err("transient")), Err("transient"));
        assert_eq!(map.stats(), CacheStats::default());
        assert_eq!(map.get_or_try_insert_with(1, 0, || Ok::<_, ()>(10)), Ok((10, Lookup::Miss)));
    }

    #[test]
    fn racing_writer_keeps_the_first_entry() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(1, 0);
        // The compute closure stands in for a racing writer: it stores
        // the key while this caller is still computing.
        let (value, lookup) = map.get_or_insert_with(5, 1, || {
            put(&map, 5, 50, 2);
            51
        });
        assert_eq!((value, lookup), (50, Lookup::Miss), "the stored entry must win");
        assert_eq!(map.get_or_insert_with(5, 2, || 0), (50, Lookup::Hit), "owner stays 2");
        assert_eq!(map.stats().misses, 2, "both writers computed");
    }

    #[test]
    fn capacity_is_bounded_and_evictions_counted() {
        // Single shard so the bound is exact.
        let map: ShardedMap<u64, u64> = ShardedMap::new(1, 8);
        for k in 0..100 {
            put(&map, k, k * 10, 0);
        }
        let st = map.stats();
        assert_eq!((st.misses, st.evictions, st.entries), (100, 92, 8));
    }

    #[test]
    fn clock_second_chance_protects_hot_entries() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(1, 4);
        for k in 0..4 {
            put(&map, k, k, 0);
        }
        // Priming insert: the first sweep clears every referenced bit
        // (clock degenerates to FIFO when everything is hot) and evicts
        // key 0, leaving keys 1..4 cold and the hand past slot 0.
        put(&map, 10, 10, 0);
        assert!(map.peek(&0).is_none());
        // Touch key 2, then stream two inserts: the sweep must evict
        // the cold keys 1 and 3 and give the referenced key 2 a second
        // chance.
        assert_eq!(put(&map, 2, 2, 0), Lookup::Hit);
        put(&map, 11, 11, 0);
        put(&map, 12, 12, 0);
        assert!(map.peek(&2).is_some(), "referenced key 2 was evicted");
        assert!(map.peek(&1).is_none(), "cold key 1 survived the sweep");
        assert!(map.peek(&3).is_none(), "cold key 3 survived the sweep");
    }

    #[test]
    fn unbounded_map_never_evicts() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(8, 0);
        for k in 0..10_000 {
            put(&map, k, k, 0);
        }
        assert_eq!((map.stats().entries, map.stats().evictions), (10_000, 0));
    }

    #[test]
    fn peek_does_not_count() {
        let map: ShardedMap<u64, u64> = ShardedMap::new(2, 0);
        put(&map, 1, 10, 0);
        assert_eq!(map.peek(&1), Some(10));
        assert_eq!(map.peek(&2), None);
        let st = map.stats();
        assert_eq!((st.hits, st.misses), (0, 1));
    }

    #[test]
    fn obs_prefix_counts_every_outcome_once() {
        obs::force_metrics(true);
        let map: ShardedMap<u64, u64> = ShardedMap::new(1, 1).with_obs_prefix("shard_test.map");
        let before = obs::snapshot();
        put(&map, 1, 1, 7); // miss
        put(&map, 1, 1, 7); // hit
        put(&map, 1, 1, 8); // cross-run hit
        put(&map, 2, 2, 7); // miss, evicts key 1
        let after = obs::snapshot();
        let delta = |name: &str| after.counter(name) - before.counter(name);
        assert_eq!(delta("shard_test.map.hits"), 2);
        assert_eq!(delta("shard_test.map.misses"), 2);
        assert_eq!(delta("shard_test.map.cross_run_hits"), 1);
        assert_eq!(delta("shard_test.map.evictions"), 1);
    }

    #[test]
    fn shard_placement_is_deterministic() {
        let a: ShardedMap<u64, u64> = ShardedMap::new(8, 0);
        let b: ShardedMap<u64, u64> = ShardedMap::new(8, 0);
        for k in 0..64 {
            assert_eq!(a.shard_index(&k), b.shard_index(&k));
        }
        // And not degenerate: more than one shard gets traffic.
        let used: std::collections::HashSet<usize> =
            (0..64u64).map(|k| a.shard_index(&k)).collect();
        assert!(used.len() > 1, "all keys landed in one shard");
    }

    #[test]
    fn concurrent_counter_conservation() {
        // Every lookup is counted exactly once, on the outcome its caller
        // saw, under contention: per-thread tallies of the returned
        // outcomes must sum to the map's counters.
        let map: Arc<ShardedMap<u64, u64>> = Arc::new(ShardedMap::new(4, 64));
        let threads = 8u64;
        let per_thread = 2_000u64;
        let tallies: Vec<[u64; 3]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let map = Arc::clone(&map);
                    scope.spawn(move || {
                        let mut tally = [0u64; 3]; // hits, cross-run hits, misses
                                                   // Deterministic per-thread key stream (SplitMix64).
                        let mut x = 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(t + 1);
                        for _ in 0..per_thread {
                            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
                            let mut z = x;
                            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                            let key = (z ^ (z >> 31)) % 256;
                            let (value, lookup) = map.get_or_insert_with(key, t, || key);
                            assert_eq!(value, key);
                            match lookup {
                                Lookup::Hit => tally[0] += 1,
                                Lookup::CrossRunHit => tally[1] += 1,
                                Lookup::Miss => tally[2] += 1,
                            }
                        }
                        tally
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("worker")).collect()
        });
        let sum = |i: usize| tallies.iter().map(|t| t[i]).sum::<u64>();
        let st = map.stats();
        assert_eq!(st.hits + st.misses, threads * per_thread);
        assert_eq!(st.hits, sum(0) + sum(1));
        assert_eq!(st.cross_run_hits, sum(1));
        assert_eq!(st.misses, sum(2));
        assert!(st.cross_run_hits > 0, "eight owners over 256 keys must share entries");
        assert!(st.entries <= 64, "capacity bound violated: {}", st.entries);
    }
}
