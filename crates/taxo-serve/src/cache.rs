//! Sharded LRU caches of served scores and rendered responses.
//!
//! **Scores** are keyed `(generation, tier, query, item)`. A served
//! score is a pure function of the detector and the pair: the vocabulary
//! is fixed for the life of the process, and the structural features
//! read only the detector's frozen embeddings, never the live taxonomy.
//! The detector changes only on promotion, and every promotion starts a
//! new [`crate::snapshot::ServeSnapshot::generation`] (a value never
//! reused within a process), so an ingest's snapshot swap keeps every
//! cached score valid while a promotion simply starts missing under its
//! new generation; entries of retired generations age out through normal
//! LRU pressure. The tier keeps the two weight sets apart: an int8 score
//! is only ever served to an int8 request. Cached values are
//! **bit-identical** to recomputing (one canonical `f32` per pair per
//! generation), so a hit can never change a response, only its cost.
//!
//! **Rendered tails** live in a [`ResponseCache`] owned by the snapshot
//! they render (keyed `(tier, query, k)`): a swap starts the new version
//! with an empty one, and a retired version's tails are freed together
//! with its last `Arc`.
//!
//! The maps are sharded so connection workers can probe concurrently
//! (the all-hit request fast path) while the scorer thread fills misses;
//! each shard is an independent `Mutex<HashMap + intrusive LRU list>`
//! with slab-allocated nodes, so steady-state hits and evictions touch
//! no allocator at all. Capacities are exact: at most `capacity` entries
//! are ever resident, spread over `min(16, capacity)` shards, and
//! capacity 0 turns a cache off (every probe misses, inserts are
//! dropped).
//!
//! Observability: `serve.cache.hits` / `serve.cache.misses` count probe
//! outcomes, `serve.cache.evictions` counts LRU displacements, and the
//! `serve.cache.entries` gauge tracks residency.

use crate::protocol::Tier;
use std::sync::{Arc, Mutex};
use taxo_core::ConceptId;
use taxo_obs::{counter, gauge};

/// Score-cache key: one scored pair under one detector generation and
/// tier, `(generation, tier, query, item)`.
pub type ScoreKey = (u64, Tier, ConceptId, ConceptId);

/// Key of a rendered tail in a snapshot's own cache: `(tier, query, k)`.
pub type TailKey = (Tier, ConceptId, u64);

/// Key of a rendered tail in a cache shared across snapshot versions:
/// `(version, tier, query, k)`. The server keeps one [`TailKey`] cache
/// per snapshot instead; this shape serves callers that replay a single
/// version outside a server (the `servebench` layer replay).
pub type ResponseKey = (u64, Tier, ConceptId, u64);

const SHARDS: usize = 16;
const NIL: u32 = u32::MAX;

/// A cache key with a deterministic shard mix — a fibonacci-style hash
/// of the key's fields, so shard load does not depend on `HashMap`'s
/// per-process seed.
pub trait ShardKey: std::hash::Hash + Eq + Copy {
    fn mix(&self) -> u64;
}

impl ShardKey for ScoreKey {
    fn mix(&self) -> u64 {
        (self.0 ^ ((self.1 as u64) << 48) ^ (u64::from(self.2 .0) << 32) ^ u64::from(self.3 .0))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

impl ShardKey for TailKey {
    fn mix(&self) -> u64 {
        (((self.0 as u64) << 48) ^ (u64::from(self.1 .0) << 16) ^ self.2)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

impl ShardKey for ResponseKey {
    fn mix(&self) -> u64 {
        (self.0 ^ ((self.1 as u64) << 48) ^ (u64::from(self.2 .0) << 16) ^ self.3)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
}

struct Node<K, V> {
    key: K,
    value: V,
    prev: u32,
    next: u32,
}

/// One LRU shard: `map` indexes into the `nodes` slab, which is linked
/// most-recent-first from `head` to `tail`. The slab never shrinks and
/// never exceeds `cap`, so once a shard has filled up, every insert
/// recycles the tail node in place.
struct Shard<K, V> {
    map: std::collections::HashMap<K, u32>,
    nodes: Vec<Node<K, V>>,
    head: u32,
    tail: u32,
    cap: usize,
}

impl<K: std::hash::Hash + Eq + Copy, V: Clone> Shard<K, V> {
    fn new(cap: usize) -> Self {
        Shard {
            map: std::collections::HashMap::new(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            cap,
        }
    }

    fn lookup(&mut self, key: &K) -> Option<V> {
        match self.map.get(key).copied() {
            Some(idx) => {
                self.touch(idx);
                Some(self.nodes[idx as usize].value.clone())
            }
            None => None,
        }
    }

    /// Inserts or refreshes, recycling the LRU tail when full.
    fn insert(&mut self, key: K, value: V) -> InsertOutcome {
        if let Some(idx) = self.map.get(&key).copied() {
            self.nodes[idx as usize].value = value;
            self.touch(idx);
            return InsertOutcome::Refreshed;
        }
        if self.nodes.len() < self.cap {
            let idx = self.nodes.len() as u32;
            self.nodes.push(Node {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.map.insert(key, idx);
            self.push_front(idx);
            return InsertOutcome::Grew;
        }
        // Full: recycle the LRU tail node in place.
        let idx = self.tail;
        let old = self.nodes[idx as usize].key;
        self.map.remove(&old);
        self.unlink(idx);
        {
            let n = &mut self.nodes[idx as usize];
            n.key = key;
            n.value = value;
        }
        self.map.insert(key, idx);
        self.push_front(idx);
        InsertOutcome::Evicted
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        let old_head = self.head;
        {
            let n = &mut self.nodes[idx as usize];
            n.prev = NIL;
            n.next = old_head;
        }
        match old_head {
            NIL => self.tail = idx,
            h => self.nodes[h as usize].prev = idx,
        }
        self.head = idx;
    }

    fn touch(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }
}

/// What [`Shard::insert`] did with the entry (`Off` — the cache has
/// capacity 0 and dropped it).
enum InsertOutcome {
    Refreshed,
    Grew,
    Evicted,
    Off,
}

/// The shard array both caches are built on.
struct ShardedLru<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
}

impl<K: ShardKey, V: Clone> ShardedLru<K, V> {
    /// Exactly `capacity` slots over `min(16, capacity)` shards, the
    /// remainder spread one each over the first shards; no shards at
    /// all for capacity 0.
    fn new(capacity: usize) -> Self {
        let n = SHARDS.min(capacity);
        ShardedLru {
            shards: (0..n)
                .map(|i| Mutex::new(Shard::new(capacity / n + usize::from(i < capacity % n))))
                .collect(),
        }
    }

    fn shard(&self, key: &K) -> Option<&Mutex<Shard<K, V>>> {
        match self.shards.len() {
            0 => None,
            n => Some(&self.shards[(key.mix() >> 32) as usize % n]),
        }
    }

    fn lookup(&self, key: &K) -> Option<V> {
        self.shard(key)?
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lookup(key)
    }

    fn insert(&self, key: K, value: V) -> InsertOutcome {
        match self.shard(&key) {
            Some(shard) => shard
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .insert(key, value),
            None => InsertOutcome::Off,
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len())
            .sum()
    }
}

impl<K, V> std::fmt::Debug for ShardedLru<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedLru")
            .field("shards", &self.shards.len())
            .finish()
    }
}

/// The process-wide served-score cache (one per server). See the module
/// docs for the keying, invalidation, and determinism story.
#[derive(Debug)]
pub struct ScoreCache {
    lru: ShardedLru<ScoreKey, f32>,
}

impl ScoreCache {
    /// A cache holding at most `capacity` entries overall (0 = off).
    pub fn new(capacity: usize) -> Self {
        ScoreCache {
            lru: ShardedLru::new(capacity),
        }
    }

    /// Counted single-key probe: bumps `serve.cache.hits` or
    /// `serve.cache.misses` and the entry's recency.
    pub fn get(&self, key: &ScoreKey) -> Option<f32> {
        let hit = self.lru.lookup(key);
        match hit {
            Some(_) => counter!("serve.cache.hits").inc(),
            None => counter!("serve.cache.misses").inc(),
        }
        hit
    }

    /// The request fast path: fills `scores` (cleared first) with the
    /// cached score of every `(generation, tier, query, item)` and
    /// returns `true` only if **all** items hit. Hits are counted only
    /// on full success; a partial probe counts nothing — the batched
    /// scorer will re-probe each pair and account for it there.
    pub fn get_all(
        &self,
        generation: u64,
        tier: Tier,
        query: ConceptId,
        items: &[ConceptId],
        scores: &mut Vec<f32>,
    ) -> bool {
        scores.clear();
        for &item in items {
            match self.lru.lookup(&(generation, tier, query, item)) {
                Some(s) => scores.push(s),
                None => return false,
            }
        }
        counter!("serve.cache.hits").add(items.len() as u64);
        true
    }

    /// Inserts (or refreshes) one scored pair, evicting the shard's
    /// least-recently-used entry when full.
    pub fn insert(&self, key: ScoreKey, score: f32) {
        match self.lru.insert(key, score) {
            InsertOutcome::Refreshed | InsertOutcome::Off => {}
            InsertOutcome::Grew => gauge!("serve.cache.entries").add(1),
            InsertOutcome::Evicted => counter!("serve.cache.evictions").inc(),
        }
    }

    /// Total resident entries (sums shard lengths; racy by nature).
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sharded LRU of fully rendered `score` response tails, generic over
/// its key: a snapshot owns a [`TailKey`] cache for its own version.
///
/// Scoring is pure and ranking/rendering are deterministic, so one
/// `(tier, query, k)` of one snapshot always produces the same bytes
/// after the request envelope. Caching that tail turns a repeat query
/// into a hash probe plus one [`crate::protocol::splice_response`] —
/// no eligibility scan, no score-cache probes, no ranking, and no float
/// formatting on the hot path.
///
/// Observability: `serve.resp_cache.hits` / `serve.resp_cache.misses`
/// count probe outcomes; `serve.resp_cache.evictions` counts LRU
/// displacements.
#[derive(Debug)]
pub struct ResponseCache<K = ResponseKey> {
    lru: ShardedLru<K, Arc<str>>,
}

impl<K: ShardKey> ResponseCache<K> {
    /// A cache holding at most `capacity` rendered tails (0 = off).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            lru: ShardedLru::new(capacity),
        }
    }

    /// Counted probe for a rendered tail.
    pub fn get(&self, key: &K) -> Option<Arc<str>> {
        let hit = self.lru.lookup(key);
        match hit {
            Some(_) => counter!("serve.resp_cache.hits").inc(),
            None => counter!("serve.resp_cache.misses").inc(),
        }
        hit
    }

    /// Inserts (or refreshes) one rendered tail.
    pub fn insert(&self, key: K, tail: Arc<str>) {
        if matches!(self.lru.insert(key, tail), InsertOutcome::Evicted) {
            counter!("serve.resp_cache.evictions").inc();
        }
    }

    /// Total resident tails (racy by nature).
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(generation: u64, q: u32, i: u32) -> ScoreKey {
        (generation, Tier::F32, ConceptId(q), ConceptId(i))
    }

    #[test]
    fn insert_get_and_refresh() {
        let c = ScoreCache::new(64);
        assert_eq!(c.get(&key(0, 1, 2)), None);
        c.insert(key(0, 1, 2), 0.25);
        assert_eq!(c.get(&key(0, 1, 2)), Some(0.25));
        // Same pair under a newer detector generation is a distinct entry.
        assert_eq!(c.get(&key(1, 1, 2)), None);
        c.insert(key(0, 1, 2), 0.5);
        assert_eq!(c.get(&key(0, 1, 2)), Some(0.5));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_is_exact_and_spread_over_shards() {
        for cap in [0, 1, 5, 16, 17, 100] {
            let c = ScoreCache::new(cap);
            for i in 0..4096 {
                c.insert(key(0, 0, i), 0.0);
            }
            assert_eq!(c.len(), cap, "a saturated cache holds exactly {cap}");
        }
        let one = ScoreCache::new(1);
        one.insert(key(0, 0, 0), 1.0);
        one.insert(key(0, 0, 1), 2.0);
        assert_eq!(one.len(), 1, "capacity 1 holds one entry");
        assert_eq!(one.get(&key(0, 0, 0)), None, "the older entry was evicted");
        assert_eq!(one.get(&key(0, 0, 1)), Some(2.0));
    }

    #[test]
    fn capacity_zero_is_off() {
        let c = ScoreCache::new(0);
        c.insert(key(0, 1, 2), 0.5);
        assert_eq!(c.get(&key(0, 1, 2)), None);
        let mut scores = Vec::new();
        assert!(!c.get_all(0, Tier::F32, ConceptId(1), &[ConceptId(2)], &mut scores));
        assert!(c.is_empty());
        let r: ResponseCache<TailKey> = ResponseCache::new(0);
        r.insert((Tier::F32, ConceptId(1), 8), Arc::from("x"));
        assert_eq!(r.get(&(Tier::F32, ConceptId(1), 8)), None);
    }

    #[test]
    fn lru_order_follows_touches() {
        // Capacity 16 → 16 shards of one slot: two keys landing in the
        // same shard exercise recycle-the-tail.
        let c = ScoreCache::new(16);
        let same_shard = |a: &ScoreKey, b: &ScoreKey| {
            std::ptr::eq(c.lru.shard(a).unwrap(), c.lru.shard(b).unwrap())
        };
        let probe = key(0, 9, 9);
        let in_shard: Vec<ScoreKey> = (0..256)
            .map(|i| key(0, 1, i))
            .filter(|k| same_shard(k, &probe))
            .collect();
        assert!(in_shard.len() >= 2, "256 keys must share a shard");
        c.insert(in_shard[0], 0.0);
        c.insert(in_shard[1], 1.0); // evicts [0]
        assert_eq!(c.get(&in_shard[0]), None);
        assert_eq!(c.get(&in_shard[1]), Some(1.0));

        // Capacity 32 → two slots per shard: a touch saves the older
        // entry and the untouched one is evicted instead.
        let c = ScoreCache::new(32);
        let probe = key(0, 9, 9);
        let in_shard: Vec<ScoreKey> = (0..256)
            .map(|i| key(0, 1, i))
            .filter(|k| std::ptr::eq(c.lru.shard(k).unwrap(), c.lru.shard(&probe).unwrap()))
            .collect();
        assert!(in_shard.len() >= 3, "256 keys must put three in a shard");
        let (a, b, d) = (in_shard[0], in_shard[1], in_shard[2]);
        c.insert(a, 1.0);
        c.insert(b, 2.0);
        assert_eq!(c.get(&a), Some(1.0)); // a is now most recent
        c.insert(d, 3.0); // evicts b
        assert_eq!(c.get(&b), None);
        assert_eq!(c.get(&a), Some(1.0));
        assert_eq!(c.get(&d), Some(3.0));
    }

    #[test]
    fn get_all_requires_every_item() {
        let c = ScoreCache::new(64);
        let items = [ConceptId(1), ConceptId(2)];
        let mut scores = Vec::new();
        c.insert(key(3, 0, 1), 0.1);
        assert!(!c.get_all(3, Tier::F32, ConceptId(0), &items, &mut scores));
        c.insert(key(3, 0, 2), 0.2);
        assert!(c.get_all(3, Tier::F32, ConceptId(0), &items, &mut scores));
        assert_eq!(scores, vec![0.1, 0.2]);
        // Another generation misses even with both pairs resident.
        assert!(!c.get_all(4, Tier::F32, ConceptId(0), &items, &mut scores));
    }

    #[test]
    fn tiers_never_cross_contaminate() {
        let c = ScoreCache::new(64);
        c.insert((0, Tier::F32, ConceptId(1), ConceptId(2)), 0.5);
        assert_eq!(c.get(&(0, Tier::Int8, ConceptId(1), ConceptId(2))), None);
        c.insert((0, Tier::Int8, ConceptId(1), ConceptId(2)), 0.25);
        assert_eq!(
            c.get(&(0, Tier::F32, ConceptId(1), ConceptId(2))),
            Some(0.5)
        );
        assert_eq!(
            c.get(&(0, Tier::Int8, ConceptId(1), ConceptId(2))),
            Some(0.25)
        );
    }

    #[test]
    fn response_cache_round_trips_and_separates_keys() {
        let c: ResponseCache<TailKey> = ResponseCache::new(64);
        let k_f32: TailKey = (Tier::F32, ConceptId(3), 8);
        let k_int8: TailKey = (Tier::Int8, ConceptId(3), 8);
        assert_eq!(c.get(&k_f32), None);
        c.insert(k_f32, Arc::from("\"kind\":\"score\"}"));
        assert_eq!(c.get(&k_f32).as_deref(), Some("\"kind\":\"score\"}"));
        assert_eq!(c.get(&k_int8), None, "tier is part of the identity");
        assert_eq!(c.get(&(Tier::F32, ConceptId(3), 4)), None, "k too");
        assert_eq!(c.len(), 1);

        let shared: ResponseCache = ResponseCache::new(64);
        shared.insert((1, Tier::F32, ConceptId(3), 8), Arc::from("a"));
        assert_eq!(
            shared.get(&(2, Tier::F32, ConceptId(3), 8)),
            None,
            "a cross-version cache keys the version too"
        );
    }
}
