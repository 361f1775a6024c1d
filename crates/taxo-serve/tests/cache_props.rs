//! Property tests for the sharded LRU caches (`taxo_serve::cache`),
//! checked against a naive `HashMap` oracle.
//!
//! The cache's contract is *correctness-transparent lossiness*: an entry
//! may vanish under capacity pressure, but a **hit** must always return
//! exactly what was last inserted under that exact
//! `(generation, tier, query, item)` key — bit-for-bit, never a
//! neighbor's value, never a retired generation's. And the
//! slab-recycling eviction path must respect capacity: residency never
//! exceeds the exact capacity, capacity 0 never hits, and with fewer
//! distinct keys than the smallest shard's capacity no eviction can
//! ever happen, making the cache *fully* equivalent to the oracle.

use proptest::__rand::rngs::StdRng;
use proptest::__rand::RngExt;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use taxo_core::ConceptId;
use taxo_serve::protocol::Tier;
use taxo_serve::{ResponseCache, ScoreCache, ScoreKey, TailKey};

const SHARDS: usize = 16;

/// One cache operation over a deliberately tiny key universe, so
/// refreshes, collisions, and evictions all actually occur.
#[derive(Debug, Clone)]
enum Op {
    Insert(ScoreKey, f32),
    Get(ScoreKey),
}

fn arb_key(rng: &mut StdRng, generations: u64, concepts: u32) -> ScoreKey {
    let tier = if rng.random_range(0..2u32) == 0 {
        Tier::F32
    } else {
        Tier::Int8
    };
    (
        rng.random_range(0..generations),
        tier,
        ConceptId(rng.random_range(0..concepts)),
        ConceptId(rng.random_range(0..concepts)),
    )
}

/// A random op sequence over `generations × tiers × concepts²` keys.
#[derive(Debug, Clone, Copy)]
struct ArbOps {
    len: usize,
    generations: u64,
    concepts: u32,
}

impl Strategy for ArbOps {
    type Value = Vec<Op>;

    fn generate(&self, rng: &mut StdRng) -> Vec<Op> {
        (0..self.len)
            .map(|_| {
                let key = arb_key(rng, self.generations, self.concepts);
                if rng.random_range(0..3u32) == 0 {
                    Op::Get(key)
                } else {
                    Op::Insert(key, f32::from_bits(rng.random_range(0..0x7f7f_ffff)))
                }
            })
            .collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Under arbitrary pressure: a hit is always the oracle's value for
    /// that exact key (bit-identical — so retired generations and
    /// foreign tiers can never leak into a response), a just-inserted
    /// key always hits, and residency never exceeds the capacity.
    #[test]
    fn hits_match_the_oracle_and_capacity_holds(
        ops in ArbOps { len: 300, generations: 3, concepts: 5 },
        capacity in 1usize..96,
    ) {
        let cache = ScoreCache::new(capacity);
        let mut oracle: HashMap<ScoreKey, u32> = HashMap::new();
        let bound = capacity;
        for op in ops {
            match op {
                Op::Insert(key, value) => {
                    cache.insert(key, value);
                    oracle.insert(key, value.to_bits());
                    // The freshly inserted key is at its shard's head:
                    // nothing can have displaced it yet.
                    prop_assert_eq!(
                        cache.get(&key).map(f32::to_bits),
                        Some(value.to_bits()),
                        "a just-inserted key must hit with its exact bits"
                    );
                }
                Op::Get(key) => {
                    if let Some(hit) = cache.get(&key) {
                        prop_assert_eq!(
                            Some(hit.to_bits()),
                            oracle.get(&key).copied(),
                            "a hit must be the last value inserted under that key"
                        );
                    }
                }
            }
            prop_assert!(
                cache.len() <= bound,
                "residency {} exceeds the capacity bound {}",
                cache.len(),
                bound
            );
        }
    }

    /// Capacity is exact for every size, 0 included: residency never
    /// exceeds `capacity` whatever the pressure, a full cache stays full,
    /// and a cache of capacity 0 is off — it never hits.
    #[test]
    fn capacity_is_exact_and_zero_is_off(
        ops in ArbOps { len: 300, generations: 4, concepts: 6 },
        capacity in 0usize..40,
    ) {
        let cache = ScoreCache::new(capacity);
        for op in ops {
            match op {
                Op::Insert(key, value) => cache.insert(key, value),
                Op::Get(key) => {
                    let hit = cache.get(&key);
                    if capacity == 0 {
                        prop_assert_eq!(hit, None, "capacity 0 must never hit");
                    }
                }
            }
            prop_assert!(
                cache.len() <= capacity,
                "residency {} exceeds the capacity {}",
                cache.len(),
                capacity
            );
        }
        let tails: ResponseCache<TailKey> = ResponseCache::new(capacity);
        for q in 0..64u32 {
            let key = (Tier::F32, ConceptId(q), 8);
            tails.insert(key, Arc::from("t"));
            if capacity == 0 {
                prop_assert_eq!(tails.get(&key), None, "capacity 0 must never hit");
            }
            prop_assert!(tails.len() <= capacity);
        }
    }

    /// With at most the smallest shard's capacity in distinct keys, not
    /// even a fully colliding shard can evict: the slab only recycles
    /// when full, so the cache must be *totally* equivalent to the
    /// oracle — every key resident, every value exact, residency equal.
    #[test]
    fn below_one_shard_of_pressure_the_cache_is_the_oracle(
        seed_ops in ArbOps { len: 400, generations: 2, concepts: 3 },
        capacity in 16usize..128,
    ) {
        // Exact capacities give every shard `capacity / 16` slots, the
        // first `capacity % 16` shards one more.
        let shard_cap = capacity / SHARDS;
        // Shrink the op stream's key universe to `shard_cap` distinct
        // keys by indexing into a fixed enumeration.
        let universe: Vec<ScoreKey> = (0..shard_cap as u32)
            .map(|i| (u64::from(i % 2), Tier::F32, ConceptId(i), ConceptId(i + 1)))
            .collect();
        let remap = |k: ScoreKey| -> ScoreKey {
            let mixed = k.0 ^ u64::from(k.2.0) ^ (u64::from(k.3.0) << 8);
            universe[(mixed as usize) % universe.len()]
        };

        let cache = ScoreCache::new(capacity);
        let mut oracle: HashMap<ScoreKey, u32> = HashMap::new();
        for op in seed_ops {
            match op {
                Op::Insert(key, value) => {
                    let key = remap(key);
                    cache.insert(key, value);
                    oracle.insert(key, value.to_bits());
                }
                Op::Get(key) => {
                    let key = remap(key);
                    prop_assert_eq!(
                        cache.get(&key).map(f32::to_bits),
                        oracle.get(&key).copied(),
                        "below eviction pressure, hit-or-miss must match the oracle exactly"
                    );
                }
            }
        }
        for (key, bits) in &oracle {
            prop_assert_eq!(
                cache.get(key).map(f32::to_bits),
                Some(*bits),
                "no eviction may occur below one shard of distinct keys"
            );
        }
        prop_assert_eq!(cache.len(), oracle.len());
    }

    /// Detector generations and tiers partition the key space: the same
    /// pair inserted under three identities stays three independent
    /// entries.
    #[test]
    fn generations_and_tiers_partition_the_key_space(
        q in 0u32..1000,
        i in 0u32..1000,
        g in 0u64..1_000_000,
        bits_a in 0u32..0x7f7f_ffff,
        bits_b in 0u32..0x7f7f_ffff,
        bits_c in 0u32..0x7f7f_ffff,
    ) {
        let cache = ScoreCache::new(1024);
        let old = (g, Tier::F32, ConceptId(q), ConceptId(i));
        let new = (g + 1, Tier::F32, ConceptId(q), ConceptId(i));
        let int8 = (g, Tier::Int8, ConceptId(q), ConceptId(i));
        cache.insert(old, f32::from_bits(bits_a));
        cache.insert(new, f32::from_bits(bits_b));
        cache.insert(int8, f32::from_bits(bits_c));
        prop_assert_eq!(cache.get(&old).map(f32::to_bits), Some(bits_a));
        prop_assert_eq!(cache.get(&new).map(f32::to_bits), Some(bits_b));
        prop_assert_eq!(cache.get(&int8).map(f32::to_bits), Some(bits_c));
        prop_assert_eq!(cache.get(&(g + 2, Tier::F32, ConceptId(q), ConceptId(i))), None);
    }

    /// The rendered-response cache shares the shard/slab machinery; its
    /// contract is the same last-write-wins exactness over a snapshot's
    /// `(tier, query, k)`.
    #[test]
    fn response_cache_hits_match_their_oracle(
        ops in ArbOps { len: 200, generations: 3, concepts: 4 },
        capacity in 1usize..64,
    ) {
        let cache: ResponseCache<TailKey> = ResponseCache::new(capacity);
        let mut oracle: HashMap<TailKey, String> = HashMap::new();
        for op in ops {
            match op {
                Op::Insert((g, tier, q, item), value) => {
                    let key = (tier, q, u64::from(item.0) + 16 * g);
                    let tail = format!("\"score\":{value}}}");
                    cache.insert(key, Arc::from(tail.as_str()));
                    oracle.insert(key, tail);
                }
                Op::Get((g, tier, q, item)) => {
                    let key = (tier, q, u64::from(item.0) + 16 * g);
                    if let Some(hit) = cache.get(&key) {
                        prop_assert_eq!(
                            Some(&*hit),
                            oracle.get(&key).map(String::as_str),
                            "a rendered-tail hit must be the exact last insert"
                        );
                    }
                }
            }
        }
    }
}
