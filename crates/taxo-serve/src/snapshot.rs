//! Immutable serving snapshots and the hot-swap store.
//!
//! A [`ServeSnapshot`] is everything a `score` request reads — detector,
//! vocabulary, taxonomy, and the mined candidate index — frozen at one
//! version. Snapshots are immutable once built: the ingest thread builds
//! a **new** snapshot after every [`taxo_expand::IncrementalExpander`]
//! batch and publishes it through [`SnapshotStore`]; requests in flight
//! keep the `Arc` they started with, so every response is internally
//! consistent (entirely old state or entirely new state, never a mix).
//!
//! Each snapshot also owns the rendered-response cache of its version,
//! so a retired version's tails are freed with its last `Arc`, and
//! carries the **generation** of its [`ServeModel`]: scores depend only
//! on the model and the pair, so every version built on one model
//! shares its cached scores.
//!
//! Readers are wait-free in the steady state: each worker holds a
//! [`SnapshotReader`] that caches the current `Arc` and revalidates it
//! with a single atomic version load per request; the store's mutex is
//! touched only on the request *after* a swap (and swaps are rare —
//! one per ingest batch).

use crate::cache::{ResponseCache, TailKey};
use crate::protocol::Tier;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use taxo_core::{ConceptId, Taxonomy, Vocabulary};
use taxo_expand::{CandidatePair, HypoDetector, QuantizedDetector};

/// Candidate pairs sampled per snapshot build to measure the realized
/// int8-vs-f32 score divergence published on the
/// `serve.quant.max_abs_divergence` gauge.
const DIVERGENCE_SAMPLE: usize = 64;

/// Rendered-tail capacity of snapshots built by [`ServeSnapshot::build`]
/// (the server sizes its own from `ServeConfig::resp_cache_cap`).
pub const DEFAULT_RESP_CACHE_CAP: usize = 16_384;

/// Source of [`ServeModel::generation`]: never hands a value out twice
/// within a process. Relaxed suffices: the read-modify-write alone makes
/// each value unique, and the counter publishes no other data.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(0);

/// What a served score is a pure function of, besides the pair: the
/// vocabulary, the detector and its int8 twin. One model is shared by
/// every snapshot the ingest thread builds until a promotion replaces
/// it, and each model gets a fresh `generation` — the score-cache key
/// that lets scores outlive snapshot versions. The fields stay
/// crate-private so no caller can pair a generation with another model.
#[derive(Debug, Clone)]
pub struct ServeModel {
    pub(crate) generation: u64,
    pub(crate) vocab: Arc<Vocabulary>,
    pub(crate) detector: Arc<HypoDetector>,
    pub(crate) quant: Arc<QuantizedDetector>,
}

impl ServeModel {
    /// Quantizes `detector` once and stamps a new generation.
    pub fn new(vocab: Arc<Vocabulary>, detector: Arc<HypoDetector>) -> ServeModel {
        ServeModel {
            generation: NEXT_GENERATION.fetch_add(1, Ordering::Relaxed),
            quant: Arc::new(QuantizedDetector::from_detector(Arc::clone(&detector))),
            vocab,
            detector,
        }
    }
}

/// One scored attachment candidate of a `score` response, ranked.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredCandidate {
    pub item: ConceptId,
    /// Detector probability that `<query, item>` is a hyponymy edge.
    pub score: f32,
    /// Whether the snapshot's taxonomy already contains the edge (i.e. a
    /// previous ingest attached it).
    pub attached: bool,
}

/// The immutable state one `score` request is answered from.
#[derive(Debug)]
pub struct ServeSnapshot {
    /// Monotonically increasing snapshot version (0 = initial).
    pub version: u64,
    /// The [`ServeModel::generation`] this snapshot scores with — the
    /// first component of every score-cache key.
    pub generation: u64,
    pub vocab: Arc<Vocabulary>,
    pub detector: Arc<HypoDetector>,
    /// The int8 serving tier: quantized once from `detector` and shared
    /// across the snapshots of one [`ServeModel`].
    pub quant: Arc<QuantizedDetector>,
    /// Largest |int8 − f32| score difference over a fixed sample of this
    /// snapshot's candidate pairs — the realized quantization divergence
    /// on live data, also published as the
    /// `serve.quant.max_abs_divergence` gauge in nano-units.
    pub quant_divergence: f32,
    pub taxonomy: Taxonomy,
    /// Candidate items per query, sorted by clicks desc then item id —
    /// the same order `taxo_expand::candidates_by_query` produces.
    by_query: HashMap<ConceptId, Vec<CandidatePair>>,
    /// Structural feature rows (Eq. 13) of every mined candidate pair,
    /// computed once at build instead of per request: `feat_index` maps a
    /// pair to its row offset in the flat `feat_data` table. Empty when
    /// the detector has no structural model.
    feat_index: HashMap<(ConceptId, ConceptId), usize>,
    feat_data: Vec<f32>,
    feat_dim: usize,
    /// Rendered `score` tails of this version, keyed `(tier, query, k)`.
    responses: ResponseCache<TailKey>,
}

impl ServeSnapshot {
    /// Freezes one serving state from its parts. `pairs` is the full
    /// mined candidate set (e.g. [`taxo_expand::IncrementalExpander::candidate_pairs`]).
    ///
    /// Build is where serving pays its one-time costs: the per-query
    /// candidate index and the structural feature row of every candidate
    /// pair (the relational side needs no equivalent — concept
    /// tokenizations are cached inside the detector itself). Requests
    /// then copy precomputed rows instead of re-deriving them.
    ///
    /// Each call quantizes a fresh [`ServeModel`], so its scores share no
    /// cache entries with any other snapshot; the server rebuilds through
    /// [`ServeSnapshot::build_for`] instead.
    pub fn build(
        version: u64,
        vocab: Arc<Vocabulary>,
        detector: Arc<HypoDetector>,
        taxonomy: Taxonomy,
        pairs: &[CandidatePair],
    ) -> ServeSnapshot {
        ServeSnapshot::build_for(
            version,
            &ServeModel::new(vocab, detector),
            taxonomy,
            pairs,
            DEFAULT_RESP_CACHE_CAP,
        )
    }

    /// [`ServeSnapshot::build`] on an existing model, so every rebuild
    /// between two promotions shares one quantized tier and one
    /// generation, with a rendered-tail cache of `resp_cache_cap`
    /// entries (0 = off).
    pub fn build_for(
        version: u64,
        model: &ServeModel,
        taxonomy: Taxonomy,
        pairs: &[CandidatePair],
        resp_cache_cap: usize,
    ) -> ServeSnapshot {
        let ServeModel {
            generation,
            vocab,
            detector,
            quant,
        } = model.clone();
        let feat_dim = detector
            .structural
            .as_ref()
            .map_or(0, |st| st.feature_dim());
        let mut feat_index = HashMap::new();
        let mut feat_data = Vec::new();
        if let Some(st) = &detector.structural {
            for p in pairs {
                if let std::collections::hash_map::Entry::Vacant(e) =
                    feat_index.entry((p.query, p.item))
                {
                    let off = feat_data.len();
                    feat_data.resize(off + feat_dim, 0.0);
                    st.pair_features_into(p.query, p.item, &mut feat_data[off..]);
                    e.insert(off);
                }
            }
        }
        // Measure the realized int8 divergence on a deterministic sample
        // of this snapshot's own candidates and publish it: serving a
        // lossy tier without a live bound on the loss would be flying
        // blind. Nano-unit fixed point keeps the gauge integral.
        let sample: Vec<(ConceptId, ConceptId)> = pairs
            .iter()
            .take(DIVERGENCE_SAMPLE)
            .map(|p| (p.query, p.item))
            .collect();
        let quant_divergence = if sample.is_empty() {
            0.0
        } else {
            quant.max_abs_divergence(&vocab, &sample)
        };
        taxo_obs::gauge!("serve.quant.max_abs_divergence")
            .set((f64::from(quant_divergence) * 1e9) as i64);

        ServeSnapshot {
            version,
            generation,
            vocab,
            detector,
            quant,
            quant_divergence,
            taxonomy,
            by_query: taxo_expand::candidates_by_query(pairs),
            feat_index,
            feat_data,
            feat_dim,
            responses: ResponseCache::new(resp_cache_cap),
        }
    }

    /// This version's rendered-tail cache.
    pub fn responses(&self) -> &ResponseCache<TailKey> {
        &self.responses
    }

    /// The precomputed structural feature row of a mined candidate pair,
    /// or `None` for pairs outside the candidate set (the scorer falls
    /// back to computing those on the fly) — and always `None` without a
    /// structural model, where rows are zero-width anyway.
    pub fn structural_row(&self, query: ConceptId, item: ConceptId) -> Option<&[f32]> {
        self.feat_index
            .get(&(query, item))
            .map(|&off| &self.feat_data[off..off + self.feat_dim])
    }

    /// The scoring workload for `query`: its most-clicked candidate items,
    /// capped at `cap`, self-pairs removed. Empty when the query has no
    /// mined candidates (or is unknown).
    pub fn eligible(&self, query: ConceptId, cap: usize) -> Vec<ConceptId> {
        self.by_query
            .get(&query)
            .map(|list| {
                list.iter()
                    .take(cap)
                    .map(|p| p.item)
                    .filter(|&item| item != query)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Assembles the ranked response from pre-computed scores (one per
    /// item of [`ServeSnapshot::eligible`], in the same order): sort by
    /// score descending with item id as the deterministic tie-break, keep
    /// the top `k`.
    pub fn rank(
        &self,
        query: ConceptId,
        items: &[ConceptId],
        scores: &[f32],
        k: usize,
    ) -> Vec<ScoredCandidate> {
        debug_assert_eq!(items.len(), scores.len());
        let mut out: Vec<ScoredCandidate> = items
            .iter()
            .zip(scores)
            .map(|(&item, &score)| ScoredCandidate {
                item,
                score,
                attached: self.taxonomy.contains_edge(query, item),
            })
            .collect();
        out.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.item.cmp(&b.item)));
        out.truncate(k);
        out
    }

    /// Scores one query end to end on the calling thread — the offline
    /// reference the micro-batched server path must match bit for bit
    /// (both call the same pure [`taxo_expand::EdgeClassifier`] scoring
    /// per pair).
    pub fn score_query(&self, query: ConceptId, cap: usize, k: usize) -> Vec<ScoredCandidate> {
        self.score_query_tier(query, cap, k, Tier::F32)
    }

    /// Tier-aware [`ServeSnapshot::score_query`]: the int8 tier is the
    /// offline reference for quantized serving, bit-identical to the
    /// server's quant responses the same way f32 is for exact ones.
    pub fn score_query_tier(
        &self,
        query: ConceptId,
        cap: usize,
        k: usize,
        tier: Tier,
    ) -> Vec<ScoredCandidate> {
        let items = self.eligible(query, cap);
        let scores: Vec<f32> = items
            .iter()
            .map(|&item| match tier {
                Tier::F32 => self.detector.score(&self.vocab, query, item),
                Tier::Int8 => self.quant.score(&self.vocab, query, item),
            })
            .collect();
        self.rank(query, &items, &scores, k)
    }
}

/// The published-snapshot cell: one writer (the ingest thread), many
/// cached readers.
#[derive(Debug)]
pub struct SnapshotStore {
    /// Version of the snapshot in `slot`, readable without the lock.
    version: AtomicU64,
    slot: Mutex<Arc<ServeSnapshot>>,
}

impl SnapshotStore {
    pub fn new(initial: ServeSnapshot) -> Self {
        let initial = Arc::new(initial);
        SnapshotStore {
            version: AtomicU64::new(initial.version),
            slot: Mutex::new(initial),
        }
    }

    /// Atomically publishes `next` as the current snapshot. Readers that
    /// already hold the previous `Arc` keep serving from it; new requests
    /// observe the version bump and refresh.
    pub fn publish(&self, next: Arc<ServeSnapshot>) {
        // Delay-only chaos point: widens the window where readers hold
        // the previous snapshot while the new one exists but is not yet
        // visible — responses must stay version-pure throughout.
        let _ = taxo_fault::inject("serve.snapshot.publish");
        let version = next.version;
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = next;
        // Release-ordered so a reader that sees the new version also sees
        // the slot assignment above.
        self.version.store(version, Ordering::Release);
        taxo_obs::counter!("serve.snapshot.swaps").inc();
        taxo_obs::gauge!("serve.snapshot.version").set(version as i64);
    }

    /// Version of the currently published snapshot.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Clones the current snapshot handle (locks; use a
    /// [`SnapshotReader`] on request paths).
    pub fn load(&self) -> Arc<ServeSnapshot> {
        Arc::clone(&self.slot.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// A caching reader handle for one worker thread.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader {
            cached: self.load(),
            store: Arc::clone(self),
        }
    }
}

/// Per-worker snapshot cache: [`SnapshotReader::current`] is one atomic
/// load unless a swap happened since the last call.
#[derive(Debug)]
pub struct SnapshotReader {
    store: Arc<SnapshotStore>,
    cached: Arc<ServeSnapshot>,
}

impl SnapshotReader {
    /// The current snapshot, revalidated against the store's version.
    pub fn current(&mut self) -> &Arc<ServeSnapshot> {
        if self.store.version() != self.cached.version {
            self.cached = self.store.load();
        }
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_snapshot(version: u64, pairs: &[CandidatePair]) -> ServeSnapshot {
        let mut vocab = Vocabulary::new();
        let a = vocab.intern("a");
        let b = vocab.intern("b");
        let c = vocab.intern("c");
        let mut tax = Taxonomy::new();
        tax.add_node(a);
        tax.add_node(b);
        tax.add_node(c);
        tax.add_edge(a, b).unwrap();
        let relational = taxo_expand::RelationalModel::vanilla(
            &vocab,
            &[],
            &taxo_expand::RelationalConfig::tiny(1),
        );
        let detector = HypoDetector::new(
            Some(relational),
            None,
            &taxo_expand::DetectorConfig::tiny(1),
        );
        ServeSnapshot::build(version, Arc::new(vocab), Arc::new(detector), tax, pairs)
    }

    fn pair(query: u32, item: u32, clicks: u64) -> CandidatePair {
        CandidatePair {
            query: ConceptId(query),
            item: ConceptId(item),
            clicks,
        }
    }

    #[test]
    fn eligible_caps_and_drops_self_pairs() {
        let snap = tiny_snapshot(0, &[pair(0, 1, 9), pair(0, 2, 5), pair(0, 0, 99)]);
        assert_eq!(
            snap.eligible(ConceptId(0), 8),
            vec![ConceptId(1), ConceptId(2)]
        );
        assert_eq!(snap.eligible(ConceptId(0), 2), vec![ConceptId(1)]);
        assert!(snap.eligible(ConceptId(7), 8).is_empty());
    }

    #[test]
    fn rank_orders_by_score_then_id_and_flags_attached() {
        let snap = tiny_snapshot(0, &[]);
        let items = [ConceptId(2), ConceptId(1)];
        let ranked = snap.rank(ConceptId(0), &items, &[0.5, 0.5], 5);
        // Equal scores: lower id first.
        assert_eq!(ranked[0].item, ConceptId(1));
        assert!(ranked[0].attached, "edge a->b exists in the fixture");
        assert!(!ranked[1].attached);
        let top1 = snap.rank(ConceptId(0), &items, &[0.9, 0.1], 1);
        assert_eq!(top1.len(), 1);
        assert_eq!(top1[0].item, ConceptId(2));
    }

    #[test]
    fn quant_tier_scores_are_close_but_distinct() {
        let snap = tiny_snapshot(0, &[pair(0, 1, 9), pair(0, 2, 5)]);
        let f = snap.score_query_tier(ConceptId(0), 8, 8, Tier::F32);
        let q = snap.score_query_tier(ConceptId(0), 8, 8, Tier::Int8);
        assert_eq!(f.len(), q.len());
        assert!(snap.quant_divergence >= 0.0);
        for (a, b) in f.iter().zip(&q) {
            // Same candidate universe; scores within the published bound.
            assert!((a.score - b.score).abs() <= snap.quant_divergence + 1e-6);
        }
    }

    #[test]
    fn store_publishes_and_readers_refresh() {
        let store = Arc::new(SnapshotStore::new(tiny_snapshot(0, &[pair(0, 1, 3)])));
        let mut reader = store.reader();
        assert_eq!(reader.current().version, 0);
        store.publish(Arc::new(tiny_snapshot(1, &[pair(0, 2, 3)])));
        assert_eq!(store.version(), 1);
        assert_eq!(reader.current().version, 1);
        assert_eq!(
            reader.current().eligible(ConceptId(0), 8),
            vec![ConceptId(2)]
        );
    }

    #[test]
    fn versions_of_one_model_share_its_generation() {
        let a = tiny_snapshot(0, &[pair(0, 1, 3)]);
        let b = tiny_snapshot(0, &[pair(0, 1, 3)]);
        assert_ne!(a.generation, b.generation, "each build is a new model");
        let model = ServeModel {
            generation: a.generation,
            vocab: Arc::clone(&a.vocab),
            detector: Arc::clone(&a.detector),
            quant: Arc::clone(&a.quant),
        };
        let next = ServeSnapshot::build_for(1, &model, a.taxonomy.clone(), &[pair(0, 2, 3)], 4);
        assert_eq!(next.generation, a.generation);
        assert!(Arc::ptr_eq(&next.quant, &a.quant));
        // The rendered tails are the version's own.
        let key = (Tier::F32, ConceptId(0), 8);
        a.responses().insert(key, Arc::from("tail"));
        assert_eq!(a.responses().get(&key).as_deref(), Some("tail"));
        assert_eq!(next.responses().get(&key), None);
    }
}
