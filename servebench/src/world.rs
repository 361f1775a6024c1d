//! The offline side of the benchmark: the query universe, the exact
//! expected reply of every query at snapshot version 0, and the ingest
//! batches of unseen click evidence. Built from the same deterministic
//! world and pipeline the server trains, so every version-0 reply can be
//! checked byte for byte.

use std::sync::Arc;
use std::time::Instant;
use taxo_bench::{serving_expansion_config, serving_pipeline};
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::IncrementalExpander;
use taxo_serve::protocol::{score_response_tail, splice_response};
use taxo_serve::{ServeConfig, ServeSnapshot, Tier};

/// The seed of the served world. Fixed, so set-up work is the same for
/// every workload seed; the workload seed only shapes the requests.
pub const WORLD_SEED: u64 = 42;
/// Candidates returned per `score` request.
pub const K: usize = 8;
/// Click events behind each ingest batch.
const EVENTS_PER_BATCH: usize = 250;

pub struct Universe {
    pub world: taxo_synth::World,
    pub vocab: Arc<Vocabulary>,
    pub snapshot: Arc<ServeSnapshot>,
    pub expander: IncrementalExpander,
    /// Scorable queries: terms with at least one eligible candidate.
    pub qids: Vec<ConceptId>,
    pub terms: Vec<String>,
    /// Per query, the request line the clients send.
    pub lines: Vec<String>,
    /// Per query, the exact version-0 reply line (id-less request, so
    /// the reply envelope is `"id":null`).
    pub expected: Vec<String>,
    /// Time `ServeSnapshot::build` took for the version-0 snapshot.
    pub snapshot_build_ms: f64,
    pub max_candidates: usize,
}

impl Universe {
    pub fn build() -> Universe {
        let max_candidates = ServeConfig::default().max_candidates;
        let (world, trained) = serving_pipeline(WORLD_SEED);
        let expander = trained.into_expander(&world.existing, serving_expansion_config());
        let pairs = expander.candidate_pairs();
        let vocab = Arc::new(world.vocab.clone());
        let t = Instant::now();
        let snapshot = Arc::new(ServeSnapshot::build(
            0,
            Arc::clone(&vocab),
            Arc::new(expander.detector().clone()),
            expander.taxonomy().clone(),
            &pairs,
        ));
        let snapshot_build_ms = t.elapsed().as_secs_f64() * 1e3;
        let mut qids: Vec<ConceptId> = pairs.iter().map(|p| p.query).collect();
        qids.sort_unstable();
        qids.dedup();
        qids.retain(|&q| !snapshot.eligible(q, max_candidates).is_empty());
        let terms: Vec<String> = qids.iter().map(|&q| vocab.name(q).to_owned()).collect();
        let lines = terms.iter().map(|t| score_line(t)).collect();
        let expected = qids
            .iter()
            .zip(&terms)
            .map(|(&q, term)| {
                let ranked = snapshot.score_query_tier(q, max_candidates, K, Tier::F32);
                splice_response(
                    None,
                    &score_response_tail(term, 0, Tier::F32, &vocab, &ranked),
                )
            })
            .collect();
        Universe {
            world,
            vocab,
            snapshot,
            expander,
            qids,
            terms,
            lines,
            expected,
            snapshot_build_ms,
            max_candidates,
        }
    }

    /// Ingest batches of unseen click evidence: batch `i` is a click log
    /// of its own over the served world, `EVENTS_PER_BATCH` events from a
    /// seed training never saw (mixed with `i`). Batch `i` is therefore the
    /// same whatever `n` is, and depends on neither the run length nor
    /// the workload seed: what an update costs is part of the workload.
    pub fn drift_batches(&self, n: usize) -> Vec<Vec<(String, String, u64)>> {
        (0..n)
            .map(|i| {
                let seed = (WORLD_SEED ^ 0xD21F).wrapping_add((i as u64) << 20);
                let log = taxo_synth::ClickLog::generate(
                    &self.world,
                    &taxo_synth::ClickConfig {
                        n_events: EVENTS_PER_BATCH,
                        ..taxo_synth::ClickConfig::tiny(seed)
                    },
                );
                log.records
                    .iter()
                    .map(|r| {
                        (
                            self.vocab.name(r.query).to_owned(),
                            r.item_text.clone(),
                            r.count,
                        )
                    })
                    .collect()
            })
            .collect()
    }
}

/// The `score` request line for `term` (no id, explicit `k`).
pub fn score_line(term: &str) -> String {
    let mut w = taxo_core::json::ObjWriter::new();
    w.str("kind", "score").str("query", term).u64("k", K as u64);
    w.finish()
}

/// The `ingest` request line for one batch (no id).
pub fn ingest_line(records: &[(String, String, u64)]) -> String {
    let mut arr = String::from("[");
    for (i, (query, item, count)) in records.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        let mut r = taxo_core::json::ObjWriter::new();
        r.str("query", query).str("item", item).u64("count", *count);
        arr.push_str(&r.finish());
    }
    arr.push(']');
    let mut w = taxo_core::json::ObjWriter::new();
    w.str("kind", "ingest").raw("records", &arr);
    w.finish()
}
