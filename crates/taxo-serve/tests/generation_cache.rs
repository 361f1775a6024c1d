//! Served scores are keyed by detector generation, not snapshot version:
//! they must survive ingest swaps (the detector did not change) and
//! must never survive a promotion (it did).
//!
//! Both properties are checked end to end against a live server. Every
//! reply is compared bit for bit with the offline replay of the snapshot
//! it claims to come from, and the `serve.score.*` ledger shows which
//! path answered.

use std::sync::{Arc, Mutex, MutexGuard};
use taxo_core::{ConceptId, Vocabulary};
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_serve::{
    candidate_key, expected_key, Client, IngestPhase, Reply, ServeConfig, ServeSnapshot, Server,
};
use taxo_synth::{ClickConfig, ClickLog, World, WorldConfig};

/// The `serve.*` counters are process-global: tests that read deltas
/// must not overlap.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn detector(vocab: &Vocabulary, seed: u64) -> HypoDetector {
    let relational = RelationalModel::vanilla(vocab, &[], &RelationalConfig::tiny(seed));
    HypoDetector::new(Some(relational), None, &DetectorConfig::tiny(seed))
}

/// A synthetic world, a vanilla detector, and an expander seeded with
/// the first half of the click log; the second half is returned as wire
/// ingest batches.
fn fixture(seed: u64, batches: usize) -> (Arc<Vocabulary>, IncrementalExpander, Vec<Batch>) {
    let world = World::generate(&WorldConfig {
        target_nodes: 120,
        ..WorldConfig::tiny(seed)
    });
    let log = ClickLog::generate(
        &world,
        &ClickConfig {
            n_events: 4_000,
            ..ClickConfig::tiny(seed)
        },
    );
    let cfg = ExpansionConfig::builder().threshold(0.6).build().unwrap();
    let mut expander =
        IncrementalExpander::new(detector(&world.vocab, seed), world.existing.clone(), cfg);
    let half = log.records.len() / 2;
    expander.ingest(&world.vocab, &log.records[..half]);
    let rest = &log.records[half..];
    let batches = rest
        .chunks(rest.len().div_ceil(batches))
        .map(|chunk| {
            chunk
                .iter()
                .map(|r| {
                    (
                        world.vocab.name(r.query).to_owned(),
                        r.item_text.clone(),
                        r.count,
                    )
                })
                .collect()
        })
        .collect();
    (Arc::new(world.vocab), expander, batches)
}

type Batch = Vec<(String, String, u64)>;

/// Requests answered on the connection worker from cached scores.
fn cached_requests() -> u64 {
    taxo_obs::counter!("serve.score.cached_requests").get()
}

/// Requests that entered the scorer queue.
fn accepted() -> u64 {
    taxo_obs::counter!("serve.score.accepted").get()
}

/// Queries with at least one candidate in `snap`.
fn scorable(snap: &ServeSnapshot, cap: usize) -> Vec<ConceptId> {
    let mut queries: Vec<ConceptId> = (0..snap.vocab.len() as u32).map(ConceptId).collect();
    queries.retain(|&q| !snap.eligible(q, cap).is_empty());
    queries
}

/// Scores every query and checks each reply bit for bit against the
/// offline replay of `snap`, the snapshot the server is publishing.
fn assert_replies_match(client: &mut Client, snap: &ServeSnapshot, queries: &[ConceptId]) {
    let cfg = ServeConfig::default();
    for &q in queries {
        let reply = match client.score(snap.vocab.name(q), None).unwrap() {
            Reply::Ok(v) => v,
            other => panic!("score failed: {other:?}"),
        };
        assert_eq!(
            reply
                .get("version")
                .and_then(taxo_serve::json::Value::as_u64),
            Some(snap.version)
        );
        assert_eq!(
            candidate_key(&reply).expect("score replies carry candidates"),
            expected_key(
                &snap.vocab,
                &snap.score_query(q, cfg.max_candidates, cfg.default_k)
            ),
            "reply for {:?} differs from the offline replay of version {}",
            snap.vocab.name(q),
            snap.version
        );
    }
}

#[test]
fn scores_outlive_ingest_swaps_and_match_each_version() {
    let _g = test_lock();
    let (vocab, expander, batches) = fixture(61, 3);
    let cap = ServeConfig::default().max_candidates;
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .bind("127.0.0.1:0")
        .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    let mut snap = handle.store().load();
    let generation = snap.generation;
    let mut queries = scorable(&snap, cap);
    assert!(queries.len() >= 8, "need a non-trivial query universe");
    assert_replies_match(&mut client, &snap, &queries);

    for batch in &batches {
        let Reply::Ok(_) = client.ingest(batch).unwrap() else {
            panic!("ingest failed");
        };
        let prev = snap;
        snap = handle.store().load();
        assert_eq!(snap.version, prev.version + 1);
        assert_eq!(snap.generation, generation, "an ingest keeps the model");

        // A query whose candidates were all scored under the previous
        // version is answered from the score cache on the connection
        // worker: its new snapshot's tail cache is empty, but no pair
        // reaches the scorer queue.
        let q = *queries
            .iter()
            .find(|&&q| {
                let before = prev.eligible(q, cap);
                snap.eligible(q, cap).iter().all(|i| before.contains(i))
            })
            .expect("some query keeps its candidates across the ingest");
        let (cached_before, accepted_before) = (cached_requests(), accepted());
        assert_replies_match(&mut client, &snap, &[q]);
        assert_eq!(cached_requests(), cached_before + 1);
        assert_eq!(accepted(), accepted_before);

        queries = scorable(&snap, cap);
        assert_replies_match(&mut client, &snap, &queries);
    }
    handle.shutdown_and_join();
}

#[test]
fn promotion_never_serves_an_old_generation_score() {
    let _g = test_lock();
    let (vocab, expander, _) = fixture(62, 1);
    let cap = ServeConfig::default().max_candidates;
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .bind("127.0.0.1:0")
        .unwrap();
    let ctl = handle.controller();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Warm every cache layer under the initial detector.
    let old = ctl.snapshot();
    let queries = scorable(&old, cap);
    assert_replies_match(&mut client, &old, &queries);
    assert_replies_match(&mut client, &old, &queries);

    // Single-phase promotion of a differently seeded detector.
    let out = ctl
        .promote(Arc::new(detector(&vocab, 162)), IngestPhase::Auto)
        .unwrap();
    assert!(out.published);
    let promoted = ctl.snapshot();
    assert_eq!(promoted.version, out.version);
    assert_ne!(promoted.generation, old.generation);
    let differs = queries.iter().any(|&q| {
        old.score_query(q, cap, 8)
            .iter()
            .zip(promoted.score_query(q, cap, 8))
            .any(|(a, b)| a.score.to_bits() != b.score.to_bits())
    });
    assert!(differs, "the promoted detector must score differently");
    assert_replies_match(&mut client, &promoted, &queries);

    // A prepared promotion starts its generation with the held snapshot:
    // until the commit the served model is unchanged, after it no score
    // of the previous generation answers.
    let out = ctl
        .promote(Arc::new(detector(&vocab, 163)), IngestPhase::Prepare)
        .unwrap();
    assert!(!out.published);
    assert_eq!(ctl.snapshot().generation, promoted.generation);
    assert_replies_match(&mut client, &promoted, &queries);
    ctl.promote_commit().unwrap();
    let committed = ctl.snapshot();
    assert_eq!(committed.version, out.version);
    assert_ne!(committed.generation, promoted.generation);
    assert_ne!(committed.generation, old.generation);
    assert_replies_match(&mut client, &committed, &queries);
    handle.shutdown_and_join();
}

#[test]
fn zero_capacity_caches_are_off_and_replies_stay_exact() {
    let _g = test_lock();
    let (vocab, expander, _) = fixture(63, 1);
    let cfg = ServeConfig {
        score_cache_cap: 0,
        resp_cache_cap: 0,
        ..ServeConfig::default()
    };
    let cap = cfg.max_candidates;
    let handle = Server::builder(expander, Arc::clone(&vocab))
        .config(cfg)
        .bind("127.0.0.1:0")
        .expect("capacity 0 is a valid config: the cache is off");
    let mut client = Client::connect(handle.addr()).unwrap();
    let snap = handle.store().load();
    let queries = scorable(&snap, cap);
    let resp_hits = || taxo_obs::counter!("serve.resp_cache.hits").get();
    let (cached_before, accepted_before, hits_before) =
        (cached_requests(), accepted(), resp_hits());
    // Twice over: the repeat finds nothing cached either.
    assert_replies_match(&mut client, &snap, &queries);
    assert_replies_match(&mut client, &snap, &queries);
    assert_eq!(cached_requests(), cached_before);
    assert_eq!(resp_hits(), hits_before);
    assert_eq!(accepted(), accepted_before + 2 * queries.len() as u64);
    handle.shutdown_and_join();
}
