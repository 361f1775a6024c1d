//! Per-layer figures: deltas of the server's own `stats` reply, and the
//! in-process traced replay of a workload's request stream through each
//! layer's public functions.

use crate::sampler::{conn_rng, Popularity};
use crate::stats::{median, ratio};
use crate::trace::{self_times, Recorder};
use crate::world::{Universe, K};
use std::collections::BTreeMap;
use std::sync::Arc;
use taxo_core::ConceptId;
use taxo_serve::json::Value;
use taxo_serve::protocol::{parse_request, score_response_tail, splice_response, FrameDecoder};
use taxo_serve::{IngestRecord, ResponseCache, ScoreCache, ScoreJob, ScoreSink, Tier};

/// The difference of two `stats` replies.
pub struct StatsDelta {
    counters: BTreeMap<String, f64>,
    /// `(count, sum)`
    hists: BTreeMap<String, (f64, f64)>,
    /// `(count, total_ms)`
    spans: BTreeMap<String, (f64, f64)>,
}

impl StatsDelta {
    pub fn between(before: &Value, after: &Value) -> StatsDelta {
        let field = |v: &Value, group: &str, name: &str, key: Option<&str>| -> f64 {
            let x = v.get(group).and_then(|g| g.get(name));
            let x = match key {
                Some(k) => x.and_then(|x| x.get(k)),
                None => x,
            };
            match x {
                Some(Value::Num(tok)) => tok.parse().unwrap_or(0.0),
                _ => 0.0,
            }
        };
        let names = |group: &str| -> Vec<String> {
            match after.get(group) {
                Some(Value::Obj(map)) => map.keys().cloned().collect(),
                _ => Vec::new(),
            }
        };
        let d = |group: &str, name: &str, key: Option<&str>| {
            field(after, group, name, key) - field(before, group, name, key)
        };
        StatsDelta {
            counters: names("counters")
                .into_iter()
                .map(|n| {
                    let v = d("counters", &n, None);
                    (n, v)
                })
                .collect(),
            hists: names("histograms")
                .into_iter()
                .map(|n| {
                    let v = (
                        d("histograms", &n, Some("count")),
                        d("histograms", &n, Some("sum")),
                    );
                    (n, v)
                })
                .collect(),
            spans: names("spans")
                .into_iter()
                .map(|n| {
                    let v = (
                        d("spans", &n, Some("count")),
                        d("spans", &n, Some("total_ms")),
                    );
                    (n, v)
                })
                .collect(),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn hist_count(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.0)
    }

    pub fn hist_sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.1)
    }

    pub fn hist_mean(&self, name: &str) -> f64 {
        ratio(self.hist_sum(name), self.hist_count(name))
    }

    pub fn span_count(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.0)
    }

    pub fn span_total_ms(&self, name: &str) -> f64 {
        self.spans.get(name).map_or(0.0, |s| s.1)
    }

    pub fn span_mean_ms(&self, name: &str) -> f64 {
        ratio(self.span_total_ms(name), self.span_count(name))
    }
}

/// How the replay should shape its caches and batches to follow the
/// workload's server.
pub struct ReplayPlan<'a> {
    pub uni: &'a Universe,
    pub pop: &'a Popularity,
    pub seed: u64,
    pub requests: usize,
    pub score_cache_cap: usize,
    pub resp_cache_cap: usize,
    /// Jobs per scoring call: the mean batch size the server reported.
    pub batch_jobs: usize,
    /// Shards of the routed tier (0: no router in front).
    pub shards: usize,
    /// Ingest batches to push through the expander and the WAL.
    pub ingest_batches: &'a [Vec<(String, String, u64)>],
    pub work_dir: std::path::PathBuf,
}

/// A score request part-way through the replayed server path.
struct Pending {
    req: u64,
    root: usize,
    qid: ConceptId,
    term: usize,
    items: Vec<ConceptId>,
}

/// Replays connection 0's request stream through the layer functions the
/// server calls, in the server's order, with a span around each call.
/// Returns per-layer mean self time per call (ns unless named `_ms` /
/// `_us`) and writes every span to `spans_path`.
///
/// The replay runs untraced and traced twice each, alternately; the
/// tracing overhead is the traced score loop's median time over the
/// untraced one's, as a percentage.
pub fn replay(
    plan: &ReplayPlan,
    spans_path: &std::path::Path,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let mut plain_ns = Vec::new();
    let mut traced_ns = Vec::new();
    let mut traced = None;
    for round in 0..4 {
        let mut rec = Recorder::new(round % 2 == 1);
        let run = replay_once(plan, &mut rec)?;
        if round % 2 == 1 {
            traced_ns.push(run.score_loop_ns);
            traced = Some((rec, run));
        } else {
            plain_ns.push(run.score_loop_ns);
        }
    }
    let (rec, run) = traced.expect("two traced rounds ran");
    rec.write_jsonl(spans_path)
        .map_err(|e| format!("writing spans: {e}"))?;
    let st = self_times(&rec.spans);
    let mean_ns = |name: &str| {
        st.get(name)
            .map_or(0.0, |&(n, t)| ratio(t as f64, n as f64))
    };
    let mut out = BTreeMap::new();
    out.insert("protocol.decode_ns", mean_ns("protocol.decode"));
    out.insert("protocol.parse_ns", mean_ns("protocol.parse"));
    out.insert("protocol.render_ns", mean_ns("protocol.render"));
    out.insert("protocol.splice_ns", mean_ns("protocol.splice"));
    out.insert("cache.resp_get_ns", mean_ns("cache.resp_get"));
    out.insert("cache.score_get_all_ns", mean_ns("cache.score_get_all"));
    out.insert("snapshot.eligible_ns", mean_ns("snapshot.eligible"));
    out.insert("snapshot.rank_ns", mean_ns("snapshot.rank"));
    out.insert("router.ring_ns", mean_ns("router.ring"));
    let scorer_total = st.get("scorer.score_batch").map_or(0, |s| s.1) as f64;
    out.insert(
        "scorer.pair_ns",
        ratio(scorer_total, run.pairs_scored as f64),
    );
    out.insert("ingest.expander_ms", mean_ns("ingest.expander") / 1e6);
    out.insert("wal.append_us", mean_ns("wal.append") / 1e3);
    out.insert("wal.fsync_us", mean_ns("wal.fsync") / 1e3);
    let (plain, traced) = (median(&plain_ns), median(&traced_ns));
    out.insert("trace.overhead_pct", ratio(traced - plain, plain) * 100.0);
    Ok(out)
}

struct ReplayRun {
    pairs_scored: u64,
    /// Wall time of the score-request part of the replay.
    score_loop_ns: f64,
}

fn replay_once(plan: &ReplayPlan, rec: &mut Recorder) -> Result<ReplayRun, String> {
    let uni = plan.uni;
    let snap = Arc::clone(&uni.snapshot);
    let version = snap.version;
    let score_cache = ScoreCache::new(plan.score_cache_cap);
    let resp_cache = ResponseCache::new(plan.resp_cache_cap);
    let pool = taxo_expand::ScratchPool::new();
    let cfg = taxo_router::RouterConfig::default();
    let ring = taxo_router::HashRing::new(plan.shards.max(1), cfg.vnodes, cfg.ring_seed);
    let mut rng = conn_rng(plan.seed, 0);
    let mut decoder = FrameDecoder::new();
    let mut pending: Vec<Pending> = Vec::new();
    let mut pairs_scored = 0u64;
    let loop_start = std::time::Instant::now();

    for req in 1..=plan.requests as u64 {
        let q = plan.pop.draw(&mut rng);
        let root = rec.open("request", None, req);
        let line = &uni.lines[q];
        let frame = rec.time("protocol.decode", Some(root), req, || {
            decoder.push(line.as_bytes());
            decoder.push(b"\n");
            decoder.next_frame()
        });
        let frame = frame
            .map_err(|e| e.to_string())?
            .ok_or("replay: no frame decoded")?;
        let parsed = rec.time("protocol.parse", Some(root), req, || parse_request(&frame));
        let parsed = parsed.map_err(|e| format!("replay parse: {e}"))?;
        if !matches!(parsed, taxo_serve::Request::Score { .. }) {
            return Err("replay: score line parsed as another kind".into());
        }
        if plan.shards > 0 {
            rec.time("router.ring", Some(root), req, || {
                std::hint::black_box(ring.shard_for(&uni.terms[q]))
            });
        }
        let qid = uni.qids[q];
        let rkey = (version, Tier::F32, qid, K as u64);
        if let Some(tail) = rec.time("cache.resp_get", Some(root), req, || resp_cache.get(&rkey)) {
            let resp = rec.time("protocol.splice", Some(root), req, || {
                splice_response(None, &tail)
            });
            rec.close(root);
            check(uni, q, &resp)?;
            continue;
        }
        let items = rec.time("snapshot.eligible", Some(root), req, || {
            snap.eligible(qid, uni.max_candidates)
        });
        let mut cached = Vec::new();
        let all = rec.time("cache.score_get_all", Some(root), req, || {
            score_cache.get_all(version, Tier::F32, qid, &items, &mut cached)
        });
        if all {
            finish(rec, plan, &resp_cache, root, req, q, qid, &items, &cached)?;
            continue;
        }
        pending.push(Pending {
            req,
            root,
            qid,
            term: q,
            items,
        });
        // Requests not answered from a cache wait for a batch of the
        // size the server formed; the scoring call belongs to the batch,
        // not to one request, so it hangs off its own root span.
        if pending.len() >= plan.batch_jobs.max(1) || req == plan.requests as u64 {
            let mut jobs = Vec::with_capacity(pending.len());
            let mut rxs = Vec::with_capacity(pending.len());
            for p in &pending {
                let (sink, rx) = ScoreSink::channel();
                pairs_scored += p.items.len() as u64;
                jobs.push(ScoreJob {
                    snapshot: Arc::clone(&snap),
                    tier: Tier::F32,
                    query: p.qid,
                    items: p.items.clone(),
                    reply: sink,
                });
                rxs.push(rx);
            }
            let broot = rec.open("batch", None, req);
            rec.time("scorer.score_batch", Some(broot), req, || {
                taxo_serve::batch::score_batch(jobs, &pool, &score_cache)
            });
            rec.close(broot);
            for (p, rx) in std::mem::take(&mut pending).into_iter().zip(rxs) {
                let scores = rx.recv().map_err(|_| "replay: scorer dropped a job")?;
                finish(
                    rec,
                    plan,
                    &resp_cache,
                    p.root,
                    p.req,
                    p.term,
                    p.qid,
                    &p.items,
                    &scores,
                )?;
            }
        }
    }
    let score_loop_ns = loop_start.elapsed().as_nanos() as f64;

    // The update path: the WAL and the expander, on batch-sized
    // payloads, one span each.
    let vocab = &uni.vocab;
    let mut expander = taxo_expand::IncrementalExpander::restore(
        uni.expander.detector().clone(),
        uni.expander.expansion_config().clone(),
        uni.expander.state(),
    );
    std::fs::create_dir_all(&plan.work_dir).map_err(|e| e.to_string())?;
    let wal_path = plan.work_dir.join("replay-wal.log");
    let _ = std::fs::remove_file(&wal_path);
    let mut wal = taxo_wal::WalWriter::open(&wal_path).map_err(|e| e.to_string())?;
    for (i, batch) in plan.ingest_batches.iter().enumerate() {
        let req = plan.requests as u64 + 1 + i as u64;
        let root = rec.open("ingest", None, req);
        let wire: Vec<IngestRecord> = batch
            .iter()
            .map(|(query, item, count)| IngestRecord {
                query: query.clone(),
                item: item.clone(),
                count: *count,
            })
            .collect();
        let payload = taxo_serve::durable::encode_ingest_op(i as u64 + 1, &wire);
        rec.time("wal.append", Some(root), req, || {
            wal.append(payload.as_bytes())
        })
        .map_err(|e| e.to_string())?;
        rec.time("wal.fsync", Some(root), req, || wal.sync())
            .map_err(|e| e.to_string())?;
        let clicks: Vec<taxo_synth::ClickRecord> = batch
            .iter()
            .filter_map(|(query, item, count)| {
                Some(taxo_synth::ClickRecord {
                    query: vocab.get(query)?,
                    item_text: item.clone(),
                    count: *count,
                })
            })
            .collect();
        rec.time("ingest.expander", Some(root), req, || {
            expander.ingest(vocab, &clicks)
        });
        rec.close(root);
    }
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);
    Ok(ReplayRun {
        pairs_scored,
        score_loop_ns,
    })
}

/// Rank, render, cache and splice one request's reply, then check it.
#[allow(clippy::too_many_arguments)]
fn finish(
    rec: &mut Recorder,
    plan: &ReplayPlan,
    resp_cache: &ResponseCache,
    root: usize,
    req: u64,
    q: usize,
    qid: ConceptId,
    items: &[ConceptId],
    scores: &[f32],
) -> Result<(), String> {
    let uni = plan.uni;
    let snap = &uni.snapshot;
    let ranked = rec.time("snapshot.rank", Some(root), req, || {
        snap.rank(qid, items, scores, K)
    });
    let tail = rec.time("protocol.render", Some(root), req, || {
        score_response_tail(&uni.terms[q], snap.version, Tier::F32, &uni.vocab, &ranked)
    });
    let resp = rec.time("protocol.splice", Some(root), req, || {
        splice_response(None, &tail)
    });
    resp_cache.insert((snap.version, Tier::F32, qid, K as u64), tail.into());
    rec.close(root);
    check(uni, q, &resp)
}

fn check(uni: &Universe, q: usize, resp: &str) -> Result<(), String> {
    if resp == uni.expected[q] {
        Ok(())
    } else {
        Err(format!(
            "replayed reply for query #{q} differs from the offline replay"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxo_serve::json;

    #[test]
    fn stats_delta_differences_and_zero_denominators() {
        let before = json::parse(
            r#"{"counters":{"a":3},"histograms":{"h":{"count":2,"sum":10}},"spans":{"s":{"count":1,"total_ms":1.5}}}"#,
        )
        .unwrap();
        let after = json::parse(
            r#"{"counters":{"a":10,"b":4},"histograms":{"h":{"count":2,"sum":10},"g":{"count":4,"sum":8}},"spans":{"s":{"count":3,"total_ms":5.5}}}"#,
        )
        .unwrap();
        let d = StatsDelta::between(&before, &after);
        assert_eq!(d.counter("a"), 7.0);
        assert_eq!(d.counter("b"), 4.0);
        assert_eq!(d.counter("missing"), 0.0);
        // No batches in the window: the mean is 0, not NaN.
        assert_eq!(d.hist_mean("h"), 0.0);
        assert_eq!(d.hist_mean("g"), 2.0);
        assert_eq!(d.span_mean_ms("s"), 2.0);
        assert_eq!(d.span_mean_ms("missing"), 0.0);
        // Against a null "before", the delta is the absolute value.
        assert_eq!(StatsDelta::between(&Value::Null, &after).counter("a"), 10.0);
    }
}
