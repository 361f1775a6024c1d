//! The three workloads: set-up, measured window(s), update phase,
//! crash recovery, and the metrics each run reports.

use crate::layers::{replay, ReplayPlan, StatsDelta};
use crate::load::{self, IngestPlan, LoadPlan, LoadResult};
use crate::proc::StealTimeline;
use crate::proc::{await_health, nproc, ServerProc};
use crate::sampler::{conn_rng, Popularity};
use crate::stats::{calm, calm_iq_mean, calm_median, median, quantile, quantile_with_tail, ratio};
use crate::world::{ingest_line, Universe, WORLD_SEED};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use taxo_serve::json::Value;
use taxo_serve::{Client, Reply, ServeConfig};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotZipf,
    ColdModel,
    RoutedIngest,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::HotZipf, Kind::ColdModel, Kind::RoutedIngest];

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotZipf => "hot-zipf",
            Kind::ColdModel => "cold-model",
            Kind::RoutedIngest => "routed-ingest",
        }
    }

    fn routed(self) -> bool {
        self == Kind::RoutedIngest
    }

    /// Cache capacities of the server (the rest of its config is the
    /// default). Capacity 0 is rejected by `ServeConfig::validate`, so
    /// the cold path uses 1.
    fn caches(self) -> (usize, usize) {
        let d = ServeConfig::default();
        match self {
            Kind::ColdModel => (1, 1),
            _ => (d.score_cache_cap, d.resp_cache_cap),
        }
    }
}

pub struct Opts {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// What the run ran on and which path it took, as a JSON object.
    pub context: String,
    /// Ungated figures (tails with their sample counts), one per line.
    pub diag: Vec<String>,
    /// Why the run is not correct, when it is not.
    pub problems: Vec<String>,
}

/// The measured window is served in `SEGMENTS` equal stretches, each by a
/// tier of its own: a server process keeps one speed for its whole life
/// (hot-zipf ran 90k–117k scores/s under one process and 122k–187k under
/// the next), so a run averages over several. Each tier's set-up is
/// timed, and `SETUPS_AFTER` more set-ups follow the window; `setup_s` is
/// the median of the calm ones (`stats::calm`).
const SEGMENTS: usize = 3;
const SETUPS_AFTER: usize = 2;
/// Crash recovery runs in `ROUNDS` rounds, `ROUND_PAUSE` apart, so that
/// a stretch of host interference covers some rounds rather than all of
/// them.
const ROUNDS: usize = 6;
const ROUND_PAUSE: Duration = Duration::from_millis(500);
/// Recoveries per round: rehearsals on copies of the crashed data
/// directory, and last of all the directory itself.
const RECOVERIES_PER_ROUND: usize = 6;
/// Untimed warm-up before the measured window. Long enough for caches
/// to fill and for the host to settle under full load (a CPU that sat
/// idle runs measurably slower for about the first second of load).
const WARMUP: Duration = Duration::from_millis(2000);
/// Pace of the routed-ingest write stream. Each ingest makes every
/// version-keyed cache cold; at this pace about 2 % of the replies miss
/// the response cache, so the gated p90 stays among the warm replies
/// instead of sitting on the edge between warm and cold ones.
const INGEST_GAP: Duration = Duration::from_millis(250);
/// Snapshot cadence of the default `DurabilityConfig`, in versions. The
/// number of ingests is kept off its multiples, so recovery always
/// replays a WAL tail.
const SNAPSHOT_EVERY: usize = 8;
/// The standalone workloads' update phase: after the window, the same
/// closed loop keeps reading (checked, not timed) while connection 0
/// sends `UPDATE_BATCHES` ingests `UPDATE_GAP` apart. Paced ingests
/// inside the window would halve hot-zipf's reads (measured: 50k instead
/// of 120k scores/s), and it is the read path that workload is for. On
/// an idle server instead, every ingest would wake the host's CPUs from
/// idle, and the acks would time the host's wake-up under contention.
const UPDATE_BATCHES: usize = 39;
const UPDATE_GAP: Duration = Duration::from_millis(50);
/// Slack after the last due ingest, for acks that fall behind the pace.
const UPDATE_SLACK: Duration = Duration::from_secs(1);
const _: () = assert!(!UPDATE_BATCHES.is_multiple_of(SNAPSHOT_EVERY));
/// Ingest batches the traced replay pushes through expander and WAL.
const REPLAY_INGESTS: usize = 8;
/// Router-versus-direct request pairs timed for `router.hop_us`.
const HOP_PAIRS: usize = 2000;

/// The server-side processes of one workload.
struct Tier {
    /// Shards first, router (if any) last.
    procs: Vec<ServerProc>,
    front: SocketAddr,
    data_dirs: Vec<PathBuf>,
    setup_s: f64,
    /// Launch and first `health` reply.
    setup_span: (Instant, Instant),
}

impl Tier {
    fn launch(kind: Kind, data_root: &Path, rep: usize) -> Result<Tier, String> {
        let shards = if kind.routed() { 2 } else { 1 };
        let data_dirs: Vec<PathBuf> = (0..shards)
            .map(|i| data_root.join(format!("rep{rep}-shard{i}")))
            .collect();
        // Shards start one after the other: started together they would
        // train on the same two cores and time each other's contention.
        let mut procs = Vec::with_capacity(shards + 1);
        for (i, dir) in data_dirs.iter().enumerate() {
            let args = serve_args(kind, "127.0.0.1:0", Some(dir));
            let p = ServerProc::launch(&format!("shard{i}"), "role-serve", &args, |_, _| {})?;
            await_health(p.addr, Duration::from_secs(60))?;
            procs.push(p);
        }
        let first = procs
            .iter()
            .map(|p| p.launched)
            .min()
            .expect("at least one shard");
        if kind.routed() {
            let list: Vec<String> = procs.iter().map(|p| p.addr.to_string()).collect();
            let args = vec![
                "--shards".to_owned(),
                list.join(","),
                "--addr".to_owned(),
                "127.0.0.1:0".to_owned(),
            ];
            procs.push(ServerProc::launch(
                "router",
                "role-router",
                &args,
                |_, _| {},
            )?);
        }
        let front = procs.last().expect("a front process").addr;
        let ready = await_health(front, Duration::from_secs(60))?;
        Ok(Tier {
            procs,
            front,
            data_dirs,
            setup_s: ready.duration_since(first).as_secs_f64(),
            setup_span: (first, ready),
        })
    }

    /// One throwaway set-up: launch, time, stop, clean up. Returns the
    /// set-up time and its span.
    fn setup_only(kind: Kind, data_root: &Path, rep: usize) -> Result<Timed, String> {
        let tier = Tier::launch(kind, data_root, rep)?;
        let timed = (tier.setup_s, tier.setup_span);
        let dirs = tier.data_dirs.clone();
        tier.stop()?;
        for d in dirs {
            let _ = std::fs::remove_dir_all(d);
        }
        Ok(timed)
    }

    /// Stops the front first (a router forwards the shutdown to its
    /// shards), then makes sure every process has exited.
    fn stop(mut self) -> Result<(), String> {
        let mut first_err = None;
        while let Some(p) = self.procs.pop() {
            if let Err(e) = p.shutdown() {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Arguments of a `role-serve` process for `kind`'s shards.
fn serve_args(kind: Kind, addr: &str, data_dir: Option<&Path>) -> Vec<String> {
    let (score_cap, resp_cap) = kind.caches();
    let mut args: Vec<String> = [
        "--addr",
        addr,
        "--score-cache",
        &score_cap.to_string(),
        "--resp-cache",
        &resp_cap.to_string(),
    ]
    .map(str::to_owned)
    .to_vec();
    if let Some(dir) = data_dir {
        args.push("--data-dir".to_owned());
        args.push(dir.display().to_string());
    }
    args
}

/// A timed sample and the span it was taken over.
type Timed = (f64, (Instant, Instant));

/// Removes the run's data directory however the run ends.
struct DataRoot(PathBuf);

impl Drop for DataRoot {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Everything a run measured, before it is turned into metrics. Each
/// timed sample comes with the host steal share around it.
struct Measured {
    /// Host steal share of each whole second of the window, and of the
    /// window as a whole.
    second_steal: Vec<f64>,
    window_steal: f64,
    setups: Vec<f64>,
    setup_steal: Vec<f64>,
    recoveries: Vec<f64>,
    recovery_steal: Vec<f64>,
    /// Timed ingest acks (ms): the paced ones in the window for
    /// routed-ingest, the update phase's for the standalone workloads.
    acks: Vec<f64>,
    ack_steal: Vec<f64>,
    /// The measured window.
    /// The measured window, one result per segment.
    windows: Vec<LoadResult>,
    /// `stats` delta around the last segment.
    delta: StatsDelta,
    /// `stats` delta around the writes: the last segment for routed-ingest,
    /// the update phase for the standalone workloads.
    writes: StatsDelta,
    /// `stats` of the recovered server (all its recoveries).
    recovered: StatsDelta,
    /// The standalone workloads' update phase.
    update: Option<LoadResult>,
    peak_rss_mb: f64,
    placement: Vec<String>,
    /// Figures from the first shard's `listening` line.
    shard_info: std::collections::BTreeMap<String, f64>,
    hop_us: f64,
    conns: usize,
}

impl Measured {
    /// The last segment: the one the per-layer `stats` deltas cover.
    fn last(&self) -> &LoadResult {
        self.windows.last().expect("at least one segment")
    }

    fn sum(&self, f: impl Fn(&load::ConnResult) -> u64 + Copy) -> u64 {
        self.windows.iter().map(|w| w.sum(f)).sum()
    }

    fn seconds(&self) -> Vec<load::Second> {
        self.windows.iter().flat_map(LoadResult::seconds).collect()
    }

    fn sorted_score_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .windows
            .iter()
            .flat_map(|w| w.sorted_score_ns())
            .collect();
        v.sort_unstable();
        v
    }

    fn elapsed_s(&self) -> f64 {
        self.windows.iter().map(|w| w.elapsed_s).sum()
    }

    fn info(&self, key: &str) -> f64 {
        self.shard_info.get(key).copied().unwrap_or(0.0)
    }
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let kind = opts.kind;
    let data_root =
        DataRoot(PathBuf::from(".servebench-data").join(std::process::id().to_string()));
    std::fs::create_dir_all(&data_root.0).map_err(|e| format!("creating data dir: {e}"))?;

    let t = Instant::now();
    let uni = Universe::build();
    let baseline_ms = t.elapsed().as_secs_f64() * 1e3;
    // Which query holds which popularity rank is part of the workload,
    // not of the seed: a seeded ranking would move the cost of the
    // hottest replies (their sizes differ) from seed to seed. The seed
    // shapes the request streams.
    let pop = match kind {
        Kind::ColdModel => Popularity::uniform(uni.qids.len()),
        _ => Popularity::zipf(uni.qids.len(), 1.1, WORLD_SEED),
    };
    // Batch i of a segment's paced stream is due at gap/2 + i*gap into it.
    let segment_s = opts.seconds / SEGMENTS as f64;
    let per_segment = if kind.routed() {
        let n = ((segment_s - INGEST_GAP.as_secs_f64() / 2.0) / INGEST_GAP.as_secs_f64()).floor()
            as usize
            + 1;
        n - usize::from(n.is_multiple_of(SNAPSHOT_EVERY))
    } else {
        0
    };
    let batches = uni.drift_batches(per_segment.max(UPDATE_BATCHES).max(REPLAY_INGESTS));
    let lines: Vec<String> = batches.iter().map(|b| ingest_line(b)).collect();

    let mut problems = Vec::new();
    let m = measure(
        opts,
        &uni,
        &pop,
        &lines,
        per_segment,
        &data_root.0,
        &mut problems,
    )?;

    // Correctness: every check the clients made, in the window and in the
    // update phase.
    let (mut attempted, mut failed) = (0, 0);
    for r in m.windows.iter().chain(&m.update) {
        let mism = r.sum(|c| c.mismatches) + r.cross_conn_purity_mismatches();
        if mism > 0 {
            let first = r.conns.iter().find_map(|c| c.first_mismatch.clone());
            problems.push(format!("{mism} reply mismatch(es); first: {first:?}"));
        }
        attempted += r.sum(|c| c.scores_ok + c.scores_failed + c.ingests_ok + c.ingests_failed);
        failed += r.sum(|c| c.scores_failed + c.ingests_failed);
    }
    if m.sum(|c| c.exact_checked) == 0 {
        problems.push("no reply was checked against the offline replay".into());
    }

    let metrics = if opts.trace {
        let replay_plan = ReplayPlan {
            uni: &uni,
            pop: &pop,
            seed: opts.seed,
            requests: if kind == Kind::ColdModel {
                2_000
            } else {
                20_000
            },
            score_cache_cap: kind.caches().0,
            resp_cache_cap: kind.caches().1,
            batch_jobs: m.delta.hist_mean("serve.batch.jobs").round().max(1.0) as usize,
            shards: if kind.routed() { 2 } else { 0 },
            ingest_batches: &batches[..REPLAY_INGESTS],
            work_dir: data_root.0.join("replay"),
        };
        let spans = PathBuf::from(".servebench-out").join(format!(
            "spans-{}-seed{}.jsonl",
            kind.name(),
            opts.seed
        ));
        let layer = replay(&replay_plan, &spans)?;
        per_layer(&m, &uni, &layer)
    } else {
        end_to_end(&m, attempted, failed)
    };

    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        context: context(opts, &m, &uni, &pop, baseline_ms),
        diag: diagnostics(&m),
        problems,
    })
}

/// Set-ups, the measured window, the update phase, the router hop (traced
/// routed runs) and crash recovery, in that order.
fn measure(
    opts: &Opts,
    uni: &Universe,
    pop: &Popularity,
    lines: &[String],
    per_segment: usize,
    data_root: &Path,
    problems: &mut Vec<String>,
) -> Result<Measured, String> {
    let kind = opts.kind;
    let timeline = StealTimeline::start()?;
    let conns = nproc().clamp(1, 2);
    let segment_s = opts.seconds / SEGMENTS as f64;
    let mut setups = Vec::with_capacity(SEGMENTS + SETUPS_AFTER);
    let mut windows = Vec::with_capacity(SEGMENTS);
    let mut seg = 0;
    // Each segment: set-up (timed), warm-up, measured stretch. Every tier
    // but the last is stopped after its stretch; the last one goes on to
    // the update phase and the crash.
    let (mut tier, plan) = loop {
        let tier = Tier::launch(kind, data_root, seg)?;
        setups.push((tier.setup_s, tier.setup_span));
        let plan = LoadPlan {
            uni,
            pop,
            seed: opts
                .seed
                .wrapping_mul(SEGMENTS as u64)
                .wrapping_add(seg as u64),
            conns,
            addr: tier.front,
            warmup: WARMUP,
            window: Duration::from_secs_f64(segment_s),
            ingest: kind.routed().then(|| IngestPlan {
                gap: INGEST_GAP,
                lines: lines[..per_segment].to_vec(),
            }),
            server_pids: tier.procs.iter().map(ServerProc::pid).collect(),
        };
        windows.push(load::run(&plan, tier.front)?);
        seg += 1;
        if seg == SEGMENTS {
            break (tier, plan);
        }
        let dirs = tier.data_dirs.clone();
        tier.stop()?;
        for d in dirs {
            let _ = std::fs::remove_dir_all(d);
        }
    };
    let shard_info = tier.procs[0].info.clone();
    let res = windows.last().expect("at least one segment");
    let delta = StatsDelta::between(&res.stats_before, &res.stats_after);

    // Update phase of the standalone workloads (see `UPDATE_BATCHES`).
    // routed-ingest took its writes inside the window.
    let update = if kind.routed() {
        None
    } else {
        Some(load::run(
            &LoadPlan {
                warmup: Duration::ZERO,
                window: UPDATE_GAP * UPDATE_BATCHES as u32 + UPDATE_SLACK,
                ingest: Some(IngestPlan {
                    gap: UPDATE_GAP,
                    lines: lines[..UPDATE_BATCHES].to_vec(),
                }),
                ..plan
            },
            tier.front,
        )?)
    };
    let writer = update.as_ref().unwrap_or(res);
    let writes = StatsDelta::between(&writer.stats_before, &writer.stats_after);
    let ingests = &writer.conns[0];
    let acks: Vec<Timed> = ingests
        .ingest_ns
        .iter()
        .zip(&ingests.ingest_at)
        .map(|(&ns, &at)| (ns as f64 / 1e6, (at, at + Duration::from_nanos(ns))))
        .collect();

    let hop_us = if opts.trace && kind.routed() {
        router_hop_us(&tier, uni, pop, opts.seed)?
    } else {
        0.0
    };

    let mut peak_rss_mb = 0.0;
    for p in &tier.procs {
        peak_rss_mb += p.peak_rss_mb()?;
    }
    let placement = tier
        .procs
        .iter()
        .map(|p| {
            format!(
                "{{\"name\":\"{}\",\"cpus\":\"{}\"}}",
                p.name,
                p.cpus_allowed()
            )
        })
        .collect();

    // Crash recovery: SIGKILL the last shard and restart it on its data
    // directory and address. Its version must be its last acked one.
    let last_acked = ingests.last_acked.clone();
    let victim_idx = tier.data_dirs.len() - 1;
    let victim = tier.procs.remove(victim_idx);
    let victim_addr = victim.addr;
    victim.kill();
    let acked = last_acked.as_ref().and_then(|v| v.get(victim_idx)).copied();
    let (recovered, recoveries) = recover(
        kind,
        &tier.data_dirs[victim_idx],
        victim_addr,
        acked,
        problems,
    )?;
    let recovered_stats = StatsDelta::between(&Value::Null, &load::fetch_stats(victim_addr)?);
    tier.procs.insert(victim_idx, recovered);
    tier.stop()?;
    for rep in 0..SETUPS_AFTER {
        setups.push(Tier::setup_only(kind, data_root, SEGMENTS + rep)?);
    }

    // Every sample's steal share, now that the timeline covers the seconds
    // after the last of them.
    let steal_of = |v: &[Timed]| -> (Vec<f64>, Vec<f64>) {
        v.iter()
            .map(|&(x, (a, b))| (x, timeline.share(a, b)))
            .unzip()
    };
    let (setups, setup_steal) = steal_of(&setups);
    let (recoveries, recovery_steal) = steal_of(&recoveries);
    let (acks, ack_steal) = steal_of(&acks);
    let second = Duration::from_secs(1);
    let second_steal = windows
        .iter()
        .flat_map(|w| {
            (0..w.seconds().len() as u32)
                .map(|s| timeline.share(w.start + second * s, w.start + second * (s + 1)))
                .collect::<Vec<_>>()
        })
        .collect();
    let window_steal = median(
        &windows
            .iter()
            .map(|w| timeline.share(w.start, w.start + Duration::from_secs_f64(w.elapsed_s)))
            .collect::<Vec<_>>(),
    );
    Ok(Measured {
        second_steal,
        window_steal,
        setups,
        setup_steal,
        recoveries,
        recovery_steal,
        acks,
        ack_steal,
        writes,
        update,
        windows,
        delta,
        recovered: recovered_stats,
        peak_rss_mb,
        placement,
        shard_info,
        hop_us,
        conns,
    })
}

/// The read figures of the window: the median, over its calm seconds
/// (`stats::calm`), of each second's throughput, p50 and p90. A stretch
/// of host interference moves a few seconds, not the median. A window
/// shorter than a second falls back to the window as a whole.
fn read_figures(m: &Measured) -> (f64, f64, f64) {
    let secs = m.seconds();
    let calm: Vec<usize> = calm(&m.second_steal)
        .into_iter()
        .filter(|&i| i < secs.len())
        .collect();
    if calm.is_empty() {
        let lat = m.sorted_score_ns();
        let us = |q: f64| quantile(&lat, q).unwrap_or(0) as f64 / 1e3;
        let rps = ratio(m.sum(|c| c.scores_ok) as f64, m.elapsed_s());
        return (rps, us(0.5), us(0.9));
    }
    let med = |f: &dyn Fn(&load::Second) -> f64| {
        median(&calm.iter().map(|&i| f(&secs[i])).collect::<Vec<_>>())
    };
    (
        med(&|s| s.rps),
        med(&|s| s.p50_ns as f64 / 1e3),
        med(&|s| s.p90_ns as f64 / 1e3),
    )
}

fn end_to_end(m: &Measured, attempted: u64, failed: u64) -> Vec<Metric> {
    let (rps, _, p90_us) = read_figures(m);
    vec![
        ("setup_s", calm_median(&m.setups, &m.setup_steal), "s"),
        ("score_rps", rps, "1/s"),
        ("score_p90_us", p90_us, "us"),
        ("peak_rss_mb", m.peak_rss_mb, "MB"),
        (
            "ok_frac",
            ratio((attempted - failed) as f64, attempted as f64),
            "ratio",
        ),
    ]
}

fn per_layer(
    m: &Measured,
    uni: &Universe,
    layer: &std::collections::BTreeMap<&'static str, f64>,
) -> Vec<Metric> {
    let (res, d, w, rec) = (m.last(), &m.delta, &m.writes, &m.recovered);
    let lay = |name: &str| layer.get(name).copied().unwrap_or(0.0);
    let scores_ok = res.sum(|c| c.scores_ok) as f64;
    let requests = res.sum(|c| c.scores_ok + c.scores_failed + c.ingests_ok + c.ingests_failed);
    let lat = res.sorted_score_ns();
    let mean_rtt_us = ratio(lat.iter().sum::<u64>() as f64, lat.len() as f64) / 1e3;
    let hit_ratio =
        |hits: &str, misses: &str| ratio(d.counter(hits), d.counter(hits) + d.counter(misses));
    vec![
        (
            "client.cpu_us_per_req",
            ratio(res.client_cpu_s * 1e6, requests as f64),
            "us",
        ),
        (
            "server.cpu_us_per_score",
            ratio(res.server_cpu_s.iter().sum::<f64>() * 1e6, scores_ok),
            "us",
        ),
        (
            "server.shed",
            d.counter("serve.shed.score")
                + d.counter("serve.shed.conn")
                + d.counter("serve.shed.ingest")
                + d.counter("serve.router.shed.conn"),
            "count",
        ),
        (
            "server.io_us",
            mean_rtt_us - d.span_mean_ms("serve.request.score") * 1e3,
            "us",
        ),
        ("protocol.decode_ns", lay("protocol.decode_ns"), "ns"),
        ("protocol.parse_ns", lay("protocol.parse_ns"), "ns"),
        ("protocol.render_ns", lay("protocol.render_ns"), "ns"),
        ("protocol.splice_ns", lay("protocol.splice_ns"), "ns"),
        (
            "cache.resp_hit_ratio",
            hit_ratio("serve.resp_cache.hits", "serve.resp_cache.misses"),
            "ratio",
        ),
        (
            "cache.score_hit_ratio",
            hit_ratio("serve.cache.hits", "serve.cache.misses"),
            "ratio",
        ),
        (
            "cache.fastpath_requests",
            d.counter("serve.score.cached_requests"),
            "count",
        ),
        (
            "cache.evictions",
            d.counter("serve.cache.evictions") + d.counter("serve.resp_cache.evictions"),
            "count",
        ),
        ("cache.resp_get_ns", lay("cache.resp_get_ns"), "ns"),
        (
            "cache.score_get_all_ns",
            lay("cache.score_get_all_ns"),
            "ns",
        ),
        ("batch.jobs_mean", d.hist_mean("serve.batch.jobs"), "jobs"),
        (
            "batch.pairs_mean",
            d.hist_mean("serve.batch.pairs"),
            "pairs",
        ),
        (
            "batch.dedupe_ratio",
            ratio(
                d.hist_sum("serve.batch.unique_pairs"),
                d.hist_sum("serve.batch.pairs"),
            ),
            "ratio",
        ),
        (
            "batch.busy_share",
            ratio(d.span_total_ms("serve.batch"), res.elapsed_s * 1e3),
            "ratio",
        ),
        ("scorer.pair_ns", lay("scorer.pair_ns"), "ns"),
        (
            "scorer.pairs_scored",
            d.counter("serve.cache.misses"),
            "count",
        ),
        (
            "nn.par_map_calls_per_batch",
            ratio(
                d.counter("nn.parallel.par_map_calls"),
                d.hist_count("serve.batch.jobs"),
            ),
            "calls",
        ),
        ("snapshot.eligible_ns", lay("snapshot.eligible_ns"), "ns"),
        ("snapshot.rank_ns", lay("snapshot.rank_ns"), "ns"),
        (
            "snapshot.rebuild_ms",
            w.span_mean_ms("serve.ingest.rebuild"),
            "ms",
        ),
        ("snapshot.swaps", w.counter("serve.snapshot.swaps"), "count"),
        (
            "ingest.apply_ms",
            w.span_mean_ms("serve.ingest.apply"),
            "ms",
        ),
        (
            "ingest.matched_ratio",
            ratio(
                w.counter("serve.ingest.records_matched"),
                w.counter("serve.ingest.records_offered"),
            ),
            "ratio",
        ),
        ("ingest.expander_ms", lay("ingest.expander_ms"), "ms"),
        (
            "ingest.ack_p50_ms",
            calm_median(&m.acks, &m.ack_steal),
            "ms",
        ),
        ("wal.appends", w.counter("serve.wal.appends"), "count"),
        ("wal.fsyncs", w.counter("serve.wal.fsyncs"), "count"),
        (
            "wal.group_ops_mean",
            w.hist_mean("serve.wal.group_ops"),
            "ops",
        ),
        ("wal.bytes", w.counter("serve.wal.bytes"), "bytes"),
        ("wal.append_us", lay("wal.append_us"), "us"),
        ("wal.fsync_us", lay("wal.fsync_us"), "us"),
        (
            "recovery.replayed_records",
            ratio(
                rec.counter("serve.recovery.replayed_records"),
                rec.span_count("serve.recovery"),
            ),
            "count",
        ),
        ("recovery.ms", rec.span_mean_ms("serve.recovery"), "ms"),
        (
            "recovery.recover_ms",
            calm_iq_mean(&m.recoveries, &m.recovery_steal) * 1e3,
            "ms",
        ),
        // The closing `stats` call is itself one fan-out.
        (
            "router.fanout",
            (d.counter("serve.router.fanout") - 1.0).max(0.0),
            "count",
        ),
        (
            "router.retries",
            d.counter("serve.router.shard_retries")
                + d.counter("serve.router.stale_epoch")
                + d.counter("serve.router.upstream_reconnects"),
            "count",
        ),
        ("router.ring_ns", lay("router.ring_ns"), "ns"),
        ("router.hop_us", m.hop_us, "us"),
        ("setup.world_ms", m.info("world_ms"), "ms"),
        ("setup.train_ms", m.info("train_ms"), "ms"),
        ("setup.snapshot_ms", uni.snapshot_build_ms, "ms"),
        ("setup.bind_ms", m.info("bind_ms"), "ms"),
        ("trace.overhead_pct", lay("trace.overhead_pct"), "%"),
    ]
}

/// Ungated figures: score tails with their sample counts, the ingest-ack
/// p90, the throughput timeline and the raw set-up and recovery samples.
fn diagnostics(m: &Measured) -> Vec<String> {
    let lat = m.sorted_score_ns();
    let secs = m.seconds();
    let (_, p50_us, _) = read_figures(m);
    let mut diag = vec![format!(
        "score_p50 = {p50_us:.3} us (median over the calm seconds; ungated, see the README)"
    )];
    diag.push(format!(
        "whole window: {:.1} scores/s; score deciles (us): {:?}",
        ratio(m.sum(|c| c.scores_ok) as f64, m.elapsed_s()),
        (1..10)
            .map(|d| quantile(&lat, d as f64 / 10.0).unwrap_or(0) as f64 / 1e3)
            .collect::<Vec<_>>()
    ));
    for q in [0.99, 0.999, 1.0] {
        if let Some(t) = quantile_with_tail(&lat, q) {
            diag.push(format!(
                "score_p{} = {:.3} us ({} samples, {} beyond)",
                q * 100.0,
                t.value as f64 / 1e3,
                t.samples,
                t.beyond
            ));
        }
    }
    let ack_ns: Vec<u64> = m.acks.iter().map(|&ms| (ms * 1e6) as u64).collect();
    if let Some(t) = quantile_with_tail(&sorted(&ack_ns), 0.9) {
        diag.push(format!(
            "ingest_ack_p90 = {:.3} ms ({} samples, {} beyond)",
            t.value as f64 / 1e6,
            t.samples,
            t.beyond
        ));
    }
    let per_sec = |f: &dyn Fn(&load::Second) -> f64| -> Vec<f64> {
        secs.iter().map(|s| (f(s) * 10.0).round() / 10.0).collect()
    };
    diag.push(format!("read rps per second: {:?}", per_sec(&|s| s.rps)));
    diag.push(format!(
        "p90 (us) per second: {:?}",
        per_sec(&|s| s.p90_ns as f64 / 1e3)
    ));
    diag.push(format!(
        "host steal % per second: {:?}",
        m.second_steal
            .iter()
            .map(|x| (x * 1000.0).round() / 10.0)
            .collect::<Vec<_>>()
    ));
    diag.push(format!(
        "seconds taken for the read figures: {:?} of {}",
        calm(&m.second_steal),
        secs.len()
    ));
    let blocked: u64 = m.sum(|c| c.blocked_ns.iter().sum());
    diag.push(format!(
        "untimed share of the window (ingests, reconnects): {:.2} %",
        ratio(blocked as f64 / 1e9, m.elapsed_s() * m.conns as f64) * 100.0
    ));
    // Each sample with the host steal share (%) it ran under.
    let tagged = |v: &[f64], scale: f64, steal: &[f64]| -> Vec<String> {
        v.iter()
            .zip(steal)
            .map(|(x, st)| format!("{:.2}@{:.1}", x * scale, st * 100.0))
            .collect()
    };
    diag.push(format!(
        "setup_s (ms@steal%) {:?}",
        tagged(&m.setups, 1e3, &m.setup_steal)
    ));
    diag.push(format!(
        "recover_s (ms@steal%) {:?}",
        tagged(&m.recoveries, 1e3, &m.recovery_steal)
    ));
    diag.push(format!(
        "ingest acks (ms@steal%) {:?}",
        tagged(&m.acks, 1.0, &m.ack_steal)
    ));
    diag.push(format!(
        "versions served {:?}; {} replies exact-checked, {} purity-checked",
        m.windows
            .iter()
            .map(|w| w.conns.iter().map(|c| c.versions).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
        m.sum(|c| c.exact_checked),
        m.sum(|c| c.purity_checked)
    ));
    diag
}

/// What the run ran on and which path it took, as one JSON object.
fn context(
    opts: &Opts,
    m: &Measured,
    uni: &Universe,
    pop: &Popularity,
    baseline_ms: f64,
) -> String {
    let d = &m.delta;
    let hit_ratio =
        |hits: &str, misses: &str| ratio(d.counter(hits), d.counter(hits) + d.counter(misses));
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"warmup_s\":{},\
         \"nproc\":{},\"connections\":{},\"loop\":\"closed\",\
         \"generator\":{{\"pid\":{},\"cpus\":\"{}\"}},\"servers\":[{}],\
         \"server_config\":{},\"compute_threads\":{},\"durability\":\"wal\",\
         \"world_seed\":{WORLD_SEED},\"queries\":{},\"popularity\":\"{}\",\
         \"ingest_gap_ms\":{},\"ingest_batches\":{},\"ingest_records_mean\":{:.1},\
         \"resp_hit_ratio\":{:.4},\"score_hit_ratio\":{:.4},\"batch_jobs_mean\":{:.3},\
         \"scores\":{},\"elapsed_s\":{:.4},\"host_steal_share\":{:.4},\"baseline_ms\":{baseline_ms:.1}}}",
        opts.kind.name(),
        opts.seed,
        opts.trace,
        opts.seconds,
        WARMUP.as_secs_f64(),
        nproc(),
        m.conns,
        std::process::id(),
        crate::proc::self_cpus_allowed(),
        m.placement.join(","),
        server_config(opts.kind),
        m.info("threads"),
        uni.qids.len(),
        pop.describe(),
        if opts.kind.routed() { INGEST_GAP.as_millis() } else { 0 },
        m.acks.len(),
        m.writes.counter("serve.ingest.records_offered") / m.acks.len().max(1) as f64,
        hit_ratio("serve.resp_cache.hits", "serve.resp_cache.misses"),
        hit_ratio("serve.cache.hits", "serve.cache.misses"),
        d.hist_mean("serve.batch.jobs"),
        m.sum(|c| c.scores_ok),
        m.elapsed_s(),
        m.window_steal,
    )
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

/// Restarts the SIGKILLed server on its data directory: first on copies
/// of it (each served on its own port, checked, shut down), then on the
/// directory itself at `addr`, where it keeps serving. The recoveries
/// run in `ROUNDS` rounds `ROUND_PAUSE` apart. Each is timed from
/// `Server::recover` starting to the first `health` reply, and must come
/// back at the last acked version.
fn recover(
    kind: Kind,
    dir: &Path,
    addr: SocketAddr,
    acked: Option<u64>,
    problems: &mut Vec<String>,
) -> Result<(ServerProc, Vec<Timed>), String> {
    let total = ROUNDS * RECOVERIES_PER_ROUND;
    let mut args = serve_args(kind, &addr.to_string(), Some(dir));
    args.push("--recover".to_owned());
    for i in 0..total - 1 {
        let copy = dir.with_extension(format!("copy{i}"));
        copy_dir(dir, &copy)?;
        args.push("--rehearse".to_owned());
        args.push(copy.display().to_string());
    }
    let mut started: Option<Instant> = None;
    let mut p = ServerProc::launch("recovered", "role-serve", &args, note(&mut started))?;
    let mut times = Vec::with_capacity(total);
    for i in 0..total {
        if i > 0 {
            p.next_listening(note(&mut started))?;
        }
        let healthy = await_health(p.addr, Duration::from_secs(60))?;
        let t0 = started.take().ok_or("recovery never reported starting")?;
        times.push((healthy.duration_since(t0).as_secs_f64(), (t0, healthy)));
        let version = shard_version(p.addr)?;
        if acked != Some(version) {
            problems.push(format!(
                "recovery {i} serves version {version}, last acked {acked:?}"
            ));
        }
        if i + 1 < total {
            if i % RECOVERIES_PER_ROUND == RECOVERIES_PER_ROUND - 1 {
                // The round's last rehearsal keeps the process serving
                // (idle) through the pause.
                std::thread::sleep(ROUND_PAUSE);
            }
            let mut c = load::connect(p.addr)?;
            let _ = c.shutdown();
        }
    }
    if p.addr != addr {
        return Err(format!(
            "recovered server bound {} instead of {addr}",
            p.addr
        ));
    }
    Ok((p, times))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("reading {}: {e}", from.display()))?;
    for e in entries {
        let e = e.map_err(|e| e.to_string())?;
        if e.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name()))
                .map_err(|err| format!("copying {}: {err}", e.path().display()))?;
        }
    }
    Ok(())
}

/// The server's `ServeConfig`, as a JSON string.
fn server_config(kind: Kind) -> String {
    let (score_cache_cap, resp_cache_cap) = kind.caches();
    let cfg = ServeConfig {
        score_cache_cap,
        resp_cache_cap,
        ..ServeConfig::default()
    };
    let mut out = String::new();
    taxo_serve::json::encode_str(&format!("{cfg:?}"), &mut out);
    out
}

/// A stdout watcher that notes when the next recovery starts.
fn note(started: &mut Option<Instant>) -> impl FnMut(&str, Instant) + '_ {
    move |line, at| {
        if line == "recovering" {
            *started = Some(at);
        }
    }
}

/// The snapshot version a server reports in `health`.
fn shard_version(addr: SocketAddr) -> Result<u64, String> {
    let mut c = load::connect(addr)?;
    match c.health() {
        Ok(Reply::Ok(v)) => v
            .get("version")
            .and_then(Value::as_u64)
            .ok_or(format!("health of {addr} has no version")),
        other => Err(format!("health of {addr}: {other:?}")),
    }
}

/// Mean extra round trip the router adds: the same query sent through
/// the router and straight to a shard, alternately. The direct target is
/// a fresh probe shard no router holds connections to (the tier's own
/// shards have every blocking worker pinned by the router's upstream
/// connections, so a direct client there waits for a free worker).
/// Both paths are warmed over every query first, so both answer from
/// their response caches.
fn router_hop_us(tier: &Tier, uni: &Universe, pop: &Popularity, seed: u64) -> Result<f64, String> {
    let args = serve_args(Kind::RoutedIngest, "127.0.0.1:0", None);
    let probe = ServerProc::launch("probe", "role-serve", &args, |_, _| {})?;
    let mut paths = [load::connect(tier.front)?, load::connect(probe.addr)?];
    let call = |c: &mut Client, q: usize| -> Result<u128, String> {
        let t = Instant::now();
        let raw = c
            .call_raw(&uni.lines[q])
            .map_err(|e| format!("hop request: {e}"))?;
        let ns = t.elapsed().as_nanos();
        if !raw.contains("\"ok\":true") {
            return Err(format!("hop request failed: {raw}"));
        }
        Ok(ns)
    };
    for q in 0..uni.lines.len() {
        for c in paths.iter_mut() {
            call(c, q)?;
        }
    }
    let mut rng = conn_rng(seed, 99);
    let mut total = [0u128; 2];
    for _ in 0..HOP_PAIRS {
        let q = pop.draw(&mut rng);
        for (c, t) in paths.iter_mut().zip(total.iter_mut()) {
            *t += call(c, q)?;
        }
    }
    probe.shutdown()?;
    Ok((total[0] as f64 - total[1] as f64) / HOP_PAIRS as f64 / 1e3)
}
