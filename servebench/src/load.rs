//! The closed-loop load generator: `conns` client threads, one
//! connection each, every reply checked, every request timed exactly.

use crate::sampler::{conn_rng, Popularity, Xorshift};
use crate::world::Universe;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use taxo_serve::json::{self, Value};
use taxo_serve::{candidate_key, Client};

/// Longest wait for one reply before the request counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a client connection lives in the measured window.
const RECONNECT: Duration = Duration::from_millis(500);

/// Ingest stream riding on connection 0: batch `i` is due at
/// `t0 + gap / 2 + i * gap`; it is sent as soon as the request in flight
/// at that moment returns.
pub struct IngestPlan {
    pub gap: Duration,
    pub lines: Vec<String>,
}

pub struct LoadPlan<'a> {
    pub uni: &'a Universe,
    pub pop: &'a Popularity,
    pub seed: u64,
    pub conns: usize,
    pub addr: SocketAddr,
    pub warmup: Duration,
    pub window: Duration,
    pub ingest: Option<IngestPlan>,
    /// Server-side processes whose CPU time is read at the window edges.
    pub server_pids: Vec<u32>,
}

#[derive(Default)]
pub struct ConnResult {
    pub score_ns: Vec<u32>,
    pub scores_ok: u64,
    pub scores_failed: u64,
    pub exact_checked: u64,
    pub purity_checked: u64,
    pub mismatches: u64,
    pub first_mismatch: Option<String>,
    /// First reply seen per `(query, version > 0)`.
    pub purity: HashMap<(usize, u64), String>,
    pub versions: Option<(u64, u64)>,
    pub ingest_ns: Vec<u64>,
    /// When each timed ingest was sent.
    pub ingest_at: Vec<Instant>,
    pub ingests_ok: u64,
    pub ingests_failed: u64,
    /// Per-shard versions of the last acked ingest (one entry for a
    /// standalone server).
    pub last_acked: Option<Vec<u64>>,
    pub end: Option<Instant>,
    /// `score_ns.len()` at the start of each whole second of the window,
    /// and once more at its end: second `s` holds the samples
    /// `marks[s]..marks[s + 1]`.
    pub marks: Vec<usize>,
    /// Per whole second, the time this connection spent on anything but
    /// timed score requests (ingests, reconnects).
    pub blocked_ns: Vec<u64>,
}

/// The figures of one whole second of the measured window.
pub struct Second {
    /// Each connection's successful scores over the part of the second it
    /// spent on score requests, summed over connections: the read
    /// throughput, whatever the ingests riding on connection 0 cost.
    pub rps: f64,
    pub p50_ns: u64,
    pub p90_ns: u64,
}

pub struct LoadResult {
    pub conns: Vec<ConnResult>,
    pub elapsed_s: f64,
    pub client_cpu_s: f64,
    /// CPU seconds each of `server_pids` used during the window.
    pub server_cpu_s: Vec<f64>,
    /// Start of the measured window.
    pub start: Instant,
    pub stats_before: Value,
    pub stats_after: Value,
}

impl LoadResult {
    pub fn sum(&self, f: impl Fn(&ConnResult) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }

    /// Every successful score's round trip, ascending.
    pub fn sorted_score_ns(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .conns
            .iter()
            .flat_map(|c| c.score_ns.iter().map(|&x| u64::from(x)))
            .collect();
        v.sort_unstable();
        v
    }

    /// The window's whole seconds, each with its own throughput and
    /// quantiles.
    pub fn seconds(&self) -> Vec<Second> {
        let n = self
            .conns
            .iter()
            .map(|c| c.marks.len().saturating_sub(1))
            .min()
            .unwrap_or(0);
        (0..n)
            .map(|s| {
                let mut lat = Vec::new();
                let mut rps = 0.0;
                for c in &self.conns {
                    let part = &c.score_ns[c.marks[s]..c.marks[s + 1]];
                    lat.extend(part.iter().map(|&x| u64::from(x)));
                    let reading_s = 1.0 - c.blocked_ns[s] as f64 / 1e9;
                    rps += crate::stats::ratio(part.len() as f64, reading_s);
                }
                lat.sort_unstable();
                Second {
                    rps,
                    p50_ns: crate::stats::quantile(&lat, 0.5).unwrap_or(0),
                    p90_ns: crate::stats::quantile(&lat, 0.9).unwrap_or(0),
                }
            })
            .collect()
    }

    /// Purity across connections: a `(query, version)` answered on two
    /// connections must have produced the same bytes on both.
    pub fn cross_conn_purity_mismatches(&self) -> u64 {
        let mut seen: HashMap<(usize, u64), &str> = HashMap::new();
        let mut bad = 0;
        for c in &self.conns {
            for (k, v) in &c.purity {
                match seen.get(k) {
                    Some(prev) if *prev != v.as_str() => bad += 1,
                    Some(_) => {}
                    None => {
                        seen.insert(*k, v);
                    }
                }
            }
        }
        bad
    }
}

/// Runs warm-up then the measured window; `stats` is fetched from
/// `stats_addr` right before and right after the window.
pub fn run(plan: &LoadPlan, stats_addr: SocketAddr) -> Result<LoadResult, String> {
    let barrier = Barrier::new(plan.conns + 1);
    let go = Barrier::new(plan.conns + 1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..plan.conns)
            .map(|conn| {
                let (barrier, go) = (&barrier, &go);
                scope.spawn(move || conn_loop(plan, conn, barrier, go))
            })
            .collect();
        barrier.wait();
        let before = fetch_stats(stats_addr);
        let cpu0 = crate::proc::self_cpu_s();
        let srv0: Vec<_> = plan
            .server_pids
            .iter()
            .map(|&p| crate::proc::pid_cpu_s(p))
            .collect();
        let t0 = Instant::now();
        go.wait();
        let mut conns = Vec::new();
        for h in handles {
            conns.push(
                h.join()
                    .map_err(|_| "client thread panicked".to_owned())??,
            );
        }
        let cpu1 = crate::proc::self_cpu_s();
        let srv1: Vec<_> = plan
            .server_pids
            .iter()
            .map(|&p| crate::proc::pid_cpu_s(p))
            .collect();
        let server_cpu_s = srv0
            .into_iter()
            .zip(srv1)
            .map(|(a, b)| Ok(b? - a?))
            .collect::<Result<Vec<f64>, String>>()?;
        let end = conns.iter().filter_map(|c| c.end).max().unwrap_or(t0);
        let stats_before = before?;
        let stats_after = fetch_stats(stats_addr)?;
        Ok(LoadResult {
            conns,
            elapsed_s: end.duration_since(t0).as_secs_f64(),
            client_cpu_s: cpu1? - cpu0?,
            server_cpu_s,
            start: t0,
            stats_before,
            stats_after,
        })
    })
}

/// Connects now, not lazily inside the first (timed) request, with a
/// read timeout, so a server that stops answering fails the run instead
/// of hanging it.
pub fn connect(addr: SocketAddr) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    c.set_read_timeout(Some(READ_TIMEOUT))
        .map_err(|e| format!("{addr}: {e}"))?;
    Ok(c)
}

/// Runs the untimed warm-up on a fresh connection: the workload's own
/// stream, every reply checked but none counted.
fn warm_up(plan: &LoadPlan, conn: usize) -> Result<(Client, Xorshift), String> {
    let mut client = connect(plan.addr)?;
    let mut rng = conn_rng(plan.seed, conn);
    let warm_end = Instant::now() + plan.warmup;
    while Instant::now() < warm_end {
        let q = plan.pop.draw(&mut rng);
        let mut warm = ConnResult::default();
        let t = Instant::now();
        let reply = client.call_raw(&plan.uni.lines[q]);
        check_score(plan.uni, q, reply, t, &mut warm);
        if warm.mismatches > 0 {
            return Err(format!(
                "conn {conn}: warm-up reply mismatch: {}",
                warm.first_mismatch.unwrap_or_default()
            ));
        }
    }
    Ok((client, rng))
}

pub fn fetch_stats(addr: SocketAddr) -> Result<Value, String> {
    let mut c = connect(addr)?;
    let raw = c
        .call_raw("{\"kind\":\"stats\"}")
        .map_err(|e| format!("stats {addr}: {e}"))?;
    json::parse(&raw).map_err(|e| format!("stats reply from {addr}: {e}"))
}

fn conn_loop(
    plan: &LoadPlan,
    conn: usize,
    barrier: &Barrier,
    go: &Barrier,
) -> Result<ConnResult, String> {
    let uni = plan.uni;
    // Every thread reaches both barriers, even when its warm-up failed,
    // so a failure ends the run instead of hanging it.
    let warm = warm_up(plan, conn);
    barrier.wait();
    go.wait();
    let (mut client, mut rng) = warm?;
    let mut res = ConnResult::default();
    let t0 = Instant::now();
    let deadline = t0 + plan.window;
    let whole = plan.window.as_secs() as usize;
    res.marks.reserve(whole + 1);
    res.blocked_ns = vec![0; whole];
    let cap = (plan.window.as_secs_f64() * 50_000.0) as usize;
    res.score_ns.reserve(cap.min(4 << 20));
    let mut next_ingest = 0usize;
    // Connections are replaced every RECONNECT (staggered across
    // connections, outside any timed request): the server hands each new
    // connection to a worker thread afresh, so a run averages over
    // thread placements instead of keeping the one it happened to start
    // with for its whole length.
    let mut next_reconnect = t0 + RECONNECT.mul_f64((conn + 1) as f64 / plan.conns as f64);
    loop {
        let now = Instant::now();
        if now >= deadline {
            break;
        }
        let sec = now.duration_since(t0).as_secs() as usize;
        while res.marks.len() <= sec.min(whole) {
            res.marks.push(res.score_ns.len());
        }
        if now >= next_reconnect {
            // The new connection's first request waits for the server to
            // accept it (a polled accept loop), so that request is an
            // untimed `health` probe.
            client = connect(plan.addr)?;
            client
                .health()
                .map_err(|e| format!("conn {conn}: health after reconnect: {e}"))?;
            next_reconnect += RECONNECT;
            block(&mut res, sec, now);
            continue;
        }
        if let (0, Some(ing)) = (conn, &plan.ingest) {
            let due = t0 + ing.gap / 2 + ing.gap * next_ingest as u32;
            if next_ingest < ing.lines.len() && now >= due && due < deadline {
                send_ingest(&mut client, &ing.lines[next_ingest], &mut res);
                next_ingest += 1;
                block(&mut res, sec, now);
                continue;
            }
        }
        let q = plan.pop.draw(&mut rng);
        let t = Instant::now();
        let reply = client.call_raw(&uni.lines[q]);
        check_score(uni, q, reply, t, &mut res);
    }
    while res.marks.len() <= whole {
        res.marks.push(res.score_ns.len());
    }
    res.end = Some(Instant::now());
    Ok(res)
}

/// Books the untimed work that started at `since`, in second `sec`, as
/// time the connection did not spend reading.
fn block(res: &mut ConnResult, sec: usize, since: Instant) {
    if let Some(b) = res.blocked_ns.get_mut(sec) {
        *b += since.elapsed().as_nanos() as u64;
    }
}

/// Times, checks and tallies one score reply. Version 0 must equal the
/// offline replay byte for byte (or, if the bytes are framed differently,
/// candidate for candidate with bit-equal scores); a later version is
/// held to purity.
fn check_score(
    uni: &Universe,
    q: usize,
    reply: std::io::Result<String>,
    t: Instant,
    res: &mut ConnResult,
) {
    let raw = match reply {
        Ok(raw) => raw,
        Err(_) => {
            res.scores_failed += 1;
            return;
        }
    };
    let ns = t.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32;
    if raw == uni.expected[q] {
        res.score_ns.push(ns);
        res.scores_ok += 1;
        res.exact_checked += 1;
        note_version(res, 0);
        return;
    }
    let Ok(v) = json::parse(&raw) else {
        mismatch(res, q, &raw);
        return;
    };
    if !matches!(v.get("ok"), Some(Value::Bool(true))) {
        // busy, errors: failures, not mismatches.
        res.scores_failed += 1;
        return;
    }
    res.score_ns.push(ns);
    res.scores_ok += 1;
    let Some(version) = v.get("version").and_then(Value::as_u64) else {
        mismatch(res, q, &raw);
        return;
    };
    note_version(res, version);
    if version == 0 {
        res.exact_checked += 1;
        let expected = json::parse(&uni.expected[q]).ok();
        if expected.as_ref().and_then(candidate_key) != candidate_key(&v) {
            mismatch(res, q, &raw);
        }
        return;
    }
    res.purity_checked += 1;
    // Purity compares the candidate list only: routers may re-frame the
    // envelope, never the content.
    let key = format!("{:?}", candidate_key(&v));
    match res.purity.get(&(q, version)) {
        Some(prev) if *prev != key => mismatch(res, q, &raw),
        Some(_) => {}
        None => {
            res.purity.insert((q, version), key);
        }
    }
}

fn note_version(res: &mut ConnResult, v: u64) {
    res.versions = Some(match res.versions {
        Some((lo, hi)) => (lo.min(v), hi.max(v)),
        None => (v, v),
    });
}

fn mismatch(res: &mut ConnResult, q: usize, raw: &str) {
    res.mismatches += 1;
    if res.first_mismatch.is_none() {
        res.first_mismatch = Some(format!(
            "query #{q}: {}",
            raw.chars().take(300).collect::<String>()
        ));
    }
}

pub fn send_ingest(client: &mut Client, line: &str, res: &mut ConnResult) {
    let t = Instant::now();
    let reply = client.call_raw(line);
    let ns = t.elapsed().as_nanos() as u64;
    let v = reply.ok().and_then(|raw| json::parse(&raw).ok());
    let versions = v
        .as_ref()
        .filter(|v| matches!(v.get("ok"), Some(Value::Bool(true))))
        .and_then(|v| match v.get("versions").and_then(Value::items) {
            Some(vs) => vs.iter().map(Value::as_u64).collect::<Option<Vec<u64>>>(),
            None => v.get("version").and_then(Value::as_u64).map(|x| vec![x]),
        });
    match versions {
        Some(vs) => {
            res.ingest_ns.push(ns);
            res.ingest_at.push(t);
            res.ingests_ok += 1;
            res.last_acked = Some(vs);
        }
        None => res.ingests_failed += 1,
    }
}
