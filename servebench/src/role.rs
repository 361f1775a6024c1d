//! The server-side processes. The benchmark starts each server as a
//! separate process running one of these roles, so load generation and
//! serving never share an address space. Each role prints one
//! `listening <addr> key=value...` line on stdout once it answers, then
//! serves until a `shutdown` request arrives.

use crate::world::WORLD_SEED;
use std::io::Write;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;
use taxo_bench::{serving_expansion_config, serving_world};
use taxo_router::{Router, RouterConfig};
use taxo_serve::{DurabilityConfig, ServeConfig, Server};

/// `role-serve --addr A [--score-cache N] [--resp-cache N]
/// [--data-dir D [--recover [--rehearse COPY]...]]`: one taxo-serve shard
/// at its default [`ServeConfig`] apart from the named cache capacities.
///
/// With `--recover`, each `--rehearse` copy of the crashed directory is
/// recovered first and served on an ephemeral port until it is shut
/// down; then `D` itself is recovered and served on `A`. Every recovery
/// prints `recovering` right before `Server::recover` starts.
pub fn serve(args: &[String]) -> Result<(), String> {
    let mut addr = String::from("127.0.0.1:0");
    let mut cfg = ServeConfig::default();
    let mut data_dir: Option<std::path::PathBuf> = None;
    let mut recover = false;
    let mut rehearsals: Vec<std::path::PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--addr" => addr = val()?,
            "--score-cache" => cfg.score_cache_cap = num(&val()?)?,
            "--resp-cache" => cfg.resp_cache_cap = num(&val()?)?,
            "--data-dir" => data_dir = Some(val()?.into()),
            "--recover" => recover = true,
            "--rehearse" => rehearsals.push(val()?.into()),
            other => return Err(format!("unknown role-serve flag {other}")),
        }
    }

    // The same steps as `taxo_bench::serving_pipeline`, split so each
    // set-up phase is timed on its own.
    let t = Instant::now();
    let (world, log, ugc) = serving_world(WORLD_SEED);
    let world_ms = ms(t);
    let t = Instant::now();
    let trained = taxo_expand::TrainedPipeline::train(
        &world.existing,
        &world.vocab,
        &log.records,
        &ugc.sentences,
        &taxo_expand::PipelineConfig::tiny(WORLD_SEED),
    );
    let train_ms = ms(t);
    let expansion_cfg = serving_expansion_config();
    let expander = trained.into_expander(&world.existing, expansion_cfg.clone());
    let vocab = Arc::new(world.vocab);

    if recover {
        let dir = data_dir.ok_or("--recover needs --data-dir")?;
        let detector = expander.detector().clone();
        let targets = rehearsals
            .into_iter()
            .map(|d| (d, "127.0.0.1:0".to_owned()))
            .chain(std::iter::once((dir, addr)));
        for (dir, addr) in targets {
            // The recovery clock starts here: the world and detector
            // above are set-up a restarted process repeats, not recovery.
            say("recovering")?;
            let t = Instant::now();
            let (recovered, report) =
                Server::recover(&dir, detector.clone(), expansion_cfg.clone(), &vocab)
                    .map_err(|e| format!("recovering {}: {e}", dir.display()))?;
            let handle = Server::builder(recovered, Arc::clone(&vocab))
                .config(cfg.clone())
                .durability(DurabilityConfig::wal(dir))
                .recovered(&report)
                .bind(addr.as_str())
                .map_err(|e| format!("binding {addr}: {e}"))?;
            say(&format!(
                "listening {} bind_ms={:.3} replayed_records={}",
                handle.addr(),
                ms(t),
                report.replayed_records
            ))?;
            handle.join();
        }
        return Ok(());
    }

    let t = Instant::now();
    let mut builder = Server::builder(expander, vocab).config(cfg);
    if let Some(dir) = data_dir {
        builder = builder.durability(DurabilityConfig::wal(dir));
    }
    let handle = builder
        .bind(addr.as_str())
        .map_err(|e| format!("binding {addr}: {e}"))?;
    let bind_ms = ms(t);
    say(&format!(
        "listening {} world_ms={world_ms:.3} train_ms={train_ms:.3} bind_ms={bind_ms:.3} threads={}",
        handle.addr(),
        taxo_nn::parallel::threads()
    ))?;
    handle.join();
    Ok(())
}

/// One stdout line, flushed at once (the benchmark reads it as it comes).
fn say(line: &str) -> Result<(), String> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}")
        .and_then(|()| out.flush())
        .map_err(|e| e.to_string())
}

/// `role-router --shards A,B --addr A`: the consistent-hash router at its
/// default [`RouterConfig`].
pub fn router(args: &[String]) -> Result<(), String> {
    let mut addr = String::from("127.0.0.1:0");
    let mut shards: Vec<SocketAddr> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--addr" => addr = val()?,
            "--shards" => {
                shards = val()?
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("bad shard address {s:?}")))
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown role-router flag {other}")),
        }
    }
    let t = Instant::now();
    let handle = Router::builder(shards)
        .config(RouterConfig::default())
        .bind(addr.as_str())
        .map_err(|e| format!("binding router {addr}: {e}"))?;
    say(&format!("listening {} bind_ms={:.3}", handle.addr(), ms(t)))?;
    handle.join();
    Ok(())
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}
