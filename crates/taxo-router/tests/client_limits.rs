//! The router's client side holds the shard's connection limits: an
//! unterminated line is capped at `MAX_FRAME` bytes (answered with
//! `bad_request`, then closed), and a silent connection is closed after
//! `RouterConfig::idle_timeout`, so it cannot pin a worker forever.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use taxo_core::json::{self, Value};
use taxo_expand::{
    DetectorConfig, ExpansionConfig, HypoDetector, IncrementalExpander, RelationalConfig,
    RelationalModel,
};
use taxo_router::{Router, RouterConfig, RouterHandle};
use taxo_serve::{ServerHandle, MAX_FRAME};
use taxo_synth::{World, WorldConfig};

/// The router counters are process-global: tests that read deltas must
/// not overlap.
fn test_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One shard (an untrained detector over a tiny world) behind a router.
fn fleet(cfg: RouterConfig) -> (ServerHandle, RouterHandle) {
    let seed = 71;
    let world = World::generate(&WorldConfig {
        target_nodes: 60,
        ..WorldConfig::tiny(seed)
    });
    let relational = RelationalModel::vanilla(&world.vocab, &[], &RelationalConfig::tiny(seed));
    let detector = HypoDetector::new(Some(relational), None, &DetectorConfig::tiny(seed));
    let expansion = ExpansionConfig::builder().threshold(0.6).build().unwrap();
    let expander = IncrementalExpander::new(detector, world.existing.clone(), expansion);
    let shard = taxo_serve::Server::builder(expander, Arc::new(world.vocab))
        .bind("127.0.0.1:0")
        .unwrap();
    let router = Router::builder(vec![shard.addr()])
        .config(cfg)
        .bind("127.0.0.1:0")
        .unwrap();
    (shard, router)
}

fn read_line(stream: &TcpStream) -> Value {
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    json::parse(line.trim_end()).unwrap_or_else(|e| panic!("unparseable reply {line:?}: {e}"))
}

#[test]
fn overlong_frame_is_refused_with_bad_request_then_closed() {
    let _g = test_lock();
    let (shard, router) = fleet(RouterConfig::default());
    let errors_before = taxo_obs::counter!("serve.router.errors.bad_request").get();

    let mut stream = TcpStream::connect(router.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // One byte past the cap and no terminator: the router must stop
    // buffering here instead of growing without limit.
    stream.write_all(&vec![b'x'; MAX_FRAME + 1]).unwrap();
    let reply = read_line(&stream);
    assert_eq!(reply.get("ok"), Some(&Value::Bool(false)));
    assert_eq!(
        reply.get("error").and_then(Value::as_str),
        Some("bad_request"),
        "reply: {reply:?}"
    );
    let mut rest = Vec::new();
    assert_eq!(
        stream.read_to_end(&mut rest).unwrap(),
        0,
        "the router must close the connection after refusing the frame"
    );
    assert!(taxo_obs::counter!("serve.router.errors.bad_request").get() > errors_before);

    // The worker is free again: a fresh connection is served.
    let mut fresh = TcpStream::connect(router.addr()).unwrap();
    fresh.write_all(b"{\"kind\":\"health\"}\n").unwrap();
    assert_eq!(read_line(&fresh).get("ok"), Some(&Value::Bool(true)));
    router.shutdown_and_join();
    shard.shutdown_and_join();
}

#[test]
fn silent_clients_are_closed_after_the_idle_timeout() {
    let _g = test_lock();
    let zero = RouterConfig {
        idle_timeout: Duration::ZERO,
        ..RouterConfig::default()
    };
    assert!(zero.validate().is_err(), "a zero idle timeout is invalid");

    // One worker: a silent client that was never closed would pin it,
    // and the second client below would never be served.
    let (shard, router) = fleet(RouterConfig {
        workers: 1,
        idle_timeout: Duration::from_millis(200),
        ..RouterConfig::default()
    });
    let closed_before = taxo_obs::counter!("serve.router.conn.idle_closed").get();
    let start = Instant::now();
    let mut silent = TcpStream::connect(router.addr()).unwrap();
    silent
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut next = TcpStream::connect(router.addr()).unwrap();
    next.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    next.write_all(b"{\"kind\":\"health\"}\n").unwrap();

    let mut buf = [0u8; 64];
    assert_eq!(
        silent.read(&mut buf).unwrap(),
        0,
        "the router must close the idle connection"
    );
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "idle close must not fire before the configured timeout"
    );
    assert!(taxo_obs::counter!("serve.router.conn.idle_closed").get() > closed_before);
    assert_eq!(read_line(&next).get("ok"), Some(&Value::Bool(true)));
    router.shutdown_and_join();
    shard.shutdown_and_join();
}
