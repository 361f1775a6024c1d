//! Server-side child processes: launch, readiness, `/proc` accounting
//! and teardown.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use taxo_serve::Reply;

/// A running server-side process. Dropping it kills and reaps the
/// process, so no error path leaves one behind.
pub struct ServerProc {
    pub name: String,
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// `key=value` figures from the `listening` line (set-up phases).
    pub info: BTreeMap<String, f64>,
    pub launched: Instant,
}

impl ServerProc {
    /// Starts `current_exe <role> <args>` and blocks until it prints its
    /// `listening` line. `on_line` sees every earlier stdout line with
    /// the moment it was read (the recovery clock starts on one).
    pub fn launch(
        name: &str,
        role: &str,
        args: &[String],
        on_line: impl FnMut(&str, Instant),
    ) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let launched = Instant::now();
        let mut child = Command::new(exe)
            .arg(role)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {name}: {e}"))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut p = ServerProc {
            name: name.to_owned(),
            child,
            stdout,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            info: BTreeMap::new(),
            launched,
        };
        p.next_listening(on_line)?;
        Ok(p)
    }

    /// Reads stdout up to the next `listening <addr> key=value...` line
    /// and adopts its address and figures.
    pub fn next_listening(&mut self, mut on_line: impl FnMut(&str, Instant)) -> Result<(), String> {
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line).unwrap_or(0) == 0 {
                return Err(format!("{} exited before listening", self.name));
            }
            let now = Instant::now();
            let text = line.trim_end();
            let Some(rest) = text.strip_prefix("listening ") else {
                on_line(text, now);
                continue;
            };
            let mut parts = rest.split_whitespace();
            self.addr = parts
                .next()
                .and_then(|a| a.parse().ok())
                .ok_or(format!("{}: bad listening line {text:?}", self.name))?;
            self.info = parts
                .filter_map(|kv| kv.split_once('='))
                .filter_map(|(k, v)| Some((k.to_owned(), v.parse().ok()?)))
                .collect();
            return Ok(());
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (VmHWM) in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("{}: reading status: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or(format!("{}: no VmHWM", self.name))
    }

    /// The CPUs the process may run on, as the kernel reports them.
    pub fn cpus_allowed(&self) -> String {
        cpus_allowed_of(&format!("/proc/{}/status", self.pid()))
    }

    /// Asks the server to shut down and waits for the process to exit
    /// (killing it if it has not within ten seconds).
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = crate::load::connect(self.addr)
            .and_then(|mut c| c.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!(
                        "{} did not stop after shutdown ({asked:?})",
                        self.name
                    ));
                }
            }
        }
    }

    /// SIGKILLs the process and reaps it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Polls `health` until the server answers ok; returns when it did.
pub fn await_health(addr: SocketAddr, timeout: Duration) -> Result<Instant, String> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(mut c) = crate::load::connect(addr) {
            if let Ok(Reply::Ok(_)) = c.health() {
                return Ok(Instant::now());
            }
        }
        if Instant::now() > deadline {
            return Err(format!("no health reply from {addr}"));
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// User + system CPU seconds process `pid` has used so far.
pub fn pid_cpu_s(pid: u32) -> Result<f64, String> {
    cpu_s_of(&format!("/proc/{pid}/stat"))
}

/// This process's user + system CPU seconds.
pub fn self_cpu_s() -> Result<f64, String> {
    cpu_s_of("/proc/self/stat")
}

/// CPUs this process may run on.
pub fn self_cpus_allowed() -> String {
    cpus_allowed_of("/proc/self/status")
}

/// Clock ticks per second of `/proc/*/stat` times. Linux reports
/// `USER_HZ`, which is 100 on every mainstream architecture.
const USER_HZ: f64 = 100.0;

fn cpu_s_of(path: &str) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, 12 and 13 after the name.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / USER_HZ),
        _ => Err(format!("unparseable {path}")),
    }
}

fn cpus_allowed_of(path: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time the
/// hypervisor ran something else while this machine's CPUs wanted to run.
pub fn host_steal_ticks() -> Result<(u64, u64), String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .ok_or("no cpu line in /proc/stat")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user.
    let total = fields.iter().take(8).sum();
    Ok((fields.get(7).copied().unwrap_or(0), total))
}

/// Host-wide `(steal, total)` CPU ticks.
type Ticks = (u64, u64);

/// How often the steal timeline samples `/proc/stat`.
const STEAL_SAMPLE: Duration = Duration::from_millis(50);

/// Host steal ticks, sampled in the background for the whole run, so that
/// any timed sample can be matched with the steal around it afterwards.
/// `/proc/stat` counts in 10 ms ticks, too coarse to tell the steal during
/// one 9 ms ingest; the timeline gives each sample the steal of at least
/// the second around it instead.
pub struct StealTimeline {
    /// When each sample was read, and `(steal, total)` ticks.
    samples: Arc<Mutex<Vec<(Instant, Ticks)>>>,
    stop: Arc<AtomicBool>,
    sampler: Option<std::thread::JoinHandle<()>>,
}

impl StealTimeline {
    pub fn start() -> Result<StealTimeline, String> {
        let samples = Arc::new(Mutex::new(vec![(Instant::now(), host_steal_ticks()?)]));
        let stop = Arc::new(AtomicBool::new(false));
        let (s, st) = (Arc::clone(&samples), Arc::clone(&stop));
        let sampler = std::thread::spawn(move || {
            while !st.load(Ordering::Relaxed) {
                std::thread::sleep(STEAL_SAMPLE);
                if let Ok(t) = host_steal_ticks() {
                    s.lock().expect("steal timeline").push((Instant::now(), t));
                }
            }
        });
        Ok(StealTimeline {
            samples,
            stop,
            sampler: Some(sampler),
        })
    }

    /// Host steal share over `from..to`, widened to at least the second
    /// centred on it (as far as the timeline reaches).
    pub fn share(&self, from: Instant, to: Instant) -> f64 {
        let s = self.samples.lock().expect("steal timeline");
        let half = Duration::from_millis(500);
        let mid = from + to.saturating_duration_since(from) / 2;
        let lo = from.min(mid.checked_sub(half).unwrap_or(from));
        let hi = to.max(mid + half);
        let a = s.iter().rev().find(|(t, _)| *t <= lo).or(s.first());
        let b = s.iter().find(|(t, _)| *t >= hi).or(s.last());
        match (a, b) {
            (Some((ta, (s0, t0))), Some((tb, (s1, t1)))) if tb > ta => {
                crate::stats::ratio((s1 - s0) as f64, (t1 - t0) as f64)
            }
            _ => 0.0,
        }
    }
}

impl Drop for StealTimeline {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.sampler.take() {
            let _ = h.join();
        }
    }
}

/// Online CPUs visible to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
