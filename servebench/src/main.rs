//! `servebench` — the serving benchmark: three workloads run against the
//! real serving stack (taxo-serve shards, the taxo-router tier, the WAL,
//! the expansion model), every reply checked, every request timed.
//!
//! ```text
//! servebench --workload hot-zipf|cold-model|routed-ingest --seed N
//!            --seconds S --trace 0|1
//! servebench --audit RUNS [--workload W]... [--seconds S] [--trace 0|1]
//! ```
//!
//! A run prints, as the last line of stdout, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer ones with `--trace 1`.
//! `--audit` repeats each workload RUNS times on seeds 1..=RUNS and
//! prints every metric's median and quartiles, and the smallest bound
//! (three times the quartile spread) the observed noise allows. See the
//! README for the workloads, metrics and the noise record.

mod layers;
mod load;
mod proc;
mod role;
mod sampler;
mod stats;
mod trace;
mod workload;
mod world;

use workload::{Kind, Opts};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("role-serve") => role::serve(&args[1..]),
        Some("role-router") => role::router(&args[1..]),
        _ => bench(&args),
    };
    if let Err(e) = result {
        eprintln!("servebench: {e}");
        std::process::exit(1);
    }
}

fn bench(args: &[String]) -> Result<(), String> {
    let mut workloads: Vec<Kind> = Vec::new();
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut audit: Option<usize> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} takes a value"));
        match flag.as_str() {
            "--workload" => {
                let w = val()?;
                workloads.push(Kind::parse(&w).ok_or(format!("unknown workload {w:?}"))?);
            }
            "--seed" => seed = num(&val()?)?,
            "--seconds" => seconds = num(&val()?)?,
            "--trace" => {
                trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--audit" => audit = Some(num(&val()?)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if let Some(runs) = audit {
        if workloads.is_empty() {
            workloads = Kind::ALL.to_vec();
        }
        return audit_mode(&workloads, runs, seconds, trace);
    }
    let [kind] = workloads[..] else {
        return Err("name exactly one --workload".into());
    };
    let out = workload::run(&Opts {
        kind,
        seed,
        seconds,
        trace,
    })?;
    for line in &out.diag {
        eprintln!("# {line}");
    }
    for (name, value, unit) in &out.metrics {
        eprintln!("# {name} = {value} {unit}");
    }
    for p in &out.problems {
        eprintln!("# INCORRECT: {p}");
    }
    println!("# context {}", out.context);
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    if out.correct {
        Ok(())
    } else {
        Err("replies or recovery failed their checks".into())
    }
}

/// Runs each workload `runs` times (seeds 1..=runs) as child processes
/// and prints, per metric, the median, quartiles and quartile spread.
fn audit_mode(workloads: &[Kind], runs: usize, seconds: f64, trace: bool) -> Result<(), String> {
    use taxo_serve::json::{self, Value};
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    for &kind in workloads {
        let mut table: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
        for seed in 1..=runs {
            let out = std::process::Command::new(&exe)
                .args(["--workload", kind.name(), "--seed", &seed.to_string()])
                .args([
                    "--seconds",
                    &seconds.to_string(),
                    "--trace",
                    if trace { "1" } else { "0" },
                ])
                .stderr(std::process::Stdio::null())
                .output()
                .map_err(|e| format!("audit run: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let v = json::parse(last).map_err(|e| format!("{} seed {seed}: {e}", kind.name()))?;
            if !out.status.success() || !matches!(v.get("correct"), Some(Value::Bool(true))) {
                return Err(format!("{} seed {seed} failed: {last}", kind.name()));
            }
            if let Some(Value::Obj(m)) = v.get("metrics") {
                for (name, m) in m {
                    if let Some(Value::Num(tok)) = m.get("value") {
                        table
                            .entry(name.clone())
                            .or_default()
                            .push(tok.parse().unwrap_or(0.0));
                    }
                }
            }
            eprintln!("# audit {} seed {seed} done", kind.name());
        }
        println!("{} ({runs} runs, {seconds} s):", kind.name());
        println!(
            "  {:<28} {:>14} {:>14} {:>14} {:>8} {:>8}",
            "metric", "q1", "median", "q3", "spread", "3xspread"
        );
        for (name, values) in &table {
            let Some((q1, med, q3)) = stats::quartiles(values) else {
                continue;
            };
            let spread = stats::ratio(q3 - q1, med.abs());
            println!(
                "  {name:<28} {q1:>14.4} {med:>14.4} {q3:>14.4} {:>7.2}% {:>7.2}%  {values:.4?}",
                spread * 100.0,
                spread * 300.0
            );
        }
    }
    Ok(())
}

fn num<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("invalid number {s:?}"))
}
