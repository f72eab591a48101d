//! `perfbench` — the repository benchmark.
//!
//! Three seeded workloads drive the system through its public API and
//! time what a user waits for:
//!
//! * `serve-point-1e5` and `serve-churn-1e3` feed `placed`'s epoch loop
//!   ([`replica_serve`]: wire parse → `PlacementServer` → render) with
//!   pre-generated JSONL lines in a closed loop;
//! * `fleet-alpha3` runs a sharded `fleetd` campaign through the
//!   multi-process coordinator, with this binary re-invoked as the
//!   shard worker (`perfbench work …` is `fleetd work …`).
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! workload again with per-phase timers and a `replica-obs` JSONL trace
//! (read back through `fleetd analyze`) and reports the per-layer
//! split. Every run checks the outputs it timed against an independent
//! from-scratch computation, outside the timed region. The last stdout
//! line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! carries the workload parameters and the same figures under the
//! names the design notes use (see `layers.json`).
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1`.

mod fleet;
mod serve;

use replica_obs::{Event, Sink};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Where runs keep their scratch files (fleet work directories,
/// traces), relative to the checkout root the benchmark runs from.
pub const RUN_DIR: &str = ".bench_run";

/// Options common to every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run hands back to `main`.
#[derive(Default)]
pub struct Outcome {
    /// Output-check failures (empty = correct).
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics BENCHMARK.json names for this mode.
    pub metrics: Vec<Metric>,
    /// The same run under the metric names the design documents use
    /// (`epoch_p50_ms`, `fleetd.merge.ms`, …), for the detail line.
    pub detail: Vec<Metric>,
    /// Workload parameters, as (key, JSON value) pairs.
    pub params: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.detail.push(Metric { name, value, unit });
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds since `start`.
pub fn millis(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over a byte stream, the digest the repository's reports use.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn line(&mut self, line: &str) {
        for byte in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// This process's peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A fresh scratch path under [`RUN_DIR`], unique to this process.
pub fn run_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(RUN_DIR);
    std::fs::create_dir_all(&dir).expect("cannot create the benchmark run directory");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// A trace sink that keeps events in memory, stamped as they happen,
/// and writes them out as `replica-obs` JSONL once the run is over, so
/// traced work pays no file I/O.
#[derive(Default)]
pub struct TraceBuffer {
    events: Mutex<Vec<(Event, u64)>>,
}

impl TraceBuffer {
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let events = self.events.lock().expect("trace buffer poisoned");
        let mut text = String::new();
        for (event, ts_ms) in events.iter() {
            text.push_str(&event.to_json_line(Some(*ts_ms)));
            text.push('\n');
        }
        std::fs::write(path, text)
    }
}

impl Sink for TraceBuffer {
    fn emit(&self, event: &Event) {
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0, |d| d.as_millis() as u64);
        self.events
            .lock()
            .expect("trace buffer poisoned")
            .push((event.clone(), ts_ms));
    }
}

/// `fleetd analyze PATH --format FORMAT --out OUT` through the fleetd
/// command line; returns its wall time in ms and the rendered report.
pub fn fleetd_analyze(trace: &Path, format: &str) -> Result<(f64, String), String> {
    let out = run_path("analyze.out");
    let start = Instant::now();
    let code = replica_fleetd::cli::main(vec![
        "analyze".into(),
        trace.display().to_string(),
        "--format".into(),
        format.into(),
        "--out".into(),
        out.display().to_string(),
    ]);
    let ms = millis(start);
    let text = std::fs::read_to_string(&out).unwrap_or_default();
    let _ = std::fs::remove_file(&out);
    if code != 0 {
        return Err(format!("fleetd analyze {} exited {code}", trace.display()));
    }
    Ok((ms, text))
}

const WORKLOADS: [&str; 3] = ["serve-point-1e5", "serve-churn-1e3", "fleet-alpha3"];

const USAGE: &str =
    "usage: perfbench --workload serve-point-1e5|serve-churn-1e3|fleet-alpha3 --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: cannot parse {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => opts.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, opts))
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The fleet coordinator re-invokes this binary as its shard worker.
    if args.first().map(String::as_str) == Some("work") {
        let out = args
            .windows(2)
            .find(|w| w[0] == "--out")
            .map(|w| w[1].clone());
        let code = replica_fleetd::cli::main(args);
        if let Some(out) = out {
            let _ = std::fs::write(format!("{out}.rss"), format!("{}", peak_rss_mb()));
        }
        std::process::exit(code);
    }
    let (workload, opts) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    let mut outcome = match workload.as_str() {
        "serve-point-1e5" => serve::run(&serve::POINT, &opts),
        "serve-churn-1e3" => serve::run(&serve::CHURN, &opts),
        _ => fleet::run(&opts),
    };
    let infinite: Vec<String> = (outcome.metrics.iter().chain(&outcome.detail))
        .filter(|m| !m.value.is_finite())
        .map(|m| format!("{} is not finite", m.name))
        .collect();
    outcome.errors.extend(infinite);
    // Scratch files are gone by now; drop the directory if it is empty.
    let _ = std::fs::remove_dir(RUN_DIR);
    for e in &outcome.errors {
        eprintln!("perfbench: CHECK FAILED: {e}");
    }

    let mut params = format!("\"workload\": \"{workload}\", \"seed\": {}", opts.seed);
    for (key, value) in &outcome.params {
        let _ = write!(params, ", \"{key}\": {value}");
    }
    println!(
        "{{\"params\": {{{params}}}, \"detail\": {}}}",
        json_metrics(&outcome.detail)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.errors.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        json_metrics(&outcome.metrics)
    );
    std::process::exit(if outcome.errors.is_empty() { 0 } else { 1 });
}
