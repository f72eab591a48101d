//! Emits `BENCH_obs.json` — the committed overhead artifact for the
//! `replica-obs` telemetry layer.
//!
//! Measures, over 20 standard scenarios × 4 instances across the
//! default solver lineup, the full fleet run:
//!
//! * `untraced_ms` — [`Fleet::run`] with [`Obs::noop()`], the handle
//!   every untraced run passes;
//! * `jsonl_ms` — [`Fleet::run`] tracing every span, progress event,
//!   counter and histogram to a JSONL file at `Solve` verbosity
//!   (budget: 5% over untraced).
//!
//! Each number is the **minimum** of 15 timed repetitions after one
//! warm-up, with the two variants interleaved round-robin — the
//! minimum is the standard robust statistic for an overhead comparison
//! (it measures the code, medians measure the machine's background
//! load too), and interleaving decorrelates slow drift.
//!
//! The read path rides along: the trace the jsonl runs accumulated is
//! parsed back through [`Trace::parse`] and profiled through
//! [`Analysis::of`], reported as `lines/sec` (same min-of-reps
//! discipline) — the forensic tooling must keep up with the traces the
//! fleet actually produces.
//!
//! Usage: `cargo run --release -p replica-bench --bin obs_overhead
//! [-- OUT.json]` (default `BENCH_obs.json` in the working directory —
//! the repository root under `cargo run`).

use replica_bench::standard_campaign;
use replica_engine::obs::{Analysis, JsonlSink, Obs, Trace, Verbosity};
use replica_engine::{Fleet, Registry};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 64;
const PER_SCENARIO: usize = 4;
const SEED: u64 = 0xB0B5;
const REPS: usize = 15;

/// Wall-clock milliseconds of one run of `f`.
fn time_ms<R>(f: impl FnOnce() -> R) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".into());

    let campaign = standard_campaign(
        SEED,
        NODES,
        PER_SCENARIO,
        ["dp_power", "greedy_power", "heur_power_greedy"],
    );
    let registry = Registry::with_all();
    let fleet = Fleet::try_new(&registry, campaign.fleet_config())
        .expect("validated campaigns configure valid fleets");
    let space = campaign.space();
    let jobs = replica_engine::JobSpace::len(&space);

    let noop_obs = Obs::noop();
    let trace_path =
        std::env::temp_dir().join(format!("obs-overhead-{}.jsonl", std::process::id()));
    let jsonl_obs = Obs::new(
        Arc::new(JsonlSink::create(&trace_path).expect("temp trace file")),
        Verbosity::Solve,
    );

    // Warm-up, then interleave the variants round-robin and take each
    // one's minimum.
    black_box(fleet.run(&space, &noop_obs));
    black_box(fleet.run(&space, &jsonl_obs));
    let (mut untraced, mut jsonl) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        untraced = untraced.min(time_ms(|| fleet.run(&space, &noop_obs)));
        jsonl = jsonl.min(time_ms(|| fleet.run(&space, &jsonl_obs)));
    }
    drop(jsonl_obs);
    let text = std::fs::read_to_string(&trace_path).expect("trace file readable");
    let _ = std::fs::remove_file(&trace_path);

    // Read path over the trace the jsonl runs just accumulated (one
    // warm-up plus REPS appended runs — a realistically large file).
    let lines = text.lines().count();
    let parsed = Trace::parse(&text);
    assert!(parsed.errors.is_empty(), "a live trace parses clean");
    let (mut parse_ms, mut analyze_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        parse_ms = parse_ms.min(time_ms(|| Trace::parse(&text)));
        analyze_ms = analyze_ms.min(time_ms(|| Analysis::of(&parsed)));
    }
    let per_sec = |ms: f64| lines as f64 / (ms / 1e3);

    let pct = |traced: f64| (traced / untraced - 1.0) * 100.0;
    let json = format!(
        "{{\n  \"bench\": \"obs\",\n  \"campaign\": {{ \"scenarios\": {}, \"per_scenario\": {}, \"nodes\": {}, \"jobs\": {} }},\n  \"solvers\": \"dp_power,greedy_power,heur_power_greedy\",\n  \"untraced_ms\": {:.3},\n  \"jsonl_ms\": {:.3},\n  \"jsonl_overhead_pct\": {:.2},\n  \"trace_lines\": {},\n  \"parse_ms\": {:.3},\n  \"parse_lines_per_sec\": {:.0},\n  \"analyze_ms\": {:.3},\n  \"analyze_lines_per_sec\": {:.0}\n}}\n",
        campaign.scenarios.len(),
        PER_SCENARIO,
        NODES,
        jobs,
        untraced,
        jsonl,
        pct(jsonl),
        lines,
        parse_ms,
        per_sec(parse_ms),
        analyze_ms,
        per_sec(analyze_ms),
    );
    std::fs::write(&out, &json).expect("cannot write the overhead artifact");
    eprint!("{json}");
    eprintln!("→ {out}");
}
