//! The `fleetd` workload: a sharded α = 3 campaign from its validated
//! spec to the rendered merged report, through the multi-process
//! coordinator (this binary is the shard worker).
//!
//! Every timed run's merged digest must equal the digest of the same
//! campaign run in-process (plan → `worker::run_shard` per shard →
//! `merge_reports`), which is computed once per invocation — traced,
//! with one span per layer, when the invocation is traced.

use crate::{
    fleetd_analyze, median, millis, peak_rss_mb, run_path, secs, Opts, Outcome, TraceBuffer,
};
use replica_core::dp_power_pruned::PrunedPowerDp;
use replica_engine::output::{render, OutputFormat};
use replica_engine::{CampaignSpec, FleetReport, Registry, ScenarioSet};
use replica_fleetd::coordinator::{read_json, run_plan_with, write_json, RunOptions, Workers};
use replica_fleetd::{merge_reports, worker, ShardPlan, ShardReport};
use replica_obs::{Analysis, Obs, SchedOp, Trace, Verbosity};
use replica_tree::FlatTree;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const NODES: usize = 1_000;
/// 36 rather than 12 instances per scenario: the coordinator polls its
/// workers every 150 ms, so a run's wall time moves in 150 ms steps, and
/// a ~6 s run keeps one step within a few percent.
const PER_SCENARIO: usize = 36;
const SOLVERS: [&str; 3] = ["dp_power", "greedy_power", "heur_power_greedy"];
const SHARDS: usize = 2;
const SETUP_REPS: usize = 101;
const FORMAT: OutputFormat = OutputFormat::JsonDeterministic;

fn spec(seed: u64) -> CampaignSpec {
    CampaignSpec::builder()
        .scenario_set(ScenarioSet::Standard, NODES)
        .instances_per_scenario(PER_SCENARIO)
        .solvers(SOLVERS)
        .reference("dp_power")
        .seed(seed)
        .threads(1)
        .output(FORMAT)
        .build()
}

fn plan(spec: &CampaignSpec, registry: &Registry) -> Result<ShardPlan, String> {
    let campaign = spec.validate(registry).map_err(|e| e.to_string())?;
    ShardPlan::new(campaign, SHARDS).map_err(|e| e.to_string())
}

/// One run as a user waits for it: validated spec → plan → shard
/// workers → merged report → rendering. Returns the wall time (ms), the merged
/// report and the workers' peak resident set (MiB).
fn timed_run(
    spec: &CampaignSpec,
    registry: &Registry,
    exe: &Path,
    n: usize,
    trace: Option<PathBuf>,
) -> (f64, Result<FleetReport, String>, f64) {
    let dir = run_path(&format!("fleet-{n}"));
    let workers = Workers::Processes {
        exe: exe.to_path_buf(),
        work_dir: Some(dir.clone()),
    };
    let options = RunOptions {
        trace,
        ..RunOptions::default()
    };
    let campaign = spec.validate(registry);
    let start = Instant::now();
    let result = campaign.map_err(|e| e.to_string()).and_then(|campaign| {
        let plan = ShardPlan::new(campaign, SHARDS).map_err(|e| e.to_string())?;
        let report = run_plan_with(&plan, &workers, &options).map_err(|e| e.to_string())?;
        black_box(render(&report, FORMAT));
        Ok(report)
    });
    let ms = millis(start);
    let worker_mb = std::fs::read_dir(&dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "rss"))
        .filter_map(|e| {
            std::fs::read_to_string(e.path())
                .ok()?
                .trim()
                .parse::<f64>()
                .ok()
        })
        .fold(0.0, f64::max);
    let _ = std::fs::remove_dir_all(&dir);
    (ms, result, worker_mb)
}

/// The in-process pipeline, phase by phase.
struct InProcess {
    plan: ShardPlan,
    plan_ms: f64,
    shard_s: Vec<f64>,
    reports: Vec<ShardReport>,
    merge_ms: f64,
    report: FleetReport,
    render_ms: f64,
    rendered: String,
}

fn in_process(spec: &CampaignSpec, registry: &Registry, obs: &Obs) -> Result<InProcess, String> {
    let root = obs.span("campaign", "fleet-alpha3 in-process");
    let t = Instant::now();
    let plan = {
        let _span = root.child("fleetd.plan", "");
        plan(spec, registry)?
    };
    let plan_ms = millis(t);
    // One thread per shard, as the coordinator runs one process each.
    let shards: Vec<(f64, Result<ShardReport, String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SHARDS)
            .map(|k| {
                let span = root.child("fleetd.worker", format!("shard {k}"));
                let plan = &plan;
                scope.spawn(move || {
                    let t = Instant::now();
                    let report =
                        worker::run_shard_observed(plan, k, obs).map_err(|e| e.to_string());
                    drop(span);
                    (secs(t), report)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread"))
            .collect()
    });
    let mut shard_s = Vec::new();
    let mut reports = Vec::new();
    for (s, report) in shards {
        shard_s.push(s);
        reports.push(report?);
    }
    let t = Instant::now();
    let report = {
        let _span = root.child("fleetd.merge", "");
        merge_reports(&plan, &reports).map_err(|e| e.to_string())?
    };
    let merge_ms = millis(t);
    let t = Instant::now();
    let rendered = {
        let _span = root.child("engine.output", "");
        render(&report, FORMAT)
    };
    let render_ms = millis(t);
    Ok(InProcess {
        plan,
        plan_ms,
        shard_s,
        reports,
        merge_ms,
        report,
        render_ms,
        rendered,
    })
}

pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome {
        params: vec![
            ("scenario_set", "\"standard\"".into()),
            ("nodes", NODES.to_string()),
            ("instances_per_scenario", PER_SCENARIO.to_string()),
            ("power", "\"paper_experiment3(alpha=3)\"".into()),
            ("solvers", format!("\"{}\"", SOLVERS.join(","))),
            ("reference", "\"dp_power\"".into()),
            ("shards", SHARDS.to_string()),
            ("threads_per_worker", "1".into()),
            ("format", format!("\"{}\"", FORMAT.label())),
            ("setup_reps", SETUP_REPS.to_string()),
        ],
        ..Outcome::default()
    };
    let spec = spec(opts.seed);
    let registry = Registry::with_all();
    let exe = std::env::current_exe().expect("the benchmark binary path");

    // Set-up, repeated: validate the spec and plan the shards.
    let mut setup_s = Vec::new();
    let mut cells_per_run = 0;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let plan = plan(&spec, &registry).expect("the campaign spec is valid");
        setup_s.push(secs(t));
        cells_per_run = (plan.campaign.job_count() * SOLVERS.len()) as u64;
    }

    // Timed runs; traced invocations alternate untraced and traced
    // runs, so the pair gives the tracing overhead.
    let (mut walls, mut traced_walls, mut digests) = (Vec::new(), Vec::new(), Vec::new());
    let mut worker_mb: f64 = 0.0;
    let mut last_trace = None;
    let start = Instant::now();
    let mut n = 0;
    while secs(start) < opts.seconds || walls.is_empty() || (opts.trace && traced_walls.is_empty())
    {
        n += 1;
        let trace = (opts.trace && n % 2 == 0).then(|| run_path(&format!("fleet-{n}.trace.jsonl")));
        let (ms, result, mb) = timed_run(&spec, &registry, &exe, n, trace.clone());
        worker_mb = worker_mb.max(mb);
        out.attempted += cells_per_run;
        match result {
            Ok(report) => {
                let failed: usize = report.summaries.iter().map(|s| s.failed).sum();
                out.failed += failed as u64;
                digests.push(report.digest());
                if trace.is_some() {
                    traced_walls.push(ms);
                } else {
                    walls.push(ms);
                }
            }
            Err(e) => {
                // A dead run fails every cell of the campaign.
                out.failed += cells_per_run;
                eprintln!("perfbench: fleet run {n} failed: {e}");
                if walls.len() + traced_walls.len() == 0 && n >= 3 {
                    out.errors.push(format!("no fleet run completed: {e}"));
                    return out;
                }
            }
        }
        if let Some(old) = trace.and_then(|t| last_trace.replace(t)) {
            let _ = std::fs::remove_file(old);
        }
    }
    let peak_mb = peak_rss_mb().max(worker_mb);

    // The reference: the same campaign in-process (traced when asked).
    let trace = Arc::new(TraceBuffer::default());
    let obs = if opts.trace {
        Obs::new(trace.clone(), Verbosity::Solve)
    } else {
        Obs::noop()
    };
    let reference = match in_process(&spec, &registry, &obs) {
        Ok(reference) => reference,
        Err(e) => {
            out.errors
                .push(format!("in-process reference run failed: {e}"));
            return out;
        }
    };
    let expected = reference.report.digest();
    for (i, digest) in digests.iter().enumerate() {
        out.check(*digest == expected, || {
            format!(
                "fleet run {}: merged digest differs from the in-process run's",
                i + 1
            )
        });
    }
    out.params
        .push(("runs", (walls.len() + traced_walls.len()).to_string()));
    out.params
        .push(("cells", reference.report.cell_count.to_string()));
    out.params.push((
        "checksum",
        format!("\"{:016x}\"", reference.report.cell_checksum),
    ));

    let wall_ms = median(&walls);
    let cells = reference.report.cell_count as f64;
    if !opts.trace {
        let total_s = walls.iter().sum::<f64>() / 1e3;
        let tail = walls.iter().copied().fold(0.0, f64::max);
        out.metric("p50_ms", wall_ms, "ms");
        out.metric("tail_ms", tail, "ms");
        out.metric("items_per_s", cells * walls.len() as f64 / total_s, "1/s");
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mb", peak_mb, "MiB");
        out.detail("fleet_wall_s", wall_ms / 1e3, "s");
        out.detail("fleet_wall_max_s", tail / 1e3, "s");
        out.detail("cells_per_s", cells * walls.len() as f64 / total_s, "1/s");
        out.detail("setup_s", median(&setup_s), "s");
        out.detail("peak_rss_mb", peak_mb, "MiB");
        out.detail(
            "failed_frac",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
        );
        return out;
    }

    // Layer probes, outside every timed region.
    let jobs_t = Instant::now();
    let jobs = reference.plan.campaign.jobs();
    let build_s = secs(jobs_t);
    let layout_t = Instant::now();
    let positions: usize = jobs
        .iter()
        .map(|j| FlatTree::new(j.instance.tree()).len())
        .sum();
    let layout_ms = millis(layout_t);
    let mut table_entries = 0usize;
    for (i, job) in jobs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % PER_SCENARIO == 0)
    {
        match PrunedPowerDp::run(&job.instance) {
            Ok(dp) => table_entries += dp.table_entries(),
            Err(e) => out.errors.push(format!("job {i}: pruned DP failed: {e}")),
        }
    }
    drop(jobs);
    let plan_file = run_path("fleet-plan.json");
    let (mut apply_ms, mut parse_ms, mut report_bytes) = (f64::NAN, 0.0, 0.0);
    if write_json(&plan_file, &reference.plan).is_ok() {
        // What every worker does before its first solve.
        let t = Instant::now();
        let loaded = read_json::<ShardPlan>(&plan_file)
            .map_err(|e| e.to_string())
            .and_then(|p| {
                p.campaign
                    .validate(&Registry::with_all())
                    .map(|_| p)
                    .map_err(|e| e.to_string())
            });
        apply_ms = millis(t);
        match loaded {
            Ok(p) => {
                black_box(p.campaign.space());
            }
            Err(e) => out.errors.push(format!("plan round trip failed: {e}")),
        }
    }
    let _ = std::fs::remove_file(&plan_file);
    for report in &reference.reports {
        let text = serde_json::to_string(report).expect("shard reports serialize");
        report_bytes += text.len() as f64;
        let t = Instant::now();
        let back = serde_json::from_str::<ShardReport>(&text);
        parse_ms += millis(t);
        out.check(back.is_ok(), || "a shard report does not parse back".into());
    }
    let solver_s = |name: &str| -> f64 {
        reference
            .report
            .summaries
            .iter()
            .filter(|s| s.solver == name)
            .map(|s| s.mean_wall_seconds * s.solved as f64)
            .sum()
    };
    let slowest = reference.shard_s.iter().copied().fold(0.0, f64::max);
    let fastest = reference
        .shard_s
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let supervise_ms = wall_ms - slowest * 1e3 - reference.merge_ms - reference.render_ms;
    let overhead = median(&traced_walls) / wall_ms;

    // Read both traces back through `fleetd analyze`.
    let mut analyze_ms = 0.0;
    let mut trace_bytes = 0.0;
    let mut attempts = f64::NAN;
    let layer_trace = run_path("fleet-layers.trace.jsonl");
    if let Err(e) = trace.write(&layer_trace) {
        out.errors.push(format!("cannot write the trace: {e}"));
    }
    match fleetd_analyze(&layer_trace, "table") {
        Ok((_, text)) => {
            eprintln!("{text}");
            for layer in [
                "fleetd.plan",
                "fleetd.worker",
                "fleetd.merge",
                "engine.output",
            ] {
                out.check(text.contains(layer), || {
                    format!("fleetd analyze reports no {layer} span")
                });
            }
        }
        Err(e) => out.errors.push(e),
    }
    let _ = std::fs::remove_file(&layer_trace);
    if let Some(run_trace) = &last_trace {
        match fleetd_analyze(run_trace, "table") {
            Ok((ms, text)) => {
                eprintln!("{text}");
                analyze_ms = ms;
            }
            Err(e) => out.errors.push(e),
        }
        trace_bytes = std::fs::metadata(run_trace).map_or(0, |m| m.len()) as f64;
        if let Ok(text) = std::fs::read_to_string(run_trace) {
            let sched = Analysis::of(&Trace::parse(&text)).sched;
            attempts = (sched.total(SchedOp::Launch) + sched.total(SchedOp::Steal)) as f64;
        }
        let _ = std::fs::remove_file(run_trace);
    }

    out.metric("model.build_s", build_s, "s");
    out.metric("tree.layout_ms", layout_ms, "ms");
    out.metric("setup.prepare_ms", median(&setup_s) * 1e3, "ms");
    out.metric("wire.parse_ms", parse_ms, "ms");
    out.metric("wire.bytes", report_bytes, "bytes");
    out.metric("ingest.apply_ms", apply_ms, "ms");
    out.metric("core.solve_ms", solver_s("dp_power") * 1e3, "ms");
    out.metric("core.recomputed", positions as f64, "count");
    out.metric("core.table_entries", table_entries as f64, "count");
    out.metric("combine_ms", reference.merge_ms, "ms");
    out.metric("render_ms", reference.render_ms, "ms");
    out.metric("render.bytes", reference.rendered.len() as f64, "bytes");
    out.metric("noncore_ms", wall_ms - slowest * 1e3, "ms");
    out.metric("useful_frac", SHARDS as f64 / attempts, "ratio");
    out.metric("obs.trace_overhead_ratio", overhead, "ratio");
    out.metric("obs.analyze_ms", analyze_ms, "ms");
    out.metric("obs.trace_bytes", trace_bytes, "bytes");

    out.detail("fleetd.plan.ms", reference.plan_ms, "ms");
    out.detail("fleetd.worker.shard_solve_s", slowest, "s");
    out.detail("fleetd.worker.shard_skew", slowest / fastest, "ratio");
    for (name, solver) in [
        ("engine.solver.dp_power_s", "dp_power"),
        ("engine.solver.greedy_power_s", "greedy_power"),
        ("engine.solver.heur_power_greedy_s", "heur_power_greedy"),
    ] {
        out.detail(name, solver_s(solver), "s");
    }
    out.detail("fleetd.merge.ms", reference.merge_ms, "ms");
    out.detail("engine.output.render_ms", reference.render_ms, "ms");
    out.detail("fleetd.shard.report_bytes", report_bytes, "bytes");
    out.detail("fleetd.coordinator.supervise_s", supervise_ms / 1e3, "s");
    out.detail(
        "fleetd.coordinator.attempts_per_shard",
        SHARDS as f64 / attempts,
        "ratio",
    );
    out.detail("obs.trace_overhead_frac", overhead - 1.0, "ratio");
    out
}
