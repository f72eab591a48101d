//! The out-of-band invariant, pinned: telemetry never changes what a
//! fleet computes.
//!
//! For randomized small campaigns, the same campaign is run three
//! ways — untraced ([`Obs::noop`]), traced into a [`MemorySink`] at
//! full `Solve` verbosity, and traced into a real [`JsonlSink`] file
//! at `Progress` verbosity — and every deterministic artifact must be
//! **byte-identical** across all three: the FNV cell checksum, the
//! digest, and the `json-det` rendering. The traced runs must also
//! actually emit (a sink that never fires would make the invariance
//! vacuous).

use proptest::prelude::*;
use replica_engine::obs::{Event, JsonlSink, MemorySink, Obs, Verbosity};
use replica_engine::output::{json, render, OutputFormat};
use replica_engine::{Campaign, Fleet, FleetReport, Registry};
use std::sync::Arc;

/// A small campaign exercising churn scenarios and a randomized solver
/// (annealing's per-instance seeding is the most fragile thing a
/// telemetry side-channel could perturb).
fn campaign(seed: u64, solver_pick: usize, batch_jobs: usize) -> Campaign {
    let mut campaign = Campaign::from_set("extended", 12, 2, seed).unwrap();
    campaign
        .scenarios
        .retain(|s| s.name.starts_with("high/uniform") || s.name.starts_with("star/quietchurn"));
    campaign.solvers = match solver_pick % 3 {
        0 => vec!["dp_power".into(), "greedy_power".into()],
        1 => vec!["dp_power_full".into(), "heur_annealing".into()],
        _ => vec![
            "dp_power".into(),
            "greedy_power".into(),
            "heur_annealing".into(),
        ],
    };
    campaign.batch_jobs = batch_jobs;
    campaign
}

fn run_with(campaign: &Campaign, obs: &Obs) -> FleetReport {
    let registry = Registry::with_all();
    let fleet = Fleet::try_new(&registry, campaign.fleet_config()).unwrap();
    fleet.run(&campaign.space(), obs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn traced_runs_are_byte_identical_to_untraced(
        seed in 0u64..1_000,
        solver_pick in 0usize..3,
        batch_jobs in 1usize..5,
    ) {
        let campaign = campaign(seed, solver_pick, batch_jobs);
        let baseline = run_with(&campaign, &Obs::noop());

        // Full solve-level detail into memory.
        let memory = Arc::new(MemorySink::new());
        let traced = run_with(&campaign, &Obs::new(memory.clone(), Verbosity::Solve));

        // Progress-level detail into an actual JSONL file.
        let dir = std::env::temp_dir().join(format!("obs-invariance-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{seed}-{solver_pick}-{batch_jobs}.jsonl"));
        let jsonl = Obs::new(Arc::new(JsonlSink::create(&path).unwrap()), Verbosity::Progress);
        let jsonl_traced = run_with(&campaign, &jsonl);

        // Every deterministic artifact, byte for byte.
        for report in [&traced, &jsonl_traced] {
            prop_assert_eq!(report.cell_checksum, baseline.cell_checksum);
            prop_assert_eq!(report.cell_count, baseline.cell_count);
            prop_assert_eq!(report.digest(), baseline.digest());
            prop_assert_eq!(
                json(report, false),
                json(&baseline, false),
                "json-det must be byte-identical under tracing"
            );
            prop_assert_eq!(
                render(report, OutputFormat::TableDeterministic),
                render(&baseline, OutputFormat::TableDeterministic)
            );
        }

        // The invariance is non-vacuous: the traced runs really traced.
        let events = memory.take();
        prop_assert!(
            events.iter().any(|e| matches!(e, Event::SpanStart { name, .. } if name == "solve")),
            "solve verbosity must emit per-solve spans"
        );
        prop_assert!(events.iter().any(|e| matches!(e, Event::Progress { .. })));
        prop_assert!(events.iter().any(|e| matches!(e, Event::Histogram { .. })));
        let trace_text = std::fs::read_to_string(&path).unwrap();
        prop_assert!(!trace_text.is_empty(), "JSONL sink must have written lines");
        prop_assert!(trace_text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_file(&path);
    }
}

/// The DP phase sub-spans ride the same invariant: `solve()` and
/// `solve_traced_in()` are one code path, so their outcomes cannot differ
/// — but pin it anyway, through the public solver API.
#[test]
fn phase_spans_do_not_change_solver_outcomes() {
    use replica_engine::solver::with_thread_arena;
    use replica_engine::{Scenario, SolveOptions, Topology};

    let registry = Registry::with_all();
    let scenario = Scenario::new(Topology::High, replica_engine::Demand::Skewed, 14);
    let instance = scenario.instance(7, 0);
    let options = SolveOptions::default();
    for name in ["dp_power", "dp_power_full"] {
        let solver = registry.get(name).unwrap();
        let plain = solver.solve(&instance, &options).unwrap();

        let sink = Arc::new(MemorySink::new());
        let obs = Obs::new(sink.clone(), Verbosity::Solve);
        let span = obs.span("solve", name);
        let traced =
            with_thread_arena(|arena| solver.solve_traced_in(&instance, &options, &span, arena))
                .unwrap();
        drop(span);

        assert_eq!(plain.cost.to_bits(), traced.cost.to_bits(), "{name}");
        assert_eq!(plain.power.to_bits(), traced.power.to_bits(), "{name}");
        assert_eq!(plain.servers, traced.servers, "{name}");
        assert_eq!(plain.placement, traced.placement, "{name}");
        let events = sink.take();
        let phases: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                Event::SpanStart { name, label, .. } if name == "phase" => Some(label.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(phases, ["dp_table", "reconstruct"], "{name}");
    }
}
