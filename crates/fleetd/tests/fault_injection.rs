//! The fault-injection battery, pinning the fault-tolerance contract:
//!
//! under **any** deterministic schedule of worker faults — kill (before,
//! during or after the work), hang, torn report write, frozen heartbeat
//! — a supervised run either merges to the **byte-identical**
//! single-process digest or fails with a typed [`FleetdError`] naming
//! the dead attempts. Never a wrong answer, never a hang, no third
//! outcome.
//!
//! The deterministic half drives the in-process runner (same
//! [`Scheduler`](replica_fleetd::Scheduler) as production, virtual
//! clock, engine-level fault analogues); the last test spawns real OS
//! workers from the `fleetd` binary built for this run and kills them
//! for real.

use proptest::prelude::*;
use replica_engine::obs::{Analysis, Obs, SchedOp, Trace};
use replica_fleetd::coordinator::{
    run_plan_with, run_single_process, RunOptions, Workers, SCHED_TRACE_FILE,
};
use replica_fleetd::worker::run_shard_on_attempt;
use replica_fleetd::{
    merge_reports_fenced, pool, Campaign, CellStatus, Fault, FaultKind, FaultPlan, FleetdError,
    SchedConfig, ShardPlan, ShardReport,
};

/// A small campaign that still exercises the fragile parts: several
/// scenario families, randomized annealing among the solvers (its
/// per-instance seeding is what a retry could most easily perturb),
/// single-job batches so an injected kill can land between any two
/// jobs.
fn plan_of(shards: usize, seed: u64) -> ShardPlan {
    let mut campaign = Campaign::from_set("standard", 12, 2, seed).unwrap();
    campaign.scenarios.truncate(2);
    campaign.solvers = vec![
        "greedy_power".into(),
        "dp_power".into(),
        "heur_annealing".into(),
    ];
    campaign.batch_jobs = 1;
    ShardPlan::new(campaign, shards).unwrap()
}

fn baseline_digest(plan: &ShardPlan) -> String {
    run_single_process(plan).unwrap().digest()
}

/// The headline table: every fault kind, alone and combined, at every
/// interesting moment — before the first cell, mid-shard, after the
/// work but before the write, on retries of already-faulted shards —
/// recovers to the byte-identical digest under the default policy.
#[test]
fn every_fault_schedule_recovers_to_the_byte_identical_digest() {
    let plan = plan_of(3, 0xFA01);
    let baseline = run_single_process(&plan).unwrap();
    for spec in [
        "kill:0",                   // dead before the first cell
        "kill:1@2",                 // dead mid-shard
        "kill:2@999",               // solved everything, died before writing
        "hang:0",                   // stops heartbeating, must be written off
        "truncate:1",               // exits 0 with half a report
        "stale:2",                  // finishes as a zombie behind a frozen heartbeat
        "kill:0,hang:1,truncate:2", // every shard faulted at once
        "kill:1,kill:1.1",          // the same shard dies twice; attempt 2 wins
        "stale:2,truncate:2.1",     // zombie, then a torn retry; attempt 2 wins
    ] {
        let options = RunOptions {
            faults: FaultPlan::parse(spec).unwrap(),
            ..RunOptions::default()
        };
        assert!(
            !options.faults.dooms_some_shard(options.sched.max_retries),
            "{spec}: schedule must be recoverable under the default policy"
        );
        let merged = run_plan_with(&plan, &Workers::InProcess, &options)
            .unwrap_or_else(|e| panic!("{spec}: recoverable schedule failed: {e}"));
        assert_eq!(
            merged.digest(),
            baseline.digest(),
            "{spec}: recovery must not perturb a single byte"
        );
        assert_eq!(merged.cell_checksum, baseline.cell_checksum, "{spec}");
        assert_eq!(merged.cell_count, baseline.cell_count, "{spec}");
    }
}

/// A shard faulted on every attempt generation can never finish: the
/// run must end in a typed protocol error that names the shard and
/// every dead attempt — not a partial or wrong answer.
#[test]
fn doomed_schedules_are_typed_errors_naming_every_dead_attempt() {
    let plan = plan_of(3, 0xFA02);
    for spec in [
        "kill:0,kill:0.1,kill:0.2",
        "hang:1,hang:1.1,hang:1.2",
        "truncate:2,truncate:2.1,truncate:2.2",
        "kill:1,hang:1.1,stale:1.2",
    ] {
        let options = RunOptions {
            faults: FaultPlan::parse(spec).unwrap(),
            ..RunOptions::default()
        };
        assert!(
            options.faults.dooms_some_shard(options.sched.max_retries),
            "{spec}"
        );
        let err = run_plan_with(&plan, &Workers::InProcess, &options)
            .err()
            .unwrap_or_else(|| panic!("{spec}: a doomed shard cannot merge"));
        assert!(matches!(err, FleetdError::Protocol(_)), "{spec}: {err}");
        assert_eq!(err.exit_code(), 1, "{spec}");
        let message = err.to_string();
        assert!(
            message.contains("retries exhausted for shard"),
            "{spec}: {message}"
        );
        // The final (losing) attempt and the per-attempt failure trail
        // are both named.
        assert!(message.contains("(after attempt 2)"), "{spec}: {message}");
        assert!(message.contains("attempt 0"), "{spec}: {message}");
        assert!(message.contains("attempt 1"), "{spec}: {message}");
    }
}

/// Satellite: a report torn mid-write surfaces as a typed
/// [`FleetdError::Protocol`] naming the shard **and attempt** — and
/// under the default retry policy the very same schedule self-heals.
#[test]
fn a_torn_report_names_its_shard_and_attempt_and_the_retry_succeeds() {
    let plan = plan_of(2, 0xFA03);
    let faults = FaultPlan::parse("truncate:1").unwrap();

    // Retries disabled: the torn write is fatal, and the error says
    // exactly which attempt tore and why.
    let no_retries = RunOptions {
        faults: faults.clone(),
        sched: SchedConfig {
            max_retries: 0,
            ..SchedConfig::default()
        },
        ..RunOptions::default()
    };
    let err = run_plan_with(&plan, &Workers::InProcess, &no_retries)
        .err()
        .expect("a torn report with no retries cannot merge");
    assert!(matches!(err, FleetdError::Protocol(_)), "{err}");
    let message = err.to_string();
    assert!(message.contains("shard 1 attempt 0"), "{message}");
    assert!(message.contains("cannot parse shard report"), "{message}");

    // Default policy: same schedule, clean recovery, identical bytes.
    let healed = run_plan_with(
        &plan,
        &Workers::InProcess,
        &RunOptions {
            faults,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(healed.digest(), baseline_digest(&plan));
}

/// The zombie fence at pool level: a superseded attempt's report sits
/// in the pool — late, *and corrupted* — next to the crowned retry.
/// The fenced merge must never even look at it.
#[test]
fn zombie_reports_cannot_merge_over_a_retry() {
    let plan = plan_of(3, 0xFA04);
    let obs = Obs::noop();
    let run = |shard: usize, attempt: usize| -> ShardReport {
        run_shard_on_attempt(&plan, shard, attempt, &plan.campaign.space(), &obs, None)
            .unwrap()
            .expect("no cancellation requested")
    };

    // Shard 1's attempt 0 finished late behind a frozen heartbeat and
    // its payload is corrupt — the worst possible zombie. Attempt 1 is
    // the crowned retry.
    let mut zombie = run(1, 0);
    if let CellStatus::Solved { power, .. } = &mut zombie.cells[0].status {
        *power += 7.0;
    }
    let winner = run(1, 1);
    assert_eq!(winner.attempt, 1, "reports must carry their generation");

    // Pool in an adversarial completion order: zombie before winner.
    let pool = vec![run(2, 0), zombie, winner, run(0, 0)];
    let merged = merge_reports_fenced(&plan, &pool, &[Some(0), Some(1), Some(0)]).unwrap();
    assert_eq!(
        merged.digest(),
        baseline_digest(&plan),
        "the fenced merge must reproduce the unsharded bytes with the zombie in the pool"
    );

    // Crowning the zombie instead drags the corruption in — and the
    // merge integrity checks refuse it. The fence, not luck, is what
    // kept the bytes right above.
    assert!(
        merge_reports_fenced(&plan, &pool, &[Some(0), Some(0), Some(0)]).is_err(),
        "a corrupt report must never merge silently"
    );
}

/// The real thing: one OS process per shard attempt from the `fleetd`
/// binary built for this test run; one worker is killed mid-shard, one
/// hangs until the stale-kill, one exits 0 with half a report. The
/// supervisor retries them all and the merge is byte-identical —
/// per-attempt claim files prove both generations really ran.
#[test]
fn real_subprocess_workers_survive_kills_hangs_and_torn_reports() {
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_fleetd"));
    let plan = plan_of(3, 0xFA05);
    let baseline = run_single_process(&plan).unwrap();
    let dir = std::env::temp_dir().join(format!("fleetd-battery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = RunOptions {
        faults: FaultPlan::parse("kill:0@1,hang:1,truncate:2").unwrap(),
        sched: SchedConfig {
            stale_ms: 1_200,
            backoff_ms: 50,
            ..SchedConfig::default()
        },
        ..RunOptions::default()
    };
    let workers = Workers::Processes {
        exe,
        work_dir: Some(dir.clone()),
    };
    let merged = run_plan_with(&plan, &workers, &options).unwrap();
    assert_eq!(merged.digest(), baseline.digest());
    assert_eq!(merged.cell_checksum, baseline.cell_checksum);

    // Every faulted shard burned attempt 0 and won on attempt 1; the
    // atomic claims for both generations are on disk.
    for shard in 0..3 {
        for attempt in 0..2 {
            assert!(
                pool::claim_path(&dir, shard, attempt).exists(),
                "claim for shard {shard} attempt {attempt} must exist"
            );
        }
    }

    // The supervision stream is always on: even though this run passed
    // no `--trace`, the work dir carries `sched.trace.jsonl`, and
    // analyzing it recovers the full story — six claims for six
    // attempts, every shard retried exactly once, the hung worker
    // written off by a stale-kill, all three shards Done.
    let text = std::fs::read_to_string(dir.join(SCHED_TRACE_FILE)).unwrap();
    let trace = Trace::parse(&text);
    assert!(
        trace.errors.is_empty(),
        "live stream parses clean: {:?}",
        trace.errors
    );
    let analysis = Analysis::of(&trace);
    assert_eq!(analysis.sched.total(SchedOp::Claim), 6);
    assert_eq!(analysis.sched.total(SchedOp::Retry), 3);
    assert_eq!(analysis.sched.total(SchedOp::StaleKill), 1);
    assert_eq!(analysis.sched.total(SchedOp::Done), 3);
    for timeline in &analysis.sched.shards {
        assert_eq!(timeline.retries, 1, "shard {} retried once", timeline.shard);
        assert_eq!(
            timeline.outcome,
            Some(SchedOp::Done),
            "shard {}",
            timeline.shard
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The forensic loop closes: a traced fault-injection run, read back
/// through the `replica-obs` trace reader, reports exactly the
/// decisions the scheduler made — the retries with their backoff
/// gates, the stale-kill, the terminal verdicts — and the `segment`
/// provenance markers attribute every solve span to the (shard,
/// attempt) that actually ran it.
#[test]
fn analyze_reports_the_schedulers_decisions() {
    let plan = plan_of(3, 0xFA07);
    let baseline = baseline_digest(&plan);
    let trace_path =
        std::env::temp_dir().join(format!("fleetd-analyze-{}.trace.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let options = RunOptions {
        trace: Some(trace_path.clone()),
        faults: FaultPlan::parse("kill:1,hang:2").unwrap(),
        ..RunOptions::default()
    };
    let merged = run_plan_with(&plan, &Workers::InProcess, &options).unwrap();
    assert_eq!(
        merged.digest(),
        baseline,
        "tracing must not perturb the run"
    );

    let text = std::fs::read_to_string(&trace_path).unwrap();
    let _ = std::fs::remove_file(&trace_path);
    let trace = Trace::parse(&text);
    assert!(
        trace.errors.is_empty(),
        "live trace parses clean: {:?}",
        trace.errors
    );
    let analysis = Analysis::with_top(&trace, 1_000);

    // The supervision stream matches what the scheduler did: three
    // first attempts plus two retry launches, one backoff-gated retry
    // per faulted shard, the hang written off by the stale-kill, every
    // shard Done, nothing fenced or exhausted.
    let sched = &analysis.sched;
    assert!(
        !sched.is_empty(),
        "in-process traces carry supervision events"
    );
    assert_eq!(
        sched.total(SchedOp::Launch),
        5,
        "3 first attempts + 2 retries"
    );
    assert_eq!(sched.total(SchedOp::Retry), 2);
    assert_eq!(sched.total(SchedOp::StaleKill), 1);
    assert_eq!(sched.total(SchedOp::Done), 3);
    assert_eq!(sched.total(SchedOp::FenceReject), 0);
    assert_eq!(sched.total(SchedOp::Exhausted), 0);

    let shard1 = sched.shards.iter().find(|s| s.shard == 1).unwrap();
    assert_eq!(shard1.retries, 1);
    assert_eq!(shard1.outcome, Some(SchedOp::Done));
    let retry = shard1
        .events
        .iter()
        .find(|e| e.op == SchedOp::Retry)
        .unwrap();
    assert_eq!(retry.attempt, 0, "the retry names the attempt that failed");
    assert!(
        retry.not_before_ms.is_some(),
        "retries carry their backoff gate"
    );

    let shard2 = sched.shards.iter().find(|s| s.shard == 2).unwrap();
    assert_eq!(shard2.stale_kills, 1, "the hang surfaces as a stale-kill");
    assert_eq!(shard2.outcome, Some(SchedOp::Done));

    // Segment markers attribute the work: every solve span carries its
    // (shard, attempt) provenance, and the killed shard's winning work
    // is tagged with the retry generation.
    assert!(
        !analysis.slowest.is_empty(),
        "solve spans made it into the trace"
    );
    assert!(analysis.slowest.iter().all(|s| s.provenance.is_some()));
    assert!(
        analysis
            .slowest
            .iter()
            .any(|s| s.provenance == Some((1, 1))),
        "shard 1's solves belong to attempt 1"
    );
}

/// Deterministically expands raw bits into a fault schedule over
/// `shards × attempts 0..=2` — about half the slots stay clean, the
/// rest draw a kind (and a kill point) from the bits. Pure function of
/// its inputs, so every proptest case is reproducible from its seed.
fn schedule_from_bits(shards: usize, bits: u64) -> FaultPlan {
    let mut faults = Vec::new();
    for shard in 0..shards {
        for attempt in 0..=2usize {
            let nibble = (bits >> (((shard * 3 + attempt) * 4) % 60)) & 0xF;
            let kind = match nibble {
                0..=7 => continue, // clean slot
                8 | 9 => FaultKind::Kill {
                    after_cells: (shard * 2 + attempt) % 5,
                },
                10 | 11 => FaultKind::Hang,
                12 | 13 => FaultKind::TruncateReport,
                _ => FaultKind::StaleHeartbeat,
            };
            faults.push(Fault {
                shard,
                attempt,
                kind,
            });
        }
    }
    FaultPlan { faults }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The convergence property, quantified: **any** shard split ×
    /// **any** campaign seed × **any** fault schedule either merges to
    /// the byte-identical single-process digest (schedule recoverable)
    /// or fails with the typed retries-exhausted protocol error
    /// (schedule dooms a shard). [`FaultPlan::dooms_some_shard`]
    /// predicts which, exactly — there is no third outcome.
    #[test]
    fn random_schedules_converge_or_fail_typed_never_lie(
        shards in 1usize..6,
        seed in 0u64..1_000,
        bits in 0u64..u64::MAX,
    ) {
        let plan = plan_of(shards, seed);
        let faults = schedule_from_bits(shards, bits);
        let doomed = faults.dooms_some_shard(SchedConfig::default().max_retries);
        let options = RunOptions { faults: faults.clone(), ..RunOptions::default() };
        match run_plan_with(&plan, &Workers::InProcess, &options) {
            Ok(merged) => {
                prop_assert!(
                    !doomed,
                    "{}: a doomed schedule produced an answer", faults.to_spec()
                );
                prop_assert_eq!(merged.digest(), baseline_digest(&plan));
            }
            Err(e) => {
                prop_assert!(
                    doomed,
                    "{}: recoverable schedule failed: {e}", faults.to_spec()
                );
                prop_assert!(
                    matches!(e, FleetdError::Protocol(_)),
                    "{}: wrong error class: {e}", faults.to_spec()
                );
                prop_assert!(
                    e.to_string().contains("retries exhausted"),
                    "{}: {e}", faults.to_spec()
                );
            }
        }
    }
}
