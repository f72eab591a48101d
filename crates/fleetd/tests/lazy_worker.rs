//! The `O(shard)` worker contract, counter-backed:
//!
//! a `fleetd` worker solving shard `k` of `n` constructs **exactly
//! `len(shard k)` jobs** — never the whole campaign — and the reports of
//! those lazy workers still merge to a digest byte-identical to a fresh
//! single-process `Fleet::run` over the eagerly materialized job list.
//! This is the regression fence around the indexed lazy `JobSpace`
//! refactor: if job generation ever becomes `O(campaign)` per worker
//! again (or the lazy path drifts from the eager one), this suite fails.

use replica_engine::obs::Obs;
use replica_engine::{CountingSpace, Fleet, JobSpace, Registry};
use replica_fleetd::merge::merge_reports;
use replica_fleetd::worker::{run_shard_observed, run_shard_on_attempt};
use replica_fleetd::{Campaign, ShardPlan, ShardReport};

/// 3 scenarios × 4 instances = 12 jobs, cheap solver pair.
fn plan(shards: usize) -> ShardPlan {
    let mut campaign = Campaign::from_set("standard", 12, 4, 0x0B5E55ED).unwrap();
    campaign.scenarios.truncate(3);
    campaign.solvers = vec!["greedy_power".into(), "dp_power".into()];
    campaign.batch_jobs = 2;
    ShardPlan::new(campaign, shards).unwrap()
}

/// Runs shard `shard` of `plan` as attempt 0 over an instrumented `space`.
fn run_counted(plan: &ShardPlan, shard: usize, space: &impl JobSpace) -> ShardReport {
    run_shard_on_attempt(plan, shard, 0, space, &Obs::noop(), None)
        .unwrap()
        .expect("no cancel token given")
}

#[test]
fn workers_construct_exactly_their_shard_and_merge_byte_identically() {
    let plan = plan(5);
    let job_count = plan.campaign.job_count();
    assert_eq!(job_count, 12);

    let mut reports: Vec<ShardReport> = Vec::new();
    for manifest in &plan.shards {
        let counting = CountingSpace::new(plan.campaign.space());
        let report = run_counted(&plan, manifest.shard, &counting);
        assert_eq!(
            counting.generated(),
            manifest.len(),
            "shard {} of {} constructed {} jobs; its manifest holds {} \
             (worker generation must be O(shard), not O(campaign) = {})",
            manifest.shard,
            plan.shards.len(),
            counting.generated(),
            manifest.len(),
            job_count
        );
        reports.push(report);
    }

    // The shard sizes partition the campaign: total constructions across
    // all workers equal one campaign, with no shard paying for another.
    let merged = merge_reports(&plan, &reports).unwrap();

    // Acceptance criterion: the merged digest of the lazy workers is
    // byte-identical to a fresh single-process `Fleet::run` over the
    // eagerly materialized job list.
    let registry = Registry::with_all();
    let fleet = Fleet::new(&registry, plan.campaign.fleet_config());
    let single = fleet.run(&plan.campaign.jobs()[..], &Obs::noop());
    assert_eq!(merged.digest(), single.digest());
    assert_eq!(merged.cell_count, single.cell_count);
    assert_eq!(merged.cell_checksum, single.cell_checksum);
    assert_eq!(merged.table_deterministic(), single.table_deterministic());
}

#[test]
fn counted_and_plain_worker_paths_agree() {
    let plan = plan(3);
    for manifest in &plan.shards {
        let plain = run_shard_observed(&plan, manifest.shard, &Obs::noop()).unwrap();
        let counting = CountingSpace::new(plan.campaign.space());
        let counted = run_counted(&plan, manifest.shard, &counting);
        assert_eq!(plain.checksum, counted.checksum);
        assert_eq!(plain.cell_count, counted.cell_count);
    }
}

#[test]
fn run_shard_on_rejects_a_space_of_the_wrong_size() {
    let plan = plan(2);
    let mut other = plan.campaign.clone();
    other.instances_per_scenario += 1;
    // Campaign::space borrows `other`, which outlives the call.
    let wrong = other.space();
    assert!(wrong.len() != plan.campaign.job_count());
    let err = run_shard_on_attempt(&plan, 0, 0, &wrong, &Obs::noop(), None).unwrap_err();
    assert!(err.to_string().contains("job space has"), "{err}");
}

#[test]
fn empty_tail_shards_construct_nothing() {
    // More shards than jobs: the tail manifests are empty and their
    // workers must not generate a single job.
    let plan = plan(15);
    let empty: Vec<_> = plan.shards.iter().filter(|m| m.is_empty()).collect();
    assert!(
        !empty.is_empty(),
        "15 shards over 12 jobs leave empty tails"
    );
    for manifest in empty {
        let counting = CountingSpace::new(plan.campaign.space());
        let report = run_counted(&plan, manifest.shard, &counting);
        assert_eq!(counting.generated(), 0);
        assert_eq!(report.cell_count, 0);
    }
}
