//! Deterministic merge of shard reports.
//!
//! The merge is a **replay**, not an approximation: because shards are
//! contiguous job ranges and every worker recorded its cell stream in
//! job order, folding the streams shard by shard through the engine's
//! [`FleetFold`] performs the *identical* sequential fold a
//! single-process `Fleet::run` would — same aggregates, same cell count,
//! same FNV cell checksum, bit for bit.
//!
//! Independently of that canonical route, the workers' mergeable
//! [`GroupState`]s are folded with `GroupState::merge_in_order` and
//! compared field-by-field against the replayed summaries
//! ([`GroupState::agrees_with`]). A divergence means a corrupted or
//! mismatched report and fails the merge — the determinism proof is not
//! assumed, it is checked on every merge.

use crate::error::FleetdError;
use crate::plan::ShardPlan;
use crate::shard::ShardReport;
use replica_engine::obs::Obs;
use replica_engine::{FleetFold, FleetReport, GroupState, Registry, SpecError};

/// Merges shard reports (any order; they are sorted by shard index)
/// into the campaign's full [`FleetReport`].
///
/// Validates, per report: the campaign fingerprint, the shard range
/// against the plan, the cell count, and the shard-local checksum
/// (recomputed from the cells). Validates globally: every planned shard
/// present exactly once, and the state-merge route agreeing with the
/// cell-replay route.
pub fn merge_reports(
    plan: &ShardPlan,
    reports: &[ShardReport],
) -> Result<FleetReport, FleetdError> {
    let mut ordered: Vec<&ShardReport> = reports.iter().collect();
    ordered.sort_by_key(|r| r.shard);
    if ordered.len() != plan.shards.len() {
        return Err(FleetdError::Protocol(format!(
            "expected {} shard reports, got {}",
            plan.shards.len(),
            ordered.len()
        )));
    }

    let registry = Registry::with_all();
    plan.campaign.validate(&registry)?;
    // Solver names as the registry's static keys, in campaign order —
    // cell rows are row-major in exactly this order.
    let solvers: Vec<&'static str> = plan
        .campaign
        .solvers
        .iter()
        .map(|name| {
            registry.get(name).map(|s| s.name()).ok_or_else(|| {
                FleetdError::Spec(SpecError::UnknownSolver {
                    name: name.clone(),
                    suggestion: None,
                })
            })
        })
        .collect::<Result<_, _>>()?;
    let reference = plan.campaign.fleet_config().resolved_reference();

    let mut fold = FleetFold::new(solvers.clone(), reference.clone());
    let mut merged_groups: Vec<GroupState> = Vec::new();

    for (manifest, report) in plan.shards.iter().zip(&ordered) {
        let context = format!("shard {}", report.shard);
        if report.fingerprint != plan.fingerprint {
            return Err(FleetdError::Protocol(format!(
                "{context}: campaign fingerprint {:016x} does not match the plan's {:016x}",
                report.fingerprint, plan.fingerprint
            )));
        }
        if (report.shard, report.start, report.end)
            != (manifest.shard, manifest.start, manifest.end)
        {
            return Err(FleetdError::Protocol(format!(
                "{context}: range {}..{} does not match the planned {}..{} (duplicate or \
                 missing shard?)",
                report.start, report.end, manifest.start, manifest.end
            )));
        }
        let expected_cells = manifest.len() * solvers.len();
        if report.cells.len() != expected_cells || report.cell_count != expected_cells {
            return Err(FleetdError::Protocol(format!(
                "{context}: {} recorded cells / {} counted, expected {expected_cells}",
                report.cells.len(),
                report.cell_count
            )));
        }

        // Canonical route: replay this shard's cells — through a
        // shard-local fold first (integrity: its checksum must reproduce
        // the worker's), then into the campaign-wide fold.
        let mut local = FleetFold::new(solvers.clone(), reference.clone());
        for (scenario, instance, row) in rows_of(report, &solvers)? {
            local.fold_row(scenario, instance, row.clone());
            fold.fold_row(scenario, instance, row);
        }
        if local.checksum() != report.checksum {
            return Err(FleetdError::Protocol(format!(
                "{context}: replayed checksum {:016x} != worker checksum {:016x} \
                 (corrupted report)",
                local.checksum(),
                report.checksum
            )));
        }

        // State route: merge the worker's group accumulators in shard
        // order, first-appearance ordering preserved.
        for group in &report.groups {
            match merged_groups
                .iter_mut()
                .find(|g| g.scenario == group.scenario && g.solver == group.solver)
            {
                Some(existing) => existing
                    .merge_in_order(group)
                    .map_err(FleetdError::Protocol)?,
                None => merged_groups.push(group.clone()),
            }
        }
    }

    let report = fold.finish();

    // The two routes must agree exactly (wall means within float
    // tolerance; see GroupState::agrees_with).
    if merged_groups.len() != report.summaries.len() {
        return Err(FleetdError::Protocol(format!(
            "state merge produced {} groups, cell replay {}",
            merged_groups.len(),
            report.summaries.len()
        )));
    }
    for (state, summary) in merged_groups.iter().zip(&report.summaries) {
        state.agrees_with(summary).map_err(FleetdError::Protocol)?;
    }
    Ok(report)
}

/// [`merge_reports`] behind the attempt fence: `winning[k]` is the
/// attempt generation the scheduler crowned for shard `k`, and only
/// that attempt's report may represent the shard. Zombie reports —
/// superseded attempts that finished late — are filtered out (merging
/// them *over* a retry is exactly the corruption the fence exists to
/// prevent); a shard whose winning attempt is missing, or that has no
/// winner at all, is a typed protocol error naming the shard and
/// attempt. The payload merge itself is [`merge_reports`] unchanged,
/// so fencing cannot perturb determinism: the survivors replay through
/// the same fold, checksums and cross-checks included.
pub fn merge_reports_fenced(
    plan: &ShardPlan,
    reports: &[ShardReport],
    winning: &[Option<usize>],
) -> Result<FleetReport, FleetdError> {
    if winning.len() != plan.shards.len() {
        return Err(FleetdError::Protocol(format!(
            "winning-attempt table covers {} shards, plan has {}",
            winning.len(),
            plan.shards.len()
        )));
    }
    let mut fenced = Vec::with_capacity(plan.shards.len());
    for (shard, expected) in winning.iter().enumerate() {
        let Some(attempt) = expected else {
            return Err(FleetdError::Protocol(format!(
                "shard {shard}: no winning attempt (retries exhausted?) — nothing to merge"
            )));
        };
        let report = reports
            .iter()
            .find(|r| r.shard == shard && r.attempt == *attempt)
            .ok_or_else(|| {
                FleetdError::Protocol(format!(
                    "shard {shard} attempt {attempt}: winning report missing from the pool"
                ))
            })?;
        fenced.push(report.clone());
    }
    merge_reports(plan, &fenced)
}

/// Iterates a shard report's cells as job rows `(scenario, instance,
/// row)`, validating row-major consistency as it goes.
#[allow(clippy::type_complexity)]
fn rows_of<'a>(
    report: &'a ShardReport,
    solvers: &[&'static str],
) -> Result<Vec<(&'a str, usize, Vec<(replica_engine::CellResult, f64)>)>, FleetdError> {
    let n = solvers.len();
    let mut rows = Vec::with_capacity(report.cells.len() / n);
    for chunk in report.cells.chunks(n) {
        let first = &chunk[0];
        let mut row = Vec::with_capacity(n);
        for (cell, expected_solver) in chunk.iter().zip(solvers) {
            if cell.scenario != first.scenario || cell.instance != first.instance {
                return Err(FleetdError::Protocol(format!(
                    "shard {}: cell row for {}#{} mixes in {}#{} (stream not row-major)",
                    report.shard, first.scenario, first.instance, cell.scenario, cell.instance
                )));
            }
            if cell.solver != *expected_solver {
                return Err(FleetdError::Protocol(format!(
                    "shard {}: cell solver {:?} out of order (expected {:?})",
                    report.shard, cell.solver, expected_solver
                )));
            }
            row.push((cell.result(), cell.wall));
        }
        rows.push((first.scenario.as_str(), first.instance, row));
    }
    Ok(rows)
}

/// Convenience for the common whole-pipeline case: plan, run every shard
/// in-process, merge. (The multi-process variant lives in
/// [`crate::coordinator`].)
pub fn run_sharded_in_process(plan: &ShardPlan) -> Result<FleetReport, FleetdError> {
    let reports: Vec<ShardReport> = (0..plan.shards.len())
        .map(|k| crate::worker::run_shard_observed(plan, k, &Obs::noop()))
        .collect::<Result<_, _>>()?;
    merge_reports(plan, &reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::run_shard_observed;
    use replica_engine::{Campaign, Fleet, Registry};

    fn tiny_plan(shards: usize) -> ShardPlan {
        let mut campaign = Campaign::from_set("standard", 12, 1, 9).unwrap();
        campaign.scenarios.truncate(3);
        campaign.instances_per_scenario = 2;
        campaign.solvers = vec!["greedy_power".into(), "dp_power".into()];
        ShardPlan::new(campaign, shards).unwrap()
    }

    fn single_process_digest(plan: &ShardPlan) -> String {
        let registry = Registry::with_all();
        let fleet = Fleet::new(&registry, plan.campaign.fleet_config());
        // Deliberately the *eager* path: the merged lazy-worker reports
        // must match a run over the materialized job list bit for bit.
        fleet.run(&plan.campaign.jobs()[..], &Obs::noop()).digest()
    }

    #[test]
    fn merged_report_is_byte_identical_to_single_process() {
        for shards in [1, 2, 4] {
            let plan = tiny_plan(shards);
            let merged = run_sharded_in_process(&plan).unwrap();
            assert_eq!(
                merged.digest(),
                single_process_digest(&plan),
                "{shards}-way merge must match the unsharded run"
            );
        }
    }

    #[test]
    fn merge_accepts_any_report_order() {
        let plan = tiny_plan(3);
        let mut reports: Vec<ShardReport> = (0..3)
            .map(|k| run_shard_observed(&plan, k, &Obs::noop()).unwrap())
            .collect();
        reports.reverse();
        let merged = merge_reports(&plan, &reports).unwrap();
        assert_eq!(merged.digest(), single_process_digest(&plan));
    }

    #[test]
    fn merge_rejects_bad_reports() {
        let plan = tiny_plan(2);
        let good: Vec<ShardReport> = (0..2)
            .map(|k| run_shard_observed(&plan, k, &Obs::noop()).unwrap())
            .collect();

        // Missing shard.
        assert!(merge_reports(&plan, &good[..1]).is_err());

        // Duplicated shard.
        let dup = vec![good[0].clone(), good[0].clone()];
        assert!(merge_reports(&plan, &dup).is_err());

        // Foreign fingerprint.
        let mut foreign = good.clone();
        foreign[1].fingerprint ^= 1;
        assert!(merge_reports(&plan, &foreign).is_err());

        // Tampered cell (checksum catches it).
        let mut tampered = good.clone();
        if let crate::shard::CellStatus::Solved { power, .. } = &mut tampered[0].cells[0].status {
            *power += 1.0;
        }
        assert!(merge_reports(&plan, &tampered).is_err());

        // Tampered group state (cross-check catches it).
        let mut bad_state = good.clone();
        bad_state[0].groups[0].power.push(1.0);
        assert!(merge_reports(&plan, &bad_state).is_err());

        // The originals still merge.
        assert!(merge_reports(&plan, &good).is_ok());
    }

    #[test]
    fn fenced_merge_keeps_zombies_out_and_names_what_is_missing() {
        let plan = tiny_plan(2);
        let good: Vec<ShardReport> = (0..2)
            .map(|k| run_shard_observed(&plan, k, &Obs::noop()).unwrap())
            .collect();

        // Shard 0's attempt 0 became a zombie: it finished late *and*
        // its payload is corrupt. The retry (attempt 1) is clean and
        // crowned. The pool holds both.
        let mut zombie = good[0].clone();
        if let crate::shard::CellStatus::Solved { power, .. } = &mut zombie.cells[0].status {
            *power += 100.0;
        }
        let mut winner = good[0].clone();
        winner.attempt = 1;
        let pool = vec![zombie, winner, good[1].clone()];

        // The fence picks the crowned attempt: the corrupt zombie is
        // invisible and the merge is byte-identical to single-process.
        let merged = merge_reports_fenced(&plan, &pool, &[Some(1), Some(0)]).unwrap();
        assert_eq!(merged.digest(), single_process_digest(&plan));

        // Crowning the zombie instead drags the corruption in — and the
        // ordinary integrity checks catch it (checksum mismatch).
        assert!(merge_reports_fenced(&plan, &pool, &[Some(0), Some(0)]).is_err());

        // A shard with no winner, or a winner whose report is missing,
        // is a typed protocol error naming shard and attempt.
        let err = merge_reports_fenced(&plan, &pool, &[None, Some(0)])
            .err()
            .expect("a shard with no winner cannot merge");
        assert!(matches!(err, FleetdError::Protocol(_)));
        assert!(err.to_string().contains("shard 0"), "{err}");
        let err = merge_reports_fenced(&plan, &pool, &[Some(2), Some(0)])
            .err()
            .expect("a missing winning report cannot merge");
        assert!(err.to_string().contains("shard 0 attempt 2"), "{err}");
        // A winning table of the wrong shape never merges anything.
        assert!(merge_reports_fenced(&plan, &pool, &[Some(1)]).is_err());
    }
}
