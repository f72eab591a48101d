//! Indexed lazy job spaces: `index → FleetJob` without materializing
//! the campaign.
//!
//! A fleet's job list is fully determined by its scenarios, its seed and
//! the per-scenario instance count — every job is a **pure function of
//! its global index**. The [`JobSpace`] trait makes that function the
//! primary currency between [`scenarios`](crate::scenarios), the
//! [`Fleet`](crate::fleet::Fleet) runner and `replica-fleetd`, replacing
//! the eager `Vec<FleetJob>` construction that made shard-worker startup
//! `O(campaign)` while solving was `O(shard)`.
//!
//! The contract has two halves, and the equivalence suite
//! (`crates/engine/tests/jobspace_equivalence.rs`) pins both:
//!
//! 1. **Index identity** — [`JobSpace::job`]`(i)` is identical,
//!    field-for-field, to the `i`-th entry of the eagerly materialized
//!    job list ([`ScenarioSpace::materialize`]). Instance generation
//!    seeds derive
//!    from `(scenario name, fleet seed, index-within-scenario)` and the
//!    per-job solver seed from the **global** index
//!    ([`seeding::mix`](crate::seeding::mix)`(fleet_seed, i)`) — never
//!    from enumeration order — so it does not matter who generates a job,
//!    when, or in which order.
//! 2. **Range locality** — the fleet's shard entry points call `job(i)`
//!    only for `i` inside the requested range, one streaming batch at a
//!    time. A shard worker therefore constructs exactly its own jobs
//!    (`O(shard)` time and memory), and any contiguous split of the
//!    space merges back to the byte-identical report
//!    ([`FleetFold`](crate::fleet::FleetFold) replays the same
//!    sequential fold).
//!
//! [`CountingSpace`] wraps any space with a generation counter; the
//! `O(shard)` regression tests assert through it that workers never
//! touch jobs outside their manifest.

use crate::fleet::FleetJob;
use crate::scenarios::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A deterministic, indexable job universe: `len()` jobs, each a pure
/// function of its global index.
///
/// Implementations must be cheap to query out of order and from many
/// threads at once (`Sync`); the fleet generates each streaming batch's
/// jobs in parallel. `job(i)` must return the same value for the same
/// `i` on every call — the determinism contract of fleets, shards and
/// merges rests on it.
pub trait JobSpace: Sync {
    /// Number of jobs in the space.
    fn len(&self) -> usize;

    /// Builds job `index` (global job order).
    ///
    /// # Panics
    ///
    /// Implementations panic when `index >= len()`.
    fn job(&self, index: usize) -> FleetJob;

    /// Whether the space has no jobs.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An eagerly materialized job list is itself a (trivial) job space:
/// `job(i)` clones entry `i`. Pre-built lists therefore run through the
/// same fleet entry points, at the cost of one instance clone per solve
/// batch.
impl JobSpace for [FleetJob] {
    fn len(&self) -> usize {
        self.len()
    }

    fn job(&self, index: usize) -> FleetJob {
        self[index].clone()
    }
}

/// The lazy scenario-fleet job space: `scenarios × per_scenario` jobs in
/// scenario-major order (all instances of scenario 0, then scenario 1,
/// …), generated on demand.
///
/// Global index `i` maps to scenario `i / per_scenario`, within-scenario
/// index `i % per_scenario`; the instance is
/// [`Scenario::instance`]`(seed, within)` — exactly what
/// [`ScenarioSpace::materialize`] builds eagerly, without building it.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpace<'a> {
    scenarios: &'a [Scenario],
    seed: u64,
    per_scenario: usize,
}

impl<'a> ScenarioSpace<'a> {
    /// The job space of `per_scenario` instances of every scenario,
    /// seeded by `seed`.
    pub fn new(scenarios: &'a [Scenario], seed: u64, per_scenario: usize) -> Self {
        ScenarioSpace {
            scenarios,
            seed,
            per_scenario,
        }
    }

    /// The fleet seed driving instance generation.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Instances per scenario.
    pub fn per_scenario(&self) -> usize {
        self.per_scenario
    }

    /// The scenario list, in job order.
    pub fn scenarios(&self) -> &'a [Scenario] {
        self.scenarios
    }

    /// Materializes the whole space as an eager job list (the historical
    /// representation; `O(campaign)` time and memory). Prefer handing
    /// the space itself to the fleet.
    pub fn materialize(&self) -> Vec<FleetJob> {
        (0..self.len()).map(|i| self.job(i)).collect()
    }
}

impl JobSpace for ScenarioSpace<'_> {
    fn len(&self) -> usize {
        self.scenarios.len() * self.per_scenario
    }

    fn job(&self, index: usize) -> FleetJob {
        assert!(
            index < self.len(),
            "job index {index} outside the space (len {})",
            self.len()
        );
        let scenario = &self.scenarios[index / self.per_scenario];
        let within = index % self.per_scenario;
        FleetJob {
            scenario: scenario.name.clone(),
            index: within,
            instance: scenario.instance(self.seed, within),
        }
    }
}

/// A [`JobSpace`] wrapper counting how many jobs are actually
/// constructed — the instrument behind the `O(shard)` regression tests:
/// a worker solving shard `k` must generate exactly `len(shard k)` jobs,
/// never the whole campaign.
pub struct CountingSpace<S> {
    inner: S,
    generated: AtomicUsize,
}

impl<S: JobSpace> CountingSpace<S> {
    /// Wraps `inner` with a fresh counter.
    pub fn new(inner: S) -> Self {
        CountingSpace {
            inner,
            generated: AtomicUsize::new(0),
        }
    }

    /// Number of `job()` calls observed so far.
    pub fn generated(&self) -> usize {
        self.generated.load(Ordering::Relaxed)
    }

    /// Unwraps the inner space.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: JobSpace> JobSpace for CountingSpace<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn job(&self, index: usize) -> FleetJob {
        self.generated.fetch_add(1, Ordering::Relaxed);
        self.inner.job(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Demand, Topology};

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::new(Topology::High, Demand::Uniform, 8),
            Scenario::new(Topology::Star, Demand::Skewed, 8),
        ]
    }

    #[test]
    fn scenario_space_indexes_scenario_major() {
        let scenarios = scenarios();
        let space = ScenarioSpace::new(&scenarios, 3, 2);
        assert_eq!(space.len(), 4);
        assert!(!space.is_empty());
        assert_eq!(space.job(0).scenario, scenarios[0].name);
        assert_eq!(space.job(0).index, 0);
        assert_eq!(space.job(1).index, 1);
        assert_eq!(space.job(2).scenario, scenarios[1].name);
        assert_eq!(space.job(2).index, 0);
    }

    #[test]
    fn lazy_jobs_match_the_materialized_list() {
        let scenarios = scenarios();
        let space = ScenarioSpace::new(&scenarios, 11, 3);
        let eager = space.materialize();
        assert_eq!(eager.len(), space.len());
        for (i, job) in eager.iter().enumerate() {
            let lazy = space.job(i);
            assert_eq!(lazy.scenario, job.scenario);
            assert_eq!(lazy.index, job.index);
            assert_eq!(
                serde_json::to_string(lazy.instance.tree()).unwrap(),
                serde_json::to_string(job.instance.tree()).unwrap(),
                "job {i}: lazy and eager instances must be identical"
            );
        }
    }

    #[test]
    fn slice_adapter_replays_entries() {
        let scenarios = scenarios();
        let jobs = ScenarioSpace::new(&scenarios, 5, 2).materialize();
        let slice: &[FleetJob] = &jobs;
        assert_eq!(JobSpace::len(slice), jobs.len());
        let job = slice.job(3);
        assert_eq!(job.scenario, jobs[3].scenario);
        assert_eq!(job.index, jobs[3].index);
    }

    #[test]
    fn counting_space_counts_constructions() {
        let scenarios = scenarios();
        let space = CountingSpace::new(ScenarioSpace::new(&scenarios, 7, 4));
        assert_eq!(space.len(), 8);
        assert_eq!(space.generated(), 0);
        let _ = space.job(2);
        let _ = space.job(2);
        let _ = space.job(7);
        assert_eq!(space.generated(), 3);
        assert_eq!(space.into_inner().len(), 8);
    }

    #[test]
    #[should_panic(expected = "outside the space")]
    fn out_of_range_index_panics() {
        let scenarios = scenarios();
        let space = ScenarioSpace::new(&scenarios, 1, 1);
        let _ = space.job(2);
    }

    #[test]
    fn empty_space_has_no_jobs() {
        let scenarios = scenarios();
        let space = ScenarioSpace::new(&scenarios, 1, 0);
        assert_eq!(space.len(), 0);
        assert!(space.is_empty());
    }
}
