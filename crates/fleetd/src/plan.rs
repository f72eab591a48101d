//! The shard planner: splitting a campaign's deterministic job space
//! into contiguous shard manifests.
//!
//! Shards are **contiguous ranges in job order** — that is the whole
//! determinism story. Because the sequential fold of a fleet run is a
//! left-fold over jobs, any partition of the job order into consecutive
//! ranges can be replayed range by range to reproduce the identical
//! fold, and the merge never has to reorder anything. Near-equal sizing
//! (`±1` job) keeps workers balanced; shard counts larger than the job
//! count simply produce empty tail shards, which merge as no-ops.

use crate::error::FleetdError;
use replica_engine::Campaign;
use serde::{Deserialize, Serialize};

/// One shard's slice of the job space: jobs `start..end` in job order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardManifest {
    /// Shard index (`0..shard_count`, also the merge order).
    pub shard: usize,
    /// First job (global index, inclusive).
    pub start: usize,
    /// Past-the-end job (global index, exclusive).
    pub end: usize,
}

impl ShardManifest {
    /// Number of jobs in this shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard has no jobs (possible when `shard_count`
    /// exceeds the job count).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// A planned campaign: the campaign itself plus its shard split and the
/// campaign fingerprint every shard report must echo.
///
/// Deserialization checks the split: a plan read from disk whose
/// `shards` are not exactly [`plan_shards`] of its campaign (at least
/// one shard) is rejected with a [`FleetdError::Protocol`] message, so a
/// tampered range never reaches a worker.
#[derive(Clone, Debug, Serialize, Deserialize)]
#[serde(try_from = "UncheckedPlan")]
pub struct ShardPlan {
    /// The campaign being sharded.
    pub campaign: Campaign,
    /// [`Campaign::fingerprint`] at planning time.
    pub fingerprint: u64,
    /// Contiguous shard manifests, in shard (= job) order.
    pub shards: Vec<ShardManifest>,
}

/// The wire form of a [`ShardPlan`] before its split is checked.
#[derive(Deserialize)]
struct UncheckedPlan {
    campaign: Campaign,
    fingerprint: u64,
    shards: Vec<ShardManifest>,
}

impl TryFrom<UncheckedPlan> for ShardPlan {
    type Error = FleetdError;

    fn try_from(plan: UncheckedPlan) -> Result<ShardPlan, FleetdError> {
        let jobs = plan.campaign.job_count();
        if plan.shards.is_empty() || plan.shards != plan_shards(jobs, plan.shards.len()) {
            return Err(FleetdError::Protocol(format!(
                "plan shards are not the contiguous {}-way split of the campaign's {jobs} jobs (corrupted plan?)",
                plan.shards.len()
            )));
        }
        Ok(ShardPlan {
            campaign: plan.campaign,
            fingerprint: plan.fingerprint,
            shards: plan.shards,
        })
    }
}

impl ShardPlan {
    /// Plans `shard_count` contiguous shards over `campaign`'s job space.
    pub fn new(campaign: Campaign, shard_count: usize) -> Result<ShardPlan, FleetdError> {
        if shard_count == 0 {
            return Err(FleetdError::Usage("shard count must be at least 1".into()));
        }
        let fingerprint = campaign.fingerprint();
        let shards = plan_shards(campaign.job_count(), shard_count);
        Ok(ShardPlan {
            campaign,
            fingerprint,
            shards,
        })
    }

    /// Number of planned shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The manifest of shard `shard`, as a typed protocol error when
    /// out of range (the supervisor and workers share this check).
    pub fn manifest(&self, shard: usize) -> Result<&ShardManifest, FleetdError> {
        self.shards.get(shard).ok_or_else(|| {
            FleetdError::Protocol(format!(
                "shard {shard} out of range (plan has {})",
                self.shards.len()
            ))
        })
    }
}

/// Splits `0..job_count` into `shard_count` contiguous ranges whose
/// sizes differ by at most one job (the first `job_count % shard_count`
/// shards take the extra job).
pub fn plan_shards(job_count: usize, shard_count: usize) -> Vec<ShardManifest> {
    assert!(shard_count > 0, "shard count must be at least 1");
    let base = job_count / shard_count;
    let extra = job_count % shard_count;
    let mut start = 0;
    (0..shard_count)
        .map(|shard| {
            let len = base + usize::from(shard < extra);
            let manifest = ShardManifest {
                shard,
                start,
                end: start + len,
            };
            start += len;
            manifest
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shards_partition_the_job_space_contiguously() {
        for (jobs, shards) in [
            (10, 1),
            (10, 3),
            (10, 10),
            (10, 13),
            (1, 4),
            (0, 2),
            (97, 8),
        ] {
            let plan = plan_shards(jobs, shards);
            assert_eq!(plan.len(), shards);
            assert_eq!(plan[0].start, 0);
            assert_eq!(plan[shards - 1].end, jobs);
            for pair in plan.windows(2) {
                assert_eq!(pair[0].end, pair[1].start, "contiguous in job order");
            }
            let sizes: Vec<usize> = plan.iter().map(ShardManifest::len).collect();
            let (min, max) = (
                sizes.iter().copied().min().unwrap(),
                sizes.iter().copied().max().unwrap(),
            );
            assert!(max - min <= 1, "near-equal split: {sizes:?}");
        }
    }

    #[test]
    fn plan_round_trips_and_pins_fingerprint() {
        let campaign = Campaign::from_set("standard", 12, 2, 5).unwrap();
        let plan = ShardPlan::new(campaign.clone(), 4).unwrap();
        assert_eq!(plan.fingerprint, campaign.fingerprint());
        let json = serde_json::to_string(&plan).unwrap();
        let back: ShardPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back.shards, plan.shards);
        assert_eq!(back.fingerprint, plan.fingerprint);
        assert_eq!(back.campaign.fingerprint(), plan.fingerprint);
        assert!(ShardPlan::new(campaign, 0).is_err());
    }

    #[test]
    fn tampered_shard_ranges_are_rejected_on_load() {
        let plan = ShardPlan::new(Campaign::from_set("standard", 12, 2, 5).unwrap(), 3).unwrap();
        let jobs = plan.campaign.job_count();
        let reload =
            |p: &ShardPlan| serde_json::from_str::<ShardPlan>(&serde_json::to_string(p).unwrap());
        assert!(reload(&plan).is_ok(), "an untouched plan loads");
        let mut past_end = plan.clone();
        past_end.shards[1].end = 1_000_000;
        let mut reversed = plan.clone();
        reversed.shards[1].start = reversed.shards[1].end + 1;
        let mut empty = plan.clone();
        empty.shards.clear();
        for (what, tampered) in [
            ("end past the job count", past_end),
            ("start > end", reversed),
            ("no shards", empty),
        ] {
            let err = reload(&tampered).expect_err(what).to_string();
            assert!(err.contains("plan shards are not"), "{what}: {err}");
        }
        // The typed error itself, before serde wraps it.
        let mut raw = UncheckedPlan {
            campaign: plan.campaign.clone(),
            fingerprint: plan.fingerprint,
            shards: plan.shards.clone(),
        };
        raw.shards[2].end = jobs + 1;
        let err = ShardPlan::try_from(raw).unwrap_err();
        assert!(matches!(err, FleetdError::Protocol(_)), "{err}");
        assert_eq!(err.exit_code(), 1);
    }
}
