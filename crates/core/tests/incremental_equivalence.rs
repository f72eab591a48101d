//! Incremental-vs-fresh equivalence battery.
//!
//! [`IncrementalDp`] promises that re-solving after demand deltas — having
//! recomputed only the dirty ancestor closure — returns the *same bits* as
//! a from-scratch `dp_power` solve of the mutated instance: the same
//! placement, and `to_bits`-equal cost and power. This battery pins that
//! promise under adversarial conditions:
//!
//! * random topologies, mode sets, and pre-existing replica sets;
//! * random delta sequences (including no-op writes and zeroed demand)
//!   applied in epochs of varying width, so dirty closures range from one
//!   root path to most of the tree;
//! * finite mid-frontier budgets as well as unconstrained epochs;
//! * the from-scratch oracle solved through one **dirty, long-lived**
//!   [`PrunedScratch`] shared across all proptest cases on the thread —
//!   exactly the arena-reuse regime the fleet runs — so bit-equality also
//!   re-proves that scratch history is invisible;
//! * interleaved [`IncrementalDp::greedy_fallback`] epochs, which must
//!   leave the exact state reconcilable (dirty marks intact) and answer
//!   exactly what the batch `greedy_power::solve_in` answers on the same
//!   demand.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_core::dp_power_pruned::{solve_min_power_bounded_cost_in, PrunedScratch};
use replica_core::{greedy_power, IncrementalDp, SolveArena};
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
use replica_tree::{generate, ClientId, GeneratorConfig};
use std::cell::RefCell;

thread_local! {
    /// One from-scratch scratch across every case — deliberately dirty.
    static SCRATCH: RefCell<PrunedScratch> = RefCell::new(PrunedScratch::default());
}

fn fresh_solve(
    instance: &Instance,
    bound: f64,
) -> Result<(replica_model::Placement, f64, f64), ()> {
    SCRATCH.with(|cell| {
        solve_min_power_bounded_cost_in(instance, bound, &mut cell.borrow_mut()).map_err(|_| ())
    })
}

/// Instance parameters kept as raw draws so shrinking stays meaningful.
fn arbitrary_instance() -> impl Strategy<Value = Instance> {
    (2usize..40, 0usize..3, 0usize..3, 0u64..10_000).prop_map(
        |(nodes, mode_choice, pre_choice, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let tree = generate::random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
            let capacities = [vec![10u64], vec![5, 10], vec![4, 7, 10]][mode_choice].clone();
            let modes = ModeSet::new(capacities).unwrap();
            let pre_count = [0, 1, nodes / 3][pre_choice].min(nodes);
            let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
            let power = PowerModel::paper_experiment3(&modes);
            let orig_mode = seed as usize % modes.count();
            let cost = CostModel::uniform(modes.count(), 0.1, 0.01, 0.001);
            Instance::builder(tree)
                .modes(modes)
                .pre_existing(PreExisting::at_mode(pre, orig_mode))
                .cost(cost)
                .power(power)
                .build()
                .unwrap()
        },
    )
}

/// Epochs of `(client selector, new volume)` deltas. Selectors are reduced
/// modulo the instance's client count at apply time; volumes include 0
/// (demand vanishing) and repeats (no-op writes).
fn delta_epochs() -> impl Strategy<Value = Vec<Vec<(u32, u64)>>> {
    prop::collection::vec(prop::collection::vec((0u32..10_000, 0u64..6), 0..8), 1..6)
}

/// One incremental epoch vs one from-scratch solve, bit for bit.
fn assert_epoch_matches(dp: &mut IncrementalDp, bound: f64) {
    let fresh = fresh_solve(dp.instance(), bound);
    let incr = dp.resolve(bound);
    match (fresh, incr) {
        (Ok((fp, fc, fw)), Ok((ip, ic, iw))) => {
            assert_eq!(fp, ip, "placement diverged at bound {bound}");
            assert_eq!(fc.to_bits(), ic.to_bits(), "cost bits at bound {bound}");
            assert_eq!(fw.to_bits(), iw.to_bits(), "power bits at bound {bound}");
        }
        (Err(()), Err(_)) => {}
        (f, i) => panic!(
            "feasibility diverged at bound {bound}: fresh ok={} incremental ok={}",
            f.is_ok(),
            i.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random delta sequences on random trees: after every epoch the
    /// incremental solve is bit-identical to a fresh `dp_power` solve of
    /// the mutated instance (unconstrained epochs).
    #[test]
    fn incremental_matches_fresh_after_every_epoch(
        instance in arbitrary_instance(),
        epochs in delta_epochs(),
    ) {
        let clients = instance.tree().client_count();
        prop_assume!(clients > 0);
        let mut dp = IncrementalDp::new(instance);
        assert_epoch_matches(&mut dp, f64::INFINITY);
        for epoch in epochs {
            for (pick, volume) in epoch {
                let c = ClientId::from_index(pick as usize % clients);
                dp.set_requests(c, volume);
            }
            assert_epoch_matches(&mut dp, f64::INFINITY);
        }
    }

    /// Same, under a mid-frontier budget: the bound is re-derived each
    /// epoch from the unconstrained optimum, so the filter genuinely bites
    /// while staying feasible when the instance is.
    #[test]
    fn incremental_matches_fresh_under_budgets(
        instance in arbitrary_instance(),
        epochs in delta_epochs(),
    ) {
        let clients = instance.tree().client_count();
        prop_assume!(clients > 0);
        let mut dp = IncrementalDp::new(instance);
        for epoch in epochs {
            for (pick, volume) in epoch {
                let c = ClientId::from_index(pick as usize % clients);
                dp.set_requests(c, volume);
            }
            // Probe unconstrained first (itself bit-checked), then squeeze.
            assert_epoch_matches(&mut dp, f64::INFINITY);
            if let Ok((_, cost, _)) = fresh_solve(dp.instance(), f64::INFINITY) {
                assert_epoch_matches(&mut dp, cost);
                assert_epoch_matches(&mut dp, cost * 0.6);
                assert_epoch_matches(&mut dp, 0.0);
            }
        }
    }

    /// Greedy-fallback epochs interleaved with exact ones: the fallback
    /// answers from the live layout, never clears dirty marks, and the
    /// next exact epoch still reconciles bit-identically.
    #[test]
    fn greedy_fallback_epochs_do_not_perturb_exact_state(
        instance in arbitrary_instance(),
        epochs in delta_epochs(),
    ) {
        let clients = instance.tree().client_count();
        prop_assume!(clients > 0);
        let mut dp = IncrementalDp::new(instance);
        for (i, epoch) in epochs.into_iter().enumerate() {
            for (pick, volume) in epoch {
                let c = ClientId::from_index(pick as usize % clients);
                dp.set_requests(c, volume);
            }
            if i % 2 == 0 {
                let dirty = dp.dirty_len();
                let fallback = dp.greedy_fallback(f64::INFINITY);
                assert_eq!(dp.dirty_len(), dirty, "fallback must not clear marks");
                // The fallback is the batch `GR` sweep on the live demand.
                let batch = greedy_power::solve_in(
                    dp.instance(),
                    f64::INFINITY,
                    &mut SolveArena::default(),
                );
                match (fallback, batch) {
                    (Ok((placement, cost, power)), Ok(point)) => {
                        prop_assert_eq!(placement, point.placement);
                        prop_assert_eq!(cost.to_bits(), point.cost.to_bits());
                        prop_assert_eq!(power.to_bits(), point.power.to_bits());
                    }
                    (Err(_), Err(_)) => {}
                    other => prop_assert!(false, "feasibility diverged: {:?}", other),
                }
            } else {
                assert_epoch_matches(&mut dp, f64::INFINITY);
            }
        }
        // Whatever the interleaving left behind, one exact epoch restores
        // bit-exact agreement.
        assert_epoch_matches(&mut dp, f64::INFINITY);
    }
}
