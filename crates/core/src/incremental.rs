//! Incremental pruned power DP — re-solving under streaming demand churn.
//!
//! The batch solvers recompute every node's Pareto table on each call, but
//! table `p` is a *pure function of subtree(p)*: it depends only on the
//! children's tables, the direct client load at `p`, and the per-server
//! weight arrays (which depend on the cost/power models and the
//! pre-existing set, none of which change while demand drifts). A demand
//! update at node `q` therefore invalidates exactly `q` and its ancestors —
//! the root path — and every other table can be reused **verbatim**.
//!
//! [`IncrementalDp`] exploits this. It owns the instance and embeds the
//! batch solver's [`PrunedScratch`] (layout, weights, merge buffers,
//! tables) plus the fold prefixes of every position. [`IncrementalDp::new`]
//! runs the same full forward pass as
//! [`PrunedPowerDp::run_in`](crate::dp_power_pruned::PrunedPowerDp::run_in).
//! After that the solver keeps the [`FlatTree`](replica_tree::FlatTree)
//! demand snapshot fresh with
//! [`FlatTree::refresh_demand`](replica_tree::FlatTree::refresh_demand)
//! (exact `u64` delta propagation, identical to a rebuild) and marks
//! touched positions in a [`DirtySet`].
//!
//! [`IncrementalDp::resolve`] sweeps the ancestor-closed dirty set in
//! ascending post order through the batch solver's one forward step,
//! restarting each fold at the first child whose table changed. It then
//! rescans the root and runs the batch solver's one backtrack over the
//! cached fold prefixes. Untouched children feed the recompute
//! bit-identical inputs, so by induction every recomputed table — and
//! hence the root scan, the budget filter, and the backtracked placement
//! — is **bit-identical to a from-scratch solve**. This is not a
//! tolerance claim; the equivalence battery
//! (`tests/incremental_equivalence.rs`) pins `to_bits` equality on cost
//! and power plus placement equality after every epoch. On top of the
//! shared backtrack, `resolve` keeps the last placement and skips every
//! subtree whose tables and target are unchanged since it was produced.
//!
//! When an epoch dirties a large fraction of the tree, the incremental
//! recompute approaches a full solve. For latency-bound callers
//! [`IncrementalDp::greedy_fallback`] answers with the paper's
//! capacity-swept greedy (`GR` of §5.2) through the same sweep kernel as
//! [`greedy_power::solve_in`], run on the already-fresh flat layout: no
//! rebuild, no table work. It leaves the dirty marks in place, so the next
//! exact [`IncrementalDp::resolve`] reconciles everything that accumulated
//! since the last DP epoch.

use crate::dp_power_pruned::{
    backtrack, best_candidate_within, compute_position, deletion_constant, scan_root, DpView,
    PrunedCandidate, PrunedScratch, Triple,
};
use crate::greedy::GreedyScratch;
use crate::greedy_power;
use replica_model::{Instance, ModelError, Placement};
use replica_tree::{ClientId, DirtySet};

/// A persistent pruned-DP solver over one instance with mutable demand.
///
/// ```
/// use replica_core::IncrementalDp;
/// use replica_model::{CostModel, Instance, ModeSet, PowerModel};
/// use replica_tree::TreeBuilder;
///
/// let mut b = TreeBuilder::new();
/// let root = b.root();
/// let a = b.add_child(root);
/// let k = b.add_client(a, 4);
/// let instance = Instance::builder(b.build().unwrap())
///     .modes(ModeSet::new(vec![5, 10]).unwrap())
///     .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
///     .power(PowerModel::new(10.0, 1.0))
///     .build()
///     .unwrap();
///
/// let mut dp = IncrementalDp::new(instance);
/// let (_, cost0, _) = dp.resolve(f64::INFINITY).unwrap();
/// dp.set_requests(k, 9);
/// let (_, cost1, _) = dp.resolve(f64::INFINITY).unwrap();
/// assert!(cost0 > 0.0 && cost1 > 0.0);
/// assert_eq!(dp.last_recomputed(), 2); // a + root, nothing else
/// ```
pub struct IncrementalDp {
    instance: Instance,
    /// The layout, weights, merge buffers and tables, shared with the
    /// batch solver. `pruned.tables[p]` is current except at dirty
    /// positions.
    pruned: PrunedScratch,
    /// The fold prefixes of every position (see `compute_position`). They
    /// let a recompute restart at the first changed child instead of
    /// refolding every child, and they are the backtrack's input.
    prefix: Vec<Vec<Triple>>,
    delete_constant: f64,
    dirty: DirtySet,
    sweep: Vec<usize>,
    /// Scratch flags marking the current sweep (first-changed-child test).
    in_sweep: Vec<bool>,
    /// Positions whose *direct* client load changed since the last sweep
    /// — their fold must restart at the base, not at a changed child.
    direct: Vec<bool>,
    direct_list: Vec<usize>,
    candidates: Vec<PrunedCandidate>,
    greedy: GreedyScratch,
    last_recomputed: usize,
    // Reconstruct-reuse cache. The backtrack below position `p` is a
    // deterministic pure function of (tables of subtree(p), target
    // triple), so if neither changed since the last successful
    // backtrack, the previous sub-placement is bit-identical and can be
    // kept verbatim instead of re-deriving it — that turns the clean
    // part of every epoch's reconstruction from O(n · merge) into a
    // placement clone plus a walk of the changed root path.
    /// Placement produced by the last successful backtrack, if any.
    prev_placement: Option<Placement>,
    /// Per-position target `(flow, cost bits, power bits)` from the last
    /// backtrack that reached it; `None` until first reached.
    prev_targets: Vec<Option<(u64, u64, u64)>>,
    /// Positions whose table was recomputed since the last *successful*
    /// backtrack (greedy epochs and failed resolves keep accumulating).
    stale: Vec<bool>,
    stale_list: Vec<usize>,
}

#[inline]
fn target_bits(t: &Triple) -> (u64, u64, u64) {
    (t.flow, t.cost.to_bits(), t.power.to_bits())
}

impl IncrementalDp {
    /// Builds the solver and runs the initial full forward pass, so the
    /// first [`IncrementalDp::resolve`] is table-warm.
    pub fn new(instance: Instance) -> Self {
        let mut pruned = PrunedScratch::default();
        let (mut prefix, mut candidates) = (Vec::new(), Vec::new());
        pruned.forward(&instance, &mut prefix, &mut candidates);
        let n = pruned.flat.len();
        IncrementalDp {
            delete_constant: deletion_constant(&instance),
            instance,
            pruned,
            prefix,
            dirty: DirtySet::with_len(n),
            sweep: Vec::new(),
            in_sweep: vec![false; n],
            direct: vec![false; n],
            direct_list: Vec::new(),
            candidates,
            greedy: GreedyScratch::default(),
            last_recomputed: 0,
            prev_placement: None,
            prev_targets: vec![None; n],
            stale: vec![false; n],
            stale_list: Vec::new(),
        }
    }

    /// The instance being served (topology, models, current demand).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Number of tree nodes.
    pub fn node_count(&self) -> usize {
        self.pruned.flat.len()
    }

    /// Total request volume over the tree (the root's subtree load).
    pub fn total_demand(&self) -> u64 {
        let flat = &self.pruned.flat;
        flat.subtree_load(flat.root_position())
    }

    /// Positions explicitly dirtied since the last resolve (before
    /// ancestor closure).
    pub fn dirty_len(&self) -> usize {
        self.dirty.marked_len()
    }

    /// Dirty fraction of the tree — the warm-start policy input: above a
    /// caller-chosen threshold, prefer [`IncrementalDp::greedy_fallback`].
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty.marked_len() as f64 / self.pruned.flat.len() as f64
    }

    /// Positions recomputed by the last [`IncrementalDp::resolve`]
    /// (ancestor closure included; the initial full pass is not counted).
    pub fn last_recomputed(&self) -> usize {
        self.last_recomputed
    }

    /// Total entries across all node tables (diagnostics).
    pub fn table_entries(&self) -> usize {
        self.pruned.tables.iter().map(Vec::len).sum()
    }

    /// Updates one client's request volume. Returns whether the attach
    /// node's aggregate demand actually changed (and was marked dirty).
    pub fn set_requests(&mut self, client: ClientId, volume: u64) -> bool {
        let node = self.instance.tree().client(client).attach;
        self.instance.tree_mut().set_requests(client, volume);
        let flat = &mut self.pruned.flat;
        if flat.refresh_demand(self.instance.tree(), node) {
            let p = flat.position_of(node);
            self.dirty.mark(p);
            self.mark_direct(p);
            true
        } else {
            false
        }
    }

    /// Forces the next [`IncrementalDp::resolve`] to recompute every table
    /// (a from-scratch epoch through the same code path).
    pub fn mark_all(&mut self) {
        for p in self.pruned.flat.positions() {
            self.dirty.mark(p);
            self.mark_direct(p);
        }
    }

    fn mark_direct(&mut self, p: usize) {
        if !self.direct[p] {
            self.direct[p] = true;
            self.direct_list.push(p);
        }
    }

    /// Re-solves exactly: sweeps the dirty closure bottom-up through the
    /// shared forward-pass kernel, rescans the root, and backtracks the
    /// minimum-power placement within `cost_bound`. Bit-identical to a
    /// fresh [`solve_min_power_bounded_cost`](crate::dp_power_pruned::solve_min_power_bounded_cost)
    /// on the same demand.
    pub fn resolve(&mut self, cost_bound: f64) -> Result<(Placement, f64, f64), ModelError> {
        let PrunedScratch {
            flat,
            tables,
            merge,
            wcost,
            wpower,
        } = &mut self.pruned;
        self.dirty.sweep(flat, &mut self.sweep);
        self.last_recomputed = self.sweep.len();
        let view = DpView {
            instance: &self.instance,
            flat,
            wcost,
            wpower,
        };
        for &p in &self.sweep {
            self.in_sweep[p] = true;
        }
        for i in 0..self.sweep.len() {
            let p = self.sweep[i];
            if !self.stale[p] {
                self.stale[p] = true;
                self.stale_list.push(p);
            }
            // Restart the fold at the first child whose table changed
            // this sweep (the sweep is ascending, so children are already
            // recomputed); a direct-load change restarts at the base.
            let start = if self.direct[p] {
                0
            } else {
                flat.children(p)
                    .iter()
                    .position(|&c| self.in_sweep[c as usize])
                    .unwrap_or(0)
            };
            compute_position(&view, p, start, tables, &mut self.prefix, merge);
        }
        for &p in &self.sweep {
            self.in_sweep[p] = false;
        }
        for p in self.direct_list.drain(..) {
            self.direct[p] = false;
        }
        scan_root(
            &view,
            &tables[flat.root_position()],
            self.delete_constant,
            &mut self.candidates,
        );
        if self.candidates.is_empty() {
            return Err(ModelError::Infeasible(
                "no feasible placement exists for this instance".into(),
            ));
        }
        let best = match best_candidate_within(&self.candidates, cost_bound) {
            Some(&b) => b,
            None => {
                return Err(ModelError::Infeasible(format!(
                    "no placement fits the cost bound {cost_bound}"
                )))
            }
        };
        // Backtrack over the last placement, skipping subtrees whose
        // tables are fresh since it was produced and whose target triple
        // is bit-identical — the decisions there cannot differ.
        let reuse = self.prev_placement.is_some();
        let mut placement = self
            .prev_placement
            .take()
            .unwrap_or_else(|| Placement::with_slots(flat.len()));
        let stale = &self.stale;
        let prev_targets = &mut self.prev_targets;
        // On failure `prev_targets` may be half-updated; the cached
        // placement stays dropped, so the next epoch walks everything.
        backtrack(
            &view,
            tables,
            &self.prefix,
            &best,
            &mut placement,
            &mut |p, t| {
                let bits = target_bits(t);
                if reuse && !stale[p] && prev_targets[p] == Some(bits) {
                    return true;
                }
                prev_targets[p] = Some(bits);
                false
            },
        )?;
        self.prev_placement = Some(placement.clone());
        for p in self.stale_list.drain(..) {
            self.stale[p] = false;
        }
        Ok((placement, best.cost, best.power))
    }

    /// Latency-bound epoch: the capacity-swept greedy baseline (`GR`,
    /// §5.2) warm-started on the incrementally-maintained flat layout.
    ///
    /// Dirty marks are deliberately **not** cleared — the tables stay
    /// stale, and the next [`IncrementalDp::resolve`] recomputes every
    /// position dirtied since the last exact epoch, restoring bit-exact
    /// state as if the fallback had never run.
    pub fn greedy_fallback(
        &mut self,
        cost_bound: f64,
    ) -> Result<(Placement, f64, f64), ModelError> {
        let best = greedy_power::solve_flat(
            &self.instance,
            &self.pruned.flat,
            &mut self.greedy,
            cost_bound,
        )?;
        Ok((best.placement, best.cost, best.power))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp_power_pruned::solve_min_power_bounded_cost;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use replica_model::{CostModel, ModeSet, PowerModel, PreExisting, Solution};
    use replica_tree::{generate, GeneratorConfig};

    fn instance(seed: u64, nodes: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
        let pre: PreExisting = generate::random_pre_existing(&tree, nodes / 8, &mut rng)
            .into_iter()
            .map(|n| (n, rng.random_range(0..2)))
            .collect();
        Instance::builder(tree)
            .modes(ModeSet::new(vec![5, 10]).unwrap())
            .pre_existing(pre)
            .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
            .power(PowerModel::new(10.0, 1.0))
            .build()
            .unwrap()
    }

    /// Bit-compares an incremental epoch against a from-scratch solve of
    /// the same (mutated) instance.
    fn assert_matches_fresh(dp: &mut IncrementalDp, bound: f64) {
        let fresh_instance = dp.instance().clone();
        let fresh = solve_min_power_bounded_cost(&fresh_instance, bound);
        let incr = dp.resolve(bound);
        match (fresh, incr) {
            (Ok((fp, fc, fw)), Ok((ip, ic, iw))) => {
                assert_eq!(fp, ip, "placement diverged");
                assert_eq!(fc.to_bits(), ic.to_bits(), "cost bits diverged");
                assert_eq!(fw.to_bits(), iw.to_bits(), "power bits diverged");
            }
            (Err(_), Err(_)) => {}
            other => panic!("feasibility diverged: {other:?}"),
        }
    }

    #[test]
    fn single_update_recomputes_only_the_root_path() {
        let inst = instance(7, 60);
        let clients = inst.tree().client_count();
        let mut dp = IncrementalDp::new(inst);
        assert_matches_fresh(&mut dp, f64::INFINITY);
        assert_eq!(dp.last_recomputed(), 0, "clean epoch recomputes nothing");

        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            let c = ClientId::from_index(rng.random_range(0..clients));
            let v = rng.random_range(0..4u64);
            dp.set_requests(c, v);
            assert_matches_fresh(&mut dp, f64::INFINITY);
            assert!(
                dp.last_recomputed() <= dp.node_count(),
                "closure cannot exceed the tree"
            );
        }
    }

    #[test]
    fn batched_updates_and_bounds_match_fresh() {
        let inst = instance(11, 45);
        let clients = inst.tree().client_count();
        let mut dp = IncrementalDp::new(inst);
        let mut rng = StdRng::seed_from_u64(2);
        for epoch in 0..8 {
            for _ in 0..5 {
                let c = ClientId::from_index(rng.random_range(0..clients));
                dp.set_requests(c, rng.random_range(0..5u64));
            }
            let bound = if epoch % 2 == 0 { f64::INFINITY } else { 40.0 };
            assert_matches_fresh(&mut dp, bound);
        }
    }

    #[test]
    fn greedy_fallback_leaves_exact_state_reconcilable() {
        let inst = instance(13, 50);
        let clients = inst.tree().client_count();
        let mut dp = IncrementalDp::new(inst);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..15 {
            let c = ClientId::from_index(rng.random_range(0..clients));
            dp.set_requests(c, rng.random_range(0..6u64));
        }
        let dirty_before = dp.dirty_len();
        let (placement, cost, power) = dp.greedy_fallback(f64::INFINITY).unwrap();
        // The fallback answers from the live layout but must not disturb
        // the exact solver's bookkeeping.
        assert_eq!(dp.dirty_len(), dirty_before);
        let sol = Solution::evaluate(dp.instance(), &placement).unwrap();
        assert!((sol.cost - cost).abs() < 1e-9);
        assert!((sol.power - power).abs() < 1e-9);
        // And the next exact epoch reconciles bit-exactly.
        assert_matches_fresh(&mut dp, f64::INFINITY);
    }

    #[test]
    fn mark_all_forces_a_full_epoch() {
        let inst = instance(17, 30);
        let mut dp = IncrementalDp::new(inst);
        dp.mark_all();
        assert!((dp.dirty_fraction() - 1.0).abs() < 1e-12);
        assert_matches_fresh(&mut dp, f64::INFINITY);
        assert_eq!(dp.last_recomputed(), dp.node_count());
    }
}
