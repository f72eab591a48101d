//! Cheap lower bounds on replica count, cost and power.
//!
//! None of the optimal algorithms need these, but they serve three
//! purposes: instant infeasibility/sanity checks, certified quality ratios
//! for the §6 heuristics (a heuristic within 1.1× of a *lower bound* is
//! provably within 1.1× of the optimum), and strong property tests — every
//! bound must sit below every optimum on every random instance.
//!
//! The replica-count bound is the interesting one. In any valid solution at
//! most `W` requests flow out of any subtree (they must eventually hit a
//! single server), so a subtree generating `q` requests holds at least
//! `⌈(q − W)/W⌉` servers; and servers in disjoint child subtrees add up.
//! Folding both facts bottom-up gives
//!
//! ```text
//! lb(j) = max( ⌈(requests_within(j) − W) / W⌉ , Σ_children lb(c) )
//! ```
//!
//! with the root using `⌈total/W⌉` (nothing escapes the root).

use replica_model::Instance;
use replica_tree::{FlatTree, Tree};

/// Lower bound on the number of replicas any feasible solution needs at
/// capacity `capacity`. Returns 0 when the tree has no requests.
pub fn min_servers(tree: &Tree, capacity: u64) -> u64 {
    assert!(capacity > 0, "capacity must be positive");
    let flat = FlatTree::new(tree);
    let mut lb = vec![0u64; flat.len()];
    for p in flat.positions() {
        let need = flat
            .subtree_load(p)
            .saturating_sub(capacity)
            .div_ceil(capacity);
        let children_sum: u64 = flat.children(p).iter().map(|&c| lb[c as usize]).sum();
        lb[p] = need.max(children_sum);
    }
    let total = flat.subtree_load(flat.root_position());
    lb[flat.root_position()].max(total.div_ceil(capacity))
}

/// Lower bound on Eq. 3 power for any feasible solution of `instance`.
///
/// Two independent arguments, combined by `max`:
/// * per-server: at least [`min_servers`] servers exist, each drawing at
///   least `P_static + W₁^α`;
/// * per-request: a server at mode `m` serves at most `W_m` requests for
///   `P_static + W_m^α` watts, so every request costs at least
///   `min_m (P_static + W_m^α) / W_m`.
pub fn min_power(instance: &Instance) -> f64 {
    let tree = instance.tree();
    let modes = instance.modes();
    let power = instance.power();
    let servers = min_servers(tree, instance.max_capacity());
    let per_server = servers as f64 * power.server_power(modes, 0);
    let watts_per_request = modes
        .indices()
        .map(|m| power.server_power(modes, m) / modes.capacity(m) as f64)
        .fold(f64::INFINITY, f64::min);
    let per_request = tree.total_requests() as f64 * watts_per_request;
    per_server.max(per_request)
}

/// Lower bound on Eq. 4 cost for any feasible solution of `instance`.
///
/// Eq. 4 regrouped per server (see
/// [`dp_power_pruned`](crate::dp_power_pruned)): a global
/// `Σᵢ deleteᵢ·Eᵢ` constant plus, per placed server, `1 + createₘ` for new
/// ones or `1 + changed_om − delete_o` for reuses. Every feasible solution
/// places at least [`min_servers`] servers, each contributing at least the
/// smallest such weight (clamped at 0 — a pathological cost model could
/// make a reuse "profitable").
pub fn min_cost(instance: &Instance) -> f64 {
    let tree = instance.tree();
    let cost = instance.cost();
    let pre = instance.pre_existing();
    let delete_constant: f64 = pre.iter().map(|(_, o)| cost.deleted_server(o)).sum();

    let mut min_weight = f64::INFINITY;
    for m in instance.modes().indices() {
        min_weight = min_weight.min(cost.new_server(m));
        for o in instance.modes().indices() {
            min_weight = min_weight.min(cost.reused_server(o, m) - cost.deleted_server(o));
        }
    }
    let servers = min_servers(tree, instance.max_capacity());
    delete_constant + servers as f64 * min_weight.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{dp_power, greedy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use replica_model::{CostModel, ModeSet, PowerModel, PreExisting, Solution};
    use replica_tree::{generate, GeneratorConfig, TreeBuilder};

    #[test]
    fn trivial_bounds() {
        let empty = TreeBuilder::new().build().unwrap();
        assert_eq!(min_servers(&empty, 10), 0);

        let mut b = TreeBuilder::new();
        b.add_client(b.root(), 25);
        let t = b.build().unwrap();
        assert_eq!(min_servers(&t, 10), 3, "⌈25/10⌉");
    }

    #[test]
    fn subtree_bound_beats_global_bound() {
        // Two heavy, far-apart subtrees: each needs its own servers even
        // though the global ratio alone would allow sharing.
        let mut b = TreeBuilder::new();
        let r = b.root();
        for _ in 0..2 {
            let branch = b.add_child(r);
            for _ in 0..3 {
                let leaf = b.add_child(branch);
                b.add_client(leaf, 9);
            }
        }
        let t = b.build().unwrap();
        // Each branch generates 27 requests; at most 10 escape, so each
        // holds ≥ 2 servers: lb = 4 < ⌈54/10⌉ = 6. Global wins here.
        assert_eq!(min_servers(&t, 10), 6);
        // Shrink request volumes so the subtree bound becomes the binding
        // one: 2 branches × 12 requests, W = 10 → global ⌈24/10⌉ = 3,
        // subtree bound: ⌈(12−10)/10⌉ = 1 each… global still wins. Check
        // at least consistency with the optimum below.
        let g = greedy::greedy_min_replicas(&t, 10).unwrap();
        assert!(min_servers(&t, 10) <= g.servers);
    }

    #[test]
    fn server_bound_below_optimum_on_random_trees() {
        let mut rng = StdRng::seed_from_u64(61);
        for i in 0..40 {
            let cfg = if i % 2 == 0 {
                GeneratorConfig::paper_fat(60)
            } else {
                GeneratorConfig::paper_high(60)
            };
            let tree = generate::random_tree(&cfg, &mut rng);
            for w in [8u64, 10, 15] {
                if let Ok(optimal) = greedy::greedy_min_replicas(&tree, w) {
                    let lb = min_servers(&tree, w);
                    assert!(
                        lb <= optimal.servers,
                        "tree {i} W {w}: bound {lb} exceeds optimum {}",
                        optimal.servers
                    );
                }
            }
        }
    }

    fn power_instance(seed: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let tree = generate::random_tree(&GeneratorConfig::paper_power(25), &mut rng);
        let pre = generate::random_pre_existing(&tree, 3, &mut rng);
        let modes = ModeSet::new(vec![5, 10]).unwrap();
        let power = PowerModel::paper_experiment3(&modes);
        Instance::builder(tree)
            .modes(modes)
            .pre_existing(PreExisting::at_mode(pre, 1))
            .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
            .power(power)
            .build()
            .unwrap()
    }

    #[test]
    fn power_and_cost_bounds_below_optimum() {
        for seed in 0..12 {
            let inst = power_instance(seed);
            let optimal = dp_power::solve_min_power(&inst).unwrap();
            let power_lb = min_power(&inst);
            assert!(
                power_lb <= optimal.power + 1e-9,
                "seed {seed}: power bound {power_lb} exceeds optimum {}",
                optimal.power
            );
            // The bound should not be vacuous either: within 5× here.
            assert!(
                power_lb * 5.0 >= optimal.power,
                "seed {seed}: bound too weak"
            );

            let cost_lb = min_cost(&inst);
            let dp = dp_power::PowerDp::run(&inst).unwrap();
            let cheapest = dp
                .candidates()
                .iter()
                .map(|c| c.cost)
                .fold(f64::INFINITY, f64::min);
            assert!(
                cost_lb <= cheapest + 1e-9,
                "seed {seed}: cost bound {cost_lb} exceeds cheapest {cheapest}"
            );
        }
    }

    #[test]
    fn bounds_certify_heuristic_quality() {
        // The intended use: heuristic power / lower bound ≥ 1 certifies a
        // worst-case quality ratio without running the exact DP.
        for seed in 20..26 {
            let inst = power_instance(seed);
            let h = crate::heuristics::power_greedy::solve(&inst, f64::INFINITY).unwrap();
            let lb = min_power(&inst);
            let ratio = h.power / lb;
            assert!(ratio >= 1.0 - 1e-9, "seed {seed}");
            assert!(
                ratio < 4.0,
                "seed {seed}: heuristic suspiciously bad ({ratio:.2}×)"
            );
            // And the certificate is sound vs the real optimum.
            let sol = Solution::evaluate(&inst, &h.placement).unwrap();
            assert!((sol.power - h.power).abs() < 1e-9);
        }
    }
}
