//! The classical `MinCost-NoPre` dynamic program (Cidon, Kutten & Soffer
//! \[6\]).
//!
//! Without pre-existing replicas the cost of Eq. 2 is minimized by
//! minimizing the replica count, which this `O(N²)`-style DP does exactly:
//! each node `j` keeps a one-dimensional table
//!
//! > `minr_j[n]` = the minimum number of requests that must traverse `j`
//! > when exactly `n` replicas are placed in `subtree_j` (excluding `j`),
//!
//! merged child by child (the `e = 0` slice of the paper's Algorithm 3).
//! The optimum is read off the root table.
//!
//! This implementation exists alongside [`dp_mincost`](crate::dp_mincost)
//! (the paper's with-pre-existing DP) and [`greedy`](crate::greedy) on
//! purpose: three independent algorithms for the same optimum give the test
//! suite strong cross-validation.

use replica_model::{ModelError, Placement};
use replica_tree::{FlatTree, Tree};

/// Flow sentinel for "no solution with this replica count".
const INFEASIBLE: u64 = u64::MAX;

/// Outcome of the replica-count DP.
#[derive(Clone, Debug)]
pub struct MinCountResult {
    /// A replica-count-optimal placement (modes all 0).
    pub placement: Placement,
    /// The optimal number of replicas.
    pub servers: u64,
}

/// Per-position backpointers of one recomputed merge step.
type BackPtrs = Vec<Option<(u32, bool)>>;

/// Solves `MinCost-NoPre`: minimum replicas covering all requests with
/// capacity `capacity` under the closest policy.
pub fn solve_min_count(tree: &Tree, capacity: u64) -> Result<MinCountResult, ModelError> {
    assert!(capacity > 0, "capacity must be positive");
    let flat = FlatTree::new(tree);
    let tables = forward_pass(&flat, capacity)?;

    // Root scan: best replica count over all table entries.
    let root = flat.root_position();
    let mut best: Option<(u64, usize, bool)> = None; // (count, n, root server?)
    for (n, &flow) in tables[root].iter().enumerate() {
        if flow == INFEASIBLE {
            continue;
        }
        let candidate = if flow == 0 {
            Some((n as u64, n, false))
        } else if flow <= capacity {
            Some((n as u64 + 1, n, true))
        } else {
            None
        };
        if let Some(c) = candidate {
            if best.is_none_or(|b| c.0 < b.0) {
                best = Some(c);
            }
        }
    }
    let (servers, n_target, root_server) = best.ok_or_else(|| {
        ModelError::Infeasible("no feasible replica placement at any count".into())
    })?;

    let mut placement = Placement::with_slots(flat.len());
    if root_server {
        placement.insert(flat.node_at(root), 0);
    }
    reconstruct(&flat, capacity, &tables, n_target, &mut placement);
    debug_assert_eq!(placement.server_count() as u64, servers);
    Ok(MinCountResult { placement, servers })
}

/// Bottom-up pass computing every position's `minr` table, `n` bounded
/// by the internal-node count strictly below.
fn forward_pass(flat: &FlatTree, capacity: u64) -> Result<Vec<Vec<u64>>, ModelError> {
    let mut tables: Vec<Vec<u64>> = Vec::with_capacity(flat.len());
    for p in flat.positions() {
        let direct = flat.client_load(p);
        if direct > capacity {
            let node = flat.node_at(p);
            return Err(ModelError::Infeasible(format!(
                "clients attached to {node} bundle {direct} requests > capacity {capacity}"
            )));
        }
        let mut minr = vec![INFEASIBLE; flat.subtree_size(p)];
        minr[0] = direct;
        for &c in flat.children(p) {
            merge_child(&mut minr, &tables[c as usize], capacity, None);
        }
        tables.push(minr);
    }
    Ok(tables)
}

/// Merges `child` into `left` (in place).
///
/// When `backptr` is provided, records for each reachable entry `n` the pair
/// `(n_left, server_at_child)` that achieved it — used only during
/// reconstruction.
fn merge_child(left: &mut [u64], child: &[u64], capacity: u64, mut backptr: Option<&mut BackPtrs>) {
    let prev: Vec<u64> = left.to_vec();
    left.fill(INFEASIBLE);
    if let Some(bp) = backptr.as_deref_mut() {
        bp.clear();
        bp.resize(left.len(), None);
    }
    for (n1, &f1) in prev.iter().enumerate() {
        if f1 == INFEASIBLE {
            continue;
        }
        for (n2, &f2) in child.iter().enumerate() {
            if f2 == INFEASIBLE {
                continue;
            }
            // Option a: no replica at the child; flows add up and must stay
            // serveable above.
            let combined = f1.saturating_add(f2);
            if combined <= capacity {
                let idx = n1 + n2;
                if combined < left[idx] {
                    left[idx] = combined;
                    if let Some(bp) = backptr.as_deref_mut() {
                        bp[idx] = Some((n1 as u32, false));
                    }
                }
            }
            // Option b: replica at the child absorbing its subtree flow
            // (its load is f2, which must fit the capacity).
            if f2 <= capacity {
                let idx = n1 + n2 + 1;
                if idx < left.len() && f1 < left[idx] {
                    left[idx] = f1;
                    if let Some(bp) = backptr.as_deref_mut() {
                        bp[idx] = Some((n1 as u32, true));
                    }
                }
            }
        }
    }
}

/// Rebuilds the replica set achieving `tables[root][n_target]`, re-running
/// each position's merge sequence with backpointers (transient memory only).
fn reconstruct(
    flat: &FlatTree,
    capacity: u64,
    tables: &[Vec<u64>],
    start_n: usize,
    placement: &mut Placement,
) {
    let mut work: Vec<(usize, usize)> = vec![(flat.root_position(), start_n)];
    while let Some((p, n_target)) = work.pop() {
        let children = flat.children(p);
        if children.is_empty() {
            debug_assert_eq!(n_target, 0, "leaf tables only populate n = 0");
            continue;
        }
        // Re-run the merges, keeping every step's backpointers.
        let mut table = vec![INFEASIBLE; tables[p].len()];
        table[0] = flat.client_load(p);
        let mut steps: Vec<BackPtrs> = Vec::with_capacity(children.len());
        for &c in children {
            let mut bp = BackPtrs::new();
            merge_child(&mut table, &tables[c as usize], capacity, Some(&mut bp));
            steps.push(bp);
        }
        debug_assert_eq!(table[n_target], tables[p][n_target]);

        // Walk the merge sequence backwards.
        let mut cur = n_target;
        for (bp, &c) in steps.iter().zip(children).rev() {
            let (n1, server) = bp[cur].expect("reachable entries must carry a backpointer");
            let n1 = n1 as usize;
            let n_child = cur - n1 - usize::from(server);
            if server {
                placement.insert(flat.node_at(c as usize), 0);
            }
            if n_child > 0 || server {
                work.push((c as usize, n_child));
            }
            cur = n1;
        }
        debug_assert_eq!(cur, 0, "the base table only populates n = 0");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_min_replicas;
    use replica_model::{compute_validated, ModeSet};
    use replica_tree::{generate, GeneratorConfig, TreeBuilder};

    fn assert_valid(tree: &Tree, placement: &Placement, w: u64) {
        let modes = ModeSet::single(w).unwrap();
        compute_validated(tree, placement, &modes).expect("DP placement must be feasible");
    }

    #[test]
    fn trivial_cases() {
        let mut b = TreeBuilder::new();
        b.add_client(b.root(), 5);
        let t = b.build().unwrap();
        let r = solve_min_count(&t, 10).unwrap();
        assert_eq!(r.servers, 1);
        assert_valid(&t, &r.placement, 10);

        let t = TreeBuilder::new().build().unwrap();
        let r = solve_min_count(&t, 10).unwrap();
        assert_eq!(r.servers, 0);
    }

    #[test]
    fn fig1_needs_one_server() {
        let mut bld = TreeBuilder::new();
        let r = bld.root();
        let a = bld.add_child(r);
        let b = bld.add_child(a);
        let c = bld.add_child(a);
        bld.add_client(b, 3);
        bld.add_client(c, 4);
        bld.add_client(r, 2);
        let t = bld.build().unwrap();
        let res = solve_min_count(&t, 10).unwrap();
        assert_eq!(res.servers, 1);
        assert_valid(&t, &res.placement, 10);
    }

    #[test]
    fn detects_infeasible() {
        let mut b = TreeBuilder::new();
        b.add_client(b.root(), 11);
        let t = b.build().unwrap();
        assert!(solve_min_count(&t, 10).is_err());
    }

    #[test]
    fn three_children_case() {
        // 6, 5, 5 under the root, W = 10 → two replicas.
        let mut b = TreeBuilder::new();
        let r = b.root();
        for req in [6u64, 5, 5] {
            let c = b.add_child(r);
            b.add_client(c, req);
        }
        let t = b.build().unwrap();
        let res = solve_min_count(&t, 10).unwrap();
        assert_eq!(res.servers, 2);
        assert_valid(&t, &res.placement, 10);
    }

    #[test]
    fn matches_greedy_on_random_trees() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(123);
        for i in 0..60 {
            let cfg = if i % 2 == 0 {
                GeneratorConfig::paper_fat(40)
            } else {
                GeneratorConfig::paper_high(40)
            };
            let t = generate::random_tree(&cfg, &mut rng);
            let dp = solve_min_count(&t, 10).unwrap();
            let gr = greedy_min_replicas(&t, 10).unwrap();
            assert_eq!(
                dp.servers, gr.servers,
                "greedy and DP must agree on the optimal count (tree {i})"
            );
            assert_valid(&t, &dp.placement, 10);
        }
    }

    #[test]
    fn matches_greedy_on_tight_capacities() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(321);
        let mut checked = 0;
        for _ in 0..60 {
            let t = generate::random_tree(&GeneratorConfig::paper_high(25), &mut rng);
            for w in [6u64, 8, 12] {
                match (solve_min_count(&t, w), greedy_min_replicas(&t, w)) {
                    (Ok(dp), Ok(gr)) => {
                        assert_eq!(dp.servers, gr.servers, "W = {w}");
                        assert_valid(&t, &dp.placement, w);
                        checked += 1;
                    }
                    (Err(_), Err(_)) => {}
                    (dp, gr) => panic!(
                        "feasibility disagreement at W = {w}: dp = {:?}, gr = {:?}",
                        dp.map(|r| r.servers),
                        gr.map(|r| r.servers)
                    ),
                }
            }
        }
        assert!(checked > 50, "most cases should be feasible, got {checked}");
    }
}
