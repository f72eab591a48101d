//! Committed golden corpus for the tree-fold solvers that have no frozen
//! reference copy: the `MinCost-WithPre` DP, the `MinCost-NoPre` DP,
//! `power_greedy` and the lower bounds.
//!
//! Each of the 24 seeded instances is digested into one FNV-1a word over
//! every `(node, mode)` placement pair, the server/reuse counts and the
//! `to_bits` of every cost, power and bound the routines return. The
//! literals in [`GOLDEN`] pin those outputs bit for bit: a change in merge
//! order, tie-breaking or float summation order shows up as a mismatch.
//!
//! Instance mix: `paper_fat` and `paper_high` trees at 50, 120 and 300
//! internal nodes, with `E ∈ {0, n/4}` pre-existing servers, each both as
//! generated and with every child list reversed. Builder-made trees list
//! siblings in ascending id order; serde input may list them in any order,
//! and the reversed half makes child order and id order disagree, so a
//! tie-break that keys on layout positions instead of node ids is caught.
//! The MinCost DPs and `min_servers` run at `W = 10`; `power_greedy` (every
//! grid pass plus `solve` at two budgets) and `min_power`/`min_cost` run on
//! the Experiment 3 mode set `{5, 10}`.
//!
//! On a mismatch the test prints the whole table of actual digests in
//! paste-ready form.

use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_core::heuristics::power_greedy;
use replica_core::{bounds, dp_mincost, dp_mincost_nopre};
use replica_model::{CostModel, Instance, ModeSet, Placement, PowerModel, PreExisting};
use replica_tree::{generate, GeneratorConfig, NodeId, Tree};

/// `(label, digest)` per instance, in [`corpus`] order.
const GOLDEN: [(&str, u64); 24] = [
    ("fat-50-e0", 0x425f3d72bd4871cc),
    ("fat-50-e0-rev", 0x425f3d72bd4871cc),
    ("fat-50-e12", 0xc80323e41a2969ae),
    ("fat-50-e12-rev", 0x642c229a602a2d36),
    ("high-50-e0", 0xcacb5e19d44739d9),
    ("high-50-e0-rev", 0xf581ea881d825eb5),
    ("high-50-e12", 0x42743824b1adaf5f),
    ("high-50-e12-rev", 0x8f41e280f3f43074),
    ("fat-120-e0", 0xb3f6e468aa3ca3a1),
    ("fat-120-e0-rev", 0x0e0120d0fc4cfb65),
    ("fat-120-e30", 0xd9635af167f79c26),
    ("fat-120-e30-rev", 0xd2d34b4035d46cd2),
    ("high-120-e0", 0x28e38cdf62e9b376),
    ("high-120-e0-rev", 0x8aadd4db5fc691d2),
    ("high-120-e30", 0x3bb6ef133ad48f09),
    ("high-120-e30-rev", 0xacd85874f5f7cd91),
    ("fat-300-e0", 0xb6dbe053d231e3cd),
    ("fat-300-e0-rev", 0x489790352610c97d),
    ("fat-300-e75", 0xef1f88e9e075cb92),
    ("fat-300-e75-rev", 0x2207f853d3b50790),
    ("high-300-e0", 0x5e3cd314248f98b8),
    ("high-300-e0-rev", 0x451cc3800d26d1b0),
    ("high-300-e75", 0xa59c1a487d47d3de),
    ("high-300-e75-rev", 0xfc3229fcd71f6cde),
];

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn placement(&mut self, placement: &Placement) {
        self.word(placement.server_count() as u64);
        for (node, mode) in placement.servers() {
            self.word(node.index() as u64);
            self.word(mode as u64);
        }
    }

    /// Marks a routine's `Err`/`None` outcome.
    fn none(&mut self) {
        self.word(u64::MAX);
    }
}

/// Reverses every node's child list by rewriting the tree's JSON arena
/// dump, which deserialization accepts in any order.
fn reverse_child_lists(tree: &Tree) -> Tree {
    const KEY: &str = "\"children\":[";
    let json = serde_json::to_string(tree).unwrap();
    let mut out = String::with_capacity(json.len());
    let mut rest = json.as_str();
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        let end = tail.find(']').unwrap();
        let ids: Vec<&str> = tail[..end].split(',').rev().collect();
        out.push_str(&ids.join(","));
        rest = &tail[end..];
    }
    out.push_str(rest);
    serde_json::from_str(&out).unwrap()
}

/// The 24 corpus instances: `(label, tree, pre-existing nodes)`.
fn corpus() -> Vec<(String, Tree, Vec<NodeId>)> {
    let mut out = Vec::new();
    for (k, n) in [50usize, 120, 300].into_iter().enumerate() {
        for (s, shape) in ["fat", "high"].into_iter().enumerate() {
            for e in [0, n / 4] {
                let seed = 0x601D_0000 + (k * 4 + s * 2) as u64 + u64::from(e > 0);
                let mut rng = StdRng::seed_from_u64(seed);
                let cfg = if shape == "fat" {
                    GeneratorConfig::paper_fat(n)
                } else {
                    GeneratorConfig::paper_high(n)
                };
                let tree = generate::random_tree(&cfg, &mut rng);
                let pre = generate::random_pre_existing(&tree, e, &mut rng);
                let reversed = reverse_child_lists(&tree);
                out.push((format!("{shape}-{n}-e{e}"), tree, pre.clone()));
                out.push((format!("{shape}-{n}-e{e}-rev"), reversed, pre));
            }
        }
    }
    out
}

fn digest(tree: &Tree, pre: &[NodeId]) -> u64 {
    let mut d = Digest::new();

    // MinCost DPs and the replica-count bound at W = 10.
    let inst = Instance::min_cost(tree.clone(), 10, pre.iter().copied(), 0.1, 0.01).unwrap();
    match dp_mincost::solve_min_cost(&inst) {
        Ok(r) => {
            d.placement(&r.placement);
            d.word(r.servers);
            d.word(r.reused);
            d.f64(r.cost);
        }
        Err(_) => d.none(),
    }
    match dp_mincost_nopre::solve_min_count(tree, 10) {
        Ok(r) => {
            d.placement(&r.placement);
            d.word(r.servers);
        }
        Err(_) => d.none(),
    }
    d.word(bounds::min_servers(tree, 10));

    // power_greedy and the power/cost bounds on the Experiment 3 modes.
    let modes = ModeSet::new(vec![5, 10]).unwrap();
    let power = PowerModel::paper_experiment3(&modes);
    let inst = Instance::builder(tree.clone())
        .modes(modes)
        .pre_existing(PreExisting::at_mode(pre.to_vec(), 1))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .power(power)
        .build()
        .unwrap();
    for cap_mode in inst.modes().indices() {
        for &tau in power_greedy::DEFAULT_THRESHOLDS {
            match power_greedy::single_pass(&inst, cap_mode, tau) {
                Some(p) => d.placement(&p),
                None => d.none(),
            }
        }
    }
    let budget = tree.internal_count() as f64 * 0.3;
    for bound in [f64::INFINITY, budget] {
        match power_greedy::solve(&inst, bound) {
            Ok(h) => {
                d.placement(&h.placement);
                d.word(h.servers);
                d.f64(h.cost);
                d.f64(h.power);
            }
            Err(_) => d.none(),
        }
    }
    d.f64(bounds::min_power(&inst));
    d.f64(bounds::min_cost(&inst));
    d.0
}

#[test]
fn tree_fold_solvers_match_the_golden_corpus() {
    let actual: Vec<(String, u64)> = corpus()
        .into_iter()
        .map(|(label, tree, pre)| (label, digest(&tree, &pre)))
        .collect();
    let labels: Vec<&str> = actual.iter().map(|(l, _)| l.as_str()).collect();
    let golden_labels: Vec<&str> = GOLDEN.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, golden_labels, "corpus order changed");
    let mismatched: Vec<&str> = actual
        .iter()
        .zip(GOLDEN.iter())
        .filter(|((_, h), (_, g))| h != g)
        .map(|((l, _), _)| l.as_str())
        .collect();
    if !mismatched.is_empty() {
        for (label, h) in &actual {
            eprintln!("    (\"{label}\", {h:#018x}),");
        }
        panic!("golden digests differ for {mismatched:?}");
    }
}

/// The reversed half really does make child order and id order disagree
/// (otherwise it would add no coverage).
#[test]
fn reversed_trees_list_children_against_id_order() {
    for (label, tree, _) in corpus().into_iter().filter(|(l, ..)| l.ends_with("-rev")) {
        let descending = tree.internal_nodes().any(|n| {
            tree.children(n)
                .windows(2)
                .any(|w| w[0].index() > w[1].index())
        });
        assert!(descending, "{label}: no child list against id order");
    }
}
