//! # `replica-bench` — benchmark fixtures and trajectory binaries
//!
//! Shared deterministic instance builders for the `timing` head-to-head,
//! the binaries that emit the committed `BENCH_*.json` artifacts
//! (`solvers_trajectory`, `jobspace_trajectory`, `obs_overhead`, and
//! `replica-serve`'s `serve_trajectory`) and the repository benchmark
//! under `perfbench/`. Everything is seeded so runs are
//! comparable across machines and commits; dispatch goes through the
//! engine registry, so what is timed is exactly what fleet runs execute.
//!
//! Architecture overview: `docs/ARCHITECTURE.md` at the repository root.

use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_model::{CostModel, Instance, ModeSet, PowerModel, PreExisting};
use replica_tree::{generate, GeneratorConfig, Tree};

/// Deterministic paper-shaped tree.
pub fn paper_tree(seed: u64, nodes: usize) -> Tree {
    let mut rng = StdRng::seed_from_u64(seed);
    generate::random_tree(&GeneratorConfig::paper_fat(nodes), &mut rng)
}

/// Deterministic Experiment-3-style instance (modes {5, 10}, α = 3,
/// `P_static = W₁³/10`, uniform Fig-8 costs).
pub fn power_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::random_tree(&GeneratorConfig::paper_power(nodes), &mut rng);
    let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
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

/// Deterministic Experiment-3-style instance on the *fat* paper tree —
/// the scaling workload shared by `benches/solvers.rs`, the
/// `solvers_trajectory` binary (committed `BENCH_solvers.json`) and the
/// release-mode scale guard in `replica-core`. `pre_count` servers are
/// pre-existing at mode 1; pass 0 for the greenfield regime.
pub fn fat_power_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::random_tree(&GeneratorConfig::paper_fat(nodes), &mut rng);
    let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
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

/// The [`fat_power_instance`] workload under an **energy-proportional**
/// power model (α = 1, `P_static = 10`). Cost and power then rise
/// together with the server count, per-flow Pareto frontiers stay
/// compact, and the exact pruned DP is near-linear — the regime where
/// 10⁵-node exact solves are routine (see `docs/ARCHITECTURE.md`,
/// "Flat tree layout & solve arenas").
pub fn fat_linear_power_instance(seed: u64, nodes: usize, pre_count: usize) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let tree = generate::random_tree(&GeneratorConfig::paper_fat(nodes), &mut rng);
    let pre = generate::random_pre_existing(&tree, pre_count, &mut rng);
    let modes = ModeSet::new(vec![5, 10]).unwrap();
    Instance::builder(tree)
        .modes(modes)
        .pre_existing(PreExisting::at_mode(pre, 1))
        .cost(CostModel::uniform(2, 0.1, 0.01, 0.001))
        .power(PowerModel::new(10.0, 1.0))
        .build()
        .unwrap()
}

/// A small standard fleet (every engine scenario family at `nodes`
/// internal nodes, `per_scenario` instances each) as a validated
/// campaign, built through the
/// engine's declarative spec layer ([`replica_engine::CampaignSpec`]) —
/// what is timed is exactly what spec-driven fleet runs execute:
/// `campaign.space()` is the lazy job space, `campaign.fleet_config()`
/// the runner configuration.
pub fn standard_campaign<S: Into<String>>(
    seed: u64,
    nodes: usize,
    per_scenario: usize,
    solvers: impl IntoIterator<Item = S>,
) -> replica_engine::Campaign {
    replica_engine::CampaignSpec::builder()
        .scenario_set(replica_engine::ScenarioSet::Standard, nodes)
        .instances_per_scenario(per_scenario)
        .solvers(solvers)
        .seed(seed)
        .build()
        .validate(&replica_engine::Registry::with_all())
        .expect("the standard bench campaign is valid")
}
