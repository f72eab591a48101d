//! Ablations of the DP engineering choices: full state-vector tables vs
//! Pareto-pruned triples, forward-only vs full reconstruction, and the
//! sweep-amortization win (answering every budget from one DP run vs
//! re-running per budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use replica_bench::power_instance;
use replica_core::dp_power::{self, PowerDp};
use replica_core::dp_power_pruned::PrunedPowerDp;
use std::hint::black_box;

fn bench_state_vs_pruned(c: &mut Criterion) {
    // The headline ablation: full state-vector tables (the paper's §4.3
    // algorithm) vs 3-D Pareto-pruned triples (our extension) — identical
    // optima, order-of-magnitude table shrinkage. The full-state DP is only
    // benched where it is tractable (minutes per run beyond 100 nodes with
    // pre-existing servers — the paper's own practicality ceiling); the
    // pruned rows extend far past it.
    let mut group = c.benchmark_group("state_vs_pruned");
    group.sample_size(10);
    for (nodes, pre) in [(50usize, 5usize), (80, 8)] {
        let instance = power_instance(10, nodes, pre);
        group.bench_with_input(
            BenchmarkId::new("full_state_dp", format!("{nodes}n_{pre}e")),
            &instance,
            |b, inst| b.iter(|| black_box(PowerDp::run(inst).unwrap().candidates().len())),
        );
    }
    for (nodes, pre) in [(50usize, 5usize), (80, 8), (200, 20), (1000, 100)] {
        let instance = power_instance(10, nodes, pre);
        group.bench_with_input(
            BenchmarkId::new("pruned_dp", format!("{nodes}n_{pre}e")),
            &instance,
            |b, inst| b.iter(|| black_box(PrunedPowerDp::run(inst).unwrap().candidates().len())),
        );
    }
    group.finish();
}

fn bench_reconstruction(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruction");
    group.sample_size(10);
    let instance = power_instance(12, 80, 8);
    group.bench_function("forward_only", |b| {
        b.iter(|| {
            let dp = PowerDp::run(&instance).unwrap();
            black_box(dp.best_within(f64::INFINITY).unwrap().power)
        })
    });
    group.bench_function("forward_plus_reconstruct", |b| {
        b.iter(|| {
            let dp = PowerDp::run(&instance).unwrap();
            let best = dp.best_within(f64::INFINITY).unwrap();
            black_box(dp.reconstruct(best).unwrap().servers)
        })
    });
    group.finish();
}

fn bench_budget_amortization(c: &mut Criterion) {
    // Experiment 3 sweeps ~30 budgets per tree. One DP run + candidate
    // filtering amortizes the whole sweep; the naive alternative re-runs
    // the DP per budget.
    let mut group = c.benchmark_group("budget_sweep");
    group.sample_size(10);
    let instance = power_instance(13, 50, 5);
    let bounds: Vec<f64> = (15..=45).map(f64::from).collect();
    group.bench_function("one_run_filter_per_budget", |b| {
        b.iter(|| {
            let dp = PowerDp::run(&instance).unwrap();
            let total: f64 = bounds
                .iter()
                .filter_map(|&bound| dp.best_within(bound).map(|c| c.power))
                .sum();
            black_box(total)
        })
    });
    group.bench_function("rerun_per_budget", |b| {
        b.iter(|| {
            let total: f64 = bounds
                .iter()
                .filter_map(|&bound| {
                    dp_power::solve_min_power_bounded_cost(&instance, bound)
                        .ok()
                        .map(|r| r.power)
                })
                .sum();
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(
    ablation,
    bench_state_vs_pruned,
    bench_reconstruction,
    bench_budget_amortization
);
criterion_main!(ablation);
