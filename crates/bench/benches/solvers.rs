//! Criterion benches for the solver ablation and the analytic kernels:
//! KKT/λ-bisection vs the paper's M-search (Stage I), the best-response
//! cubic (Stage II), and the Theorem 1 bound evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use fedfl_bench::experiment::prepare;
use fedfl_bench::setups::Setup;
use fedfl_core::response::best_response;
use fedfl_core::server::{solve_kkt, solve_m_search, KktRequest, SolverOptions};
use fedfl_core::shard::ShardedPopulation;
use std::hint::black_box;

fn bench_stage_one_solvers(c: &mut Criterion) {
    let setup = Setup::quick(1);
    let prepared = prepare(&setup, 2023).expect("prepare");
    let options = SolverOptions::default();
    let mut group = c.benchmark_group("ablation_solver");
    group.bench_function("kkt_bisection", |b| {
        b.iter(|| {
            let population = ShardedPopulation::from(black_box(&prepared.population));
            solve_kkt(&KktRequest::new(
                &population,
                &prepared.bound,
                setup.budget,
                &options,
            ))
            .expect("kkt")
        })
    });
    group.sample_size(10);
    group.bench_function("m_search_paper", |b| {
        b.iter(|| {
            solve_m_search(
                &ShardedPopulation::from(black_box(&prepared.population)),
                &prepared.bound,
                setup.budget,
                &options,
            )
            .expect("m-search")
        })
    });
    group.finish();
}

fn bench_stage_two(c: &mut Criterion) {
    let setup = Setup::quick(1);
    let prepared = prepare(&setup, 2023).expect("prepare");
    let client = prepared.population.client(0);
    c.bench_function("stage2_best_response_cubic", |b| {
        b.iter(|| best_response(black_box(client), &prepared.bound, 25.0).expect("br"))
    });
}

fn bench_bound_evaluation(c: &mut Criterion) {
    let setup = Setup::quick(1);
    let prepared = prepare(&setup, 2023).expect("prepare");
    let q = vec![0.4; prepared.population.len()];
    c.bench_function("theorem1_optimality_gap", |b| {
        b.iter(|| {
            prepared
                .bound
                .optimality_gap(black_box(&prepared.population), &q)
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stage_one_solvers, bench_stage_two, bench_bound_evaluation
);
criterion_main!(benches);
