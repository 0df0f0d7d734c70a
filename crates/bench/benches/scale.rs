//! Criterion benches for the scalable equilibrium engine: streaming
//! population synthesis and the chunked-parallel Stage-I KKT solve across
//! population sizes, sequential vs. multi-threaded.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fedfl_core::bound::BoundParams;
use fedfl_core::population::{Population, PopulationSpec};
use fedfl_core::server::{path_budget, solve_kkt, KktRequest, SolverOptions};
use fedfl_core::shard::ShardedPopulation;
use std::hint::black_box;

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).expect("bound")
}

/// A mid-path budget, so every size solves an interior (bisecting)
/// instance rather than a trivial one.
fn mid_budget(population: &Population, bound: &BoundParams) -> f64 {
    path_budget(
        &ShardedPopulation::from(population),
        bound,
        &SolverOptions::default(),
        0.5,
    )
}

fn bench_synthesize(c: &mut Criterion) {
    let spec = PopulationSpec::table1_like();
    let mut group = c.benchmark_group("scale_synthesize");
    group.sample_size(10);
    for n in [10_000usize, 100_000] {
        group.bench_with_input(BenchmarkId::new("clients", n), &n, |b, &n| {
            b.iter(|| Population::synthesize(black_box(n), &spec, 2023).expect("synthesize"))
        });
    }
    group.finish();
}

fn bench_solve_kkt(c: &mut Criterion) {
    let spec = PopulationSpec::table1_like();
    let b = bound();
    let mut group = c.benchmark_group("scale_solve_kkt");
    group.sample_size(10);
    for n in [10_000usize, 100_000, 1_000_000] {
        let population = Population::synthesize(n, &spec, 2023).expect("synthesize");
        let budget = mid_budget(&population, &b);
        for threads in [1usize, 4] {
            let options = SolverOptions::with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("threads{threads}"), n),
                &population,
                |bench, population| {
                    bench.iter(|| {
                        let population = ShardedPopulation::from(black_box(population));
                        solve_kkt(&KktRequest::new(&population, &b, budget, &options))
                            .expect("solve")
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_synthesize, bench_solve_kkt);
criterion_main!(benches);
