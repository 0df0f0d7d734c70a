//! Ablation: KKT/λ-bisection vs the paper's literal two-step `M`-search.
//!
//! Both Stage-I solvers should land on (nearly) the same participation
//! profile; the KKT path is orders of magnitude faster. This binary prints
//! the agreement gap and the wall-clock of each solver on every setup.

use fedfl_bench::cli::CliOptions;
use fedfl_bench::experiment::prepare;
use fedfl_bench::report::{save_report, TextTable};
use fedfl_core::server::{solve_kkt, solve_m_search, KktRequest, SolverOptions};
use fedfl_core::shard::ShardedPopulation;
use std::time::Instant;

fn main() {
    let options = CliOptions::from_env();
    let mut table = TextTable::new(vec![
        "Setup",
        "KKT variance term",
        "M-search variance term",
        "relative gap",
        "KKT time",
        "M-search time",
    ]);
    for setup in options.setups() {
        let prepared = prepare(&setup, options.seed).expect("prepare failed");
        // Finer grid than the default: the M-search is the slow reference
        // solver, so we let it spend the budget needed to converge.
        let solver_options = SolverOptions {
            m_grid_steps: 80,
            ..Default::default()
        };

        let t0 = Instant::now();
        let (kkt, _) = solve_kkt(&KktRequest::new(
            &ShardedPopulation::from(&prepared.population),
            &prepared.bound,
            setup.budget,
            &solver_options,
        ))
        .expect("kkt failed");
        let kkt_time = t0.elapsed();

        let t1 = Instant::now();
        let msearch = solve_m_search(
            &ShardedPopulation::from(&prepared.population),
            &prepared.bound,
            setup.budget,
            &solver_options,
        )
        .expect("m-search failed");
        let m_time = t1.elapsed();

        let v_kkt = kkt.variance_term(&prepared.population, &prepared.bound);
        let v_m = msearch.variance_term(&prepared.population, &prepared.bound);
        table.row(vec![
            format!("Setup {}", setup.id),
            format!("{v_kkt:.5e}"),
            format!("{v_m:.5e}"),
            format!("{:.2}%", (v_m - v_kkt) / v_kkt.abs().max(1e-12) * 100.0),
            format!("{:.2?}", kkt_time),
            format!("{:.2?}", m_time),
        ]);
    }
    let rendered = table.render();
    println!("Solver ablation — KKT path vs paper's M-search\n{rendered}");
    save_report("ablation_solver.txt", &rendered);
}
