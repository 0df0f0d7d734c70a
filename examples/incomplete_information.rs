//! Tour of the future-work extensions: pricing without knowing client
//! types (Bayesian mechanism), arbitrary cost exponents τ, and cost
//! coefficients derived from device characteristics.
//!
//! ```bash
//! cargo run --release --example incomplete_information
//! ```

use fedfl::core::bayesian::{solve_bayesian, BayesianConfig, Prior};
use fedfl::core::bound::BoundParams;
use fedfl::core::cost::CostComponents;
use fedfl::core::population::Population;
use fedfl::core::server::{solve_kkt, KktRequest, SolverOptions};
use fedfl::core::shard::ShardedPopulation;
use fedfl::core::tau::solve_kkt_tau;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let bound = BoundParams::new(1_000.0, 0.0, 1_000)?;
    let population = Population::sample(
        7,
        &[0.3, 0.3, 0.2, 0.1, 0.1],
        &[9.0, 16.0, 25.0, 36.0, 49.0],
        50.0, // mean cost
        10.0, // mean intrinsic value
        1.0,
    )?;
    let budget = 25.0;

    // Complete information: the paper's optimum.
    let (complete, _) = solve_kkt(&KktRequest::new(
        &ShardedPopulation::from(&population),
        &bound,
        budget,
        &SolverOptions::default(),
    ))?;
    println!("complete information:   q* = {:?}", rounded(&complete.q));
    println!(
        "                        bound variance term {:.4}",
        complete.variance_term(&population, &bound)
    );

    // Incomplete information: the server only knows the priors.
    let bayes = solve_bayesian(
        &population,
        &Prior::Exponential { mean: 50.0 },
        &Prior::Exponential { mean: 10.0 },
        &bound,
        budget,
        &BayesianConfig::default(),
    )?;
    println!("\nincomplete information: q  = {:?}", rounded(&bayes.q));
    println!(
        "                        bound variance term {:.4} (information cost {:+.1}%)",
        bayes.variance_term(&population, &bound),
        (bayes.variance_term(&population, &bound) / complete.variance_term(&population, &bound)
            - 1.0)
            * 100.0
    );
    println!(
        "                        realised spend {:.2} vs expected {:.2} (budget {budget})",
        bayes.spent, bayes.expected_spent
    );

    // Generalised cost exponents.
    println!("\ncost exponent sweep (same budget):");
    for tau in [1.5, 2.0, 3.0] {
        let sol = solve_kkt_tau(&population, &bound, budget, &SolverOptions::default(), tau)?;
        println!(
            "  tau = {tau:.1}: q* = {:?}, spent {:.2}",
            rounded(&sol.q),
            sol.spent
        );
    }

    // Decoupled cost model: a slow device is an expensive device.
    println!("\ndecoupled costs (device-seconds -> c_n):");
    for (name, speed, rate) in [
        ("fast device", 400.0, 2.0e6),
        ("slow cpu", 60.0, 2.0e6),
        ("bad uplink", 400.0, 5.0e4),
    ] {
        let comp = CostComponents::from_device(100, speed, 8_000, rate)?;
        println!(
            "  {name:<11} {:.2} s/round ({:.0}% communication) -> c = {:.1}",
            comp.seconds_per_round(),
            comp.communication_share() * 100.0,
            comp.cost_coefficient(50.0, 100)?,
        );
    }
    Ok(())
}

fn rounded(xs: &[f64]) -> Vec<f64> {
    xs.iter().map(|x| (x * 1000.0).round() / 1000.0).collect()
}
