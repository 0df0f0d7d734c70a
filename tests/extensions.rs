//! Integration tests for the future-work extensions: generalised cost
//! exponents, incomplete information, and the decoupled cost model — all
//! exercised against the same training pipeline as the main mechanism.

use fedfl::core::bayesian::{solve_bayesian, BayesianConfig, Prior};
use fedfl::core::bound::BoundParams;
use fedfl::core::cost::{derive_cost_coefficients, CostComponents};
use fedfl::core::population::Population;
use fedfl::core::server::{solve_kkt, KktRequest, SolverOptions};
use fedfl::core::shard::ShardedPopulation;
use fedfl::core::tau::solve_kkt_tau;
use fedfl::data::synthetic::SyntheticConfig;
use fedfl::model::sgd::{LocalSgdConfig, LrSchedule};
use fedfl::model::LogisticModel;
use fedfl::sim::runner::{run_federated, FlRunConfig};
use fedfl::sim::timing::SystemProfile;
use fedfl::sim::ParticipationLevels;

fn population() -> Population {
    Population::builder()
        .weights(vec![0.4, 0.3, 0.2, 0.1])
        .g_squared(vec![9.0, 16.0, 25.0, 36.0])
        .costs(vec![30.0, 50.0, 70.0, 90.0])
        .values(vec![0.0, 2.0, 5.0, 10.0])
        .build()
        .unwrap()
}

fn bound() -> BoundParams {
    BoundParams::new(4_000.0, 100.0, 1_000).unwrap()
}

#[test]
fn tau_profile_trains_like_the_quadratic_one() {
    // A τ = 3 equilibrium produces a valid participation profile that the
    // simulator accepts and that trains to a finite, decreasing loss.
    let mut config = SyntheticConfig::small();
    config.n_clients = 4;
    config.total_samples = 400;
    let dataset = config.generate(11).unwrap();
    let model = LogisticModel::new(dataset.dim(), dataset.n_classes(), 1e-2).unwrap();
    let system = SystemProfile::generate(11, 4);
    let sol = solve_kkt_tau(
        &population(),
        &bound(),
        10.0,
        &SolverOptions::default(),
        3.0,
    )
    .unwrap();
    let q = ParticipationLevels::new(sol.q.clone()).unwrap();
    let run = FlRunConfig {
        rounds: 20,
        sgd: LocalSgdConfig {
            local_steps: 10,
            batch_size: 16,
            schedule: LrSchedule::ExponentialDecay {
                initial: 0.1,
                decay: 0.99,
            },
        },
        eval_every: 5,
        seed: 3,
        ..FlRunConfig::fast()
    };
    let trace = run_federated(&model, &dataset, &q, &system, &run).unwrap();
    assert!(trace.final_loss().unwrap() < trace.records()[0].global_loss);
}

#[test]
fn tau_sweep_preserves_budget_feasibility() {
    let p = population();
    let b = bound();
    for tau in [1.2, 1.5, 2.0, 2.5, 3.0, 4.0] {
        let sol = solve_kkt_tau(&p, &b, 10.0, &SolverOptions::default(), tau).unwrap();
        assert!(
            sol.spent <= 10.0 + 1e-6,
            "tau={tau} overspent: {}",
            sol.spent
        );
        assert!(sol.q.iter().all(|&q| q > 0.0 && q <= 1.0));
    }
}

#[test]
fn bayesian_pricing_supports_the_training_pipeline() {
    let mut config = SyntheticConfig::small();
    config.n_clients = 4;
    config.total_samples = 400;
    let dataset = config.generate(12).unwrap();
    let model = LogisticModel::new(dataset.dim(), dataset.n_classes(), 1e-2).unwrap();
    let system = SystemProfile::generate(12, 4);
    let outcome = solve_bayesian(
        &population(),
        &Prior::Exponential { mean: 50.0 },
        &Prior::Exponential { mean: 5.0 },
        &bound(),
        10.0,
        &BayesianConfig::default(),
    )
    .unwrap();
    let q = ParticipationLevels::new(outcome.q.clone()).unwrap();
    let mut run = FlRunConfig::fast();
    run.rounds = 15;
    let trace = run_federated(&model, &dataset, &q, &system, &run).unwrap();
    assert!(trace.final_loss().unwrap().is_finite());
}

#[test]
fn decoupled_costs_plug_into_the_game() {
    // Derive c_n from the simulated testbed's device speeds, build the
    // population from them, and solve: slower devices should get lower
    // equilibrium participation (same a²G², v).
    let system = SystemProfile::generate(33, 4);
    let components: Vec<CostComponents> = (0..4)
        .map(|n| {
            CostComponents::from_device(
                50,
                system.compute_speeds()[n],
                2_000,
                system.upload_rates()[n],
            )
            .unwrap()
        })
        .collect();
    let costs = derive_cost_coefficients(&components, 0.5, 100).unwrap();
    let population = Population::builder()
        .weights(vec![0.25; 4])
        .g_squared(vec![16.0; 4])
        .costs(costs.clone())
        .values(vec![0.0; 4])
        .build()
        .unwrap();
    let sharded = ShardedPopulation::from(&population);
    let options = SolverOptions::default();
    let (sol, _) = solve_kkt(&KktRequest::new(&sharded, &bound(), 15.0, &options)).unwrap();
    // Order of q must be inverse to the order of derived costs.
    for i in 0..4 {
        for j in 0..4 {
            if costs[i] < costs[j] {
                assert!(
                    sol.q[i] >= sol.q[j] - 1e-9,
                    "cheaper device {i} participates less than {j}: {:?} vs {costs:?}",
                    sol.q
                );
            }
        }
    }
}

#[test]
fn random_availability_composes_with_lemma1() {
    // Random availability at rate p: aggregating with q_eff = q·p keeps the
    // run close to the always-on reference; a deterministic duty cycle with
    // the same long-run rate does not compose (documented bias).
    use fedfl::sim::availability::{AvailabilityModel, AvailabilityPattern};
    use fedfl::sim::runner::run_federated_available;

    let mut config = SyntheticConfig::small();
    config.n_clients = 8;
    config.total_samples = 800;
    let dataset = config.generate(21).unwrap();
    let model = LogisticModel::new(dataset.dim(), dataset.n_classes(), 1e-2).unwrap();
    let system = SystemProfile::generate(21, 8);
    let q = ParticipationLevels::uniform(8, 0.8).unwrap();
    let run = FlRunConfig {
        rounds: 40,
        sgd: LocalSgdConfig {
            local_steps: 10,
            batch_size: 16,
            schedule: LrSchedule::ExponentialDecay {
                initial: 0.1,
                decay: 0.99,
            },
        },
        eval_every: 10,
        seed: 5,
        ..FlRunConfig::fast()
    };

    let always = AvailabilityModel::always_on(8);
    let reference = run_federated_available(&model, &dataset, &q, &always, &system, &run).unwrap();

    let random =
        AvailabilityModel::new(vec![AvailabilityPattern::Random { probability: 0.6 }; 8]).unwrap();
    assert!(random.preserves_unbiasedness());
    let randomly_available =
        run_federated_available(&model, &dataset, &q, &random, &system, &run).unwrap();

    // Both must make real progress; the random-availability run converges
    // more slowly (fewer effective participants) but stays in the same
    // neighbourhood because the aggregation is corrected by q_eff.
    let ref_loss = reference.final_loss().unwrap();
    let rand_loss = randomly_available.final_loss().unwrap();
    assert!(ref_loss < reference.records()[0].global_loss);
    assert!(rand_loss < randomly_available.records()[0].global_loss);
    assert!(
        (rand_loss - ref_loss).abs() < 0.35 * ref_loss + 0.1,
        "corrected random availability strayed too far: {rand_loss} vs {ref_loss}"
    );
}

#[test]
fn information_cost_is_nonnegative_on_average() {
    let b = bound();
    let mut worse = 0;
    let trials = 6u64;
    for seed in 0..trials {
        let p = Population::sample(
            seed,
            &[0.4, 0.3, 0.2, 0.1],
            &[9.0, 16.0, 25.0, 36.0],
            50.0,
            5.0,
            1.0,
        )
        .unwrap();
        let sharded = ShardedPopulation::from(&p);
        let options = SolverOptions::default();
        let (complete, _) = solve_kkt(&KktRequest::new(&sharded, &b, 10.0, &options)).unwrap();
        let bayes = solve_bayesian(
            &p,
            &Prior::Exponential { mean: 50.0 },
            &Prior::Exponential { mean: 5.0 },
            &b,
            10.0,
            &BayesianConfig {
                seed,
                ..Default::default()
            },
        )
        .unwrap();
        if bayes.variance_term(&p, &b) >= complete.variance_term(&p, &b) - 1e-9 {
            worse += 1;
        }
    }
    assert!(
        worse >= trials - 1,
        "incomplete info too often better: {worse}/{trials}"
    );
}
