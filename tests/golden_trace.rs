//! Golden-trace regression: a committed equilibrium + training trace that
//! `solve_kkt` and `run_federated` must reproduce **exactly**.
//!
//! The serialized JSON under `tests/golden/` pins the solver's and the
//! simulator's bit-level behaviour: every f64 is printed with Rust's
//! shortest-roundtrip formatting, so any numerical drift — a reordered
//! reduction, a changed constant, an extra allocation that perturbs an
//! RNG stream — shows up as a test failure instead of silently moving the
//! paper's numbers.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```
//!
//! and review the diff like any other code change.

use fedfl::core::bound::BoundParams;
use fedfl::core::game::CplGame;
use fedfl::core::population::Population;
use fedfl::data::synthetic::SyntheticConfig;
use fedfl::model::sgd::{LocalSgdConfig, LrSchedule};
use fedfl::model::LogisticModel;
use fedfl::sim::aggregation::AggregationRule;
use fedfl::sim::runner::{run_federated, FlRunConfig};
use fedfl::sim::timing::SystemProfile;
use fedfl::sim::ParticipationLevels;
use std::path::PathBuf;

const SEED: u64 = 7;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("golden dir");
        std::fs::write(&path, format!("{actual}\n")).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {path:?} ({e}); run with UPDATE_GOLDEN=1"));
    assert_eq!(
        expected.trim_end(),
        actual,
        "{name} drifted from the committed golden copy; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

/// The fixed miniature pipeline behind both golden artefacts.
fn pipeline() -> (
    fedfl::data::FederatedDataset,
    LogisticModel,
    SystemProfile,
    Population,
    BoundParams,
) {
    let mut config = SyntheticConfig::small();
    config.n_clients = 6;
    config.total_samples = 600;
    let dataset = config.generate(SEED).expect("dataset");
    let model = LogisticModel::new(dataset.dim(), dataset.n_classes(), 1e-2).expect("model");
    let system = SystemProfile::generate(SEED, dataset.n_clients());
    let weights = dataset.weights();
    // Moderate intrinsic values keep the 25.0 budget *interior*: the
    // golden equilibrium exercises the bisection (λ* pinned) rather than
    // the trivial saturated branch.
    let g_squared = vec![9.0, 16.0, 25.0, 36.0, 16.0, 9.0];
    let population =
        Population::sample(SEED, &weights, &g_squared, 50.0, 2.0, 1.0).expect("population");
    let bound = BoundParams::new(4_000.0, 100.0, 1_000).expect("bound");
    (dataset, model, system, population, bound)
}

#[test]
fn equilibrium_matches_golden() {
    let (_, _, _, population, bound) = pipeline();
    let game = CplGame::new(population, bound, 25.0).expect("game");
    let se = game.solve().expect("solve");
    let json = serde_json::to_string(&se).expect("serialize");
    check_golden("equilibrium.json", &json);
}

#[test]
fn training_trace_matches_golden() {
    let (dataset, model, system, population, bound) = pipeline();
    let game = CplGame::new(population, bound, 25.0).expect("game");
    let se = game.solve().expect("solve");
    let levels = ParticipationLevels::new(se.q().to_vec()).expect("levels");
    let config = FlRunConfig {
        rounds: 12,
        sgd: LocalSgdConfig {
            local_steps: 10,
            batch_size: 24,
            schedule: LrSchedule::ExponentialDecay {
                initial: 0.1,
                decay: 0.99,
            },
        },
        aggregation: AggregationRule::UnbiasedInverseProbability,
        eval_every: 4,
        seed: SEED,
        n_threads: 0,
    };
    let trace = run_federated(&model, &dataset, &levels, &system, &config).expect("train");
    let json = serde_json::to_string(&trace).expect("serialize");
    check_golden("trace.json", &json);
}

#[test]
fn golden_equilibrium_is_reproduced_across_thread_counts() {
    // The determinism contract behind the golden files: thread knobs can
    // never move the numbers.
    use fedfl::core::server::{solve_kkt, KktRequest, SolverOptions};
    use fedfl::core::shard::ShardedPopulation;
    let (_, _, _, population, bound) = pipeline();
    let population = ShardedPopulation::from(&population);
    let solve = |options: SolverOptions| {
        solve_kkt(&KktRequest::new(&population, &bound, 25.0, &options)).unwrap()
    };
    let (one, _) = solve(SolverOptions::with_threads(1));
    let (many, _) = solve(SolverOptions::with_threads(8));
    assert_eq!(one, many);
}
