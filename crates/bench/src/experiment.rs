//! End-to-end experiment pipeline.
//!
//! One experiment instance follows the paper's own measurement protocol:
//!
//! 1. generate the setup's federated dataset;
//! 2. run a short full-participation warm-up to estimate the per-client
//!    gradient-norm bounds `G_n²` ("letting the participated clients send
//!    back their actual local stochastic gradient norms") and the other
//!    Assumption 1–3 constants;
//! 3. instantiate the Theorem 1 bound. The raw theoretical
//!    `α = 8LE/µ²` is astronomically conservative (as usual for
//!    convergence bounds), so — like the paper, which "estimates the
//!    task-related parameter α following \[22\]" — the *game* uses a
//!    calibrated α chosen so that the mean intrinsic gain
//!    `K̄ = v̄·(α/R)·mean(a_n²G_n²)` is `kappa` times the mean cost c̄.
//!    This keeps the intrinsic-value channel material without letting it
//!    degenerate the budget (see EXPERIMENTS.md); the theoretical constants
//!    are kept alongside for the bound-fidelity ablation;
//! 4. sample the cost/value population (Table I), solve the requested
//!    pricing scheme, and train with the induced participation levels on
//!    the simulated testbed.

use crate::setups::Setup;
use fedfl_core::bound::BoundParams;
use fedfl_core::population::Population;
use fedfl_core::pricing::{PricingOutcome, PricingScheme};
use fedfl_core::server::SolverOptions;
use fedfl_core::GameError;
use fedfl_data::{DataError, FederatedDataset};
use fedfl_model::estimate::{estimate_heterogeneity, HeterogeneityEstimate};
use fedfl_model::{LogisticModel, ModelError};
use fedfl_num::rng::split;
use fedfl_sim::aggregation::AggregationRule;
use fedfl_sim::runner::{run_federated, FlRunConfig};
use fedfl_sim::timing::SystemProfile;
use fedfl_sim::trace::{TraceBundle, TrainingTrace};
use fedfl_sim::{ParticipationLevels, SimError};
use std::fmt;

/// Error for the experiment pipeline.
#[derive(Debug)]
pub enum HarnessError {
    /// Dataset generation failed.
    Data(DataError),
    /// Model substrate failed.
    Model(ModelError),
    /// Simulator failed.
    Sim(SimError),
    /// Game solver failed.
    Game(GameError),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Data(e) => write!(f, "data error: {e}"),
            HarnessError::Model(e) => write!(f, "model error: {e}"),
            HarnessError::Sim(e) => write!(f, "simulation error: {e}"),
            HarnessError::Game(e) => write!(f, "game error: {e}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<DataError> for HarnessError {
    fn from(e: DataError) -> Self {
        HarnessError::Data(e)
    }
}
impl From<ModelError> for HarnessError {
    fn from(e: ModelError) -> Self {
        HarnessError::Model(e)
    }
}
impl From<SimError> for HarnessError {
    fn from(e: SimError) -> Self {
        HarnessError::Sim(e)
    }
}
impl From<GameError> for HarnessError {
    fn from(e: GameError) -> Self {
        HarnessError::Game(e)
    }
}

/// Everything needed to run pricing schemes and training for one setup.
#[derive(Debug, Clone)]
pub struct PreparedExperiment {
    /// The setup this was prepared from.
    pub setup: Setup,
    /// Master experiment seed.
    pub seed: u64,
    /// The generated federated dataset.
    pub dataset: FederatedDataset,
    /// The logistic-regression task.
    pub model: LogisticModel,
    /// The simulated device/network heterogeneity.
    pub system: SystemProfile,
    /// Warm-up estimates of `G_n²`, `σ_n²`, `L`.
    pub estimate: HeterogeneityEstimate,
    /// Calibrated bound used by the game (see module docs).
    pub bound: BoundParams,
    /// Raw Theorem 1 constants (for the bound-fidelity ablation).
    pub theoretical_bound: BoundParams,
    /// The sampled cost/value population.
    pub population: Population,
}

/// Prepare an experiment: dataset, warm-up estimation, calibration,
/// population sampling.
///
/// # Errors
///
/// Returns [`HarnessError`] if any pipeline stage fails.
pub fn prepare(setup: &Setup, seed: u64) -> Result<PreparedExperiment, HarnessError> {
    let dataset = setup.dataset.generate(split(seed, 1))?;
    let model = LogisticModel::new(dataset.dim(), dataset.n_classes(), setup.l2_reg)?;
    let system = SystemProfile::generate(split(seed, 2), dataset.n_clients());
    let estimate = estimate_heterogeneity(
        split(seed, 3),
        &model,
        &dataset,
        &setup.sgd,
        setup.warmup_rounds,
    )?;
    let weights = dataset.weights();

    let theoretical_bound = BoundParams::from_constants(
        estimate.l_bound,
        estimate.mu,
        setup.sgd.local_steps,
        setup.rounds,
        &weights,
        &estimate.sigma_squared,
        &estimate.g_squared,
        0.0, // Γ ≥ 0 unknown without F*; conservative 0 only shifts β.
        estimate.w0_dist_squared,
    )?;

    let population = Population::sample(
        split(seed, 4),
        &weights,
        &estimate.g_squared,
        setup.mean_cost,
        setup.mean_value,
        1.0,
    )?;

    // Calibrate α: expected intrinsic gain = kappa × mean cost (module
    // docs). Uses the *configured* calibration means — not the realised
    // draws — so that sweeps over v̄ or c̄ (Table V, Figs. 5–6) vary the
    // population while α stays the fixed task property it is in the paper.
    let calibration_cost = setup.calibration_cost.unwrap_or(setup.mean_cost);
    let calibration_value = setup.calibration_value.unwrap_or(setup.mean_value);
    let mean_a2g2: f64 = population.iter().map(|c| c.a2g2()).sum::<f64>() / population.len() as f64;
    let alpha = if calibration_value > 0.0 && mean_a2g2 > 0.0 {
        setup.kappa * calibration_cost * setup.rounds as f64 / (calibration_value * mean_a2g2)
    } else {
        // Zero intrinsic values: α only rescales the objective, any
        // positive value gives the same equilibrium.
        setup.rounds as f64
    };
    let bound = BoundParams::new(alpha, theoretical_bound.beta(), setup.rounds)?;

    Ok(PreparedExperiment {
        setup: setup.clone(),
        seed,
        dataset,
        model,
        system,
        estimate,
        bound,
        theoretical_bound,
        population,
    })
}

/// A pricing scheme's equilibrium outcome plus one training run.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// The scheme's prices and induced participation profile.
    pub outcome: PricingOutcome,
    /// The training trace under that profile.
    pub trace: TrainingTrace,
}

impl PreparedExperiment {
    /// Solve a pricing scheme on the prepared game instance.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Game`] if the scheme's solver fails.
    pub fn solve_scheme(&self, scheme: PricingScheme) -> Result<PricingOutcome, HarnessError> {
        Ok(scheme.solve(
            &self.population,
            &self.bound,
            self.setup.budget,
            &SolverOptions::default(),
        )?)
    }

    /// The [`FlRunConfig`] this experiment trains with.
    pub fn fl_config(&self, run_seed: u64) -> FlRunConfig {
        FlRunConfig {
            rounds: self.setup.rounds,
            sgd: self.setup.sgd,
            aggregation: AggregationRule::UnbiasedInverseProbability,
            eval_every: self.setup.eval_every,
            seed: run_seed,
            n_threads: 0,
        }
    }

    /// Train once with an explicit participation profile.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Sim`] on simulation failure.
    pub fn train_with_q(&self, q: &[f64], run_seed: u64) -> Result<TrainingTrace, HarnessError> {
        let levels = ParticipationLevels::new(q.to_vec())?;
        Ok(run_federated(
            &self.model,
            &self.dataset,
            &levels,
            &self.system,
            &self.fl_config(run_seed),
        )?)
    }

    /// Solve a scheme and train once.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError`] from either stage.
    pub fn run_scheme(
        &self,
        scheme: PricingScheme,
        run_seed: u64,
    ) -> Result<SchemeRun, HarnessError> {
        let outcome = self.solve_scheme(scheme)?;
        let trace = self.train_with_q(&outcome.q, run_seed)?;
        Ok(SchemeRun { outcome, trace })
    }

    /// Total client utility `Σ_n (P_n q_n − c_n q_n² + v_n·(0 − gap(q)))`
    /// under a scheme's outcome — the Table IV quantity (up to the common
    /// per-client constant `v_n(F(w*_n) − F*)`, which cancels in the
    /// paper's reported *differences*).
    pub fn total_client_utility(&self, outcome: &PricingOutcome) -> f64 {
        let gap = self.bound.optimality_gap(&self.population, &outcome.q);
        self.population
            .iter()
            .enumerate()
            .map(|(n, c)| {
                outcome.prices[n] * outcome.q[n] - c.cost * outcome.q[n] * outcome.q[n]
                    + c.value * (0.0 - gap)
            })
            .sum()
    }
}

/// A scheme's outcome with training traces over several independent runs.
#[derive(Debug, Clone)]
pub struct SchemeComparison {
    /// Which pricing scheme.
    pub scheme: PricingScheme,
    /// The (run-independent) equilibrium outcome.
    pub outcome: PricingOutcome,
    /// Training traces, one per run.
    pub bundle: TraceBundle,
}

/// Run all three pricing schemes on one setup, `n_runs` training runs each
/// (the paper uses 20; the quick profile uses fewer).
///
/// # Errors
///
/// Returns [`HarnessError`] if preparation, a solver, or a run fails.
pub fn compare_schemes(
    setup: &Setup,
    seed: u64,
    n_runs: usize,
) -> Result<(PreparedExperiment, Vec<SchemeComparison>), HarnessError> {
    let prepared = prepare(setup, seed)?;
    let mut comparisons = Vec::new();
    for scheme in PricingScheme::all() {
        let outcome = prepared.solve_scheme(scheme)?;
        let mut bundle = TraceBundle::new();
        for run in 0..n_runs {
            let run_seed = split(seed, 0xB00 + run as u64);
            bundle.push(prepared.train_with_q(&outcome.q, run_seed)?);
        }
        comparisons.push(SchemeComparison {
            scheme,
            outcome,
            bundle,
        });
    }
    Ok((prepared, comparisons))
}

/// Solve the proposed scheme on a setup and train `n_runs` times — the
/// pipeline behind the parameter-impact figures (Figs. 5–7), which evaluate
/// only the proposed mechanism.
///
/// # Errors
///
/// Returns [`HarnessError`] if preparation, the solver, or a run fails.
pub fn run_proposed_bundle(
    setup: &Setup,
    seed: u64,
    n_runs: usize,
) -> Result<(PreparedExperiment, PricingOutcome, TraceBundle), HarnessError> {
    let prepared = prepare(setup, seed)?;
    let outcome = prepared.solve_scheme(PricingScheme::Optimal)?;
    let mut bundle = TraceBundle::new();
    for run in 0..n_runs {
        let run_seed = split(seed, 0xF16 + run as u64);
        bundle.push(prepared.train_with_q(&outcome.q, run_seed)?);
    }
    Ok((prepared, outcome, bundle))
}

/// A loss target every scheme reaches: the worst final mean loss across
/// schemes (the paper reads its targets off the separated plateau of
/// Fig. 4, which is exactly this level).
pub fn common_loss_target(comparisons: &[SchemeComparison]) -> f64 {
    comparisons
        .iter()
        .filter_map(|c| {
            let d = c
                .bundle
                .traces()
                .iter()
                .map(|t| t.duration())
                .fold(0.0, f64::max);
            c.bundle.mean_loss_at_time(d)
        })
        .fold(f64::NEG_INFINITY, f64::max)
}

/// An accuracy target every scheme reaches: the worst final mean accuracy
/// across schemes.
pub fn common_accuracy_target(comparisons: &[SchemeComparison]) -> f64 {
    comparisons
        .iter()
        .filter_map(|c| {
            let d = c
                .bundle
                .traces()
                .iter()
                .map(|t| t.duration())
                .fold(0.0, f64::max);
            c.bundle.mean_accuracy_at_time(d)
        })
        .fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setups::Setup;

    fn tiny_setup() -> Setup {
        let mut s = Setup::quick(1);
        s.rounds = 12;
        s.eval_every = 3;
        s.warmup_rounds = 2;
        if let crate::setups::DatasetKind::Synthetic(cfg) = &mut s.dataset {
            cfg.n_clients = 10;
            cfg.total_samples = 600;
            cfg.dim = 16;
            cfg.n_classes = 4;
            cfg.min_per_client = 10;
            cfg.test_samples = 200;
        }
        s
    }

    #[test]
    fn prepare_produces_consistent_shapes() {
        let s = tiny_setup();
        let prep = prepare(&s, 7).unwrap();
        assert_eq!(prep.population.len(), prep.dataset.n_clients());
        assert_eq!(prep.estimate.g_squared.len(), prep.dataset.n_clients());
        assert!(prep.bound.alpha() > 0.0);
        assert!(prep.theoretical_bound.alpha() > prep.bound.alpha());
        assert_eq!(prep.bound.rounds(), s.rounds);
    }

    #[test]
    fn calibration_matches_configured_means() {
        let s = tiny_setup();
        let prep = prepare(&s, 7).unwrap();
        let mean_a2g2: f64 =
            prep.population.iter().map(|c| c.a2g2()).sum::<f64>() / prep.population.len() as f64;
        let expected = s.kappa * s.mean_cost * s.rounds as f64 / (s.mean_value * mean_a2g2);
        assert!(
            (prep.bound.alpha() - expected).abs() / expected < 1e-12,
            "alpha {} vs expected {expected}",
            prep.bound.alpha()
        );
    }

    #[test]
    fn pinned_calibration_survives_a_value_sweep() {
        let mut s = tiny_setup();
        s.calibration_value = Some(s.mean_value);
        let base_alpha = prepare(&s, 7).unwrap().bound.alpha();
        s.mean_value *= 20.0;
        let swept_alpha = prepare(&s, 7).unwrap().bound.alpha();
        assert_eq!(base_alpha, swept_alpha);
    }

    #[test]
    fn run_scheme_trains_and_traces() {
        let s = tiny_setup();
        let prep = prepare(&s, 3).unwrap();
        let run = prep.run_scheme(PricingScheme::Optimal, 11).unwrap();
        assert!(run.trace.n_evaluations() > 1);
        assert!(run.outcome.spent <= s.budget + 1e-6);
        assert!(run.trace.final_loss().unwrap().is_finite());
    }

    #[test]
    fn compare_schemes_produces_three_bundles() {
        let s = tiny_setup();
        let (_prep, comparisons) = compare_schemes(&s, 5, 2).unwrap();
        assert_eq!(comparisons.len(), 3);
        for c in &comparisons {
            assert_eq!(c.bundle.n_runs(), 2);
        }
        let loss_target = common_loss_target(&comparisons);
        assert!(loss_target.is_finite());
        let acc_target = common_accuracy_target(&comparisons);
        assert!((0.0..=1.0).contains(&acc_target));
    }

    #[test]
    fn client_utility_is_finite_and_scheme_dependent() {
        let s = tiny_setup();
        let prep = prepare(&s, 9).unwrap();
        let optimal = prep.solve_scheme(PricingScheme::Optimal).unwrap();
        let uniform = prep.solve_scheme(PricingScheme::Uniform).unwrap();
        let u_opt = prep.total_client_utility(&optimal);
        let u_uni = prep.total_client_utility(&uniform);
        assert!(u_opt.is_finite() && u_uni.is_finite());
        assert_ne!(u_opt, u_uni);
    }
}
