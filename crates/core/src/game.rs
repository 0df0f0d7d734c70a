//! The CPL game façade: population + bound + budget.
//!
//! [`CplGame`] ties the two stages together: construct it with a
//! [`Population`], the Theorem 1 [`BoundParams`] and a budget, then
//! [`CplGame::solve`] for the Stackelberg equilibrium (backward induction:
//! the clients' response maps are substituted into Stage I, which is solved
//! on the KKT path, and prices are read back through equation (17)).

use crate::bound::BoundParams;
use crate::equilibrium::StackelbergEquilibrium;
use crate::error::GameError;
use crate::population::Population;
use crate::pricing::{PricingOutcome, PricingScheme};
use crate::server::{solve_kkt, solve_m_search, KktRequest, SolverOptions};
use crate::shard::ShardedPopulation;
use serde::{Deserialize, Serialize};

/// A fully-specified instance of the Client Participation Level game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CplGame {
    population: Population,
    bound: BoundParams,
    budget: f64,
    options: SolverOptions,
}

impl CplGame {
    /// Create a game instance.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] for a non-finite budget.
    pub fn new(population: Population, bound: BoundParams, budget: f64) -> Result<Self, GameError> {
        if !budget.is_finite() {
            return Err(GameError::InvalidParameter {
                name: "budget",
                reason: format!("must be finite, got {budget}"),
            });
        }
        Ok(Self {
            population,
            bound,
            budget,
            options: SolverOptions::default(),
        })
    }

    /// Replace the solver options.
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// The client population.
    pub fn population(&self) -> &Population {
        &self.population
    }

    /// The Theorem 1 bound constants.
    pub fn bound(&self) -> &BoundParams {
        &self.bound
    }

    /// The server's budget `B`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The solver options in use.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Solve for the Stackelberg equilibrium along the KKT path.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if the Stage-I solver fails.
    pub fn solve(&self) -> Result<StackelbergEquilibrium, GameError> {
        let population = ShardedPopulation::from(&self.population);
        let (stage_one, _) = solve_kkt(&KktRequest::new(
            &population,
            &self.bound,
            self.budget,
            &self.options,
        ))?;
        Ok(StackelbergEquilibrium::from_stage_one(
            stage_one,
            &self.population,
            &self.bound,
            self.budget,
        ))
    }

    /// Solve with the paper's literal two-step `M`-search (slow; used for
    /// cross-validation and the solver ablation).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::SolverFailed`] if no feasible `M` exists.
    pub fn solve_via_m_search(&self) -> Result<StackelbergEquilibrium, GameError> {
        let stage_one = solve_m_search(
            &ShardedPopulation::from(&self.population),
            &self.bound,
            self.budget,
            &self.options,
        )?;
        Ok(StackelbergEquilibrium::from_stage_one(
            stage_one,
            &self.population,
            &self.bound,
            self.budget,
        ))
    }

    /// Run an arbitrary pricing scheme (optimal or a baseline) on this game
    /// instance.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if the scheme's solver fails (e.g. baselines
    /// with a negative budget).
    pub fn run_scheme(&self, scheme: PricingScheme) -> Result<PricingOutcome, GameError> {
        scheme.solve(&self.population, &self.bound, self.budget, &self.options)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game(budget: f64) -> CplGame {
        let population = Population::builder()
            .weights(vec![0.4, 0.3, 0.2, 0.1])
            .g_squared(vec![9.0, 16.0, 25.0, 36.0])
            .costs(vec![30.0, 50.0, 70.0, 90.0])
            .values(vec![0.0, 2.0, 5.0, 10.0])
            .build()
            .unwrap();
        let bound = BoundParams::new(4000.0, 100.0, 1000).unwrap();
        CplGame::new(population, bound, budget).unwrap()
    }

    #[test]
    fn solve_produces_verified_equilibrium() {
        let g = game(10.0);
        let se = g.solve().unwrap();
        assert!(se.is_budget_tight(1e-6));
        assert!(se
            .verify_client_optimality(g.population(), g.bound(), 1e-6)
            .unwrap());
    }

    #[test]
    fn m_search_and_kkt_agree_on_the_gap() {
        let g = game(10.0);
        let kkt = g.solve().unwrap();
        let ms = g.solve_via_m_search().unwrap();
        let rel = (ms.optimality_gap() - kkt.optimality_gap()).abs()
            / kkt.optimality_gap().abs().max(1e-12);
        assert!(rel < 0.05, "gap mismatch: {rel}");
    }

    #[test]
    fn run_scheme_matches_direct_solvers() {
        let g = game(10.0);
        let direct = g.solve().unwrap();
        let via_scheme = g.run_scheme(PricingScheme::Optimal).unwrap();
        for (a, b) in direct.q().iter().zip(&via_scheme.q) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn constructor_rejects_nan_budget() {
        let population = Population::builder()
            .weights(vec![1.0])
            .g_squared(vec![1.0])
            .costs(vec![1.0])
            .values(vec![0.0])
            .build()
            .unwrap();
        let bound = BoundParams::new(1.0, 0.0, 1).unwrap();
        assert!(CplGame::new(population, bound, f64::NAN).is_err());
    }

    #[test]
    fn accessors_and_options() {
        let g = game(10.0).with_options(SolverOptions {
            m_grid_steps: 10,
            ..Default::default()
        });
        assert_eq!(g.budget(), 10.0);
        assert_eq!(g.options().m_grid_steps, 10);
        assert_eq!(g.population().len(), 4);
        assert_eq!(g.bound().rounds(), 1000);
    }
}
