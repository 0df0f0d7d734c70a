//! The pricing schemes compared in Section VI of the paper.
//!
//! * **Optimal** — the paper's mechanism: Stage-I prices from the KKT path
//!   (customised per client using `a_n² G_n²`, `c_n`, `v_n`).
//! * **Uniform** — one price for everyone, tuned so the induced payments
//!   exhaust the budget (the "uniform pricing Pᵘ" baseline).
//! * **Weighted** — prices proportional to datasize (`P_n = θ d_n`), tuned
//!   the same way (the "weighted pricing Pʷ" baseline).
//!
//! Every scheme produces a [`PricingOutcome`]: the price vector, the
//! participation profile the clients best-respond with, and the realised
//! spend. Baseline schemes floor the induced levels at the solver's `q_min`
//! so the resulting profile is always usable by the unbiased aggregation of
//! Lemma 1 (which needs `q_n > 0`).

use crate::bound::BoundParams;
use crate::error::GameError;
use crate::population::Population;
use crate::response::best_response;
use crate::server::{solve_kkt, KktRequest, SolverOptions};
use crate::shard::ShardedPopulation;
use fedfl_num::solve::bisect_monotone_with;
use serde::{Deserialize, Serialize};

/// Which pricing scheme the server runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PricingScheme {
    /// The paper's optimal customised pricing (Section V).
    Optimal,
    /// One common price for all clients.
    Uniform,
    /// Prices proportional to client datasize.
    Weighted,
}

impl PricingScheme {
    /// Name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            PricingScheme::Optimal => "proposed",
            PricingScheme::Uniform => "uniform",
            PricingScheme::Weighted => "weighted",
        }
    }

    /// All schemes in the paper's column order (proposed, weighted, uniform).
    pub fn all() -> [PricingScheme; 3] {
        [
            PricingScheme::Optimal,
            PricingScheme::Weighted,
            PricingScheme::Uniform,
        ]
    }

    /// Compute this scheme's prices and the induced participation profile
    /// under budget `budget`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] for invalid inputs; baseline schemes also
    /// reject negative budgets (they cannot charge clients).
    pub fn solve(
        &self,
        population: &Population,
        bound: &BoundParams,
        budget: f64,
        options: &SolverOptions,
    ) -> Result<PricingOutcome, GameError> {
        match self {
            PricingScheme::Optimal => {
                let population = ShardedPopulation::from(population);
                let (solution, _) =
                    solve_kkt(&KktRequest::new(&population, bound, budget, options))?;
                Ok(PricingOutcome {
                    scheme: *self,
                    prices: solution.prices,
                    q: solution.q,
                    spent: solution.spent,
                    saturated: solution.saturated,
                })
            }
            PricingScheme::Uniform => {
                solve_scaled(*self, population, bound, budget, options, |_n, scale| scale)
            }
            PricingScheme::Weighted => {
                let n = population.len() as f64;
                let weights = population.weights();
                solve_scaled(
                    *self,
                    population,
                    bound,
                    budget,
                    options,
                    move |i, scale| {
                        // Normalise so that `scale` is the mean price; keeps the
                        // bisection range comparable with the uniform scheme.
                        scale * weights[i] * n
                    },
                )
            }
        }
    }
}

/// A pricing scheme's prices and the clients' induced responses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PricingOutcome {
    /// Which scheme produced this outcome.
    pub scheme: PricingScheme,
    /// Per-client prices `P_n`.
    pub prices: Vec<f64>,
    /// Induced participation levels (floored at the solver's `q_min`).
    pub q: Vec<f64>,
    /// Realised total payment `Σ P_n q_n`.
    pub spent: f64,
    /// Whether every client saturated at `q_max` with budget left over.
    pub saturated: bool,
}

impl PricingOutcome {
    /// The Theorem 1 variance term at the induced profile (lower is better
    /// for the server).
    pub fn variance_term(&self, population: &Population, bound: &BoundParams) -> f64 {
        bound.variance_term(population, &self.q)
    }

    /// The full optimality-gap bound at the induced profile.
    pub fn optimality_gap(&self, population: &Population, bound: &BoundParams) -> f64 {
        bound.optimality_gap(population, &self.q)
    }

    /// Number of clients that pay the server (negative price).
    pub fn negative_payment_count(&self) -> usize {
        self.prices
            .iter()
            .zip(&self.q)
            .filter(|(&p, &q)| p * q < 0.0)
            .count()
    }
}

/// Shared solver for the scale-parameterised baselines: prices are
/// `P_n = shape(n, scale)` and the scalar `scale ≥ 0` is bisected until the
/// induced spend meets the budget (or everyone saturates).
fn solve_scaled<F>(
    scheme: PricingScheme,
    population: &Population,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    shape: F,
) -> Result<PricingOutcome, GameError>
where
    F: Fn(usize, f64) -> f64,
{
    if !(budget.is_finite() && budget >= 0.0) {
        return Err(GameError::InvalidParameter {
            name: "budget",
            reason: format!("baseline schemes need a non-negative budget, got {budget}"),
        });
    }
    let respond = |scale: f64| -> Result<(Vec<f64>, Vec<f64>, f64), GameError> {
        let mut prices = Vec::with_capacity(population.len());
        let mut q = Vec::with_capacity(population.len());
        let mut spent = 0.0;
        for (i, c) in population.iter().enumerate() {
            let p = shape(i, scale);
            let raw = best_response(c, bound, p)?;
            let level = raw.clamp(options.q_min, c.q_max);
            spent += p * level;
            prices.push(p);
            q.push(level);
        }
        Ok((prices, q, spent))
    };

    // Exponential search for an upper scale, then bisection. Spend grows
    // without bound in the scale (payments keep rising after saturation), so
    // the doubling always terminates for positive budgets.
    let mut hi = 1.0;
    for _ in 0..200 {
        let (_, _, spent) = respond(hi)?;
        if spent >= budget {
            break;
        }
        hi *= 2.0;
    }
    let scale = bisect_monotone_with(
        |s| match respond(s) {
            Ok((_, _, spent)) => spent,
            Err(_) => f64::INFINITY,
        },
        budget,
        0.0,
        hi,
        options.config.tolerance,
        options.config.max_iters,
    )?;
    let (prices, q, spent) = respond(scale)?;
    let saturated = q
        .iter()
        .zip(population.iter())
        .all(|(&qi, c)| qi >= c.q_max - 1e-9);
    Ok(PricingOutcome {
        scheme,
        prices,
        q,
        spent,
        saturated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        BoundParams::new(4000.0, 100.0, 1000).unwrap()
    }

    #[test]
    fn all_schemes_respect_the_budget() {
        let p = population();
        let b = bound();
        let budget = 10.0;
        for scheme in PricingScheme::all() {
            let outcome = scheme
                .solve(&p, &b, budget, &SolverOptions::default())
                .unwrap();
            assert!(
                outcome.spent <= budget + 1e-6,
                "{} overspent: {}",
                scheme.name(),
                outcome.spent
            );
            assert_eq!(outcome.q.len(), p.len());
            assert!(outcome.q.iter().all(|&q| q > 0.0 && q <= 1.0));
        }
    }

    #[test]
    fn optimal_achieves_the_lowest_bound() {
        // The whole point of the mechanism: for the same budget, customised
        // pricing beats both baselines on the convergence bound.
        let p = population();
        let b = bound();
        let budget = 10.0;
        let gaps: Vec<(PricingScheme, f64)> = PricingScheme::all()
            .into_iter()
            .map(|s| {
                let o = s.solve(&p, &b, budget, &SolverOptions::default()).unwrap();
                (s, o.optimality_gap(&p, &b))
            })
            .collect();
        let optimal_gap = gaps[0].1;
        for (scheme, gap) in &gaps[1..] {
            assert!(
                optimal_gap <= gap + 1e-9,
                "{} beat the optimal scheme: {gap} < {optimal_gap}",
                scheme.name()
            );
        }
    }

    #[test]
    fn uniform_prices_are_uniform() {
        let p = population();
        let o = PricingScheme::Uniform
            .solve(&p, &bound(), 10.0, &SolverOptions::default())
            .unwrap();
        let first = o.prices[0];
        assert!(o.prices.iter().all(|&x| (x - first).abs() < 1e-9));
        assert!(first >= 0.0);
    }

    #[test]
    fn weighted_prices_scale_with_datasize() {
        let p = population();
        let o = PricingScheme::Weighted
            .solve(&p, &bound(), 10.0, &SolverOptions::default())
            .unwrap();
        // P_n / a_n constant.
        let ratios: Vec<f64> = o
            .prices
            .iter()
            .zip(p.weights())
            .map(|(&pr, a)| pr / a)
            .collect();
        let first = ratios[0];
        assert!(
            ratios
                .iter()
                .all(|&r| (r - first).abs() < 1e-6 * first.abs().max(1.0)),
            "{ratios:?}"
        );
        // The largest client has the largest price.
        assert!(o.prices[0] > o.prices[3]);
    }

    #[test]
    fn baselines_spend_the_whole_budget_when_not_saturated() {
        let p = population();
        let b = bound();
        let budget = 10.0;
        for scheme in [PricingScheme::Uniform, PricingScheme::Weighted] {
            let o = scheme
                .solve(&p, &b, budget, &SolverOptions::default())
                .unwrap();
            if !o.saturated {
                assert!(
                    (o.spent - budget).abs() < 1e-5,
                    "{} left budget unspent: {}",
                    scheme.name(),
                    o.spent
                );
            }
        }
    }

    #[test]
    fn baselines_reject_negative_budget() {
        let p = population();
        let b = bound();
        assert!(PricingScheme::Uniform
            .solve(&p, &b, -5.0, &SolverOptions::default())
            .is_err());
        assert!(PricingScheme::Weighted
            .solve(&p, &b, -5.0, &SolverOptions::default())
            .is_err());
    }

    #[test]
    fn zero_budget_baselines_rely_on_intrinsic_value() {
        let p = population();
        let b = bound();
        let o = PricingScheme::Uniform
            .solve(&p, &b, 0.0, &SolverOptions::default())
            .unwrap();
        // Price 0: only intrinsic-value clients participate above the floor.
        assert!(o.prices.iter().all(|&x| x.abs() < 1e-6));
        assert!(o.q[3] > o.q[0], "high-value client should participate more");
    }

    #[test]
    fn scheme_names_and_order() {
        assert_eq!(
            PricingScheme::all().map(|s| s.name()),
            ["proposed", "weighted", "uniform"]
        );
    }

    #[test]
    fn negative_payment_count_detects_bidirectional_payments() {
        // Give one client an enormous intrinsic value: at the optimum it
        // should pay the server.
        let p = Population::builder()
            .weights(vec![0.5, 0.5])
            .g_squared(vec![4.0, 4.0])
            .costs(vec![50.0, 50.0])
            .values(vec![0.0, 100_000.0])
            .build()
            .unwrap();
        let b = bound();
        let o = PricingScheme::Optimal
            .solve(&p, &b, 10.0, &SolverOptions::default())
            .unwrap();
        assert!(
            o.negative_payment_count() >= 1,
            "expected a negative payment, got prices {:?}",
            o.prices
        );
    }
}
