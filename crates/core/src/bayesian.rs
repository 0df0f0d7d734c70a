//! Incomplete information — the Bayesian extension the paper names as
//! future work ("we can adopt Bayesian method to model and analyze the
//! performance similarly with a higher complexity", footnote 1 and
//! Section VII).
//!
//! Under incomplete information the server still observes each client's
//! *public* parameters — data weight `a_n` and gradient heterogeneity
//! `G_n²` (both measurable from the warm-up) — but knows the private local
//! cost `c_n` and intrinsic value `v_n` only through priors. The posted
//! mechanism is **certainty-equivalent pricing with Bayesian budget
//! calibration**:
//!
//! 1. build the certainty-equivalent (CE) population by replacing each
//!    private type with its prior mean; the CE KKT path gives a bounded
//!    one-parameter family of candidate price vectors `P(t)` (the target
//!    level is floored at a small fraction of the cap so the `1/q²` term of
//!    the price map (17) stays finite);
//! 2. sample `n_samples` virtual type vectors from the priors and find the
//!    path point `t*` at which the *expected* spend — Monte-Carlo over true
//!    best responses to `P(t)` — meets the budget (Lemma 3 in expectation);
//! 3. post `P(t*)`.
//!
//! Clients then best-respond with their true types, so the realised spend
//! is random around the budget and the achieved bound is weakly worse than
//! the complete-information benchmark — the measurable "price of incomplete
//! information" reported by the harness.

use crate::bound::BoundParams;
use crate::error::GameError;
use crate::population::Population;
use crate::response::{best_response, inverse_price};
use crate::server::SolverOptions;
use fedfl_num::dist::Exponential;
use fedfl_num::parallel::{chunked_fill, chunked_sum};
use fedfl_num::rng::substream;
use fedfl_num::solve::bisect_monotone_with;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A prior over one private scalar parameter.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Prior {
    /// The parameter is known exactly (degenerate prior): incomplete
    /// information collapses to the complete-information mechanism.
    Point(f64),
    /// Exponential prior with the given mean — the distribution the paper's
    /// experiments draw `c_n` and `v_n` from (Table I).
    Exponential {
        /// Mean of the prior.
        mean: f64,
    },
}

impl Prior {
    /// Prior mean (the certainty-equivalent value).
    pub fn mean(&self) -> f64 {
        match *self {
            Prior::Point(v) => v,
            Prior::Exponential { mean } => mean,
        }
    }

    /// Draw one value.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidParameter`] for non-positive means or
    /// negative point values.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<f64, GameError> {
        match *self {
            Prior::Point(v) => {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(GameError::InvalidParameter {
                        name: "prior",
                        reason: format!("point prior must be finite and non-negative, got {v}"),
                    });
                }
                Ok(v)
            }
            Prior::Exponential { mean } => {
                let dist = Exponential::with_mean(mean)?;
                Ok(dist.sample(rng))
            }
        }
    }
}

/// Configuration of the Bayesian mechanism.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BayesianConfig {
    /// Monte-Carlo type samples used to estimate the expected spend.
    pub n_samples: usize,
    /// Underlying solver options (floor, tolerances).
    pub options: SolverOptions,
    /// Seed for the type sampling.
    pub seed: u64,
    /// Floor (as a fraction of each client's cap) applied to the CE target
    /// level when forming prices, keeping the `1/q²` price term bounded.
    pub price_floor_fraction: f64,
}

impl Default for BayesianConfig {
    fn default() -> Self {
        Self {
            n_samples: 64,
            options: SolverOptions::default(),
            seed: 0,
            price_floor_fraction: 0.02,
        }
    }
}

/// Outcome of posting Bayesian prices against the true population.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BayesianOutcome {
    /// Posted prices (computed from priors only).
    pub prices: Vec<f64>,
    /// True clients' best responses to the posted prices (floored at
    /// `q_min`).
    pub q: Vec<f64>,
    /// Realised spend `Σ P_n q_n` against the true types.
    pub spent: f64,
    /// The spend the server *expected* under its priors (meets the budget
    /// by construction, up to Monte-Carlo and path-discretisation error).
    pub expected_spent: f64,
}

impl BayesianOutcome {
    /// The Theorem 1 variance term realised by the true responses.
    pub fn variance_term(&self, population: &Population, bound: &BoundParams) -> f64 {
        bound.variance_term(population, &self.q)
    }
}

/// Solve the incomplete-information mechanism: post prices from priors,
/// then evaluate them against the true population.
///
/// Only the `weight`, `g_squared` and `q_max` fields of `population` are
/// visible to the server; its private `cost`/`value` fields are used
/// *solely* to evaluate the clients' true best responses afterwards.
///
/// # Errors
///
/// Returns [`GameError`] for invalid priors/configuration.
pub fn solve_bayesian(
    population: &Population,
    cost_prior: &Prior,
    value_prior: &Prior,
    bound: &BoundParams,
    budget: f64,
    config: &BayesianConfig,
) -> Result<BayesianOutcome, GameError> {
    if !budget.is_finite() {
        return Err(GameError::InvalidParameter {
            name: "budget",
            reason: format!("must be finite, got {budget}"),
        });
    }
    if config.n_samples == 0 {
        return Err(GameError::InvalidParameter {
            name: "n_samples",
            reason: "need at least one Monte-Carlo sample".into(),
        });
    }
    if !(config.price_floor_fraction > 0.0 && config.price_floor_fraction < 1.0) {
        return Err(GameError::InvalidParameter {
            name: "price_floor_fraction",
            reason: format!("must lie in (0, 1), got {}", config.price_floor_fraction),
        });
    }
    let n = population.len();
    let ce_cost = cost_prior.mean().max(1e-9);
    let ce_value = value_prior.mean();
    if !(ce_cost.is_finite() && ce_value.is_finite() && ce_value >= 0.0) {
        return Err(GameError::InvalidParameter {
            name: "priors",
            reason: "prior means must be finite and non-negative".into(),
        });
    }

    // The CE population: public (a, G², q_max) with prior-mean types.
    let ce_profiles: Vec<crate::population::ClientProfile> = population
        .iter()
        .map(|c| crate::population::ClientProfile {
            cost: ce_cost,
            value: ce_value,
            ..*c
        })
        .collect();

    // Candidate price vector along the CE KKT path at t, with a floored
    // target level so prices stay bounded. Filled into a reusable scratch
    // buffer (no allocation per bisection probe), in parallel chunks.
    let coef = bound.alpha_over_r() / 4.0;
    let threads = config.options.config.n_threads;
    let fill_prices_at = |t: f64, buf: &mut [f64]| {
        chunked_fill(buf, threads, |start, slice| {
            for (k, p) in slice.iter_mut().enumerate() {
                let c = &ce_profiles[start + k];
                let slack = (t - c.value).max(0.0);
                let raw = (coef * c.a2g2() * slack / c.cost).cbrt();
                let target = raw.clamp(config.price_floor_fraction * c.q_max, c.q_max);
                *p = inverse_price(c, bound, target).unwrap_or(f64::NAN);
            }
        });
    };

    // Virtual type table, sampled once so the expected-spend curve is
    // deterministic and monotone in t.
    let mut rng = substream(config.seed, 0xBA7E5);
    let mut types: Vec<Vec<(f64, f64)>> = Vec::with_capacity(config.n_samples);
    for _ in 0..config.n_samples {
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            let cost = cost_prior.sample(&mut rng)?.max(1e-9);
            let value = value_prior.sample(&mut rng)?;
            row.push((cost, value));
        }
        types.push(row);
    }

    // Expected spend over the sampled types when posting P(t): every
    // virtual client best-responds with its sampled type. Each sample row
    // is a deterministic chunked reduction over the clients, so the curve
    // is bit-identical for any thread count.
    let mut price_buf = vec![0.0f64; n];
    let mut expected_spend = |t: f64| -> f64 {
        fill_prices_at(t, &mut price_buf);
        if price_buf.iter().any(|p| !p.is_finite()) {
            return f64::INFINITY;
        }
        let prices = &price_buf;
        let mut total = 0.0;
        for row in &types {
            total += chunked_sum(n, threads, |range| {
                let mut acc = 0.0;
                for i in range {
                    let client = population.client(i);
                    let (cost, value) = row[i];
                    let virtual_client = crate::population::ClientProfile {
                        cost,
                        value,
                        ..*client
                    };
                    let q = best_response(&virtual_client, bound, prices[i])
                        .unwrap_or(0.0)
                        .clamp(config.options.q_min, client.q_max);
                    acc += prices[i] * q;
                }
                acc
            });
        }
        total / config.n_samples as f64
    };

    // t saturating the CE population.
    let t_hi = ce_profiles
        .iter()
        .map(|c| c.cost * c.q_max.powi(3) / (coef * c.a2g2()) + c.value)
        .fold(0.0f64, f64::max)
        * (1.0 + 1e-12)
        + 1e-12;
    let t_star = if expected_spend(t_hi) <= budget {
        t_hi
    } else {
        bisect_monotone_with(
            &mut expected_spend,
            budget,
            0.0,
            t_hi,
            config.options.config.tolerance,
            config.options.config.max_iters,
        )?
    };
    let expected_spent = expected_spend(t_star);
    let prices = price_buf;
    if let Some(bad) = prices.iter().position(|p| !p.is_finite()) {
        return Err(GameError::SolverFailed {
            solver: "bayesian",
            reason: format!("non-finite posted price for client {bad}"),
        });
    }

    // True responses.
    let mut q = Vec::with_capacity(n);
    let mut spent = 0.0;
    for (client, &price) in population.iter().zip(&prices) {
        let raw = best_response(client, bound, price)?;
        let level = raw.clamp(config.options.q_min, client.q_max);
        spent += price * level;
        q.push(level);
    }
    Ok(BayesianOutcome {
        prices,
        q,
        spent,
        expected_spent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{solve_kkt, KktRequest};
    use crate::shard::ShardedPopulation;

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
    fn point_priors_recover_complete_information() {
        // Degenerate priors at the true (homogeneous) types: the Bayesian
        // mechanism must coincide with the complete-information optimum.
        let p = Population::builder()
            .weights(vec![0.25; 4])
            .g_squared(vec![16.0; 4])
            .costs(vec![50.0; 4])
            .values(vec![5.0; 4])
            .build()
            .unwrap();
        let b = bound();
        let budget = 20.0;
        let bayes = solve_bayesian(
            &p,
            &Prior::Point(50.0),
            &Prior::Point(5.0),
            &b,
            budget,
            &BayesianConfig::default(),
        )
        .unwrap();
        let p_sharded = ShardedPopulation::from(&p);
        let options = SolverOptions::default();
        let (complete, _) = solve_kkt(&KktRequest::new(&p_sharded, &b, budget, &options)).unwrap();
        for (a, c) in bayes.q.iter().zip(&complete.q) {
            assert!((a - c).abs() < 1e-5, "{:?} vs {:?}", bayes.q, complete.q);
        }
        assert!((bayes.spent - complete.spent).abs() < 1e-4);
    }

    #[test]
    fn expected_spend_meets_budget() {
        let p = population();
        let b = bound();
        let budget = 10.0;
        let bayes = solve_bayesian(
            &p,
            &Prior::Exponential { mean: 50.0 },
            &Prior::Exponential { mean: 5.0 },
            &b,
            budget,
            &BayesianConfig {
                n_samples: 256,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            (bayes.expected_spent - budget).abs() < 1e-3 * budget.max(1.0),
            "expected spend {} vs budget {budget}",
            bayes.expected_spent
        );
        assert!(bayes.spent.is_finite());
        assert!(bayes.q.iter().all(|&q| q > 0.0 && q <= 1.0));
    }

    #[test]
    fn incomplete_information_costs_bound_performance() {
        // Averaged over true-type draws, the complete-information optimum
        // achieves a weakly better bound than the prior-based mechanism at
        // the same *expected* budget.
        let b = bound();
        let budget = 10.0;
        let mut bayes_worse = 0u64;
        let trials = 10u64;
        for seed in 0..trials {
            let weights = vec![0.4, 0.3, 0.2, 0.1];
            let g2 = vec![9.0, 16.0, 25.0, 36.0];
            let p = Population::sample(seed, &weights, &g2, 50.0, 5.0, 1.0).unwrap();
            let p_sharded = ShardedPopulation::from(&p);
            let options = SolverOptions::default();
            let (complete, _) =
                solve_kkt(&KktRequest::new(&p_sharded, &b, budget, &options)).unwrap();
            let bayes = solve_bayesian(
                &p,
                &Prior::Exponential { mean: 50.0 },
                &Prior::Exponential { mean: 5.0 },
                &b,
                budget,
                &BayesianConfig {
                    n_samples: 128,
                    seed,
                    ..Default::default()
                },
            )
            .unwrap();
            if bayes.variance_term(&p, &b) >= complete.variance_term(&p, &b) - 1e-9 {
                bayes_worse += 1;
            }
        }
        assert!(
            bayes_worse >= trials - 2,
            "Bayesian beat complete information too often: {bayes_worse}/{trials}"
        );
    }

    #[test]
    fn realised_spend_is_centred_on_the_budget() {
        // Over many true-type draws the realised spend fluctuates around
        // the budget rather than sitting far off on one side.
        let b = bound();
        let budget = 10.0;
        let weights = vec![0.4, 0.3, 0.2, 0.1];
        let g2 = vec![9.0, 16.0, 25.0, 36.0];
        let mut spends = Vec::new();
        for seed in 0..30u64 {
            let p = Population::sample(seed, &weights, &g2, 50.0, 5.0, 1.0).unwrap();
            let bayes = solve_bayesian(
                &p,
                &Prior::Exponential { mean: 50.0 },
                &Prior::Exponential { mean: 5.0 },
                &b,
                budget,
                &BayesianConfig {
                    n_samples: 128,
                    seed: 1234,
                    ..Default::default()
                },
            )
            .unwrap();
            spends.push(bayes.spent);
        }
        let mean = spends.iter().sum::<f64>() / spends.len() as f64;
        assert!(
            (mean - budget).abs() < 0.5 * budget,
            "realised spend badly off budget: mean {mean} vs {budget} ({spends:?})"
        );
    }

    #[test]
    fn posted_prices_are_bounded() {
        let p = population();
        let b = bound();
        let bayes = solve_bayesian(
            &p,
            &Prior::Exponential { mean: 50.0 },
            &Prior::Exponential { mean: 500.0 }, // heavy-tailed values
            &b,
            5.0,
            &BayesianConfig::default(),
        )
        .unwrap();
        for &price in &bayes.prices {
            assert!(price.is_finite());
            assert!(price.abs() < 1e7, "price blew up: {price}");
        }
    }

    #[test]
    fn rejects_invalid_inputs() {
        let p = population();
        let b = bound();
        assert!(solve_bayesian(
            &p,
            &Prior::Point(-1.0),
            &Prior::Point(0.0),
            &b,
            10.0,
            &BayesianConfig::default()
        )
        .is_err());
        assert!(solve_bayesian(
            &p,
            &Prior::Point(1.0),
            &Prior::Point(0.0),
            &b,
            f64::NAN,
            &BayesianConfig::default()
        )
        .is_err());
        let bad = BayesianConfig {
            n_samples: 0,
            ..Default::default()
        };
        assert!(
            solve_bayesian(&p, &Prior::Point(1.0), &Prior::Point(0.0), &b, 10.0, &bad).is_err()
        );
        let bad = BayesianConfig {
            price_floor_fraction: 0.0,
            ..Default::default()
        };
        assert!(
            solve_bayesian(&p, &Prior::Point(1.0), &Prior::Point(0.0), &b, 10.0, &bad).is_err()
        );
        assert!(Prior::Exponential { mean: 0.0 }
            .sample(&mut fedfl_num::rng::seeded(1))
            .is_err());
        assert_eq!(Prior::Point(7.0).mean(), 7.0);
        assert_eq!(Prior::Exponential { mean: 3.0 }.mean(), 3.0);
    }
}
