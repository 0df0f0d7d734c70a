//! Generalised cost exponent τ > 1 (the paper's Section III-B claim).
//!
//! The paper models local cost as `C_n = c_n q_n^τ` with `τ > 1`, sets
//! `τ = 2` "for analytical tractability", and claims "our theoretical
//! results in this paper also hold for an arbitrary τ > 1". This module
//! makes that claim executable:
//!
//! * Stage II: the first-order condition becomes
//!   `P + K/q² − τ c q^{τ−1} = 0`, whose left side is strictly decreasing
//!   on `q > 0`, so the best response is still unique
//!   ([`best_response_tau`], solved by bisection);
//! * the inverse price map generalises to
//!   `P(q) = τ c q^{τ−1} − K/q²` ([`inverse_price_tau`]);
//! * Stage I: the KKT condition generalises (22) to
//!   `1/λ = τ² c q^{τ+1} / ((α/R) a²G²) + v`, so the optimal profile is
//!   again a one-parameter family
//!   `q_n(t) = clamp( ((α/R)·a²G²·(t − v)/(τ² c))^{1/(τ+1)} )` and the
//!   tight-budget bisection of Lemma 3 carries over ([`solve_kkt_tau`]).
//!
//! For `τ = 2` everything here reproduces the closed-form cubic machinery
//! of [`crate::response`] and [`crate::server`] exactly (tested).

use crate::bound::BoundParams;
use crate::error::GameError;
use crate::population::Population;
use crate::response::intrinsic_gain;
use crate::server::{SolverOptions, StageOneSolution};
use fedfl_num::roots::bisect;
use fedfl_num::solve::bisect_monotone_with;

fn validate_tau(tau: f64) -> Result<(), GameError> {
    if !(tau.is_finite() && tau > 1.0) {
        return Err(GameError::InvalidParameter {
            name: "tau",
            reason: format!("cost exponent must be finite and > 1, got {tau}"),
        });
    }
    Ok(())
}

/// Best response under cost `c q^τ`: the unique positive root of
/// `P + K/q² − τ c q^{τ−1} = 0`, clamped to `[0, q_max]`.
///
/// # Errors
///
/// Returns [`GameError`] for invalid `tau`, a non-finite price, or an
/// invalid client profile.
pub fn best_response_tau(
    client: &crate::population::ClientProfile,
    bound: &BoundParams,
    price: f64,
    tau: f64,
) -> Result<f64, GameError> {
    validate_tau(tau)?;
    client.validate()?;
    if !price.is_finite() {
        return Err(GameError::InvalidParameter {
            name: "price",
            reason: format!("must be finite, got {price}"),
        });
    }
    let k = intrinsic_gain(client, bound);
    let c = client.cost;
    if k == 0.0 {
        // No intrinsic value: q* solves P = τ c q^{τ−1} for P > 0, else 0.
        if price <= 0.0 {
            return Ok(0.0);
        }
        return Ok((price / (tau * c))
            .powf(1.0 / (tau - 1.0))
            .min(client.q_max));
    }
    // f(q) = P + K/q² − τ c q^{τ−1}: +∞ at 0+, strictly decreasing.
    let f = |q: f64| price + k / (q * q) - tau * c * q.powf(tau - 1.0);
    // Bracket: start above any root.
    let mut hi = 1.0;
    while f(hi) > 0.0 && hi < 1e9 {
        hi *= 2.0;
    }
    let lo = 1e-12;
    if f(lo) < 0.0 {
        return Ok(0.0);
    }
    let root = bisect(f, lo, hi, 1e-13).map_err(GameError::from)?;
    Ok(root.min(client.q_max))
}

/// The price that makes `q` the best response under exponent `tau`:
/// `P(q) = τ c q^{τ−1} − K/q²`.
///
/// # Errors
///
/// Returns [`GameError::InvalidParameter`] unless `q > 0` and `tau > 1`.
pub fn inverse_price_tau(
    client: &crate::population::ClientProfile,
    bound: &BoundParams,
    q: f64,
    tau: f64,
) -> Result<f64, GameError> {
    validate_tau(tau)?;
    if !(q.is_finite() && q > 0.0) {
        return Err(GameError::InvalidParameter {
            name: "q",
            reason: format!("must be finite and positive, got {q}"),
        });
    }
    Ok(tau * client.cost * q.powf(tau - 1.0) - intrinsic_gain(client, bound) / (q * q))
}

/// Total payment `Σ P_n(q_n) q_n = Σ (τ c q^τ − K/q)` under exponent `tau`.
fn spend_tau(population: &Population, bound: &BoundParams, q: &[f64], tau: f64) -> f64 {
    population
        .iter()
        .zip(q)
        .map(|(c, &qn)| tau * c.cost * qn.powf(tau) - intrinsic_gain(c, bound) / qn)
        .sum()
}

/// Participation profile along the generalised KKT path at `t = 1/λ`.
fn q_path_tau(
    population: &Population,
    bound: &BoundParams,
    options: &SolverOptions,
    t: f64,
    tau: f64,
) -> Vec<f64> {
    population
        .iter()
        .map(|c| {
            let slack = (t - c.value).max(0.0);
            let raw = (bound.alpha_over_r() * c.a2g2() * slack / (tau * tau * c.cost))
                .powf(1.0 / (tau + 1.0));
            raw.clamp(options.q_min, c.q_max)
        })
        .collect()
}

/// Stage-I solver for an arbitrary cost exponent `tau > 1`, generalising
/// [`crate::server::solve_kkt`].
///
/// # Errors
///
/// Returns [`GameError`] for invalid inputs.
pub fn solve_kkt_tau(
    population: &Population,
    bound: &BoundParams,
    budget: f64,
    options: &SolverOptions,
    tau: f64,
) -> Result<StageOneSolution, GameError> {
    validate_tau(tau)?;
    if !budget.is_finite() {
        return Err(GameError::InvalidParameter {
            name: "budget",
            reason: format!("must be finite, got {budget}"),
        });
    }
    // t that saturates every client at its cap:
    // t = τ² c q_max^{τ+1} / ((α/R) a²G²) + v.
    let t_hi = population
        .iter()
        .map(|c| {
            tau * tau * c.cost * c.q_max.powf(tau + 1.0) / (bound.alpha_over_r() * c.a2g2())
                + c.value
        })
        .fold(0.0f64, f64::max)
        * (1.0 + 1e-12)
        + 1e-12;
    let q_at = |t: f64| q_path_tau(population, bound, options, t, tau);
    let spend_at = |t: f64| spend_tau(population, bound, &q_at(t), tau);

    let (q, lambda, saturated) = if spend_at(t_hi) <= budget {
        (q_at(t_hi), None, true)
    } else {
        let t_star = bisect_monotone_with(
            spend_at,
            budget,
            0.0,
            t_hi,
            options.config.tolerance,
            options.config.max_iters,
        )?;
        let lambda = if t_star > 0.0 {
            Some(1.0 / t_star)
        } else {
            None
        };
        (q_at(t_star), lambda, false)
    };
    let prices = population
        .iter()
        .zip(&q)
        .map(|(c, &qn)| inverse_price_tau(c, bound, qn, tau))
        .collect::<Result<Vec<f64>, _>>()?;
    let spent = spend_tau(population, bound, &q, tau);
    Ok(StageOneSolution {
        q,
        prices,
        spent,
        lambda,
        saturated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::ClientProfile;
    use crate::response::{best_response, inverse_price};
    use crate::server::{solve_kkt, KktRequest};
    use crate::shard::ShardedPopulation;

    fn client(cost: f64, value: f64) -> ClientProfile {
        ClientProfile {
            weight: 0.1,
            g_squared: 25.0,
            cost,
            value,
            q_max: 1.0,
        }
    }

    fn bound() -> BoundParams {
        BoundParams::new(1_000.0, 0.0, 1_000).unwrap()
    }

    fn population() -> Population {
        Population::builder()
            .weights(vec![0.4, 0.3, 0.2, 0.1])
            .g_squared(vec![9.0, 16.0, 25.0, 36.0])
            .costs(vec![30.0, 50.0, 70.0, 90.0])
            .values(vec![0.0, 2.0, 5.0, 10.0])
            .build()
            .unwrap()
    }

    #[test]
    fn tau_two_matches_the_cubic_machinery() {
        let b = bound();
        for &(cost, value, price) in &[(50.0, 40.0, 10.0), (20.0, 0.0, 30.0), (80.0, 90.0, -5.0)] {
            let c = client(cost, value);
            let q_tau = best_response_tau(&c, &b, price, 2.0).unwrap();
            let q_cubic = best_response(&c, &b, price).unwrap();
            assert!(
                (q_tau - q_cubic).abs() < 1e-8,
                "mismatch at (c={cost}, v={value}, P={price}): {q_tau} vs {q_cubic}"
            );
        }
    }

    #[test]
    fn tau_two_inverse_price_matches() {
        let b = bound();
        let c = client(50.0, 40.0);
        for &q in &[0.1, 0.5, 0.9] {
            let p_tau = inverse_price_tau(&c, &b, q, 2.0).unwrap();
            let p_cubic = inverse_price(&c, &b, q).unwrap();
            assert!((p_tau - p_cubic).abs() < 1e-10);
        }
    }

    #[test]
    fn tau_two_stage_one_matches_solve_kkt() {
        let p = population();
        let b = bound();
        let sol_tau = solve_kkt_tau(&p, &b, 10.0, &SolverOptions::default(), 2.0).unwrap();
        let p_sharded = ShardedPopulation::from(&p);
        let options = SolverOptions::default();
        let (sol, _) = solve_kkt(&KktRequest::new(&p_sharded, &b, 10.0, &options)).unwrap();
        for (a, c) in sol_tau.q.iter().zip(&sol.q) {
            assert!((a - c).abs() < 1e-7, "{:?} vs {:?}", sol_tau.q, sol.q);
        }
        assert!((sol_tau.spent - sol.spent).abs() < 1e-6);
    }

    #[test]
    fn best_response_satisfies_generalised_foc() {
        let b = bound();
        for &tau in &[1.5, 2.0, 2.5, 3.0, 4.0] {
            let c = client(50.0, 30.0);
            let q = best_response_tau(&c, &b, 15.0, tau).unwrap();
            assert!(q > 0.0 && q <= 1.0);
            if q < 1.0 {
                let k = intrinsic_gain(&c, &b);
                let foc = 15.0 + k / (q * q) - tau * c.cost * q.powf(tau - 1.0);
                assert!(foc.abs() < 1e-6, "tau={tau}: residual {foc}");
            }
        }
    }

    #[test]
    fn inverse_price_roundtrips_for_all_tau() {
        let b = bound();
        let c = client(60.0, 20.0);
        for &tau in &[1.3, 2.0, 3.5] {
            for &q in &[0.2, 0.6, 0.95] {
                let p = inverse_price_tau(&c, &b, q, tau).unwrap();
                let q_back = best_response_tau(&c, &b, p, tau).unwrap();
                assert!(
                    (q_back - q).abs() < 1e-7,
                    "tau={tau}: {q} -> {p} -> {q_back}"
                );
            }
        }
    }

    #[test]
    fn stage_one_budget_tight_for_all_tau() {
        let p = population();
        let b = bound();
        for &tau in &[1.5, 2.0, 3.0] {
            let sol = solve_kkt_tau(&p, &b, 10.0, &SolverOptions::default(), tau).unwrap();
            assert!(!sol.saturated, "tau={tau} unexpectedly saturated");
            assert!(
                (sol.spent - 10.0).abs() < 1e-6,
                "tau={tau}: spent {}",
                sol.spent
            );
            // Theorem 2 invariant generalises: τ²cq^{τ+1}/((α/R)a²G²)+v const.
            let invariants: Vec<f64> = p
                .iter()
                .zip(&sol.q)
                .filter(|(c, &q)| q > 1e-3 && q < c.q_max * 0.999)
                .map(|(c, &q)| {
                    tau * tau * c.cost * q.powf(tau + 1.0) / (b.alpha_over_r() * c.a2g2()) + c.value
                })
                .collect();
            if invariants.len() >= 2 {
                let first = invariants[0];
                for inv in &invariants {
                    assert!(
                        (inv - first).abs() / first.max(1.0) < 1e-5,
                        "tau={tau}: invariant spread {invariants:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn steeper_cost_curvature_flattens_participation() {
        // Higher τ penalises high q harder, so the spread of q* shrinks.
        let p = population();
        let b = bound();
        let spread = |tau: f64| {
            let sol = solve_kkt_tau(&p, &b, 10.0, &SolverOptions::default(), tau).unwrap();
            let max = sol.q.iter().cloned().fold(f64::MIN, f64::max);
            let min = sol.q.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        assert!(spread(3.0) < spread(1.5), "spread did not shrink with tau");
    }

    #[test]
    fn zero_value_zero_price_stays_out_for_all_tau() {
        let b = bound();
        let c = client(50.0, 0.0);
        for &tau in &[1.2, 2.0, 5.0] {
            assert_eq!(best_response_tau(&c, &b, 0.0, tau).unwrap(), 0.0);
            assert_eq!(best_response_tau(&c, &b, -3.0, tau).unwrap(), 0.0);
        }
    }

    #[test]
    fn rejects_invalid_tau() {
        let b = bound();
        let c = client(50.0, 0.0);
        assert!(best_response_tau(&c, &b, 1.0, 1.0).is_err());
        assert!(best_response_tau(&c, &b, 1.0, 0.5).is_err());
        assert!(best_response_tau(&c, &b, 1.0, f64::NAN).is_err());
        assert!(inverse_price_tau(&c, &b, 0.5, 1.0).is_err());
        assert!(inverse_price_tau(&c, &b, 0.0, 2.0).is_err());
        assert!(solve_kkt_tau(&population(), &b, 10.0, &SolverOptions::default(), 1.0).is_err());
        assert!(
            solve_kkt_tau(&population(), &b, f64::NAN, &SolverOptions::default(), 2.0).is_err()
        );
    }
}
