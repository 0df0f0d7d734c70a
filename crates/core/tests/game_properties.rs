//! Property-based tests for the CPL game: the structural results of
//! Section V must hold across randomly-drawn populations, bounds and
//! budgets, not just the hand-picked fixtures of the unit tests.

use fedfl_core::bound::BoundParams;
use fedfl_core::population::{Population, Q_MIN};
use fedfl_core::pricing::PricingScheme;
use fedfl_core::response::{best_response, inverse_price, own_utility};
use fedfl_core::server::{solve_kkt, KktRequest, SolverOptions};
use fedfl_core::shard::ShardedPopulation;
use proptest::prelude::*;

/// Strategy: a small random population with normalised weights.
fn population_strategy() -> impl Strategy<Value = Population> {
    (2usize..8)
        .prop_flat_map(|n| {
            (
                prop::collection::vec(0.1f64..10.0, n),  // raw weights
                prop::collection::vec(0.5f64..50.0, n),  // G²
                prop::collection::vec(5.0f64..200.0, n), // c
                prop::collection::vec(0.0f64..20.0, n),  // v
            )
        })
        .prop_map(|(raw_w, g2, c, v)| {
            let total: f64 = raw_w.iter().sum();
            let weights: Vec<f64> = raw_w.iter().map(|w| w / total).collect();
            Population::builder()
                .weights(weights)
                .g_squared(g2)
                .costs(c)
                .values(v)
                .build()
                .expect("strategy produces valid populations")
        })
}

fn bound_strategy() -> impl Strategy<Value = BoundParams> {
    (100.0f64..20_000.0, 0.0f64..500.0, 50usize..2_000)
        .prop_map(|(alpha, beta, r)| BoundParams::new(alpha, beta, r).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn best_response_satisfies_first_order_condition(
        population in population_strategy(),
        bound in bound_strategy(),
        price in -50.0f64..200.0,
    ) {
        for c in population.iter() {
            let q = best_response(c, &bound, price).unwrap();
            prop_assert!((0.0..=c.q_max).contains(&q));
            if q > 1e-9 && q < c.q_max - 1e-9 {
                // Interior: the FOC must hold.
                let k = c.value * bound.alpha_over_r() * c.a2g2();
                let foc = price + k / (q * q) - 2.0 * c.cost * q;
                let scale = price.abs().max(2.0 * c.cost * q).max(1.0);
                prop_assert!(foc.abs() / scale < 1e-6, "FOC residual {foc}");
            }
        }
    }

    #[test]
    fn inverse_price_is_a_right_inverse(
        population in population_strategy(),
        bound in bound_strategy(),
        q in 0.05f64..0.95,
    ) {
        for c in population.iter() {
            let p = inverse_price(c, &bound, q).unwrap();
            let q_back = best_response(c, &bound, p).unwrap();
            prop_assert!((q_back - q).abs() < 1e-7, "{q} -> {p} -> {q_back}");
        }
    }

    #[test]
    fn kkt_solution_is_feasible_and_budget_monotone(
        population in population_strategy(),
        bound in bound_strategy(),
        budget in 0.1f64..100.0,
    ) {
        let options = SolverOptions::default();
        let sharded = ShardedPopulation::from(&population);
        let (sol, _) = solve_kkt(&KktRequest::new(&sharded, &bound, budget, &options)).unwrap();
        // Feasibility.
        prop_assert!(sol.spent <= budget + 1e-6 * budget.abs().max(1.0));
        for (c, &q) in population.iter().zip(&sol.q) {
            prop_assert!(q >= options.q_min - 1e-12 && q <= c.q_max + 1e-12);
        }
        // Proposition 1: more budget never hurts any client's q.
        let (bigger, _) = solve_kkt(&KktRequest::new(&sharded, &bound, budget * 1.5, &options)).unwrap();
        for (a, b) in sol.q.iter().zip(&bigger.q) {
            prop_assert!(*b >= a - 1e-9);
        }
        prop_assert!(
            bigger.variance_term(&population, &bound)
                <= sol.variance_term(&population, &bound) + 1e-9
        );
    }

    #[test]
    fn equilibrium_prices_implement_the_profile(
        population in population_strategy(),
        bound in bound_strategy(),
        budget in 0.5f64..50.0,
    ) {
        let options = SolverOptions::default();
        let sharded = ShardedPopulation::from(&population);
        let (sol, _) = solve_kkt(&KktRequest::new(&sharded, &bound, budget, &options)).unwrap();
        for (n, c) in population.iter().enumerate() {
            if sol.q[n] > Q_MIN * 1.01 {
                let br = best_response(c, &bound, sol.prices[n]).unwrap();
                prop_assert!(
                    (br - sol.q[n]).abs() < 1e-6,
                    "client {n}: br {br} vs q {}", sol.q[n]
                );
            }
            // No profitable deviation on a coarse grid.
            let u_star = own_utility(c, &bound, sol.prices[n], sol.q[n]);
            for i in 1..=20 {
                let q = i as f64 / 20.0 * c.q_max;
                let u = own_utility(c, &bound, sol.prices[n], q);
                prop_assert!(u <= u_star + 1e-6 * u_star.abs().max(1.0));
            }
        }
    }

    #[test]
    fn optimal_pricing_dominates_baselines_on_the_bound(
        population in population_strategy(),
        bound in bound_strategy(),
        budget in 1.0f64..50.0,
    ) {
        let options = SolverOptions::default();
        let optimal = PricingScheme::Optimal
            .solve(&population, &bound, budget, &options)
            .unwrap();
        for scheme in [PricingScheme::Uniform, PricingScheme::Weighted] {
            let baseline = scheme.solve(&population, &bound, budget, &options).unwrap();
            prop_assert!(
                optimal.variance_term(&population, &bound)
                    <= baseline.variance_term(&population, &bound) + 1e-6,
                "{} beat optimal", scheme.name()
            );
        }
    }

    #[test]
    fn theorem2_invariant_across_random_games(
        population in population_strategy(),
        bound in bound_strategy(),
        budget in 1.0f64..30.0,
    ) {
        let options = SolverOptions::default();
        let sharded = ShardedPopulation::from(&population);
        let (sol, _) = solve_kkt(&KktRequest::new(&sharded, &bound, budget, &options)).unwrap();
        if sol.saturated {
            return Ok(());
        }
        let coef = 4.0 / bound.alpha_over_r();
        let invariants: Vec<f64> = population
            .iter()
            .zip(&sol.q)
            .filter(|(c, &q)| q > options.q_min * 1.01 && q < c.q_max * 0.999)
            .map(|(c, &q)| coef * c.cost * q.powi(3) / c.a2g2() + c.value)
            .collect();
        if invariants.len() >= 2 {
            let first = invariants[0];
            for inv in &invariants {
                prop_assert!(
                    (inv - first).abs() / first.abs().max(1.0) < 1e-5,
                    "invariant spread: {invariants:?}"
                );
            }
        }
    }

    #[test]
    fn bound_is_monotone_in_every_q(
        population in population_strategy(),
        bound in bound_strategy(),
        base_q in 0.1f64..0.8,
    ) {
        let n = population.len();
        let q = vec![base_q; n];
        let gap = bound.optimality_gap(&population, &q);
        for i in 0..n {
            let mut up = q.clone();
            up[i] += 0.1;
            prop_assert!(bound.optimality_gap(&population, &up) <= gap + 1e-12);
        }
        // Full participation is the floor.
        let full = bound.optimality_gap(&population, &vec![1.0; n]);
        prop_assert!(full <= gap + 1e-12);
    }
}
