//! The Stackelberg equilibrium and the property checks of Section V-C.
//!
//! The SE of the CPL game is the pair `{P*, q*}` of Definition 1: `q*`
//! maximises every client's utility given `P*`, and `P*` minimises the
//! server's bound-surrogate loss given the clients' response maps. This
//! module packages the solved equilibrium together with executable versions
//! of the paper's structural results:
//!
//! * **Lemma 3** — the budget constraint is tight at the SE
//!   ([`StackelbergEquilibrium::is_budget_tight`]);
//! * **Theorem 2** — the invariant
//!   `(4R/α)·c_n q_n³/(a_n²G_n²) + v_n = 1/λ*` across interior clients
//!   ([`StackelbergEquilibrium::theorem2_invariants`]);
//! * **Theorem 3** — the payment-direction threshold `v_t = 1/(3λ*)`
//!   ([`StackelbergEquilibrium::payment_threshold`]);
//! * client utilities and the totals reported in Table IV.

use crate::bound::BoundParams;
use crate::error::GameError;
use crate::population::{Population, Q_MIN};
use crate::response::{best_response, own_utility};
use crate::server::StageOneSolution;
use fedfl_num::rng::substream;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A solved Stackelberg equilibrium of the CPL game.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StackelbergEquilibrium {
    prices: Vec<f64>,
    q: Vec<f64>,
    spent: f64,
    budget: f64,
    lambda: Option<f64>,
    saturated: bool,
    optimality_gap: f64,
}

impl StackelbergEquilibrium {
    /// Assemble an equilibrium from a Stage-I solution (as returned by
    /// [`crate::server::solve_kkt`]), evaluating the Theorem 1 gap once.
    ///
    /// Callers that already hold a solution — sweeps, the scale harness —
    /// use this instead of re-solving through [`crate::game::CplGame`].
    pub fn from_stage_one(
        solution: StageOneSolution,
        population: &Population,
        bound: &BoundParams,
        budget: f64,
    ) -> Self {
        let optimality_gap = bound.optimality_gap(population, &solution.q);
        Self {
            prices: solution.prices,
            q: solution.q,
            spent: solution.spent,
            budget,
            lambda: solution.lambda,
            saturated: solution.saturated,
            optimality_gap,
        }
    }

    /// Equilibrium prices `P*`.
    pub fn prices(&self) -> &[f64] {
        &self.prices
    }

    /// Equilibrium participation levels `q*`.
    pub fn q(&self) -> &[f64] {
        &self.q
    }

    /// Total payment `Σ P*_n q*_n`.
    pub fn spent(&self) -> f64 {
        self.spent
    }

    /// The server's budget `B`.
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// The KKT multiplier `λ*`, when the solution lies on the interior KKT
    /// path.
    pub fn lambda(&self) -> Option<f64> {
        self.lambda
    }

    /// Whether every client saturated at `q_max` with budget to spare.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// The Theorem 1 optimality-gap bound at `q*` — the server's utility
    /// surrogate (lower is better).
    pub fn optimality_gap(&self) -> f64 {
        self.optimality_gap
    }

    /// Lemma 3: does the equilibrium spend the entire budget (within
    /// `tol`)? Saturated equilibria are excused — with enough budget for
    /// everyone at `q_max` the constraint is slack by construction.
    pub fn is_budget_tight(&self, tol: f64) -> bool {
        (self.spent - self.budget).abs() <= tol * self.budget.abs().max(1.0)
    }

    /// Per-client payments `P*_n q*_n` (negative = the client pays the
    /// server).
    pub fn payments(&self) -> Vec<f64> {
        self.prices
            .iter()
            .zip(&self.q)
            .map(|(&p, &q)| p * q)
            .collect()
    }

    /// Number of clients paying the server — the quantity of Table V.
    pub fn negative_payment_count(&self) -> usize {
        self.payments().iter().filter(|&&x| x < 0.0).count()
    }

    /// Theorem 3's payment-direction threshold `v_t = 1/(3λ*)`: interior
    /// clients with `v_n < v_t` receive money, clients with `v_n > v_t` pay.
    /// `None` when the equilibrium has no interior KKT multiplier.
    pub fn payment_threshold(&self) -> Option<f64> {
        self.lambda.map(|l| 1.0 / (3.0 * l))
    }

    /// Theorem 2's invariant `(4R/α)·c_n q*_n³/(a_n²G_n²) + v_n`, evaluated
    /// for every *interior* client (those strictly between the floor and
    /// their cap). At an exact SE all returned values equal `1/λ*`.
    pub fn theorem2_invariants(&self, population: &Population, bound: &BoundParams) -> Vec<f64> {
        let coef = 4.0 / bound.alpha_over_r();
        population
            .iter()
            .zip(&self.q)
            .filter(|(c, &q)| q > Q_MIN * 1.01 && q < c.q_max * 0.999)
            .map(|(c, &q)| coef * c.cost * q.powi(3) / c.a2g2() + c.value)
            .collect()
    }

    /// Theorem 2 spot check at scale: the maximum relative deviation of
    /// the invariant `(4R/α)·c_n q*_n³/(a_n²G_n²) + v_n` from `1/λ*` over
    /// up to `sample` clients drawn deterministically from `seed`
    /// (with replacement), skipping floored/capped clients.
    ///
    /// Computing [`StackelbergEquilibrium::theorem2_invariants`] for a
    /// million-client equilibrium allocates a vector the size of the
    /// population; this sampled variant is what the scale harness asserts
    /// on. Returns `None` when the equilibrium has no interior KKT
    /// multiplier or no sampled client is interior.
    pub fn theorem2_max_residual(
        &self,
        population: &Population,
        bound: &BoundParams,
        sample: usize,
        seed: u64,
    ) -> Option<f64> {
        let target = 1.0 / self.lambda?;
        let coef = 4.0 / bound.alpha_over_r();
        let n = population.len();
        let mut rng = substream(seed, 0x7_4832);
        let mut worst: Option<f64> = None;
        for _ in 0..sample {
            let i = (rng.random::<u64>() % n as u64) as usize;
            let c = population.client(i);
            let q = self.q[i];
            if q > Q_MIN * 1.01 && q < c.q_max * 0.999 {
                let invariant = coef * c.cost * q.powi(3) / c.a2g2() + c.value;
                let residual = (invariant - target).abs() / target.abs().max(1.0);
                worst = Some(worst.map_or(residual, |w| w.max(residual)));
            }
        }
        worst
    }

    /// Client `n`'s equilibrium utility
    /// `U_n = P*_n q*_n − c_n q*_n² + v_n (ref_n − gap(q*))`, where `ref_n`
    /// is the client's intrinsic-value reference `F(w*_n) − F*` (pass `None`
    /// to use 0 for all clients — utility *differences across schemes* are
    /// unaffected by this constant).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::LengthMismatch`] if `reference_gaps` has the
    /// wrong length.
    pub fn client_utilities(
        &self,
        population: &Population,
        reference_gaps: Option<&[f64]>,
    ) -> Result<Vec<f64>, GameError> {
        if let Some(refs) = reference_gaps {
            if refs.len() != population.len() {
                return Err(GameError::LengthMismatch {
                    expected: population.len(),
                    found: refs.len(),
                });
            }
        }
        Ok(population
            .iter()
            .enumerate()
            .map(|(n, c)| {
                let reference = reference_gaps.map(|r| r[n]).unwrap_or(0.0);
                self.prices[n] * self.q[n] - c.cost * self.q[n] * self.q[n]
                    + c.value * (reference - self.optimality_gap)
            })
            .collect())
    }

    /// Total client utility `Σ_n U_n` — the quantity differenced in
    /// Table IV.
    ///
    /// # Errors
    ///
    /// Same conditions as [`StackelbergEquilibrium::client_utilities`].
    pub fn total_client_utility(
        &self,
        population: &Population,
        reference_gaps: Option<&[f64]>,
    ) -> Result<f64, GameError> {
        Ok(self
            .client_utilities(population, reference_gaps)?
            .iter()
            .sum())
    }

    /// Verify the Stage-II half of Definition 1: each client's `q*_n` is a
    /// best response to `P*_n` (within `tol`), so no client wants to
    /// deviate. Clients pinned at the solver floor are allowed to
    /// best-respond below it.
    ///
    /// # Errors
    ///
    /// Returns [`GameError`] if a best response cannot be computed.
    pub fn verify_client_optimality(
        &self,
        population: &Population,
        bound: &BoundParams,
        tol: f64,
    ) -> Result<bool, GameError> {
        for (n, c) in population.iter().enumerate() {
            let br = best_response(c, bound, self.prices[n])?.max(Q_MIN);
            if self.q[n] > Q_MIN * 1.01 && (br - self.q[n]).abs() > tol {
                return Ok(false);
            }
            // Also check no grid point beats the equilibrium utility.
            let u_star = own_utility(c, bound, self.prices[n], self.q[n]);
            for i in 1..=100 {
                let q = i as f64 / 100.0 * c.q_max;
                if own_utility(c, bound, self.prices[n], q) > u_star + tol * u_star.abs().max(1.0) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{solve_kkt, KktRequest, SolverOptions};
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
        BoundParams::new(4000.0, 100.0, 1000).unwrap()
    }

    fn stage_one(p: &Population, b: &BoundParams, budget: f64) -> StageOneSolution {
        let population = ShardedPopulation::from(p);
        let options = SolverOptions::default();
        solve_kkt(&KktRequest::new(&population, b, budget, &options))
            .unwrap()
            .0
    }

    fn solve(budget: f64) -> StackelbergEquilibrium {
        let p = population();
        let b = bound();
        StackelbergEquilibrium::from_stage_one(stage_one(&p, &b, budget), &p, &b, budget)
    }

    #[test]
    fn lemma3_budget_tightness() {
        let se = solve(10.0);
        assert!(se.is_budget_tight(1e-6), "spent {}", se.spent());
        assert!(!se.is_saturated());
    }

    #[test]
    fn theorem2_invariant_equals_inverse_lambda() {
        let se = solve(10.0);
        let invariants = se.theorem2_invariants(&population(), &bound());
        assert!(!invariants.is_empty());
        let expected = 1.0 / se.lambda().unwrap();
        for inv in invariants {
            assert!(
                (inv - expected).abs() / expected < 1e-6,
                "{inv} vs {expected}"
            );
        }
    }

    #[test]
    fn theorem3_threshold_separates_payment_directions() {
        let se = solve(10.0);
        let p = population();
        let vt = se.payment_threshold().unwrap();
        for (n, c) in p.iter().enumerate() {
            // Only interior clients obey the threshold exactly.
            let interior = se.q()[n] > Q_MIN * 1.01 && se.q()[n] < c.q_max * 0.999;
            if !interior {
                continue;
            }
            if c.value < vt * (1.0 - 1e-9) {
                assert!(se.prices()[n] > 0.0, "client {n}: v={} < vt={vt}", c.value);
            }
            if c.value > vt * (1.0 + 1e-9) {
                assert!(se.prices()[n] < 0.0, "client {n}: v={} > vt={vt}", c.value);
            }
        }
    }

    #[test]
    fn clients_cannot_improve_by_deviating() {
        let se = solve(10.0);
        assert!(se
            .verify_client_optimality(&population(), &bound(), 1e-6)
            .unwrap());
    }

    #[test]
    fn payments_and_negative_count_are_consistent() {
        let se = solve(10.0);
        let payments = se.payments();
        assert_eq!(payments.len(), 4);
        let negatives = payments.iter().filter(|&&x| x < 0.0).count();
        assert_eq!(se.negative_payment_count(), negatives);
        let total: f64 = payments.iter().sum();
        assert!((total - se.spent()).abs() < 1e-9);
    }

    #[test]
    fn utilities_use_reference_gaps() {
        let se = solve(10.0);
        let p = population();
        let base = se.total_client_utility(&p, None).unwrap();
        let refs = vec![1.0; 4];
        let shifted = se.total_client_utility(&p, Some(&refs)).unwrap();
        // Shifting every reference by 1 adds Σ v_n.
        let v_total: f64 = p.iter().map(|c| c.value).sum();
        assert!((shifted - base - v_total).abs() < 1e-9);
        assert!(se.client_utilities(&p, Some(&[1.0])).is_err());
    }

    #[test]
    fn utilities_are_individually_rational_for_interior_clients() {
        // With a zero reference gap, the equilibrium utility of the v = 0
        // client reduces to P q − c q², which the best response keeps >= 0.
        let se = solve(10.0);
        let p = population();
        let utilities = se.client_utilities(&p, None).unwrap();
        assert!(
            utilities[0] >= -1e-9,
            "zero-value client should never lose: {utilities:?}"
        );
    }

    #[test]
    fn saturated_equilibrium_reports_itself() {
        let se = solve(1e9);
        assert!(se.is_saturated());
        assert!(!se.is_budget_tight(1e-6));
        assert_eq!(se.payment_threshold(), None);
    }

    #[test]
    fn corollary1_price_ordering() {
        // Corollary 1: among interior clients with c_i·a_i·G_i > c_j·a_j·G_j,
        // (1) if v_i < v_j < v_t then P_i > P_j > 0;
        // (2) if v_i > v_j > v_t then P_i < P_j < 0.
        // Clients 0,1 are the low-value pair, clients 2,3 the high-value one.
        let p = Population::builder()
            .weights(vec![0.3, 0.25, 0.25, 0.2])
            .g_squared(vec![40.0, 16.0, 40.0, 16.0])
            .costs(vec![60.0, 40.0, 60.0, 40.0])
            .values(vec![1.0, 3.0, 60.0, 40.0])
            .build()
            .unwrap();
        let b = BoundParams::new(1_000.0, 0.0, 1_000).unwrap();
        let se = StackelbergEquilibrium::from_stage_one(stage_one(&p, &b, 15.0), &p, &b, 15.0);
        let vt = match se.payment_threshold() {
            Some(v) => v,
            None => return, // saturated: the ordering claim is vacuous here
        };
        let caig = |n: usize| {
            let c = p.client(n);
            c.cost * c.weight * c.g_squared.sqrt()
        };
        let interior = |n: usize| se.q()[n] > Q_MIN * 1.01 && se.q()[n] < p.client(n).q_max * 0.999;
        if interior(0) && interior(1) && p.client(0).value < vt && p.client(1).value < vt {
            assert!(caig(0) > caig(1), "fixture must order c·a·G");
            assert!(
                se.prices()[0] > se.prices()[1] && se.prices()[1] > 0.0,
                "branch 1 violated: {:?} (vt={vt})",
                se.prices()
            );
        }
        if interior(2) && interior(3) && p.client(2).value > vt && p.client(3).value > vt {
            assert!(caig(2) > caig(3), "fixture must order c·a·G");
            assert!(
                se.prices()[2] < se.prices()[3] && se.prices()[3] < 0.0,
                "branch 2 violated: {:?} (vt={vt})",
                se.prices()
            );
        }
    }

    #[test]
    fn sampled_theorem2_residual_matches_the_full_check() {
        let se = solve(10.0);
        let residual = se
            .theorem2_max_residual(&population(), &bound(), 100, 0)
            .unwrap();
        assert!(residual < 1e-6, "sampled residual {residual}");
        // Saturated equilibria have no λ*, so no residual.
        let saturated = solve(1e9);
        assert_eq!(
            saturated.theorem2_max_residual(&population(), &bound(), 100, 0),
            None
        );
    }

    #[test]
    fn accessors_expose_solution() {
        let se = solve(10.0);
        assert_eq!(se.prices().len(), 4);
        assert_eq!(se.q().len(), 4);
        assert_eq!(se.budget(), 10.0);
        assert!(se.optimality_gap() > 0.0);
    }
}
