//! Property-based tests for the numeric substrate.

use fedfl_num::dist::{BoundedPareto, Exponential, Normal};
use fedfl_num::linalg::{axpy, dot, norm2, norm2_squared, Matrix};
use fedfl_num::prefix::sort_permutation;
use fedfl_num::rng::{seeded, split};
use fedfl_num::roots::{best_response_cubic, bisect, cubic_real_roots};
use fedfl_num::search::{golden_section_min, grid_search_min};
use fedfl_num::solve::{bisect_monotone, BoxConstraints};
use fedfl_num::stats::{mean, quantile, ranks, spearman};
use proptest::prelude::*;

fn nonzero_coeff() -> impl Strategy<Value = f64> {
    prop_oneof![-100.0f64..-1e-3, 1e-3f64..100.0]
}

/// Keys where `total_cmp` order is easy to get wrong: both zeros, both
/// infinities, NaNs of both signs with distinct payloads, subnormals and
/// the extremes of the finite range.
const KEY_POOL: [f64; 16] = [
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff0_0000_0000_0001),
    f64::from_bits(0xfff0_0000_0000_00ff),
    f64::from_bits(1),
    f64::from_bits(0x8000_0000_0000_0001),
    f64::from_bits(0x000f_ffff_ffff_ffff),
    f64::MIN_POSITIVE,
    1.0,
    -1.0,
    f64::MAX,
    f64::MIN,
];

/// A pooled key (so long inputs repeat each one many times) or an
/// arbitrary bit pattern.
fn radix_key() -> impl Strategy<Value = f64> {
    prop_oneof![
        (0..KEY_POOL.len()).prop_map(|i| KEY_POOL[i]),
        (0..KEY_POOL.len()).prop_map(|i| KEY_POOL[i]),
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// The comparator argsort `sort_permutation` must reproduce: stable, so
/// ties keep their input order.
fn reference_argsort(keys: &[f64]) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
    perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    perm
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn split_is_deterministic(parent in any::<u64>(), label in any::<u64>()) {
        prop_assert_eq!(split(parent, label), split(parent, label));
    }

    #[test]
    fn normal_samples_are_finite(mean_p in -1e6f64..1e6, sd in 0.0f64..1e3, seed in any::<u64>()) {
        let d = Normal::new(mean_p, sd).unwrap();
        let mut rng = seeded(seed);
        for _ in 0..32 {
            prop_assert!(d.sample(&mut rng).is_finite());
        }
    }

    #[test]
    fn exponential_samples_nonnegative(m in 1e-3f64..1e6, seed in any::<u64>()) {
        let d = Exponential::with_mean(m).unwrap();
        let mut rng = seeded(seed);
        for _ in 0..32 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= 0.0 && x.is_finite());
        }
    }

    #[test]
    fn pareto_stays_in_support(lo in 1.0f64..100.0, width in 1.0f64..1000.0, alpha in 0.1f64..5.0, seed in any::<u64>()) {
        let hi = lo + width;
        let d = BoundedPareto::new(lo, hi, alpha).unwrap();
        let mut rng = seeded(seed);
        for _ in 0..64 {
            let x = d.sample(&mut rng);
            prop_assert!(x >= lo && x <= hi);
        }
    }

    #[test]
    fn cubic_roots_satisfy_polynomial(
        a3 in nonzero_coeff(),
        a2 in -100.0f64..100.0,
        a1 in -100.0f64..100.0,
        a0 in -100.0f64..100.0,
    ) {
        let roots = cubic_real_roots(a3, a2, a1, a0).unwrap();
        prop_assert!(!roots.is_empty());
        for r in roots {
            let val = ((a3 * r + a2) * r + a1) * r + a0;
            let scale = a3.abs() * r.abs().powi(3) + a2.abs() * r.powi(2).abs()
                + a1.abs() * r.abs() + a0.abs() + 1.0;
            prop_assert!(val.abs() / scale < 1e-6, "residual {} at root {}", val, r);
        }
    }

    #[test]
    fn best_response_root_is_valid_and_monotone(
        c in 0.1f64..1e4,
        p in -1e3f64..1e3,
        k in 0.0f64..1e6,
    ) {
        let q = best_response_cubic(c, p, k).unwrap();
        prop_assert!(q >= 0.0 && q.is_finite());
        // Monotone in P: a higher price never reduces participation.
        let q2 = best_response_cubic(c, p + 10.0, k).unwrap();
        prop_assert!(q2 >= q - 1e-9);
        // Monotone in c (decreasing): higher cost never increases it.
        let q3 = best_response_cubic(c * 2.0, p, k).unwrap();
        prop_assert!(q3 <= q + 1e-9);
    }

    #[test]
    fn bisect_finds_root_of_shifted_cube(target in -100.0f64..100.0) {
        let r = bisect(|x| x * x * x - target, -10.0, 10.0, 1e-12).unwrap();
        prop_assert!((r * r * r - target).abs() < 1e-6);
    }

    #[test]
    fn bisect_monotone_result_in_interval(target in -10.0f64..10.0) {
        let x = bisect_monotone(|x| x.tanh() * 5.0, target, -3.0, 3.0, 1e-12).unwrap();
        prop_assert!((-3.0..=3.0).contains(&x));
    }

    #[test]
    fn grid_min_not_worse_than_endpoints(step in 0.01f64..1.0) {
        let f = |x: f64| (x - 1.7).powi(2) + 0.3 * x.sin();
        let r = grid_search_min(f, -5.0, 5.0, step).unwrap();
        prop_assert!(r.min_value <= f(-5.0) + 1e-12);
        prop_assert!(r.min_value <= f(5.0) + 1e-12);
    }

    #[test]
    fn golden_section_finds_quadratic_min(center in -50.0f64..50.0) {
        let r = golden_section_min(|x| (x - center).powi(2), -100.0, 100.0, 1e-10).unwrap();
        prop_assert!((r.argmin - center).abs() < 1e-4);
    }

    #[test]
    fn dot_cauchy_schwarz(xs in prop::collection::vec(-100.0f64..100.0, 1..32)) {
        let ys: Vec<f64> = xs.iter().map(|&x| x * 0.5 + 1.0).collect();
        let lhs = dot(&xs, &ys).abs();
        let rhs = norm2(&xs) * norm2(&ys);
        prop_assert!(lhs <= rhs + 1e-9 * rhs.max(1.0));
    }

    #[test]
    fn axpy_matches_manual(alpha in -10.0f64..10.0, xs in prop::collection::vec(-10.0f64..10.0, 1..16)) {
        let mut y = vec![1.0; xs.len()];
        axpy(alpha, &xs, &mut y);
        for (i, &x) in xs.iter().enumerate() {
            prop_assert!((y[i] - (1.0 + alpha * x)).abs() < 1e-12);
        }
    }

    #[test]
    fn matvec_linear(scale in -5.0f64..5.0) {
        let m = Matrix::from_rows(vec![vec![1.0, 2.0], vec![-3.0, 0.5]]).unwrap();
        let x = [1.0, -2.0];
        let sx = [scale * x[0], scale * x[1]];
        let a = m.matvec(&sx);
        let b = m.matvec(&x);
        for i in 0..2 {
            prop_assert!((a[i] - scale * b[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn box_projection_is_idempotent(
        xs in prop::collection::vec(-100.0f64..100.0, 1..16),
    ) {
        let b = BoxConstraints::uniform(xs.len(), -1.0, 1.0).unwrap();
        let mut once = xs.clone();
        b.project(&mut once);
        let mut twice = once.clone();
        b.project(&mut twice);
        prop_assert_eq!(once.clone(), twice);
        prop_assert!(b.contains(&once, 0.0));
    }

    #[test]
    fn mean_between_min_max(xs in prop::collection::vec(-1e6f64..1e6, 1..64)) {
        let m = mean(&xs).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-6 && m <= hi + 1e-6);
    }

    #[test]
    fn quantile_monotone_in_p(xs in prop::collection::vec(-1e3f64..1e3, 2..64)) {
        let q1 = quantile(&xs, 0.25).unwrap();
        let q2 = quantile(&xs, 0.5).unwrap();
        let q3 = quantile(&xs, 0.75).unwrap();
        prop_assert!(q1 <= q2 + 1e-12 && q2 <= q3 + 1e-12);
    }

    #[test]
    fn ranks_are_permutation_of_averages(xs in prop::collection::vec(-1e3f64..1e3, 1..32)) {
        let r = ranks(&xs);
        let total: f64 = r.iter().sum();
        let expected = (xs.len() * (xs.len() + 1)) as f64 / 2.0;
        prop_assert!((total - expected).abs() < 1e-9);
    }

    #[test]
    fn spearman_invariant_under_monotone_transform(xs in prop::collection::vec(-10.0f64..10.0, 3..32)) {
        let distinct = xs.iter().map(|x| (x * 1e6) as i64).collect::<std::collections::HashSet<_>>();
        prop_assume!(distinct.len() == xs.len());
        let ys: Vec<f64> = xs.iter().map(|&x| x.exp()).collect();
        let s = spearman(&xs, &ys).unwrap();
        prop_assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn norm_squared_consistency(xs in prop::collection::vec(-100.0f64..100.0, 1..32)) {
        let n2 = norm2(&xs);
        prop_assert!((n2 * n2 - norm2_squared(&xs)).abs() <= 1e-6 * norm2_squared(&xs).max(1.0));
    }

    #[test]
    fn radix_argsort_matches_the_stable_comparator_sort(
        keys in prop::collection::vec(radix_key(), 0..2000),
        fill in 0..KEY_POOL.len(),
        fill_len in 0usize..2000,
    ) {
        prop_assert_eq!(sort_permutation(&keys), reference_argsort(&keys));
        // All keys equal: every radix pass is skipped, leaving the
        // identity permutation.
        let flat = vec![KEY_POOL[fill]; fill_len];
        prop_assert_eq!(sort_permutation(&flat), reference_argsort(&flat));
    }
}
