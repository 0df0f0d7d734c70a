//! Threshold-order prefix primitives for the active-set fast path.
//!
//! The sub-linear λ-probe index sorts each segment's clients by their
//! closed-form entry/saturation thresholds once per rebuild and then
//! answers every probe with a binary search over prefix sums taken in
//! that order. [`sort_permutation`] fixes the order (a stable argsort),
//! [`gather`] applies it, and [`exclusive_prefix_sums`] folds in a fixed
//! ascending order, so the same keys and values always give the same
//! bits however the input slices were assembled.
//!
//! All orderings use [`f64::total_cmp`], so ties (including `-0.0` vs
//! `0.0` and NaN payloads) have one well-defined resolution everywhere.

/// Stable argsort of `keys` under [`f64::total_cmp`].
///
/// Returns the permutation `perm` such that `keys[perm[0]] <=
/// keys[perm[1]] <= ...`, with ties resolved by original position
/// (stability). Indices are `u32` — the index layer caps populations at
/// `u32::MAX` clients, far above the workloads the repo targets.
///
/// # Panics
///
/// Panics if `keys.len()` exceeds `u32::MAX`.
pub fn sort_permutation(keys: &[f64]) -> Vec<u32> {
    assert!(
        u32::try_from(keys.len()).is_ok(),
        "sort_permutation supports at most u32::MAX keys"
    );
    let mut perm: Vec<u32> = (0..keys.len() as u32).collect();
    // `sort_by` is stable, so equal keys keep their original order.
    perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
    perm
}

/// Gather `values` into the order given by `perm`.
///
/// # Panics
///
/// Panics if any index in `perm` is out of bounds for `values`.
pub fn gather(values: &[f64], perm: &[u32]) -> Vec<f64> {
    perm.iter().map(|&i| values[i as usize]).collect()
}

/// Exclusive left-fold prefix sums: `out[i] = values[0] + ... +
/// values[i-1]`, so `out` has length `values.len() + 1` and
/// `out[j] - out[i]` is the contiguous-range sum over `i..j`.
///
/// The fold order is fixed (ascending index), so two calls over the same
/// slice produce the same bits regardless of how the slice was assembled
/// — the prefix analogue of the fixed summation tree in
/// [`crate::parallel::chunked_sum`].
pub fn exclusive_prefix_sums(values: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(values.len() + 1);
    let mut acc = 0.0f64;
    out.push(acc);
    for &v in values {
        acc += v;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_permutation_is_stable_on_ties() {
        let keys = [2.0, 1.0, 2.0, -0.0, 0.0, 1.0];
        let perm = sort_permutation(&keys);
        // total_cmp orders -0.0 before 0.0; equal keys keep input order.
        assert_eq!(perm, vec![3, 4, 1, 5, 0, 2]);
    }

    #[test]
    fn exclusive_prefix_sums_match_a_left_fold() {
        let values = [0.1, 0.2, 0.3, 1e16, 1.0];
        let prefix = exclusive_prefix_sums(&values);
        assert_eq!(prefix.len(), values.len() + 1);
        let mut acc = 0.0f64;
        for (i, &v) in values.iter().enumerate() {
            assert_eq!(prefix[i].to_bits(), acc.to_bits());
            acc += v;
        }
        assert_eq!(prefix[values.len()].to_bits(), acc.to_bits());
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(sort_permutation(&[]).is_empty());
        assert_eq!(exclusive_prefix_sums(&[]), vec![0.0]);
    }
}
