//! Threshold-order primitives for the active-set fast path.
//!
//! The sub-linear λ-probe index sorts each segment's clients by their
//! closed-form entry/saturation thresholds once per rebuild and then
//! answers every probe with a binary search over prefix sums taken in
//! that order. [`sort_permutation`] fixes the order: a stable argsort,
//! computed as an LSD radix sort over order-preserving key bits, so the
//! same keys always give the same permutation however the input slice
//! was assembled. The index folds its prefix records itself, in one
//! ascending pass over that permutation.
//!
//! All orderings use [`f64::total_cmp`], so ties (including `-0.0` vs
//! `0.0` and NaN payloads) have one well-defined resolution everywhere.

/// Map `x` to unsigned bits whose integer order is [`f64::total_cmp`]
/// order (Herf's float radix trick): negative values flip every bit,
/// non-negative ones only the sign bit.
#[inline]
fn order_bits(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Stable argsort of `keys` under [`f64::total_cmp`].
///
/// Returns the permutation `perm` such that `keys[perm[0]] <=
/// keys[perm[1]] <= ...`, with ties resolved by original position
/// (stability). Indices are `u32` — the index layer caps populations at
/// `u32::MAX` clients, far above the workloads the repo targets.
///
/// The sort is an LSD radix sort of `(order_bits(key), position)` pairs,
/// one byte per pass; a pass whose byte is the same for every key is
/// skipped (all-equal keys skip every pass, keys of one sign and a narrow
/// range skip the top ones).
///
/// # Panics
///
/// Panics if `keys.len()` exceeds `u32::MAX`.
pub fn sort_permutation(keys: &[f64]) -> Vec<u32> {
    assert!(
        u32::try_from(keys.len()).is_ok(),
        "sort_permutation supports at most u32::MAX keys"
    );
    let n = keys.len();
    let mut pairs: Vec<(u64, u32)> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| (order_bits(key), i as u32))
        .collect();
    let mut counts = [[0usize; 256]; 8];
    for &(bits, _) in &pairs {
        for (pass, count) in counts.iter_mut().enumerate() {
            count[(bits >> (8 * pass)) as usize & 0xff] += 1;
        }
    }
    let mut scratch = vec![(0u64, 0u32); n];
    for (pass, count) in counts.iter().enumerate() {
        if count.contains(&n) {
            continue;
        }
        let mut offsets = [0usize; 256];
        let mut total = 0usize;
        for (offset, &c) in offsets.iter_mut().zip(count) {
            *offset = total;
            total += c;
        }
        let shift = 8 * pass;
        // Scattering in input order keeps equal bytes in their current
        // relative order, so each pass is stable and so is the sort.
        for &pair in &pairs {
            let bucket = (pair.0 >> shift) as usize & 0xff;
            scratch[offsets[bucket]] = pair;
            offsets[bucket] += 1;
        }
        std::mem::swap(&mut pairs, &mut scratch);
    }
    pairs.into_iter().map(|(_, i)| i).collect()
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
    fn order_bits_follow_total_cmp() {
        let keys = [
            f64::NEG_INFINITY,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::from_bits(1),
            1.0,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &keys {
            for &b in &keys {
                assert_eq!(
                    order_bits(a).cmp(&order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn empty_inputs_are_fine() {
        assert!(sort_permutation(&[]).is_empty());
    }
}
