//! Rank-correlation distances between total orders.
//!
//! Used to evaluate the fair-total-order extension (§5): once ties are broken
//! within batches, how far is the resulting total order from the omniscient
//! observer's order?

use tommy_core::message::MessageId;
use std::collections::HashMap;

/// Number of discordant pairs between two total orders over the same set of
/// messages (the Kendall tau distance).
///
/// # Panics
///
/// Panics if the two orders are not permutations of the same message set.
pub fn kendall_tau_distance(a: &[MessageId], b: &[MessageId]) -> usize {
    assert_eq!(a.len(), b.len(), "orders must have the same length");
    let pos_b: HashMap<MessageId, usize> = b.iter().enumerate().map(|(i, &m)| (m, i)).collect();
    assert_eq!(pos_b.len(), b.len(), "order b contains duplicates");
    // Map order a through b's positions, then count inversions.
    let mapped: Vec<usize> = a
        .iter()
        .map(|m| *pos_b.get(m).unwrap_or_else(|| panic!("{m} missing from second order")))
        .collect();
    count_inversions(&mapped)
}

/// Kendall tau distance normalized by the number of pairs, in `[0, 1]`
/// (0 = identical orders, 1 = fully reversed). Returns 0 for fewer than two
/// elements.
pub fn normalized_kendall_tau(a: &[MessageId], b: &[MessageId]) -> f64 {
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let pairs = n * (n - 1) / 2;
    kendall_tau_distance(a, b) as f64 / pairs as f64
}

/// Count inversions in a permutation of positions via merge sort (O(n log n)).
fn count_inversions(values: &[usize]) -> usize {
    fn sort_count(v: &mut [usize]) -> usize {
        let n = v.len();
        if n <= 1 {
            return 0;
        }
        let mid = n / 2;
        let mut left: Vec<usize> = v[..mid].to_vec();
        let mut right: Vec<usize> = v[mid..].to_vec();
        let mut inversions = sort_count(&mut left) + sort_count(&mut right);
        // Merge.
        let (mut i, mut j, mut k) = (0, 0, 0);
        while i < left.len() && j < right.len() {
            if left[i] <= right[j] {
                v[k] = left[i];
                i += 1;
            } else {
                v[k] = right[j];
                j += 1;
                inversions += left.len() - i;
            }
            k += 1;
        }
        while i < left.len() {
            v[k] = left[i];
            i += 1;
            k += 1;
        }
        while j < right.len() {
            v[k] = right[j];
            j += 1;
            k += 1;
        }
        inversions
    }
    let mut copy = values.to_vec();
    sort_count(&mut copy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(values: &[u64]) -> Vec<MessageId> {
        values.iter().map(|&v| MessageId(v)).collect()
    }

    #[test]
    fn identical_orders_have_zero_distance() {
        let a = ids(&[1, 2, 3, 4]);
        assert_eq!(kendall_tau_distance(&a, &a), 0);
        assert_eq!(normalized_kendall_tau(&a, &a), 0.0);
    }

    #[test]
    fn reversed_orders_have_maximum_distance() {
        let a = ids(&[1, 2, 3, 4]);
        let b = ids(&[4, 3, 2, 1]);
        assert_eq!(kendall_tau_distance(&a, &b), 6);
        assert_eq!(normalized_kendall_tau(&a, &b), 1.0);
    }

    #[test]
    fn single_swap_is_one_inversion() {
        let a = ids(&[1, 2, 3, 4]);
        let b = ids(&[1, 3, 2, 4]);
        assert_eq!(kendall_tau_distance(&a, &b), 1);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = ids(&[5, 1, 4, 2, 3]);
        let b = ids(&[1, 2, 3, 4, 5]);
        assert_eq!(kendall_tau_distance(&a, &b), kendall_tau_distance(&b, &a));
    }

    #[test]
    fn short_orders() {
        assert_eq!(normalized_kendall_tau(&ids(&[1]), &ids(&[1])), 0.0);
        assert_eq!(normalized_kendall_tau(&ids(&[]), &ids(&[])), 0.0);
    }

    #[test]
    #[should_panic(expected = "missing from second order")]
    fn mismatched_sets_rejected() {
        kendall_tau_distance(&ids(&[1, 2]), &ids(&[1, 3]));
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_lengths_rejected() {
        kendall_tau_distance(&ids(&[1, 2]), &ids(&[1]));
    }
}
