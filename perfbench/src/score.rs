//! Scoring and output checks, run after the timer stops.

use crate::replay::Pass;
use crate::workload::Workload;
use tommy_metrics::ras::RasScore;

fn pairs(k: u64) -> u64 {
    k * k.saturating_sub(1) / 2
}

/// Sum of `pairs(run length)` over runs of equal keys in a sorted slice.
fn tied_pairs<K: PartialEq>(sorted: impl Iterator<Item = K>) -> u64 {
    let mut total = 0;
    let mut run = 0u64;
    let mut prev: Option<K> = None;
    for key in sorted {
        if prev.as_ref() == Some(&key) {
            run += 1;
        } else {
            total += pairs(run);
            run = 1;
            prev = Some(key);
        }
    }
    total + pairs(run)
}

/// Count pairs `i < j` with `ranks[i] > ranks[j]` by merge sort, sorting
/// `ranks` in place.
fn strict_inversions(ranks: &mut [u64], scratch: &mut Vec<u64>) -> u64 {
    let n = ranks.len();
    if n < 2 {
        return 0;
    }
    let mid = n / 2;
    let mut count = strict_inversions(&mut ranks[..mid], scratch);
    count += strict_inversions(&mut ranks[mid..], scratch);
    scratch.clear();
    let (mut i, mut j) = (0, mid);
    while i < mid && j < n {
        if ranks[j] < ranks[i] {
            // Every element left in the left half is strictly greater.
            count += (mid - i) as u64;
            scratch.push(ranks[j]);
            j += 1;
        } else {
            scratch.push(ranks[i]);
            i += 1;
        }
    }
    scratch.extend_from_slice(&ranks[i..mid]);
    scratch.extend_from_slice(&ranks[j..n]);
    ranks.copy_from_slice(scratch);
    count
}

/// The Rank Agreement Score of `(true time, rank)` pairs in O(n log n).
///
/// Pairs tied in true time are not scored, pairs with equal ranks are
/// indifferent, and the rest are correct or incorrect by whether the rank
/// order agrees with the true-time order — the same classes
/// `tommy_metrics::ras::rank_agreement_score` counts pair by pair.
pub fn rank_agreement(items: &mut [(f64, u64)]) -> RasScore {
    let n = items.len() as u64;
    items.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let scored = pairs(n) - tied_pairs(items.iter().map(|x| x.0.to_bits()));
    let same_both = tied_pairs(items.iter().map(|x| (x.0.to_bits(), x.1)));
    // Sorted by (true time, rank), so a strict rank inversion always spans
    // two different true times: it is exactly an incorrect pair.
    let mut ranks: Vec<u64> = items.iter().map(|x| x.1).collect();
    let incorrect = strict_inversions(&mut ranks, &mut Vec::with_capacity(items.len()));
    let same_rank = tied_pairs(ranks.iter());
    let indifferent = same_rank - same_both;
    let count = |x: u64| usize::try_from(x).expect("pair counts fit in usize");
    RasScore {
        correct: count(scored - indifferent - incorrect),
        incorrect: count(incorrect),
        indifferent: count(indifferent),
    }
}

/// FNV-1a digest of the batch sequence: ranks, emission times and member
/// ids in order.
pub fn digest(pass: &Pass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for b in &pass.batches {
        eat(b.rank as u64);
        eat(b.emitted_at.to_bits());
        eat(b.len as u64);
        for e in &pass.emits[b.first..b.first + b.len] {
            eat(e.id);
        }
    }
    h
}

/// Check one pass's output; returns every failed check.
///
/// * every emitted message is one the session layer released, emitted
///   once, with the client and timestamp it was sent with;
/// * every released message is emitted, and on a workload without faults
///   every generated message is released;
/// * per client, emitted timestamps never decrease;
/// * batch ranks count up from 0 and `emitted_at` never decreases;
/// * the front door rejected nothing.
pub fn check(w: &Workload, pass: &Pass) -> Vec<String> {
    let mut failures = Vec::new();
    let n = w.messages.len();
    let mut seen = vec![false; n];
    let mut last_ts = vec![f64::NEG_INFINITY; w.offsets.len()];
    for e in &pass.emits {
        let Some(sent) = w.messages.get(e.id as usize) else {
            failures.push(format!("emitted unknown message {}", e.id));
            continue;
        };
        if std::mem::replace(&mut seen[e.id as usize], true) {
            failures.push(format!("message {} emitted twice", e.id));
        }
        if !pass.released[e.id as usize] {
            failures.push(format!("message {} emitted but never released", e.id));
        }
        if sent.client.0 != e.client || sent.timestamp != e.timestamp {
            failures.push(format!("message {} changed on its way through", e.id));
        }
        let last = &mut last_ts[e.client as usize];
        if e.timestamp < *last {
            failures.push(format!(
                "client {} emitted timestamp {} after {}",
                e.client, e.timestamp, last
            ));
        }
        *last = e.timestamp;
    }
    let released = pass.released.iter().filter(|&&r| r).count();
    let emitted = seen.iter().filter(|&&s| s).count();
    if emitted != released {
        failures.push(format!("{released} messages released, {emitted} emitted"));
    }
    if !w.streamed && released != n {
        failures.push(format!(
            "{n} messages generated, {released} released without faults"
        ));
    }
    let mut prev_at = f64::NEG_INFINITY;
    for (i, b) in pass.batches.iter().enumerate() {
        if b.rank != i {
            failures.push(format!("batch {i} carries rank {}", b.rank));
        }
        if b.emitted_at < prev_at {
            failures.push(format!(
                "batch {i} emitted at {} after {}",
                b.emitted_at, prev_at
            ));
        }
        prev_at = b.emitted_at;
    }
    if pass.rejected > 0 {
        failures.push(format!("the front door rejected {} calls", pass.rejected));
    }
    failures.truncate(20);
    failures
}

/// The RAS of a pass's emitted order against ground truth, ranking
/// messages by the index of their batch.
pub fn pass_ras(w: &Workload, pass: &Pass) -> RasScore {
    let mut items: Vec<(f64, u64)> = Vec::with_capacity(pass.emits.len());
    for (rank, b) in pass.batches.iter().enumerate() {
        for e in &pass.emits[b.first..b.first + b.len] {
            let truth = w.messages[e.id as usize]
                .true_time
                .expect("generated messages carry ground truth");
            items.push((truth, rank as u64));
        }
    }
    rank_agreement(&mut items)
}

/// Per emitted message: sim time from the arrival of its submit frame at
/// the server (on a fault-free link) to `emitted_at`.
pub fn order_delays(w: &Workload, pass: &Pass) -> Vec<f64> {
    let mut out = Vec::with_capacity(pass.emits.len());
    for b in &pass.batches {
        for e in &pass.emits[b.first..b.first + b.len] {
            out.push(b.emitted_at - w.nominal_arrival[e.id as usize]);
        }
    }
    out
}

/// Per message due after the timer started, in an open-loop pass: wall µs
/// from its due time (the nominal arrival of its submit frame) to the
/// drain that returned it.
pub fn latencies_us(w: &Workload, pass: &Pass, ns_per_unit: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(pass.emits.len());
    for b in &pass.batches {
        for e in &pass.emits[b.first..b.first + b.len] {
            let due = w.nominal_arrival[e.id as usize] - w.timed_t0;
            if due >= 0.0 {
                out.push((b.drained_ns as f64 - due * ns_per_unit) / 1e3);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use tommy_core::batching::FairOrder;
    use tommy_core::message::{ClientId, Message, MessageId};
    use tommy_metrics::ras::rank_agreement_score;

    /// Random true times (with ties) and ranks (with shared batches),
    /// scored by both implementations.
    fn cross_check(seed: u64, n: usize, time_levels: u32, batches: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let messages: Vec<Message> = (0..n as u64)
            .map(|i| {
                let t = f64::from(rng.random_range(0..time_levels));
                Message::with_true_time(MessageId(i), ClientId(0), t, t)
            })
            .collect();
        let ranks: Vec<u64> = (0..n).map(|_| rng.random_range(0..batches)).collect();
        let mut groups: Vec<Vec<MessageId>> = vec![Vec::new(); batches as usize];
        for (m, &r) in messages.iter().zip(&ranks) {
            groups[r as usize].push(m.id);
        }
        groups.retain(|g| !g.is_empty());
        // Empty batches were dropped, so ranks in the FairOrder are dense;
        // relative order, and so every pair class, is unchanged.
        let reference = rank_agreement_score(&FairOrder::from_groups(groups), &messages);
        let mut items: Vec<(f64, u64)> = messages
            .iter()
            .zip(&ranks)
            .map(|(m, &r)| (m.true_time.unwrap(), r))
            .collect();
        assert_eq!(rank_agreement(&mut items), reference, "seed {seed}");
    }

    #[test]
    fn fast_ras_matches_the_pairwise_reference() {
        for seed in 0..200 {
            let n = 1 + (seed as usize * 7) % 120;
            cross_check(seed, n, 1 + (seed as u32 % 40), 1 + seed % 30);
        }
    }

    #[test]
    fn fast_ras_handles_all_ties_and_total_orders() {
        cross_check(1, 50, 1, 1); // every true time tied: nothing scored
        cross_check(2, 80, 1_000_000, 1_000_000); // almost surely distinct
        let mut empty: Vec<(f64, u64)> = Vec::new();
        assert_eq!(rank_agreement(&mut empty), RasScore::default());
    }

    #[test]
    fn inversions_are_strict() {
        let mut v = vec![3, 1, 2, 2, 0];
        assert_eq!(strict_inversions(&mut v, &mut Vec::new()), 7);
        assert_eq!(v, vec![0, 1, 2, 2, 3]);
    }
}
