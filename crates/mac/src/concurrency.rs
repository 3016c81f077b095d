//! Transmission-group selection: the concurrency algorithms of §7.2/§10.3.
//!
//! All three policies anchor the group on the head of the FIFO queue ("to
//! prevent starvation and reduce delay, it always picks the head of the FIFO
//! queue as the first packet") and differ in how companions are chosen:
//!
//! * [`FifoPolicy`] — companions in arrival order; fair, rate-oblivious.
//! * [`BruteForce`] — exhaustive search over companion pairs for the best
//!   predicted rate; fast clients win every time, slow clients starve
//!   (Fig. 15 shows gains < 1 for some of them).
//! * [`BestOfTwo`] — the paper's choice: two random candidates per position,
//!   keep the best-scoring combination, plus *credit counters* that force
//!   chronically-ignored clients into a group once they cross a threshold.
//!
//! fig15 (`iac_sim::scenarios::fig15`) compares the three; the event-driven
//! leader in `iac-des` groups FIFO through [`crate::pcf::form_group`].
//!
//! Every group is the head plus a *companion pair*. Scoring is delegated to
//! the caller (the leader AP estimates a group's rate as `Σ log(1+‖vᵀHw‖²)`
//! from its channel estimates — in this workspace that is fig15's
//! `iac_core::optimize::ScoringContext`), so the policy layer stays free of
//! channel mathematics. A policy names every pair it wants scored, in the
//! order it evaluates them, in one call and gets one score per pair back.

use iac_linalg::Rng64;
use std::collections::HashMap;

/// A policy's score callback: `score(pairs, scores)` sets `scores[i]` to
/// the predicted rate of the group `[head, pairs[i][0], pairs[i][1]]`.
pub type ScorePairs<'a> = dyn FnMut(&[[u16; 2]], &mut [f64]) + 'a;

/// A group-selection policy. Returns the companions (NOT including the
/// head), at most two of them, drawn from `candidates` (which exclude the
/// head).
pub trait GroupPolicy {
    /// Choose up to two companions for `head`, calling `score` at most
    /// once with every pair the policy evaluates, in evaluation order.
    fn select(
        &mut self,
        head: u16,
        candidates: &[u16],
        score: &mut ScorePairs<'_>,
        rng: &mut Rng64,
    ) -> Vec<u16>;
}

/// Score `pairs` in one call and return the index of the first best one
/// (strict `>`, so a tie keeps the earlier pair).
fn best_pair(pairs: &[[u16; 2]], score: &mut ScorePairs<'_>) -> Option<usize> {
    if pairs.is_empty() {
        return None;
    }
    let mut scores = vec![0.0; pairs.len()];
    score(pairs, &mut scores);
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate().skip(1) {
        if s > scores[best] {
            best = i;
        }
    }
    Some(best)
}

/// Arrival-order companions (§10.3's "FIFO" variant).
#[derive(Debug, Clone, Default)]
pub struct FifoPolicy;

impl GroupPolicy for FifoPolicy {
    fn select(
        &mut self,
        _head: u16,
        candidates: &[u16],
        _score: &mut ScorePairs<'_>,
        _rng: &mut Rng64,
    ) -> Vec<u16> {
        candidates.iter().copied().take(2).collect()
    }
}

/// Exhaustive search over ordered companion pairs (§10.3's "brute force").
#[derive(Debug, Clone, Default)]
pub struct BruteForce;

impl GroupPolicy for BruteForce {
    fn select(
        &mut self,
        _head: u16,
        candidates: &[u16],
        score: &mut ScorePairs<'_>,
        _rng: &mut Rng64,
    ) -> Vec<u16> {
        if candidates.len() < 2 {
            return candidates.to_vec();
        }
        let mut pairs = Vec::with_capacity(candidates.len() * (candidates.len() - 1));
        for &a in candidates {
            for &b in candidates {
                if a != b {
                    pairs.push([a, b]);
                }
            }
        }
        best_pair(&pairs, score).map_or_else(Vec::new, |i| pairs[i].to_vec())
    }
}

/// The best-of-two-choices policy with credit counters (§7.2a).
#[derive(Debug, Clone)]
pub struct BestOfTwo {
    credits: HashMap<u16, u32>,
    /// Credit level at which a client is force-included.
    pub threshold: u32,
}

impl BestOfTwo {
    /// Policy with the given starvation threshold.
    pub(crate) fn new(threshold: u32) -> Self {
        assert!(threshold > 0, "threshold must be positive");
        Self {
            credits: HashMap::new(),
            threshold,
        }
    }

    /// Current credit of a client (0 if never considered).
    pub(crate) fn credit_of(&self, client: u16) -> u32 {
        self.credits.get(&client).copied().unwrap_or(0)
    }
}

impl Default for BestOfTwo {
    fn default() -> Self {
        // A modest threshold: a client passed over a handful of times gets
        // forced in, bounding its inter-service gap.
        Self::new(5)
    }
}

impl GroupPolicy for BestOfTwo {
    fn select(
        &mut self,
        head: u16,
        candidates: &[u16],
        score: &mut ScorePairs<'_>,
        rng: &mut Rng64,
    ) -> Vec<u16> {
        if candidates.is_empty() {
            return Vec::new();
        }
        // Force-include starved clients first ("if the counter crosses a
        // threshold, the client is selected as part of the group
        // irrespective of the throughput").
        let mut forced: Vec<u16> = candidates
            .iter()
            .copied()
            .filter(|c| self.credit_of(*c) >= self.threshold)
            .take(2)
            .collect();
        for c in &forced {
            self.credits.insert(*c, 0);
        }
        if forced.len() == 2 || candidates.len() <= forced.len() {
            return forced;
        }
        let pool: Vec<u16> = candidates
            .iter()
            .copied()
            .filter(|c| !forced.contains(c))
            .collect();

        // Two random candidates per open position.
        let positions: Vec<Vec<u16>> = (forced.len()..2)
            .map(|_| {
                let mut picks = vec![*rng.pick(&pool), *rng.pick(&pool)];
                picks.dedup();
                picks
            })
            .collect();
        // The (≤ 4) pairs, position 0 varying fastest; a forced client holds
        // position 0. A pair may not repeat a client or hold the head.
        let first = if forced.is_empty() {
            &positions[0]
        } else {
            &forced
        };
        let second = &positions[positions.len() - 1];
        let mut pairs = Vec::with_capacity(4);
        for &b in second {
            for &a in first {
                if a != b && a != head && b != head {
                    pairs.push([a, b]);
                }
            }
        }
        let chosen = match best_pair(&pairs, score) {
            Some(i) => pairs[i].to_vec(),
            // All pairs collided (tiny pools): fall back to queue order.
            None => {
                forced.extend(pool.iter().copied().take(positions.len()));
                forced
            }
        };
        // Credit bookkeeping: considered-but-ignored clients gain credit,
        // selected clients reset.
        let mut considered: Vec<u16> = Vec::new();
        for &c in positions.iter().flatten() {
            if !considered.contains(&c) {
                considered.push(c);
            }
        }
        for c in considered {
            if chosen.contains(&c) {
                self.credits.insert(c, 0);
            } else {
                *self.credits.entry(c).or_insert(0) += 1;
            }
        }
        chosen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rigged scorer: group rate = sum of fixed per-client values (the
    /// head's value is the same for every pair, so it is left out).
    fn rigged(values: &HashMap<u16, f64>) -> impl FnMut(&[[u16; 2]], &mut [f64]) + '_ {
        move |pairs: &[[u16; 2]], scores: &mut [f64]| {
            for (s, pair) in scores.iter_mut().zip(pairs) {
                *s = pair
                    .iter()
                    .map(|c| values.get(c).copied().unwrap_or(0.0))
                    .sum();
            }
        }
    }

    fn values(pairs: &[(u16, f64)]) -> HashMap<u16, f64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn fifo_takes_queue_order() {
        let mut p = FifoPolicy;
        let mut rng = Rng64::new(1);
        let vals = values(&[]);
        let mut score = rigged(&vals);
        let got = p.select(0, &[5, 2, 9, 7], &mut score, &mut rng);
        assert_eq!(got, vec![5, 2]);
    }

    #[test]
    fn brute_force_finds_the_maximum() {
        let mut p = BruteForce;
        let mut rng = Rng64::new(2);
        let vals = values(&[(1, 1.0), (2, 5.0), (3, 2.0), (4, 9.0)]);
        let mut score = rigged(&vals);
        let mut got = p.select(0, &[1, 2, 3, 4], &mut score, &mut rng);
        got.sort_unstable();
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn score_is_one_batch_per_select() {
        let candidates = [3u16, 1, 4, 2];
        let mut rng = Rng64::new(10);
        // Brute force: every ordered pair a ≠ b in nested-loop order, once;
        // all pairs tie, so the first one wins.
        let mut calls: Vec<Vec<[u16; 2]>> = Vec::new();
        let mut record = |pairs: &[[u16; 2]], scores: &mut [f64]| {
            calls.push(pairs.to_vec());
            scores.fill(1.0);
        };
        let got = BruteForce.select(0, &candidates, &mut record, &mut rng);
        let mut nested = Vec::new();
        for &a in &candidates {
            for &b in &candidates {
                if a != b {
                    nested.push([a, b]);
                }
            }
        }
        assert_eq!(calls, vec![nested]);
        assert_eq!(calls[0].len(), 4 * 3);
        assert_eq!(got, vec![3, 1], "a tie keeps the first pair");

        // FIFO never scores.
        calls.clear();
        let mut record = |pairs: &[[u16; 2]], _: &mut [f64]| calls.push(pairs.to_vec());
        FifoPolicy.select(0, &candidates, &mut record, &mut rng);
        assert!(calls.is_empty());

        // Best-of-two: at most one call of at most 4 pairs, each without the
        // head or a repeated client; the winner is one of them.
        let mut p = BestOfTwo::new(3);
        for round in 0..200 {
            let head = (round % 5) as u16;
            let pool: Vec<u16> = (0..5).filter(|&c| c != head).collect();
            let mut calls: Vec<Vec<[u16; 2]>> = Vec::new();
            let mut record = |pairs: &[[u16; 2]], scores: &mut [f64]| {
                calls.push(pairs.to_vec());
                for (s, pair) in scores.iter_mut().zip(pairs) {
                    *s = f64::from(pair[0] * 7 + pair[1]);
                }
            };
            let got = p.select(head, &pool, &mut record, &mut rng);
            assert!(calls.len() <= 1, "round {round}: {} calls", calls.len());
            for pairs in &calls {
                assert!(
                    !pairs.is_empty() && pairs.len() <= 4,
                    "round {round}: {pairs:?}"
                );
                for &[a, b] in pairs {
                    assert!(a != b && a != head && b != head, "round {round}: {pairs:?}");
                }
                assert!(
                    pairs.iter().any(|pair| got == pair.to_vec()),
                    "round {round}"
                );
            }
        }
    }

    #[test]
    fn best_of_two_picks_better_sampled_combo() {
        // With only two candidates both get sampled, so the better pair
        // ordering is found.
        let mut p = BestOfTwo::new(50);
        let mut rng = Rng64::new(4);
        let vals = values(&[(1, 1.0), (2, 10.0)]);
        let mut score = rigged(&vals);
        let got = p.select(0, &[1, 2], &mut score, &mut rng);
        assert_eq!(got.len(), 2);
        assert!(got.contains(&1) && got.contains(&2));
    }

    #[test]
    fn best_of_two_respects_group_bounds() {
        let mut p = BestOfTwo::default();
        let mut rng = Rng64::new(5);
        let vals = values(&[]);
        for round in 0..200 {
            let mut score = rigged(&vals);
            let got = p.select(0, &[1, 2, 3, 4, 5, 6], &mut score, &mut rng);
            assert!(got.len() <= 2, "round {round}: {got:?}");
            let mut sorted = got.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), got.len(), "duplicate companion");
            assert!(!got.contains(&0), "head selected as companion");
        }
    }

    #[test]
    fn credits_prevent_starvation() {
        // Client 9 always scores terribly; brute force would never pick it.
        // Best-of-two must still include it within a bounded number of
        // rounds thanks to the credit counter.
        let mut p = BestOfTwo::new(5);
        let mut rng = Rng64::new(6);
        let vals = values(&[(1, 10.0), (2, 10.0), (3, 10.0), (9, 0.001)]);
        let mut served_9 = 0;
        let rounds = 200;
        for _ in 0..rounds {
            let mut score = rigged(&vals);
            let got = p.select(0, &[1, 2, 3, 9], &mut score, &mut rng);
            if got.contains(&9) {
                served_9 += 1;
            }
        }
        assert!(
            served_9 >= rounds / 40,
            "client 9 served only {served_9}/{rounds} times"
        );
    }

    #[test]
    fn brute_force_starves_weak_clients() {
        // The contrast the paper draws in Fig. 15: brute force NEVER picks
        // the weak client when stronger ones exist.
        let mut p = BruteForce;
        let mut rng = Rng64::new(7);
        let vals = values(&[(1, 10.0), (2, 10.0), (3, 10.0), (9, 0.001)]);
        for _ in 0..50 {
            let mut score = rigged(&vals);
            let got = p.select(0, &[1, 2, 3, 9], &mut score, &mut rng);
            assert!(!got.contains(&9));
        }
    }

    #[test]
    fn credit_resets_after_service() {
        let mut p = BestOfTwo::new(3);
        let mut rng = Rng64::new(8);
        let vals = values(&[(1, 10.0), (9, 0.0)]);
        // Starve client 9 until it gets forced in, then check its credit
        // went back to zero.
        let mut forced_seen = false;
        for _ in 0..100 {
            let mut score = rigged(&vals);
            let got = p.select(0, &[1, 9], &mut score, &mut rng);
            if got.contains(&9) && p.credit_of(9) == 0 {
                forced_seen = true;
                break;
            }
        }
        assert!(forced_seen, "client 9 never force-included");
    }

    #[test]
    fn small_candidate_pools_handled() {
        let mut rng = Rng64::new(9);
        let vals = values(&[]);
        for (k, policy) in [
            Box::new(FifoPolicy) as Box<dyn GroupPolicy>,
            Box::new(BruteForce),
            Box::new(BestOfTwo::default()),
        ]
        .iter_mut()
        .enumerate()
        {
            let mut score = rigged(&vals);
            assert!(policy.select(0, &[], &mut score, &mut rng).is_empty());
            let mut score = rigged(&vals);
            let one = policy.select(0, &[4], &mut score, &mut rng);
            assert_eq!(one, vec![4], "policy {k}");
        }
    }
}
