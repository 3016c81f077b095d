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
//! Scoring is delegated to the caller (the leader AP estimates a group's
//! rate as `Σ log(1+‖vᵀHw‖²)` from its channel estimates — in this
//! workspace that is `iac_core::optimize::predicted_rate`), so the policy
//! layer stays free of channel mathematics.

use iac_linalg::Rng64;
use std::collections::HashMap;

/// A group-selection policy. Returns the companions (NOT including the
/// head), at most `slots` of them, drawn from `candidates`.
pub trait GroupPolicy {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;

    /// Choose up to `slots` companions for `head`. `score` evaluates a full
    /// ordered group `[head, companions...]` and returns its predicted rate.
    fn select(
        &mut self,
        head: u16,
        candidates: &[u16],
        slots: usize,
        score: &mut dyn FnMut(&[u16]) -> f64,
        rng: &mut Rng64,
    ) -> Vec<u16>;
}

/// Arrival-order companions (§10.3's "FIFO" variant).
#[derive(Debug, Clone, Default)]
pub struct FifoPolicy;

impl GroupPolicy for FifoPolicy {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn select(
        &mut self,
        _head: u16,
        candidates: &[u16],
        slots: usize,
        _score: &mut dyn FnMut(&[u16]) -> f64,
        _rng: &mut Rng64,
    ) -> Vec<u16> {
        candidates.iter().copied().take(slots).collect()
    }
}

/// Exhaustive search over ordered companion tuples (§10.3's "brute force").
/// Exponential in group size; only group sizes up to 3 (pairs of
/// companions) are supported, which covers the paper's experiments.
#[derive(Debug, Clone, Default)]
pub struct BruteForce;

impl GroupPolicy for BruteForce {
    fn name(&self) -> &'static str {
        "brute-force"
    }

    fn select(
        &mut self,
        head: u16,
        candidates: &[u16],
        slots: usize,
        score: &mut dyn FnMut(&[u16]) -> f64,
        _rng: &mut Rng64,
    ) -> Vec<u16> {
        match slots {
            0 => Vec::new(),
            1 => {
                let mut best: Option<(f64, u16)> = None;
                for &a in candidates {
                    let s = score(&[head, a]);
                    if best.map(|(b, _)| s > b).unwrap_or(true) {
                        best = Some((s, a));
                    }
                }
                best.map(|(_, a)| vec![a]).unwrap_or_default()
            }
            _ => {
                if candidates.len() < 2 {
                    return candidates.to_vec();
                }
                let mut best: Option<(f64, (u16, u16))> = None;
                for &a in candidates {
                    for &b in candidates {
                        if a == b {
                            continue;
                        }
                        let s = score(&[head, a, b]);
                        if best.map(|(bs, _)| s > bs).unwrap_or(true) {
                            best = Some((s, (a, b)));
                        }
                    }
                }
                best.map(|(_, (a, b))| vec![a, b]).unwrap_or_default()
            }
        }
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
    fn name(&self) -> &'static str {
        "best-of-two"
    }

    fn select(
        &mut self,
        head: u16,
        candidates: &[u16],
        slots: usize,
        score: &mut dyn FnMut(&[u16]) -> f64,
        rng: &mut Rng64,
    ) -> Vec<u16> {
        if candidates.is_empty() || slots == 0 {
            return Vec::new();
        }
        // Force-include starved clients first ("if the counter crosses a
        // threshold, the client is selected as part of the group
        // irrespective of the throughput").
        let mut forced: Vec<u16> = candidates
            .iter()
            .copied()
            .filter(|c| self.credit_of(*c) >= self.threshold)
            .take(slots)
            .collect();
        for c in &forced {
            self.credits.insert(*c, 0);
        }
        let open_slots = slots - forced.len();
        if open_slots == 0 || candidates.len() <= forced.len() {
            return forced;
        }
        let pool: Vec<u16> = candidates
            .iter()
            .copied()
            .filter(|c| !forced.contains(c))
            .collect();

        // Two random candidates per open slot.
        let mut position_choices: Vec<Vec<u16>> = Vec::with_capacity(open_slots);
        for _ in 0..open_slots {
            let mut picks = Vec::with_capacity(2);
            picks.push(*rng.pick(&pool));
            picks.push(*rng.pick(&pool));
            picks.dedup();
            position_choices.push(picks);
        }
        // Enumerate the (≤ 2^slots) combinations, skipping duplicates.
        let mut considered: Vec<u16> = Vec::new();
        for picks in &position_choices {
            for &c in picks {
                if !considered.contains(&c) {
                    considered.push(c);
                }
            }
        }
        let mut best: Option<(f64, Vec<u16>)> = None;
        let mut enumerate = vec![0usize; open_slots];
        loop {
            let combo: Vec<u16> = enumerate
                .iter()
                .enumerate()
                .map(|(pos, &k)| position_choices[pos][k.min(position_choices[pos].len() - 1)])
                .collect();
            // Validity: no duplicates within the combo, no collision with
            // the forced members or the head.
            let mut seen: Vec<u16> = forced.clone();
            let mut valid = true;
            for &c in &combo {
                if seen.contains(&c) || c == head {
                    valid = false;
                    break;
                }
                seen.push(c);
            }
            if valid {
                let mut full = vec![head];
                full.extend(&forced);
                full.extend(&combo);
                let s = score(&full);
                if best.as_ref().map(|(bs, _)| s > *bs).unwrap_or(true) {
                    best = Some((s, combo));
                }
            }
            // Next combination (mixed-radix increment).
            let mut pos = 0;
            loop {
                if pos == open_slots {
                    break;
                }
                enumerate[pos] += 1;
                if enumerate[pos] < position_choices[pos].len() {
                    break;
                }
                enumerate[pos] = 0;
                pos += 1;
            }
            if pos == open_slots {
                break;
            }
        }
        let chosen = best.map(|(_, g)| g).unwrap_or_else(|| {
            // All combos collided (tiny pools): fall back to queue order.
            pool.iter().copied().take(open_slots).collect()
        });
        // Credit bookkeeping: considered-but-ignored clients gain credit,
        // selected clients reset.
        for c in considered {
            if chosen.contains(&c) {
                self.credits.insert(c, 0);
            } else {
                *self.credits.entry(c).or_insert(0) += 1;
            }
        }
        forced.extend(chosen);
        forced
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A rigged scorer: group rate = sum of fixed per-client values.
    fn rigged(values: &HashMap<u16, f64>) -> impl FnMut(&[u16]) -> f64 + '_ {
        move |group: &[u16]| {
            group
                .iter()
                .map(|c| values.get(c).copied().unwrap_or(0.0))
                .sum()
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
        let got = p.select(0, &[5, 2, 9, 7], 2, &mut score, &mut rng);
        assert_eq!(got, vec![5, 2]);
    }

    #[test]
    fn brute_force_finds_the_maximum() {
        let mut p = BruteForce;
        let mut rng = Rng64::new(2);
        let vals = values(&[(1, 1.0), (2, 5.0), (3, 2.0), (4, 9.0)]);
        let mut score = rigged(&vals);
        let mut got = p.select(0, &[1, 2, 3, 4], 2, &mut score, &mut rng);
        got.sort_unstable();
        assert_eq!(got, vec![2, 4]);
    }

    #[test]
    fn brute_force_single_slot() {
        let mut p = BruteForce;
        let mut rng = Rng64::new(3);
        let vals = values(&[(1, 1.0), (2, 5.0)]);
        let mut score = rigged(&vals);
        assert_eq!(p.select(0, &[1, 2], 1, &mut score, &mut rng), vec![2]);
    }

    #[test]
    fn best_of_two_picks_better_sampled_combo() {
        // With only two candidates both get sampled, so the better pair
        // ordering is found.
        let mut p = BestOfTwo::new(50);
        let mut rng = Rng64::new(4);
        let vals = values(&[(1, 1.0), (2, 10.0)]);
        let mut score = rigged(&vals);
        let got = p.select(0, &[1, 2], 2, &mut score, &mut rng);
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
            let got = p.select(0, &[1, 2, 3, 4, 5, 6], 2, &mut score, &mut rng);
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
            let got = p.select(0, &[1, 2, 3, 9], 2, &mut score, &mut rng);
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
            let got = p.select(0, &[1, 2, 3, 9], 2, &mut score, &mut rng);
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
            let got = p.select(0, &[1, 9], 2, &mut score, &mut rng);
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
        for policy in &mut [
            Box::new(FifoPolicy) as Box<dyn GroupPolicy>,
            Box::new(BruteForce),
            Box::new(BestOfTwo::default()),
        ] {
            let mut score = rigged(&vals);
            assert!(policy.select(0, &[], 2, &mut score, &mut rng).is_empty());
            let mut score = rigged(&vals);
            let one = policy.select(0, &[4], 2, &mut score, &mut rng);
            assert_eq!(one, vec![4], "{}", policy.name());
        }
    }
}
