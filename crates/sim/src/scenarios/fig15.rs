//! Fig. 15 — the whole-testbed comparison of concurrency algorithms.
//!
//! 3 APs serve 17 always-backlogged clients for 1000 timeslots; the three
//! grouping policies of §7.2 are compared by the CDF of *per-client* gains
//! over 802.11-MIMO (which serves one client per slot, best-AP, TDMA).
//! Paper headlines: uplink averages 2.32× (brute force), 1.9× (FIFO), 2.08×
//! (best-of-two); downlink 1.58× / 1.23× / 1.52×; brute force is unfair
//! (some clients fall below 1×), best-of-two has the best
//! fairness-throughput tradeoff.

use crate::experiment::{
    best_ap, client_links, draw_slot, iac_decode, ExperimentConfig, NOISE, PER_NODE_POWER,
};
use crate::stats::{mean, render_cdfs};
use crate::testbed::Testbed;
use iac_core::grid::Direction;
use iac_core::optimize::{downlink3_optimized, uplink4_optimized, ScoringContext};
use iac_linalg::Rng64;
use iac_mac::concurrency::{BestOfTwo, BruteForce, FifoPolicy, GroupPolicy};
use std::collections::VecDeque;

/// APs in the testbed: `ScoringContext` scores 3-AP groups only.
const N_APS: usize = 3;

/// The three §10.3 policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicyKind {
    BruteForce,
    Fifo,
    BestOfTwo,
}

impl PolicyKind {
    /// All three, in the paper's presentation order.
    pub(crate) const ALL: [PolicyKind; 3] = [
        PolicyKind::BruteForce,
        PolicyKind::Fifo,
        PolicyKind::BestOfTwo,
    ];

    fn build(self) -> Box<dyn GroupPolicy> {
        match self {
            PolicyKind::BruteForce => Box::new(BruteForce),
            PolicyKind::Fifo => Box::new(FifoPolicy),
            PolicyKind::BestOfTwo => Box::new(BestOfTwo::default()),
        }
    }

    /// Display name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            PolicyKind::BruteForce => "brute-force",
            PolicyKind::Fifo => "fifo",
            PolicyKind::BestOfTwo => "best-of-two",
        }
    }
}

/// Experiment knobs beyond [`ExperimentConfig`].
#[derive(Debug, Clone)]
pub struct Fig15Config {
    /// Base knobs (slots = timeslots per run; picks unused).
    pub base: ExperimentConfig,
    /// Clients with infinite demand (17 in the paper).
    pub n_clients: usize,
    /// Independent runs averaged per client (3 in the paper).
    pub runs: usize,
}

impl Fig15Config {
    /// Paper-scale configuration, reproducible from `seed`.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            base: ExperimentConfig {
                slots: 1000,
                ..ExperimentConfig::paper_default(seed)
            },
            n_clients: 17,
            runs: 3,
        }
    }

    /// Reduced size for unit tests.
    pub(crate) fn quick(seed: u64) -> Self {
        Self {
            base: ExperimentConfig {
                slots: 60,
                ..ExperimentConfig::quick(seed)
            },
            n_clients: 8,
            runs: 1,
        }
    }
}

/// Per-policy per-client gains.
#[derive(Debug, Clone)]
pub struct Fig15Report {
    /// Direction.
    pub(crate) direction: Direction,
    /// `(policy, per-client gains)`.
    pub(crate) gains: Vec<(PolicyKind, Vec<f64>)>,
}

impl Fig15Report {
    /// Average gain of one policy.
    pub(crate) fn average_gain(&self, kind: PolicyKind) -> f64 {
        self.gains
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, g)| mean(g))
            .unwrap_or(0.0)
    }

    /// Fraction of clients whose gain fell below 1 (the unfairness marker).
    pub(crate) fn losers_fraction(&self, kind: PolicyKind) -> f64 {
        self.gains
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, g)| g.iter().filter(|&&x| x < 1.0).count() as f64 / g.len() as f64)
            .unwrap_or(0.0)
    }

    /// Minimum per-client gain (fairness floor).
    pub(crate) fn min_gain(&self, kind: PolicyKind) -> f64 {
        self.gains
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, g)| g.iter().cloned().fold(f64::INFINITY, f64::min))
            .unwrap_or(0.0)
    }
}

/// Run the experiment for one direction.
pub fn run(cfg: &Fig15Config, direction: Direction) -> Fig15Report {
    let mut outer_rng = Rng64::new(cfg.base.seed);
    let mut per_policy: Vec<(PolicyKind, Vec<f64>)> = PolicyKind::ALL
        .iter()
        .map(|&k| (k, vec![0.0; cfg.n_clients]))
        .collect();
    let mut baseline_rates = vec![0.0; cfg.n_clients];

    for _run in 0..cfg.runs {
        let mut rng = outer_rng.fork();
        let testbed = Testbed::deploy(cfg.n_clients + N_APS, 2, &mut rng);
        let (aps, clients) = testbed.pick_roles(N_APS, cfg.n_clients, &mut rng);
        let draw = |nodes: &[usize], rng: &mut Rng64| {
            draw_slot(&testbed, direction, nodes, &aps, &cfg.base.est, rng)
        };

        // 802.11-MIMO TDMA baseline: slot k serves client k mod n.
        for slot in 0..cfg.base.slots {
            let c = slot % cfg.n_clients;
            let (grid, est) = draw(&[clients[c]], &mut rng);
            // A degenerate link scores 0.0.
            baseline_rates[c] += best_ap(&client_links(&grid, 0), &client_links(&est, 0))
                .map_or(0.0, |(_, rate, _)| rate);
        }

        // IAC with each policy.
        for (kind, totals) in per_policy.iter_mut() {
            let mut policy = kind.build();
            let mut policy_rng = rng.fork();
            // Infinite-demand FIFO of client ids in random arrival order.
            let mut queue: VecDeque<u16> = {
                let mut ids: Vec<u16> = (0..cfg.n_clients as u16).collect();
                policy_rng.shuffle(&mut ids);
                ids.into()
            };
            for _slot in 0..cfg.base.slots {
                let head = *queue.front().expect("infinite demand");
                let candidates: Vec<u16> = queue.iter().copied().filter(|&c| c != head).collect();
                // Leader-side scoring: predicted group rate from estimates
                // of this slot's channels. The transmission below draws
                // fresh channels (and estimates) for the chosen group, so
                // the leader scores on one draw and transmits on another.
                let (_, slot_est) = draw(&clients, &mut policy_rng);
                let mut context =
                    ScoringContext::new(&slot_est, head as usize, PER_NODE_POWER, NOISE);
                let mut score =
                    |pairs: &[[u16; 2]], scores: &mut [f64]| context.score_batch(pairs, scores);
                let companions = policy.select(head, &candidates, &mut score, &mut policy_rng);
                let mut group = vec![head];
                group.extend(companions);
                if group.len() == 3 {
                    let nodes: Vec<usize> = group.iter().map(|&c| clients[c as usize]).collect();
                    let (grid, est) = draw(&nodes, &mut policy_rng);
                    // A failed alignment or decode gives the group no rate.
                    let out = iac_decode(&grid, &est, |est| match direction {
                        Direction::Uplink => uplink4_optimized(est, PER_NODE_POWER, NOISE),
                        Direction::Downlink => downlink3_optimized(est, PER_NODE_POWER, NOISE),
                    });
                    for p in out.iter().flat_map(|o| &o.sinrs) {
                        // Uplink packets 0 and 1 belong to the head (the
                        // double sender), 2 to group[1] and 3 to group[2].
                        let client = match (direction, p.packet) {
                            (Direction::Uplink, k) => group[k.saturating_sub(1)],
                            (Direction::Downlink, k) => group[k],
                        };
                        totals[client as usize] += (1.0 + p.sinr).log2();
                    }
                }
                // Served clients re-enter at the back (infinite demand).
                queue.retain(|c| !group.contains(c));
                for &c in &group {
                    queue.push_back(c);
                }
            }
        }
    }

    // Gains: both sides normalised by the same slot budget, so the ratio of
    // rate sums is the ratio of time-averaged rates.
    let gains = per_policy
        .into_iter()
        .map(|(kind, totals)| {
            let g: Vec<f64> = totals
                .iter()
                .zip(&baseline_rates)
                .map(|(&iac, &base)| if base > 0.0 { iac / base } else { 0.0 })
                .collect();
            (kind, g)
        })
        .collect();
    Fig15Report { direction, gains }
}

impl std::fmt::Display for Fig15Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, paper) = match self.direction {
            Direction::Uplink => (
                "Fig. 15a — whole-testbed uplink per-client gain CDFs",
                "(paper: brute 2.32x, fifo 1.9x, best-of-two 2.08x)",
            ),
            Direction::Downlink => (
                "Fig. 15b — whole-testbed downlink per-client gain CDFs",
                "(paper: brute 1.58x, fifo 1.23x, best-of-two 1.52x)",
            ),
        };
        let series: Vec<(&str, &[f64])> = self
            .gains
            .iter()
            .map(|(k, g)| (k.name(), g.as_slice()))
            .collect();
        writeln!(f, "{}", render_cdfs(&series, 60, name))?;
        for kind in PolicyKind::ALL {
            writeln!(
                f,
                "  {:<13} avg gain {:.2}x   min {:.2}x   clients below 1x: {:.0}%",
                kind.name(),
                self.average_gain(kind),
                self.min_gain(kind),
                self.losers_fraction(kind) * 100.0
            )?;
        }
        writeln!(f, "{paper}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_policies_beat_baseline_on_average() {
        let report = run(&Fig15Config::quick(40), Direction::Uplink);
        for kind in PolicyKind::ALL {
            let g = report.average_gain(kind);
            assert!(g > 1.2, "{} gain {g} too small", kind.name());
            assert!(g < 4.0, "{} gain {g} implausible", kind.name());
        }
    }

    #[test]
    fn brute_force_at_least_matches_fifo_throughput() {
        let report = run(&Fig15Config::quick(41), Direction::Uplink);
        let brute = report.average_gain(PolicyKind::BruteForce);
        let fifo = report.average_gain(PolicyKind::Fifo);
        assert!(
            brute > fifo * 0.95,
            "brute {brute} should not trail fifo {fifo} materially"
        );
    }

    #[test]
    fn downlink_gains_lower_than_uplink() {
        let up = run(&Fig15Config::quick(42), Direction::Uplink);
        let down = run(&Fig15Config::quick(42), Direction::Downlink);
        assert!(
            up.average_gain(PolicyKind::BestOfTwo) > down.average_gain(PolicyKind::BestOfTwo),
            "3-packet downlink should gain less than 4-packet uplink"
        );
    }

    #[test]
    fn best_of_two_fairer_than_brute_force() {
        // Use a slightly larger instance so fairness differences surface.
        let mut cfg = Fig15Config::quick(43);
        cfg.base.slots = 150;
        cfg.n_clients = 10;
        let report = run(&cfg, Direction::Uplink);
        let b2_min = report.min_gain(PolicyKind::BestOfTwo);
        let brute_min = report.min_gain(PolicyKind::BruteForce);
        assert!(
            b2_min >= brute_min * 0.9,
            "best-of-two min {b2_min} vs brute min {brute_min}"
        );
    }

    #[test]
    fn report_renders() {
        let report = run(&Fig15Config::quick(44), Direction::Downlink);
        let text = format!("{report}");
        assert!(text.contains("Fig. 15b"));
        assert!(text.contains("best-of-two"));
    }
}
