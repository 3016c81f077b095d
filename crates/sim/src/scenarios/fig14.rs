//! Fig. 14 — single client, two APs: IAC's diversity gain.
//!
//! "IAC is beneficial even when the network has only one active client...
//! Diversity is particularly beneficial at low rates, where the rate could
//! double with IAC." The leader compares delivering both packets from either
//! AP against one packet from each, and picks by predicted capacity (§10.2).

use crate::experiment::{ExperimentConfig, ScatterPoint, NOISE, PER_NODE_POWER};
use crate::stats::{mean, render_scatter, Summary};
use crate::testbed::Testbed;
use iac_core::baseline::best_ap_rate;
use iac_core::diversity::{best_downlink_option, DiversityOption};
use iac_linalg::{CMat, Rng64};

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig14Report {
    /// One point per random 1-client/2-AP pick.
    pub(crate) points: Vec<ScatterPoint>,
    /// How often the one-from-each-AP option won.
    pub(crate) split_fraction: f64,
}

impl Fig14Report {
    /// Average Eq. 10 gain.
    pub(crate) fn average_gain(&self) -> f64 {
        mean(&self.points.iter().map(|p| p.gain()).collect::<Vec<_>>())
    }

    /// Gain spread.
    pub(crate) fn gain_summary(&self) -> Summary {
        Summary::of(&self.points.iter().map(|p| p.gain()).collect::<Vec<_>>())
    }

    /// Gains split at the median baseline rate (the paper: diversity helps
    /// most at low SNR).
    pub(crate) fn gain_by_rate_half(&self) -> (f64, f64) {
        let mut sorted = self.points.clone();
        sorted.sort_by(|a, b| a.baseline.partial_cmp(&b.baseline).unwrap());
        let mid = sorted.len() / 2;
        (
            mean(&sorted[..mid].iter().map(|p| p.gain()).collect::<Vec<_>>()),
            mean(&sorted[mid..].iter().map(|p| p.gain()).collect::<Vec<_>>()),
        )
    }
}

/// Run the experiment.
pub fn run(cfg: &ExperimentConfig) -> Fig14Report {
    let mut rng = Rng64::new(cfg.seed);
    let testbed = Testbed::paper_default(&mut rng);
    let mut points = Vec::with_capacity(cfg.picks);
    let mut split_wins = 0usize;
    let mut options = 0usize;
    for _ in 0..cfg.picks {
        let (aps, clients) = testbed.pick_roles(2, 1, &mut rng);
        let client = clients[0];
        let mut base = 0.0;
        let mut iac = 0.0;
        for _ in 0..cfg.slots {
            let grid = testbed.downlink_grid(&aps, &[client], &mut rng);
            let est = grid.estimated(&cfg.est, &mut rng);
            let links_true: [CMat; 2] = [grid.link(0, 0).clone(), grid.link(1, 0).clone()];
            let links_est: [CMat; 2] = [est.link(0, 0).clone(), est.link(1, 0).clone()];
            // A degenerate link scores 0.0.
            base += best_ap_rate(
                links_true.as_ref(),
                links_est.as_ref(),
                PER_NODE_POWER,
                NOISE,
            )
            .map_or(0.0, |(_, rate, _)| rate);
            match best_downlink_option(&links_true, &links_est, PER_NODE_POWER, NOISE) {
                Ok(out) => {
                    iac += out.rate;
                    options += 1;
                    if out.option == DiversityOption::OneFromEach {
                        split_wins += 1;
                    }
                }
                Err(_) => { /* degenerate draw: leader falls back (rate 0) */ }
            }
        }
        points.push(ScatterPoint {
            baseline: base / cfg.slots as f64,
            iac: iac / cfg.slots as f64,
        });
    }
    Fig14Report {
        points,
        split_fraction: if options == 0 {
            0.0
        } else {
            split_wins as f64 / options as f64
        },
    }
}

impl std::fmt::Display for Fig14Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let xy: Vec<(f64, f64)> = self.points.iter().map(|p| (p.baseline, p.iac)).collect();
        writeln!(
            f,
            "{}",
            render_scatter(&xy, 60, 18, "Fig. 14 — 1 client / 2 APs: diversity gain")
        )?;
        writeln!(f, "gain: {}", self.gain_summary())?;
        let (lo, hi) = self.gain_by_rate_half();
        writeln!(
            f,
            "low-rate half gain {lo:.2}x vs high-rate half {hi:.2}x (paper: diversity strongest at low SNR)"
        )?;
        writeln!(
            f,
            "one-packet-from-each-AP chosen {:.0}% of slots",
            self.split_fraction * 100.0
        )?;
        writeln!(
            f,
            "average gain {:.2}x   (paper: ~1.2x, never below 1)",
            self.average_gain()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_in_paper_band() {
        let report = run(&ExperimentConfig {
            picks: 15,
            slots: 40,
            ..ExperimentConfig::quick(30)
        });
        let g = report.average_gain();
        assert!(g > 1.02 && g < 1.6, "Fig. 14 gain {g} outside band");
    }

    #[test]
    fn no_client_loses() {
        // "IAC is fair in the sense that every client benefits": with the
        // same estimates, the option search includes the baseline's choice,
        // so per-pick averages stay ≥ baseline (up to estimation noise).
        let report = run(&ExperimentConfig {
            picks: 15,
            slots: 40,
            ..ExperimentConfig::quick(31)
        });
        for p in &report.points {
            assert!(p.gain() > 0.97, "a client lost rate: gain {}", p.gain());
        }
    }

    #[test]
    fn diversity_strongest_at_low_rates() {
        let report = run(&ExperimentConfig {
            picks: 20,
            slots: 40,
            ..ExperimentConfig::quick(32)
        });
        let (lo, hi) = report.gain_by_rate_half();
        assert!(
            lo >= hi - 0.05,
            "low-SNR gain {lo} should not trail high-SNR gain {hi}"
        );
    }

    #[test]
    fn split_option_used() {
        let report = run(&ExperimentConfig {
            picks: 10,
            slots: 30,
            ..ExperimentConfig::quick(33)
        });
        assert!(
            report.split_fraction > 0.02,
            "split option never chosen ({})",
            report.split_fraction
        );
    }

    #[test]
    fn report_renders() {
        let report = run(&ExperimentConfig::quick(34));
        assert!(format!("{report}").contains("Fig. 14"));
    }
}
