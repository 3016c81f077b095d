//! Fig. 13 — 3-client / 3-AP uplink (a) and downlink (b) scatters.
//!
//! Uplink: four concurrent packets (one client uploads two, round-robin);
//! paper headline **1.8×**. Downlink: three concurrent packets, one per
//! client; paper headline **1.4×**. Gains hold "at both low and high rates".

use crate::experiment::{
    baseline_slot, draw_slot, iac_downlink3_slot, iac_uplink4_slot, run_picks, ExperimentConfig,
    ScatterPoint,
};
use crate::stats::{mean, render_scatter, Summary};
use iac_core::grid::Direction;

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig13Report {
    /// Direction this report covers (uplink is Fig. 13a, downlink 13b).
    pub(crate) direction: Direction,
    /// One point per random 3-client/3-AP pick.
    pub(crate) points: Vec<ScatterPoint>,
}

impl Fig13Report {
    /// Average Eq. 10 gain.
    pub(crate) fn average_gain(&self) -> f64 {
        mean(&self.points.iter().map(|p| p.gain()).collect::<Vec<_>>())
    }

    /// Gain spread.
    pub(crate) fn gain_summary(&self) -> Summary {
        Summary::of(&self.points.iter().map(|p| p.gain()).collect::<Vec<_>>())
    }

    /// Check the "gains at both low and high rates" property: split picks at
    /// the median baseline rate and return (low-half gain, high-half gain).
    pub(crate) fn gain_by_rate_half(&self) -> (f64, f64) {
        let mut sorted = self.points.clone();
        sorted.sort_by(|a, b| a.baseline.partial_cmp(&b.baseline).unwrap());
        let mid = sorted.len() / 2;
        let low: Vec<f64> = sorted[..mid].iter().map(|p| p.gain()).collect();
        let high: Vec<f64> = sorted[mid..].iter().map(|p| p.gain()).collect();
        (mean(&low), mean(&high))
    }
}

/// Run one direction of the experiment.
pub fn run(cfg: &ExperimentConfig, direction: Direction) -> Fig13Report {
    let points = run_picks(cfg, |tb, rng| {
        let (aps, clients) = tb.pick_roles(3, 3, rng);
        let mut base = 0.0;
        let mut iac = 0.0;
        for slot in 0..cfg.slots {
            let (grid, est) = draw_slot(tb, direction, &clients, &aps, &cfg.est, rng);
            base += baseline_slot(&grid, &est);
            iac += match direction {
                Direction::Uplink => iac_uplink4_slot(&grid, &est, slot % 3),
                Direction::Downlink => iac_downlink3_slot(&grid, &est),
            };
        }
        ScatterPoint {
            baseline: base / cfg.slots as f64,
            iac: iac / cfg.slots as f64,
        }
    });
    Fig13Report { direction, points }
}

impl std::fmt::Display for Fig13Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (name, paper) = match self.direction {
            Direction::Uplink => ("Fig. 13a — 3-client/3-AP uplink (4 packets)", 1.8),
            Direction::Downlink => ("Fig. 13b — 3-client/3-AP downlink (3 packets)", 1.4),
        };
        let xy: Vec<(f64, f64)> = self.points.iter().map(|p| (p.baseline, p.iac)).collect();
        writeln!(f, "{}", render_scatter(&xy, 60, 18, name))?;
        writeln!(f, "gain: {}", self.gain_summary())?;
        let (lo, hi) = self.gain_by_rate_half();
        writeln!(f, "gain on low-rate half {lo:.2}x, high-rate half {hi:.2}x")?;
        writeln!(
            f,
            "average gain {:.2}x   (paper: ~{paper}x)",
            self.average_gain()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_gain_in_band() {
        let report = run(
            &ExperimentConfig {
                picks: 10,
                slots: 30,
                ..ExperimentConfig::quick(20)
            },
            Direction::Uplink,
        );
        let g = report.average_gain();
        assert!(g > 1.4 && g < 2.3, "Fig. 13a gain {g} outside band");
    }

    #[test]
    fn downlink_gain_in_band() {
        let report = run(
            &ExperimentConfig {
                picks: 10,
                slots: 30,
                ..ExperimentConfig::quick(21)
            },
            Direction::Downlink,
        );
        let g = report.average_gain();
        assert!(g > 1.1 && g < 1.8, "Fig. 13b gain {g} outside band");
    }

    #[test]
    fn uplink_beats_downlink_gain() {
        // The paper's ordering: 4 packets on the uplink vs 3 on the downlink.
        let cfg = ExperimentConfig {
            picks: 10,
            slots: 25,
            ..ExperimentConfig::quick(22)
        };
        let up = run(&cfg, Direction::Uplink).average_gain();
        let down = run(&cfg, Direction::Downlink).average_gain();
        assert!(up > down, "uplink {up} should exceed downlink {down}");
    }

    #[test]
    fn gains_hold_at_low_and_high_rates() {
        let report = run(
            &ExperimentConfig {
                picks: 14,
                slots: 25,
                ..ExperimentConfig::quick(23)
            },
            Direction::Uplink,
        );
        let (lo, hi) = report.gain_by_rate_half();
        assert!(lo > 1.1, "low-rate gain {lo}");
        assert!(hi > 1.1, "high-rate gain {hi}");
    }

    #[test]
    fn report_renders() {
        let report = run(&ExperimentConfig::quick(24), Direction::Downlink);
        assert!(format!("{report}").contains("Fig. 13b"));
    }
}
