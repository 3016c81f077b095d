//! Fig. 12 — 2-client / 2-AP uplink scatter.
//!
//! "We randomly pick two clients from the testbed to upload traffic to two
//! APs... In IAC, the two clients simultaneously transmit three packets to
//! both APs, but in one time slot, client 1 uploads a single packet and
//! client 2 uploads two packets, while in the next slot [roles swap]."
//! Paper headline: IAC's transfer rate is on average **1.5×** 802.11-MIMO,
//! with significant variance driven by client-channel similarity.

use crate::experiment::{
    baseline_uplink_slot, iac_uplink3_slot, run_picks, ExperimentConfig, ScatterPoint,
};
use crate::stats::{mean, render_scatter, Summary};

/// The figure's data.
#[derive(Debug, Clone)]
pub struct Fig12Report {
    /// One point per random 2-client/2-AP pick.
    pub(crate) points: Vec<ScatterPoint>,
}

impl Fig12Report {
    /// Average Eq. 10 gain across picks.
    pub(crate) fn average_gain(&self) -> f64 {
        mean(&self.points.iter().map(|p| p.gain()).collect::<Vec<_>>())
    }

    /// Gain spread summary.
    pub(crate) fn gain_summary(&self) -> Summary {
        Summary::of(&self.points.iter().map(|p| p.gain()).collect::<Vec<_>>())
    }
}

/// Run the experiment.
pub fn run(cfg: &ExperimentConfig) -> Fig12Report {
    let points = run_picks(cfg, |tb, rng| {
        let (aps, clients) = tb.pick_roles(2, 2, rng);
        let mut base = 0.0;
        let mut iac = 0.0;
        for _ in 0..cfg.slots {
            let grid = tb.uplink_grid(&clients, &aps, rng);
            let est = grid.estimated(&cfg.est, rng);
            base += baseline_uplink_slot(&grid, &est);
            iac += iac_uplink3_slot(&grid, &est, rng);
        }
        ScatterPoint {
            baseline: base / cfg.slots as f64,
            iac: iac / cfg.slots as f64,
        }
    });
    Fig12Report { points }
}

impl std::fmt::Display for Fig12Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let xy: Vec<(f64, f64)> = self.points.iter().map(|p| (p.baseline, p.iac)).collect();
        writeln!(
            f,
            "{}",
            render_scatter(
                &xy,
                60,
                18,
                "Fig. 12 — 2-client/2-AP uplink: IAC vs 802.11-MIMO rate"
            )
        )?;
        writeln!(f, "gain: {}", self.gain_summary())?;
        writeln!(
            f,
            "average gain {:.2}x   (paper: ~1.5x with wide variance)",
            self.average_gain()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_gain_matches_paper_band() {
        let report = run(&ExperimentConfig {
            picks: 12,
            slots: 40,
            ..ExperimentConfig::quick(12)
        });
        let g = report.average_gain();
        assert!(
            g > 1.2 && g < 1.8,
            "Fig. 12 gain {g} outside the paper band"
        );
    }

    #[test]
    fn baseline_rates_span_paper_x_axis() {
        let report = run(&ExperimentConfig::quick(13));
        for p in &report.points {
            assert!(
                p.baseline > 1.0 && p.baseline < 20.0,
                "baseline {} off-axis",
                p.baseline
            );
        }
    }

    #[test]
    fn variance_exists_like_the_paper_scatter() {
        let report = run(&ExperimentConfig {
            picks: 12,
            slots: 30,
            ..ExperimentConfig::quick(14)
        });
        let s = report.gain_summary();
        assert!(s.max - s.min > 0.05, "suspiciously tight scatter");
    }

    #[test]
    fn report_renders() {
        let report = run(&ExperimentConfig::quick(15));
        let text = format!("{report}");
        assert!(text.contains("Fig. 12"));
        assert!(text.contains("average gain"));
    }
}
