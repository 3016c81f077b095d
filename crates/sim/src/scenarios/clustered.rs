//! Fig. 17 (conclusion) — clustered MIMO ad-hoc networks.
//!
//! "Links within a cluster are strong (i.e., high bitrate) and links across
//! clusters are weak... The throughput of clustered networks is bottlenecked
//! by the low bitrate inter-cluster links. IAC can double the throughput of
//! the inter-cluster bottleneck links." Nodes inside a cluster are wired
//! together in effect (the high-rate intra-cluster links play the Ethernet's
//! role), so two senders in cluster A and two receivers in cluster B form
//! exactly the 2-client/2-AP uplink of Fig. 4b across the bottleneck.

use crate::experiment::{baseline_slot, iac_uplink3_slot, ExperimentConfig};
use iac_core::grid::{ChannelGrid, Direction};
use iac_linalg::Rng64;

/// End-to-end flow throughputs with and without IAC on the bottleneck.
#[derive(Debug, Clone)]
pub struct ClusteredReport {
    /// Intra-cluster link rate (b/s/Hz), the fast segment.
    pub(crate) intra_rate: f64,
    /// Bottleneck rate under point-to-point MIMO.
    pub(crate) bottleneck_mimo: f64,
    /// Bottleneck rate under IAC.
    pub(crate) bottleneck_iac: f64,
}

impl ClusteredReport {
    /// End-to-end flow rate = min(intra, bottleneck) for a two-hop path.
    pub(crate) fn flow_mimo(&self) -> f64 {
        self.intra_rate.min(self.bottleneck_mimo)
    }

    /// Same with IAC on the bottleneck.
    pub(crate) fn flow_iac(&self) -> f64 {
        self.intra_rate.min(self.bottleneck_iac)
    }

    /// End-to-end gain.
    pub(crate) fn gain(&self) -> f64 {
        self.flow_iac() / self.flow_mimo()
    }
}

/// Run the scenario: `slots` channel draws over a weak inter-cluster channel
/// (low SNR) and strong intra-cluster links.
pub fn run(cfg: &ExperimentConfig, inter_cluster_snr_db: f64, intra_rate: f64) -> ClusteredReport {
    let mut rng = Rng64::new(cfg.seed);
    let amp = iac_channel::db_to_linear(inter_cluster_snr_db).sqrt();
    let mut base = 0.0;
    let mut iac = 0.0;
    for _ in 0..cfg.slots {
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng)
            .with_amplitudes(|_, _| amp);
        let est = grid.estimated(&cfg.est, &mut rng);
        base += baseline_slot(&grid, &est);
        iac += iac_uplink3_slot(&grid, &est, &mut rng);
    }
    ClusteredReport {
        intra_rate,
        bottleneck_mimo: base / cfg.slots as f64,
        bottleneck_iac: iac / cfg.slots as f64,
    }
}

impl std::fmt::Display for ClusteredReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 17 — clustered MIMO mesh, inter-cluster bottleneck")?;
        writeln!(
            f,
            "  intra-cluster rate:        {:>6.2} b/s/Hz",
            self.intra_rate
        )?;
        writeln!(
            f,
            "  bottleneck (802.11-MIMO):  {:>6.2} b/s/Hz → flow {:.2}",
            self.bottleneck_mimo,
            self.flow_mimo()
        )?;
        writeln!(
            f,
            "  bottleneck (IAC):          {:>6.2} b/s/Hz → flow {:.2}",
            self.bottleneck_iac,
            self.flow_iac()
        )?;
        writeln!(
            f,
            "  end-to-end gain {:.2}x   (paper: IAC ~doubles the bottleneck)",
            self.gain()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bottleneck_gain_transfers_end_to_end() {
        let cfg = ExperimentConfig {
            slots: 60,
            ..ExperimentConfig::quick(95)
        };
        // Weak 6 dB inter-cluster links, fast 20 b/s/Hz intra links.
        let report = run(&cfg, 6.0, 20.0);
        assert!(
            report.bottleneck_iac > report.bottleneck_mimo * 1.2,
            "no bottleneck gain: {} vs {}",
            report.bottleneck_iac,
            report.bottleneck_mimo
        );
        // With intra ≫ inter, the whole gain reaches the flow.
        assert!((report.gain() - report.bottleneck_iac / report.bottleneck_mimo).abs() < 1e-9);
    }

    #[test]
    fn fast_bottleneck_caps_at_intra_rate() {
        let cfg = ExperimentConfig {
            slots: 30,
            ..ExperimentConfig::quick(96)
        };
        // Inter-cluster almost as fast as intra: flow saturates at intra.
        let report = run(&cfg, 25.0, 10.0);
        assert_eq!(report.flow_iac(), 10.0);
    }

    #[test]
    fn report_renders() {
        let cfg = ExperimentConfig {
            slots: 10,
            ..ExperimentConfig::quick(97)
        };
        assert!(format!("{}", run(&cfg, 6.0, 20.0)).contains("Fig. 17"));
    }
}
