//! Fig. 16 — channel reciprocity accuracy.
//!
//! "We take 17 random client-AP pairs from the testbed, and measure their
//! uplink and downlink channels. We compute the calibration matrices
//! according to Eq. 8. For each pair, we then fix the AP and move the
//! client... We repeat the experiment 5 times for each client, where each
//! run is done in a new location." Paper headline: fractional error stays
//! small (≈0.05–0.2), so reciprocity-based estimates are usable by IAC.

use crate::experiment::ExperimentConfig;
use crate::stats::mean;
use crate::testbed::Testbed;
use iac_channel::estimation::estimate_with_error;
use iac_channel::reciprocity::{
    fractional_error, measured_downlink, measured_uplink, random_chain, Calibration,
};
use iac_linalg::{CMat, Rng64};

/// Per-pair average fractional errors.
#[derive(Debug, Clone)]
pub(crate) struct Fig16Report {
    /// One entry per client-AP pair: average fractional error over the
    /// 5 relocations.
    pub errors: Vec<f64>,
}

impl Fig16Report {
    /// Mean error across pairs.
    pub(crate) fn average_error(&self) -> f64 {
        mean(&self.errors)
    }

    /// Worst pair.
    pub(crate) fn worst_error(&self) -> f64 {
        self.errors.iter().cloned().fold(0.0, f64::max)
    }
}

/// Run the experiment: `pairs` client-AP pairs × `moves` relocations.
pub(crate) fn run(cfg: &ExperimentConfig, pairs: usize, moves: usize) -> Fig16Report {
    let mut rng = Rng64::new(cfg.seed);
    let testbed = Testbed::paper_default(&mut rng);
    let mut errors = Vec::with_capacity(pairs);
    for _ in 0..pairs {
        let (aps, clients) = testbed.pick_roles(1, 1, &mut rng);
        let (ap, client) = (aps[0], clients[0]);
        // Hardware chains are per-node and static.
        let ap_tx = random_chain(2, 1.0, &mut rng);
        let ap_rx = random_chain(2, 1.0, &mut rng);
        let cl_tx = random_chain(2, 1.0, &mut rng);
        let cl_rx = random_chain(2, 1.0, &mut rng);
        let amp = testbed.amplitude(client, ap);

        // Calibration at the initial location (measured with estimation
        // noise, like the real system).
        let air: CMat = CMat::random(2, 2, &mut rng).scale(amp);
        let up = measured_uplink(&air, &ap_rx, &cl_tx);
        let down = measured_downlink(&air, &cl_rx, &ap_tx);
        let up_est = estimate_with_error(&up, &cfg.est, &mut rng);
        let down_est = estimate_with_error(&down, &cfg.est, &mut rng);
        let Ok(cal) = Calibration::from_measurement(&up_est, &down_est) else {
            // A degenerate draw (near-zero uplink entry): skip this pair the
            // way a real calibration pass would re-measure.
            continue;
        };

        // Move the client `moves` times; infer downlink from fresh uplink.
        let mut pair_errors = Vec::with_capacity(moves);
        for _ in 0..moves {
            let air_new = CMat::random(2, 2, &mut rng).scale(amp);
            let up_new = measured_uplink(&air_new, &ap_rx, &cl_tx);
            let down_new = measured_downlink(&air_new, &cl_rx, &ap_tx);
            let up_new_est = estimate_with_error(&up_new, &cfg.est, &mut rng);
            let inferred = cal.downlink_from_uplink(&up_new_est);
            pair_errors.push(fractional_error(&down_new, &inferred));
        }
        errors.push(mean(&pair_errors));
    }
    Fig16Report { errors }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_land_in_paper_band() {
        let report = run(&ExperimentConfig::quick(50), 17, 5);
        assert!(report.errors.len() >= 15);
        let avg = report.average_error();
        assert!(
            avg > 0.005 && avg < 0.25,
            "average fractional error {avg} outside the paper band"
        );
        assert!(report.worst_error() < 0.5, "worst {}", report.worst_error());
    }

    #[test]
    fn perfect_estimation_gives_near_zero_error() {
        let cfg = ExperimentConfig {
            est: iac_channel::estimation::EstimationConfig::perfect(),
            ..ExperimentConfig::quick(51)
        };
        let report = run(&cfg, 8, 3);
        assert!(
            report.worst_error() < 1e-9,
            "reciprocity should be exact without estimation noise: {}",
            report.worst_error()
        );
    }
}
