//! Ablations of the design choices DESIGN.md calls out.
//!
//! * **Alignment on/off** — the Fig. 4a vs 4b contrast: without alignment,
//!   three packets jam two-antenna APs.
//! * **Estimation quality** — how the Fig. 12 gain erodes as channel
//!   estimates degrade (§8a's "as long as most interference is eliminated,
//!   the loss in throughput stays negligible").
//! * **Client-channel similarity** — the §10.1 variance explanation: similar
//!   client channels squeeze the alignment and shrink the gain.

use crate::experiment::{baseline_slot, draw_slot, iac_uplink3_slot, ExperimentConfig};
use crate::testbed::Testbed;
use iac_channel::estimation::EstimationConfig;
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::{closed_form, optimize};
use iac_linalg::{CMat, CVec, Rng64};

/// Gain as a function of estimation SNR.
#[derive(Debug, Clone)]
pub(crate) struct EstimationSweep {
    /// `(estimation SNR dB, average Fig.12-style gain)`.
    pub points: Vec<(f64, f64)>,
}

/// Sweep estimation quality.
pub(crate) fn estimation_sweep(seed: u64, slots: usize) -> EstimationSweep {
    let snrs = [f64::INFINITY, 30.0, 20.0, 10.0, 5.0];
    let mut points = Vec::new();
    for &snr in &snrs {
        let cfg = ExperimentConfig {
            est: if snr.is_infinite() {
                EstimationConfig::perfect()
            } else {
                EstimationConfig {
                    estimation_snr_db: snr,
                    training_len: 32,
                }
            },
            slots,
            ..ExperimentConfig::quick(seed)
        };
        let mut rng = Rng64::new(cfg.seed);
        let tb = Testbed::paper_default(&mut rng);
        let mut base = 0.0;
        let mut iac = 0.0;
        for _ in 0..cfg.slots {
            let (aps, clients) = tb.pick_roles(2, 2, &mut rng);
            let (g, e) = draw_slot(&tb, Direction::Uplink, &clients, &aps, &cfg.est, &mut rng);
            base += baseline_slot(&g, &e);
            iac += iac_uplink3_slot(&g, &e, &mut rng);
        }
        points.push((snr, iac / base));
    }
    EstimationSweep { points }
}

/// Gain as a function of client-channel similarity (the §10.1 explanation of
/// the Fig. 12 variance).
#[derive(Debug, Clone)]
pub(crate) struct SimilaritySweep {
    /// `(similarity λ ∈ [0,1], average gain)`; at λ=1 the clients share one
    /// channel and alignment becomes impossible.
    pub points: Vec<(f64, f64)>,
}

/// Sweep similarity: client 2's channels are `λ·H(client1) + √(1−λ²)·W`.
pub(crate) fn similarity_sweep(seed: u64, slots: usize) -> SimilaritySweep {
    let lambdas = [0.0, 0.5, 0.8, 0.95, 0.995];
    let cfg = ExperimentConfig::quick(seed);
    let mut points = Vec::new();
    for &lambda in &lambdas {
        let mut rng = Rng64::new(seed ^ (lambda * 1e6) as u64);
        let mut base = 0.0;
        let mut iac = 0.0;
        for _ in 0..slots {
            let h1: Vec<CMat> = (0..2)
                .map(|_| CMat::random(2, 2, &mut rng).scale(4.0))
                .collect();
            let h2: Vec<CMat> = h1
                .iter()
                .map(|h| {
                    let w = CMat::random(2, 2, &mut rng).scale(4.0);
                    &h.scale(lambda) + &w.scale((1.0 - lambda * lambda).sqrt())
                })
                .collect();
            let grid = ChannelGrid::new(Direction::Uplink, vec![h1.clone(), h2.clone()]);
            let est = grid.estimated(&cfg.est, &mut rng);
            base += baseline_slot(&grid, &est);
            iac += iac_uplink3_slot(&grid, &est, &mut rng);
        }
        points.push((lambda, iac / base));
    }
    SimilaritySweep { points }
}

/// The alignment on/off contrast (Fig. 4a vs 4b), as average packet-0 SINR.
#[derive(Debug, Clone)]
pub(crate) struct AlignmentAblation {
    /// Average p0 SINR with IAC's aligned encoding.
    pub aligned_sinr: f64,
    /// Average p0 SINR with random (unaligned) encoding.
    pub random_sinr: f64,
}

/// Run the contrast.
pub(crate) fn alignment_ablation(seed: u64, trials: usize) -> AlignmentAblation {
    let mut rng = Rng64::new(seed);
    let mut aligned = 0.0;
    let mut random = 0.0;
    for _ in 0..trials {
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        let cfg = optimize::uplink3_optimized(&grid, 1.0, 0.05, 4, &mut rng)
            .map(|o| o.config)
            .or_else(|_| closed_form::uplink3(&grid, &mut rng))
            .expect("alignment");
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        let run = |encoding: &[CVec]| -> f64 {
            IacDecoder {
                true_grid: &grid,
                est_grid: &grid,
                schedule: &cfg.schedule,
                encoding,
                packet_power: powers.clone(),
                noise_power: 0.05,
            }
            .decode()
            .ok()
            .and_then(|o| o.sinr_of(0))
            .unwrap_or(0.0)
        };
        aligned += run(&cfg.encoding);
        let random_encoding: Vec<CVec> = (0..3).map(|_| CVec::random_unit(2, &mut rng)).collect();
        random += run(&random_encoding);
    }
    AlignmentAblation {
        aligned_sinr: aligned / trials as f64,
        random_sinr: random / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_degrades_gracefully_with_estimation_noise() {
        let sweep = estimation_sweep(100, 20);
        let perfect = sweep.points[0].1;
        let worst = sweep.points.last().unwrap().1;
        assert!(perfect > worst, "no degradation: {perfect} vs {worst}");
        // §8a: degradation is graceful, not a collapse.
        assert!(worst > perfect * 0.5, "collapse: {worst} vs {perfect}");
    }

    #[test]
    fn similar_channels_shrink_the_gain() {
        let sweep = similarity_sweep(101, 25);
        let independent = sweep.points[0].1;
        let nearly_identical = sweep.points.last().unwrap().1;
        assert!(
            nearly_identical < independent,
            "similarity did not hurt: {independent} vs {nearly_identical}"
        );
    }

    #[test]
    fn alignment_is_load_bearing() {
        let ab = alignment_ablation(102, 30);
        assert!(
            ab.aligned_sinr > 5.0 * ab.random_sinr,
            "aligned {} vs random {}",
            ab.aligned_sinr,
            ab.random_sinr
        );
    }
}
