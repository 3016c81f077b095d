//! §6c — the per-subcarrier alignment conjecture on frequency-selective
//! channels.
//!
//! "We conjecture that even if the channel is not quite flat, one can still
//! do the alignment separately in each OFDM subcarrier... We cannot check
//! this conjecture on USRP1." The simulator can: draw multi-tap channels of
//! growing delay spread, solve the Eq. 2 alignment either once (flat
//! assumption) or per subcarrier, and measure the worst-bin misalignment.

use iac_linalg::{CVec, Rng64};
use iac_phy::ofdm::MultitapChannel;

/// One delay-spread sweep point.
#[derive(Debug, Clone)]
pub(crate) struct OfdmPoint {
    /// Worst-bin misalignment using a single flat-channel alignment
    /// (`1 − |⟨a,b⟩|/(‖a‖‖b‖)`, 0 = aligned).
    pub flat_worst: f64,
    /// Worst-bin misalignment using per-subcarrier alignment.
    pub per_bin_worst: f64,
}

/// The sweep report.
#[derive(Debug, Clone)]
pub(crate) struct OfdmReport {
    /// Sweep points for 1, 2, … channel taps (1 = flat).
    pub points: Vec<OfdmPoint>,
}

/// Run the sweep: two clients, one AP (the aligning receiver of Eq. 2),
/// channels with 1..=`max_taps` taps, averaged over `trials` draws.
pub(crate) fn run(n_subcarriers: usize, max_taps: usize, trials: usize, seed: u64) -> OfdmReport {
    let mut rng = Rng64::new(seed);
    let mut points = Vec::new();
    for taps in 1..=max_taps {
        let mut flat_worst_acc = 0.0;
        let mut per_bin_worst_acc = 0.0;
        for _ in 0..trials {
            let h1 = MultitapChannel::random(2, 2, taps, 0.4, &mut rng);
            let h2 = MultitapChannel::random(2, 2, taps, 0.4, &mut rng);
            let bins1 = h1.per_subcarrier(n_subcarriers);
            let bins2 = h2.per_subcarrier(n_subcarriers);
            let v1 = CVec::random_unit(2, &mut rng);

            // Flat assumption: solve Eq. 2 once, on the bin-0 channel, and
            // apply the same v2 to every bin.
            let v2_flat = bins2[0]
                .inverse()
                .and_then(|inv| inv.mul_mat(&bins1[0]).mul_vec(&v1).normalize());
            // Per-bin alignment: solve Eq. 2 independently in each bin.
            let mut flat_worst: f64 = 0.0;
            let mut per_bin_worst: f64 = 0.0;
            for bin in 0..n_subcarriers {
                let target = bins1[bin].mul_vec(&v1);
                if let Ok(ref v2f) = v2_flat {
                    let img = bins2[bin].mul_vec(v2f);
                    flat_worst = flat_worst.max(1.0 - target.alignment_with(&img));
                }
                if let Ok(v2b) = bins2[bin]
                    .inverse()
                    .and_then(|inv| inv.mul_mat(&bins1[bin]).mul_vec(&v1).normalize())
                {
                    let img = bins2[bin].mul_vec(&v2b);
                    per_bin_worst = per_bin_worst.max(1.0 - target.alignment_with(&img));
                }
            }
            flat_worst_acc += flat_worst;
            per_bin_worst_acc += per_bin_worst;
        }
        points.push(OfdmPoint {
            flat_worst: flat_worst_acc / trials as f64,
            per_bin_worst: per_bin_worst_acc / trials as f64,
        });
    }
    OfdmReport { points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_bin_alignment_is_always_exact() {
        let report = run(16, 5, 10, 80);
        for (i, p) in report.points.iter().enumerate() {
            assert!(
                p.per_bin_worst < 1e-9,
                "taps {}: per-bin misalignment {}",
                i + 1,
                p.per_bin_worst
            );
        }
    }

    #[test]
    fn flat_assumption_degrades_with_delay_spread() {
        let report = run(16, 5, 20, 81);
        // Single tap: flat IS exact.
        assert!(report.points[0].flat_worst < 1e-9);
        // Growing delay spread: growing misalignment.
        assert!(
            report.points[4].flat_worst > report.points[1].flat_worst,
            "no degradation trend: {:?}",
            report
                .points
                .iter()
                .map(|p| p.flat_worst)
                .collect::<Vec<_>>()
        );
        assert!(
            report.points[4].flat_worst > 0.05,
            "selective channel too kind"
        );
    }
}
