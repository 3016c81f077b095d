//! Channel estimation.
//!
//! IAC needs channel knowledge at the leader AP to compute encoding and
//! decoding vectors (§8). The paper estimates uplink channels from client
//! acks and association frames — standard MIMO training — and tracks them
//! over time. Two layers are provided here:
//!
//! * [`ls_estimate`] — the actual least-squares estimator used by the
//!   sample-level PHY: given known training symbols sent per antenna and the
//!   received snapshots, recover `Ĥ`.
//! * [`estimate_with_error`] — the closed-form error model used by the
//!   (much faster) matrix-level experiments: `Ĥ = H + E` with
//!   `E ~ CN(0, σ²/L)` per entry, the exact error statistics LS estimation
//!   yields from `L` training snapshots at a given estimation SNR.

use iac_linalg::{CMat, Qr, Result, Rng64};

/// Configuration of the estimation-error model.
#[derive(Debug, Clone, Copy)]
pub struct EstimationConfig {
    /// SNR of the training signal at the estimating receiver, in dB.
    pub estimation_snr_db: f64,
    /// Number of training snapshots per transmit antenna (the paper uses a
    /// 32-bit preamble).
    pub training_len: usize,
}

impl EstimationConfig {
    /// Paper-like defaults: 25 dB estimation SNR over a 32-sample preamble.
    pub fn paper_default() -> Self {
        Self {
            estimation_snr_db: 25.0,
            training_len: 32,
        }
    }

    /// Perfect channel state information (for ablations).
    pub fn perfect() -> Self {
        Self {
            estimation_snr_db: f64::INFINITY,
            training_len: 1,
        }
    }

    /// Per-entry error variance of the resulting estimate, relative to unit
    /// channel-entry power.
    pub(crate) fn error_variance(&self) -> f64 {
        if self.estimation_snr_db.is_infinite() {
            return 0.0;
        }
        crate::pathloss::db_to_linear(-self.estimation_snr_db) / self.training_len as f64
    }
}

/// An impairment of the CSI feedback loop (§8 caveats, and the aging
/// regime of El Ayach et al.): the leader's channel knowledge is late,
/// coarse, and decorrelating.
///
/// [`CsiImpairment::degrade`] folds all three effects into an *effective*
/// [`EstimationConfig`] by inflating the per-entry error variance — the
/// matrix-level experiments then draw estimation error from the inflated
/// model and every downstream consumer (alignment, zero-forcing, SINR)
/// sees impaired CSI without code changes:
///
/// * **Quantization** — a `B`-bit scalar quantizer per real dimension adds
///   error power `2^(−2B)` relative to entry power.
/// * **Aging** — Clarke-model decorrelation: after `delay_slots` slots of
///   feedback delay at normalized Doppler `doppler` (`f_d·T_slot`), the
///   correlation is `ρ = J₀(2π·f_d·T_slot·delay)`, leaving innovation
///   power `1 − ρ²` (approximated by its small-argument expansion, which
///   is monotone and saturates at 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CsiImpairment {
    /// Slots between channel measurement and use (feedback + scheduling
    /// delay). 0 = fresh CSI.
    pub feedback_delay_slots: u16,
    /// Bits per real dimension of the quantized feedback. `None` =
    /// unquantized (analog or high-rate feedback).
    pub quant_bits: Option<u8>,
    /// Normalized Doppler `f_d·T_slot` — channel decorrelation per slot.
    pub doppler: f64,
}

impl CsiImpairment {
    /// No impairment: `degrade` returns the config unchanged.
    #[cfg(test)]
    pub(crate) fn none() -> Self {
        Self {
            feedback_delay_slots: 0,
            quant_bits: None,
            doppler: 0.0,
        }
    }

    /// Extra per-entry error variance this impairment adds (relative to
    /// unit channel-entry power).
    pub(crate) fn extra_error_variance(&self) -> f64 {
        let quant = match self.quant_bits {
            Some(b) => (2.0f64).powi(-2 * i32::from(b)),
            None => 0.0,
        };
        // 1 − J₀(x)² ≈ x²/2 for small x, clamped at full decorrelation.
        let x = std::f64::consts::TAU * self.doppler * f64::from(self.feedback_delay_slots);
        let aging = (x * x / 2.0).min(1.0);
        quant + aging
    }

    /// The effective estimation model under this impairment: the base
    /// config's error variance plus quantization and aging terms, expressed
    /// as an equivalent (lower) estimation SNR over one snapshot.
    pub fn degrade(&self, base: &EstimationConfig) -> EstimationConfig {
        let extra = self.extra_error_variance();
        if extra == 0.0 {
            return *base;
        }
        let var = base.error_variance() + extra;
        EstimationConfig {
            estimation_snr_db: -10.0 * var.log10(),
            training_len: 1,
        }
    }
}

/// Apply the estimation-error model: `Ĥ = H + E`, `E ~ CN(0, σ²·p̄)` i.i.d.
/// per entry, where `p̄` is the average entry power of `H` (so error scales
/// with the link gain, as it does physically).
pub fn estimate_with_error(h: &CMat, config: &EstimationConfig, rng: &mut Rng64) -> CMat {
    let var = config.error_variance();
    if var == 0.0 {
        return h.clone();
    }
    let entries = (h.rows() * h.cols()) as f64;
    let avg_power = h.frobenius_norm().powi(2) / entries;
    CMat::from_fn(h.rows(), h.cols(), |r, c| {
        h[(r, c)] + rng.cn(var * avg_power)
    })
}

/// Least-squares channel estimation from training.
///
/// `sent` is `t×L` (each row: the training stream of one transmit antenna),
/// `received` is `r×L` (each row: one receive antenna's snapshots). Solves
/// `received ≈ H·sent` for the `r×t` channel in the least-squares sense.
/// Requires `L ≥ t` and linearly independent training rows (orthogonal
/// per-antenna preambles, as standard MIMO training uses).
///
/// No production caller: public for `crates/channel/tests/properties.rs`.
pub fn ls_estimate(sent: &CMat, received: &CMat) -> Result<CMat> {
    // H = Y Xᴴ (X Xᴴ)⁻¹, computed stably via QR on Xᴴ:
    // Hᴴ = lstsq(Xᴴ, Yᴴ) column by column.
    let xh = sent.hermitian(); // L×t
    let qr = Qr::compute(&xh)?;
    let yh = received.hermitian(); // L×r
    let mut h_herm = CMat::zeros(sent.rows(), received.rows()); // t×r
    for c in 0..yh.cols() {
        let col = qr.solve_least_squares(&yh.col(c))?;
        h_herm.set_col(c, &col);
    }
    Ok(h_herm.hermitian())
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::{Rng64, C64};

    #[test]
    fn perfect_config_is_exact() {
        let mut rng = Rng64::new(1);
        let h = CMat::random(2, 2, &mut rng);
        let est = estimate_with_error(&h, &EstimationConfig::perfect(), &mut rng);
        assert_eq!(est, h);
    }

    #[test]
    fn error_variance_scales_with_snr_and_length() {
        let base = EstimationConfig {
            estimation_snr_db: 20.0,
            training_len: 32,
        };
        let better_snr = EstimationConfig {
            estimation_snr_db: 30.0,
            ..base
        };
        let longer = EstimationConfig {
            training_len: 64,
            ..base
        };
        assert!(better_snr.error_variance() < base.error_variance());
        assert!((longer.error_variance() - base.error_variance() / 2.0).abs() < 1e-15);
    }

    #[test]
    fn empirical_error_matches_model() {
        let config = EstimationConfig {
            estimation_snr_db: 20.0,
            training_len: 16,
        };
        let mut rng = Rng64::new(2);
        let trials = 20_000;
        let mut err_power = 0.0;
        for _ in 0..trials {
            let h = CMat::random(2, 2, &mut rng);
            let est = estimate_with_error(&h, &config, &mut rng);
            err_power += (&est - &h).frobenius_norm().powi(2) / 4.0;
        }
        let measured = err_power / trials as f64;
        let expected = config.error_variance(); // unit-power entries
        assert!(
            (measured / expected - 1.0).abs() < 0.1,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn ls_estimation_noiseless_is_exact() {
        let mut rng = Rng64::new(3);
        let h = CMat::random(2, 2, &mut rng);
        // Orthogonal training: antenna 0 sends [1,0,1,0...], antenna 1 sends
        // [0,1,0,1...] — the "standard MIMO channel estimation" of §8a.
        let l = 8;
        let sent = CMat::from_fn(
            2,
            l,
            |r, c| {
                if c % 2 == r {
                    C64::one()
                } else {
                    C64::zero()
                }
            },
        );
        let received = h.mul_mat(&sent);
        let est = ls_estimate(&sent, &received).unwrap();
        assert!((&est - &h).frobenius_norm() < 1e-9);
    }

    #[test]
    fn ls_estimation_error_shrinks_with_training_length() {
        let mut rng = Rng64::new(4);
        let h = CMat::random(2, 2, &mut rng);
        let noise_power = 0.01;
        let mut errs = Vec::new();
        for &l in &[8usize, 128] {
            let sent = CMat::from_fn(
                2,
                l,
                |r, c| {
                    if c % 2 == r {
                        C64::one()
                    } else {
                        C64::zero()
                    }
                },
            );
            let mut received = h.mul_mat(&sent);
            // Average over repeated noisy estimates.
            let trials = 200;
            let mut err = 0.0;
            for _ in 0..trials {
                let noisy = CMat::from_fn(received.rows(), received.cols(), |r, c| {
                    received[(r, c)] + rng.cn(noise_power)
                });
                let est = ls_estimate(&sent, &noisy).unwrap();
                err += (&est - &h).frobenius_norm().powi(2);
            }
            errs.push(err / trials as f64);
            received = h.mul_mat(&sent); // keep borrowck simple
            let _ = received;
        }
        // 16× more training → ~16× lower error power.
        assert!(
            errs[1] < errs[0] / 8.0,
            "short {} vs long {}",
            errs[0],
            errs[1]
        );
    }

    #[test]
    fn ls_estimation_mimo_simultaneous_training() {
        // Training can also be full-rank random (both antennas active):
        // the LS solve still separates the columns.
        let mut rng = Rng64::new(5);
        let h = CMat::random(3, 3, &mut rng);
        let sent = CMat::random(3, 24, &mut rng);
        let received = h.mul_mat(&sent);
        let est = ls_estimate(&sent, &received).unwrap();
        assert!((&est - &h).frobenius_norm() < 1e-8);
    }

    #[test]
    fn ls_underdetermined_fails() {
        // 2 TX antennas but a single snapshot: cannot separate them.
        let sent = CMat::zeros(2, 1);
        let received = CMat::zeros(2, 1);
        assert!(ls_estimate(&sent, &received).is_err());
    }

    #[test]
    fn no_impairment_is_identity() {
        let base = EstimationConfig::paper_default();
        let out = CsiImpairment::none().degrade(&base);
        assert_eq!(out.error_variance(), base.error_variance());
        let perfect = CsiImpairment::none().degrade(&EstimationConfig::perfect());
        assert_eq!(perfect.error_variance(), 0.0);
    }

    #[test]
    fn impairment_terms_escalate_monotonically() {
        let base = EstimationConfig::paper_default();
        // Coarser quantization → more error.
        let coarse = CsiImpairment {
            quant_bits: Some(2),
            ..CsiImpairment::none()
        };
        let fine = CsiImpairment {
            quant_bits: Some(6),
            ..CsiImpairment::none()
        };
        assert!(coarse.degrade(&base).error_variance() > fine.degrade(&base).error_variance());
        // Quantization error power is 2^(−2B).
        assert!((fine.extra_error_variance() - (2.0f64).powi(-12)).abs() < 1e-15);
        // Older CSI at a fixed Doppler → more error, saturating at full
        // decorrelation.
        let mut last = 0.0;
        for delay in [0u16, 4, 16, 64] {
            let imp = CsiImpairment {
                feedback_delay_slots: delay,
                doppler: 0.01,
                quant_bits: None,
            };
            let v = imp.extra_error_variance();
            assert!(v >= last, "aging error not monotone at delay {delay}");
            assert!(v <= 1.0);
            last = v;
        }
        assert!(
            last > 0.5,
            "64-slot-old CSI at fd·T=0.01 should be mostly noise"
        );
    }

    #[test]
    fn degraded_config_feeds_the_error_model() {
        // The degraded config plugs straight into estimate_with_error and
        // yields the inflated error power empirically.
        let base = EstimationConfig::perfect();
        let imp = CsiImpairment {
            feedback_delay_slots: 8,
            quant_bits: Some(4),
            doppler: 0.005,
        };
        let cfg = imp.degrade(&base);
        let expected = imp.extra_error_variance();
        assert!((cfg.error_variance() / expected - 1.0).abs() < 1e-12);
        let mut rng = Rng64::new(6);
        let trials = 20_000;
        let mut err_power = 0.0;
        for _ in 0..trials {
            let h = CMat::random(2, 2, &mut rng);
            let est = estimate_with_error(&h, &cfg, &mut rng);
            err_power += (&est - &h).frobenius_norm().powi(2) / 4.0;
        }
        let measured = err_power / trials as f64;
        assert!(
            (measured / expected - 1.0).abs() < 0.1,
            "measured {measured}, expected {expected}"
        );
    }
}
