//! The 802.11-MIMO comparison point (paper §10d).
//!
//! The paper compares IAC against a point-to-point MIMO design "based on
//! QUALCOMM's eigenmode enforcing \[2\]" with full channel knowledge at both
//! ends — provably optimal for a point-to-point link \[29\]. That scheme is:
//! transmit along the right singular vectors of the channel, receive along
//! the left singular vectors, and water-fill transmit power over the
//! eigenmodes. With multiple APs available, each 802.11-MIMO client uses the
//! single AP with the best channel (diversity, not multiplexing).

use iac_linalg::{CMat, LinAlgError, Result, Svd};

/// Water-filling power allocation over parallel channels with gains
/// `gains[i] = σᵢ²` (power gain of eigenmode `i`), total power `p_total` and
/// per-mode noise `noise`. Returns per-mode powers summing to `p_total`
/// (modes may get zero).
pub fn waterfill(gains: &[f64], p_total: f64, noise: f64) -> Vec<f64> {
    assert!(p_total >= 0.0 && noise > 0.0, "invalid power/noise");
    let mut active: Vec<usize> = (0..gains.len()).filter(|&i| gains[i] > 0.0).collect();
    // Iteratively drop modes whose water level falls below their floor.
    loop {
        if active.is_empty() {
            return vec![0.0; gains.len()];
        }
        // μ = (P + Σ n/g) / k ; p_i = μ − n/g_i.
        let inv_sum: f64 = active.iter().map(|&i| noise / gains[i]).sum();
        let mu = (p_total + inv_sum) / active.len() as f64;
        if let Some(pos) = active.iter().position(|&i| mu - noise / gains[i] < 0.0) {
            // Drop the weakest offending mode and recompute.
            let worst = active
                .iter()
                .enumerate()
                .min_by(|a, b| gains[*a.1].partial_cmp(&gains[*b.1]).unwrap())
                .map(|(k, _)| k)
                .unwrap_or(pos);
            active.remove(worst);
            continue;
        }
        let mut out = vec![0.0; gains.len()];
        for &i in &active {
            out[i] = mu - noise / gains[i];
        }
        return out;
    }
}

/// Eigenmode transmission over one MIMO link with channel-state mismatch:
/// the precoder/combiner and the power allocation are computed from the
/// *estimated* channel, while the air applies the *true* channel. Returns
/// `(achievable_rate, per_stream_sinrs)`, or [`LinAlgError::Degenerate`]
/// when a stream's SINR is NaN: a true channel with a NaN, ±∞ or
/// overflowing entry makes signal and interference both infinite.
///
/// No production caller: public for `crates/core/tests/optimized_rate.rs`.
pub fn eigenmode_rate(
    h_true: &CMat,
    h_est: &CMat,
    p_total: f64,
    noise: f64,
) -> Result<(f64, Vec<f64>)> {
    eigenmode_rate_from(&Svd::compute(h_est), h_true, p_total, noise)
}

/// [`eigenmode_rate`] from the SVD of the estimated channel, for callers
/// that predict a link's rate (`h_true` = the estimate) and then realise
/// it under the true channel: one SVD serves both.
pub(crate) fn eigenmode_rate_from(
    svd_est: &Svd,
    h_true: &CMat,
    p_total: f64,
    noise: f64,
) -> Result<(f64, Vec<f64>)> {
    let n_streams = svd_est.singular_values.len();
    let gains: Vec<f64> = svd_est.singular_values.iter().map(|s| s * s).collect();
    let powers = waterfill(&gains, p_total, noise);
    // Effective mixing matrix G = Uᴴ·H_true·V (diagonal iff H_est == H_true).
    let g = svd_est.u.hermitian().mul_mat(h_true).mul_mat(&svd_est.v);
    let mut sinrs = Vec::with_capacity(n_streams);
    for i in 0..n_streams {
        if powers[i] <= 0.0 {
            continue; // unused eigenmode carries no stream
        }
        let signal = g[(i, i)].norm_sqr() * powers[i];
        let mut interference = 0.0;
        for (k, &pk) in powers.iter().enumerate() {
            if k != i && pk > 0.0 {
                interference += g[(i, k)].norm_sqr() * pk;
            }
        }
        sinrs.push(signal / (interference + noise));
    }
    Ok((checked_rate(&sinrs)?, sinrs))
}

/// [`crate::rate::rate_bits_per_hz`] of `sinrs`, or a typed error for a NaN
/// SINR (which the rate would reject with a panic).
pub(crate) fn checked_rate(sinrs: &[f64]) -> Result<f64> {
    if sinrs.iter().any(|s| s.is_nan()) {
        return Err(LinAlgError::Degenerate("NaN SINR"));
    }
    Ok(crate::rate::rate_bits_per_hz(sinrs))
}

/// Best-AP selection with estimated channels: the client associates with the
/// AP whose *estimated* eigenmode rate is highest (that is all the client can
/// know), then realises the rate the *true* channel delivers. Returns
/// `(ap_index, realised_rate, realised_sinrs)`. An AP whose estimate gives a
/// NaN SINR predicts 0.0; a NaN SINR on the chosen AP's true channel is
/// [`LinAlgError::Degenerate`], as in [`eigenmode_rate`].
pub fn best_ap_rate(
    links_true: &[CMat],
    links_est: &[CMat],
    p_total: f64,
    noise: f64,
) -> Result<(usize, f64, Vec<f64>)> {
    assert_eq!(links_true.len(), links_est.len());
    assert!(!links_true.is_empty(), "need at least one AP");
    let svds: Vec<Svd> = links_est.iter().map(Svd::compute).collect();
    let mut best_ap = 0;
    let mut best_predicted = f64::NEG_INFINITY;
    for (i, (est, svd)) in links_est.iter().zip(&svds).enumerate() {
        let predicted = eigenmode_rate_from(svd, est, p_total, noise).map_or(0.0, |(rate, _)| rate);
        if predicted > best_predicted {
            best_predicted = predicted;
            best_ap = i;
        }
    }
    let (rate, sinrs) = eigenmode_rate_from(&svds[best_ap], &links_true[best_ap], p_total, noise)?;
    Ok((best_ap, rate, sinrs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_channel::estimation::{estimate_with_error, EstimationConfig};
    use iac_linalg::Rng64;

    #[test]
    fn waterfill_conserves_power() {
        let powers = waterfill(&[4.0, 1.0, 0.25], 10.0, 1.0);
        let total: f64 = powers.iter().sum();
        assert!((total - 10.0).abs() < 1e-9);
    }

    #[test]
    fn waterfill_prefers_strong_modes() {
        let powers = waterfill(&[4.0, 1.0], 2.0, 1.0);
        assert!(powers[0] > powers[1]);
        assert!(powers.iter().all(|&p| p >= 0.0));
    }

    #[test]
    fn waterfill_drops_weak_mode_at_low_power() {
        // With tiny total power, everything goes to the strongest mode.
        let powers = waterfill(&[10.0, 0.1], 0.05, 1.0);
        assert!(powers[1] == 0.0, "weak mode got {}", powers[1]);
        assert!((powers[0] - 0.05).abs() < 1e-9);
    }

    #[test]
    fn waterfill_equal_gains_split_evenly() {
        let powers = waterfill(&[1.0, 1.0], 4.0, 1.0);
        assert!((powers[0] - 2.0).abs() < 1e-9);
        assert!((powers[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn eigenmode_perfect_csi_matches_capacity() {
        // With perfect CSI the rate equals Σ log2(1 + σᵢ²·pᵢ/noise).
        let mut rng = Rng64::new(1);
        let h = CMat::random(2, 2, &mut rng);
        let (rate, sinrs) = eigenmode_rate(&h, &h, 2.0, 0.01).unwrap();
        let svd = Svd::compute(&h);
        let gains: Vec<f64> = svd.singular_values.iter().map(|s| s * s).collect();
        let powers = waterfill(&gains, 2.0, 0.01);
        let expected: f64 = gains
            .iter()
            .zip(&powers)
            .filter(|(_, &p)| p > 0.0)
            .map(|(&g, &p)| (1.0 + g * p / 0.01).log2())
            .sum();
        assert!((rate - expected).abs() < 1e-9, "{rate} vs {expected}");
        assert!(sinrs.len() <= 2);
    }

    #[test]
    fn eigenmode_perfect_csi_has_no_cross_talk() {
        let mut rng = Rng64::new(2);
        let h = CMat::random(2, 2, &mut rng);
        let (_, sinrs) = eigenmode_rate(&h, &h, 2.0, 1e-9).unwrap();
        // With essentially no noise and no mismatch, SINRs are astronomically
        // high (pure signal / zero interference).
        for s in sinrs {
            assert!(s > 1e6, "cross-talk detected: SINR {s}");
        }
    }

    #[test]
    fn estimation_error_costs_rate() {
        let mut rng = Rng64::new(3);
        let mut perfect_acc = 0.0;
        let mut noisy_acc = 0.0;
        for _ in 0..200 {
            let h = CMat::random(2, 2, &mut rng);
            let h_est = estimate_with_error(
                &h,
                &EstimationConfig {
                    estimation_snr_db: 10.0, // deliberately poor
                    training_len: 8,
                },
                &mut rng,
            );
            perfect_acc += eigenmode_rate(&h, &h, 2.0, 0.01).unwrap().0;
            noisy_acc += eigenmode_rate(&h, &h_est, 2.0, 0.01).unwrap().0;
        }
        assert!(
            noisy_acc < perfect_acc,
            "mismatch should cost rate: {noisy_acc} vs {perfect_acc}"
        );
    }

    #[test]
    fn best_ap_picks_stronger_link() {
        let mut rng = Rng64::new(4);
        let weak = CMat::random(2, 2, &mut rng).scale(0.1);
        let strong = CMat::random(2, 2, &mut rng).scale(3.0);
        let links = vec![weak.clone(), strong.clone()];
        let (ap, rate, _) = best_ap_rate(&links, &links, 2.0, 0.01).unwrap();
        assert_eq!(ap, 1);
        assert!(rate > 0.0);
    }

    #[test]
    fn best_ap_diversity_gain_grows_with_choices() {
        // Average best-of-2 rate must beat average single-AP rate — the
        // diversity the paper grants the 802.11 baseline (§10e).
        let mut rng = Rng64::new(5);
        let mut single = 0.0;
        let mut double = 0.0;
        for _ in 0..300 {
            let a = CMat::random(2, 2, &mut rng);
            let b = CMat::random(2, 2, &mut rng);
            single += eigenmode_rate(&a, &a, 2.0, 0.1).unwrap().0;
            let links = vec![a, b];
            double += best_ap_rate(&links, &links, 2.0, 0.1).unwrap().1;
        }
        assert!(
            double > single * 1.02,
            "no diversity gain: {double} vs {single}"
        );
    }
}
