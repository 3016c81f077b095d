//! Rate accounting (paper §10f, Eq. 9).
//!
//! The paper argues throughput comparisons are meaningless on radios without
//! rate adaptation and instead reports the *achievable rate*
//! `Σᵢ log₂(1 + SNRᵢ)` over concurrent packets — the rate an ideal
//! rate-adaptation layer would extract from the measured post-processing
//! SNRs. Gains are ratios of average achievable rates (Eq. 10); the
//! scenarios form them from these rates.

/// Eq. 9: achievable rate in bit/s/Hz for a set of concurrent packet SINRs.
pub(crate) fn rate_bits_per_hz(sinrs: &[f64]) -> f64 {
    sum_rates(sinrs.iter().copied())
}

/// [`rate_bits_per_hz`] over any sequence of SINRs, summed in order.
pub(crate) fn sum_rates(sinrs: impl Iterator<Item = f64>) -> f64 {
    sinrs
        .map(|s| {
            assert!(s >= 0.0, "negative SINR {s}");
            (1.0 + s).log2()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_of_unit_snr_is_one_bit() {
        assert!((rate_bits_per_hz(&[1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rate_sums_over_packets() {
        // Two packets at 3 (=2 bits each) → 4 bits total.
        assert!((rate_bits_per_hz(&[3.0, 3.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn rate_of_zero_snr_is_zero() {
        assert_eq!(rate_bits_per_hz(&[0.0]), 0.0);
    }

    #[test]
    fn paper_rate_band_snr_equivalents() {
        // The Fig. 12 x-axis runs 4–13 b/s/Hz for 2-stream 802.11-MIMO:
        // per-stream SNRs of roughly 3–90 (5–19.5 dB).
        let low = rate_bits_per_hz(&[3.0, 3.0]);
        let high = rate_bits_per_hz(&[90.0, 90.0]);
        assert!(low > 3.5 && low < 4.5, "low {low}");
        assert!(high > 12.0 && high < 14.0, "high {high}");
    }
}
