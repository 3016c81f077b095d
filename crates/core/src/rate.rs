//! Rate and gain accounting (paper §10f, Eqs. 9–10).
//!
//! The paper argues throughput comparisons are meaningless on radios without
//! rate adaptation and instead reports the *achievable rate*
//! `Σᵢ log₂(1 + SNRᵢ)` over concurrent packets — the rate an ideal
//! rate-adaptation layer would extract from the measured post-processing
//! SNRs. Gains are ratios of average achievable rates (Eq. 10).

/// Eq. 9: achievable rate in bit/s/Hz for a set of concurrent packet SINRs.
pub fn rate_bits_per_hz(sinrs: &[f64]) -> f64 {
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

/// Eq. 10: the gain of IAC over the baseline, as a ratio of average rates.
pub fn gain(rate_iac: f64, rate_baseline: f64) -> f64 {
    assert!(rate_baseline > 0.0, "baseline rate must be positive");
    rate_iac / rate_baseline
}

/// Running mean helper used by the experiment harnesses.
#[derive(Debug, Clone, Default)]
pub struct Mean {
    sum: f64,
    count: usize,
}

impl Mean {
    /// Create an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.sum += x;
        self.count += 1;
    }

    /// Current mean (0 when empty).
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.count
    }
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

    #[test]
    fn gain_ratio() {
        assert!((gain(15.0, 10.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn gain_rejects_zero_baseline() {
        let _ = gain(1.0, 0.0);
    }

    #[test]
    fn mean_accumulates() {
        let mut m = Mean::new();
        assert_eq!(m.value(), 0.0);
        m.push(2.0);
        m.push(4.0);
        assert_eq!(m.value(), 3.0);
        assert_eq!(m.count(), 2);
    }
}
