//! Additive white Gaussian noise and SNR accounting.

use iac_linalg::{Rng64, C64};

/// An AWGN source with a fixed per-sample complex noise power.
#[derive(Debug, Clone, Copy)]
pub struct Awgn {
    /// Total complex noise power `E|n|²` per sample.
    pub power: f64,
}

impl Awgn {
    /// From linear noise power.
    pub fn new(power: f64) -> Self {
        assert!(power >= 0.0, "noise power must be non-negative");
        Self { power }
    }

    /// One noise sample.
    ///
    /// No production caller: public for `crates/channel/tests/properties.rs`.
    #[inline]
    pub fn sample(&self, rng: &mut Rng64) -> C64 {
        if self.power == 0.0 {
            C64::zero()
        } else {
            rng.cn(self.power)
        }
    }

    /// Add noise to a sample stream in place.
    pub fn add_to(&self, samples: &mut [C64], rng: &mut Rng64) {
        if self.power == 0.0 {
            return;
        }
        for s in samples.iter_mut() {
            *s += rng.cn(self.power);
        }
    }
}

/// Measured SNR from accumulated signal and noise-plus-interference powers.
/// Returns 0 (not ∞) when the denominator underflows: a packet with no
/// measurable noise floor reports the measurement ceiling instead, which is
/// what a real receiver's limited dynamic range would do.
pub fn sinr(signal_power: f64, noise_interference_power: f64) -> f64 {
    const MEASUREMENT_CEILING: f64 = 1e7; // +70 dB instrument limit
    if noise_interference_power <= signal_power / MEASUREMENT_CEILING {
        return MEASUREMENT_CEILING;
    }
    signal_power / noise_interference_power
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathloss::linear_to_db;

    #[test]
    fn noise_power_matches_config() {
        let awgn = Awgn::new(0.25);
        let mut rng = Rng64::new(1);
        let n = 100_000;
        let measured: f64 = (0..n)
            .map(|_| awgn.sample(&mut rng).norm_sqr())
            .sum::<f64>()
            / n as f64;
        assert!((measured - 0.25).abs() < 0.01, "measured {measured}");
    }

    #[test]
    fn zero_power_adds_nothing() {
        let awgn = Awgn::new(0.0);
        let mut rng = Rng64::new(2);
        let mut samples = vec![C64::one(); 8];
        awgn.add_to(&mut samples, &mut rng);
        assert!(samples.iter().all(|&s| s == C64::one()));
    }

    #[test]
    fn measured_snr_tracks_configuration() {
        let mut rng = Rng64::new(3);
        for &snr_db in &[0.0, 10.0, 25.0] {
            let awgn = Awgn::new(crate::pathloss::db_to_linear(-snr_db));
            let n = 200_000;
            let noise_power: f64 = (0..n)
                .map(|_| awgn.sample(&mut rng).norm_sqr())
                .sum::<f64>()
                / n as f64;
            let measured_db = linear_to_db(sinr(1.0, noise_power));
            assert!(
                (measured_db - snr_db).abs() < 0.3,
                "configured {snr_db} dB, measured {measured_db} dB"
            );
        }
    }

    #[test]
    fn sinr_ceiling() {
        assert_eq!(sinr(1.0, 0.0), 1e7);
        assert!(sinr(1.0, 1.0) == 1.0);
    }
}
