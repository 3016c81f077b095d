//! Carrier frequency offsets.
//!
//! Every transmitter–receiver pair has a residual frequency offset `Δf`
//! because their oscillators are never perfectly matched. The received signal
//! rotates in the I-Q plane as `e^{j2πΔf t}`. Section 6(a) of the paper makes
//! the key observation that this rotation is a *complex scalar* applied to
//! the whole spatial vector, so it cannot break interference alignment —
//! a claim the sample-level experiments here verify directly.

use iac_linalg::C64;

/// A carrier frequency offset applied to a sample stream.
#[derive(Debug, Clone, Copy)]
pub struct Cfo {
    /// Offset in Hz.
    pub delta_f_hz: f64,
    /// Sample rate in Hz.
    pub sample_rate_hz: f64,
}

impl Cfo {
    /// Construct, validating the sample rate.
    pub fn new(delta_f_hz: f64, sample_rate_hz: f64) -> Self {
        assert!(sample_rate_hz > 0.0, "sample rate must be positive");
        Self {
            delta_f_hz,
            sample_rate_hz,
        }
    }

    /// Phase rotation at sample index `n`: `e^{j2πΔf·n/fs}`.
    #[inline]
    pub fn phasor_at(&self, n: usize) -> C64 {
        let phase = std::f64::consts::TAU * self.delta_f_hz * n as f64 / self.sample_rate_hz;
        C64::cis(phase)
    }

    /// Apply the rotation in place to a sample stream starting at sample
    /// index `start`.
    ///
    /// No production caller: public for `crates/channel/tests/properties.rs`.
    pub fn apply(&self, samples: &mut [C64], start: usize) {
        if self.delta_f_hz == 0.0 {
            return;
        }
        // Incremental rotation avoids a sin/cos per sample.
        let step = C64::cis(std::f64::consts::TAU * self.delta_f_hz / self.sample_rate_hz);
        let mut rot = self.phasor_at(start);
        for s in samples.iter_mut() {
            *s *= rot;
            rot *= step;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_offset_is_identity() {
        let cfo = Cfo::new(0.0, 1e6);
        let mut samples = vec![C64::new(1.0, 2.0); 16];
        let orig = samples.clone();
        cfo.apply(&mut samples, 0);
        assert_eq!(samples, orig);
    }

    #[test]
    fn phasor_magnitude_is_one() {
        let cfo = Cfo::new(250.0, 500_000.0);
        for n in [0usize, 1, 100, 100_000] {
            assert!((cfo.phasor_at(n).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn rotation_preserves_power() {
        let cfo = Cfo::new(777.0, 1e6);
        let mut samples: Vec<C64> = (0..256).map(|k| C64::new(k as f64, -1.0)).collect();
        let before: f64 = samples.iter().map(|z| z.norm_sqr()).sum();
        cfo.apply(&mut samples, 3);
        let after: f64 = samples.iter().map(|z| z.norm_sqr()).sum();
        assert!((before - after).abs() < 1e-6 * before);
    }

    #[test]
    fn incremental_matches_direct() {
        let cfo = Cfo::new(1234.5, 2e6);
        let mut samples = vec![C64::one(); 64];
        cfo.apply(&mut samples, 10);
        for (k, s) in samples.iter().enumerate() {
            let direct = cfo.phasor_at(10 + k);
            assert!((*s - direct).abs() < 1e-9, "sample {k}");
        }
    }

    #[test]
    fn full_period_returns_to_start() {
        // Δf = fs/N means N samples complete exactly one rotation.
        let n = 1000usize;
        let cfo = Cfo::new(1e6 / n as f64, 1e6);
        let p0 = cfo.phasor_at(0);
        let pn = cfo.phasor_at(n);
        assert!((p0 - pn).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "sample rate")]
    fn invalid_sample_rate_rejected() {
        let _ = Cfo::new(1.0, 0.0);
    }
}
