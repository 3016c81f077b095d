//! Interference cancellation: the subtraction step.
//!
//! "Once the receiver knows the bits and estimates the channel function from
//! the preamble, it can reconstruct the corresponding continuous signal,
//! sample it at the desired points, and subtract it from its received
//! version" (§6, footnote 5). IAC uses *only* this subtraction step of
//! classical interference cancellation — the decoding of the first packet is
//! done by alignment, not by SIC.

use crate::dsp::fill_phasors;
use crate::fft::with_thread_scratch;
use iac_linalg::{CMat, CVec, C64};

/// Reconstruct the per-rx-antenna signal a known packet contributed: its
/// symbols, precoded by `v`, through the estimated channel `ĥ`, with the
/// estimated carrier frequency offset re-applied, starting at `start`.
///
/// `out` is reshaped to `h_est.rows()` streams of `symbols.len()` entries,
/// reusing capacity. Zero allocations once warm.
///
/// The CFO phasor sequence is computed once, into one pooled buffer shared
/// by every rx antenna; each antenna is then one `eff · (s · rot)` pass.
#[allow(clippy::too_many_arguments)]
pub fn reconstruct_into(
    symbols: &[C64],
    v: &CVec,
    h_est: &CMat,
    power: f64,
    cfo_hz: f64,
    sample_rate_hz: f64,
    start: usize,
    out: &mut Vec<Vec<C64>>,
) {
    let rx_antennas = h_est.rows();
    assert_eq!(v.len(), h_est.cols(), "precoder dimension mismatch");
    let amp = power.sqrt();
    let step = C64::cis(std::f64::consts::TAU * cfo_hz / sample_rate_hz);
    let rot0 = C64::cis(std::f64::consts::TAU * cfo_hz * start as f64 / sample_rate_hz);
    crate::dsp::shape_streams(out, rx_antennas);
    let mut rot = with_thread_scratch(|s| s.take(symbols.len()));
    fill_phasors(&mut rot, rot0, step);
    for (a, stream) in out.iter_mut().enumerate() {
        // Effective coefficient for this rx antenna: (ĥ·v)[a]·sqrt(power) —
        // computed on the stack so the steady-state loop stays allocation-free.
        let mut eff = C64::zero();
        for b in 0..h_est.cols() {
            eff = h_est[(a, b)].mul_add(v[b], eff);
        }
        eff = eff.scale(amp);
        stream.clear();
        stream.extend(symbols.iter().zip(&rot).map(|(&s, &r)| eff * (s * r)));
    }
    with_thread_scratch(|s| s.put(rot));
}

/// Subtract a reconstructed contribution from the received streams in place,
/// beginning at sample `start` (clipping at the buffer end).
pub fn subtract(rx_streams: &mut [Vec<C64>], reconstruction: &[Vec<C64>], start: usize) {
    assert_eq!(
        rx_streams.len(),
        reconstruction.len(),
        "antenna count mismatch in cancellation"
    );
    for (rx, rec) in rx_streams.iter_mut().zip(reconstruction) {
        for (k, &r) in rec.iter().enumerate() {
            if let Some(sample) = rx.get_mut(start + k) {
                *sample -= r;
            }
        }
    }
}

/// Residual power fraction after cancelling: `‖after‖²/‖before‖²` over the
/// cancelled window — the figure of merit for a cancellation stage.
pub fn residual_fraction(before: &[Vec<C64>], after: &[Vec<C64>], start: usize, len: usize) -> f64 {
    let mut pb = 0.0;
    let mut pa = 0.0;
    for (b, a) in before.iter().zip(after) {
        for t in start..(start + len).min(b.len()) {
            pb += b[t].norm_sqr();
            pa += a[t].norm_sqr();
        }
    }
    if pb == 0.0 {
        0.0
    } else {
        pa / pb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{AirTransmission, Medium};
    use crate::precode::precode;
    use iac_channel::{Awgn, Cfo};
    use iac_linalg::Rng64;

    /// Transmit one precoded packet over the medium, then cancel it with the
    /// given channel estimate; return the residual power fraction.
    fn cancel_residual(
        h_true: &CMat,
        h_est: &CMat,
        cfo_hz: f64,
        cfo_est_hz: f64,
        noise: f64,
        seed: u64,
    ) -> f64 {
        let mut rng = Rng64::new(seed);
        let fs = 500_000.0;
        let symbols: Vec<C64> = (0..512).map(|_| rng.cn01()).collect();
        let v = CVec::random_unit(2, &mut rng);
        let streams = precode(&symbols, &v, 1.0);
        let mut rx = Vec::new();
        Medium::mix_into(
            &[AirTransmission {
                streams: &streams,
                channel: h_true,
                cfo: Cfo::new(cfo_hz, fs),
                start: 0,
            }],
            2,
            512,
            Awgn::new(noise),
            &mut rng,
            &mut rx,
        );
        let before = rx.clone();
        let mut rec = Vec::new();
        reconstruct_into(&symbols, &v, h_est, 1.0, cfo_est_hz, fs, 0, &mut rec);
        subtract(&mut rx, &rec, 0);
        residual_fraction(&before, &rx, 0, 512)
    }

    #[test]
    fn perfect_knowledge_cancels_completely() {
        let mut rng = Rng64::new(1);
        let h = CMat::random(2, 2, &mut rng);
        let r = cancel_residual(&h, &h, 0.0, 0.0, 0.0, 2);
        assert!(r < 1e-20, "residual {r}");
    }

    #[test]
    fn cancellation_with_cfo_knowledge() {
        // A rotating packet cancels exactly when the receiver tracks the
        // rotation — this is why footnote 5 reconstructs the *continuous*
        // signal.
        let mut rng = Rng64::new(3);
        let h = CMat::random(2, 2, &mut rng);
        let r = cancel_residual(&h, &h, 300.0, 300.0, 0.0, 4);
        assert!(r < 1e-20, "residual {r}");
    }

    #[test]
    fn ignoring_cfo_ruins_cancellation() {
        // If the receiver reconstructs without the rotation, the residual is
        // macroscopic: over 512 samples at 300 Hz/500 kHz the phase error
        // reaches ~69°, so subtraction even amplifies parts of the signal.
        let mut rng = Rng64::new(5);
        let h = CMat::random(2, 2, &mut rng);
        let r = cancel_residual(&h, &h, 300.0, 0.0, 0.0, 6);
        assert!(r > 0.05, "residual suspiciously small: {r}");
    }

    #[test]
    fn estimation_error_leaves_proportional_residual() {
        let mut rng = Rng64::new(7);
        let h = CMat::random(2, 2, &mut rng);
        // Perturb the estimate by ~1% in Frobenius norm.
        let h_est = CMat::from_fn(2, 2, |r, c| h[(r, c)] + rng.cn(1e-4));
        let r = cancel_residual(&h, &h_est, 0.0, 0.0, 0.0, 8);
        // Residual should be O(‖E‖²/‖H‖²) ≈ 1e-4-ish, definitely < 1e-2.
        assert!(r > 1e-8 && r < 1e-2, "residual {r}");
    }

    #[test]
    fn noise_floor_survives_cancellation() {
        let mut rng = Rng64::new(9);
        let h = CMat::random(2, 2, &mut rng);
        let noise = 0.01;
        let r = cancel_residual(&h, &h, 0.0, 0.0, noise, 10);
        // The only thing left should be (roughly) the noise share of the
        // original received power: noise/(signal+noise), signal ≈ ‖Hv‖² ≈ 2.
        assert!(r > 1e-4 && r < 0.1, "residual {r}");
    }

    #[test]
    fn subtract_clips_at_buffer_end() {
        let mut rx = vec![vec![C64::one(); 4]];
        let rec = vec![vec![C64::one(); 10]];
        subtract(&mut rx, &rec, 2);
        assert_eq!(rx[0][1], C64::one());
        assert_eq!(rx[0][2], C64::zero());
        assert_eq!(rx[0][3], C64::zero());
    }

    #[test]
    fn residual_of_identical_is_zero_after() {
        let before = vec![vec![C64::one(); 8]];
        let after = vec![vec![C64::zero(); 8]];
        assert_eq!(residual_fraction(&before, &after, 0, 8), 0.0);
    }
}
