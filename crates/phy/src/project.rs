//! Receive-side projection onto decoding vectors.
//!
//! "To decode p1, the AP needs to get rid of the interference from p2, by
//! projecting on a vector orthogonal to H[0 1]ᵀ" (§4a). At the sample level,
//! projection combines the per-antenna streams into one scalar stream:
//! `z(t) = Σ_a conj(u_a)·y_a(t)`.

use iac_linalg::{CVec, C64};

/// Project multi-antenna received streams onto a decoding vector, into a
/// caller-owned buffer (cleared and refilled, reusing capacity). Zero
/// allocations once warm.
pub fn combine_into(rx_streams: &[Vec<C64>], u: &CVec, out: &mut Vec<C64>) {
    assert_eq!(
        rx_streams.len(),
        u.len(),
        "decoding vector dimension must match antenna count"
    );
    let len = rx_streams.first().map(|s| s.len()).unwrap_or(0);
    assert!(
        rx_streams.iter().all(|s| s.len() == len),
        "ragged receive streams"
    );
    out.clear();
    out.resize(len, C64::zero());
    // Antenna-major accumulation: the conjugated weight is hoisted out of
    // the sample loop and both slices stream sequentially. Per sample this
    // performs the same `mul_add` chain in the same order as the naive
    // sample-major loop, so results are bit-identical.
    for (a, stream) in rx_streams.iter().enumerate() {
        let w = u[a].conj();
        for (o, &s) in out.iter_mut().zip(stream) {
            *o = w.mul_add(s, *o);
        }
    }
}

/// Equalise a projected stream in place by a scalar effective channel
/// estimate `g` (the post-projection channel `uᴴĤv`): scales every sample by
/// `1/g`, or zeroes the stream when `g` is not invertible.
pub fn equalize_in_place(stream: &mut [C64], g: C64) {
    let inv = g.recip().unwrap_or(C64::zero());
    for s in stream.iter_mut() {
        *s *= inv;
    }
}

/// Measure post-projection SNR against known transmitted symbols: decompose
/// each received sample into the component along the known symbol and the
/// residual, and return `signal_power / residual_power`.
pub fn measure_snr(received: &[C64], sent: &[C64]) -> f64 {
    assert_eq!(received.len(), sent.len(), "length mismatch in SNR measure");
    // Least-squares scalar fit g = <sent, received>/<sent, sent>.
    let mut num = C64::zero();
    let mut den = 0.0;
    for (r, s) in received.iter().zip(sent) {
        num += s.conj() * *r;
        den += s.norm_sqr();
    }
    if den == 0.0 {
        return 0.0;
    }
    let g = num * (1.0 / den);
    let mut signal = 0.0;
    let mut noise = 0.0;
    for (r, s) in received.iter().zip(sent) {
        let fitted = g * *s;
        signal += fitted.norm_sqr();
        noise += (*r - fitted).norm_sqr();
    }
    iac_channel::noise::sinr(signal, noise)
}

/// Second-order Costas loop for BPSK: tracks residual carrier phase and
/// frequency through a packet, so a small CFO-estimation error does not
/// accumulate into symbol flips by the end of a 1500-byte frame. This is the
/// role GNU Radio's Costas block plays in the paper's prototype receiver.
///
/// `loop_gain` sets the proportional correction (0.05–0.2 is reasonable for
/// the phase steps of real CFOs); the integral gain is derived from it.
pub fn costas_bpsk(samples: &[C64], loop_gain: f64) -> Vec<C64> {
    assert!(loop_gain > 0.0 && loop_gain < 1.0, "loop gain out of range");
    let alpha = loop_gain;
    let beta = alpha * alpha / 4.0;
    let mut phase = 0.0f64;
    let mut freq = 0.0f64;
    let mut out = Vec::with_capacity(samples.len());
    for &s in samples {
        let corrected = s * C64::cis(-phase);
        out.push(corrected);
        // BPSK phase detector: error = Im(z)·sign(Re(z)), linear near lock.
        let err = corrected.im * corrected.re.signum();
        freq += beta * err;
        phase += freq + alpha * err;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::{CMat, Rng64};

    fn combine(rx_streams: &[Vec<C64>], u: &CVec) -> Vec<C64> {
        let mut out = Vec::new();
        combine_into(rx_streams, u, &mut out);
        out
    }

    fn equalize(stream: &[C64], g: C64) -> Vec<C64> {
        let mut out = stream.to_vec();
        equalize_in_place(&mut out, g);
        out
    }

    #[test]
    fn combine_is_hermitian_projection() {
        let mut rng = Rng64::new(1);
        let u = CVec::random_unit(2, &mut rng);
        let snapshot = CVec::random(2, &mut rng);
        let streams = vec![vec![snapshot[0]], vec![snapshot[1]]];
        let z = combine(&streams, &u);
        assert!((z[0] - u.dot(&snapshot)).abs() < 1e-12);
    }

    #[test]
    fn orthogonal_interference_vanishes() {
        // Build an interference direction, project orthogonally to it:
        // interference must disappear at sample level.
        let mut rng = Rng64::new(2);
        let h = CMat::random(2, 2, &mut rng);
        let v_int = CVec::random_unit(2, &mut rng);
        let dir = h.mul_vec(&v_int);
        let u = dir.orth_2d().unwrap();
        // Interfering packet: 100 samples through h with precoder v_int.
        let samples: Vec<C64> = (0..100).map(|_| rng.cn01()).collect();
        let streams: Vec<Vec<C64>> = (0..2)
            .map(|a| {
                samples
                    .iter()
                    .map(|&s| (h[(a, 0)] * v_int[0] + h[(a, 1)] * v_int[1]) * s)
                    .collect()
            })
            .collect();
        let z = combine(&streams, &u);
        let residual: f64 = z.iter().map(|s| s.norm_sqr()).sum();
        assert!(residual < 1e-18, "interference leaked: {residual}");
    }

    #[test]
    fn equalize_inverts_scalar_channel() {
        let g = C64::from_polar(0.5, 1.0);
        let sent = vec![C64::one(), C64::real(-1.0)];
        let received: Vec<C64> = sent.iter().map(|&s| s * g).collect();
        let eq = equalize(&received, g);
        for (a, b) in eq.iter().zip(&sent) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn equalize_by_zero_yields_zeros() {
        let eq = equalize(&[C64::one()], C64::zero());
        assert_eq!(eq[0], C64::zero());
    }

    #[test]
    fn measured_snr_tracks_true_snr() {
        let mut rng = Rng64::new(3);
        let sent: Vec<C64> = (0..20_000).map(|_| rng.cn01()).collect();
        for &snr in &[1.0, 10.0, 100.0] {
            let received: Vec<C64> = sent
                .iter()
                .map(|&s| s * C64::from_polar(1.3, 0.4) + rng.cn(1.69 / snr))
                .collect();
            let measured = measure_snr(&received, &sent);
            assert!(
                (measured / snr - 1.0).abs() < 0.15,
                "snr {snr}: measured {measured}"
            );
        }
    }

    #[test]
    fn measure_snr_of_clean_signal_hits_ceiling() {
        let sent = vec![C64::one(); 100];
        let received = sent.clone();
        assert_eq!(measure_snr(&received, &sent), 1e7);
    }

    #[test]
    #[should_panic(expected = "dimension must match")]
    fn combine_rejects_mismatch() {
        let _ = combine(&[vec![C64::zero()]], &CVec::zeros(2));
    }

    #[test]
    fn costas_tracks_residual_cfo() {
        // ±2 Hz residual after derotation, 12000-sample packet at 500 kS/s:
        // untracked drift is ~0.3 rad; the loop must hold BPSK decisions.
        use crate::modulation::{bit_errors, Bpsk, Modulation};
        let mut rng = Rng64::new(10);
        let bits: Vec<bool> = (0..12_000).map(|_| rng.chance(0.5)).collect();
        let symbols = Bpsk.modulate(&bits);
        let residual_hz = 2.0;
        let fs = 500_000.0;
        let rotated: Vec<C64> = symbols
            .iter()
            .enumerate()
            .map(|(t, &s)| {
                s * C64::cis(std::f64::consts::TAU * residual_hz * t as f64 / fs) + rng.cn(0.01)
            })
            .collect();
        // Without tracking, the tail of the packet drifts toward the
        // decision boundary; with tracking, decode is clean.
        let tracked = costas_bpsk(&rotated, 0.1);
        let decoded = Bpsk.demodulate(&tracked);
        assert_eq!(bit_errors(&bits, &decoded), 0);
    }

    #[test]
    fn costas_pulls_in_constant_offset() {
        // A fixed phase error (no frequency) must be absorbed quickly.
        use crate::modulation::{Bpsk, Modulation};
        let mut rng = Rng64::new(11);
        let bits: Vec<bool> = (0..2000).map(|_| rng.chance(0.5)).collect();
        let symbols = Bpsk.modulate(&bits);
        let rotated: Vec<C64> = symbols.iter().map(|&s| s * C64::cis(0.6)).collect();
        let tracked = costas_bpsk(&rotated, 0.1);
        // After settling, samples sit back near the real axis.
        let tail_imbalance: f64 = tracked[500..].iter().map(|z| z.im.abs()).sum::<f64>() / 1500.0;
        assert!(
            tail_imbalance < 0.05,
            "loop did not settle: {tail_imbalance}"
        );
    }

    #[test]
    #[should_panic(expected = "loop gain")]
    fn costas_rejects_bad_gain() {
        let _ = costas_bpsk(&[C64::one()], 1.5);
    }
}
