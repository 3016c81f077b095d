//! The per-subcarrier channel model behind the §6c experiment.
//!
//! §6c of the paper: "We conjecture that even if the channel is not quite
//! flat, one can still do the alignment separately in each OFDM subcarrier
//! without trying to synchronize the transmitters." The authors could not
//! test this on USRP1 hardware (their channels were genuinely flat); the
//! simulator here has no such limitation, so the conjecture becomes a
//! runnable experiment: a multi-tap (frequency-selective) channel is flat
//! *per subcarrier* after the FFT, and the alignment equations can be solved
//! independently in each bin.
//!
//! The experiment works in the frequency domain: [`MultitapChannel::per_subcarrier`]
//! gives each bin's flat MIMO matrix directly. The tests below check that
//! model against a time-domain OFDM symbol (IFFT, cyclic prefix, linear
//! convolution with the taps, FFT).

use crate::fft::fft;
use iac_linalg::{CMat, Rng64, C64};

/// A frequency-selective SISO channel as taps; OFDM turns it into one
/// complex coefficient per subcarrier.
pub(crate) fn taps_to_subcarrier_gains(taps: &[C64], n_subcarriers: usize) -> Vec<C64> {
    let mut padded = taps.to_vec();
    padded.resize(n_subcarriers, C64::zero());
    fft(&mut padded);
    padded
}

/// A multi-tap MIMO channel: `taps[k]` is the `rx×tx` matrix of tap `k`.
#[derive(Debug, Clone)]
pub struct MultitapChannel {
    /// Channel taps, strongest first.
    pub taps: Vec<CMat>,
}

impl MultitapChannel {
    /// Random exponentially-decaying power-delay profile with `n_taps` taps
    /// and per-tap decay `decay` (0 = single tap ⇒ flat channel). The total
    /// power across taps is normalised to 1 per antenna pair.
    pub fn random(rx: usize, tx: usize, n_taps: usize, decay: f64, rng: &mut Rng64) -> Self {
        assert!(n_taps >= 1, "need at least one tap");
        let mut weights: Vec<f64> = (0..n_taps).map(|k| (-decay * k as f64).exp()).collect();
        let total: f64 = weights.iter().sum();
        for w in weights.iter_mut() {
            *w = (*w / total).sqrt();
        }
        let taps = weights
            .iter()
            .map(|&w| CMat::random(rx, tx, rng).scale(w))
            .collect();
        Self { taps }
    }

    /// The per-subcarrier MIMO channel matrices after OFDM: one `rx×tx`
    /// matrix per bin. Within each bin the channel is *flat* — which is what
    /// makes per-subcarrier alignment possible.
    pub fn per_subcarrier(&self, n_subcarriers: usize) -> Vec<CMat> {
        let rx = self.taps[0].rows();
        let tx = self.taps[0].cols();
        let mut out = vec![CMat::zeros(rx, tx); n_subcarriers];
        for a in 0..rx {
            for b in 0..tx {
                let siso: Vec<C64> = self.taps.iter().map(|m| m[(a, b)]).collect();
                let gains = taps_to_subcarrier_gains(&siso, n_subcarriers);
                for (bin, &g) in gains.iter().enumerate() {
                    out[bin][(a, b)] = g;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::ifft;
    use iac_linalg::CVec;

    /// One time-domain OFDM symbol: the IFFT of `freq` behind a `cp`-sample
    /// cyclic prefix.
    fn modulate(freq: &[C64], cp: usize) -> Vec<C64> {
        let mut body = freq.to_vec();
        ifft(&mut body);
        let mut out = body[body.len() - cp..].to_vec();
        out.extend_from_slice(&body);
        out
    }

    /// Drop the `cp`-sample prefix of the symbol at the start of `samples`
    /// and FFT its `n`-sample body back to one symbol per subcarrier.
    fn demodulate(samples: &[C64], n: usize, cp: usize) -> Vec<C64> {
        let mut freq = samples[cp..cp + n].to_vec();
        fft(&mut freq);
        freq
    }

    /// Direct linear convolution: what the multi-tap channel does on the air.
    fn convolve(signal: &[C64], taps: &[C64]) -> Vec<C64> {
        let mut out = vec![C64::zero(); signal.len() + taps.len() - 1];
        for (i, &s) in signal.iter().enumerate() {
            for (j, &t) in taps.iter().enumerate() {
                out[i + j] += s * t;
            }
        }
        out
    }

    #[test]
    fn multipath_channel_is_one_tap_per_subcarrier() {
        // The core OFDM property: a multi-tap channel becomes per-bin
        // scalar multiplication, as long as CP ≥ delay spread.
        let mut rng = Rng64::new(3);
        let taps: Vec<C64> = (0..5).map(|_| rng.cn(0.2)).collect();
        let freq: Vec<C64> = (0..64).map(|_| rng.cn01()).collect();
        let time = modulate(&freq, 16);
        let rxed = convolve(&time, &taps);
        let back = demodulate(&rxed, 64, 16);
        let gains = taps_to_subcarrier_gains(&taps, 64);
        for bin in 0..64 {
            let expect = freq[bin] * gains[bin];
            assert!(
                (back[bin] - expect).abs() < 1e-9,
                "bin {bin}: {} vs {expect}",
                back[bin]
            );
        }
    }

    #[test]
    fn short_cp_breaks_flatness() {
        // With delay spread beyond the CP, inter-symbol energy leaks in and
        // per-bin equalisation is no longer exact — the failure mode §6c
        // warns about for very wide channels.
        let cp = 2;
        let mut rng = Rng64::new(4);
        let taps: Vec<C64> = (0..8).map(|_| rng.cn(0.2)).collect();
        let f1: Vec<C64> = (0..64).map(|_| rng.cn01()).collect();
        let f2: Vec<C64> = (0..64).map(|_| rng.cn01()).collect();
        // Two consecutive symbols so the first one's tail smears into the
        // second one's window.
        let mut time = modulate(&f1, cp);
        time.extend(modulate(&f2, cp));
        let rxed = convolve(&time, &taps);
        let back2 = demodulate(&rxed[64 + cp..], 64, cp);
        let gains = taps_to_subcarrier_gains(&taps, 64);
        let mut err = 0.0;
        for bin in 0..64 {
            err += (back2[bin] - f2[bin] * gains[bin]).norm_sqr();
        }
        assert!(err > 1e-3, "expected ISI leakage, got {err}");
    }

    #[test]
    fn per_subcarrier_grids_are_flat_mimo_channels() {
        // Single-tap channel: every subcarrier sees the SAME matrix.
        let mut rng = Rng64::new(6);
        let flat = MultitapChannel::random(2, 2, 1, 0.0, &mut rng);
        let bins = flat.per_subcarrier(16);
        for bin in &bins {
            assert!((bin - &flat.taps[0]).frobenius_norm() < 1e-10);
        }
        // Multi-tap: different matrices per bin (frequency selectivity).
        let selective = MultitapChannel::random(2, 2, 4, 0.3, &mut rng);
        let bins = selective.per_subcarrier(16);
        let d = (&bins[0] - &bins[8]).frobenius_norm();
        assert!(d > 0.05, "no frequency selectivity: {d}");
    }

    #[test]
    fn tap_power_is_normalised() {
        let mut rng = Rng64::new(7);
        let mut acc = 0.0;
        let trials = 500;
        for _ in 0..trials {
            let ch = MultitapChannel::random(2, 2, 4, 0.7, &mut rng);
            acc += ch
                .taps
                .iter()
                .map(|m| m.frobenius_norm().powi(2))
                .sum::<f64>()
                / 4.0; // per antenna pair
        }
        let avg = acc / trials as f64;
        assert!((avg - 1.0).abs() < 0.1, "tap power {avg}");
    }

    #[test]
    fn per_bin_alignment_direction_varies() {
        // The whole point of §6c: the aligning direction differs per bin on
        // a selective channel, so one flat-channel encoding vector cannot
        // align every bin — but per-bin vectors can.
        let mut rng = Rng64::new(8);
        let h1 = MultitapChannel::random(2, 2, 4, 0.4, &mut rng);
        let h2 = MultitapChannel::random(2, 2, 4, 0.4, &mut rng);
        let b1 = h1.per_subcarrier(16);
        let b2 = h2.per_subcarrier(16);
        // v2(bin) = H2(bin)⁻¹·H1(bin)·v1 — compare bins 0 and 8.
        let v1 = CVec::random_unit(2, &mut rng);
        let v2_bin0 = b2[0].inverse().unwrap().mul_mat(&b1[0]).mul_vec(&v1);
        let v2_bin8 = b2[8].inverse().unwrap().mul_mat(&b1[8]).mul_vec(&v1);
        assert!(
            v2_bin0.alignment_with(&v2_bin8) < 0.999,
            "selective channel produced identical alignment across bins"
        );
    }
}
