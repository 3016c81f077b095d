//! Digital modulation schemes.
//!
//! IAC "operates below existing modulation and coding and is transparent to
//! both" (§4): the alignment acts on complex baseband samples regardless of
//! the constellation that produced them. The paper's prototype uses BPSK
//! (what 802.11 uses at low rates, §10b); QPSK and 16-QAM are provided to
//! demonstrate the transparency claim (§6b).

use iac_linalg::C64;

/// A memoryless constellation mapper.
pub trait Modulation {
    /// Bits consumed per symbol.
    fn bits_per_symbol(&self) -> usize;

    /// Map one group of [`Self::bits_per_symbol`] bits to a unit-average-
    /// power constellation point.
    fn map(&self, bits: &[bool]) -> C64;

    /// Hard-decision demap of one received symbol.
    fn demap(&self, symbol: C64) -> Vec<bool>;

    /// Modulate a whole bit stream (zero-pads the tail group).
    fn modulate(&self, bits: &[bool]) -> Vec<C64> {
        let k = self.bits_per_symbol();
        bits.chunks(k)
            .map(|chunk| {
                if chunk.len() == k {
                    self.map(chunk)
                } else {
                    let mut padded = chunk.to_vec();
                    padded.resize(k, false);
                    self.map(&padded)
                }
            })
            .collect()
    }

    /// Hard-demodulate a whole symbol stream.
    fn demodulate(&self, symbols: &[C64]) -> Vec<bool> {
        symbols.iter().flat_map(|&s| self.demap(s)).collect()
    }
}

/// Binary phase-shift keying: bit → ±1 on the real axis.
#[derive(Debug, Clone, Copy, Default)]
pub struct Bpsk;

impl Modulation for Bpsk {
    fn bits_per_symbol(&self) -> usize {
        1
    }

    fn map(&self, bits: &[bool]) -> C64 {
        if bits[0] {
            C64::real(1.0)
        } else {
            C64::real(-1.0)
        }
    }

    fn demap(&self, symbol: C64) -> Vec<bool> {
        vec![symbol.re >= 0.0]
    }
}

/// Quadrature PSK with Gray mapping: two bits per symbol on the unit circle.
#[derive(Debug, Clone, Copy, Default)]
pub struct Qpsk;

const QPSK_SCALE: f64 = std::f64::consts::FRAC_1_SQRT_2;

impl Modulation for Qpsk {
    fn bits_per_symbol(&self) -> usize {
        2
    }

    fn map(&self, bits: &[bool]) -> C64 {
        let i = if bits[0] { 1.0 } else { -1.0 };
        let q = if bits[1] { 1.0 } else { -1.0 };
        C64::new(i * QPSK_SCALE, q * QPSK_SCALE)
    }

    fn demap(&self, symbol: C64) -> Vec<bool> {
        vec![symbol.re >= 0.0, symbol.im >= 0.0]
    }
}

/// 16-QAM with Gray mapping per axis, normalised to unit average power.
#[derive(Debug, Clone, Copy, Default)]
pub struct Qam16;

/// Gray levels: 00→−3, 01→−1, 11→+1, 10→+3, scaled by 1/√10.
const QAM16_SCALE: f64 = 0.316_227_766_016_837_94; // 1/sqrt(10)

fn gray2_to_level(b0: bool, b1: bool) -> f64 {
    match (b0, b1) {
        (false, false) => -3.0,
        (false, true) => -1.0,
        (true, true) => 1.0,
        (true, false) => 3.0,
    }
}

fn level_to_gray2(x: f64) -> (bool, bool) {
    // Decision thresholds at −2, 0, +2 (scaled domain handled by caller).
    if x < -2.0 {
        (false, false)
    } else if x < 0.0 {
        (false, true)
    } else if x < 2.0 {
        (true, true)
    } else {
        (true, false)
    }
}

impl Modulation for Qam16 {
    fn bits_per_symbol(&self) -> usize {
        4
    }

    fn map(&self, bits: &[bool]) -> C64 {
        let i = gray2_to_level(bits[0], bits[1]);
        let q = gray2_to_level(bits[2], bits[3]);
        C64::new(i * QAM16_SCALE, q * QAM16_SCALE)
    }

    fn demap(&self, symbol: C64) -> Vec<bool> {
        let (b0, b1) = level_to_gray2(symbol.re / QAM16_SCALE);
        let (b2, b3) = level_to_gray2(symbol.im / QAM16_SCALE);
        vec![b0, b1, b2, b3]
    }
}

/// Bit-error count between transmitted and received bit streams (compares
/// the common prefix; length mismatches count as errors).
pub fn bit_errors(sent: &[bool], received: &[bool]) -> usize {
    let common = sent.len().min(received.len());
    let mismatched = sent.len().max(received.len()) - common;
    sent[..common]
        .iter()
        .zip(&received[..common])
        .filter(|(a, b)| a != b)
        .count()
        + mismatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::Rng64;

    fn random_bits(n: usize, rng: &mut Rng64) -> Vec<bool> {
        (0..n).map(|_| rng.chance(0.5)).collect()
    }

    fn roundtrip<M: Modulation>(m: &M, n_bits: usize, seed: u64) {
        let mut rng = Rng64::new(seed);
        let bits = random_bits(n_bits, &mut rng);
        let symbols = m.modulate(&bits);
        let back = m.demodulate(&symbols);
        assert_eq!(bit_errors(&bits, &back[..bits.len()]), 0);
    }

    #[test]
    fn bpsk_roundtrip() {
        roundtrip(&Bpsk, 1000, 1);
    }

    #[test]
    fn qpsk_roundtrip() {
        roundtrip(&Qpsk, 1000, 2);
    }

    #[test]
    fn qam16_roundtrip() {
        roundtrip(&Qam16, 1000, 3);
    }

    #[test]
    fn unit_average_power() {
        let mut rng = Rng64::new(4);
        for (name, m) in [
            ("bpsk", &Bpsk as &dyn Modulation),
            ("qpsk", &Qpsk),
            ("qam16", &Qam16),
        ] {
            let bits = random_bits(40_000, &mut rng);
            let symbols = m.modulate(&bits);
            let p: f64 = symbols.iter().map(|s| s.norm_sqr()).sum::<f64>() / symbols.len() as f64;
            assert!((p - 1.0).abs() < 0.02, "{name}: power {p}");
        }
    }

    #[test]
    fn gray_mapping_neighbours_differ_by_one_bit() {
        // Adjacent 16-QAM levels must decode to bit pairs at Hamming
        // distance 1 — the Gray property that bounds bit errors per symbol
        // error.
        let levels = [-3.0, -1.0, 1.0, 3.0];
        for w in levels.windows(2) {
            let a = level_to_gray2(w[0]);
            let b = level_to_gray2(w[1]);
            let dist = (a.0 != b.0) as usize + (a.1 != b.1) as usize;
            assert_eq!(dist, 1, "levels {w:?}");
        }
    }

    #[test]
    fn bpsk_tolerates_noise_below_threshold() {
        let mut rng = Rng64::new(5);
        let bits = random_bits(5000, &mut rng);
        let mut symbols = Bpsk.modulate(&bits);
        // 10 dB SNR: BPSK BER ≈ 4e-6; expect (almost) no errors in 5000.
        for s in symbols.iter_mut() {
            *s += rng.cn(0.1);
        }
        let back = Bpsk.demodulate(&symbols);
        assert!(bit_errors(&bits, &back) <= 1);
    }

    #[test]
    fn qam16_needs_more_snr_than_bpsk() {
        // At 10 dB, 16-QAM shows clearly more errors than BPSK — ordering
        // check on the implementations.
        let mut rng = Rng64::new(6);
        let bits = random_bits(40_000, &mut rng);
        let mut errs = Vec::new();
        for m in [&Bpsk as &dyn Modulation, &Qam16] {
            let mut symbols = m.modulate(&bits);
            for s in symbols.iter_mut() {
                *s += rng.cn(0.1);
            }
            errs.push(bit_errors(&bits, &m.demodulate(&symbols)[..bits.len()]));
        }
        assert!(
            errs[1] > errs[0] + 10,
            "bpsk {} vs qam16 {}",
            errs[0],
            errs[1]
        );
    }

    #[test]
    fn modulate_pads_partial_tail() {
        let symbols = Qam16.modulate(&[true, false, true]); // 3 bits, needs 4
        assert_eq!(symbols.len(), 1);
    }

    #[test]
    fn bit_errors_counts_length_mismatch() {
        assert_eq!(bit_errors(&[true, true], &[true]), 1);
        assert_eq!(bit_errors(&[true], &[true, false, false]), 2);
    }

    #[test]
    fn phase_rotation_confuses_unsynchronised_demod() {
        // Sanity: demod without channel correction fails under rotation —
        // the reason receivers estimate h and derotate (§6a works at the
        // spatial level, not by skipping equalisation).
        let bits = vec![true; 100];
        let symbols: Vec<C64> = Bpsk
            .modulate(&bits)
            .into_iter()
            .map(|s| s * C64::cis(std::f64::consts::PI))
            .collect();
        let back = Bpsk.demodulate(&symbols);
        assert_eq!(bit_errors(&bits, &back), 100);
    }
}
