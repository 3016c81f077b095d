//! Preambles: known symbol sequences for channel estimation.
//!
//! The paper uses a 32-bit preamble (§10c). Receivers find packet starts with
//! it and use the known symbols to estimate the channel (§8a); the simulated
//! receivers know the packet starts, so only the estimation role is modelled
//! here. For MIMO training the antennas take turns
//! (time-orthogonal preambles) so the per-antenna coefficients separate —
//! "standard MIMO channel estimation \[2\]".

use iac_linalg::C64;

/// A PN preamble of BPSK symbols.
#[derive(Debug, Clone, PartialEq)]
pub struct Preamble {
    chips: Vec<f64>, // ±1
}

impl Preamble {
    /// The paper's 32-chip preamble, generated from a maximal-length LFSR
    /// (x⁵+x³+1) so the autocorrelation is sharply peaked.
    pub fn paper_default() -> Self {
        Self::from_lfsr(32, 0b1_0101)
    }

    /// Generate `n` chips from a 5-bit LFSR with the given nonzero seed.
    pub fn from_lfsr(n: usize, seed: u8) -> Self {
        assert!(seed & 0x1F != 0, "LFSR seed must be nonzero in 5 bits");
        let mut state = seed & 0x1F;
        let chips = (0..n)
            .map(|_| {
                let out = state & 1;
                let feedback = (state ^ (state >> 2)) & 1; // x^5 + x^3 + 1
                state = (state >> 1) | (feedback << 4);
                if out == 1 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        Self { chips }
    }

    /// Length in chips/samples.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// True when empty (never for generated preambles).
    ///
    /// No production caller: kept beside the public `len`, as clippy's `len_without_is_empty` asks.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The preamble as complex baseband samples.
    pub fn samples(&self) -> Vec<C64> {
        self.chips.iter().map(|&c| C64::real(c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preamble_is_32_chips() {
        let p = Preamble::paper_default();
        assert_eq!(p.len(), 32);
        assert!(!p.is_empty());
    }

    #[test]
    fn lfsr_is_balanced_enough() {
        // A maximal-length sequence has nearly equal +1/−1 counts.
        let p = Preamble::from_lfsr(31, 0b1_0101);
        let sum: f64 = p.chips.iter().sum();
        assert!(sum.abs() <= 3.0, "unbalanced: sum {sum}");
    }

    #[test]
    fn autocorrelation_peaks_at_zero_lag() {
        // One period of the maximal-length sequence: its periodic
        // autocorrelation is 31 at lag 0 and −1 at every other lag.
        let p = Preamble::from_lfsr(31, 0b1_0101);
        let c = &p.chips;
        let at = |lag: usize| -> f64 { (0..31).map(|k| c[k] * c[(k + lag) % 31]).sum() };
        assert_eq!(at(0), 31.0);
        for lag in 1..31 {
            assert_eq!(at(lag), -1.0, "lag {lag}");
        }
    }

    #[test]
    #[should_panic(expected = "seed must be nonzero")]
    fn zero_seed_rejected() {
        let _ = Preamble::from_lfsr(8, 0);
    }
}
