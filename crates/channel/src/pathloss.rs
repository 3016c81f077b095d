//! Large-scale path loss and dB bookkeeping.
//!
//! The figures in the paper put the 802.11-MIMO baseline between roughly 4 and
//! 13 b/s/Hz for two streams, i.e. per-stream SNRs of about 5–25 dB across the
//! testbed. The log-distance model here, with the default calibration used by
//! `iac-sim`, reproduces that spread.

/// Convert decibels to a linear power ratio.
#[inline]
pub fn db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Convert a linear power ratio to decibels.
///
/// No production caller: public for `crates/channel/tests/properties.rs`.
#[inline]
pub fn linear_to_db(linear: f64) -> f64 {
    10.0 * linear.log10()
}

/// Log-distance path-loss model:
/// `PL(d) = PL(d0) + 10·n·log10(d/d0)` (in dB).
#[derive(Debug, Clone)]
pub struct LogDistance {
    /// Reference distance `d0` in metres.
    pub d0_m: f64,
    /// Path loss at the reference distance, in dB.
    pub pl0_db: f64,
    /// Path-loss exponent `n` (2 = free space; 2.5–4 indoors).
    pub exponent: f64,
}

impl LogDistance {
    /// Indoor office defaults (d0 = 1 m, PL0 = 40 dB, n = 3).
    ///
    /// No production caller: public for `crates/channel/tests/properties.rs`.
    pub fn indoor() -> Self {
        Self {
            d0_m: 1.0,
            pl0_db: 40.0,
            exponent: 3.0,
        }
    }

    /// Path loss in dB at distance `d_m` metres. Distances below `d0` clamp
    /// to `d0` (near-field behaviour is out of scope for this model).
    pub fn loss_db(&self, d_m: f64) -> f64 {
        let d = d_m.max(self.d0_m);
        self.pl0_db + 10.0 * self.exponent * (d / self.d0_m).log10()
    }

    /// Average per-link SNR in dB for a given link budget.
    pub(crate) fn snr_db(&self, d_m: f64, budget_db: f64) -> f64 {
        budget_db - self.loss_db(d_m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_roundtrip() {
        for &db in &[-30.0, 0.0, 3.0, 10.0, 25.5] {
            let back = linear_to_db(db_to_linear(db));
            assert!((back - db).abs() < 1e-10);
        }
    }

    #[test]
    fn three_db_is_factor_two() {
        assert!((db_to_linear(3.0103) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn loss_increases_with_distance() {
        let pl = LogDistance::indoor();
        assert!(pl.loss_db(10.0) > pl.loss_db(5.0));
        assert!(pl.loss_db(5.0) > pl.loss_db(1.0));
    }

    #[test]
    fn loss_slope_matches_exponent() {
        let pl = LogDistance::indoor();
        // Doubling distance adds 10·n·log10(2) ≈ 9.03 dB at n = 3.
        let delta = pl.loss_db(8.0) - pl.loss_db(4.0);
        assert!((delta - 30.0 * 2f64.log10()).abs() < 1e-9);
    }

    #[test]
    fn near_field_clamps() {
        let pl = LogDistance::indoor();
        assert_eq!(pl.loss_db(0.01), pl.loss_db(1.0));
    }

    #[test]
    fn paper_band_is_reachable() {
        // With the default indoor model and a 110 dB budget, distances 3–20 m
        // span roughly 25 dB down to 10 dB — the paper's observed band.
        let pl = LogDistance::indoor();
        let hi = pl.snr_db(3.0, 110.0);
        let lo = pl.snr_db(20.0, 110.0);
        assert!(hi > 20.0 && hi < 60.0, "hi {hi}");
        assert!(lo > 3.0 && lo < hi, "lo {lo}");
    }
}
