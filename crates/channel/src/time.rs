//! Temporal channel evolution.
//!
//! The paper tracks channels from ack packets and notes that "in static
//! environments the channel is relatively stable and can be easily tracked at
//! this estimation frequency" (§8a). The standard first-order Gauss–Markov
//! model captures exactly that: a correlation coefficient `ρ` close to 1
//! between consecutive slots, with a white innovation keeping the marginal
//! statistics Rayleigh.

use iac_linalg::{CMat, Rng64};

/// First-order autoregressive channel evolution:
/// `H[t+1] = ρ·H[t] + sqrt(1−ρ²)·W`, `W` i.i.d. `CN(0, σ²)` per entry, with
/// `σ²` matching the steady-state per-entry power so the marginal
/// distribution is invariant.
#[derive(Debug, Clone)]
pub struct Ar1Evolution {
    /// Slot-to-slot correlation in `[0, 1]`. `1` = static channel.
    pub rho: f64,
    /// Steady-state per-entry power (1.0 for unit-power Rayleigh before
    /// large-scale gain).
    pub entry_power: f64,
}

impl Ar1Evolution {
    /// Construct with explicit parameters. Public without a production
    /// caller yet: the planned channel-coherence ablation (ROADMAP.md) uses it.
    pub fn new(rho: f64, entry_power: f64) -> Self {
        assert!((0.0..=1.0).contains(&rho), "rho must be in [0,1]");
        assert!(entry_power > 0.0, "entry power must be positive");
        Self { rho, entry_power }
    }

    /// Advance a channel one slot in place. Public for the same planned
    /// coherence ablation as [`Ar1Evolution::new`].
    pub fn step(&self, h: &mut CMat, rng: &mut Rng64) {
        let innov = (1.0 - self.rho * self.rho).sqrt() * self.entry_power.sqrt();
        for r in 0..h.rows() {
            for c in 0..h.cols() {
                h[(r, c)] = h[(r, c)].scale(self.rho) + rng.cn01() * innov;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_channel_never_changes() {
        let model = Ar1Evolution::new(1.0, 1.0);
        let mut rng = Rng64::new(1);
        let h0 = CMat::random(2, 2, &mut rng);
        let mut h = h0.clone();
        for _ in 0..10 {
            model.step(&mut h, &mut rng);
        }
        assert!((&h - &h0).frobenius_norm() < 1e-12);
    }

    #[test]
    fn zero_rho_is_iid_redraw() {
        let model = Ar1Evolution::new(0.0, 1.0);
        let mut rng = Rng64::new(2);
        let h0 = CMat::random(2, 2, &mut rng);
        let mut h = h0.clone();
        model.step(&mut h, &mut rng);
        // Should be completely decorrelated: difference is O(1), not 0.
        assert!((&h - &h0).frobenius_norm() > 0.1);
    }

    #[test]
    fn marginal_power_is_invariant() {
        let model = Ar1Evolution::new(0.995, 1.0);
        let mut rng = Rng64::new(3);
        let mut h = CMat::random(2, 2, &mut rng);
        let mut acc = 0.0;
        let steps = 20_000;
        for _ in 0..steps {
            model.step(&mut h, &mut rng);
            acc += h.frobenius_norm().powi(2) / 4.0;
        }
        let avg = acc / steps as f64;
        assert!((avg - 1.0).abs() < 0.15, "steady-state power {avg}");
    }

    #[test]
    fn correlation_decays_geometrically() {
        let rho: f64 = 0.9;
        let model = Ar1Evolution::new(rho, 1.0);
        let mut rng = Rng64::new(4);
        // Correlation between H[0] and H[k] should be ≈ ρ^k.
        let trials = 3000;
        let k = 5;
        let mut corr = 0.0;
        let mut power = 0.0;
        for _ in 0..trials {
            let h0 = CMat::random(1, 1, &mut rng);
            let mut h = h0.clone();
            for _ in 0..k {
                model.step(&mut h, &mut rng);
            }
            corr += (h0[(0, 0)].conj() * h[(0, 0)]).re;
            power += h0[(0, 0)].norm_sqr();
        }
        let measured = corr / power;
        assert!(
            (measured - rho.powi(k)).abs() < 0.07,
            "measured {measured}, expected {}",
            rho.powi(k)
        );
    }

    #[test]
    #[should_panic(expected = "rho must be in")]
    fn invalid_rho_rejected() {
        let _ = Ar1Evolution::new(1.5, 1.0);
    }
}
