//! Small-scale fading models.
//!
//! Indoor non-line-of-sight links between half-wavelength-spaced antennas are
//! well modelled by i.i.d. Rayleigh fading: each entry of `H` is `CN(0,1)`.
//! Entries are normalised to unit average power so that large-scale gain is
//! applied separately by the link budget ([`crate::pathloss`]).

use iac_linalg::{CMat, Rng64};

/// Draw an `rx×tx` Rayleigh block-fading channel: i.i.d. `CN(0,1)` entries.
pub fn rayleigh(rx: usize, tx: usize, rng: &mut Rng64) -> CMat {
    CMat::random(rx, tx, rng)
}

/// Rayleigh draw rejected until the condition number is below `max_cond`.
///
/// The paper's footnote 3: "channel matrices are typically invertible because
/// the antennas are chosen to be more than half a wavelength apart. If the
/// matrix is not invertible, then you don't really have a MIMO system." The
/// solvers in `iac-core` invert channels, so the testbed generator mirrors
/// the physical guarantee by rejecting the (measure-zero, but numerically
/// possible) nearly-singular draws.
pub fn well_conditioned_rayleigh(rx: usize, tx: usize, max_cond: f64, rng: &mut Rng64) -> CMat {
    assert!(max_cond > 1.0, "condition bound must exceed 1");
    loop {
        let h = rayleigh(rx, tx, rng);
        if h.condition_number_at_most(max_cond) {
            return h;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::C64;

    #[test]
    fn rayleigh_unit_average_power() {
        let mut rng = Rng64::new(1);
        let n = 2000;
        let mut power = 0.0;
        for _ in 0..n {
            let h = rayleigh(2, 2, &mut rng);
            power += h.frobenius_norm().powi(2) / 4.0;
        }
        let avg = power / n as f64;
        assert!((avg - 1.0).abs() < 0.05, "average entry power {avg}");
    }

    #[test]
    fn rayleigh_entries_uncorrelated() {
        let mut rng = Rng64::new(2);
        let n = 5000;
        let mut cross = C64::zero();
        for _ in 0..n {
            let h = rayleigh(2, 2, &mut rng);
            cross += h[(0, 0)] * h[(1, 1)].conj();
        }
        assert!(
            (cross.abs() / n as f64) < 0.05,
            "cross-correlation {}",
            cross.abs() / n as f64
        );
    }

    #[test]
    fn well_conditioned_respects_bound() {
        let mut rng = Rng64::new(7);
        for _ in 0..100 {
            let h = well_conditioned_rayleigh(2, 2, 20.0, &mut rng);
            assert!(h.condition_number() <= 20.0);
        }
    }

    #[test]
    fn well_conditioned_is_invertible() {
        let mut rng = Rng64::new(8);
        for _ in 0..50 {
            let h = well_conditioned_rayleigh(3, 3, 50.0, &mut rng);
            assert!(h.inverse().is_ok());
        }
    }
}
