//! Tolerance-based comparisons used across tests and iterative algorithms.

use crate::C64;

/// Absolute/relative hybrid comparison of real scalars.
///
/// Two values compare equal when their difference is below `tol` in absolute
/// terms, or below `tol` relative to the larger magnitude. This makes the
/// same tolerance usable for values of very different scales (e.g. SNRs in
/// linear units vs normalised channel entries).
///
/// No production caller: the unit tests of every crate share it as their tolerance check.
#[inline]
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

/// Complex analogue of [`approx_eq`], comparing in modulus.
///
/// No production caller: the unit tests of every crate share it as their tolerance check.
#[inline]
pub fn approx_eq_c(a: C64, b: C64, tol: f64) -> bool {
    let diff = (a - b).abs();
    if diff <= tol {
        return true;
    }
    let scale = a.abs().max(b.abs());
    diff <= tol * scale
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absolute_branch() {
        assert!(approx_eq(1e-12, 0.0, 1e-10));
        assert!(!approx_eq(1e-6, 0.0, 1e-10));
    }

    #[test]
    fn relative_branch() {
        assert!(approx_eq(1e9, 1e9 + 1.0, 1e-8));
        assert!(!approx_eq(1e9, 1.001e9, 1e-8));
    }

    #[test]
    fn complex_comparison() {
        let a = C64::new(1.0, 1.0);
        let b = C64::new(1.0, 1.0 + 1e-12);
        assert!(approx_eq_c(a, b, 1e-10));
        assert!(!approx_eq_c(a, C64::new(1.0, 1.1), 1e-10));
    }
}
