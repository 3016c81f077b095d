//! Complex `f64` scalar.
//!
//! A small, fully-owned complex type. The paper's signal model works in the
//! complex baseband: every channel coefficient `h_ij` is "a complex number
//! whose magnitude and angle refer to the attenuation and the delay along the
//! path" (§4a), and every transmitted sample is a point in the I-Q plane.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` parts.
///
/// The real part is the I (in-phase) component and the imaginary part the Q
/// (quadrature) component when the value represents a radio sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct C64 {
    /// Real / in-phase component.
    pub re: f64,
    /// Imaginary / quadrature component.
    pub im: f64,
}

impl C64 {
    /// Construct from rectangular components.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    #[inline]
    pub const fn zero() -> Self {
        Self::new(0.0, 0.0)
    }

    /// The multiplicative identity.
    #[inline]
    pub const fn one() -> Self {
        Self::new(1.0, 0.0)
    }

    /// A purely real value.
    #[inline]
    pub const fn real(re: f64) -> Self {
        Self::new(re, 0.0)
    }

    /// Construct from polar form `r·e^{jθ}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Self::new(r * theta.cos(), r * theta.sin())
    }

    /// The unit phasor `e^{jθ}`. This is the rotation applied by a carrier
    /// frequency offset after time `t`: `e^{j2πΔf t}` (paper §6a).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Self::from_polar(1.0, theta)
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Self::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|²` — the instantaneous power of a sample.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse. Returns `None` for (near-)zero input rather
    /// than silently producing infinities.
    #[inline]
    pub fn recip(self) -> Option<Self> {
        let d = self.norm_sqr();
        if d == 0.0 || !d.is_finite() {
            None
        } else {
            Some(Self::new(self.re / d, -self.im / d))
        }
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        if r == 0.0 {
            return Self::zero();
        }
        // sqrt in polar form, with a branch cut on the negative real axis.
        let theta = self.arg() / 2.0;
        Self::from_polar(r.sqrt(), theta)
    }

    /// Scale by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Self::new(self.re * k, self.im * k)
    }

    /// True when both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }

    /// Fused multiply-add: `self * b + c`. The workhorse of every inner loop
    /// in the sample-level simulator. Both components are full FMA chains
    /// (two fused ops each, no separate rounding of the products), which is
    /// both faster and one rounding step more accurate than `self * b + c`.
    #[inline]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        Self::new(
            self.re.mul_add(b.re, self.im.mul_add(-b.im, c.re)),
            self.re.mul_add(b.im, self.im.mul_add(b.re, c.im)),
        )
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        Self::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        Self::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        Self::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for C64 {
    type Output = C64;
    /// Smith's algorithm: avoids overflow/underflow for extreme magnitudes.
    fn div(self, rhs: Self) -> Self {
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Self::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Self::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> Self {
        Self::new(-self.re, -self.im)
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> Self {
        self.scale(rhs)
    }
}

impl Mul<C64> for f64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        rhs.scale(self)
    }
}

impl Div<f64> for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: f64) -> Self {
        Self::new(self.re / rhs, self.im / rhs)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl DivAssign for C64 {
    #[inline]
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl Sum for C64 {
    fn sum<I: Iterator<Item = C64>>(iter: I) -> Self {
        iter.fold(C64::zero(), |a, b| a + b)
    }
}

impl From<f64> for C64 {
    #[inline]
    fn from(re: f64) -> Self {
        Self::real(re)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.4}+{:.4}j", self.re, self.im)
        } else {
            write!(f, "{:.4}-{:.4}j", self.re, -self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq_c;

    #[test]
    fn construction_and_identities() {
        assert_eq!(C64::zero() + C64::one(), C64::one());
        let i = C64::new(0.0, 1.0);
        assert_eq!(C64::one() * i, i);
        assert_eq!(i * i, C64::real(-1.0));
        assert_eq!(C64::from(3.5), C64::new(3.5, 0.0));
    }

    #[test]
    fn polar_roundtrip() {
        let z = C64::from_polar(2.0, 0.7);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn cis_is_unit_magnitude() {
        for k in 0..100 {
            let z = C64::cis(k as f64 * 0.37);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn conjugate_properties() {
        let z = C64::new(1.2, -3.4);
        assert_eq!(z.conj().conj(), z);
        let w = z * z.conj();
        assert!((w.re - z.norm_sqr()).abs() < 1e-12);
        assert!(w.im.abs() < 1e-12);
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = C64::new(2.0, -1.0);
        let b = C64::new(-0.5, 3.0);
        let c = a * b / b;
        assert!(approx_eq_c(c, a, 1e-12));
    }

    #[test]
    fn division_handles_extreme_magnitudes() {
        let a = C64::new(1e-150, 1e-150);
        let b = C64::new(1e150, 1e150);
        let q = a / b;
        assert!(q.is_finite());
        // |a/b| = |a|/|b| = 1e-300; representable as subnormal-ish zero-ish.
        assert!(q.abs() <= 1e-299);
    }

    #[test]
    fn recip_of_zero_is_none() {
        assert!(C64::zero().recip().is_none());
        let z = C64::new(0.0, 2.0);
        let r = z.recip().unwrap();
        assert!(approx_eq_c(z * r, C64::one(), 1e-12));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-1.0, 0.0), (3.0, -4.0), (0.0, 2.0)] {
            let z = C64::new(re, im);
            let s = z.sqrt();
            assert!(approx_eq_c(s * s, z, 1e-10), "sqrt({z})={s}");
        }
    }

    #[test]
    fn mul_add_matches_expanded_form() {
        let a = C64::new(1.5, -0.5);
        let b = C64::new(0.25, 2.0);
        let c = C64::new(-3.0, 1.0);
        assert!(approx_eq_c(a.mul_add(b, c), a * b + c, 1e-12));
    }

    #[test]
    fn sum_over_iterator() {
        let total: C64 = (0..10).map(|k| C64::new(k as f64, -(k as f64))).sum();
        assert_eq!(total, C64::new(45.0, -45.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", C64::new(1.0, -2.0)), "1.0000-2.0000j");
        assert_eq!(format!("{}", C64::new(1.0, 2.0)), "1.0000+2.0000j");
    }
}
