//! Dense complex vectors.
//!
//! Encoding vectors, decoding vectors, and per-antenna sample snapshots are
//! all `CVec`s. The inner product is Hermitian (`⟨a,b⟩ = Σ conj(aᵢ)·bᵢ`),
//! which is the physically meaningful one: projecting a received snapshot `y`
//! onto a decoding vector `u` is `⟨u, y⟩` and "orthogonal to the aligned
//! interference" (paper §4b) means that Hermitian product is zero.

use crate::small::Entries;
use crate::{LinAlgError, Result, Rng64, C64};
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};

/// A dense complex column vector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CVec {
    data: Entries,
}

impl CVec {
    /// Construct from parts.
    pub fn new(data: Vec<C64>) -> Self {
        Self {
            data: Entries::from_vec(data),
        }
    }

    /// All-zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Self {
            data: Entries::filled(n, C64::zero()),
        }
    }

    /// Standard basis vector `e_k` of dimension `n`.
    ///
    /// Transmitting packet `i` "on antenna `i`" is precoding with `e_i`
    /// (paper §4b: "this is equivalent to multiplying the samples in the
    /// packet by the unit vector [1 0]ᵀ").
    pub fn basis(n: usize, k: usize) -> Self {
        assert!(k < n, "basis index {k} out of range for dimension {n}");
        let mut v = Self::zeros(n);
        v[k] = C64::one();
        v
    }

    /// Construct from real parts.
    #[cfg(test)]
    pub(crate) fn from_real(xs: &[f64]) -> Self {
        xs.iter().map(|&x| C64::real(x)).collect()
    }

    /// Build with a function of the index.
    pub(crate) fn from_fn(n: usize, mut f: impl FnMut(usize) -> C64) -> Self {
        (0..n).map(&mut f).collect()
    }

    /// i.i.d. `CN(0,1)` entries — the "random (but unequal) values" the paper
    /// uses to seed the alignment equations (§4b).
    pub fn random(n: usize, rng: &mut Rng64) -> Self {
        Self::from_fn(n, |_| rng.cn01())
    }

    /// A random unit-norm vector.
    pub fn random_unit(n: usize, rng: &mut Rng64) -> Self {
        loop {
            let v = Self::random(n, rng);
            if v.norm() > 1e-6 {
                return v.normalized();
            }
        }
    }

    /// Dimension.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the vector has no entries.
    ///
    /// No production caller: kept beside the public `len`, as clippy's `len_without_is_empty` asks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the underlying storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// Mutably borrow the underlying storage.
    #[inline]
    pub(crate) fn as_mut_slice(&mut self) -> &mut [C64] {
        &mut self.data
    }

    /// Resize to dimension `n`, zero-filling any new entries (a no-op when
    /// the dimension already matches — reused buffers never reallocate).
    pub(crate) fn resize(&mut self, n: usize) {
        self.data.resize(n);
    }

    /// Hermitian inner product `⟨self, other⟩ = Σ conj(selfᵢ)·otherᵢ`.
    pub fn dot(&self, other: &Self) -> C64 {
        assert_eq!(self.len(), other.len(), "dot of mismatched dimensions");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Squared Euclidean norm (total power across antennas).
    pub fn norm_sqr(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Unit-norm copy. Errors on (near-)zero input.
    pub fn normalize(&self) -> Result<Self> {
        let n = self.norm();
        if n < 1e-300 {
            return Err(LinAlgError::Degenerate("normalising a zero vector"));
        }
        Ok(self.scale(1.0 / n))
    }

    /// Unit-norm copy; panics on zero input (use [`CVec::normalize`] where
    /// zero is a legitimate possibility).
    pub(crate) fn normalized(&self) -> Self {
        self.normalize().expect("normalized() on zero vector")
    }

    /// Scale by a real factor.
    pub fn scale(&self, k: f64) -> Self {
        self.data.iter().map(|z| z.scale(k)).collect()
    }

    /// Scale by a complex factor.
    pub fn scale_c(&self, k: C64) -> Self {
        self.data.iter().map(|z| *z * k).collect()
    }

    /// Elementwise conjugate.
    pub fn conj(&self) -> Self {
        self.data.iter().map(|z| z.conj()).collect()
    }

    /// `self += k·other` in place.
    pub(crate) fn axpy(&mut self, k: C64, other: &Self) {
        assert_eq!(self.len(), other.len(), "axpy of mismatched dimensions");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += k * *b;
        }
    }

    /// For a 2-dimensional vector, the (unique up to phase) unit vector
    /// orthogonal to it under the Hermitian product.
    ///
    /// This is the decoding vector of the 2×2 examples: to decode `p1` the AP
    /// "projects on a vector orthogonal to H[0 1]ᵀ" (paper §4a).
    pub fn orth_2d(&self) -> Result<Self> {
        if self.len() != 2 {
            return Err(LinAlgError::ShapeMismatch {
                expected: (2, 1),
                got: (self.len(), 1),
            });
        }
        let v: Self = [-self.data[1].conj(), self.data[0].conj()]
            .into_iter()
            .collect();
        v.normalize()
    }

    /// `|⟨a,b⟩| / (‖a‖·‖b‖)` in `[0,1]`: 1 when the vectors are aligned
    /// (parallel up to a complex scalar), 0 when orthogonal. This is the
    /// quantity interference alignment drives to 1 at the aligning AP —
    /// scaling by `e^{j2π(Δf1−Δf2)t}` leaves it untouched, which is the §6a
    /// frequency-offset argument.
    pub fn alignment_with(&self, other: &Self) -> f64 {
        let na = self.norm();
        let nb = other.norm();
        if na < 1e-300 || nb < 1e-300 {
            return 0.0;
        }
        (self.dot(other).abs() / (na * nb)).min(1.0)
    }
}

/// Collects straight into the vector's storage: up to four entries stay off
/// the heap.
impl FromIterator<C64> for CVec {
    fn from_iter<I: IntoIterator<Item = C64>>(iter: I) -> Self {
        Self {
            data: iter.into_iter().collect(),
        }
    }
}

impl Index<usize> for CVec {
    type Output = C64;
    #[inline]
    fn index(&self, i: usize) -> &C64 {
        &self.data[i]
    }
}

impl IndexMut<usize> for CVec {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut C64 {
        &mut self.data[i]
    }
}

impl Add for &CVec {
    type Output = CVec;
    fn add(self, rhs: &CVec) -> CVec {
        assert_eq!(self.len(), rhs.len(), "adding mismatched dimensions");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| *a + *b)
            .collect()
    }
}

impl Sub for &CVec {
    type Output = CVec;
    fn sub(self, rhs: &CVec) -> CVec {
        assert_eq!(self.len(), rhs.len(), "subtracting mismatched dimensions");
        self.data
            .iter()
            .zip(rhs.data.iter())
            .map(|(a, b)| *a - *b)
            .collect()
    }
}

impl Neg for &CVec {
    type Output = CVec;
    fn neg(self) -> CVec {
        self.data.iter().map(|z| -*z).collect()
    }
}

impl Mul<C64> for &CVec {
    type Output = CVec;
    fn mul(self, k: C64) -> CVec {
        self.scale_c(k)
    }
}

impl std::fmt::Display for CVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, z) in self.data.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{z}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approx_eq, approx_eq_c};

    fn v(xs: &[(f64, f64)]) -> CVec {
        CVec::new(xs.iter().map(|&(r, i)| C64::new(r, i)).collect())
    }

    #[test]
    fn basis_vectors() {
        let e0 = CVec::basis(3, 0);
        let e2 = CVec::basis(3, 2);
        assert_eq!(e0[0], C64::one());
        assert_eq!(e0[1], C64::zero());
        assert!(approx_eq_c(e0.dot(&e2), C64::zero(), 1e-15));
        assert!(approx_eq(e0.norm(), 1.0, 1e-15));
    }

    #[test]
    fn hermitian_dot_is_conjugate_symmetric() {
        let a = v(&[(1.0, 2.0), (-0.5, 0.25)]);
        let b = v(&[(0.0, -1.0), (2.0, 2.0)]);
        let ab = a.dot(&b);
        let ba = b.dot(&a);
        assert!(approx_eq_c(ab, ba.conj(), 1e-12));
    }

    #[test]
    fn dot_with_self_is_norm_sqr() {
        let a = v(&[(3.0, -4.0), (1.0, 1.0)]);
        let d = a.dot(&a);
        assert!(approx_eq(d.re, a.norm_sqr(), 1e-12));
        assert!(d.im.abs() < 1e-12);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let a = v(&[(3.0, 0.0), (0.0, 4.0)]);
        let u = a.normalize().unwrap();
        assert!(approx_eq(u.norm(), 1.0, 1e-12));
        // Direction preserved: alignment 1.
        assert!(approx_eq(u.alignment_with(&a), 1.0, 1e-12));
    }

    #[test]
    fn normalize_zero_errors() {
        assert!(CVec::zeros(2).normalize().is_err());
    }

    #[test]
    fn orth_2d_is_orthogonal_unit() {
        let mut rng = Rng64::new(17);
        for _ in 0..50 {
            let a = CVec::random(2, &mut rng);
            let o = a.orth_2d().unwrap();
            assert!(a.dot(&o).abs() < 1e-10, "not orthogonal");
            assert!(approx_eq(o.norm(), 1.0, 1e-12));
        }
    }

    #[test]
    fn orth_2d_wrong_dim_errors() {
        assert!(CVec::zeros(3).orth_2d().is_err());
    }

    #[test]
    fn alignment_invariant_under_complex_scaling() {
        // The §6a lesson: multiplying one vector by e^{jθ} (CFO rotation)
        // leaves spatial alignment untouched.
        let mut rng = Rng64::new(23);
        let a = CVec::random(2, &mut rng);
        let rotated = a.scale_c(C64::cis(1.234)).scale(0.37);
        assert!(approx_eq(a.alignment_with(&rotated), 1.0, 1e-12));
    }

    #[test]
    fn alignment_of_orthogonal_is_zero() {
        let a = CVec::basis(2, 0);
        let b = CVec::basis(2, 1);
        assert!(a.alignment_with(&b) < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = CVec::zeros(3);
        let b = CVec::from_real(&[1.0, 2.0, 3.0]);
        a.axpy(C64::new(0.0, 1.0), &b);
        a.axpy(C64::real(2.0), &b);
        assert!(approx_eq_c(a[2], C64::new(6.0, 3.0), 1e-12));
    }

    #[test]
    fn random_unit_is_unit() {
        let mut rng = Rng64::new(31);
        for _ in 0..20 {
            let u = CVec::random_unit(3, &mut rng);
            assert!(approx_eq(u.norm(), 1.0, 1e-12));
        }
    }

    #[test]
    fn arithmetic_ops() {
        let a = CVec::from_real(&[1.0, 2.0]);
        let b = CVec::from_real(&[10.0, 20.0]);
        let s = &a + &b;
        let d = &b - &a;
        let n = -&a;
        assert_eq!(s[1], C64::real(22.0));
        assert_eq!(d[0], C64::real(9.0));
        assert_eq!(n[0], C64::real(-1.0));
    }
}
