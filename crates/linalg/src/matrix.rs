//! Dense complex matrices (row-major).
//!
//! Channel matrices `H`, calibration matrices, precoders and projectors are
//! all `CMat`s. Matrices in this workspace are small (antennas-per-node
//! squared), so the operations are written for clarity and robustness.

use crate::small::Entries;
use crate::{CVec, LinAlgError, Result, Rng64, C64};
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// A dense complex matrix with row-major storage (a 2×2 matrix is stored
/// inline, off the heap).
#[derive(Debug, Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Entries,
}

impl CMat {
    /// Construct from explicit storage (row-major, length `rows·cols`).
    #[cfg(test)]
    pub(crate) fn new(rows: usize, cols: usize, data: Vec<C64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "storage length {} does not match {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            data: Entries::from_vec(data),
        }
    }

    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: Entries::filled(rows * cols, C64::zero()),
        }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = C64::one();
        }
        m
    }

    /// Build with a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> C64) -> Self {
        Self {
            rows,
            cols,
            data: (0..rows * cols).map(|i| f(i / cols, i % cols)).collect(),
        }
    }

    /// Build from columns.
    pub fn from_cols(cols: &[CVec]) -> Self {
        assert!(!cols.is_empty(), "from_cols needs at least one column");
        let rows = cols[0].len();
        assert!(
            cols.iter().all(|c| c.len() == rows),
            "ragged columns in from_cols"
        );
        Self::from_fn(rows, cols.len(), |r, c| cols[c][r])
    }

    /// Diagonal matrix from the given entries.
    pub fn diag(entries: &[C64]) -> Self {
        let n = entries.len();
        let mut m = Self::zeros(n, n);
        for (i, &e) in entries.iter().enumerate() {
            m[(i, i)] = e;
        }
        m
    }

    /// i.i.d. `CN(0,1)` entries — a Rayleigh-fading channel draw.
    pub fn random(rows: usize, cols: usize, rng: &mut Rng64) -> Self {
        Self::from_fn(rows, cols, |_, _| rng.cn01())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True when the matrix is square.
    #[inline]
    pub(crate) fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow raw storage.
    #[inline]
    pub fn as_slice(&self) -> &[C64] {
        &self.data
    }

    /// The entries of a 2×2 matrix, row-major; `None` for any other shape.
    #[inline]
    pub fn as_2x2(&self) -> Option<&[C64; 4]> {
        if self.shape() == (2, 2) {
            (*self.data).try_into().ok()
        } else {
            None
        }
    }

    /// A 2×2 matrix from its entries, row-major.
    #[inline]
    pub(crate) fn from_2x2(entries: [C64; 4]) -> Self {
        Self {
            rows: 2,
            cols: 2,
            data: entries.into_iter().collect(),
        }
    }

    /// Extract row `r` as a vector.
    pub fn row(&self, r: usize) -> CVec {
        assert!(r < self.rows);
        self.data[r * self.cols..(r + 1) * self.cols]
            .iter()
            .copied()
            .collect()
    }

    /// Extract column `c` as a vector.
    pub fn col(&self, c: usize) -> CVec {
        assert!(c < self.cols);
        CVec::from_fn(self.rows, |r| self[(r, c)])
    }

    /// Replace column `c`.
    pub fn set_col(&mut self, c: usize, v: &CVec) {
        assert_eq!(v.len(), self.rows, "set_col dimension mismatch");
        for r in 0..self.rows {
            self[(r, c)] = v[r];
        }
    }

    /// Transpose (no conjugation). Channel reciprocity relates uplink and
    /// downlink through the plain transpose: `(H^d)ᵀ = C_rx Hᵘ C_tx`
    /// (paper Eq. 8), so both transpose flavours matter here.
    pub fn transpose(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Conjugate (Hermitian) transpose `Aᴴ`.
    pub fn hermitian(&self) -> Self {
        Self::from_fn(self.cols, self.rows, |r, c| self[(c, r)].conj())
    }

    /// Matrix-vector product `A·x`.
    pub fn mul_vec(&self, x: &CVec) -> CVec {
        let mut out = CVec::zeros(self.rows);
        self.mul_vec_into(x, &mut out);
        out
    }

    /// [`CMat::mul_vec`] into a caller-owned vector (resized to `rows` only
    /// when it does not already fit, so a reused buffer never reallocates).
    pub fn mul_vec_into(&self, x: &CVec, out: &mut CVec) {
        assert_eq!(
            x.len(),
            self.cols,
            "mul_vec: {}x{} by vector of length {}",
            self.rows,
            self.cols,
            x.len()
        );
        out.resize(self.rows);
        let xs = x.as_slice();
        for (row, o) in self.data.chunks_exact(self.cols).zip(out.as_mut_slice()) {
            let mut acc = C64::zero();
            for (&a, &xc) in row.iter().zip(xs) {
                acc = a.mul_add(xc, acc);
            }
            *o = acc;
        }
    }

    /// Matrix product `A·B`: i-k-j loop order over the raw row-major slices,
    /// so the inner loop walks both `B`'s row and the output row
    /// sequentially (cache-friendly, `mul_add` accumulation, no per-element
    /// index arithmetic).
    pub fn mul_mat(&self, b: &Self) -> Self {
        assert_eq!(
            self.cols, b.rows,
            "mul_mat: {}x{} by {}x{}",
            self.rows, self.cols, b.rows, b.cols
        );
        let mut out = Self::zeros(self.rows, b.cols);
        for (arow, orow) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(b.cols))
        {
            for (&a, brow) in arow.iter().zip(b.data.chunks_exact(b.cols)) {
                for (o, &x) in orow.iter_mut().zip(brow) {
                    *o = a.mul_add(x, *o);
                }
            }
        }
        out
    }

    /// Scale by a complex factor.
    pub(crate) fn scale_c(&self, k: C64) -> Self {
        Self::from_fn(self.rows, self.cols, |r, c| self[(r, c)] * k)
    }

    /// Scale by a real factor.
    pub fn scale(&self, k: f64) -> Self {
        self.scale_c(C64::real(k))
    }

    /// Trace (sum of diagonal entries).
    ///
    /// No production caller: public for `crates/linalg/tests/properties.rs`.
    pub fn trace(&self) -> C64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm `‖A‖_F`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub(crate) fn norm_inf(&self) -> f64 {
        self.data.iter().map(|z| z.abs()).fold(0.0, f64::max)
    }

    /// Matrix inverse via LU (a 2×2 takes a straight-line copy of the same
    /// operations, bit for bit).
    pub fn inverse(&self) -> Result<Self> {
        if self.shape() == (2, 2) {
            return crate::lu::inverse2(self);
        }
        crate::lu::Lu::factor(self)?.inverse()
    }

    /// Determinant via LU.
    ///
    /// No production caller: public for `crates/linalg/tests/properties.rs`.
    pub fn det(&self) -> Result<C64> {
        if !self.is_square() {
            return Err(LinAlgError::ShapeMismatch {
                expected: (self.rows, self.rows),
                got: (self.rows, self.cols),
            });
        }
        match crate::lu::Lu::factor(self) {
            Ok(lu) => Ok(lu.det()),
            Err(LinAlgError::Singular) => Ok(C64::zero()),
            Err(e) => Err(e),
        }
    }

    /// Numerical rank via singular values above `tol·σ_max`.
    ///
    /// No production caller: public for `crates/channel/tests/properties.rs`.
    pub fn rank(&self, tol: f64) -> usize {
        let svd = crate::svd::Svd::compute(self);
        let smax = svd.singular_values.first().copied().unwrap_or(0.0);
        if smax <= 0.0 {
            return 0;
        }
        svd.singular_values
            .iter()
            .filter(|&&s| s > tol * smax)
            .count()
    }

    /// 2-norm condition number `σ_max/σ_min` (∞ when singular).
    pub fn condition_number(&self) -> f64 {
        let sigma = crate::svd::singular_values(self);
        let smax = sigma.first().copied().unwrap_or(0.0);
        let smin = sigma.last().copied().unwrap_or(0.0);
        if smin <= 0.0 {
            f64::INFINITY
        } else {
            smax / smin
        }
    }

    /// Whether [`CMat::condition_number`] is at most `max_cond`: the same
    /// decision as `self.condition_number() <= max_cond`, for every input.
    ///
    /// A 2×2 matrix well inside the bound skips the SVD. Its singular values
    /// satisfy σ₁² + σ₂² = ‖A‖F² and σ₁σ₂ = |det A|, so κ + 1/κ =
    /// ‖A‖F²/|det A|, and ‖A‖F² < (max_cond/10)·|det A| proves κ <
    /// max_cond/10. When both squared sums are normal floats and `max_cond`
    /// is at most 1e8, their rounding is below 1e-8 relative, far inside
    /// the tenfold margin, so the SVD would have accepted too. Everything
    /// else (other shapes, NaN or infinite entries, a zero or underflowing
    /// determinant, the band near the bound) takes the exact test.
    pub fn condition_number_at_most(&self, max_cond: f64) -> bool {
        if self.shape() == (2, 2) && max_cond <= 1e8 {
            let (a, b, c, d) = (self[(0, 0)], self[(0, 1)], self[(1, 0)], self[(1, 1)]);
            let frob_sq = a.norm_sqr() + b.norm_sqr() + c.norm_sqr() + d.norm_sqr();
            let det_sq = (a * d - b * c).norm_sqr();
            if frob_sq.is_normal()
                && det_sq.is_normal()
                && frob_sq < max_cond / 10.0 * det_sq.sqrt()
            {
                return true;
            }
        }
        self.condition_number() <= max_cond
    }

    /// Multiply every entry by `k` in place: bit for bit [`CMat::scale`].
    pub fn scale_in_place(&mut self, k: f64) {
        let k = C64::real(k);
        for z in self.data.iter_mut() {
            *z *= k;
        }
    }
}

/// [`CMat::mul_vec`] of a 2×2 matrix, given row-major, by a two-entry
/// vector: each row's `mul_add` chain from a zero accumulator, written out.
#[inline]
pub fn mul_vec2(a: &[C64; 4], x: &[C64; 2]) -> [C64; 2] {
    let z = C64::zero();
    [
        a[1].mul_add(x[1], a[0].mul_add(x[0], z)),
        a[3].mul_add(x[1], a[2].mul_add(x[0], z)),
    ]
}

impl Index<(usize, usize)> for CMat {
    type Output = C64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut C64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl Add for &CMat {
    type Output = CMat;
    fn add(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "adding mismatched shapes");
        CMat::from_fn(self.rows, self.cols, |r, c| self[(r, c)] + rhs[(r, c)])
    }
}

impl Sub for &CMat {
    type Output = CMat;
    fn sub(self, rhs: &CMat) -> CMat {
        assert_eq!(self.shape(), rhs.shape(), "subtracting mismatched shapes");
        CMat::from_fn(self.rows, self.cols, |r, c| self[(r, c)] - rhs[(r, c)])
    }
}

impl Mul for &CMat {
    type Output = CMat;
    fn mul(self, rhs: &CMat) -> CMat {
        self.mul_mat(rhs)
    }
}

impl Mul<&CVec> for &CMat {
    type Output = CVec;
    fn mul(self, rhs: &CVec) -> CVec {
        self.mul_vec(rhs)
    }
}

impl std::fmt::Display for CMat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for r in 0..self.rows {
            write!(f, "[")?;
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self[(r, c)])?;
            }
            writeln!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approx_eq, approx_eq_c};

    #[test]
    fn identity_multiplication() {
        let mut rng = Rng64::new(1);
        let a = CMat::random(3, 3, &mut rng);
        let i = CMat::identity(3);
        let left = i.mul_mat(&a);
        let right = a.mul_mat(&i);
        for r in 0..3 {
            for c in 0..3 {
                assert!(approx_eq_c(left[(r, c)], a[(r, c)], 1e-12));
                assert!(approx_eq_c(right[(r, c)], a[(r, c)], 1e-12));
            }
        }
    }

    #[test]
    fn mul_vec_matches_manual() {
        let a = CMat::from_fn(2, 2, |r, c| C64::real((r * 2 + c + 1) as f64));
        let x = CVec::from_real(&[1.0, -1.0]);
        let y = a.mul_vec(&x);
        assert_eq!(y[0], C64::real(-1.0)); // 1 - 2
        assert_eq!(y[1], C64::real(-1.0)); // 3 - 4
    }

    #[test]
    fn hermitian_transpose_property() {
        // ⟨Ax, y⟩ = ⟨x, Aᴴy⟩
        let mut rng = Rng64::new(2);
        let a = CMat::random(3, 3, &mut rng);
        let x = CVec::random(3, &mut rng);
        let y = CVec::random(3, &mut rng);
        let lhs = a.mul_vec(&x).dot(&y);
        let rhs = x.dot(&a.hermitian().mul_vec(&y));
        assert!(approx_eq_c(lhs, rhs, 1e-10));
    }

    #[test]
    fn transpose_of_transpose() {
        let mut rng = Rng64::new(3);
        let a = CMat::random(2, 4, &mut rng);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn product_transpose_reverses() {
        let mut rng = Rng64::new(4);
        let a = CMat::random(2, 3, &mut rng);
        let b = CMat::random(3, 2, &mut rng);
        let lhs = a.mul_mat(&b).transpose();
        let rhs = b.transpose().mul_mat(&a.transpose());
        assert!((&lhs - &rhs).frobenius_norm() < 1e-12);
    }

    #[test]
    fn trace_of_identity() {
        assert_eq!(CMat::identity(4).trace(), C64::real(4.0));
    }

    #[test]
    fn diag_and_cols() {
        let d = CMat::diag(&[C64::real(1.0), C64::real(2.0)]);
        assert_eq!(d.col(1)[1], C64::real(2.0));
        assert_eq!(d.col(1)[0], C64::zero());
    }

    #[test]
    fn from_cols_roundtrip() {
        let mut rng = Rng64::new(5);
        let c0 = CVec::random(3, &mut rng);
        let c1 = CVec::random(3, &mut rng);
        let m = CMat::from_cols(&[c0.clone(), c1.clone()]);
        assert_eq!(m.shape(), (3, 2));
        assert_eq!(m.col(0), c0);
        assert_eq!(m.col(1), c1);
    }

    #[test]
    fn rank_of_rank_deficient() {
        // Second column = 2 × first column → rank 1.
        let c = CVec::from_real(&[1.0, 2.0]);
        let m = CMat::from_cols(&[c.clone(), c.scale(2.0)]);
        assert_eq!(m.rank(1e-9), 1);
        assert_eq!(CMat::identity(3).rank(1e-9), 3);
        assert_eq!(CMat::zeros(2, 2).rank(1e-9), 0);
    }

    #[test]
    fn random_channel_is_full_rank() {
        // Footnote 3 of the paper: channel matrices are "typically
        // invertible"; CN(0,1) draws are full rank almost surely.
        let mut rng = Rng64::new(6);
        for _ in 0..50 {
            let h = CMat::random(2, 2, &mut rng);
            assert_eq!(h.rank(1e-9), 2);
        }
    }

    #[test]
    fn solve_then_verify() {
        let mut rng = Rng64::new(7);
        let a = CMat::random(4, 4, &mut rng);
        let x_true = CVec::random(4, &mut rng);
        let b = a.mul_vec(&x_true);
        let x = crate::lu::Lu::factor(&a).unwrap().solve(&b).unwrap();
        for i in 0..4 {
            assert!(approx_eq_c(x[i], x_true[i], 1e-8));
        }
    }

    #[test]
    fn inverse_times_self_is_identity() {
        let mut rng = Rng64::new(8);
        let a = CMat::random(3, 3, &mut rng);
        let inv = a.inverse().unwrap();
        let prod = a.mul_mat(&inv);
        assert!((&prod - &CMat::identity(3)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn det_of_singular_is_zero() {
        let c = CVec::from_real(&[1.0, 2.0]);
        let m = CMat::from_cols(&[c.clone(), c]);
        assert!(m.det().unwrap().abs() < 1e-12);
    }

    fn bits(z: &[C64]) -> Vec<(u64, u64)> {
        z.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// A 2×2 matrix or 2-vector entry: a `CN(0,1)` draw, scaled by 1 or
    /// 1e±150, or (one time in five) a signed zero in either part.
    fn spiky(rng: &mut Rng64) -> C64 {
        let z = rng.cn01().scale(*rng.pick(&[1.0, 1.0, 1e-150, 1e150]));
        match rng.next_u64() % 10 {
            0 => C64::new(-0.0, z.im),
            1 => C64::new(z.re, -0.0),
            2 => C64::new(0.0, -0.0),
            _ => z,
        }
    }

    /// [`mul_vec2`], which the two-antenna decode uses, against
    /// [`CMat::mul_vec`], bit for bit: the same `mul_add` chains from a `+0`
    /// accumulator decide even the sign of a zero result.
    #[test]
    fn mul_vec2_matches_mul_vec_bitwise() {
        let mut rng = Rng64::new(10);
        let zeros = [
            C64::new(-0.0, -0.0),
            C64::new(0.0, -0.0),
            C64::new(-0.0, 0.0),
        ];
        for i in 0..20_000 {
            let (a, x) = if i < 27 {
                // Every signed-zero pattern against a signed zero.
                let z = |k: usize| zeros[k % 3];
                (
                    CMat::from_fn(2, 2, |r, c| z(i + r + c + (i / 3) * r * c)),
                    CVec::from_fn(2, |r| z(i / 9 + r)),
                )
            } else {
                (
                    CMat::from_fn(2, 2, |_, _| spiky(&mut rng)),
                    CVec::from_fn(2, |_| spiky(&mut rng)),
                )
            };
            let a2 = a.as_2x2().expect("2×2");
            let fast = mul_vec2(a2, &[x[0], x[1]]);
            assert_eq!(
                bits(&fast),
                bits(a.mul_vec(&x).as_slice()),
                "mul_vec of\n{a}by {x}"
            );
        }
    }

    #[test]
    fn condition_number_of_identity() {
        let c = CMat::identity(3).condition_number();
        assert!(approx_eq(c, 1.0, 1e-9));
    }
}
