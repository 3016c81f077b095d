//! LU factorisation with partial pivoting.
//!
//! The alignment equations repeatedly need `H⁻¹G·v` products (e.g.
//! `v3 = H21⁻¹ H11 v2`, paper §4b). LU with partial pivoting is the standard
//! robust way to apply those inverses; this module also backs
//! [`CMat::inverse`](crate::CMat::inverse) and determinants.

use crate::small::Small;
use crate::{C64, CMat, CVec, LinAlgError, Result};

/// A computed LU factorisation `P·A = L·U`.
#[derive(Debug, Clone)]
pub struct Lu {
    /// Combined L (unit lower, below diagonal) and U (upper) factors.
    lu: CMat,
    /// Row permutation: `perm[i]` is the original row now in position `i`.
    perm: Small<usize, 4>,
    /// Permutation parity (+1/-1), for the determinant.
    sign: f64,
}

impl Lu {
    /// Factor a square matrix. Returns [`LinAlgError::Singular`] when a pivot
    /// underflows working precision — for channel matrices this corresponds
    /// to the degenerate "not really MIMO" case of the paper's footnote 3.
    pub fn factor(a: &CMat) -> Result<Self> {
        if !a.is_square() {
            return Err(LinAlgError::ShapeMismatch {
                expected: (a.rows(), a.rows()),
                got: a.shape(),
            });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinAlgError::Degenerate("empty matrix"));
        }
        let mut lu = a.clone();
        let mut perm: Small<usize, 4> = (0..n).collect();
        let mut sign = 1.0;
        // Scale-aware singularity threshold.
        let scale = a.norm_inf().max(f64::MIN_POSITIVE);
        let tiny = scale * 1e-14 * n as f64;

        for k in 0..n {
            // Partial pivot: largest magnitude in column k at or below row k.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let mag = lu[(r, k)].abs();
                if mag > best {
                    best = mag;
                    p = r;
                }
            }
            if best <= tiny {
                return Err(LinAlgError::Singular);
            }
            if p != k {
                for c in 0..n {
                    let t = lu[(k, c)];
                    lu[(k, c)] = lu[(p, c)];
                    lu[(p, c)] = t;
                }
                perm.swap(k, p);
                sign = -sign;
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                let m = lu[(r, k)] / pivot;
                lu[(r, k)] = m;
                for c in (k + 1)..n {
                    let sub = m * lu[(k, c)];
                    lu[(r, c)] -= sub;
                }
            }
        }
        Ok(Self { lu, perm, sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A·x = b`.
    pub fn solve(&self, b: &CVec) -> Result<CVec> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinAlgError::ShapeMismatch {
                expected: (n, 1),
                got: (b.len(), 1),
            });
        }
        // Apply permutation, then forward/backward substitution.
        let mut x = CVec::from_fn(n, |i| b[self.perm[i]]);
        for r in 1..n {
            let mut acc = x[r];
            for c in 0..r {
                acc -= self.lu[(r, c)] * x[c];
            }
            x[r] = acc;
        }
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in (r + 1)..n {
                acc -= self.lu[(r, c)] * x[c];
            }
            x[r] = acc / self.lu[(r, r)];
        }
        Ok(x)
    }

    /// Solve for multiple right-hand sides stacked as matrix columns.
    pub fn solve_mat(&self, b: &CMat) -> Result<CMat> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinAlgError::ShapeMismatch {
                expected: (n, b.cols()),
                got: b.shape(),
            });
        }
        let mut out = CMat::zeros(n, b.cols());
        for c in 0..b.cols() {
            let x = self.solve(&b.col(c))?;
            out.set_col(c, &x);
        }
        Ok(out)
    }

    /// Matrix inverse.
    pub fn inverse(&self) -> Result<CMat> {
        self.solve_mat(&CMat::identity(self.dim()))
    }

    /// Determinant (product of pivots times permutation sign).
    pub fn det(&self) -> C64 {
        let mut d = C64::real(self.sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq_c;
    use crate::Rng64;

    #[test]
    fn solve_recovers_known_solution() {
        let mut rng = Rng64::new(101);
        for n in 1..=6 {
            let a = CMat::random(n, n, &mut rng);
            let x_true = CVec::random(n, &mut rng);
            let b = a.mul_vec(&x_true);
            let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
            for i in 0..n {
                assert!(
                    approx_eq_c(x[i], x_true[i], 1e-8),
                    "n={n} i={i}: {} vs {}",
                    x[i],
                    x_true[i]
                );
            }
        }
    }

    #[test]
    fn singular_matrix_rejected() {
        let c = CVec::from_real(&[1.0, 2.0]);
        let a = CMat::from_cols(&[c.clone(), c.scale(3.0)]);
        assert_eq!(Lu::factor(&a).unwrap_err(), LinAlgError::Singular);
    }

    #[test]
    fn non_square_rejected() {
        let a = CMat::zeros(2, 3);
        assert!(matches!(
            Lu::factor(&a),
            Err(LinAlgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn det_matches_2x2_formula() {
        let mut rng = Rng64::new(103);
        for _ in 0..20 {
            let a = CMat::random(2, 2, &mut rng);
            let expected = a[(0, 0)] * a[(1, 1)] - a[(0, 1)] * a[(1, 0)];
            let got = Lu::factor(&a).unwrap().det();
            assert!(approx_eq_c(got, expected, 1e-10));
        }
    }

    #[test]
    fn det_is_multiplicative() {
        let mut rng = Rng64::new(104);
        let a = CMat::random(3, 3, &mut rng);
        let b = CMat::random(3, 3, &mut rng);
        let dab = Lu::factor(&a.mul_mat(&b)).unwrap().det();
        let da = Lu::factor(&a).unwrap().det();
        let db = Lu::factor(&b).unwrap().det();
        assert!(approx_eq_c(dab, da * db, 1e-8));
    }

    #[test]
    fn inverse_round_trip() {
        let mut rng = Rng64::new(105);
        for n in 2..=5 {
            let a = CMat::random(n, n, &mut rng);
            let inv = Lu::factor(&a).unwrap().inverse().unwrap();
            let residual = (&a.mul_mat(&inv) - &CMat::identity(n)).frobenius_norm();
            assert!(residual < 1e-9, "n={n}: residual {residual}");
        }
    }

    #[test]
    fn solve_mat_multiple_rhs() {
        let mut rng = Rng64::new(106);
        let a = CMat::random(3, 3, &mut rng);
        let xs = CMat::random(3, 4, &mut rng);
        let b = a.mul_mat(&xs);
        let got = Lu::factor(&a).unwrap().solve_mat(&b).unwrap();
        assert!((&got - &xs).frobenius_norm() < 1e-8);
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = CMat::identity(3);
        let lu = Lu::factor(&a).unwrap();
        assert!(lu.solve(&CVec::zeros(2)).is_err());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // a[0][0] = 0 forces a row swap; naive LU would divide by zero.
        let a = CMat::new(
            2,
            2,
            vec![C64::zero(), C64::one(), C64::one(), C64::one()],
        );
        let b = CVec::from_real(&[1.0, 2.0]);
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        // x0 + x1 = 2, x1 = 1 → x0 = 1.
        assert!(approx_eq_c(x[0], C64::one(), 1e-12));
        assert!(approx_eq_c(x[1], C64::one(), 1e-12));
    }
}
