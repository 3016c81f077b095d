//! LU factorisation with partial pivoting.
//!
//! The alignment equations repeatedly need `H⁻¹G·v` products (e.g.
//! `v3 = H21⁻¹ H11 v2`, paper §4b). LU with partial pivoting is the standard
//! robust way to apply those inverses; this module also backs
//! [`CMat::inverse`](crate::CMat::inverse) and determinants.

use crate::small::Small;
use crate::{CMat, CVec, LinAlgError, Result, C64};

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
    pub(crate) fn dim(&self) -> usize {
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
    pub(crate) fn solve_mat(&self, b: &CMat) -> Result<CMat> {
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
    pub(crate) fn inverse(&self) -> Result<CMat> {
        self.solve_mat(&CMat::identity(self.dim()))
    }

    /// Determinant (product of pivots times permutation sign).
    pub(crate) fn det(&self) -> C64 {
        let mut d = C64::real(self.sign);
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// `Lu::factor(a)?.inverse()` for a 2×2 `a`, as straight-line code.
///
/// Every float operation of the generic path is kept, with the same
/// operands in the same order: the `norm_inf` fold, the pivot magnitudes
/// (`hypot`; the two first-column ones are the `norm_inf` values, reused),
/// Smith division, and the products with the identity's zero entries,
/// which decide the sign of zero entries of the result. Only the clone,
/// the loops, the identity matrix and the column copies are gone.
pub(crate) fn inverse2(a: &CMat) -> Result<CMat> {
    debug_assert_eq!(a.shape(), (2, 2));
    let [a00, a01, a10, a11] = [a[(0, 0)], a[(0, 1)], a[(1, 0)], a[(1, 1)]];
    let (m00, m10) = (a00.abs(), a10.abs());
    let scale = 0.0f64
        .max(m00)
        .max(a01.abs())
        .max(m10)
        .max(a11.abs())
        .max(f64::MIN_POSITIVE);
    let tiny = scale * 1e-14 * 2.0;
    // Column 0: pivot on the larger magnitude; the first wins a tie.
    let swap = m10 > m00;
    if (if swap { m10 } else { m00 }) <= tiny {
        return Err(LinAlgError::Singular);
    }
    let ([u00, u01], [l10, r11]) = if swap {
        ([a10, a11], [a00, a01])
    } else {
        ([a00, a01], [a10, a11])
    };
    let l10 = l10 / u00;
    let u11 = r11 - l10 * u01;
    if u11.abs() <= tiny {
        return Err(LinAlgError::Singular);
    }
    // Column c of the inverse solves `A·x = e_c`; the permuted right-hand
    // side is `[e_c[perm[0]], e_c[perm[1]]]`.
    let (one, zero) = (C64::one(), C64::zero());
    let solve = |b0: C64, b1: C64| {
        let x1 = (b1 - l10 * b0) / u11;
        let x0 = (b0 - u01 * x1) / u00;
        (x0, x1)
    };
    let (p00, p10) = if swap {
        solve(zero, one)
    } else {
        solve(one, zero)
    };
    let (p01, p11) = if swap {
        solve(one, zero)
    } else {
        solve(zero, one)
    };
    let out = [p00, p01, p10, p11];
    Ok(CMat::from_fn(2, 2, |r, c| out[2 * r + c]))
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

    /// Bit patterns of every entry, for exact comparison.
    fn bits(m: &CMat) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// `CMat::inverse`'s 2×2 path must match the generic `Lu` route bit for
    /// bit, errors included.
    fn assert_inverse_matches_lu(a: &CMat) {
        let fast = a.inverse();
        let generic = Lu::factor(a).and_then(|lu| lu.inverse());
        match (&fast, &generic) {
            (Ok(f), Ok(g)) => assert_eq!(bits(f), bits(g), "inverse of\n{a}"),
            (Err(f), Err(g)) => assert_eq!(f, g, "inverse of\n{a}"),
            _ => panic!("inverse of\n{a}: fast {fast:?}, generic {generic:?}"),
        }
    }

    /// A random 2×2 with, now and then, signed-zero parts, an extreme scale
    /// or a magnitude tie between the two first-column entries.
    fn spiky2(rng: &mut Rng64) -> CMat {
        let mut a = CMat::random(2, 2, rng);
        for i in 0..2 {
            for j in 0..2 {
                match rng.below(8) {
                    0 => a[(i, j)].re = 0.0,
                    1 => a[(i, j)].im = -0.0,
                    _ => {}
                }
            }
        }
        if rng.chance(0.2) {
            // |a10| == |a00|: swapped parts have the same hypot.
            let z = a[(0, 0)];
            a[(1, 0)] = C64::new(z.im, z.re);
        }
        let scale = *rng.pick(&[1.0, 1.0, 1e-150, 1e150, 1e-300, 1e300]);
        a.scale(scale)
    }

    #[test]
    fn inverse2_matches_generic_lu_bitwise() {
        let mut rng = Rng64::new(107);
        for _ in 0..10_000 {
            assert_inverse_matches_lu(&spiky2(&mut rng));
        }
    }

    #[test]
    fn inverse2_matches_generic_lu_on_edge_cases() {
        let c = |re: f64, im: f64| C64::new(re, im);
        let m = |e: [C64; 4]| CMat::new(2, 2, e.to_vec());
        let cases = [
            // Equal-magnitude pivots: the first row keeps the pivot.
            m([c(1.0, 0.0), c(2.0, 0.0), c(0.0, 1.0), c(3.0, 0.0)]),
            m([c(3.0, 4.0), c(1.0, 0.0), c(4.0, 3.0), c(0.0, 2.0)]),
            // Exactly singular, and all zero.
            m([c(1.0, 0.0), c(2.0, 0.0), c(2.0, 0.0), c(4.0, 0.0)]),
            m([C64::zero(); 4]),
            // Signed zeros that the identity's zero entries must keep.
            m([c(2.0, -0.0), c(-0.0, 0.0), c(0.0, -0.0), c(3.0, 0.0)]),
            m([c(-0.0, -0.0), c(1.0, 0.0), c(1.0, 0.0), c(-0.0, 0.0)]),
            // Non-finite entries.
            m([c(f64::NAN, 0.0), c(1.0, 0.0), c(0.0, 1.0), c(2.0, 0.0)]),
            m([c(f64::INFINITY, 0.0), c(1.0, 0.0), c(0.0, 1.0), c(2.0, 0.0)]),
        ];
        for a in &cases {
            assert_inverse_matches_lu(a);
        }
        // Second pivots straddling the `tiny` threshold (2e-14 × scale).
        for k in 0..60 {
            let d = k as f64 * 1e-15;
            assert_inverse_matches_lu(&m([c(1.0, 0.0), c(1.0, 0.0), c(1.0, 0.0), c(1.0 + d, 0.0)]));
            assert_inverse_matches_lu(&m([c(1.0, 0.0), c(1.0, 0.0), c(1.0, d), c(1.0, 0.0)]));
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // a[0][0] = 0 forces a row swap; naive LU would divide by zero.
        let a = CMat::new(2, 2, vec![C64::zero(), C64::one(), C64::one(), C64::one()]);
        let b = CVec::from_real(&[1.0, 2.0]);
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        // x0 + x1 = 2, x1 = 1 → x0 = 1.
        assert!(approx_eq_c(x[0], C64::one(), 1e-12));
        assert!(approx_eq_c(x[1], C64::one(), 1e-12));
    }
}
