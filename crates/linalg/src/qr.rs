//! Householder QR factorisation.
//!
//! Used for least-squares channel estimation (paper §8a) and as a building
//! block of the Hessenberg reduction in [`crate::eig`].

use crate::{CMat, CVec, LinAlgError, Result, C64};

/// A thin QR factorisation `A = Q·R` with `Q` having orthonormal columns
/// (`m×n`, for `m ≥ n`) and `R` upper triangular (`n×n`).
#[derive(Debug, Clone)]
pub struct Qr {
    /// Orthonormal columns spanning the column space of `A`.
    pub q: CMat,
    /// Upper-triangular factor.
    pub r: CMat,
}

impl Qr {
    /// Compute the thin QR of an `m×n` matrix with `m ≥ n` via Householder
    /// reflections (numerically stable for the small systems used here).
    pub fn compute(a: &CMat) -> Result<Self> {
        let (m, n) = a.shape();
        if m < n {
            return Err(LinAlgError::ShapeMismatch {
                expected: (n, n),
                got: (m, n),
            });
        }
        if m == 0 || n == 0 {
            return Err(LinAlgError::Degenerate("empty matrix in QR"));
        }
        let mut r = a.clone();
        // Reflectors stored as (v, tau) pairs; applied later to form Q.
        let mut reflectors: Vec<(CVec, f64)> = Vec::with_capacity(n);

        for k in 0..n.min(m.saturating_sub(1) + 1) {
            if k >= m {
                break;
            }
            // x = R[k.., k]
            let mut x = CVec::zeros(m - k);
            for i in k..m {
                x[i - k] = r[(i, k)];
            }
            let xnorm = x.norm();
            if xnorm < 1e-300 {
                // Column already zero below (and at) the diagonal.
                reflectors.push((CVec::zeros(m - k), 0.0));
                continue;
            }
            // alpha = -e^{i·arg(x0)}·‖x‖ so that v = x − alpha·e1 is stable.
            let x0 = x[0];
            let phase = if x0.abs() < 1e-300 {
                C64::one()
            } else {
                x0 * (1.0 / x0.abs())
            };
            let alpha = -(phase * xnorm);
            let mut v = x;
            v[0] -= alpha;
            let vnorm_sqr = v.norm_sqr();
            if vnorm_sqr < 1e-300 {
                reflectors.push((CVec::zeros(m - k), 0.0));
                continue;
            }
            let tau = 2.0 / vnorm_sqr;
            // Apply H = I − tau·v·vᴴ to R[k.., k..].
            for c in k..n {
                let mut dot = C64::zero();
                for i in k..m {
                    dot += v[i - k].conj() * r[(i, c)];
                }
                let f = dot.scale(tau);
                for i in k..m {
                    let sub = f * v[i - k];
                    r[(i, c)] -= sub;
                }
            }
            reflectors.push((v, tau));
        }

        // Form the thin Q by applying the reflectors (in reverse) to the
        // first n columns of the identity.
        let mut q = CMat::from_fn(m, n, |i, j| if i == j { C64::one() } else { C64::zero() });
        for k in (0..reflectors.len()).rev() {
            let (v, tau) = &reflectors[k];
            if *tau == 0.0 {
                continue;
            }
            for c in 0..n {
                let mut dot = C64::zero();
                for i in k..m {
                    dot += v[i - k].conj() * q[(i, c)];
                }
                let f = dot.scale(*tau);
                for i in k..m {
                    let sub = f * v[i - k];
                    q[(i, c)] -= sub;
                }
            }
        }

        // Zero out numerical fuzz below the diagonal of R and truncate shape.
        let r_thin = CMat::from_fn(n, n, |i, j| if i <= j { r[(i, j)] } else { C64::zero() });
        Ok(Self { q, r: r_thin })
    }

    /// Least-squares solution of `A·x ≈ b` (minimises `‖Ax − b‖`), for the
    /// factored `A`. Requires `R` nonsingular (full column rank).
    pub fn solve_least_squares(&self, b: &CVec) -> Result<CVec> {
        let (m, n) = self.q.shape();
        if b.len() != m {
            return Err(LinAlgError::ShapeMismatch {
                expected: (m, 1),
                got: (b.len(), 1),
            });
        }
        // y = Qᴴ b, then back-substitute R x = y.
        let y = self.q.hermitian().mul_vec(b);
        let mut x = CVec::zeros(n);
        let scale = self.r.norm_inf().max(f64::MIN_POSITIVE);
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.r[(i, j)] * x[j];
            }
            let piv = self.r[(i, i)];
            if piv.abs() <= scale * 1e-13 {
                return Err(LinAlgError::Singular);
            }
            x[i] = acc / piv;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    #[test]
    fn qr_reconstructs() {
        let mut rng = Rng64::new(201);
        for &(m, n) in &[(2, 2), (3, 3), (4, 2), (6, 4)] {
            let a = CMat::random(m, n, &mut rng);
            let qr = Qr::compute(&a).unwrap();
            let back = qr.q.mul_mat(&qr.r);
            assert!(
                (&back - &a).frobenius_norm() < 1e-9,
                "{m}x{n} reconstruction"
            );
        }
    }

    #[test]
    fn q_has_orthonormal_columns() {
        let mut rng = Rng64::new(202);
        let a = CMat::random(5, 3, &mut rng);
        let qr = Qr::compute(&a).unwrap();
        let gram = qr.q.hermitian().mul_mat(&qr.q);
        assert!((&gram - &CMat::identity(3)).frobenius_norm() < 1e-10);
    }

    #[test]
    fn r_is_upper_triangular() {
        let mut rng = Rng64::new(203);
        let a = CMat::random(4, 4, &mut rng);
        let qr = Qr::compute(&a).unwrap();
        for i in 0..4 {
            for j in 0..i {
                assert!(qr.r[(i, j)].abs() < 1e-12);
            }
        }
    }

    #[test]
    fn wide_matrix_rejected() {
        assert!(Qr::compute(&CMat::zeros(2, 3)).is_err());
    }

    #[test]
    fn least_squares_exact_system() {
        let mut rng = Rng64::new(204);
        let a = CMat::random(3, 3, &mut rng);
        let x_true = CVec::random(3, &mut rng);
        let b = a.mul_vec(&x_true);
        let x = Qr::compute(&a).unwrap().solve_least_squares(&b).unwrap();
        assert!((&x - &x_true).norm() < 1e-9);
    }

    #[test]
    fn least_squares_overdetermined_minimises_residual() {
        let mut rng = Rng64::new(205);
        let a = CMat::random(6, 2, &mut rng);
        let b = CVec::random(6, &mut rng);
        let x = Qr::compute(&a).unwrap().solve_least_squares(&b).unwrap();
        let residual = &a.mul_vec(&x) - &b;
        // Normal equations: Aᴴ·residual ≈ 0 at the minimiser.
        let grad = a.hermitian().mul_vec(&residual);
        assert!(grad.norm() < 1e-9, "gradient norm {}", grad.norm());
    }
}
