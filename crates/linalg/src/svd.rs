//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The SVD backs three things in this workspace: the 802.11n *eigenmode
//! enforcing* baseline (transmit along the right singular vectors of the
//! channel, paper §10d), numerical rank / null-space computation for the
//! alignment solvers, and condition-number diagnostics. One-sided Jacobi is
//! slow for large matrices but extremely robust and accurate for the tiny
//! matrices used here.

use crate::small::Small;
use crate::{CMat, CVec, C64};

/// A computed decomposition `A = U·diag(σ)·Vᴴ` with `σ` sorted descending.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m×n` (thin form, `m ≥ n` internally).
    pub u: CMat,
    /// Singular values, descending, length `n`.
    pub singular_values: Vec<f64>,
    /// Right singular vectors, `n×n`.
    pub v: CMat,
}

impl Svd {
    /// Compute the SVD of any rectangular matrix. A 2×2 input runs the
    /// one-sided Jacobi written out for its two columns.
    pub fn compute(a: &CMat) -> Self {
        let (m, n) = a.shape();
        if let Some(entries) = a.as_2x2() {
            compute2(entries).unwrap_or_else(|| Self::compute_tall(a))
        } else if m >= n {
            Self::compute_tall(a)
        } else {
            // A = U Σ Vᴴ  ⇔  Aᴴ = V Σ Uᴴ; compute on the transpose and swap.
            let t = Self::compute_tall(&a.hermitian());
            Self {
                u: t.v,
                singular_values: t.singular_values,
                v: t.u,
            }
        }
    }

    /// One-sided Jacobi on a tall (or square) matrix.
    fn compute_tall(a: &CMat) -> Self {
        let (m, n) = a.shape();
        debug_assert!(m >= n);
        let mut g = a.clone(); // columns will be driven orthogonal
        let mut v = CMat::identity(n);
        orthogonalize_columns(&mut g, Some(&mut v));

        // Singular values are the column norms; U is the normalised columns.
        let mut order: Vec<usize> = (0..n).collect();
        let norms: Vec<f64> = (0..n).map(|j| g.col(j).norm()).collect();
        order.sort_by(|&i, &j| norms[j].total_cmp(&norms[i]));

        let mut u = CMat::zeros(m, n);
        let mut vv = CMat::zeros(n, n);
        let mut sigma = Vec::with_capacity(n);
        let smax = order.first().map(|&j| norms[j]).unwrap_or(0.0);
        let mut filled: Vec<CVec> = Vec::new();
        for (slot, &j) in order.iter().enumerate() {
            let s = norms[j];
            sigma.push(s);
            let ucol = if smax > 0.0 && s > smax * 1e-300 && s > 0.0 {
                g.col(j).scale(1.0 / s)
            } else {
                // Zero singular value: complete U with any unit vector
                // orthogonal to the columns already placed.
                complete_orthonormal(&filled, m)
            };
            filled.push(ucol.clone());
            u.set_col(slot, &ucol);
            vv.set_col(slot, &v.col(j));
        }
        Svd {
            u,
            singular_values: sigma,
            v: vv,
        }
    }

    /// Reconstruct `U·diag(σ)·Vᴴ` (mainly for tests/diagnostics).
    ///
    /// No production caller: public for `crates/core/tests/conditioning_identity.rs`.
    pub fn reconstruct(&self) -> CMat {
        let n = self.singular_values.len();
        let s = CMat::from_fn(n, n, |r, c| {
            if r == c {
                C64::real(self.singular_values[r])
            } else {
                C64::zero()
            }
        });
        self.u.mul_mat(&s).mul_mat(&self.v.hermitian())
    }
}

/// [`Svd::compute_tall`] of a 2×2 matrix (row-major), bit for bit: the same
/// rotations of the column pair `(0, 1)` as [`orthogonalize_columns`], each
/// float operation with the same operands in the same order, then the same
/// descending `total_cmp` order and column scaling. `None` when a singular
/// value fails the `s > smax·1e-300` test (a zero or NaN column), where
/// `compute_tall` completes `U` instead.
fn compute2(a: &[C64; 4]) -> Option<Svd> {
    let [mut g00, mut g01, mut g10, mut g11] = *a;
    let [mut v00, mut v01, mut v10, mut v11] = [C64::one(), C64::zero(), C64::zero(), C64::one()];
    // `CVec::norm_sqr` and `CVec::dot` of two columns.
    let norm_sqr = |x: [C64; 2]| x.iter().map(|z| z.norm_sqr()).sum::<f64>();
    let dot =
        |x: [C64; 2], y: [C64; 2]| -> C64 { x.iter().zip(&y).map(|(a, b)| a.conj() * *b).sum() };
    let tol = 1e-14;
    for _sweep in 0..60 {
        let app = norm_sqr([g00, g10]);
        let aqq = norm_sqr([g01, g11]);
        let apq = dot([g00, g10], [g01, g11]);
        let off = apq.abs();
        if off <= tol * (app * aqq).sqrt() || off < 1e-150 {
            break;
        }
        let phase = apq * (1.0 / off);
        let phase_conj = phase.conj();
        g01 *= phase_conj;
        g11 *= phase_conj;
        v01 *= phase_conj;
        v11 *= phase_conj;
        let gamma = off;
        let tau = (aqq - app) / (2.0 * gamma);
        let t = if tau >= 0.0 {
            1.0 / (tau + (1.0 + tau * tau).sqrt())
        } else {
            -1.0 / (-tau + (1.0 + tau * tau).sqrt())
        };
        let c = 1.0 / (1.0 + t * t).sqrt();
        let s = c * t;
        let rot = |xp: C64, xq: C64| (xp.scale(c) - xq.scale(s), xp.scale(s) + xq.scale(c));
        (g00, g01) = rot(g00, g01);
        (g10, g11) = rot(g10, g11);
        (v00, v01) = rot(v00, v01);
        (v10, v11) = rot(v10, v11);
    }
    let cols = [[g00, g10], [g01, g11]];
    let v_cols = [[v00, v10], [v01, v11]];
    let norms = cols.map(|x| norm_sqr(x).sqrt());
    // The stable descending sort puts column 1 first only when its norm is
    // strictly larger in the total order.
    let order = if norms[0].total_cmp(&norms[1]).is_lt() {
        [1, 0]
    } else {
        [0, 1]
    };
    let smax = norms[order[0]];
    let mut u = [C64::zero(); 4];
    let mut v = [C64::zero(); 4];
    for (slot, j) in order.into_iter().enumerate() {
        let s = norms[j];
        if !(smax > 0.0 && s > smax * 1e-300 && s > 0.0) {
            return None;
        }
        let k = 1.0 / s;
        for r in 0..2 {
            u[2 * r + slot] = cols[j][r].scale(k);
            v[2 * r + slot] = v_cols[j][r];
        }
    }
    Some(Svd {
        u: CMat::from_2x2(u),
        singular_values: vec![norms[order[0]], norms[order[1]]],
        v: CMat::from_2x2(v),
    })
}

/// Singular values of `a`, descending: [`Svd::compute`]'s
/// `singular_values`, bit for bit, without forming `U` or `V`.
pub(crate) fn singular_values(a: &CMat) -> Small<f64, 4> {
    let mut g = if a.rows() >= a.cols() {
        a.clone()
    } else {
        a.hermitian()
    };
    orthogonalize_columns(&mut g, None);
    let mut sigma: Small<f64, 4> = (0..g.cols()).map(|j| g.col(j).norm()).collect();
    sigma.sort_by(|x, y| y.total_cmp(x));
    sigma
}

/// Drive the columns of a tall (or square) `g` mutually orthogonal by
/// one-sided Jacobi rotations, applying each rotation to the columns of `v`
/// too when one is given. The updates of `g` never read `v`, so `g` ends
/// the same with or without it.
fn orthogonalize_columns(g: &mut CMat, mut v: Option<&mut CMat>) {
    let (m, n) = g.shape();
    debug_assert!(m >= n);
    let tol = 1e-14;
    let max_sweeps = 60;

    for _sweep in 0..max_sweeps {
        let mut rotated = false;
        for p in 0..n {
            for q in (p + 1)..n {
                // Hermitian 2×2 Gram block of columns p and q.
                let gp = g.col(p);
                let gq = g.col(q);
                let app = gp.norm_sqr();
                let aqq = gq.norm_sqr();
                let apq = gp.dot(&gq); // ⟨gp, gq⟩ (conjugated on gp)
                let off = apq.abs();
                // The absolute floor prevents 1/off from overflowing to
                // infinity when a column has converged to (near) zero.
                if off <= tol * (app * aqq).sqrt() || off < 1e-150 {
                    continue;
                }
                rotated = true;
                // Phase-rotate column q so the cross term becomes real,
                // then apply a real Jacobi rotation.
                let phase = apq * (1.0 / off); // e^{iφ}
                let phase_conj = phase.conj();
                for i in 0..m {
                    g[(i, q)] *= phase_conj;
                }
                if let Some(v) = v.as_deref_mut() {
                    for i in 0..n {
                        v[(i, q)] *= phase_conj;
                    }
                }
                let gamma = off; // now real and positive
                let tau = (aqq - app) / (2.0 * gamma);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                // Columns p,q ← (c·p − s·q, s·p + c·q).
                rotate_columns(g, p, q, c, s);
                if let Some(v) = v.as_deref_mut() {
                    rotate_columns(v, p, q, c, s);
                }
            }
        }
        if !rotated {
            break;
        }
    }
}

/// Columns `p, q` of `x` ← `(c·p − s·q, s·p + c·q)`.
fn rotate_columns(x: &mut CMat, p: usize, q: usize, c: f64, s: f64) {
    for i in 0..x.rows() {
        let xp = x[(i, p)];
        let xq = x[(i, q)];
        x[(i, p)] = xp.scale(c) - xq.scale(s);
        x[(i, q)] = xp.scale(s) + xq.scale(c);
    }
}

/// Any unit vector orthogonal to the given (orthonormal-ish) set; used to
/// complete U for rank-deficient inputs.
fn complete_orthonormal(existing: &[CVec], dim: usize) -> CVec {
    for k in 0..dim {
        let mut candidate = CVec::basis(dim, k);
        for e in existing {
            let c = e.dot(&candidate);
            candidate.axpy(-c, e);
        }
        if candidate.norm() > 1e-6 {
            return candidate.normalized();
        }
    }
    // Mathematically unreachable while existing.len() < dim.
    CVec::basis(dim, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::approx_eq;
    use crate::Rng64;

    #[test]
    fn reconstruction_matches() {
        let mut rng = Rng64::new(301);
        for &(m, n) in &[(2, 2), (3, 3), (4, 2), (2, 4), (5, 5)] {
            let a = CMat::random(m, n, &mut rng);
            let svd = Svd::compute(&a);
            let err = (&svd.reconstruct() - &a).frobenius_norm() / a.frobenius_norm();
            assert!(err < 1e-10, "{m}x{n} relative error {err}");
        }
    }

    #[test]
    fn factors_are_orthonormal() {
        let mut rng = Rng64::new(302);
        let a = CMat::random(4, 3, &mut rng);
        let svd = Svd::compute(&a);
        let gu = svd.u.hermitian().mul_mat(&svd.u);
        let gv = svd.v.hermitian().mul_mat(&svd.v);
        assert!((&gu - &CMat::identity(3)).frobenius_norm() < 1e-9);
        assert!((&gv - &CMat::identity(3)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn singular_values_sorted_and_nonnegative() {
        let mut rng = Rng64::new(303);
        let a = CMat::random(5, 4, &mut rng);
        let svd = Svd::compute(&a);
        for w in svd.singular_values.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert!(svd.singular_values.iter().all(|&s| s >= 0.0));
    }

    #[test]
    fn identity_has_unit_singular_values() {
        let svd = Svd::compute(&CMat::identity(3));
        for &s in &svd.singular_values {
            assert!(approx_eq(s, 1.0, 1e-12));
        }
    }

    #[test]
    fn rank_deficient_has_zero_sigma() {
        let c = CVec::from_real(&[1.0, 2.0, 2.0]);
        let a = CMat::from_cols(&[c.clone(), c.scale(-0.5), c.scale(3.0)]);
        let svd = Svd::compute(&a);
        assert!(svd.singular_values[0] > 1.0);
        assert!(svd.singular_values[1] < 1e-10);
        assert!(svd.singular_values[2] < 1e-10);
        // Even with zero σ, U stays orthonormal thanks to completion.
        let gu = svd.u.hermitian().mul_mat(&svd.u);
        assert!((&gu - &CMat::identity(3)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn frobenius_norm_equals_sigma_norm() {
        let mut rng = Rng64::new(304);
        let a = CMat::random(3, 3, &mut rng);
        let svd = Svd::compute(&a);
        let sf: f64 = svd
            .singular_values
            .iter()
            .map(|s| s * s)
            .sum::<f64>()
            .sqrt();
        assert!(approx_eq(sf, a.frobenius_norm(), 1e-10));
    }

    #[test]
    fn singular_values_match_eigen_of_gram() {
        // σ² are eigenvalues of AᴴA.
        let mut rng = Rng64::new(305);
        let a = CMat::random(3, 3, &mut rng);
        let svd = Svd::compute(&a);
        let gram = a.hermitian().mul_mat(&a);
        for (j, &s) in svd.singular_values.iter().enumerate() {
            let vj = svd.v.col(j);
            let gv = gram.mul_vec(&vj);
            let resid = (&gv - &vj.scale(s * s)).norm();
            assert!(resid < 1e-8, "column {j}: residual {resid}");
        }
    }

    /// `singular_values` (and so `condition_number`) must match the full
    /// decomposition's σ bit for bit.
    fn assert_sigma_matches_svd(a: &CMat) {
        let fast = singular_values(a);
        let full = Svd::compute(a).singular_values;
        let b = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(b(&fast), b(&full), "σ of\n{a}");
        let cond = match (full.first(), full.last()) {
            (Some(&hi), Some(&lo)) if lo > 0.0 => hi / lo,
            _ => f64::INFINITY,
        };
        assert_eq!(a.condition_number().to_bits(), cond.to_bits(), "κ of\n{a}");
    }

    #[test]
    fn singular_values_match_full_svd_bitwise() {
        let mut rng = Rng64::new(306);
        for _ in 0..10_000 {
            let scale = *rng.pick(&[1.0, 1.0, 1e-150, 1e150]);
            assert_sigma_matches_svd(&CMat::random(2, 2, &mut rng).scale(scale));
        }
        for &(m, n) in &[(3, 3), (4, 4), (2, 3), (3, 2), (4, 2), (1, 2)] {
            for _ in 0..200 {
                assert_sigma_matches_svd(&CMat::random(m, n, &mut rng));
            }
        }
        let c = CVec::from_real(&[1.0, 2.0]);
        assert_sigma_matches_svd(&CMat::from_cols(&[c.clone(), c.scale(-3.0)]));
        assert_sigma_matches_svd(&CMat::zeros(2, 2));
        assert_sigma_matches_svd(&CMat::identity(2));
    }

    fn bits(m: &CMat) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// The 2×2 path of `Svd::compute` must match `compute_tall` bit for bit,
    /// in `U`, `σ` and `V`.
    fn assert_svd2_matches_tall(a: &CMat) {
        let fast = Svd::compute(a);
        let tall = Svd::compute_tall(a);
        let sigma = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            sigma(&fast.singular_values),
            sigma(&tall.singular_values),
            "σ of\n{a}"
        );
        assert_eq!(bits(&fast.u), bits(&tall.u), "U of\n{a}");
        assert_eq!(bits(&fast.v), bits(&tall.v), "V of\n{a}");
    }

    #[test]
    fn svd2_matches_compute_tall_bitwise() {
        let mut rng = Rng64::new(307);
        for _ in 0..10_000 {
            let scale = *rng.pick(&[1.0, 1.0, 1e-150, 1e150]);
            assert_svd2_matches_tall(&CMat::random(2, 2, &mut rng).scale(scale));
        }
        let r = C64::real;
        let m = |e: [C64; 4]| CMat::new(2, 2, e.to_vec());
        let c = CVec::from_real(&[1.0, 2.0]);
        let cases = [
            // Diagonal, either order, and a tie.
            m([r(3.0), r(0.0), r(0.0), r(1.0)]),
            m([r(1.0), r(0.0), r(0.0), r(3.0)]),
            m([r(2.0), r(0.0), r(0.0), C64::new(0.0, 2.0)]),
            CMat::identity(2),
            // Rank one: parallel columns.
            CMat::from_cols(&[c.clone(), c.scale(-3.0)]),
            CMat::from_cols(&[c.clone(), c.scale_c(C64::new(0.5, -2.0))]),
            // A zero column, first or second, and all zero: U is completed.
            CMat::from_cols(&[CVec::zeros(2), c.clone()]),
            CMat::from_cols(&[c.clone(), CVec::zeros(2)]),
            CMat::zeros(2, 2),
            // Signed zeros.
            m([C64::new(-0.0, 0.0), r(1.0), r(1.0), C64::new(0.0, -0.0)]),
            // Extreme scales, mixed within one matrix.
            m([r(1e150), r(1e-150), r(1e-150), r(1e150)]),
            m([r(1e-150), r(0.0), r(0.0), r(1e150)]),
            // Non-finite entries.
            m([C64::new(f64::NAN, 0.0), r(1.0), r(0.0), r(1.0)]),
            m([C64::new(f64::INFINITY, 0.0), r(1.0), r(0.0), r(1.0)]),
        ];
        for a in &cases {
            assert_svd2_matches_tall(a);
        }
    }

    #[test]
    fn zero_matrix() {
        let svd = Svd::compute(&CMat::zeros(3, 2));
        assert!(svd.singular_values.iter().all(|&s| s == 0.0));
        let gu = svd.u.hermitian().mul_mat(&svd.u);
        assert!((&gu - &CMat::identity(2)).frobenius_norm() < 1e-9);
    }
}
