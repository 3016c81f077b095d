//! Eigendecompositions.
//!
//! Two flavours, each needed by a different part of IAC:
//!
//! * [`eig2`] — closed-form eigenpairs of a general complex 2×2 matrix. The
//!   paper's four-packet uplink alignment is literally "an eigenvector of
//!   `H32⁻¹ H22 H21⁻¹ H31`" (footnote 4), a 2×2 problem for 2-antenna nodes.
//! * [`eigh`] — cyclic Jacobi for Hermitian matrices. The iterative alignment
//!   solver picks decode subspaces as the smallest-eigenvalue eigenvectors of
//!   interference covariance matrices, which are Hermitian PSD.

use crate::small::Small;
use crate::{CMat, CVec, LinAlgError, Result, C64};

/// Closed-form eigenpairs of a 2×2 complex matrix: `[(λ₁,v₁), (λ₂,v₂)]`.
///
/// Eigenvectors are unit norm. For defective matrices (repeated eigenvalue
/// with a single eigenvector) both returned vectors coincide.
pub fn eig2(a: &CMat) -> Result<[(C64, CVec); 2]> {
    if a.shape() != (2, 2) {
        return Err(LinAlgError::ShapeMismatch {
            expected: (2, 2),
            got: a.shape(),
        });
    }
    let tr = a[(0, 0)] + a[(1, 1)];
    let det = a[(0, 0)] * a[(1, 1)] - a[(0, 1)] * a[(1, 0)];
    let disc = (tr * tr - det.scale(4.0)).sqrt();
    let l1 = (tr + disc).scale(0.5);
    let l2 = (tr - disc).scale(0.5);
    Ok([(l1, eigvec2(a, l1)?), (l2, eigvec2(a, l2)?)])
}

/// Eigenvector of a 2×2 matrix for a (known) eigenvalue.
fn eigvec2(a: &CMat, lambda: C64) -> Result<CVec> {
    // (A − λI)v = 0. Rows of (A − λI) are both orthogonal (unconjugated) to
    // v; use whichever row is better conditioned.
    // Each `|·|` is one `hypot`, computed once for both the row choice and
    // the zero test.
    let r0 = [a[(0, 0)] - lambda, a[(0, 1)]];
    let r1 = [a[(1, 0)], a[(1, 1)] - lambda];
    let m0 = [r0[0].abs(), r0[1].abs()];
    let m1 = [r1[0].abs(), r1[1].abs()];
    let (row, mag) = if m0[0] + m0[1] >= m1[0] + m1[1] {
        (r0, m0)
    } else {
        (r1, m1)
    };
    let v = if mag[0].max(mag[1]) < 1e-14 {
        // A − λI ≈ 0: every vector is an eigenvector.
        CVec::basis(2, 0)
    } else {
        [row[1], -row[0]].into_iter().collect()
    };
    v.normalize()
}

/// Hermitian eigendecomposition by cyclic complex Jacobi.
///
/// Returns `(eigenvalues ascending, V)` with `A = V·diag(λ)·Vᴴ` and `V`
/// unitary. Input must be Hermitian (checked loosely; the computation
/// symmetrises implicitly through the rotations). A NaN or infinite entry
/// is an error. A 2×2 input runs the same iteration written out for its
/// one pair.
pub fn eigh(a: &CMat) -> Result<(Vec<f64>, CMat)> {
    check_eigh_input(a)?;
    if let Some(a) = a.as_2x2() {
        let (d, v) = jacobi2(a);
        let (lo, hi) = if ascending2(d)? { (0, 1) } else { (1, 0) };
        let vv = CMat::from_fn(2, 2, |r, c| v[2 * r + if c == 0 { lo } else { hi }]);
        return Ok((vec![d[lo], d[hi]], vv));
    }
    jacobi(a)
}

/// [`eigh`]'s cyclic Jacobi for any checked square input.
fn jacobi(a: &CMat) -> Result<(Vec<f64>, CMat)> {
    let n = a.rows();
    let mut m = a.clone();
    let mut v = CMat::identity(n);
    let tol = 1e-14 * a.frobenius_norm().max(1.0);
    let max_sweeps = 60;

    for _ in 0..max_sweeps {
        // Off-diagonal Frobenius mass.
        let mut off = 0.0;
        for r in 0..n {
            for c in (r + 1)..n {
                off += m[(r, c)].norm_sqr();
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                let g = apq.abs();
                if g <= tol * 1e-2 {
                    continue;
                }
                // Phase similarity: row/col q scaled so m[p][q] becomes real.
                let phase = apq * (1.0 / g); // e^{iφ}
                let pc = phase.conj();
                for i in 0..n {
                    m[(i, q)] *= pc;
                }
                for i in 0..n {
                    m[(q, i)] *= phase;
                }
                for i in 0..n {
                    v[(i, q)] *= pc;
                }
                // Real symmetric Jacobi rotation annihilating m[p][q] = g.
                let (c, s) = jacobi_rotation(m[(p, p)].re, m[(q, q)].re, g);
                // Columns p,q.
                for i in 0..n {
                    let xp = m[(i, p)];
                    let xq = m[(i, q)];
                    m[(i, p)] = xp.scale(c) - xq.scale(s);
                    m[(i, q)] = xp.scale(s) + xq.scale(c);
                }
                // Rows p,q.
                for i in 0..n {
                    let xp = m[(p, i)];
                    let xq = m[(q, i)];
                    m[(p, i)] = xp.scale(c) - xq.scale(s);
                    m[(q, i)] = xp.scale(s) + xq.scale(c);
                }
                for i in 0..n {
                    let xp = v[(i, p)];
                    let xq = v[(i, q)];
                    v[(i, p)] = xp.scale(c) - xq.scale(s);
                    v[(i, q)] = xp.scale(s) + xq.scale(c);
                }
            }
        }
    }

    // Sort ascending by (real) diagonal.
    let mut order: Small<usize, 4> = (0..n).collect();
    let diag: Small<f64, 4> = (0..n).map(|i| m[(i, i)].re).collect();
    if diag.iter().any(|d| d.is_nan()) {
        return Err(NON_FINITE);
    }
    order.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).unwrap());
    let eigenvalues: Vec<f64> = order.iter().map(|&i| diag[i]).collect();
    let mut vv = CMat::zeros(n, n);
    for (slot, &i) in order.iter().enumerate() {
        vv.set_col(slot, &v.col(i));
    }
    Ok((eigenvalues, vv))
}

/// [`eigh`]'s error for a NaN or infinite input, or a NaN eigenvalue.
const NON_FINITE: LinAlgError = LinAlgError::Degenerate("non-finite Hermitian matrix");

/// The shape and finiteness checks [`eigh`] makes before iterating.
fn check_eigh_input(a: &CMat) -> Result<()> {
    if !a.is_square() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (a.rows(), a.rows()),
            got: a.shape(),
        });
    }
    if a.rows() == 0 {
        return Err(LinAlgError::Degenerate("empty matrix"));
    }
    if !a.as_slice().iter().all(|z| z.is_finite()) {
        return Err(NON_FINITE);
    }
    Ok(())
}

/// The real symmetric Jacobi rotation `(c, s)` that annihilates the
/// (real, positive) off-diagonal `g` between diagonal entries `app`, `aqq`.
#[inline]
fn jacobi_rotation(app: f64, aqq: f64, g: f64) -> (f64, f64) {
    let tau = (aqq - app) / (2.0 * g);
    let t = if tau >= 0.0 {
        1.0 / (tau + (1.0 + tau * tau).sqrt())
    } else {
        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
    };
    let c = 1.0 / (1.0 + t * t).sqrt();
    (c, c * t)
}

/// [`eigh`]'s cyclic Jacobi on a checked 2×2 input (row-major), written out
/// for its one pair `(p, q) = (0, 1)`: the same tolerance, sweep cap, phase
/// step and rotation, each float operation with the same operands in the
/// same order. Returns the final diagonal (unsorted) and `V` row-major.
fn jacobi2(a: &[C64; 4]) -> ([f64; 2], [C64; 4]) {
    let [mut m00, mut m01, mut m10, mut m11] = *a;
    let [mut v00, mut v01, mut v10, mut v11] = [C64::one(), C64::zero(), C64::zero(), C64::one()];
    // `CMat::frobenius_norm` of the entries.
    let frobenius = a.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    let tol = 1e-14 * frobenius.max(1.0);
    for _ in 0..60 {
        let off = 0.0 + m01.norm_sqr();
        if off.sqrt() <= tol {
            break;
        }
        let g = m01.abs();
        if g <= tol * 1e-2 {
            continue;
        }
        let phase = m01 * (1.0 / g);
        let pc = phase.conj();
        m01 *= pc;
        m11 *= pc;
        m10 *= phase;
        m11 *= phase;
        v01 *= pc;
        v11 *= pc;
        let (c, s) = jacobi_rotation(m00.re, m11.re, g);
        let rot = |xp: C64, xq: C64| (xp.scale(c) - xq.scale(s), xp.scale(s) + xq.scale(c));
        (m00, m01) = rot(m00, m01);
        (m10, m11) = rot(m10, m11);
        (m00, m10) = rot(m00, m10);
        (m01, m11) = rot(m01, m11);
        (v00, v01) = rot(v00, v01);
        (v10, v11) = rot(v10, v11);
    }
    ([m00.re, m11.re], [v00, v01, v10, v11])
}

/// Whether [`eigh`]'s stable ascending sort keeps a 2×2 diagonal in place
/// (a tie keeps it); a NaN is an error.
fn ascending2(d: [f64; 2]) -> Result<bool> {
    match d[1].partial_cmp(&d[0]) {
        Some(o) => Ok(o != std::cmp::Ordering::Less),
        None => Err(NON_FINITE),
    }
}

/// The eigenvector of a Hermitian matrix with the smallest eigenvalue — the
/// least-interfered direction, used by the leakage-minimising alignment
/// solver (receive side) and its reciprocal (transmit side). A 2×2 input
/// takes [`smallest_eigvec2`].
pub fn smallest_eigvec_hermitian(a: &CMat) -> Result<CVec> {
    if let Some(a) = a.as_2x2() {
        return smallest_eigvec2(a).map(|u| u.into_iter().collect());
    }
    let (_, v) = eigh(a)?;
    Ok(v.col(0))
}

/// [`smallest_eigvec_hermitian`] of a 2×2 Hermitian matrix given row-major,
/// bit for bit, forming neither the eigenvalue list nor `V`: the same
/// finiteness check, [`eigh`]'s Jacobi iteration and its sort order. A NaN
/// or infinite entry is an error.
pub fn smallest_eigvec2(a: &[C64; 4]) -> Result<[C64; 2]> {
    if !a.iter().all(|z| z.is_finite()) {
        return Err(NON_FINITE);
    }
    let (d, v) = jacobi2(a);
    let j = if ascending2(d)? { 0 } else { 1 };
    Ok([v[j], v[2 + j]])
}

/// The `k` eigenvectors with smallest eigenvalues of a Hermitian matrix.
pub fn smallest_eigvecs_hermitian(a: &CMat, k: usize) -> Result<Vec<CVec>> {
    if k > a.rows() {
        return Err(LinAlgError::Degenerate(
            "asked for more eigenvectors than dim",
        ));
    }
    let (_, v) = eigh(a)?;
    Ok((0..k).map(|j| v.col(j)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::{approx_eq, approx_eq_c};
    use crate::Rng64;

    fn residual(a: &CMat, lambda: C64, v: &CVec) -> f64 {
        (&a.mul_vec(v) - &v.scale_c(lambda)).norm()
    }

    #[test]
    fn eig2_diagonal() {
        let a = CMat::diag(&[C64::real(3.0), C64::real(-1.0)]);
        let pairs = eig2(&a).unwrap();
        let mut ls: Vec<f64> = pairs.iter().map(|p| p.0.re).collect();
        ls.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(approx_eq(ls[0], -1.0, 1e-12));
        assert!(approx_eq(ls[1], 3.0, 1e-12));
    }

    #[test]
    fn eig2_random_residuals() {
        let mut rng = Rng64::new(401);
        for _ in 0..50 {
            let a = CMat::random(2, 2, &mut rng);
            for (l, v) in eig2(&a).unwrap() {
                assert!(residual(&a, l, &v) < 1e-9);
                assert!(approx_eq(v.norm(), 1.0, 1e-10));
            }
        }
    }

    #[test]
    fn eig2_trace_det_consistency() {
        let mut rng = Rng64::new(402);
        let a = CMat::random(2, 2, &mut rng);
        let [(l1, _), (l2, _)] = eig2(&a).unwrap();
        assert!(approx_eq_c(l1 + l2, a.trace(), 1e-10));
        assert!(approx_eq_c(l1 * l2, a.det().unwrap(), 1e-10));
    }

    #[test]
    fn eigh_recovers_construction() {
        // Build A = V diag(d) Vᴴ from a known unitary and check recovery.
        let mut rng = Rng64::new(403);
        let base = CMat::random(4, 4, &mut rng);
        let q = crate::qr::Qr::compute(&base).unwrap().q;
        let d = [0.5, 1.5, 2.5, 7.0];
        let a = q
            .mul_mat(&CMat::diag(&d.map(C64::real)))
            .mul_mat(&q.hermitian());
        let (ls, v) = eigh(&a).unwrap();
        for (i, &expect) in d.iter().enumerate() {
            assert!(
                approx_eq(ls[i], expect, 1e-8),
                "λ{i}: {} vs {expect}",
                ls[i]
            );
        }
        // Unitarity of V.
        let g = v.hermitian().mul_mat(&v);
        assert!((&g - &CMat::identity(4)).frobenius_norm() < 1e-9);
        // Residuals.
        for (i, &l) in ls.iter().enumerate() {
            assert!(residual(&a, C64::real(l), &v.col(i)) < 1e-8);
        }
    }

    #[test]
    fn eigh_interference_covariance_use_case() {
        // Covariance of 1 interferer in C^2 is rank-1; the smallest
        // eigenvector must be orthogonal to the interference direction —
        // exactly the decoding-vector computation.
        let mut rng = Rng64::new(404);
        let dir = CVec::random(2, &mut rng);
        let d = dir.normalized();
        let q = CMat::from_fn(2, 2, |r, c| d[r] * d[c].conj()); // projector d·dᴴ
        let u = smallest_eigvec_hermitian(&q).unwrap();
        assert!(dir.dot(&u).abs() < 1e-9);
    }

    #[test]
    fn eigh_rejects_non_square() {
        assert!(eigh(&CMat::zeros(2, 3)).is_err());
    }

    /// Bit patterns of a matrix's entries, for exact comparison.
    fn bits(m: &CMat) -> Vec<(u64, u64)> {
        m.as_slice()
            .iter()
            .map(|z| (z.re.to_bits(), z.im.to_bits()))
            .collect()
    }

    /// The 2×2 paths of `eigh` and `smallest_eigvec_hermitian` must match
    /// the generic Jacobi bit for bit.
    fn assert_eigh2_matches_jacobi(a: &CMat) {
        let (ls, v) = eigh(a).unwrap();
        let (ls_ref, v_ref) = jacobi(a).unwrap();
        let lbits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(lbits(&ls), lbits(&ls_ref), "eigenvalues of\n{a}");
        assert_eq!(bits(&v), bits(&v_ref), "eigenvectors of\n{a}");
        let u = smallest_eigvec_hermitian(a).unwrap();
        assert_eq!(
            bits(&CMat::from_cols(&[u])),
            bits(&CMat::from_cols(&[v_ref.col(0)])),
            "smallest eigenvector of\n{a}"
        );
    }

    /// A random 2×2 Hermitian matrix — a covariance `B·Bᴴ` or a plain
    /// `B + Bᴴ` — at an occasionally extreme scale.
    fn random_hermitian2(rng: &mut Rng64) -> CMat {
        let b = CMat::random(2, 2, rng);
        let h = if rng.chance(0.5) {
            b.mul_mat(&b.hermitian())
        } else {
            &b + &b.hermitian()
        };
        h.scale(*rng.pick(&[1.0, 1.0, 1e-150, 1e150, 1e-300]))
    }

    #[test]
    fn eigh2_matches_generic_jacobi_bitwise() {
        let mut rng = Rng64::new(410);
        for _ in 0..10_000 {
            assert_eigh2_matches_jacobi(&random_hermitian2(&mut rng));
        }
        // The 2×2 path runs on any finite square input, Hermitian or not.
        for _ in 0..1_000 {
            assert_eigh2_matches_jacobi(&CMat::random(2, 2, &mut rng));
        }
    }

    #[test]
    fn eigh2_matches_generic_jacobi_on_edge_cases() {
        let r = C64::real;
        let m = |e: [C64; 4]| CMat::new(2, 2, e.to_vec());
        let cases = [
            // Zero off-diagonal: no rotation; ascending and descending.
            m([r(1.0), r(0.0), r(0.0), r(2.0)]),
            m([r(2.0), r(0.0), r(0.0), r(1.0)]),
            // Equal eigenvalues: the stable sort keeps the order.
            m([r(3.0), r(0.0), r(0.0), r(3.0)]),
            m([r(-0.0), r(0.0), r(0.0), r(0.0)]),
            m([C64::zero(); 4]),
            // Rank one, with a complex off-diagonal.
            m([r(1.0), C64::new(1.0, 1.0), C64::new(1.0, -1.0), r(2.0)]),
            // Off-diagonal below the rotation floor and at extreme scales.
            m([r(1.0), r(1e-20), r(1e-20), r(1.0)]),
            m([r(1e-150), r(1e-150), r(1e-150), r(1e-150)]),
            m([
                r(1e150),
                C64::new(0.0, 1e150),
                C64::new(0.0, -1e150),
                r(1e150),
            ]),
        ];
        for a in &cases {
            assert_eigh2_matches_jacobi(a);
        }
    }

    #[test]
    fn eigh_rejects_non_finite_entries() {
        let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for n in [2, 3] {
            for &x in &bad {
                for slot in [(0, 0), (0, 1)] {
                    let mut a = CMat::identity(n);
                    a[slot] = C64::new(x, 0.0);
                    assert_eq!(eigh(&a).unwrap_err(), NON_FINITE, "n={n} {x} at {slot:?}");
                    assert!(smallest_eigvec_hermitian(&a).is_err());
                    assert!(smallest_eigvecs_hermitian(&a, 1).is_err());
                }
            }
        }
    }

    #[test]
    fn smallest_eigvecs_count() {
        let mut rng = Rng64::new(409);
        let b = CMat::random(4, 4, &mut rng);
        let a = b.mul_mat(&b.hermitian()); // Hermitian PSD
        let vs = smallest_eigvecs_hermitian(&a, 2).unwrap();
        assert_eq!(vs.len(), 2);
        // Orthonormal pair.
        assert!(approx_eq(vs[0].norm(), 1.0, 1e-9));
        assert!(vs[0].dot(&vs[1]).abs() < 1e-8);
    }
}
