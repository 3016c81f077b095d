//! Eigendecompositions.
//!
//! Three flavours, each needed by a different part of IAC:
//!
//! * [`eig2`] — closed-form eigenpairs of a general complex 2×2 matrix. The
//!   paper's four-packet uplink alignment is literally "an eigenvector of
//!   `H32⁻¹ H22 H21⁻¹ H31`" (footnote 4), a 2×2 problem for 2-antenna nodes.
//! * [`eigh`] — cyclic Jacobi for Hermitian matrices. The iterative alignment
//!   solver picks decode subspaces as the smallest-eigenvalue eigenvectors of
//!   interference covariance matrices, which are Hermitian PSD.
//! * [`general_eigenvectors`] — shifted QR iteration on a Hessenberg form for
//!   general complex matrices of modest size (the M-antenna generalisations
//!   of the footnote-4 eigenproblem).

use crate::small::Small;
use crate::{C64, CMat, CVec, LinAlgError, Lu, Result};

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

/// Dominant eigenpair via power iteration (utility for quick spectral-radius
/// style queries; converges when a strictly dominant eigenvalue exists).
pub fn power_iteration(a: &CMat, iters: usize, seed_vec: &CVec) -> Result<(C64, CVec)> {
    if !a.is_square() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (a.rows(), a.rows()),
            got: a.shape(),
        });
    }
    let mut v = seed_vec.normalize()?;
    let mut lambda = C64::zero();
    for _ in 0..iters {
        let w = a.mul_vec(&v);
        let n = w.norm();
        if n < 1e-300 {
            return Err(LinAlgError::Degenerate("power iteration hit zero vector"));
        }
        v = w.scale(1.0 / n);
        lambda = v.dot(&a.mul_vec(&v)); // Rayleigh quotient (v is unit)
    }
    Ok((lambda, v))
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
        return Err(LinAlgError::Degenerate("asked for more eigenvectors than dim"));
    }
    let (_, v) = eigh(a)?;
    Ok((0..k).map(|j| v.col(j)).collect())
}

/// All eigenvalues of a general complex square matrix, via Hessenberg
/// reduction and shifted QR iteration.
pub fn eigenvalues(a: &CMat) -> Result<Vec<C64>> {
    if !a.is_square() {
        return Err(LinAlgError::ShapeMismatch {
            expected: (a.rows(), a.rows()),
            got: a.shape(),
        });
    }
    let n = a.rows();
    match n {
        0 => Err(LinAlgError::Degenerate("empty matrix")),
        1 => Ok(vec![a[(0, 0)]]),
        2 => {
            let pairs = eig2(a)?;
            Ok(vec![pairs[0].0, pairs[1].0])
        }
        _ => {
            let mut h = hessenberg(a);
            let mut out = Vec::with_capacity(n);
            qr_eigenvalues(&mut h, &mut out)?;
            Ok(out)
        }
    }
}

/// Eigenpairs of a general complex square matrix. Eigenvalues come from the
/// QR iteration; eigenvectors from inverse iteration with a perturbed shift.
///
/// Intended for matrices of modest dimension (≤ ~12) with non-pathological
/// spectra — exactly the alignment-product matrices of the paper.
pub fn general_eigenvectors(a: &CMat) -> Result<Vec<(C64, CVec)>> {
    let lambdas = eigenvalues(a)?;
    let n = a.rows();
    let scale = a.frobenius_norm().max(1.0);
    let mut out = Vec::with_capacity(lambdas.len());
    for lambda in lambdas {
        let v = inverse_iteration(a, lambda, scale, n)?;
        out.push((lambda, v));
    }
    Ok(out)
}

fn inverse_iteration(a: &CMat, lambda: C64, scale: f64, n: usize) -> Result<CVec> {
    // Perturb the shift slightly so (A − λ̃I) is invertible, then iterate.
    let mut shift_eps = 1e-10 * scale;
    'retry: for _attempt in 0..6 {
        let shifted = {
            let mut m = a.clone();
            for i in 0..n {
                m[(i, i)] -= lambda + C64::real(shift_eps);
            }
            m
        };
        let lu = match Lu::factor(&shifted) {
            Ok(lu) => lu,
            Err(_) => {
                shift_eps *= 10.0;
                continue 'retry;
            }
        };
        // Deterministic non-degenerate start vector.
        let mut v = CVec::from_fn(n, |i| C64::new(1.0, (i as f64 + 1.0) * 0.1)).normalized();
        for _ in 0..8 {
            let w = match lu.solve(&v) {
                Ok(w) => w,
                Err(_) => {
                    shift_eps *= 10.0;
                    continue 'retry;
                }
            };
            let nw = w.norm();
            if !nw.is_finite() || nw < 1e-300 {
                shift_eps *= 10.0;
                continue 'retry;
            }
            v = w.scale(1.0 / nw);
        }
        // Validate the residual; retry with bigger perturbation if poor.
        let resid = (&a.mul_vec(&v) - &v.scale_c(lambda)).norm();
        if resid <= 1e-6 * scale {
            return Ok(v);
        }
        shift_eps *= 10.0;
    }
    Err(LinAlgError::NoConvergence { iterations: 6 })
}

/// Reduce to upper Hessenberg form by Householder similarity transforms.
fn hessenberg(a: &CMat) -> CMat {
    let n = a.rows();
    let mut h = a.clone();
    for k in 0..n.saturating_sub(2) {
        // Zero column k below the first subdiagonal.
        let mut x = CVec::zeros(n - k - 1);
        for i in (k + 1)..n {
            x[i - k - 1] = h[(i, k)];
        }
        let xnorm = x.norm();
        if xnorm < 1e-300 {
            continue;
        }
        let x0 = x[0];
        let phase = if x0.abs() < 1e-300 {
            C64::one()
        } else {
            x0 * (1.0 / x0.abs())
        };
        let alpha = -(phase * xnorm);
        let mut v = x;
        v[0] -= alpha;
        let vns = v.norm_sqr();
        if vns < 1e-300 {
            continue;
        }
        let tau = 2.0 / vns;
        // H ← P·H with P = I − τ·v·vᴴ acting on rows k+1..n.
        for c in 0..n {
            let mut dot = C64::zero();
            for i in (k + 1)..n {
                dot += v[i - k - 1].conj() * h[(i, c)];
            }
            let f = dot.scale(tau);
            for i in (k + 1)..n {
                let sub = f * v[i - k - 1];
                h[(i, c)] -= sub;
            }
        }
        // H ← H·P acting on columns k+1..n.
        for r in 0..n {
            let mut dot = C64::zero();
            for i in (k + 1)..n {
                dot += h[(r, i)] * v[i - k - 1];
            }
            let f = dot.scale(tau);
            for i in (k + 1)..n {
                let sub = f * v[i - k - 1].conj();
                h[(r, i)] -= sub;
            }
        }
    }
    h
}

/// Shifted QR iteration on a Hessenberg matrix, deflating eigenvalues into
/// `out`. Uses Wilkinson shifts and complex Givens rotations.
fn qr_eigenvalues(h: &mut CMat, out: &mut Vec<C64>) -> Result<()> {
    let mut n = h.rows();
    let scale = h.frobenius_norm().max(1.0);
    let eps = 1e-14 * scale;
    let mut budget = 200 * n;

    while n > 0 {
        if n == 1 {
            out.push(h[(0, 0)]);
            break;
        }
        if n == 2 {
            let sub = h.submatrix(0, 0, 2, 2);
            let pairs = eig2(&sub)?;
            out.push(pairs[0].0);
            out.push(pairs[1].0);
            break;
        }
        // Look for a negligible subdiagonal to deflate at.
        let mut deflated = false;
        for i in (1..n).rev() {
            if h[(i, i - 1)].abs() <= eps * (h[(i - 1, i - 1)].abs() + h[(i, i)].abs() + eps) {
                if i == n - 1 {
                    out.push(h[(n - 1, n - 1)]);
                    n -= 1;
                } else {
                    // Split: solve the trailing block separately.
                    let mut tail = h.submatrix(i, i, n - i, n - i);
                    qr_eigenvalues(&mut tail, out)?;
                    n = i;
                }
                deflated = true;
                break;
            }
        }
        if deflated {
            continue;
        }
        if budget == 0 {
            return Err(LinAlgError::NoConvergence { iterations: 200 });
        }
        budget -= 1;

        // Wilkinson shift: eigenvalue of trailing 2×2 closest to h[n−1,n−1].
        let block = h.submatrix(n - 2, n - 2, 2, 2);
        let pairs = eig2(&block)?;
        let target = h[(n - 1, n - 1)];
        let mu = if (pairs[0].0 - target).abs() <= (pairs[1].0 - target).abs() {
            pairs[0].0
        } else {
            pairs[1].0
        };

        // One implicit QR step: factor (H − μI) with Givens, form RQ + μI.
        for i in 0..n {
            h[(i, i)] -= mu;
        }
        let mut rotations: Vec<(usize, f64, C64)> = Vec::with_capacity(n - 1);
        for k in 0..(n - 1) {
            let a = h[(k, k)];
            let b = h[(k + 1, k)];
            let (c, s) = givens(a, b);
            rotations.push((k, c, s));
            // Apply Gᴴ from the left to rows k, k+1 (columns k..n).
            for col in k..n {
                let x = h[(k, col)];
                let y = h[(k + 1, col)];
                h[(k, col)] = x.scale(c) + s * y;
                h[(k + 1, col)] = y.scale(c) - s.conj() * x;
            }
        }
        for &(k, c, s) in &rotations {
            // Apply G from the right to columns k, k+1 (rows 0..=k+1).
            for row in 0..=(k + 1).min(n - 1) {
                let x = h[(row, k)];
                let y = h[(row, k + 1)];
                h[(row, k)] = x.scale(c) + y * s.conj();
                h[(row, k + 1)] = y.scale(c) - x * s;
            }
        }
        for i in 0..n {
            h[(i, i)] += mu;
        }
    }
    Ok(())
}

/// Complex Givens pair (c real, s complex) with
/// `[c, s; −s̄, c]ᴴ · [a; b] = [r; 0]`.
fn givens(a: C64, b: C64) -> (f64, C64) {
    let bmag = b.abs();
    if bmag == 0.0 {
        return (1.0, C64::zero());
    }
    let amag = a.abs();
    let r = (amag * amag + bmag * bmag).sqrt();
    if amag == 0.0 {
        // Rotate b straight into the first slot.
        return (0.0, b.conj() * (1.0 / r));
    }
    let c = amag / r;
    let s = (a * (1.0 / amag)) * b.conj() * (1.0 / r);
    (c, s)
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
            assert!(approx_eq(ls[i], expect, 1e-8), "λ{i}: {} vs {expect}", ls[i]);
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
        let q = crate::qr::projector(&[dir.normalized()]);
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
            m([r(1e150), C64::new(0.0, 1e150), C64::new(0.0, -1e150), r(1e150)]),
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
    fn general_eigen_matches_eig2_for_2x2() {
        let mut rng = Rng64::new(405);
        let a = CMat::random(2, 2, &mut rng);
        let pairs = general_eigenvectors(&a).unwrap();
        assert_eq!(pairs.len(), 2);
        for (l, v) in pairs {
            assert!(residual(&a, l, &v) < 1e-8);
        }
    }

    #[test]
    fn general_eigen_known_triangular() {
        // Upper triangular ⇒ eigenvalues are the diagonal.
        let n = 4;
        let mut rng = Rng64::new(406);
        let mut a = CMat::random(n, n, &mut rng);
        for r in 1..n {
            for c in 0..r {
                a[(r, c)] = C64::zero();
            }
        }
        let mut expect: Vec<C64> = (0..n).map(|i| a[(i, i)]).collect();
        let mut got = eigenvalues(&a).unwrap();
        let key = |z: &C64| (z.re * 1e6) as i64;
        expect.sort_by_key(key);
        got.sort_by_key(key);
        for (e, g) in expect.iter().zip(&got) {
            assert!(approx_eq_c(*e, *g, 1e-7), "{e} vs {g}");
        }
    }

    #[test]
    fn general_eigen_random_residuals() {
        let mut rng = Rng64::new(407);
        for n in 3..=6 {
            let a = CMat::random(n, n, &mut rng);
            let pairs = general_eigenvectors(&a).unwrap();
            assert_eq!(pairs.len(), n);
            for (l, v) in pairs {
                let r = residual(&a, l, &v);
                assert!(r < 1e-6, "n={n}: residual {r} for λ={l}");
            }
        }
    }

    #[test]
    fn general_eigen_footnote4_shape() {
        // The alignment-product matrix of the paper's footnote 4:
        // eig(H32⁻¹ H22 H21⁻¹ H31) for random 2×2 channels.
        let mut rng = Rng64::new(408);
        let h21 = CMat::random(2, 2, &mut rng);
        let h22 = CMat::random(2, 2, &mut rng);
        let h31 = CMat::random(2, 2, &mut rng);
        let h32 = CMat::random(2, 2, &mut rng);
        let prod = h32
            .inverse()
            .unwrap()
            .mul_mat(&h22)
            .mul_mat(&h21.inverse().unwrap())
            .mul_mat(&h31);
        let pairs = general_eigenvectors(&prod).unwrap();
        for (l, v) in pairs {
            assert!(residual(&prod, l, &v) < 1e-8);
        }
    }

    #[test]
    fn power_iteration_dominant() {
        let a = CMat::diag(&[C64::real(5.0), C64::real(1.0), C64::real(0.1)]);
        let seed_vec = CVec::from_real(&[1.0, 1.0, 1.0]);
        let (l, v) = power_iteration(&a, 100, &seed_vec).unwrap();
        assert!(approx_eq(l.re, 5.0, 1e-8));
        assert!(v[0].abs() > 0.999);
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
