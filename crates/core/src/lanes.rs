//! Lane-batched candidate scoring: the arithmetic of
//! [`ScoringContext::score_batch`](crate::optimize::ScoringContext::score_batch)
//! and of [`uplink3_optimized`](crate::optimize::uplink3_optimized).
//!
//! [`LANES`] candidates (fig15's groups, or one slot's alignment seeds)
//! are scored side by side, structure-of-arrays: every complex entry of
//! every matrix and vector is a pair of `[f64; LANES]`, one slot per
//! candidate, so each float operation of the per-candidate pipeline
//! (products, `eig2`, normalisations, encodings, the candidate decodes)
//! runs once for the whole chunk and the compiler emits it as one vector
//! instruction.
//!
//! Each lane computes exactly what the scalar path computes for its candidate:
//! the same float operations on the same operands in the same order.
//! `mul_add` appears exactly where [`CMat::mul_mat`](iac_linalg::CMat::mul_mat),
//! `CMat::mul_vec` and [`C64::mul_add`] fuse, and plain mul/add where
//! `C64`'s operators and the decoder's dot product do not. libm calls
//! (`hypot`, the complex square root's `atan2`/`cos`/`sin`, and `log2`) run
//! per lane on the scalar functions. Data-dependent choices that the scalar
//! code makes with a branch (the `eig2` eigenvector row, its flat-matrix
//! test, the decoding vector's phase normalisation, the eigenvector order)
//! are per-lane selects of values both sides compute.
//!
//! A lane whose candidate the scalar path would end in an error (a failed
//! normalisation, a non-finite covariance or eigenvalue, a NaN SINR), or
//! whose 2×2 Jacobi iteration would not stop after exactly one rotation,
//! is reported not `ok`; the caller scores it on the scalar path.

use crate::rate::sum_rates;
use iac_linalg::C64;
use std::ops::{Add, Mul, Neg, Sub};

/// Groups scored side by side. 4 × `f64` fills one AVX register, which the
/// workspace's `+fma` target feature enables; 2 and 8 were measured slower
/// (docs/PERFORMANCE.md).
pub(crate) const LANES: usize = 4;

/// One `f64` per lane.
pub(crate) type F = [f64; LANES];
/// One flag per lane.
pub(crate) type Mask = [bool; LANES];

#[inline(always)]
fn lanes(f: impl FnMut(usize) -> f64) -> F {
    std::array::from_fn(f)
}

#[inline(always)]
fn mask(f: impl FnMut(usize) -> bool) -> Mask {
    std::array::from_fn(f)
}

/// One complex value per lane.
#[derive(Clone, Copy)]
pub(crate) struct Z {
    re: F,
    im: F,
}

/// A 2-vector per lane.
type V = [Z; 2];
/// A 2×2 matrix per lane, row-major.
pub(crate) type M = [Z; 4];

impl Z {
    #[inline(always)]
    fn splat(z: C64) -> Self {
        Self {
            re: [z.re; LANES],
            im: [z.im; LANES],
        }
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> C64) -> Self {
        let mut z = Self::splat(C64::zero());
        for l in 0..LANES {
            let c = f(l);
            z.re[l] = c.re;
            z.im[l] = c.im;
        }
        z
    }

    #[inline(always)]
    fn get(&self, l: usize) -> C64 {
        C64::new(self.re[l], self.im[l])
    }

    /// [`C64::conj`].
    #[inline(always)]
    fn conj(self) -> Self {
        Self {
            re: self.re,
            im: lanes(|l| -self.im[l]),
        }
    }

    /// [`C64::scale`].
    #[inline(always)]
    fn scale(self, k: F) -> Self {
        Self {
            re: lanes(|l| self.re[l] * k[l]),
            im: lanes(|l| self.im[l] * k[l]),
        }
    }

    /// [`C64::norm_sqr`].
    #[inline(always)]
    fn norm_sqr(self) -> F {
        lanes(|l| self.re[l] * self.re[l] + self.im[l] * self.im[l])
    }

    /// [`C64::abs`]: one `hypot` per lane.
    #[inline(always)]
    fn abs(self) -> F {
        lanes(|l| self.re[l].hypot(self.im[l]))
    }

    /// [`C64::mul_add`]: `self * b + c`, fused.
    #[inline(always)]
    fn mul_add(self, b: Self, c: Self) -> Self {
        Self {
            re: lanes(|l| self.re[l].mul_add(b.re[l], self.im[l].mul_add(-b.im[l], c.re[l]))),
            im: lanes(|l| self.re[l].mul_add(b.im[l], self.im[l].mul_add(b.re[l], c.im[l]))),
        }
    }

    /// Per lane, `a` where `pick` holds and `b` elsewhere.
    #[inline(always)]
    fn select(pick: Mask, a: Self, b: Self) -> Self {
        Self {
            re: lanes(|l| if pick[l] { a.re[l] } else { b.re[l] }),
            im: lanes(|l| if pick[l] { a.im[l] } else { b.im[l] }),
        }
    }
}

impl Add for Z {
    type Output = Z;
    #[inline(always)]
    fn add(self, o: Z) -> Z {
        Z {
            re: lanes(|l| self.re[l] + o.re[l]),
            im: lanes(|l| self.im[l] + o.im[l]),
        }
    }
}

impl Sub for Z {
    type Output = Z;
    #[inline(always)]
    fn sub(self, o: Z) -> Z {
        Z {
            re: lanes(|l| self.re[l] - o.re[l]),
            im: lanes(|l| self.im[l] - o.im[l]),
        }
    }
}

/// `C64`'s `Mul`: four products, one subtraction and one addition, unfused.
impl Mul for Z {
    type Output = Z;
    #[inline(always)]
    fn mul(self, o: Z) -> Z {
        Z {
            re: lanes(|l| self.re[l] * o.re[l] - self.im[l] * o.im[l]),
            im: lanes(|l| self.re[l] * o.im[l] + self.im[l] * o.re[l]),
        }
    }
}

impl Neg for Z {
    type Output = Z;
    #[inline(always)]
    fn neg(self) -> Z {
        Z {
            re: lanes(|l| -self.re[l]),
            im: lanes(|l| -self.im[l]),
        }
    }
}

/// Per lane, the 2×2 matrix `f(l)`.
#[inline(always)]
pub(crate) fn gather<'a>(f: impl Fn(usize) -> &'a [C64; 4]) -> M {
    std::array::from_fn(|k| Z::from_fn(|l| f(l)[k]))
}

/// The same 2×2 matrix in every lane.
#[inline(always)]
pub(crate) fn splat(m: &[C64; 4]) -> M {
    m.map(Z::splat)
}

/// `CMat::mul_mat` of 2×2 matrices: `out[i][j] = a[i][1]·b[1][j] +
/// (a[i][0]·b[0][j] + 0)`, each step one `C64::mul_add`.
#[inline(always)]
fn mul_mat(a: &M, b: &M) -> M {
    let z = Z::splat(C64::zero());
    std::array::from_fn(|k| {
        let (i, j) = (k / 2, k % 2);
        a[2 * i + 1].mul_add(b[2 + j], a[2 * i].mul_add(b[j], z))
    })
}

/// `CMat::mul_vec` of a 2×2 matrix, as `matrix::mul_vec2`.
#[inline(always)]
fn mul_vec(a: &M, x: &V) -> V {
    let z = Z::splat(C64::zero());
    [
        a[1].mul_add(x[1], a[0].mul_add(x[0], z)),
        a[3].mul_add(x[1], a[2].mul_add(x[0], z)),
    ]
}

/// The Hermitian inner product `⟨u, x⟩`, summed from zero as `CVec::dot`.
#[inline(always)]
fn dot(u: &V, x: &V) -> Z {
    Z::splat(C64::zero()) + u[0].conj() * x[0] + u[1].conj() * x[1]
}

/// `CVec::normalize`; a lane whose norm is below `1e-300` is an error and
/// clears its `ok`.
#[inline(always)]
fn normalize(v: &V, ok: &mut Mask) -> V {
    let n = lanes(|l| (v[0].norm_sqr()[l] + v[1].norm_sqr()[l]).sqrt());
    for l in 0..LANES {
        ok[l] &= n[l] >= 1e-300 || n[l].is_nan();
    }
    let k = lanes(|l| 1.0 / n[l]);
    [v[0].scale(k), v[1].scale(k)]
}

/// `iac_linalg::eig2`'s two eigenvectors, unit norm, in its order. The
/// `hypot`s of `a[1]` and `a[2]` do not depend on the eigenvalue, so each
/// is taken once for both vectors.
#[inline(always)]
fn eig2(a: &M, ok: &mut Mask) -> [V; 2] {
    let tr = a[0] + a[3];
    let det = a[0] * a[3] - a[1] * a[2];
    let w = tr * tr - det.scale([4.0; LANES]);
    let disc = Z::from_fn(|l| w.get(l).sqrt());
    let half = [0.5; LANES];
    let (off01, off10) = (a[1].abs(), a[2].abs());
    [tr + disc, tr - disc].map(|twice| {
        let lambda = twice.scale(half);
        let r0 = [a[0] - lambda, a[1]];
        let r1 = [a[2], a[3] - lambda];
        let (d0, d1) = (r0[0].abs(), r1[1].abs());
        let first = mask(|l| d0[l] + off01[l] >= off10[l] + d1[l]);
        let row = [
            Z::select(first, r0[0], r1[0]),
            Z::select(first, r0[1], r1[1]),
        ];
        let flat = mask(|l| {
            let (m0, m1) = if first[l] {
                (d0[l], off01[l])
            } else {
                (off10[l], d1[l])
            };
            m0.max(m1) < 1e-14
        });
        let v = [
            Z::select(flat, Z::splat(C64::one()), row[1]),
            Z::select(flat, Z::splat(C64::zero()), -row[0]),
        ];
        normalize(&v, ok)
    })
}

/// `eig::jacobi_rotation`, per lane.
#[inline(always)]
fn jacobi_rotation(app: F, aqq: F, g: F) -> (F, F) {
    let t = lanes(|l| {
        let tau = (aqq[l] - app[l]) / (2.0 * g[l]);
        let root = (1.0 + tau * tau).sqrt();
        if tau >= 0.0 {
            1.0 / (tau + root)
        } else {
            -1.0 / (-tau + root)
        }
    });
    let c = lanes(|l| 1.0 / (1.0 + t[l] * t[l]).sqrt());
    (c, lanes(|l| c[l] * t[l]))
}

/// `eig::smallest_eigvec2` of the Hermitian `q`, for lanes whose Jacobi
/// iteration rotates exactly once and then stops: the common case, since
/// one exact rotation leaves an off-diagonal near `1e-16·‖q‖` against a
/// stopping tolerance of `1e-14·max(‖q‖, 1)`. Any other lane, and a lane
/// with a non-finite entry or eigenvalue, clears its `ok`.
#[inline(always)]
fn least_captured(q: &M, ok: &mut Mask) -> V {
    for (l, ok) in ok.iter_mut().enumerate() {
        *ok &= q.iter().all(|z| z.get(l).is_finite());
    }
    let entries = q.map(Z::norm_sqr);
    let frobenius = lanes(|l| entries.iter().map(|n| n[l]).sum::<f64>().sqrt());
    let tol = lanes(|l| 1e-14 * frobenius[l].max(1.0));
    let [m00, m01, m10, m11] = *q;
    // First sweep: must not stop, and must rotate. `q` is finite in every
    // lane still `ok`, so these comparisons see no NaN there.
    let off = m01.norm_sqr();
    let g = m01.abs();
    for l in 0..LANES {
        ok[l] &= (0.0 + off[l]).sqrt() > tol[l] && g[l] > tol[l] * 1e-2;
    }
    let phase = m01.scale(lanes(|l| 1.0 / g[l]));
    let pc = phase.conj();
    let m01 = m01 * pc;
    let m11 = m11 * pc * phase;
    let m10 = m10 * phase;
    let (v00, v10) = (Z::splat(C64::one()), Z::splat(C64::zero()));
    let v01 = v10 * pc;
    let v11 = v00 * pc;
    let (c, s) = jacobi_rotation(m00.re, m11.re, g);
    let rot = |xp: Z, xq: Z| (xp.scale(c) - xq.scale(s), xp.scale(s) + xq.scale(c));
    let (m00, m01) = rot(m00, m01);
    let (m10, m11) = rot(m10, m11);
    let (m00, _) = rot(m00, m10);
    let (m01, m11) = rot(m01, m11);
    let (v00, v01) = rot(v00, v01);
    let (v10, v11) = rot(v10, v11);
    // Second sweep: must stop. Then `ascending2`'s order: the first
    // column unless `d1 < d0`.
    let off = m01.norm_sqr();
    let (d0, d1) = (m00.re, m11.re);
    for l in 0..LANES {
        ok[l] &= (0.0 + off[l]).sqrt() <= tol[l] && !d0[l].is_nan() && !d1[l].is_nan();
    }
    let first = mask(|l| d1[l] >= d0[l]);
    [Z::select(first, v00, v01), Z::select(first, v10, v11)]
}

/// The SINR of one decoded packet, as the decoder's two-antenna step loop
/// computes it with `one_grid`: the decoding vector least captured by
/// `nuisance` (interferers, then co-decoded packets, each an image with
/// its packet's power), phase-normalised against `signal`, then signal
/// over noise plus nuisance power in that order. A NaN SINR clears `ok`.
/// Out of line, one copy per nuisance count: inlining the seven calls
/// made the kernels half again as large and no faster.
#[inline(never)]
fn packet<const N: usize>(
    signal: &V,
    power: f64,
    nuisance: [(&V, f64); N],
    noise: f64,
    ok: &mut Mask,
) -> F {
    let mut q = [Z::splat(C64::zero()); 4];
    for (img, _) in nuisance {
        for r in 0..2 {
            for c in 0..2 {
                q[2 * r + c] = q[2 * r + c] + img[r] * img[c].conj();
            }
        }
    }
    let u = least_captured(&q, ok);
    let sig = dot(&u, signal);
    let mag = sig.abs();
    let k = sig.scale(lanes(|l| 1.0 / mag[l])).conj();
    let rephase = mask(|l| mag[l] > 1e-12);
    let u = [
        Z::select(rephase, u[0] * k, u[0]),
        Z::select(rephase, u[1] * k, u[1]),
    ];
    let captured = |img: &V, p: f64| {
        let ns = dot(&u, img).norm_sqr();
        lanes(|l| p * ns[l])
    };
    let num = captured(signal, power);
    let mut den = [noise; LANES];
    for (img, p) in nuisance {
        let x = captured(img, p);
        den = lanes(|l| den[l] + x[l]);
    }
    let sinr = lanes(|l| (0.0 + num[l]) / den[l]);
    for l in 0..LANES {
        ok[l] &= !sinr[l].is_nan();
    }
    sinr
}

/// Eq. 9's rate of each `ok` lane's SINRs, summed in packet order by the
/// scalar `sum_rates`; NaN in the other lanes, whose SINRs may be NaN.
#[inline(always)]
fn rate<const N: usize>(ok: &Mask, sinrs: [F; N]) -> F {
    lanes(|l| {
        if ok[l] {
            sum_rates(sinrs.iter().map(|s| s[l]))
        } else {
            f64::NAN
        }
    })
}

/// The better of a group's two candidate rates, the first winning ties
/// (`Contest`'s rule).
#[inline(always)]
fn better(first: F, second: F) -> F {
    lanes(|l| {
        if second[l] > first[l] {
            second[l]
        } else {
            first[l]
        }
    })
}

/// One chunk of uplink groups `[head, a, b]`: the cached terms and links
/// of [`ScoringContext`](crate::optimize::ScoringContext)'s `uplink_best`,
/// per lane. `H(c, r)` is client `c`'s link to AP `r`.
pub(crate) struct UplinkChunk {
    /// `H(head, 0)`, `H(head, 1)`, the same in every lane.
    pub(crate) head: [M; 2],
    /// `H(a, 0)⁻¹`.
    pub(crate) h10_inv: M,
    /// `H(b, 1)⁻¹`.
    pub(crate) h21_inv: M,
    /// `H(head, 0)⁻¹·H(b, 0)`.
    pub(crate) to_v1: M,
    /// `H(a, r)` for APs 0, 1, 2.
    pub(crate) a: [M; 3],
    /// `H(b, r)` for APs 0, 1, 2.
    pub(crate) b: [M; 3],
}

/// The uplink scores of one chunk: `uplink_best`'s rate per lane.
/// `powers` is the `uplink_2m(2)` power split.
#[inline(never)]
pub(crate) fn uplink(c: &UplinkChunk, powers: [f64; 4], noise: f64) -> (F, Mask) {
    let mut ok = [true; LANES];
    let [h00, h01] = &c.head;
    let h00_h = [h00[0].conj(), h00[2].conj(), h00[1].conj(), h00[3].conj()];
    let prod = mul_mat(&mul_mat(&mul_mat(&c.h21_inv, &c.a[1]), &c.h10_inv), &c.b[0]);
    let eigvecs = eig2(&prod, &mut ok);
    let to_v2 = mul_mat(&c.h10_inv, &c.b[0]);
    let [p0, p1, p2, p3] = powers;
    let rates = eigvecs.map(|v3| {
        let v3 = normalize(&v3, &mut ok);
        let v2 = normalize(&mul_vec(&to_v2, &v3), &mut ok);
        let v1 = normalize(&mul_vec(&c.to_v1, &v3), &mut ok);
        // AP0's projection is orthogonal to the aligned triple, and v0 is
        // beamformed to it.
        let aligned = mul_vec(h00, &v1);
        let u0 = normalize(&[-aligned[1].conj(), aligned[0].conj()], &mut ok);
        let v0 = normalize(&mul_vec(&h00_h, &u0), &mut ok);
        // AP0 decodes p0 under p1, p2, p3; AP1 decodes p1 under p2, p3;
        // AP2 decodes p2 and p3.
        let (e2, e3) = (mul_vec(&c.a[0], &v2), mul_vec(&c.b[0], &v3));
        let s0 = packet(
            &mul_vec(h00, &v0),
            p0,
            [(&aligned, p1), (&e2, p2), (&e3, p3)],
            noise,
            &mut ok,
        );
        let (e2, e3) = (mul_vec(&c.a[1], &v2), mul_vec(&c.b[1], &v3));
        let s1 = packet(
            &mul_vec(h01, &v1),
            p1,
            [(&e2, p2), (&e3, p3)],
            noise,
            &mut ok,
        );
        let (e2, e3) = (mul_vec(&c.a[2], &v2), mul_vec(&c.b[2], &v3));
        let s2 = packet(&e2, p2, [(&e3, p3)], noise, &mut ok);
        let s3 = packet(&e3, p3, [(&e2, p2)], noise, &mut ok);
        rate(&ok, [s0, s1, s2, s3])
    });
    (better(rates[0], rates[1]), ok)
}

/// One chunk of downlink groups `[head, a, b]`, per lane, as
/// `downlink_best` reads them. `Hᵈ(r, c)` is AP `r`'s link to client `c`.
pub(crate) struct DownlinkChunk {
    /// `Hᵈ(r, head)` for APs 0, 1, 2, the same in every lane.
    pub(crate) head: [M; 3],
    /// `Hᵈ(1, head)⁻¹·Hᵈ(2, head)`, the same in every lane.
    pub(crate) to_v1: M,
    /// `Hᵈ(0, a)⁻¹`.
    pub(crate) h01_inv: M,
    /// `Hᵈ(0, a)⁻¹·Hᵈ(2, a)`.
    pub(crate) to_v0: M,
    /// `(Hᵈ(1, b)·Hᵈ(1, head)⁻¹·Hᵈ(2, head))⁻¹`.
    pub(crate) left_inv: M,
    /// `Hᵈ(r, a)` for APs 0, 1, 2.
    pub(crate) a: [M; 3],
    /// `Hᵈ(r, b)` for APs 0, 1, 2.
    pub(crate) b: [M; 3],
}

/// The downlink scores of one chunk: `downlink_best`'s rate per lane.
/// `powers` is the `downlink_3_packets` power split.
#[inline(never)]
pub(crate) fn downlink(c: &DownlinkChunk, powers: [f64; 3], noise: f64) -> (F, Mask) {
    let mut ok = [true; LANES];
    let right = mul_mat(&mul_mat(&c.b[0], &c.h01_inv), &c.a[2]);
    let eigvecs = eig2(&mul_mat(&c.left_inv, &right), &mut ok);
    let [p0, p1, p2] = powers;
    let rates = eigvecs.map(|v2| {
        let v2 = normalize(&v2, &mut ok);
        let v1 = normalize(&mul_vec(&c.to_v1, &v2), &mut ok);
        let v0 = normalize(&mul_vec(&c.to_v0, &v2), &mut ok);
        // Client j decodes packet j; the other two align at it.
        let [e_h, e_a, e_b] = [&c.head, &c.a, &c.b].map(|links| {
            [
                mul_vec(&links[0], &v0),
                mul_vec(&links[1], &v1),
                mul_vec(&links[2], &v2),
            ]
        });
        let s0 = packet(&e_h[0], p0, [(&e_h[1], p1), (&e_h[2], p2)], noise, &mut ok);
        let s1 = packet(&e_a[1], p1, [(&e_a[0], p0), (&e_a[2], p2)], noise, &mut ok);
        let s2 = packet(&e_b[2], p2, [(&e_b[0], p0), (&e_b[1], p1)], noise, &mut ok);
        rate(&ok, [s0, s1, s2])
    });
    (better(rates[0], rates[1]), ok)
}

/// The links `uplink3_optimized` reads, the same in every lane. `H(c, r)`
/// is client `c`'s link to AP `r`.
pub(crate) struct Uplink3Links {
    /// `H(0, 0)`, `H(0, 1)`, `H(1, 0)`, `H(1, 1)`.
    pub(crate) h: [M; 4],
    /// `H(0, 0)⁻¹`, `H(1, 0)⁻¹`.
    pub(crate) inv: [M; 2],
}

/// A unit 2-vector per lane, stored lane-major: a seed, or one packet's
/// encoding.
pub(crate) type Encoding = [[C64; 2]; LANES];

/// One chunk of `uplink3_optimized`'s alignment seeds `g`, one per lane:
/// each lane's predicted rate and its encoding `[v0, v1, v2]`. `powers` is
/// the Fig. 4b schedule's power split.
#[inline(never)]
pub(crate) fn uplink3(
    links: &Uplink3Links,
    seeds: &Encoding,
    powers: [f64; 3],
    noise: f64,
) -> (F, Mask, [Encoding; 3]) {
    let mut ok = [true; LANES];
    let [h00, h01, h10, h11] = &links.h;
    let g = [0, 1].map(|k| Z::from_fn(|l| seeds[l][k]));
    // Both chains align at AP0 along g; AP0's projection is orthogonal to
    // the aligned pair, and the free packet v0 is beamformed to it.
    let v1 = normalize(&mul_vec(&links.inv[0], &g), &mut ok);
    let v2 = normalize(&mul_vec(&links.inv[1], &g), &mut ok);
    let aligned = mul_vec(h00, &v1);
    let u0 = normalize(&[-aligned[1].conj(), aligned[0].conj()], &mut ok);
    let h00_h = [h00[0].conj(), h00[2].conj(), h00[1].conj(), h00[3].conj()];
    let v0 = normalize(&mul_vec(&h00_h, &u0), &mut ok);
    // AP0 decodes p0 under p1 and p2; AP1 cancels p0 and decodes p1 and
    // p2 against each other.
    let [p0, p1, p2] = powers;
    let e2 = mul_vec(h10, &v2);
    let s0 = packet(
        &mul_vec(h00, &v0),
        p0,
        [(&aligned, p1), (&e2, p2)],
        noise,
        &mut ok,
    );
    let (e1, e2) = (mul_vec(h01, &v1), mul_vec(h11, &v2));
    let s1 = packet(&e1, p1, [(&e2, p2)], noise, &mut ok);
    let s2 = packet(&e2, p2, [(&e1, p1)], noise, &mut ok);
    let encodings = [v0, v1, v2].map(|v| std::array::from_fn(|l| [v[0].get(l), v[1].get(l)]));
    (rate(&ok, [s0, s1, s2]), ok, encodings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::CVec;

    /// A vector per lane from its two entries.
    fn vector(f: impl Fn(usize) -> [C64; 2]) -> V {
        [Z::from_fn(|l| f(l)[0]), Z::from_fn(|l| f(l)[1])]
    }

    #[test]
    fn a_failed_normalisation_clears_only_its_lane() {
        let bad = LANES - 1;
        let entries = |l: usize| {
            if l == bad {
                [C64::zero(); 2]
            } else {
                [C64::new(l as f64 + 1.0, 0.5), C64::real(-2.0)]
            }
        };
        let mut ok = [true; LANES];
        let unit = normalize(&vector(entries), &mut ok);
        assert_eq!(ok, mask(|l| l != bad));
        for l in (0..LANES).filter(|&l| l != bad) {
            let scalar = entries(l)
                .into_iter()
                .collect::<CVec>()
                .normalize()
                .unwrap();
            for (k, z) in unit.iter().enumerate() {
                assert_eq!(z.get(l).re.to_bits(), scalar[k].re.to_bits());
                assert_eq!(z.get(l).im.to_bits(), scalar[k].im.to_bits());
            }
        }
    }

    /// A NaN signal image leaves the decoding vector finite (the covariance
    /// holds only the nuisance) but makes the SINR NaN, which the scalar
    /// decoder reports as an error: only that lane leaves the batch.
    #[test]
    fn a_nan_sinr_clears_only_its_lane() {
        let bad = LANES - 1;
        let signal = vector(|l| {
            let x = if l == bad { f64::NAN } else { 0.8 };
            [C64::new(x, 0.1), C64::new(-0.3, 0.6)]
        });
        let nuisance = vector(|_| [C64::new(0.2, -0.7), C64::new(1.1, 0.4)]);
        let mut ok = [true; LANES];
        let sinr = packet(&signal, 1.0, [(&nuisance, 0.5)], 0.05, &mut ok);
        assert_eq!(ok, mask(|l| l != bad));
        assert!(sinr[bad].is_nan());
        for l in (0..LANES).filter(|&l| l != bad) {
            assert!(sinr[l] > 1.0, "lane {l}: SINR {}", sinr[l]);
            assert_eq!(sinr[l].to_bits(), sinr[0].to_bits());
        }
    }
}
