//! Every channel draw is rejected until its condition number is at most the
//! bound, and `CMat::condition_number_at_most` accepts a well-conditioned
//! 2×2 draw without the SVD. The decision must be the exact test's on every
//! input, so the channel generator keeps its RNG stream draw for draw.

use iac_channel::fading::{rayleigh, well_conditioned_rayleigh};
use iac_linalg::{CMat, Rng64, Svd, C64};

/// Bounds the tests decide against: below, at and above the fast path's
/// reach (it only applies up to 1e8, and never helps below 10).
const BOUNDS: [f64; 6] = [2.0, 10.0, 30.0, 1e4, 1e8, 1e9];

fn assert_same_decision(h: &CMat, max_cond: f64, what: &str) {
    assert_eq!(
        h.condition_number_at_most(max_cond),
        h.condition_number() <= max_cond,
        "{what}: κ = {}, bound {max_cond}",
        h.condition_number()
    );
}

/// A 2×2 matrix with singular values `scale` and `scale / kappa`, between
/// random unitary factors.
fn with_condition(kappa: f64, scale: f64, rng: &mut Rng64) -> CMat {
    let mut svd = Svd::compute(&CMat::random(2, 2, rng));
    svd.singular_values = vec![scale, scale / kappa];
    svd.reconstruct()
}

#[test]
fn random_draws_decide_like_the_svd() {
    let mut rng = Rng64::new(1);
    for i in 0..20_000 {
        let h = CMat::random(2, 2, &mut rng);
        for max_cond in BOUNDS {
            assert_same_decision(&h, max_cond, &format!("draw {i}"));
        }
    }
}

/// Condition numbers log-uniform over `[bound/20, 20·bound]` straddle both
/// the exact bound and the fast path's threshold at `bound/10`.
#[test]
fn near_singular_draws_decide_like_the_svd() {
    let mut rng = Rng64::new(2);
    for max_cond in BOUNDS {
        let (lo, hi) = ((max_cond / 20.0).max(1.0).ln(), (max_cond * 20.0).ln());
        for i in 0..5_000 {
            let kappa = (lo + (hi - lo) * rng.next_f64()).exp();
            let h = with_condition(kappa, 1.0, &mut rng);
            assert_same_decision(&h, max_cond, &format!("κ ≈ {kappa}, draw {i}"));
        }
    }
}

/// Entries near 1e±150 push ‖H‖F² and |det H|² toward overflow and
/// underflow, where the fast path must step aside.
#[test]
fn extreme_scales_decide_like_the_svd() {
    let mut rng = Rng64::new(3);
    for scale in [1e-160, 1e-150, 1e-100, 1e100, 1e150, 1e160] {
        for i in 0..500 {
            let random = CMat::random(2, 2, &mut rng).scale(scale);
            let kappa = (1.0 + 1e5 * rng.next_f64()).max(1.0);
            let shaped = with_condition(kappa, scale, &mut rng);
            for max_cond in BOUNDS {
                assert_same_decision(&random, max_cond, &format!("scale {scale}, draw {i}"));
                assert_same_decision(&shaped, max_cond, &format!("scale {scale}, κ ≈ {kappa}"));
            }
        }
    }
}

#[test]
fn non_finite_singular_and_other_shapes_decide_like_the_svd() {
    let mut rng = Rng64::new(4);
    let mut cases = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        for entry in 0..4 {
            let mut h = CMat::random(2, 2, &mut rng);
            h[(entry / 2, entry % 2)] = C64::new(bad, 0.0);
            cases.push(h);
        }
    }
    cases.push(CMat::zeros(2, 2));
    cases.push(CMat::from_fn(2, 2, |r, c| {
        C64::real(((r + 1) * (c + 1)) as f64)
    }));
    cases.push(CMat::identity(2));
    for (rows, cols) in [(1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3), (4, 4)] {
        cases.push(CMat::random(rows, cols, &mut rng));
    }
    for (i, h) in cases.iter().enumerate() {
        for max_cond in BOUNDS {
            assert_same_decision(h, max_cond, &format!("case {i}"));
        }
    }
}

/// The rejection loop as it was, deciding with the SVD alone.
fn reference_draw(max_cond: f64, rng: &mut Rng64) -> CMat {
    loop {
        let h = rayleigh(2, 2, rng);
        if h.condition_number() <= max_cond {
            return h;
        }
    }
}

#[test]
fn well_conditioned_rayleigh_draws_the_same_stream() {
    for (max_cond, seed) in [(1e4, 5), (2.0, 6)] {
        let mut fast_rng = Rng64::new(seed);
        let mut slow_rng = Rng64::new(seed);
        for i in 0..100_000 {
            let fast = well_conditioned_rayleigh(2, 2, max_cond, &mut fast_rng);
            let slow = reference_draw(max_cond, &mut slow_rng);
            let bits = |h: &CMat| {
                h.as_slice()
                    .iter()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&fast), bits(&slow), "bound {max_cond}, draw {i}");
        }
        assert_eq!(
            fast_rng.next_u64(),
            slow_rng.next_u64(),
            "bound {max_cond}: streams diverged"
        );
    }
}
