//! Property-based tests for the linear-algebra substrate.
//!
//! The alignment maths downstream assumes these identities hold for *every*
//! well-conditioned input, not just hand-picked ones; proptest hammers them
//! with random matrices while skipping genuinely ill-conditioned draws (which
//! the library is entitled to reject as singular).

use iac_linalg::{eig2, eigh, CMat, CVec, Lu, Qr, Rng64, Svd, C64};
use proptest::prelude::*;

/// Strategy: a seeded RNG, so matrix entries come from our own CN(0,1)
/// generator — the exact distribution the simulator uses.
fn seeds() -> impl Strategy<Value = u64> {
    any::<u64>()
}

fn random_mat(seed: u64, n: usize) -> CMat {
    let mut rng = Rng64::new(seed);
    CMat::random(n, n, &mut rng)
}

fn well_conditioned(m: &CMat) -> bool {
    let c = m.condition_number();
    c.is_finite() && c < 1e6
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lu_solve_residual_small(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        prop_assume!(well_conditioned(&a));
        let mut rng = Rng64::new(seed ^ 0xABCD);
        let x_true = CVec::random(n, &mut rng);
        let b = a.mul_vec(&x_true);
        let x = Lu::factor(&a).unwrap().solve(&b).unwrap();
        prop_assert!((&x - &x_true).norm() < 1e-6 * x_true.norm().max(1.0));
    }

    #[test]
    fn inverse_is_two_sided(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        prop_assume!(well_conditioned(&a));
        let inv = a.inverse().unwrap();
        let i = CMat::identity(n);
        prop_assert!((&a.mul_mat(&inv) - &i).frobenius_norm() < 1e-7);
        prop_assert!((&inv.mul_mat(&a) - &i).frobenius_norm() < 1e-7);
    }

    #[test]
    fn qr_reconstruction_and_orthogonality(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        let qr = Qr::compute(&a).unwrap();
        prop_assert!((&qr.q.mul_mat(&qr.r) - &a).frobenius_norm() < 1e-8);
        let g = qr.q.hermitian().mul_mat(&qr.q);
        prop_assert!((&g - &CMat::identity(n)).frobenius_norm() < 1e-9);
    }

    #[test]
    fn svd_reconstruction(seed in seeds(), n in 2usize..6) {
        let a = random_mat(seed, n);
        let svd = Svd::compute(&a);
        let err = (&svd.reconstruct() - &a).frobenius_norm();
        prop_assert!(err < 1e-8 * a.frobenius_norm().max(1.0));
        // Descending σ.
        for w in svd.singular_values.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn eig2_satisfies_characteristic_relations(seed in seeds()) {
        let a = random_mat(seed, 2);
        let [(l1, v1), (l2, v2)] = eig2(&a).unwrap();
        prop_assert!((l1 + l2 - a.trace()).abs() < 1e-8);
        prop_assert!((l1 * l2 - a.det().unwrap()).abs() < 1e-8);
        prop_assert!((&a.mul_vec(&v1) - &v1.scale_c(l1)).norm() < 1e-7);
        prop_assert!((&a.mul_vec(&v2) - &v2.scale_c(l2)).norm() < 1e-7);
    }

    #[test]
    fn eigh_of_gram_matrix_nonnegative(seed in seeds(), n in 2usize..6) {
        let b = random_mat(seed, n);
        let a = b.mul_mat(&b.hermitian()); // Hermitian PSD
        let (ls, v) = eigh(&a).unwrap();
        for &l in &ls {
            prop_assert!(l > -1e-8, "PSD eigenvalue {l} negative");
        }
        // A·V ≈ V·diag(λ)
        for (j, &l) in ls.iter().enumerate().take(n) {
            let resid = (&a.mul_vec(&v.col(j)) - &v.col(j).scale(l)).norm();
            prop_assert!(resid < 1e-7 * a.frobenius_norm().max(1.0));
        }
    }

    #[test]
    fn alignment_measure_bounds(seed in seeds()) {
        let mut rng = Rng64::new(seed);
        let a = CVec::random(3, &mut rng);
        let b = CVec::random(3, &mut rng);
        let al = a.alignment_with(&b);
        prop_assert!((0.0..=1.0).contains(&al));
        // Invariance under complex scaling of either argument.
        let rotated = b.scale_c(C64::cis(2.1)).scale(3.7);
        prop_assert!((a.alignment_with(&rotated) - al).abs() < 1e-9);
    }

    #[test]
    fn det_product_rule(seed in seeds(), n in 2usize..5) {
        let a = random_mat(seed, n);
        let b = random_mat(seed.wrapping_add(1), n);
        let dab = a.mul_mat(&b).det().unwrap();
        let dadb = a.det().unwrap() * b.det().unwrap();
        prop_assert!((dab - dadb).abs() < 1e-6 * dadb.abs().max(1.0));
    }

    #[test]
    fn rng_below_bounds(seed in seeds(), n in 1u64..1000) {
        let mut rng = Rng64::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.below(n) < n);
        }
    }
}
