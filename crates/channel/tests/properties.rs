//! Property-based tests for the channel substrate.

use iac_channel::estimation::{estimate_with_error, ls_estimate, EstimationConfig};
use iac_channel::reciprocity::{
    fractional_error, measured_downlink, measured_uplink, random_chain, Calibration,
};
use iac_channel::{db_to_linear, linear_to_db, Awgn, Cfo, LogDistance};
use iac_linalg::{CMat, Rng64, C64};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn db_roundtrip(db in -80.0f64..80.0) {
        prop_assert!((linear_to_db(db_to_linear(db)) - db).abs() < 1e-9);
    }

    #[test]
    fn pathloss_monotone_in_distance(d1 in 1.0f64..50.0, d2 in 1.0f64..50.0) {
        prop_assume!(d1 < d2);
        let pl = LogDistance::indoor();
        prop_assert!(pl.loss_db(d1) <= pl.loss_db(d2));
    }

    #[test]
    fn cfo_rotation_preserves_power(df in -2000.0f64..2000.0, seed in any::<u64>()) {
        let cfo = Cfo::new(df, 1e6);
        let mut rng = Rng64::new(seed);
        let mut samples: Vec<C64> = (0..128).map(|_| rng.cn01()).collect();
        let before: f64 = samples.iter().map(|z| z.norm_sqr()).sum();
        cfo.apply(&mut samples, 7);
        let after: f64 = samples.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((before - after).abs() < 1e-6 * before.max(1.0));
    }

    #[test]
    fn estimation_error_shrinks_with_snr(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let h = CMat::random(2, 2, &mut rng);
        let noisy = EstimationConfig { estimation_snr_db: 5.0, training_len: 8 };
        let clean = EstimationConfig { estimation_snr_db: 35.0, training_len: 8 };
        // Average over draws so the property is statistical, not per-sample.
        let mut err_noisy = 0.0;
        let mut err_clean = 0.0;
        for _ in 0..60 {
            err_noisy += (&estimate_with_error(&h, &noisy, &mut rng) - &h).frobenius_norm();
            err_clean += (&estimate_with_error(&h, &clean, &mut rng) - &h).frobenius_norm();
        }
        prop_assert!(err_clean < err_noisy);
    }

    #[test]
    fn ls_estimation_exact_without_noise(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let h = CMat::random(2, 2, &mut rng);
        let sent = CMat::random(2, 16, &mut rng);
        prop_assume!(sent.rank(1e-9) == 2);
        let est = ls_estimate(&sent, &h.mul_mat(&sent)).unwrap();
        prop_assert!((&est - &h).frobenius_norm() < 1e-7);
    }

    #[test]
    fn reciprocity_inference_exact_for_any_chains(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let ap_tx = random_chain(2, 2.0, &mut rng);
        let ap_rx = random_chain(2, 2.0, &mut rng);
        let cl_tx = random_chain(2, 2.0, &mut rng);
        let cl_rx = random_chain(2, 2.0, &mut rng);
        let air_cal = CMat::random(2, 2, &mut rng);
        let up = measured_uplink(&air_cal, &ap_rx, &cl_tx);
        prop_assume!(up.as_slice().iter().all(|z| z.abs() > 1e-3));
        let down = measured_downlink(&air_cal, &cl_rx, &ap_tx);
        let cal = Calibration::from_measurement(&up, &down).unwrap();
        // New air channel: inference must be exact (noise-free).
        let air_new = CMat::random(2, 2, &mut rng);
        let up_new = measured_uplink(&air_new, &ap_rx, &cl_tx);
        let down_new = measured_downlink(&air_new, &cl_rx, &ap_tx);
        let inferred = cal.downlink_from_uplink(&up_new);
        prop_assert!(fractional_error(&down_new, &inferred) < 1e-8);
    }

    #[test]
    fn awgn_power_scales(p in 0.001f64..10.0, seed in any::<u64>()) {
        let awgn = Awgn::new(p);
        let mut rng = Rng64::new(seed);
        let n = 20_000;
        let measured: f64 =
            (0..n).map(|_| awgn.sample(&mut rng).norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((measured / p - 1.0).abs() < 0.1, "p={p}: measured {measured}");
    }
}
