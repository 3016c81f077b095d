//! Property-based tests for the IAC core: the alignment equations and the
//! decode chain must hold for *every* well-conditioned channel draw, not
//! just the seeds the unit tests pick.

use iac_core::closed_form::{self, alignment_residual};
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::schedule::DecodeSchedule;
use iac_core::{baseline, optimize};
use iac_linalg::Rng64;
use proptest::prelude::*;

fn well_conditioned(grid: &ChannelGrid) -> bool {
    for t in 0..grid.transmitters() {
        for r in 0..grid.receivers() {
            let c = grid.link(t, r).condition_number();
            if !c.is_finite() || c > 100.0 {
                return false;
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn uplink3_always_aligns(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        prop_assume!(well_conditioned(&grid));
        let cfg = closed_form::uplink3(&grid, &mut rng).unwrap();
        prop_assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-8);
        // Unit-norm encodings (the power constraint of footnote 2).
        for v in &cfg.encoding {
            prop_assert!((v.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn uplink4_satisfies_both_equation_sets(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let grid = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
        prop_assume!(well_conditioned(&grid));
        let cfg = closed_form::uplink4(&grid, &mut rng).unwrap();
        prop_assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-6);
    }

    #[test]
    fn downlink3_aligns_at_every_client(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let grid = ChannelGrid::random(Direction::Downlink, 3, 3, 2, 2, &mut rng);
        prop_assume!(well_conditioned(&grid));
        let cfg = closed_form::downlink3(&grid).unwrap();
        prop_assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-6);
    }

    #[test]
    fn perfect_csi_chain_is_interference_free(seed in any::<u64>()) {
        // With exact channel knowledge, every packet's SINR must be limited
        // by noise only: SINR ≈ signal/noise ≫ 1 at low noise, for EVERY
        // random channel draw.
        let mut rng = Rng64::new(seed);
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        prop_assume!(well_conditioned(&grid));
        let cfg = optimize::uplink3_optimized(&grid, 1.0, 1e-6, 4, &mut rng).unwrap();
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        let out = IacDecoder {
            true_grid: &grid,
            est_grid: &grid,
            schedule: &cfg.schedule,
            encoding: &cfg.encoding,
            packet_power: powers,
            noise_power: 1e-6,
        }
        .decode()
        .unwrap();
        prop_assert_eq!(out.sinrs.len(), 3);
        prop_assert!(out.min_sinr() > 100.0, "min SINR {}", out.min_sinr());
    }

    #[test]
    fn lowering_noise_never_lowers_rate(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        prop_assume!(well_conditioned(&grid));
        let cfg = closed_form::uplink3(&grid, &mut rng).unwrap();
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        let rate_at = |noise: f64| {
            IacDecoder {
                true_grid: &grid,
                est_grid: &grid,
                schedule: &cfg.schedule,
                encoding: &cfg.encoding,
                packet_power: powers.clone(),
                noise_power: noise,
            }
            .decode()
            .unwrap()
            .rate_bits_per_hz()
        };
        prop_assert!(rate_at(0.01) >= rate_at(0.1) - 1e-9);
    }

    #[test]
    fn power_split_conserves_node_budget(m in 2usize..6) {
        let schedule = DecodeSchedule::uplink_2m(m);
        let powers = equal_split_powers(&schedule, 1.0);
        // Per transmitter, packet powers sum to exactly the node budget.
        let clients = schedule.owners.iter().max().unwrap() + 1;
        for c in 0..clients {
            let total: f64 = powers
                .iter()
                .zip(&schedule.owners)
                .filter(|(_, &o)| o == c)
                .map(|(p, _)| p)
                .sum();
            prop_assert!((total - 1.0).abs() < 1e-12, "client {c} spends {total}");
        }
    }

    #[test]
    fn waterfill_conserves_and_orders(seed in any::<u64>(), p_total in 0.1f64..20.0) {
        let mut rng = Rng64::new(seed);
        let gains: Vec<f64> = (0..4).map(|_| rng.uniform(0.01, 10.0)).collect();
        let powers = baseline::waterfill(&gains, p_total, 1.0);
        let sum: f64 = powers.iter().sum();
        prop_assert!((sum - p_total).abs() < 1e-6, "power sum {sum} vs {p_total}");
        prop_assert!(powers.iter().all(|&p| p >= -1e-12));
        // Stronger modes never get less power.
        for i in 0..4 {
            for j in 0..4 {
                if gains[i] > gains[j] {
                    prop_assert!(powers[i] >= powers[j] - 1e-9);
                }
            }
        }
    }

    #[test]
    fn eigenmode_rate_nonnegative_and_mismatch_costly(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let h = iac_linalg::CMat::random(2, 2, &mut rng);
        let (rate, sinrs) = baseline::eigenmode_rate(&h, &h, 1.0, 0.1).unwrap();
        prop_assert!(rate >= 0.0);
        prop_assert!(sinrs.iter().all(|&s| s >= 0.0));
        // A grossly wrong estimate cannot beat the true-CSI rate.
        let wrong = iac_linalg::CMat::random(2, 2, &mut rng);
        let (rate_wrong, _) = baseline::eigenmode_rate(&h, &wrong, 1.0, 0.1).unwrap();
        prop_assert!(rate_wrong <= rate + 1e-9);
    }

    #[test]
    fn diversity_search_never_below_best_ap(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let links = [
            iac_linalg::CMat::random(2, 2, &mut rng),
            iac_linalg::CMat::random(2, 2, &mut rng),
        ];
        prop_assume!(links.iter().all(|l| {
            let c = l.condition_number();
            c.is_finite() && c < 100.0
        }));
        let iac = iac_core::diversity::best_downlink_option(&links, &links, 1.0, 0.1).unwrap();
        let base = baseline::best_ap_rate(links.as_ref(), links.as_ref(), 1.0, 0.1).unwrap();
        prop_assert!(iac.rate >= base.1 - 1e-9);
    }

    #[test]
    fn schedules_validate_and_count(m in 2usize..7) {
        let up = DecodeSchedule::uplink_2m(m);
        prop_assert!(up.validate().is_ok());
        prop_assert_eq!(up.n_packets(), 2 * m);
        prop_assert!(up.dof_feasible());
        if m >= 3 {
            let down = DecodeSchedule::downlink_2m_minus_2(m);
            prop_assert!(down.validate().is_ok());
            prop_assert_eq!(down.n_packets(), 2 * m - 2);
        }
    }
}
