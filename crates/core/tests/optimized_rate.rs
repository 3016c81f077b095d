//! The rate an optimiser reports for its winner is the winner's
//! `predicted_rate`, bit for bit. fig15's group scorer relies on this to
//! skip a second decode of every winning configuration. A non-finite
//! estimate scores, decodes and rates without a panic, and so does the
//! best-AP eigenmode baseline on a non-finite or overflowing true channel.

use iac_channel::estimation::EstimationConfig;
use iac_core::baseline::{best_ap_rate, eigenmode_rate};
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::optimize::{self, predicted_rate, Optimized};
use iac_linalg::{CMat, LinAlgError, Result, Rng64, C64};

const GRIDS: usize = 200;
const POWER: f64 = 1.0;
const NOISE: f64 = 0.05;

/// Draw `GRIDS` estimated grids of one shape, optimise each, and compare the
/// reported rate with a fresh `predicted_rate` of the returned config.
fn check(
    direction: Direction,
    nodes: usize,
    seed: u64,
    mut optimise: impl FnMut(&ChannelGrid, &mut Rng64) -> Result<Optimized>,
) {
    let mut rng = Rng64::new(seed);
    let est_cfg = EstimationConfig::paper_default();
    let mut aligned = 0;
    for i in 0..GRIDS {
        let grid = ChannelGrid::random(direction, nodes, nodes, 2, 2, &mut rng);
        let est = grid.estimated(&est_cfg, &mut rng);
        let Ok(best) = optimise(&est, &mut rng) else {
            continue;
        };
        aligned += 1;
        let again = predicted_rate(&est, &best, POWER, NOISE);
        assert_eq!(
            best.rate.to_bits(),
            again.to_bits(),
            "grid {i}: reported {} but predicted_rate gives {again}",
            best.rate
        );
    }
    assert!(
        aligned > GRIDS * 9 / 10,
        "only {aligned} of {GRIDS} grids aligned"
    );
}

#[test]
fn uplink3_reports_its_winners_predicted_rate() {
    check(Direction::Uplink, 2, 31, |g, rng| {
        optimize::uplink3_optimized(g, POWER, NOISE, optimize::DEFAULT_SEED_CANDIDATES, rng)
    });
}

#[test]
fn uplink4_reports_its_winners_predicted_rate() {
    check(Direction::Uplink, 3, 32, |g, _| {
        optimize::uplink4_optimized(g, POWER, NOISE)
    });
}

#[test]
fn downlink3_reports_its_winners_predicted_rate() {
    check(Direction::Downlink, 3, 33, |g, _| {
        optimize::downlink3_optimized(g, POWER, NOISE)
    });
}

/// `grid` with entry `(0, 0)` of link `(tx, rx)` set to `value`.
fn with_entry(grid: &ChannelGrid, tx: usize, rx: usize, value: C64) -> ChannelGrid {
    let h: Vec<Vec<CMat>> = (0..grid.transmitters())
        .map(|t| {
            (0..grid.receivers())
                .map(|r| {
                    let mut link = grid.link(t, r).clone();
                    if (t, r) == (tx, rx) {
                        link[(0, 0)] = value;
                    }
                    link
                })
                .collect()
        })
        .collect();
    ChannelGrid::new(grid.direction(), h)
}

/// A NaN or +∞ entry in one estimated link, through `uplink4_optimized`,
/// the decode of its winner on the true and on the estimated channels, and
/// `rate_bits_per_hz`: each step returns an error or a rate that is not NaN
/// (0.0 for a failed score). A NaN SINR used to reach the rate sum's
/// `assert!(s >= 0.0)` and panic; the decoder now returns an error instead.
#[test]
fn non_finite_estimates_score_and_decode_without_panicking() {
    let mut rng = Rng64::new(29);
    let est_cfg = EstimationConfig::paper_default();
    let mut errors = 0;
    for _ in 0..20 {
        let truth = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
        let est = truth.estimated(&est_cfg, &mut rng);
        for (tx, rx) in (0..3).flat_map(|t| (0..3).map(move |r| (t, r))) {
            for value in [C64::new(f64::NAN, 0.0), C64::new(f64::INFINITY, 0.0)] {
                let bad = with_entry(&est, tx, rx, value);
                let Ok(best) = optimize::uplink4_optimized(&bad, POWER, NOISE) else {
                    errors += 1;
                    continue;
                };
                assert!(!best.rate.is_nan(), "score of a {value} link");
                for true_grid in [&truth, &bad] {
                    let decoded = IacDecoder {
                        true_grid,
                        est_grid: &bad,
                        schedule: &best.schedule,
                        encoding: &best.encoding,
                        packet_power: equal_split_powers(&best.schedule, POWER),
                        noise_power: NOISE,
                    }
                    .decode();
                    match decoded {
                        Ok(out) => assert!(!out.rate_bits_per_hz().is_nan()),
                        Err(e) => {
                            assert!(matches!(e, LinAlgError::Degenerate(_)), "{e}");
                            errors += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(errors > 0, "no hostile estimate reached an error path");
}

/// The 802.11-MIMO baseline realised on a hostile *true* link: one entry
/// NaN, ±∞ or a finite 1e300, with a clean estimate. Signal and
/// interference then overflow together and the SINR is ∞/∞ = NaN, which
/// used to reach the rate sum's `assert!(s >= 0.0)` and panic. Now
/// `eigenmode_rate` and `best_ap_rate` return `LinAlgError::Degenerate` or
/// a rate that is not NaN, and the clean links keep their exact bits.
#[test]
fn eigenmode_baseline_on_hostile_true_links_is_typed() {
    let mut rng = Rng64::new(31);
    let est_cfg = EstimationConfig::paper_default();
    let mut errors = 0;
    for _ in 0..40 {
        let truth: Vec<CMat> = (0..3).map(|_| CMat::random(2, 2, &mut rng)).collect();
        let est: Vec<CMat> = truth
            .iter()
            .map(|h| iac_channel::estimation::estimate_with_error(h, &est_cfg, &mut rng))
            .collect();
        let (clean_ap, clean_rate, _) = best_ap_rate(&truth, &est, POWER, NOISE).unwrap();
        for value in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300] {
            let r = (rng.next_u64() % 2) as usize;
            let c = (rng.next_u64() % 2) as usize;
            let mut hostile = truth.clone();
            for h in &mut hostile {
                h[(r, c)] = C64::new(value, 0.0);
            }
            for outcome in [
                eigenmode_rate(&hostile[0], &est[0], POWER, NOISE).map(|(rate, _)| rate),
                best_ap_rate(&hostile, &est, POWER, NOISE).map(|(ap, rate, _)| {
                    assert_eq!(ap, clean_ap, "the choice reads only the estimates");
                    rate
                }),
            ] {
                match outcome {
                    Ok(rate) => assert!(!rate.is_nan(), "rate of a {value} link"),
                    Err(e) => {
                        assert!(matches!(e, LinAlgError::Degenerate(_)), "{e}");
                        errors += 1;
                    }
                }
            }
        }
        let again = best_ap_rate(&truth, &est, POWER, NOISE).unwrap();
        assert_eq!(again.1.to_bits(), clean_rate.to_bits());
    }
    assert!(errors > 0, "no hostile link reached an error path");
}
