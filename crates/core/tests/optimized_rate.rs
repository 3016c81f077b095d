//! The rate an optimiser reports for its winner is the winner's
//! `predicted_rate`, bit for bit. fig15's group scorer relies on this to
//! skip a second decode of every winning configuration.

use iac_channel::estimation::EstimationConfig;
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::optimize::{self, predicted_rate, Optimized};
use iac_linalg::{Result, Rng64};

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
