//! fig15's leader scores every candidate group through one per-slot
//! [`ScoringContext`], which caches each head- or companion-only term and
//! scores the groups of a batch side by side in lanes. Each score must
//! equal, bit for bit, what the optimisers report for the group's cut 3×3
//! sub-grid (0.0 where they fail). This test checks every ordered
//! `(head, a, b)` of distinct clients on uplink and downlink slot grids,
//! in batches of every length around the lane count and in shuffled
//! orders, and on a grid carrying singular, NaN, infinite, zero and
//! extreme-magnitude links. It also pins `best_ap_rate`, which reuses each
//! estimated link's SVD, against a copy of the version that computed it
//! twice.

use iac_channel::estimation::EstimationConfig;
use iac_core::baseline::{best_ap_rate, eigenmode_rate};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::optimize::{downlink3_optimized, uplink4_optimized, ScoringContext};
use iac_linalg::{CMat, Rng64, C64};

const POWER: f64 = 1.0;
const NOISE: f64 = 0.05;
const APS: usize = 3;

/// The group's 3×3 sub-grid, transmitters (uplink) or receivers (downlink)
/// in group order.
fn cut(grid: &ChannelGrid, group: [usize; 3]) -> ChannelGrid {
    let h: Vec<Vec<CMat>> = match grid.direction() {
        Direction::Uplink => group
            .iter()
            .map(|&c| (0..APS).map(|ap| grid.link(c, ap).clone()).collect())
            .collect(),
        Direction::Downlink => (0..APS)
            .map(|ap| group.iter().map(|&c| grid.link(ap, c).clone()).collect())
            .collect(),
    };
    ChannelGrid::new(grid.direction(), h)
}

/// The score of `group` through the optimisers on its cut sub-grid.
fn reference_score(grid: &ChannelGrid, group: [usize; 3]) -> f64 {
    let sub = cut(grid, group);
    let optimised = match grid.direction() {
        Direction::Uplink => uplink4_optimized(&sub, POWER, NOISE),
        Direction::Downlink => downlink3_optimized(&sub, POWER, NOISE),
    };
    optimised.map(|o| o.rate).unwrap_or(0.0)
}

/// An estimated slot grid of `clients` clients and three APs.
fn slot_grid(direction: Direction, clients: usize, seed: u64) -> ChannelGrid {
    let mut rng = Rng64::new(seed);
    let (tx, rx) = match direction {
        Direction::Uplink => (clients, APS),
        Direction::Downlink => (APS, clients),
    };
    ChannelGrid::random(direction, tx, rx, 2, 2, &mut rng)
        .estimated(&EstimationConfig::paper_default(), &mut rng)
}

/// Replace the link between `client` and `ap` (in the grid's direction).
fn with_link(grid: &ChannelGrid, client: usize, ap: usize, link: CMat) -> ChannelGrid {
    let (tx, rx) = (grid.transmitters(), grid.receivers());
    let target = match grid.direction() {
        Direction::Uplink => (client, ap),
        Direction::Downlink => (ap, client),
    };
    let h = (0..tx)
        .map(|t| {
            (0..rx)
                .map(|r| {
                    if (t, r) == target {
                        link.clone()
                    } else {
                        grid.link(t, r).clone()
                    }
                })
                .collect()
        })
        .collect();
    ChannelGrid::new(grid.direction(), h)
}

/// Batch lengths: one pair, a short, a full and a one-over chunk, a
/// quick-size slot (7 × 6 companion pairs) and a paper-size one (16 × 15).
const BATCHES: [usize; 6] = [
    1,
    ScoringContext::LANES - 1,
    ScoringContext::LANES,
    ScoringContext::LANES + 1,
    42,
    240,
];

/// Score every ordered group of distinct clients and compare with the
/// reference. For each head and each batch length the companion pairs are
/// shuffled and scored, batch by batch, through one fresh context. Groups
/// `unscorable` names must score 0.0.
fn check(grid: &ChannelGrid, unscorable: impl Fn([usize; 3]) -> bool) {
    let clients = match grid.direction() {
        Direction::Uplink => grid.transmitters(),
        Direction::Downlink => grid.receivers(),
    };
    let mut rng = Rng64::new(clients as u64);
    for head in 0..clients {
        let mut pairs: Vec<[u16; 2]> = (0..clients as u16)
            .flat_map(|a| (0..clients as u16).map(move |b| [a, b]))
            .filter(|&[a, b]| a != b && usize::from(a) != head && usize::from(b) != head)
            .collect();
        let slow: std::collections::HashMap<[u16; 2], f64> = pairs
            .iter()
            .map(|&[a, b]| {
                let group = [head, usize::from(a), usize::from(b)];
                ([a, b], reference_score(grid, group))
            })
            .collect();
        for batch in BATCHES {
            rng.shuffle(&mut pairs);
            let mut context = ScoringContext::new(grid, head, POWER, NOISE);
            for chunk in pairs.chunks(batch) {
                let mut fast = vec![f64::NAN; chunk.len()];
                context.score_batch(chunk, &mut fast);
                for (&[a, b], fast) in chunk.iter().zip(fast) {
                    let slow = slow[&[a, b]];
                    assert_eq!(
                        fast.to_bits(),
                        slow.to_bits(),
                        "{:?} group [{head}, {a}, {b}], batch of {batch}: context {fast}, \
                         sub-grid {slow}",
                        grid.direction()
                    );
                    if unscorable([head, usize::from(a), usize::from(b)]) {
                        assert_eq!(fast, 0.0, "{:?} group [{head}, {a}, {b}]", grid.direction());
                    }
                }
            }
        }
    }
}

#[test]
fn context_matches_sub_grid_uplink() {
    for (clients, seed) in [(8, 1), (17, 2)] {
        check(&slot_grid(Direction::Uplink, clients, seed), |_| false);
    }
}

#[test]
fn context_matches_sub_grid_downlink() {
    for (clients, seed) in [(8, 3), (17, 4)] {
        check(&slot_grid(Direction::Downlink, clients, seed), |_| false);
    }
}

/// A rank-one link and a NaN link. Every group that inverts the rank-one
/// link, and every group that holds the NaN link, scores 0.0; every group
/// still matches the sub-grid bit for bit. Next to them sit links that
/// are +∞, −∞, all zero, and random at 1e150 and 1e-150: products and
/// covariances of these overflow or underflow, which sends their groups
/// through every error and fallback path.
#[test]
fn context_matches_sub_grid_with_singular_and_nan_links() {
    let rank_one = CMat::from_fn(2, 2, |r, c| C64::real(((r + 1) * (c + 1)) as f64));
    let nan = CMat::from_fn(2, 2, |_, _| C64::new(f64::NAN, 0.0));
    let inf =
        |sign: f64| CMat::from_fn(2, 2, |r, c| C64::new(sign * f64::INFINITY, (r + c) as f64));
    let mut rng = Rng64::new(8);
    let huge = CMat::random(2, 2, &mut rng).scale(1e150);
    let tiny = CMat::random(2, 2, &mut rng).scale(1e-150);
    let (singular, poisoned) = (2, 5);
    // (client, AP, link) in the grid's direction.
    let others = [
        (1, 1, inf(1.0)),
        (3, 2, inf(-1.0)),
        (4, 1, CMat::zeros(2, 2)),
        (6, 0, huge),
        (7, 2, tiny),
    ];
    for direction in [Direction::Uplink, Direction::Downlink] {
        // Both replace the client's link with AP0. The uplink inverts
        // H(head, AP0) and H(a, AP0); the downlink inverts Hᵈ(AP0, a).
        let grid = with_link(&slot_grid(direction, 8, 5), singular, 0, rank_one.clone());
        let mut grid = with_link(&grid, poisoned, 0, nan.clone());
        for (client, ap, link) in &others {
            grid = with_link(&grid, *client, *ap, link.clone());
        }
        check(&grid, |[head, a, b]| {
            let inverted = match direction {
                Direction::Uplink => head == singular || a == singular,
                Direction::Downlink => a == singular,
            };
            inverted || [head, a, b].contains(&poisoned)
        });
    }
}

/// The SVD-reusing `best_ap_rate` against its earlier form, which
/// decomposed the winning estimate a second time.
fn reference_best_ap(
    links_true: &[CMat],
    links_est: &[CMat],
    p_total: f64,
    noise: f64,
) -> (usize, f64, Vec<f64>) {
    let mut best_ap = 0;
    let mut best_predicted = f64::NEG_INFINITY;
    for (i, est) in links_est.iter().enumerate() {
        let (predicted, _) = eigenmode_rate(est, est, p_total, noise).unwrap();
        if predicted > best_predicted {
            best_predicted = predicted;
            best_ap = i;
        }
    }
    let (rate, sinrs) =
        eigenmode_rate(&links_true[best_ap], &links_est[best_ap], p_total, noise).unwrap();
    (best_ap, rate, sinrs)
}

fn assert_best_ap_matches(links_true: &[CMat], links_est: &[CMat], what: &str) {
    let bits = |(ap, rate, sinrs): (usize, f64, Vec<f64>)| {
        (
            ap,
            rate.to_bits(),
            sinrs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
        )
    };
    assert_eq!(
        bits(best_ap_rate(links_true, links_est, POWER, NOISE).unwrap()),
        bits(reference_best_ap(links_true, links_est, POWER, NOISE)),
        "{what}"
    );
}

#[test]
fn best_ap_rate_matches_reference() {
    let mut rng = Rng64::new(6);
    let est_cfg = EstimationConfig::paper_default();
    for i in 0..500 {
        let n = 1 + i % 4;
        let links_true: Vec<CMat> = (0..n)
            .map(|_| CMat::random(2, 2, &mut rng).scale(rng.uniform(0.1, 10.0)))
            .collect();
        let links_est: Vec<CMat> = links_true
            .iter()
            .map(|h| iac_channel::estimation::estimate_with_error(h, &est_cfg, &mut rng))
            .collect();
        assert_best_ap_matches(&links_true, &links_est, &format!("draw {i}"));
    }
}

/// Equal predictions keep the first AP. NaN estimates leave no usable
/// eigenmode, so every prediction is 0.0 and AP 0 wins the tie.
#[test]
fn best_ap_rate_ties_and_nan_links_match_reference() {
    let mut rng = Rng64::new(7);
    let weak = CMat::random(2, 2, &mut rng);
    let strong = weak.scale(3.0);
    let links_true = vec![weak.clone(), strong.clone(), strong.clone()];
    let tie = vec![weak.clone(), strong.clone(), strong.clone()];
    assert_best_ap_matches(&links_true, &tie, "tie between APs 1 and 2");
    assert_eq!(best_ap_rate(&links_true, &tie, POWER, NOISE).unwrap().0, 1);
    let all_equal = vec![strong.clone(), strong.clone(), strong];
    assert_best_ap_matches(&links_true, &all_equal, "three-way tie");
    assert_eq!(
        best_ap_rate(&links_true, &all_equal, POWER, NOISE)
            .unwrap()
            .0,
        0
    );

    let nan = CMat::from_fn(2, 2, |_, _| C64::new(f64::NAN, f64::NAN));
    assert_eq!(eigenmode_rate(&nan, &nan, POWER, NOISE).unwrap().0, 0.0);
    let all_nan = vec![nan.clone(), nan.clone(), nan];
    assert_best_ap_matches(&links_true, &all_nan, "every estimate NaN");
    assert_eq!(
        best_ap_rate(&links_true, &all_nan, POWER, NOISE).unwrap().0,
        0
    );
}
