//! The shared §10(e) measurement methodology.
//!
//! Every figure experiment follows the same pattern: pick random nodes for
//! client/AP roles, give 802.11-MIMO and IAC the *same number of timeslots*,
//! measure per-packet post-processing SINRs, convert through Eq. 9, and
//! compare averages (Eq. 10). The slot primitives here are those building
//! blocks; the `scenarios` modules wire them into the specific figures.
//!
//! The per-slot measurement chain is written once, here, in two helpers:
//!
//! - `iac_decode` is the IAC side: align on the leader's estimate, decode
//!   on the true grid, return every packet's SINR;
//! - `best_ap` is the 802.11-MIMO side: one client alone on the AP its
//!   estimated links predict best, with `client_links` reading that
//!   client's links by the grid's direction.
//!
//! Their callers keep only their own reduce: fig12, fig13 and fig17 (the
//! clustered mesh) through `baseline_slot` and the `iac_*_slot` functions,
//! as do the estimation and similarity ablations; fig14's best-AP
//! baseline; fig15's TDMA baseline and per-client IAC rates; and the DES
//! PHY calibration (`netsim`'s `calibrate_iac_pool` and
//! `calibrate_mimo_pool`). `draw_slot` draws a testbed slot's grid
//! and its estimate.

use crate::testbed::Testbed;
use iac_channel::estimation::EstimationConfig;
use iac_core::baseline;
use iac_core::decoder::{equal_split_powers, DecodeOutcome, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction, Links};
use iac_core::optimize::{self, Optimized};
use iac_linalg::{CMat, Rng64};

/// The workspace-wide default master seed (spells "IAC 2009"). Used when a
/// caller has no seed of its own to thread through; `examples/sweep.rs`
/// overrides it with `--seed`.
pub const DEFAULT_SEED: u64 = 0x1AC_2009;

/// Receiver noise power (per antenna, linear) in every matrix-plane
/// experiment.
pub(crate) const NOISE: f64 = 1.0;

/// Per-node transmit power budget in every matrix-plane experiment.
pub(crate) const PER_NODE_POWER: f64 = 1.0;

/// Common experiment knobs.
///
/// # Seeding contract
///
/// `seed` is the **only** source of randomness in a scenario run: testbed
/// deployment, role picks, channel draws, and estimation noise all flow from
/// one `Rng64::new(seed)` (or streams derived from it via
/// [`iac_linalg::Rng64::derive_seed`]). Both constructors therefore take the
/// seed explicitly — [`ExperimentConfig::paper_default`] no less than the
/// registry's quick sizing — so a caller-supplied master seed (e.g.
/// `sweep --seed`) reaches every scenario instead of being silently replaced
/// by a hard-coded constant. Pass [`DEFAULT_SEED`] to reproduce the numbers
/// recorded in the committed goldens and docs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Master seed: every run is bit-reproducible from it.
    pub seed: u64,
    /// Number of random role picks (scatter points).
    pub picks: usize,
    /// Timeslots per pick and scheme.
    pub slots: usize,
    /// Channel-estimation error model.
    pub est: EstimationConfig,
}

impl ExperimentConfig {
    /// Paper-scale defaults (full figure quality), reproducible from `seed`.
    pub fn paper_default(seed: u64) -> Self {
        Self {
            seed,
            picks: 40,
            slots: 100,
            est: EstimationConfig::paper_default(),
        }
    }

    /// A fast variant for unit tests.
    pub(crate) fn quick(seed: u64) -> Self {
        Self {
            seed,
            picks: 6,
            slots: 20,
            est: EstimationConfig::paper_default(),
        }
    }
}

/// One scatter point: average rates of the two schemes for one role pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// 802.11-MIMO average rate (b/s/Hz).
    pub baseline: f64,
    /// IAC average rate (b/s/Hz).
    pub iac: f64,
}

impl ScatterPoint {
    /// Eq. 10 gain for this pick.
    pub(crate) fn gain(&self) -> f64 {
        self.iac / self.baseline
    }
}

/// Permute the transmitters of a grid (used to rotate which client plays
/// which role in a closed-form configuration).
pub(crate) fn permute_transmitters(grid: &ChannelGrid, order: &[usize]) -> ChannelGrid {
    assert_eq!(order.len(), grid.transmitters(), "bad permutation length");
    let h: Vec<Vec<CMat>> = order
        .iter()
        .map(|&t| {
            (0..grid.receivers())
                .map(|r| grid.link(t, r).clone())
                .collect()
        })
        .collect();
    ChannelGrid::new(grid.direction(), h)
}

/// Client `c`'s links to every AP of `grid`, read by the grid's direction:
/// `link(c, a)` on the uplink, `link(a, c)` on the downlink.
pub(crate) fn client_links(grid: &ChannelGrid, c: usize) -> Vec<CMat> {
    match grid.direction() {
        Direction::Uplink => (0..grid.receivers())
            .map(|a| grid.link(c, a).clone())
            .collect(),
        Direction::Downlink => (0..grid.transmitters())
            .map(|a| grid.link(a, c).clone())
            .collect(),
    }
}

/// The 802.11-MIMO side of a §10(e) slot: one client alone on the AP its
/// estimated links `links_est` predict best, realised on its true links
/// (both as [`client_links`] reads them). Returns that AP, the Eq. 9 rate
/// and the per-stream SINRs.
pub(crate) fn best_ap(
    links_true: &[CMat],
    links_est: &[CMat],
) -> iac_linalg::Result<(usize, f64, Vec<f64>)> {
    baseline::best_ap_rate(links_true, links_est, PER_NODE_POWER, NOISE)
}

/// 802.11-MIMO slot: each client alone on its best AP; with the TDMA
/// budget split evenly, the slot-average rate is the mean over clients.
pub(crate) fn baseline_slot(grid_true: &ChannelGrid, grid_est: &ChannelGrid) -> f64 {
    let clients = match grid_true.direction() {
        Direction::Uplink => grid_true.transmitters(),
        Direction::Downlink => grid_true.receivers(),
    };
    let mut acc = 0.0;
    for c in 0..clients {
        // A degenerate link scores 0.0.
        acc += best_ap(&client_links(grid_true, c), &client_links(grid_est, c))
            .map_or(0.0, |(_, rate, _)| rate);
    }
    acc / clients as f64
}

/// One slot's channels between `clients` and `aps` in `direction`, then
/// the leader's estimate of them, both drawn from `rng` in that order.
pub(crate) fn draw_slot(
    testbed: &Testbed,
    direction: Direction,
    clients: &[usize],
    aps: &[usize],
    est: &EstimationConfig,
    rng: &mut Rng64,
) -> (ChannelGrid, ChannelGrid) {
    let grid = match direction {
        Direction::Uplink => testbed.uplink_grid(clients, aps, rng),
        Direction::Downlink => testbed.downlink_grid(aps, clients, rng),
    };
    let grid_est = grid.estimated(est, rng);
    (grid, grid_est)
}

/// IAC 3-packet uplink slot (Fig. 4b), with the paper's role alternation:
/// average of "client 0 doubles" and "client 1 doubles". The second order
/// reads both grids through [`Swapped`], so no link is copied.
pub(crate) fn iac_uplink3_slot(
    grid_true: &ChannelGrid,
    grid_est: &ChannelGrid,
    rng: &mut Rng64,
) -> f64 {
    let mut acc = 0.0;
    acc += iac_uplink3_rate(grid_true, grid_est, rng);
    acc += iac_uplink3_rate(&Swapped(grid_true), &Swapped(grid_est), rng);
    acc / 2.0
}

/// One role order of [`iac_uplink3_slot`]: the Eq. 9 rate of
/// `optimize::uplink3_optimized`'s alignment, 0.0 where it fails.
fn iac_uplink3_rate<G: Links>(grid_true: &G, grid_est: &G, rng: &mut Rng64) -> f64 {
    iac_decode(grid_true, grid_est, |est| {
        optimize::uplink3_optimized(
            est,
            PER_NODE_POWER,
            NOISE,
            optimize::DEFAULT_SEED_CANDIDATES,
            rng,
        )
    })
    .map_or(0.0, |o| o.rate_bits_per_hz())
}

/// A two-transmitter grid with its transmitters swapped, read in place:
/// link `(t, r)` is the grid's link `(1 - t, r)`.
struct Swapped<'g>(&'g ChannelGrid);

impl Links for Swapped<'_> {
    fn link(&self, tx: usize, rx: usize) -> &CMat {
        self.0.link(1 - tx, rx)
    }

    fn link_shape(&self) -> (usize, usize) {
        self.0.link_shape()
    }

    fn direction(&self) -> Direction {
        self.0.direction()
    }

    fn transmitters(&self) -> usize {
        self.0.transmitters()
    }

    fn receivers(&self) -> usize {
        self.0.receivers()
    }
}

/// IAC 4-packet uplink slot (Fig. 5), rotating which client uploads two
/// packets round-robin (§10.1: "we choose the client that transmits the two
/// packets in each timeslot in a round robin manner").
pub(crate) fn iac_uplink4_slot(
    grid_true: &ChannelGrid,
    grid_est: &ChannelGrid,
    double_client: usize,
) -> f64 {
    let n = grid_true.transmitters();
    debug_assert_eq!(n, 3);
    let order: Vec<usize> = (0..n).map(|k| (double_client + k) % n).collect();
    let gt = permute_transmitters(grid_true, &order);
    let ge = permute_transmitters(grid_est, &order);
    iac_decode(&gt, &ge, |est| {
        optimize::uplink4_optimized(est, PER_NODE_POWER, NOISE)
    })
    .map_or(0.0, |o| o.rate_bits_per_hz())
}

/// IAC 3-packet downlink slot (Fig. 6).
pub(crate) fn iac_downlink3_slot(grid_true: &ChannelGrid, grid_est: &ChannelGrid) -> f64 {
    iac_decode(grid_true, grid_est, |est| {
        optimize::downlink3_optimized(est, PER_NODE_POWER, NOISE)
    })
    .map_or(0.0, |o| o.rate_bits_per_hz())
}

/// The IAC side of a §10(e) slot: `align` (one of the `optimize`
/// optimisers) runs on the leader's estimate `grid_est`, then the chosen
/// configuration is decoded on the true grid `grid_true`, where
/// cancellation subtracts what the estimate predicts. `None` when the
/// alignment or the decode fails on a degenerate draw; the leader would
/// fall back to plain MIMO, and every caller counts that slot as no IAC
/// rate, which is pessimistic for IAC and therefore safe.
pub(crate) fn iac_decode<G: Links>(
    grid_true: &G,
    grid_est: &G,
    align: impl FnOnce(&G) -> iac_linalg::Result<Optimized>,
) -> Option<DecodeOutcome> {
    let config = align(grid_est).ok()?;
    let powers = equal_split_powers(&config.schedule, PER_NODE_POWER);
    IacDecoder {
        true_grid: grid_true,
        est_grid: grid_est,
        schedule: &config.schedule,
        encoding: &config.encoding,
        packet_power: powers,
        noise_power: NOISE,
    }
    .decode()
    .ok()
}

/// Run a generic pick loop: `slot_fn(testbed, rng) -> ScatterPoint-components`
/// per pick, averaging over `cfg.slots` slots.
pub(crate) fn run_picks(
    cfg: &ExperimentConfig,
    mut pick_fn: impl FnMut(&Testbed, &mut Rng64) -> ScatterPoint,
) -> Vec<ScatterPoint> {
    let mut rng = Rng64::new(cfg.seed);
    let testbed = Testbed::paper_default(&mut rng);
    (0..cfg.picks)
        .map(|_| pick_fn(&testbed, &mut rng))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(seed: u64) -> (Testbed, Rng64) {
        let mut rng = Rng64::new(seed);
        let tb = Testbed::paper_default(&mut rng);
        (tb, rng)
    }

    #[test]
    fn permutation_swaps_links() {
        let (tb, mut rng) = fixture(1);
        let g = tb.uplink_grid(&[0, 1], &[2, 3], &mut rng);
        let p = permute_transmitters(&g, &[1, 0]);
        assert_eq!(p.link(0, 0), g.link(1, 0));
        assert_eq!(p.link(1, 1), g.link(0, 1));
    }

    /// The swapped role order of `iac_uplink3_slot` reads both grids
    /// through `Swapped`: it must give the bits, and leave the RNG where,
    /// a decode on transmitter-permuted copies does.
    #[test]
    fn swapped_view_matches_a_permuted_copy() {
        let (tb, mut rng) = fixture(10);
        let cfg = ExperimentConfig::quick(10);
        for _ in 0..20 {
            let (aps, clients) = tb.pick_roles(2, 2, &mut rng);
            let (g, e) = draw_slot(&tb, Direction::Uplink, &clients, &aps, &cfg.est, &mut rng);
            let (g_copy, e_copy) = (
                permute_transmitters(&g, &[1, 0]),
                permute_transmitters(&e, &[1, 0]),
            );
            let (mut view_rng, mut copy_rng) = (rng.clone(), rng.clone());
            let view = iac_uplink3_rate(&Swapped(&g), &Swapped(&e), &mut view_rng);
            let copy = iac_uplink3_rate(&g_copy, &e_copy, &mut copy_rng);
            assert!(view > 0.0);
            assert_eq!(view.to_bits(), copy.to_bits());
            assert_eq!(view_rng.next_u64(), copy_rng.next_u64());
        }
    }

    #[test]
    fn baseline_uplink_rate_in_paper_band() {
        let (tb, mut rng) = fixture(2);
        let cfg = ExperimentConfig::quick(2);
        let mut acc = 0.0;
        let n = 30;
        for _ in 0..n {
            let (aps, clients) = tb.pick_roles(2, 2, &mut rng);
            let g = tb.uplink_grid(&clients, &aps, &mut rng);
            let e = g.estimated(&cfg.est, &mut rng);
            acc += baseline_slot(&g, &e);
        }
        let avg = acc / n as f64;
        // Fig. 12's x-axis: roughly 4–13 b/s/Hz.
        assert!(avg > 3.0 && avg < 16.0, "baseline avg {avg} off-band");
    }

    #[test]
    fn iac_uplink3_beats_baseline_on_average() {
        let (tb, mut rng) = fixture(3);
        let cfg = ExperimentConfig::quick(3);
        let mut base = 0.0;
        let mut iac = 0.0;
        let n = 25;
        for _ in 0..n {
            let (aps, clients) = tb.pick_roles(2, 2, &mut rng);
            let g = tb.uplink_grid(&clients, &aps, &mut rng);
            let e = g.estimated(&cfg.est, &mut rng);
            base += baseline_slot(&g, &e);
            iac += iac_uplink3_slot(&g, &e, &mut rng);
        }
        let gain = iac / base;
        assert!(gain > 1.1, "uplink3 gain {gain} too small");
        assert!(gain < 2.2, "uplink3 gain {gain} implausible");
    }

    #[test]
    fn iac_downlink3_beats_baseline_on_average() {
        let (tb, mut rng) = fixture(4);
        let cfg = ExperimentConfig::quick(4);
        let mut base = 0.0;
        let mut iac = 0.0;
        let n = 25;
        for _ in 0..n {
            let (aps, clients) = tb.pick_roles(3, 3, &mut rng);
            let g = tb.downlink_grid(&aps, &clients, &mut rng);
            let e = g.estimated(&cfg.est, &mut rng);
            base += baseline_slot(&g, &e);
            iac += iac_downlink3_slot(&g, &e);
        }
        let gain = iac / base;
        assert!(gain > 1.0, "downlink3 gain {gain} too small");
        assert!(gain < 2.0, "downlink3 gain {gain} implausible");
    }

    #[test]
    fn uplink4_role_rotation_changes_assignment() {
        let (tb, mut rng) = fixture(5);
        let cfg = ExperimentConfig::quick(5);
        let (aps, clients) = tb.pick_roles(3, 3, &mut rng);
        let g = tb.uplink_grid(&clients, &aps, &mut rng);
        let e = g.estimated(&cfg.est, &mut rng);
        // Different double-clients give (generically) different rates.
        let r0 = iac_uplink4_slot(&g, &e, 0);
        let r1 = iac_uplink4_slot(&g, &e, 1);
        assert!(r0 > 0.0 && r1 > 0.0);
        assert!((r0 - r1).abs() > 1e-9, "rotation had no effect");
    }

    /// `grid`'s links with the roles swapped: the same matrices, read as
    /// a grid of the other direction.
    fn swapped(grid: &ChannelGrid) -> ChannelGrid {
        let direction = match grid.direction() {
            Direction::Uplink => Direction::Downlink,
            Direction::Downlink => Direction::Uplink,
        };
        let h = (0..grid.receivers())
            .map(|r| {
                (0..grid.transmitters())
                    .map(|t| grid.link(t, r).clone())
                    .collect()
            })
            .collect();
        ChannelGrid::new(direction, h)
    }

    #[test]
    fn best_ap_reads_the_client_links_by_direction() {
        let (tb, mut rng) = fixture(8);
        let cfg = ExperimentConfig::quick(8);
        for _ in 0..10 {
            let (aps, clients) = tb.pick_roles(3, 2, &mut rng);
            let (up, up_est) =
                draw_slot(&tb, Direction::Uplink, &clients, &aps, &cfg.est, &mut rng);
            let (down, down_est) = (swapped(&up), swapped(&up_est));
            assert_eq!(down.direction(), Direction::Downlink);
            for c in 0..clients.len() {
                assert_eq!(client_links(&up, c), client_links(&down, c));
                let (ap_u, rate_u, sinrs_u) =
                    best_ap(&client_links(&up, c), &client_links(&up_est, c)).unwrap();
                let (ap_d, rate_d, sinrs_d) =
                    best_ap(&client_links(&down, c), &client_links(&down_est, c)).unwrap();
                assert_eq!(ap_u, ap_d);
                assert_eq!(rate_u.to_bits(), rate_d.to_bits());
                let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&sinrs_u), bits(&sinrs_d));
            }
        }
    }

    #[test]
    fn baseline_slot_matches_the_per_direction_formulas() {
        // The uplink and downlink slots as they were written before the two
        // merged into `baseline_slot`.
        fn reference(gt: &ChannelGrid, ge: &ChannelGrid) -> f64 {
            let uplink = gt.direction() == Direction::Uplink;
            let (clients, aps) = if uplink {
                (gt.transmitters(), gt.receivers())
            } else {
                (gt.receivers(), gt.transmitters())
            };
            let link = |g: &ChannelGrid, c: usize, a: usize| {
                if uplink { g.link(c, a) } else { g.link(a, c) }.clone()
            };
            let mut acc = 0.0;
            for c in 0..clients {
                let links_true: Vec<CMat> = (0..aps).map(|a| link(gt, c, a)).collect();
                let links_est: Vec<CMat> = (0..aps).map(|a| link(ge, c, a)).collect();
                acc += baseline::best_ap_rate(&links_true, &links_est, PER_NODE_POWER, NOISE)
                    .map_or(0.0, |(_, rate, _)| rate);
            }
            acc / clients as f64
        }
        let (tb, mut rng) = fixture(9);
        let cfg = ExperimentConfig::quick(9);
        for direction in [Direction::Uplink, Direction::Downlink] {
            for (n_aps, n_clients) in [(2, 2), (3, 3), (2, 3), (3, 1)] {
                let (aps, clients) = tb.pick_roles(n_aps, n_clients, &mut rng);
                let (g, e) = draw_slot(&tb, direction, &clients, &aps, &cfg.est, &mut rng);
                assert_eq!(baseline_slot(&g, &e).to_bits(), reference(&g, &e).to_bits());
            }
        }
    }

    #[test]
    fn scatter_point_gain() {
        let p = ScatterPoint {
            baseline: 8.0,
            iac: 12.0,
        };
        assert!((p.gain() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn run_picks_is_deterministic() {
        let cfg = ExperimentConfig::quick(7);
        let run = || {
            run_picks(&cfg, |tb, rng| {
                let (aps, clients) = tb.pick_roles(2, 2, rng);
                let g = tb.uplink_grid(&clients, &aps, rng);
                let e = g.estimated(&cfg.est, rng);
                ScatterPoint {
                    baseline: baseline_slot(&g, &e),
                    iac: iac_uplink3_slot(&g, &e, rng),
                }
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }
}
