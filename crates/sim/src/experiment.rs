//! The shared §10(e) measurement methodology.
//!
//! Every figure experiment follows the same pattern: pick random nodes for
//! client/AP roles, give 802.11-MIMO and IAC the *same number of timeslots*,
//! measure per-packet post-processing SINRs, convert through Eq. 9, and
//! compare averages (Eq. 10). The slot primitives here are those building
//! blocks; the `scenarios` modules wire them into the specific figures.

use crate::testbed::Testbed;
use iac_channel::estimation::EstimationConfig;
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::{baseline, optimize};
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

/// 802.11-MIMO uplink slot: each client alone on its best AP; with the TDMA
/// budget split evenly, the slot-average rate is the mean over clients.
pub(crate) fn baseline_uplink_slot(grid_true: &ChannelGrid, grid_est: &ChannelGrid) -> f64 {
    debug_assert_eq!(grid_true.direction(), Direction::Uplink);
    let mut acc = 0.0;
    for c in 0..grid_true.transmitters() {
        let links_true: Vec<CMat> = (0..grid_true.receivers())
            .map(|a| grid_true.link(c, a).clone())
            .collect();
        let links_est: Vec<CMat> = (0..grid_true.receivers())
            .map(|a| grid_est.link(c, a).clone())
            .collect();
        // A degenerate link scores 0.0.
        acc += baseline::best_ap_rate(&links_true, &links_est, PER_NODE_POWER, NOISE)
            .map_or(0.0, |(_, rate, _)| rate);
    }
    acc / grid_true.transmitters() as f64
}

/// 802.11-MIMO downlink slot: each client downloads from its best AP.
pub(crate) fn baseline_downlink_slot(grid_true: &ChannelGrid, grid_est: &ChannelGrid) -> f64 {
    debug_assert_eq!(grid_true.direction(), Direction::Downlink);
    let mut acc = 0.0;
    for c in 0..grid_true.receivers() {
        let links_true: Vec<CMat> = (0..grid_true.transmitters())
            .map(|a| grid_true.link(a, c).clone())
            .collect();
        let links_est: Vec<CMat> = (0..grid_true.transmitters())
            .map(|a| grid_est.link(a, c).clone())
            .collect();
        // A degenerate link scores 0.0.
        acc += baseline::best_ap_rate(&links_true, &links_est, PER_NODE_POWER, NOISE)
            .map_or(0.0, |(_, rate, _)| rate);
    }
    acc / grid_true.receivers() as f64
}

/// IAC 3-packet uplink slot (Fig. 4b), with the paper's role alternation:
/// average of "client 0 doubles" and "client 1 doubles".
pub(crate) fn iac_uplink3_slot(
    grid_true: &ChannelGrid,
    grid_est: &ChannelGrid,
    rng: &mut Rng64,
) -> f64 {
    let mut acc = 0.0;
    for order in [&[0usize, 1][..], &[1usize, 0][..]] {
        let gt = permute_transmitters(grid_true, order);
        let ge = permute_transmitters(grid_est, order);
        acc += iac_rate_for(&gt, &ge, rng, IacShape::Uplink3);
    }
    acc / 2.0
}

/// IAC 4-packet uplink slot (Fig. 5), rotating which client uploads two
/// packets round-robin (§10.1: "we choose the client that transmits the two
/// packets in each timeslot in a round robin manner").
pub(crate) fn iac_uplink4_slot(
    grid_true: &ChannelGrid,
    grid_est: &ChannelGrid,
    double_client: usize,
    rng: &mut Rng64,
) -> f64 {
    let n = grid_true.transmitters();
    debug_assert_eq!(n, 3);
    let order: Vec<usize> = (0..n).map(|k| (double_client + k) % n).collect();
    let gt = permute_transmitters(grid_true, &order);
    let ge = permute_transmitters(grid_est, &order);
    iac_rate_for(&gt, &ge, rng, IacShape::Uplink4)
}

/// IAC 3-packet downlink slot (Fig. 6).
pub(crate) fn iac_downlink3_slot(
    grid_true: &ChannelGrid,
    grid_est: &ChannelGrid,
    rng: &mut Rng64,
) -> f64 {
    iac_rate_for(grid_true, grid_est, rng, IacShape::Downlink3)
}

enum IacShape {
    Uplink3,
    Uplink4,
    Downlink3,
}

fn iac_rate_for(
    grid_true: &ChannelGrid,
    grid_est: &ChannelGrid,
    rng: &mut Rng64,
    shape: IacShape,
) -> f64 {
    let config = match shape {
        IacShape::Uplink3 => optimize::uplink3_optimized(
            grid_est,
            PER_NODE_POWER,
            NOISE,
            optimize::DEFAULT_SEED_CANDIDATES,
            rng,
        ),
        IacShape::Uplink4 => optimize::uplink4_optimized(grid_est, PER_NODE_POWER, NOISE),
        IacShape::Downlink3 => optimize::downlink3_optimized(grid_est, PER_NODE_POWER, NOISE),
    };
    let Ok(config) = config else {
        // Degenerate channel draw (singular estimate): the leader would fall
        // back to plain MIMO; report zero IAC rate for this slot, which is
        // pessimistic for IAC and therefore safe.
        return 0.0;
    };
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
    .map(|o| o.rate_bits_per_hz())
    .unwrap_or(0.0)
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
            acc += baseline_uplink_slot(&g, &e);
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
            base += baseline_uplink_slot(&g, &e);
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
            base += baseline_downlink_slot(&g, &e);
            iac += iac_downlink3_slot(&g, &e, &mut rng);
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
        let r0 = iac_uplink4_slot(&g, &e, 0, &mut rng);
        let r1 = iac_uplink4_slot(&g, &e, 1, &mut rng);
        assert!(r0 > 0.0 && r1 > 0.0);
        assert!((r0 - r1).abs() > 1e-9, "rotation had no effect");
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
                    baseline: baseline_uplink_slot(&g, &e),
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
