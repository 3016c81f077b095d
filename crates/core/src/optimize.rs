//! Leader-AP encoding optimisation.
//!
//! The alignment equations of §4 constrain *directions relative to each
//! other* but leave free parameters: the seed of each alignment chain (any
//! scalar multiple of an aligned direction still aligns) and any packet that
//! appears in no interference set (packet p1 of Fig. 4b — "picking random
//! (but unequal) values" is the paper's minimal choice, not the best one).
//! The leader AP knows every channel estimate, and the paper's own
//! concurrency algorithm already scores candidate configurations by
//! `Σ log(1+‖vᵀHw‖²)` (§7.2) — so the natural implementation scores a small
//! set of candidate alignment seeds the same way and transmit-beamforms the
//! unconstrained packets toward their post-projection receive directions.
//!
//! This module provides those optimised constructions. They satisfy exactly
//! the same alignment equations as [`crate::closed_form`] (tests enforce it);
//! they just choose better members of the solution family.

use crate::closed_form::AlignedConfig;
use crate::decoder::{equal_split_powers, IacDecoder};
use crate::grid::{ChannelGrid, Direction};
use crate::schedule::{DecodeSchedule, DecodeStep};
use iac_linalg::{eig2, CVec, LinAlgError, Result, Rng64};
use std::ops::Deref;

/// How many random alignment seeds the leader scores per configuration.
pub const DEFAULT_SEED_CANDIDATES: usize = 8;

/// Score a candidate configuration exactly as the leader AP would: run the
/// decode chain on the *estimated* channels (the only ones it has) and read
/// the Eq. 9 achievable rate.
pub fn predicted_rate(
    est_grid: &ChannelGrid,
    config: &AlignedConfig,
    per_node_power: f64,
    noise: f64,
) -> f64 {
    let mut powers = equal_split_powers(&config.schedule, per_node_power);
    rate_on_estimates(est_grid, &config.schedule, &config.encoding, &mut powers, noise)
}

/// The body of [`predicted_rate`], for callers that hold the schedule and
/// the power split already. The decoder borrows `packet_power` for the
/// call and hands it back, so a caller scoring many candidates never
/// copies it.
fn rate_on_estimates(
    est_grid: &ChannelGrid,
    schedule: &DecodeSchedule,
    encoding: &[CVec],
    packet_power: &mut Vec<f64>,
    noise: f64,
) -> f64 {
    let decoder = IacDecoder {
        true_grid: est_grid,
        est_grid,
        schedule,
        encoding,
        packet_power: std::mem::take(packet_power),
        noise_power: noise,
    };
    let rate = decoder.decode().map(|o| o.rate_bits_per_hz()).unwrap_or(0.0);
    *packet_power = decoder.packet_power;
    rate
}

/// An optimiser's chosen configuration and the predicted rate it won with.
///
/// `rate` is bit-for-bit [`predicted_rate`] of `config` on the grid, power
/// and noise the optimiser was given, so a caller that only needs the score
/// does not decode the winner again. Derefs to the configuration.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The winning configuration.
    pub config: AlignedConfig,
    /// Its predicted Eq. 9 rate on the estimated grid.
    pub rate: f64,
}

impl Deref for Optimized {
    type Target = AlignedConfig;
    fn deref(&self) -> &AlignedConfig {
        &self.config
    }
}

/// Scores candidate encodings for one schedule and keeps the best; the
/// first of equal scores wins.
struct Contest<'a> {
    est_grid: &'a ChannelGrid,
    schedule: DecodeSchedule,
    powers: Vec<f64>,
    noise: f64,
    best: Option<(f64, Vec<CVec>)>,
}

impl<'a> Contest<'a> {
    fn new(
        est_grid: &'a ChannelGrid,
        schedule: DecodeSchedule,
        per_node_power: f64,
        noise: f64,
    ) -> Self {
        let powers = equal_split_powers(&schedule, per_node_power);
        Self {
            est_grid,
            schedule,
            powers,
            noise,
            best: None,
        }
    }

    fn offer(&mut self, encoding: Vec<CVec>) {
        let score = rate_on_estimates(
            self.est_grid,
            &self.schedule,
            &encoding,
            &mut self.powers,
            self.noise,
        );
        if self.best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
            self.best = Some((score, encoding));
        }
    }

    fn winner(self) -> Option<Optimized> {
        let Self { schedule, best, .. } = self;
        best.map(|(rate, encoding)| Optimized {
            config: AlignedConfig { schedule, encoding },
            rate,
        })
    }
}

/// Beamform an unconstrained packet: given the receive projection `u` its AP
/// will use, the best unit encoding vector is the matched filter `Hᴴu`.
fn matched_encoding(h: &iac_linalg::CMat, u: &CVec) -> Result<CVec> {
    h.hermitian().mul_vec(u).normalize()
}

/// Optimised three-packet uplink (the Fig. 4b configuration).
///
/// For each candidate aligned direction `g` at AP 0: derive
/// `v1 = H(0,0)⁻¹·g`, `v2 = H(1,0)⁻¹·g` (so Eq. 2 holds by construction),
/// set the AP-0 projection `u0 ⟂ g`, beamform the free packet
/// `v0 = H(0,0)ᴴ·u0`, and keep the candidate with the best predicted rate.
pub fn uplink3_optimized(
    est_grid: &ChannelGrid,
    per_node_power: f64,
    noise: f64,
    candidates: usize,
    rng: &mut Rng64,
) -> Result<Optimized> {
    if est_grid.direction() != Direction::Uplink
        || est_grid.transmitters() != 2
        || est_grid.receivers() != 2
    {
        return Err(LinAlgError::Degenerate("uplink3 needs 2 clients and 2 APs"));
    }
    let schedule = DecodeSchedule {
        antennas: 2,
        owners: vec![0, 0, 1],
        steps: vec![
            DecodeStep {
                receiver: 0,
                decode: vec![0],
                cancel: vec![],
            },
            DecodeStep {
                receiver: 1,
                decode: vec![1, 2],
                cancel: vec![0],
            },
        ],
    };
    let h00_inv = est_grid.link(0, 0).inverse()?;
    let h10_inv = est_grid.link(1, 0).inverse()?;
    let mut contest = Contest::new(est_grid, schedule, per_node_power, noise);
    for _ in 0..candidates.max(1) {
        let g = CVec::random_unit(2, rng);
        let v1 = h00_inv.mul_vec(&g).normalize()?;
        let v2 = h10_inv.mul_vec(&g).normalize()?;
        // The actual aligned direction (recomputed from v1 to stay exact
        // under the normalisation).
        let aligned = est_grid.link(0, 0).mul_vec(&v1);
        let u0 = aligned.orth_2d()?;
        let v0 = matched_encoding(est_grid.link(0, 0), &u0)?;
        contest.offer(vec![v0, v1, v2]);
    }
    Ok(contest.winner().expect("candidates >= 1"))
}

/// Optimised four-packet uplink (Fig. 5 / footnote 4).
///
/// The eigenproblem admits exactly two alignment solutions (the two
/// eigenvectors); the free packet `v0` is beamformed per solution and the
/// leader keeps the better of the two.
pub fn uplink4_optimized(
    est_grid: &ChannelGrid,
    per_node_power: f64,
    noise: f64,
) -> Result<Optimized> {
    if est_grid.direction() != Direction::Uplink
        || est_grid.transmitters() != 3
        || est_grid.receivers() != 3
    {
        return Err(LinAlgError::Degenerate("uplink4 needs 3 clients and 3 APs"));
    }
    let h00_inv = est_grid.link(0, 0).inverse()?;
    let h10_inv = est_grid.link(1, 0).inverse()?;
    let prod = est_grid
        .link(2, 1)
        .inverse()?
        .mul_mat(est_grid.link(1, 1))
        .mul_mat(&h10_inv)
        .mul_mat(est_grid.link(2, 0));
    let pairs = eig2(&prod)?;
    // v2 and v1 follow from each eigenvector v3 through fixed products.
    let to_v2 = h10_inv.mul_mat(est_grid.link(2, 0));
    let to_v1 = h00_inv.mul_mat(est_grid.link(2, 0));
    let mut contest = Contest::new(
        est_grid,
        DecodeSchedule::uplink_2m(2),
        per_node_power,
        noise,
    );
    for (_, v3) in pairs {
        let v3 = v3.normalize()?;
        let v2 = to_v2.mul_vec(&v3).normalize()?;
        let v1 = to_v1.mul_vec(&v3).normalize()?;
        // AP0 projects orthogonally to the aligned triple; beamform v0 to it.
        let aligned = est_grid.link(0, 0).mul_vec(&v1);
        let u0 = aligned.orth_2d()?;
        let v0 = matched_encoding(est_grid.link(0, 0), &u0)?;
        contest.offer(vec![v0, v1, v2, v3]);
    }
    contest
        .winner()
        .ok_or(LinAlgError::Degenerate("no eigen solution"))
}

/// Optimised three-packet downlink (Fig. 6 / Eqs. 5–7): the eigenproblem's
/// two solutions are both evaluated; there are no free packets to beamform
/// (every vector is constrained by two clients at once).
pub fn downlink3_optimized(
    est_grid: &ChannelGrid,
    per_node_power: f64,
    noise: f64,
) -> Result<Optimized> {
    if est_grid.direction() != Direction::Downlink
        || est_grid.transmitters() != 3
        || est_grid.receivers() != 3
    {
        return Err(LinAlgError::Degenerate("downlink3 needs 3 APs and 3 clients"));
    }
    let h10_inv = est_grid.link(1, 0).inverse()?;
    let h01_inv = est_grid.link(0, 1).inverse()?;
    let a = est_grid
        .link(1, 2)
        .mul_mat(&h10_inv)
        .mul_mat(est_grid.link(2, 0));
    let b = est_grid
        .link(0, 2)
        .mul_mat(&h01_inv)
        .mul_mat(est_grid.link(2, 1));
    let prod = a.inverse()?.mul_mat(&b);
    let pairs = eig2(&prod)?;
    // v1 and v0 follow from each eigenvector v2 through fixed products.
    let to_v1 = h10_inv.mul_mat(est_grid.link(2, 0));
    let to_v0 = h01_inv.mul_mat(est_grid.link(2, 1));
    let mut contest = Contest::new(
        est_grid,
        DecodeSchedule::downlink_3_packets(),
        per_node_power,
        noise,
    );
    for (_, v2) in pairs {
        let v2 = v2.normalize()?;
        let v1 = to_v1.mul_vec(&v2).normalize()?;
        let v0 = to_v0.mul_vec(&v2).normalize()?;
        contest.offer(vec![v0, v1, v2]);
    }
    contest
        .winner()
        .ok_or(LinAlgError::Degenerate("no eigen solution"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::{self, alignment_residual};

    #[test]
    fn optimized_uplink3_still_aligns() {
        let mut rng = Rng64::new(1);
        for _ in 0..10 {
            let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
            let cfg = uplink3_optimized(&grid, 1.0, 0.05, 4, &mut rng).unwrap();
            assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-9);
        }
    }

    #[test]
    fn optimized_uplink4_still_aligns() {
        let mut rng = Rng64::new(2);
        for _ in 0..10 {
            let grid = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
            let cfg = uplink4_optimized(&grid, 1.0, 0.05).unwrap();
            assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-7);
        }
    }

    #[test]
    fn optimized_downlink3_still_aligns() {
        let mut rng = Rng64::new(3);
        for _ in 0..10 {
            let grid = ChannelGrid::random(Direction::Downlink, 3, 3, 2, 2, &mut rng);
            let cfg = downlink3_optimized(&grid, 1.0, 0.05).unwrap();
            assert!(alignment_residual(&grid, &cfg.schedule, &cfg.encoding) < 1e-7);
        }
    }

    #[test]
    fn optimization_beats_random_seeds_on_average() {
        let mut rng = Rng64::new(4);
        let mut random_acc = 0.0;
        let mut opt_acc = 0.0;
        for _ in 0..50 {
            let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
            let random_cfg = closed_form::uplink3(&grid, &mut rng).unwrap();
            random_acc += predicted_rate(&grid, &random_cfg, 1.0, 0.05);
            let opt_cfg = uplink3_optimized(&grid, 1.0, 0.05, 8, &mut rng).unwrap();
            opt_acc += predicted_rate(&grid, &opt_cfg, 1.0, 0.05);
        }
        assert!(
            opt_acc > random_acc * 1.05,
            "optimisation gained nothing: {opt_acc} vs {random_acc}"
        );
    }

    #[test]
    fn more_candidates_never_hurt() {
        let mut rng = Rng64::new(5);
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        // With a shared RNG the candidate sets differ, so compare in
        // expectation: k=16 should beat k=1 on average.
        let mut one = 0.0;
        let mut many = 0.0;
        for _ in 0..30 {
            let c1 = uplink3_optimized(&grid, 1.0, 0.05, 1, &mut rng).unwrap();
            one += predicted_rate(&grid, &c1, 1.0, 0.05);
            let c16 = uplink3_optimized(&grid, 1.0, 0.05, 16, &mut rng).unwrap();
            many += predicted_rate(&grid, &c16, 1.0, 0.05);
        }
        assert!(many >= one, "{many} < {one}");
    }

    #[test]
    fn uplink4_chooses_among_both_eigenvectors() {
        // The two eigen solutions generally score differently; the chosen one
        // must be at least as good as the plain closed form (which picks by
        // eigenvalue magnitude, not by rate).
        let mut rng = Rng64::new(6);
        let mut plain = 0.0;
        let mut opt = 0.0;
        for _ in 0..40 {
            let grid = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
            let p = closed_form::uplink4(&grid, &mut rng).unwrap();
            plain += predicted_rate(&grid, &p, 1.0, 0.05);
            let o = uplink4_optimized(&grid, 1.0, 0.05).unwrap();
            opt += predicted_rate(&grid, &o, 1.0, 0.05);
        }
        assert!(opt > plain, "optimised {opt} <= plain {plain}");
    }

    #[test]
    fn wrong_shapes_rejected() {
        let mut rng = Rng64::new(7);
        let g = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
        assert!(uplink3_optimized(&g, 1.0, 0.05, 2, &mut rng).is_err());
        let g2 = ChannelGrid::random(Direction::Downlink, 3, 3, 2, 2, &mut rng);
        assert!(uplink4_optimized(&g2, 1.0, 0.05).is_err());
    }
}
