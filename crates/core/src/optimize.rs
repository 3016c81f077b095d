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
use crate::grid::{ChannelGrid, Direction, Links};
use crate::schedule::{DecodeSchedule, DecodeStep};
use iac_linalg::{eig2, CMat, CVec, LinAlgError, Result, Rng64};
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
    rate_on_estimates(
        est_grid,
        &config.schedule,
        &config.encoding,
        &mut powers,
        noise,
    )
}

/// The body of [`predicted_rate`], for callers that hold the schedule and
/// the power split already. The decoder borrows `packet_power` for the
/// call and hands it back, so a caller scoring many candidates never
/// copies it. A decode that fails, a NaN SINR from a non-finite estimate
/// included, scores 0.0.
fn rate_on_estimates<G: Links>(
    est_grid: &G,
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
    let rate = decoder.rate().unwrap_or(0.0);
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
struct Contest<'a, G, E> {
    links: &'a G,
    schedule: &'a DecodeSchedule,
    powers: &'a mut Vec<f64>,
    noise: f64,
    best: Option<(f64, E)>,
}

impl<'a, G: Links, E: AsRef<[CVec]>> Contest<'a, G, E> {
    fn new(
        links: &'a G,
        schedule: &'a DecodeSchedule,
        powers: &'a mut Vec<f64>,
        noise: f64,
    ) -> Self {
        Self {
            links,
            schedule,
            powers,
            noise,
            best: None,
        }
    }

    fn offer(&mut self, encoding: E) {
        let score = rate_on_estimates(
            self.links,
            self.schedule,
            encoding.as_ref(),
            self.powers,
            self.noise,
        );
        if self.best.as_ref().map(|(s, _)| score > *s).unwrap_or(true) {
            self.best = Some((score, encoding));
        }
    }
}

/// Beamform an unconstrained packet: given the receive projection `u` its AP
/// will use, the best unit encoding vector is the matched filter `Hᴴu`.
fn matched_encoding(h: &CMat, u: &CVec) -> Result<CVec> {
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
    let mut powers = equal_split_powers(&schedule, per_node_power);
    let mut contest = Contest::new(est_grid, &schedule, &mut powers, noise);
    for _ in 0..candidates.max(1) {
        let g = CVec::random_unit(2, rng);
        let v1 = h00_inv.mul_vec(&g).normalize()?;
        let v2 = h10_inv.mul_vec(&g).normalize()?;
        // The actual aligned direction (recomputed from v1 to stay exact
        // under the normalisation).
        let aligned = est_grid.link(0, 0).mul_vec(&v1);
        let u0 = aligned.orth_2d()?;
        let v0 = matched_encoding(est_grid.link(0, 0), &u0)?;
        contest.offer([v0, v1, v2]);
    }
    let (rate, encoding) = contest.best.expect("candidates >= 1");
    Ok(Optimized {
        config: AlignedConfig {
            schedule,
            encoding: encoding.into(),
        },
        rate,
    })
}

/// Optimised four-packet uplink (Fig. 5 / footnote 4).
///
/// The eigenproblem admits exactly two alignment solutions (the two
/// eigenvectors); the free packet `v0` is beamformed per solution and the
/// leader keeps the better of the two. This is [`ScoringContext`] scoring
/// the group `[0, 1, 2]` of a 3×3 grid.
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
    let mut context = ScoringContext::new(est_grid, 0, per_node_power, noise);
    let (rate, encoding) = context.uplink_best(1, 2)?;
    Ok(context.into_optimized(rate, encoding.into()))
}

/// Optimised three-packet downlink (Fig. 6 / Eqs. 5–7): the eigenproblem's
/// two solutions are both evaluated; there are no free packets to beamform
/// (every vector is constrained by two clients at once). This is
/// [`ScoringContext`] scoring the group `[0, 1, 2]` of a 3×3 grid.
pub fn downlink3_optimized(
    est_grid: &ChannelGrid,
    per_node_power: f64,
    noise: f64,
) -> Result<Optimized> {
    if est_grid.direction() != Direction::Downlink
        || est_grid.transmitters() != 3
        || est_grid.receivers() != 3
    {
        return Err(LinAlgError::Degenerate(
            "downlink3 needs 3 APs and 3 clients",
        ));
    }
    let mut context = ScoringContext::new(est_grid, 0, per_node_power, noise);
    let (rate, encoding) = context.downlink_best(1, 2)?;
    Ok(context.into_optimized(rate, encoding.into()))
}

/// The leader AP's group scoring for one slot (§7.2).
///
/// The grid holds the slot's estimates for three APs and every client:
/// clients transmit on the uplink (`clients × 3`), APs on the downlink
/// (`3 × clients`). A group is `[head, a, b]` by client index, and
/// [`ScoringContext::score`] returns, bit for bit, the rate
/// [`uplink4_optimized`] / [`downlink3_optimized`] report for the group's
/// 3×3 sub-grid (0.0 where they fail), without cutting the sub-grid.
///
/// Everything that depends on the head alone or on one companion in one
/// role is computed once, on first use, and kept with its error:
///
/// | | uplink | downlink |
/// |---|---|---|
/// | slot | schedule, power split, `H(h,0)⁻¹` | schedule, power split, `Hᵈ(1,h)⁻¹`, `Hᵈ(1,h)⁻¹·Hᵈ(2,h)` |
/// | `a` | `H(a,0)⁻¹` | `Hᵈ(0,a)⁻¹`, `Hᵈ(0,a)⁻¹·Hᵈ(2,a)` |
/// | `b` | `H(b,1)⁻¹`, `H(h,0)⁻¹·H(b,0)` | `(Hᵈ(1,b)·Hᵈ(1,h)⁻¹·Hᵈ(2,h))⁻¹` |
///
/// Each cached value is the matrix the sub-grid computation forms, from
/// the same links in the same order; products whose factors mix `a` and
/// `b` stay per group.
#[derive(Debug)]
pub struct ScoringContext<'g> {
    grid: &'g ChannelGrid,
    head: usize,
    per_node_power: f64,
    noise: f64,
    slot: Option<Slot>,
}

/// The per-slot state, built by the first score.
#[derive(Debug)]
struct Slot {
    schedule: DecodeSchedule,
    powers: Vec<f64>,
    terms: Result<Terms>,
}

/// The head-only terms and the per-companion caches of one direction.
#[derive(Debug)]
enum Terms {
    Uplink {
        /// `H(head, AP0)⁻¹`.
        head_inv: CMat,
        /// Per first companion `a`: `H(a, AP0)⁻¹`.
        first: Memo<CMat>,
        /// Per second companion `b`: `H(b, AP1)⁻¹` and `to_v1 =
        /// H(head, AP0)⁻¹·H(b, AP0)`.
        second: Memo<[CMat; 2]>,
    },
    Downlink {
        /// `Hᵈ(AP1, head)⁻¹`.
        head_inv: CMat,
        /// `to_v1 = Hᵈ(AP1, head)⁻¹·Hᵈ(AP2, head)`.
        to_v1: CMat,
        /// Per first companion `a`: `Hᵈ(AP0, a)⁻¹` and `to_v0 =
        /// Hᵈ(AP0, a)⁻¹·Hᵈ(AP2, a)`.
        first: Memo<[CMat; 2]>,
        /// Per second companion `b`: the inverse of the left factor
        /// `Hᵈ(AP1, b)·Hᵈ(AP1, head)⁻¹·Hᵈ(AP2, head)`.
        second: Memo<CMat>,
    },
}

/// One value per client, computed on first use; a failure is kept too.
#[derive(Debug)]
struct Memo<T>(Vec<Option<Result<T>>>);

impl<T> Memo<T> {
    fn new(clients: usize) -> Self {
        Self((0..clients).map(|_| None).collect())
    }

    fn get(&mut self, client: usize, compute: impl FnOnce() -> Result<T>) -> Result<&T> {
        self.0[client]
            .get_or_insert_with(compute)
            .as_ref()
            .map_err(Clone::clone)
    }
}

impl Slot {
    fn new(grid: &ChannelGrid, head: usize, per_node_power: f64) -> Self {
        let schedule = match grid.direction() {
            Direction::Uplink => DecodeSchedule::uplink_2m(2),
            Direction::Downlink => DecodeSchedule::downlink_3_packets(),
        };
        let powers = equal_split_powers(&schedule, per_node_power);
        let terms = match grid.direction() {
            Direction::Uplink if grid.receivers() == 3 => {
                grid.link(head, 0).inverse().map(|head_inv| Terms::Uplink {
                    head_inv,
                    first: Memo::new(grid.transmitters()),
                    second: Memo::new(grid.transmitters()),
                })
            }
            Direction::Downlink if grid.transmitters() == 3 => {
                grid.link(1, head)
                    .inverse()
                    .map(|head_inv| Terms::Downlink {
                        to_v1: head_inv.mul_mat(grid.link(2, head)),
                        head_inv,
                        first: Memo::new(grid.receivers()),
                        second: Memo::new(grid.receivers()),
                    })
            }
            _ => Err(LinAlgError::Degenerate("group scoring needs 3 APs")),
        };
        Self {
            schedule,
            powers,
            terms,
        }
    }
}

impl<'g> ScoringContext<'g> {
    /// A context for the slot's estimated grid and the group head. Nothing
    /// is computed until the first score.
    pub fn new(est_grid: &'g ChannelGrid, head: usize, per_node_power: f64, noise: f64) -> Self {
        Self {
            grid: est_grid,
            head,
            per_node_power,
            noise,
            slot: None,
        }
    }

    /// Predicted rate of the group `[head, a, b]` on the estimates: the
    /// better of its two alignment solutions, or 0.0 when it cannot be
    /// aligned.
    pub fn score(&mut self, a: usize, b: usize) -> f64 {
        let best = match self.grid.direction() {
            Direction::Uplink => self.uplink_best(a, b).map(|(rate, _)| rate),
            Direction::Downlink => self.downlink_best(a, b).map(|(rate, _)| rate),
        };
        best.unwrap_or(0.0)
    }

    fn slot(&mut self) -> &mut Slot {
        let (grid, head, power) = (self.grid, self.head, self.per_node_power);
        self.slot
            .get_or_insert_with(|| Slot::new(grid, head, power))
    }

    /// The winning configuration, once its rate and encoding are known.
    fn into_optimized(self, rate: f64, encoding: Vec<CVec>) -> Optimized {
        let schedule = self.slot.expect("a scored context has its slot").schedule;
        Optimized {
            config: AlignedConfig { schedule, encoding },
            rate,
        }
    }

    /// The uplink alignment of `[head, a, b]`: `v3` solves the Fig. 5
    /// eigenproblem, `v2` and `v1` follow through fixed products, and AP0
    /// projects orthogonally to the aligned triple, with `v0` beamformed
    /// to that projection.
    fn uplink_best(&mut self, a: usize, b: usize) -> Result<(f64, [CVec; 4])> {
        let (grid, head, noise) = (self.grid, self.head, self.noise);
        let Slot {
            schedule,
            powers,
            terms,
        } = self.slot();
        let Terms::Uplink {
            head_inv,
            first,
            second,
        } = terms.as_mut().map_err(|e| e.clone())?
        else {
            unreachable!("an uplink grid builds uplink terms");
        };
        let h00_inv = &*head_inv;
        let h10_inv = first.get(a, || grid.link(a, 0).inverse())?;
        let [h21_inv, to_v1] = second.get(b, || {
            Ok([grid.link(b, 1).inverse()?, h00_inv.mul_mat(grid.link(b, 0))])
        })?;
        let prod = h21_inv
            .mul_mat(grid.link(a, 1))
            .mul_mat(h10_inv)
            .mul_mat(grid.link(b, 0));
        let pairs = eig2(&prod)?;
        let to_v2 = h10_inv.mul_mat(grid.link(b, 0));
        let h00 = grid.link(head, 0);
        let group = GroupLinks {
            grid,
            tx: [head, a, b],
            rx: [0, 1, 2],
        };
        let mut contest = Contest::new(&group, schedule, powers, noise);
        for (_, v3) in pairs {
            let v3 = v3.normalize()?;
            let v2 = to_v2.mul_vec(&v3).normalize()?;
            let v1 = to_v1.mul_vec(&v3).normalize()?;
            let aligned = h00.mul_vec(&v1);
            let u0 = aligned.orth_2d()?;
            let v0 = matched_encoding(h00, &u0)?;
            contest.offer([v0, v1, v2, v3]);
        }
        contest
            .best
            .ok_or(LinAlgError::Degenerate("no eigen solution"))
    }

    /// The downlink alignment of `[head, a, b]`: `v2` solves the Eq. 5–7
    /// eigenproblem and `v1`, `v0` follow through fixed products.
    fn downlink_best(&mut self, a: usize, b: usize) -> Result<(f64, [CVec; 3])> {
        let (grid, head, noise) = (self.grid, self.head, self.noise);
        let Slot {
            schedule,
            powers,
            terms,
        } = self.slot();
        let Terms::Downlink {
            head_inv,
            to_v1,
            first,
            second,
        } = terms.as_mut().map_err(|e| e.clone())?
        else {
            unreachable!("a downlink grid builds downlink terms");
        };
        let h10_inv = &*head_inv;
        let [h01_inv, to_v0] = first.get(a, || {
            let inv = grid.link(0, a).inverse()?;
            let to_v0 = inv.mul_mat(grid.link(2, a));
            Ok([inv, to_v0])
        })?;
        let left_inv = second.get(b, || {
            grid.link(1, b)
                .mul_mat(h10_inv)
                .mul_mat(grid.link(2, head))
                .inverse()
        })?;
        let right = grid.link(0, b).mul_mat(h01_inv).mul_mat(grid.link(2, a));
        let pairs = eig2(&left_inv.mul_mat(&right))?;
        let group = GroupLinks {
            grid,
            tx: [0, 1, 2],
            rx: [head, a, b],
        };
        let mut contest = Contest::new(&group, schedule, powers, noise);
        for (_, v2) in pairs {
            let v2 = v2.normalize()?;
            let v1 = to_v1.mul_vec(&v2).normalize()?;
            let v0 = to_v0.mul_vec(&v2).normalize()?;
            contest.offer([v0, v1, v2]);
        }
        contest
            .best
            .ok_or(LinAlgError::Degenerate("no eigen solution"))
    }
}

/// The 3×3 sub-grid of one group, read in place: link `(t, r)` is the
/// slot grid's link `(tx[t], rx[r])`.
#[derive(Debug)]
struct GroupLinks<'g> {
    grid: &'g ChannelGrid,
    tx: [usize; 3],
    rx: [usize; 3],
}

impl Links for GroupLinks<'_> {
    fn link(&self, tx: usize, rx: usize) -> &CMat {
        self.grid.link(self.tx[tx], self.rx[rx])
    }

    fn link_shape(&self) -> (usize, usize) {
        self.grid.link_shape()
    }
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
