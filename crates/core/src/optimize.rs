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
use crate::decoder::{equal_split_powers, Chain};
use crate::grid::{ChannelGrid, Direction, Links};
use crate::lanes::{self, DownlinkChunk, UplinkChunk, LANES};
use crate::schedule::{DecodeSchedule, DecodeStep};
use iac_linalg::{eig2, CMat, CVec, LinAlgError, Result, Rng64, C64};
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
    let powers = equal_split_powers(&config.schedule, per_node_power);
    rate_on_estimates(est_grid, &config.schedule, &config.encoding, &powers, noise)
}

/// The body of [`predicted_rate`], for callers that hold the schedule and
/// the power split already. A decode that fails, a NaN SINR from a
/// non-finite estimate included, scores 0.0.
fn rate_on_estimates(
    est_grid: &dyn Links,
    schedule: &DecodeSchedule,
    encoding: &[CVec],
    packet_power: &[f64],
    noise: f64,
) -> f64 {
    Chain {
        true_grid: est_grid,
        est_grid,
        one_grid: true,
        schedule,
        packet_power,
        noise_power: noise,
    }
    .rate(encoding)
    .unwrap_or(0.0)
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
struct Contest<'a, E> {
    links: &'a dyn Links,
    schedule: &'a DecodeSchedule,
    powers: &'a [f64],
    noise: f64,
    best: Option<(f64, E)>,
}

impl<'a, E: AsRef<[CVec]>> Contest<'a, E> {
    fn new(
        links: &'a dyn Links,
        schedule: &'a DecodeSchedule,
        powers: &'a [f64],
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
/// `v0 = H(0,0)ᴴ·u0`, and keep the candidate with the best predicted rate,
/// the first of equal rates.
///
/// `est_grid` is a [`ChannelGrid`] or a view of one, such as the grid with
/// its two clients' roles swapped. On 2×2 links the candidates are scored
/// [`ScoringContext::LANES`] at a time by a kernel that repeats the scalar
/// path's float operations per lane (`crate::lanes`). If any lane cannot
/// be scored exactly as the scalar path does (a failed normalisation, a
/// NaN SINR, a Jacobi iteration that does not stop after one rotation),
/// `rng` is rewound and the whole call runs on the scalar path, which
/// returns the first failed normalisation's error after drawing only the
/// seeds up to it.
pub fn uplink3_optimized(
    est_grid: &dyn Links,
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
    let powers = equal_split_powers(&schedule, per_node_power);
    let candidates = candidates.max(1);
    let in_lanes = match est_grid.link_shape() {
        (2, 2) => uplink3_in_lanes(
            [(0, 0), (0, 1), (1, 0), (1, 1)].map(|(t, r)| entries(est_grid.link(t, r))),
            [entries(&h00_inv), entries(&h10_inv)],
            &powers,
            noise,
            candidates,
            rng,
        ),
        _ => None,
    };
    let (rate, encoding) = match in_lanes {
        Some(best) => best,
        None => {
            let mut contest = Contest::new(est_grid, &schedule, &powers, noise);
            for _ in 0..candidates {
                let g = CVec::random_unit(2, rng);
                let v1 = h00_inv.mul_vec(&g).normalize()?;
                let v2 = h10_inv.mul_vec(&g).normalize()?;
                // The actual aligned direction (recomputed from v1 to stay
                // exact under the normalisation).
                let aligned = est_grid.link(0, 0).mul_vec(&v1);
                let u0 = aligned.orth_2d()?;
                let v0 = matched_encoding(est_grid.link(0, 0), &u0)?;
                contest.offer([v0, v1, v2]);
            }
            contest.best.expect("candidates >= 1")
        }
    };
    Ok(Optimized {
        config: AlignedConfig {
            schedule,
            encoding: encoding.into(),
        },
        rate,
    })
}

/// [`uplink3_optimized`]'s candidate loop on the 2×2 links `H(0,0)`,
/// `H(0,1)`, `H(1,0)`, `H(1,1)` and the inverses `H(0,0)⁻¹`, `H(1,0)⁻¹`,
/// [`LANES`] seeds at a time: the seeds are drawn from `rng` in candidate
/// order, and the winner is picked in that order by `Contest`'s rule.
/// `None`, with `rng` as it was, when any lane is not `ok`.
fn uplink3_in_lanes(
    links: [&[C64; 4]; 4],
    inv: [&[C64; 4]; 2],
    powers: &[f64],
    noise: f64,
    candidates: usize,
    rng: &mut Rng64,
) -> Option<(f64, [CVec; 3])> {
    let start = rng.clone();
    let links = lanes::Uplink3Links {
        h: links.map(lanes::splat),
        inv: inv.map(lanes::splat),
    };
    let powers = powers
        .try_into()
        .expect("the Fig. 4b schedule has 3 packets");
    let mut best: Option<(f64, [[C64; 2]; 3])> = None;
    let mut drawn = 0;
    while drawn < candidates {
        let len = (candidates - drawn).min(LANES);
        // A short chunk repeats its first seed in the spare lanes.
        let mut seeds = [[C64::zero(); 2]; LANES];
        for seed in &mut seeds[..len] {
            let g = CVec::random_unit(2, rng);
            *seed = [g[0], g[1]];
        }
        let first = seeds[0];
        seeds[len..].fill(first);
        drawn += len;
        let (rates, ok, encodings) = lanes::uplink3(&links, &seeds, powers, noise);
        if !ok[..len].iter().all(|&ok| ok) {
            *rng = start;
            #[cfg(test)]
            tests::UPLINK3_FALLBACKS.set(tests::UPLINK3_FALLBACKS.get() + 1);
            return None;
        }
        for (l, &rate) in rates[..len].iter().enumerate() {
            if best.as_ref().map(|(s, _)| rate > *s).unwrap_or(true) {
                best = Some((rate, encodings.map(|v| v[l])));
            }
        }
    }
    best.map(|(rate, encoding)| (rate, encoding.map(|v| v.into_iter().collect())))
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
/// [`ScoringContext::score_batch`] returns, bit for bit, the rate
/// [`uplink4_optimized`] / [`downlink3_optimized`] report for each group's
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

    /// The value, once computed and if it did not fail.
    fn ready(&self, client: usize) -> Option<&T> {
        self.0[client].as_ref()?.as_ref().ok()
    }
}

/// Uplink, per first companion `a`: `H(a, AP0)⁻¹`.
fn uplink_first(grid: &ChannelGrid, a: usize) -> Result<CMat> {
    grid.link(a, 0).inverse()
}

/// Uplink, per second companion `b`: `H(b, AP1)⁻¹` and `H(head, AP0)⁻¹·H(b, AP0)`.
fn uplink_second(grid: &ChannelGrid, head_inv: &CMat, b: usize) -> Result<[CMat; 2]> {
    Ok([
        grid.link(b, 1).inverse()?,
        head_inv.mul_mat(grid.link(b, 0)),
    ])
}

/// Downlink, per first companion `a`: `Hᵈ(AP0, a)⁻¹` and `Hᵈ(AP0, a)⁻¹·Hᵈ(AP2, a)`.
fn downlink_first(grid: &ChannelGrid, a: usize) -> Result<[CMat; 2]> {
    let inv = grid.link(0, a).inverse()?;
    let to_v0 = inv.mul_mat(grid.link(2, a));
    Ok([inv, to_v0])
}

/// Downlink, per second companion `b`: `(Hᵈ(AP1, b)·Hᵈ(AP1, head)⁻¹·Hᵈ(AP2, head))⁻¹`.
fn downlink_second(grid: &ChannelGrid, head: usize, head_inv: &CMat, b: usize) -> Result<CMat> {
    grid.link(1, b)
        .mul_mat(head_inv)
        .mul_mat(grid.link(2, head))
        .inverse()
}

/// A 2×2 link or cached term, as the lanes read it.
fn entries(m: &CMat) -> &[C64; 4] {
    m.as_2x2().expect("lane-scored groups have 2×2 links")
}

/// Score the pairs of `pairs` that are `ready` [`LANES`] at a time through
/// `kernel`, which gets the chunk's `[a, b]` (a short chunk repeats its
/// first pair) and returns the scores with the lanes it could score. Every
/// other entry of `scores` becomes NaN, which no lane score is: the pairs
/// that were not ready and the lanes the kernel left to the scalar path.
fn in_lanes(
    pairs: &[[u16; 2]],
    scores: &mut [f64],
    ready: impl Fn(usize, usize) -> bool,
    mut kernel: impl FnMut(&[[usize; 2]; LANES]) -> (lanes::F, lanes::Mask),
) {
    let mut chunk = [[0; 2]; LANES];
    let mut slots = [0; LANES];
    let mut len = 0;
    let mut run = |chunk: &mut [[usize; 2]; LANES], slots: &[usize], scores: &mut [f64]| {
        let first = chunk[0];
        chunk[slots.len()..].fill(first);
        let (lane_scores, ok) = kernel(chunk);
        for (l, &slot) in slots.iter().enumerate() {
            if ok[l] {
                scores[slot] = lane_scores[l];
            }
        }
    };
    for (i, &[a, b]) in pairs.iter().enumerate() {
        let (a, b) = (a as usize, b as usize);
        scores[i] = f64::NAN;
        if ready(a, b) {
            chunk[len] = [a, b];
            slots[len] = i;
            len += 1;
        }
        if len == LANES {
            run(&mut chunk, &slots, scores);
            len = 0;
        }
    }
    if len > 0 {
        run(&mut chunk, &slots[..len], scores);
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
    /// Groups [`ScoringContext::score_batch`] scores side by side.
    pub const LANES: usize = LANES;

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

    /// Predicted rates of the groups `[head, a, b]`, one per `[a, b]` of
    /// `pairs`, into `scores`: per group, the better of its two alignment
    /// solutions on the estimates, or 0.0 when it cannot be aligned.
    ///
    /// The companions' cached terms are filled first, in pair order. The
    /// groups are then scored [`Self::LANES`] at a time, structure-of-arrays
    /// across groups, by a kernel that repeats the scalar path's float
    /// operations per lane (`crate::lanes`). A group the lanes cannot
    /// score exactly as the scalar path does (a failed cached term, an
    /// error inside the alignment or decode, a Jacobi iteration that does
    /// not stop after one rotation) is scored on the scalar path.
    pub fn score_batch(&mut self, pairs: &[[u16; 2]], scores: &mut [f64]) {
        assert_eq!(pairs.len(), scores.len(), "one score per pair");
        let (grid, head, noise) = (self.grid, self.head, self.noise);
        let Slot { powers, terms, .. } = self.slot();
        match terms {
            // Every group inverts the head's link first.
            Err(_) => return scores.fill(0.0),
            Ok(_) if grid.link_shape() != (2, 2) => scores.fill(f64::NAN),
            Ok(Terms::Uplink {
                head_inv,
                first,
                second,
            }) => {
                for &[a, b] in pairs {
                    let (a, b) = (a as usize, b as usize);
                    if first.get(a, || uplink_first(grid, a)).is_ok() {
                        let _ = second.get(b, || uplink_second(grid, head_inv, b));
                    }
                }
                let (first, second) = (&*first, &*second);
                let head = [0, 1].map(|ap| lanes::splat(entries(grid.link(head, ap))));
                let powers = powers[..].try_into().expect("uplink_2m(2) has 4 packets");
                let links = |c: &[[usize; 2]; LANES], role: usize| {
                    [0, 1, 2].map(|ap| lanes::gather(|l| entries(grid.link(c[l][role], ap))))
                };
                in_lanes(
                    pairs,
                    scores,
                    |a, b| first.ready(a).is_some() && second.ready(b).is_some(),
                    |c| {
                        let [h21_inv, to_v1] = [0, 1].map(|k| {
                            lanes::gather(|l| entries(&second.ready(c[l][1]).expect("ready")[k]))
                        });
                        let chunk = UplinkChunk {
                            head,
                            h10_inv: lanes::gather(|l| {
                                entries(first.ready(c[l][0]).expect("ready"))
                            }),
                            h21_inv,
                            to_v1,
                            a: links(c, 0),
                            b: links(c, 1),
                        };
                        lanes::uplink(&chunk, powers, noise)
                    },
                );
            }
            Ok(Terms::Downlink {
                head_inv,
                to_v1,
                first,
                second,
            }) => {
                for &[a, b] in pairs {
                    let (a, b) = (a as usize, b as usize);
                    if first.get(a, || downlink_first(grid, a)).is_ok() {
                        let _ = second.get(b, || downlink_second(grid, head, head_inv, b));
                    }
                }
                let (first, second) = (&*first, &*second);
                let head_links = [0, 1, 2].map(|ap| lanes::splat(entries(grid.link(ap, head))));
                let to_v1 = lanes::splat(entries(to_v1));
                let powers = powers[..]
                    .try_into()
                    .expect("downlink_3_packets has 3 packets");
                let links = |c: &[[usize; 2]; LANES], role: usize| {
                    [0, 1, 2].map(|ap| lanes::gather(|l| entries(grid.link(ap, c[l][role]))))
                };
                in_lanes(
                    pairs,
                    scores,
                    |a, b| first.ready(a).is_some() && second.ready(b).is_some(),
                    |c| {
                        let [h01_inv, to_v0] = [0, 1].map(|k| {
                            lanes::gather(|l| entries(&first.ready(c[l][0]).expect("ready")[k]))
                        });
                        let chunk = DownlinkChunk {
                            head: head_links,
                            to_v1,
                            h01_inv,
                            to_v0,
                            left_inv: lanes::gather(|l| {
                                entries(second.ready(c[l][1]).expect("ready"))
                            }),
                            a: links(c, 0),
                            b: links(c, 1),
                        };
                        lanes::downlink(&chunk, powers, noise)
                    },
                );
            }
        }
        for (s, &[a, b]) in scores.iter_mut().zip(pairs) {
            if s.is_nan() {
                let (a, b) = (a as usize, b as usize);
                let best = match grid.direction() {
                    Direction::Uplink => self.uplink_best(a, b).map(|(rate, _)| rate),
                    Direction::Downlink => self.downlink_best(a, b).map(|(rate, _)| rate),
                };
                *s = best.unwrap_or(0.0);
                #[cfg(test)]
                tests::ROUTED.with_borrow_mut(|r| r.push([a as u16, b as u16]));
            }
        }
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
        let h10_inv = first.get(a, || uplink_first(grid, a))?;
        let [h21_inv, to_v1] = second.get(b, || uplink_second(grid, head_inv, b))?;
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
        let [h01_inv, to_v0] = first.get(a, || downlink_first(grid, a))?;
        let left_inv = second.get(b, || downlink_second(grid, head, head_inv, b))?;
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

    fn direction(&self) -> Direction {
        self.grid.direction()
    }

    fn transmitters(&self) -> usize {
        self.tx.len()
    }

    fn receivers(&self) -> usize {
        self.rx.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::{self, alignment_residual};

    thread_local! {
        /// The pairs `score_batch` scored on the scalar path, in order.
        pub(super) static ROUTED: std::cell::RefCell<Vec<[u16; 2]>> = const {
            std::cell::RefCell::new(Vec::new())
        };
        /// The `uplink3_optimized` calls that ran on the scalar path.
        pub(super) static UPLINK3_FALLBACKS: std::cell::Cell<usize> = const {
            std::cell::Cell::new(0)
        };
    }

    /// Nearly every `uplink3_optimized` call on random estimates scores
    /// its seeds in lanes: a call that always fell back would match the
    /// scalar path bit for bit and gain nothing. A zero link to AP1 makes
    /// every seed's image there zero, so each of those calls falls back.
    #[test]
    fn lanes_score_nearly_every_uplink3_call() {
        let mut rng = Rng64::new(31);
        let est = iac_channel::estimation::EstimationConfig::paper_default();
        let calls = 500;
        UPLINK3_FALLBACKS.set(0);
        for _ in 0..calls {
            let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng)
                .estimated(&est, &mut rng);
            uplink3_optimized(&grid, 1.0, 1.0, DEFAULT_SEED_CANDIDATES, &mut rng).unwrap();
        }
        let fallbacks = UPLINK3_FALLBACKS.get();
        assert!(
            fallbacks * 100 <= calls,
            "{fallbacks} of {calls} calls fell back"
        );
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        let grid = with_link(&grid, 1, 1, &CMat::zeros(2, 2));
        UPLINK3_FALLBACKS.set(0);
        let _ = uplink3_optimized(&grid, 1.0, 1.0, DEFAULT_SEED_CANDIDATES, &mut rng);
        assert_eq!(UPLINK3_FALLBACKS.get(), 1);
    }

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

    /// An estimated slot grid of `clients` clients and three APs.
    fn slot_grid(direction: Direction, clients: usize, seed: u64) -> ChannelGrid {
        let mut rng = Rng64::new(seed);
        let (tx, rx) = match direction {
            Direction::Uplink => (clients, 3),
            Direction::Downlink => (3, clients),
        };
        ChannelGrid::random(direction, tx, rx, 2, 2, &mut rng).estimated(
            &iac_channel::estimation::EstimationConfig::paper_default(),
            &mut rng,
        )
    }

    /// `grid` with the link between `client` and AP `ap` replaced.
    fn with_link(grid: &ChannelGrid, client: usize, ap: usize, link: &CMat) -> ChannelGrid {
        let target = match grid.direction() {
            Direction::Uplink => (client, ap),
            Direction::Downlink => (ap, client),
        };
        let h = (0..grid.transmitters())
            .map(|t| {
                (0..grid.receivers())
                    .map(|r| {
                        if (t, r) == target {
                            link
                        } else {
                            grid.link(t, r)
                        }
                        .clone()
                    })
                    .collect()
            })
            .collect();
        ChannelGrid::new(grid.direction(), h)
    }

    fn clients(grid: &ChannelGrid) -> usize {
        match grid.direction() {
            Direction::Uplink => grid.transmitters(),
            Direction::Downlink => grid.receivers(),
        }
    }

    /// Score every ordered companion pair of `head` in one batch, check
    /// each score against the scalar path bit for bit, and return the
    /// pairs the batch routed to the scalar path.
    fn routed(grid: &ChannelGrid, head: usize) -> Vec<[u16; 2]> {
        let n = clients(grid) as u16;
        let pairs: Vec<[u16; 2]> = (0..n)
            .flat_map(|a| (0..n).map(move |b| [a, b]))
            .filter(|&[a, b]| a != b && a != head as u16 && b != head as u16)
            .collect();
        let mut scores = vec![0.0; pairs.len()];
        ROUTED.with_borrow_mut(Vec::clear);
        ScoringContext::new(grid, head, 1.0, 0.05).score_batch(&pairs, &mut scores);
        let routed = ROUTED.with_borrow_mut(std::mem::take);
        let mut scalar = ScoringContext::new(grid, head, 1.0, 0.05);
        for (&[a, b], score) in pairs.iter().zip(&scores) {
            let (a, b) = (a as usize, b as usize);
            let best = match grid.direction() {
                Direction::Uplink => scalar.uplink_best(a, b).map(|(rate, _)| rate),
                Direction::Downlink => scalar.downlink_best(a, b).map(|(rate, _)| rate),
            };
            let expected = best.unwrap_or(0.0);
            assert_eq!(
                score.to_bits(),
                expected.to_bits(),
                "{:?} group [{head}, {a}, {b}]: batch {score}, scalar {expected}",
                grid.direction()
            );
        }
        routed
    }

    /// Nearly every group of a random slot grid is scored in lanes: a
    /// batch that sent every group to the scalar path would match it bit
    /// for bit and gain nothing.
    #[test]
    fn lanes_score_nearly_every_group() {
        for direction in [Direction::Uplink, Direction::Downlink] {
            for (clients, seed) in [(8, 11), (17, 12), (8, 13), (17, 14)] {
                let grid = slot_grid(direction, clients, seed);
                let (mut groups, mut scalar) = (0, 0);
                for head in 0..clients {
                    groups += (clients - 1) * (clients - 2);
                    scalar += routed(&grid, head).len();
                }
                assert!(
                    scalar * 100 <= groups,
                    "{direction:?}, {clients} clients: {scalar} of {groups} groups left the lanes"
                );
            }
        }
    }

    /// Each way a lane leaves the batch, injected through one client's
    /// link: exactly the groups it touches go to the scalar path, and
    /// every group keeps its scalar bits.
    #[test]
    fn each_fallback_trigger_routes_only_its_own_lanes() {
        let c = 3;
        let rank_one = CMat::from_fn(2, 2, |r, k| C64::real(((r + 1) * (k + 1)) as f64));
        let zero = CMat::zeros(2, 2);
        let nan = CMat::from_fn(2, 2, |_, _| C64::new(f64::NAN, 0.0));
        // Maps every vector onto the first axis, so a one-image covariance
        // is already diagonal and Jacobi stops before any rotation.
        let axis = CMat::from_fn(2, 2, |r, _| C64::real(if r == 0 { 1.0 } else { 0.0 }));
        type Touches = fn(usize, usize, usize) -> bool;
        let as_a: Touches = |c, a, _| a == c;
        let as_b: Touches = |c, _, b| b == c;
        let either: Touches = |c, a, b| a == c || b == c;
        let cases: [(&str, Direction, usize, &CMat, Touches); 6] = [
            // H(c, AP0)⁻¹ fails where c is the first companion.
            (
                "uplink cached inverse",
                Direction::Uplink,
                0,
                &rank_one,
                as_a,
            ),
            // As first companion the inverse fails; as second, to_v2·v3 is
            // exactly zero and its normalisation fails.
            ("uplink normalisation", Direction::Uplink, 0, &zero, either),
            (
                "uplink non-finite covariance",
                Direction::Uplink,
                2,
                &nan,
                either,
            ),
            (
                "uplink Jacobi without rotation",
                Direction::Uplink,
                2,
                &axis,
                either,
            ),
            // Hᵈ(AP0, c)⁻¹ fails where c is the first companion.
            (
                "downlink cached inverse",
                Direction::Downlink,
                0,
                &rank_one,
                as_a,
            ),
            // The left factor Hᵈ(AP1, c)·… is singular where c is the
            // second companion.
            (
                "downlink cached left inverse",
                Direction::Downlink,
                1,
                &axis,
                as_b,
            ),
        ];
        for (what, direction, ap, link, touches) in cases {
            let grid = with_link(&slot_grid(direction, 8, 21), c, ap, link);
            let routed = routed(&grid, 0);
            let n = clients(&grid);
            let expected: Vec<[u16; 2]> = (1..n)
                .flat_map(|a| (1..n).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && touches(c, a, b))
                .map(|(a, b)| [a as u16, b as u16])
                .collect();
            assert_eq!(routed, expected, "{what}");
        }
    }

    /// Choices the scalar path makes with a branch and the lanes make with
    /// a select keep their groups in the lanes: a zero signal image (no
    /// phase normalisation) and an `eig2` input that is exactly the
    /// identity (its flat-matrix basis vector).
    #[test]
    fn branch_free_choices_stay_in_lanes() {
        // Downlink: with Hᵈ(AP1, c) = 0, client c as first companion sees
        // its own packet through a zero link. As second companion the
        // left factor is singular, so those groups go to the scalar path.
        let grid = with_link(
            &slot_grid(Direction::Downlink, 8, 22),
            3,
            1,
            &CMat::zeros(2, 2),
        );
        let scalar = routed(&grid, 0);
        assert!(scalar.iter().all(|&[_, b]| b == 3), "{scalar:?}");
        assert_eq!(scalar.len(), 6);

        // Uplink: companions 3 and 5 share the links [[1, 0], [1, 1]] to
        // AP0 and AP1, whose inverse is exact, so the group's eigenproblem
        // is exactly the identity.
        let shear = CMat::from_fn(2, 2, |r, k| C64::real(if r >= k { 1.0 } else { 0.0 }));
        let mut grid = slot_grid(Direction::Uplink, 8, 23);
        for client in [3, 5] {
            for ap in [0, 1] {
                grid = with_link(&grid, client, ap, &shear);
            }
        }
        let inv = shear.inverse().unwrap();
        let prod = inv.mul_mat(&shear).mul_mat(&inv).mul_mat(&shear);
        assert_eq!(prod, CMat::identity(2));
        assert_eq!(routed(&grid, 0), Vec::<[u16; 2]>::new());
    }
}
