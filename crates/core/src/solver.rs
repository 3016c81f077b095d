//! Iterative alignment solver: interference-leakage minimisation.
//!
//! The closed forms in [`crate::closed_form`] cover the paper's concrete
//! examples; for arbitrary `(clients, APs, antennas, schedule)` combinations
//! this module finds encoding vectors numerically, by alternating between:
//!
//! 1. **receive side** — for each decode step, pick the `d`-dimensional
//!    receive subspace with the least interference power (the smallest-`d`
//!    eigenvectors of the interference covariance);
//! 2. **transmit side** — for each packet, pick the unit encoding vector that
//!    leaks the least total power into the receive subspaces where the packet
//!    is interference (the smallest eigenvector of the accumulated leakage
//!    quadratic form).
//!
//! Total leakage is non-increasing under both updates, so the iteration
//! converges; when the schedule is feasible (in the §5 dof-counting sense)
//! the fixed point reached from a generic start has (numerically) zero
//! leakage — a perfect alignment. This is the standard "max-SINR/min-leakage"
//! family of distributed interference-alignment algorithms, applied to IAC's
//! cancellation-aware interference sets: packets cancelled at an AP simply do
//! not appear in its interference covariance.

use crate::grid::{ChannelGrid, Links};
use crate::schedule::{DecodeSchedule, DecodeStep};
use iac_linalg::eig::{smallest_eigvec2, smallest_eigvec_hermitian, smallest_eigvecs_hermitian};
use iac_linalg::matrix::mul_vec2;
use iac_linalg::{CMat, CVec, LinAlgError, Result, Rng64, C64};

/// Solver knobs.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Maximum alternating iterations per restart.
    pub max_iters: usize,
    /// Relative leakage at which the solution counts as aligned.
    pub tolerance: f64,
    /// Independent random restarts before giving up.
    pub restarts: usize,
}

impl Default for SolverConfig {
    fn default() -> Self {
        Self {
            max_iters: 2500,
            tolerance: 1e-9,
            restarts: 4,
        }
    }
}

/// A problem instance: channels plus the decode schedule to realise.
#[derive(Debug)]
pub struct AlignmentProblem<'a> {
    pub grid: &'a ChannelGrid,
    pub schedule: &'a DecodeSchedule,
}

/// Solver output.
#[derive(Debug, Clone)]
pub struct AlignmentSolution {
    /// Unit-norm encoding vector per packet.
    pub encoding: Vec<CVec>,
    /// Final relative leakage (interference power inside decode subspaces,
    /// normalised by total interference power).
    pub leakage: f64,
    /// Iterations used in the successful restart.
    pub iterations: usize,
}

impl AlignmentProblem<'_> {
    /// Run the alternating minimisation.
    pub fn solve(&self, config: &SolverConfig, rng: &mut Rng64) -> Result<AlignmentSolution> {
        self.schedule
            .validate()
            .map_err(|_| LinAlgError::Degenerate("invalid decode schedule"))?;
        let m = self.grid.tx_antennas();
        let n = self.schedule.n_packets();
        let sets = self.schedule.interference_sets();

        let mut best: Option<AlignmentSolution> = None;
        for _restart in 0..config.restarts.max(1) {
            let mut encoding: Vec<CVec> = (0..n).map(|_| CVec::random_unit(m, rng)).collect();
            let mut last_leakage = f64::INFINITY;
            let mut iterations = 0;
            for iter in 0..config.max_iters {
                iterations = iter + 1;
                // Receive side: decode subspaces per step.
                let mut subspaces: Vec<Vec<CVec>> = Vec::with_capacity(sets.len());
                for (step, (receiver, interf, _dim)) in sets.iter().enumerate() {
                    let d = self.schedule.steps[step].decode.len();
                    let q = interference_covariance(
                        self.grid,
                        self.schedule,
                        *receiver,
                        interf.iter().copied(),
                        &encoding,
                    );
                    subspaces.push(smallest_eigvecs_hermitian(&q, d)?);
                }
                // Transmit side: re-pick each constrained encoding vector.
                for (p, enc) in encoding.iter_mut().enumerate() {
                    let mut b = CMat::zeros(m, m);
                    let mut constrained = false;
                    for (step, (receiver, interf, _)) in sets.iter().enumerate() {
                        if !interf.contains(&p) {
                            continue;
                        }
                        constrained = true;
                        let h = self.grid.link(self.schedule.owners[p], *receiver);
                        for u in &subspaces[step] {
                            // B += Hᴴ·u·uᴴ·H
                            let hu = h.hermitian().mul_vec(u);
                            for r in 0..m {
                                for c in 0..m {
                                    b[(r, c)] += hu[r] * hu[c].conj();
                                }
                            }
                        }
                    }
                    if constrained {
                        *enc = smallest_eigvec_hermitian(&b)?;
                    }
                }
                let leakage = self.relative_leakage(&encoding, &subspaces, &sets);
                if leakage < config.tolerance {
                    let sol = AlignmentSolution {
                        encoding,
                        leakage,
                        iterations,
                    };
                    return Ok(sol);
                }
                // Early exit when progress genuinely stalls well above
                // tolerance (the fixed point of an infeasible schedule).
                // Feasible problems converge linearly, sometimes slowly, so
                // the threshold must sit below any plausible linear rate.
                if iter > 100 && leakage > last_leakage * (1.0 - 1e-7) {
                    break;
                }
                last_leakage = leakage;
            }
            let candidate = AlignmentSolution {
                leakage: last_leakage,
                encoding,
                iterations,
            };
            if best
                .as_ref()
                .map(|b| candidate.leakage < b.leakage)
                .unwrap_or(true)
            {
                best = Some(candidate);
            }
        }
        // No restart reached tolerance: return the best attempt (callers can
        // inspect `leakage` — an infeasible schedule converges to a strictly
        // positive floor, which is itself a meaningful measurement).
        best.ok_or(LinAlgError::NoConvergence {
            iterations: config.max_iters,
        })
    }

    fn relative_leakage(
        &self,
        encoding: &[CVec],
        subspaces: &[Vec<CVec>],
        sets: &[(usize, Vec<usize>, usize)],
    ) -> f64 {
        let mut leak = 0.0;
        let mut total = 0.0;
        for (step, (receiver, interf, _)) in sets.iter().enumerate() {
            for &p in interf {
                let img = self
                    .grid
                    .link(self.schedule.owners[p], *receiver)
                    .mul_vec(&encoding[p]);
                total += img.norm_sqr();
                for u in &subspaces[step] {
                    leak += u.dot(&img).norm_sqr();
                }
            }
        }
        if total == 0.0 {
            0.0
        } else {
            leak / total
        }
    }
}

/// Covariance of the interference arriving at `receiver` from the given
/// packets, summed in the order given: `Q = Σ_j (H_j v_j)(H_j v_j)ᴴ`.
pub fn interference_covariance(
    grid: &ChannelGrid,
    schedule: &DecodeSchedule,
    receiver: usize,
    packets: impl IntoIterator<Item = usize>,
    encoding: &[CVec],
) -> CMat {
    let m = grid.rx_antennas();
    let mut q = CMat::zeros(m, m);
    for p in packets {
        add_outer(
            &mut q,
            &grid
                .link(schedule.owners[p], receiver)
                .mul_vec(&encoding[p]),
        );
    }
    q
}

/// `q += img·imgᴴ`.
fn add_outer(q: &mut CMat, img: &CVec) {
    let m = img.len();
    for r in 0..m {
        for c in 0..m {
            q[(r, c)] += img[r] * img[c].conj();
        }
    }
}

/// Zero-forcing decoding vectors for one step, computed from (estimated)
/// channels: for each decoded packet, the unit vector minimising captured
/// power from interference *and* the step's other decoded packets (smallest
/// eigenvector of the combined covariance). With exact alignment this is the
/// paper's orthogonal projection; with imperfect estimates it degrades
/// gracefully instead of failing.
pub fn decoding_vectors(
    grid: &ChannelGrid,
    schedule: &DecodeSchedule,
    step_index: usize,
    encoding: &[CVec],
) -> Result<Vec<CVec>> {
    let sets = schedule.interference_sets();
    let (receiver, ref interf, _) = sets[step_index];
    let step = &schedule.steps[step_index];
    let mut images = Images::new(schedule.n_packets());
    images.fill(
        grid,
        schedule,
        receiver,
        interf.iter().chain(&step.decode),
        encoding,
    );
    let mut out = vec![CVec::default(); step.decode.len()];
    step_vectors(step, interf, &images, &mut out)?;
    Ok(out)
}

/// [`decoding_vectors`] of `step` from precomputed images: `images[q]` must
/// hold `H(owner(q), receiver)·v_q` for every packet of `interf` (the
/// step's interference set, from [`DecodeSchedule::interference_sets`]) and
/// of `step.decode`. The vector of `step.decode[k]` is written to `out[k]`.
pub(crate) fn step_vectors<V: AntennaVector>(
    step: &DecodeStep,
    interf: &[usize],
    images: &[V],
    out: &mut [V],
) -> Result<()> {
    for (&p, slot) in step.decode.iter().zip(out) {
        // Constraint covariance: true interferers + co-scheduled packets.
        let nuisance = interf
            .iter()
            .chain(step.decode.iter().filter(|&&q| q != p))
            .map(|&j| &images[j]);
        let mut u = V::least_captured(&images[p], nuisance)?;
        // Phase-normalise so u·(H v_p) is real positive (cosmetic: makes the
        // effective scalar channel deterministic for tests).
        let sig = u.dot(&images[p]);
        let mag = sig.abs();
        if mag > 1e-12 {
            u = u.scale_c((sig * (1.0 / mag)).conj());
        }
        *slot = u;
    }
    Ok(())
}

/// An image `H·v` or a decoding vector, as one decode holds it: a [`CVec`]
/// for any antenna count, or a `[C64; 2]` whose arithmetic is written out
/// for two antennas. Each operation computes the same bits in both.
pub(crate) trait AntennaVector: Clone + Default {
    /// `out = link·x`, as [`CMat::mul_vec_into`].
    fn image_into(link: &CMat, x: &Self, out: &mut Self);
    /// `out = (truth − est)·x`: a cancellation residual.
    fn residual_into(truth: &CMat, est: &CMat, x: &Self, out: &mut Self);
    /// The smallest eigenvector of `Σ x·xᴴ` over `nuisance`, summed in the
    /// order given, in the dimension of `signal`.
    fn least_captured<'a>(signal: &Self, nuisance: impl Iterator<Item = &'a Self>) -> Result<Self>
    where
        Self: 'a;
    /// The Hermitian inner product `⟨self, x⟩`, as [`CVec::dot`].
    fn dot(&self, x: &Self) -> C64;
    /// Every entry times `k`, as [`CVec::scale_c`].
    fn scale_c(&self, k: C64) -> Self;
}

impl AntennaVector for CVec {
    fn image_into(link: &CMat, x: &Self, out: &mut Self) {
        link.mul_vec_into(x, out);
    }

    fn residual_into(truth: &CMat, est: &CMat, x: &Self, out: &mut Self) {
        (truth - est).mul_vec_into(x, out);
    }

    fn least_captured<'a>(signal: &Self, nuisance: impl Iterator<Item = &'a Self>) -> Result<Self> {
        let m = signal.len();
        let mut q = CMat::zeros(m, m);
        for img in nuisance {
            add_outer(&mut q, img);
        }
        smallest_eigvec_hermitian(&q)
    }

    fn dot(&self, x: &Self) -> C64 {
        CVec::dot(self, x)
    }

    fn scale_c(&self, k: C64) -> Self {
        CVec::scale_c(self, k)
    }
}

/// The 2×2 link of a two-antenna decode.
fn link2(link: &CMat) -> &[C64; 4] {
    link.as_2x2().expect("a two-antenna decode reads 2×2 links")
}

impl AntennaVector for [C64; 2] {
    fn image_into(link: &CMat, x: &Self, out: &mut Self) {
        *out = mul_vec2(link2(link), x);
    }

    fn residual_into(truth: &CMat, est: &CMat, x: &Self, out: &mut Self) {
        let (t, e) = (link2(truth), link2(est));
        *out = mul_vec2(&std::array::from_fn(|k| t[k] - e[k]), x);
    }

    fn least_captured<'a>(_: &Self, nuisance: impl Iterator<Item = &'a Self>) -> Result<Self> {
        // `add_outer`, entry by entry.
        let mut q = [C64::zero(); 4];
        for img in nuisance {
            for r in 0..2 {
                for c in 0..2 {
                    q[2 * r + c] += img[r] * img[c].conj();
                }
            }
        }
        smallest_eigvec2(&q)
    }

    fn dot(&self, x: &Self) -> C64 {
        self.iter().zip(x).map(|(a, b)| a.conj() * *b).sum()
    }

    fn scale_c(&self, k: C64) -> Self {
        self.map(|z| z * k)
    }
}

/// Packets whose images fit without a heap block (a 2m-packet schedule up
/// to m = 4 does).
pub(crate) const INLINE: usize = 8;

/// Per-packet images `H(owner(q), rx)·v_q` at one receiver (or one step's
/// decoding vectors), indexed by packet. Up to [`INLINE`] packets live on
/// the stack, and a 2-antenna vector is itself inline, so filling them does
/// not allocate.
pub(crate) struct Images<V> {
    inline: [V; INLINE],
    heap: Vec<V>,
}

impl<V: AntennaVector> Images<V> {
    /// Slots for packets `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            inline: Default::default(),
            heap: if n > INLINE {
                vec![V::default(); n]
            } else {
                Vec::new()
            },
        }
    }

    /// Compute `slot[q] = grid.link(owner(q), receiver)·encoding[q]` for
    /// each listed packet; other slots keep what they held.
    pub(crate) fn fill<'p, G: Links>(
        &mut self,
        grid: &G,
        schedule: &DecodeSchedule,
        receiver: usize,
        packets: impl IntoIterator<Item = &'p usize>,
        encoding: &[V],
    ) {
        for &q in packets {
            let link = grid.link(schedule.owners[q], receiver);
            V::image_into(link, &encoding[q], &mut self[q]);
        }
    }
}

/// One step's interference set: the packets neither cancelled nor decoded
/// there, ascending, as [`DecodeSchedule::interference_sets`] lists them.
/// Up to [`INLINE`] packets live on the stack.
pub(crate) struct Interferers {
    len: usize,
    inline: [usize; INLINE],
    heap: Vec<usize>,
}

impl Interferers {
    /// An empty list for schedules of `n` packets.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            len: 0,
            inline: [0; INLINE],
            heap: if n > INLINE { vec![0; n] } else { Vec::new() },
        }
    }

    /// Replace the list with the interference set of `step` among packets
    /// `0..n`.
    pub(crate) fn fill(&mut self, step: &DecodeStep, n: usize) {
        let buf: &mut [usize] = if self.heap.is_empty() {
            &mut self.inline
        } else {
            &mut self.heap
        };
        let mut len = 0;
        for p in (0..n).filter(|p| !step.cancel.contains(p) && !step.decode.contains(p)) {
            buf[len] = p;
            len += 1;
        }
        self.len = len;
    }
}

impl std::ops::Deref for Interferers {
    type Target = [usize];
    fn deref(&self) -> &[usize] {
        if self.heap.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.heap[..self.len]
        }
    }
}

impl<V> std::ops::Deref for Images<V> {
    type Target = [V];
    fn deref(&self) -> &[V] {
        if self.heap.is_empty() {
            &self.inline
        } else {
            &self.heap
        }
    }
}

impl<V> std::ops::DerefMut for Images<V> {
    fn deref_mut(&mut self) -> &mut [V] {
        if self.heap.is_empty() {
            &mut self.inline
        } else {
            &mut self.heap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::alignment_residual;
    use crate::grid::Direction;

    fn solve(
        dir: Direction,
        txs: usize,
        rxs: usize,
        m: usize,
        schedule: &DecodeSchedule,
        seed: u64,
    ) -> (ChannelGrid, AlignmentSolution) {
        let mut rng = Rng64::new(seed);
        let grid = ChannelGrid::random(dir, txs, rxs, m, m, &mut rng);
        let problem = AlignmentProblem {
            grid: &grid,
            schedule,
        };
        let sol = problem
            .solve(&SolverConfig::default(), &mut rng)
            .expect("solver must return");
        (grid, sol)
    }

    #[test]
    fn solver_reproduces_uplink4_alignment() {
        let schedule = DecodeSchedule::uplink_2m(2);
        let (grid, sol) = solve(Direction::Uplink, 3, 3, 2, &schedule, 1);
        assert!(sol.leakage < 1e-8, "leakage {}", sol.leakage);
        assert!(alignment_residual(&grid, &schedule, &sol.encoding) < 1e-3);
    }

    #[test]
    fn solver_handles_lemma52_m3() {
        // Fig. 8: six packets, three 3-antenna clients, three APs.
        let schedule = DecodeSchedule::uplink_2m(3);
        let (grid, sol) = solve(Direction::Uplink, 3, 3, 3, &schedule, 2);
        assert!(sol.leakage < 1e-8, "leakage {}", sol.leakage);
        assert!(alignment_residual(&grid, &schedule, &sol.encoding) < 1e-3);
    }

    #[test]
    fn solver_handles_downlink3() {
        let schedule = DecodeSchedule::downlink_3_packets();
        let (grid, sol) = solve(Direction::Downlink, 3, 3, 2, &schedule, 3);
        assert!(sol.leakage < 1e-8, "leakage {}", sol.leakage);
        assert!(alignment_residual(&grid, &schedule, &sol.encoding) < 1e-3);
    }

    #[test]
    fn solver_handles_downlink_2m_minus_2() {
        for m in 3..=4 {
            let schedule = DecodeSchedule::downlink_2m_minus_2(m);
            let (grid, sol) = solve(Direction::Downlink, m - 1, 2, m, &schedule, 40 + m as u64);
            assert!(sol.leakage < 1e-8, "m={m}: leakage {}", sol.leakage);
            assert!(alignment_residual(&grid, &schedule, &sol.encoding) < 1e-3);
        }
    }

    #[test]
    fn infeasible_schedule_has_leakage_floor() {
        // 4 packets / 2 clients / 2 APs at M=2 — the §4c impossibility. The
        // solver must NOT reach zero leakage.
        let schedule = DecodeSchedule {
            antennas: 2,
            owners: vec![0, 0, 1, 1],
            steps: vec![
                crate::schedule::DecodeStep {
                    receiver: 0,
                    decode: vec![0, 1],
                    cancel: vec![],
                },
                crate::schedule::DecodeStep {
                    receiver: 1,
                    decode: vec![2, 3],
                    cancel: vec![0, 1],
                },
            ],
        };
        schedule
            .validate()
            .expect("structurally fine, physically hard");
        let mut rng = Rng64::new(5);
        let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        let problem = AlignmentProblem {
            grid: &grid,
            schedule: &schedule,
        };
        let config = SolverConfig {
            max_iters: 300,
            tolerance: 1e-9,
            restarts: 2,
        };
        let sol = problem.solve(&config, &mut rng).unwrap();
        // AP0 must fit packets {2,3} into 0 remaining dimensions — leakage
        // cannot vanish.
        assert!(sol.leakage > 1e-3, "impossible alignment 'succeeded'");
    }

    #[test]
    fn solution_encodings_are_unit_norm() {
        let schedule = DecodeSchedule::uplink_2m(2);
        let (_, sol) = solve(Direction::Uplink, 3, 3, 2, &schedule, 6);
        for v in &sol.encoding {
            assert!((v.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn decoding_vectors_are_orthogonal_to_interference() {
        let schedule = DecodeSchedule::uplink_2m(2);
        let (grid, sol) = solve(Direction::Uplink, 3, 3, 2, &schedule, 7);
        let sets = schedule.interference_sets();
        for (step, &(receiver, ref interf, _)) in sets.iter().enumerate() {
            let us = decoding_vectors(&grid, &schedule, step, &sol.encoding).unwrap();
            for (ui, &p) in us.iter().zip(&schedule.steps[step].decode) {
                // Orthogonal to every interference image.
                for &q in interf {
                    let img = grid
                        .link(schedule.owners[q], receiver)
                        .mul_vec(&sol.encoding[q]);
                    let leak = ui.dot(&img).abs() / img.norm();
                    assert!(leak < 1e-3, "step {step}: leak {leak}");
                }
                // Captures its own packet.
                let own = grid
                    .link(schedule.owners[p], receiver)
                    .mul_vec(&sol.encoding[p]);
                assert!(ui.dot(&own).abs() > 1e-3, "step {step}: no signal");
            }
        }
    }

    #[test]
    fn solver_is_deterministic_given_seed() {
        let schedule = DecodeSchedule::uplink_2m(2);
        let run = |seed: u64| {
            let mut rng = Rng64::new(seed);
            let grid = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
            let p = AlignmentProblem {
                grid: &grid,
                schedule: &schedule,
            };
            p.solve(&SolverConfig::default(), &mut rng)
                .unwrap()
                .encoding
        };
        let a = run(99);
        let b = run(99);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).norm() < 1e-15);
        }
    }
}
