//! The IAC cross-AP decode chain at the matrix level.
//!
//! This is the heart of the reproduction's experiments: given true channels,
//! the (imperfect) estimates the leader AP actually holds, the encoding
//! vectors computed from those estimates, and a decode schedule, produce the
//! post-processing SINR of every packet. The model follows §4 and §6:
//!
//! * **Projection** — each AP projects on decoding vectors computed from the
//!   *estimated* channels; the *true* channel decides how much interference
//!   actually leaks through ("slight inaccuracy in estimating the channel
//!   only means that the interference is not fully eliminated", §8a).
//! * **Cancellation** — a cancelled packet is reconstructed through the
//!   estimated channel and subtracted; the residual is the packet passed
//!   through the estimation *error* `(H − Ĥ)·v` (§6, footnote 5).
//! * **Noise** — AWGN of configurable power at every receive antenna.

use crate::grid::{ChannelGrid, Links};
use crate::rate::sum_rates;
use crate::schedule::DecodeSchedule;
use crate::solver::{step_vectors, AntennaVector, Images, Interferers, INLINE};
use iac_linalg::{CVec, LinAlgError, Result, C64};

/// Post-processing SINR of one decoded packet.
#[derive(Debug, Clone, Copy)]
pub struct PacketSinr {
    /// Packet index.
    pub packet: usize,
    /// Receiver (AP / client) that decoded it.
    pub receiver: usize,
    /// Linear post-processing SINR.
    pub sinr: f64,
}

/// The result of running the chain once.
#[derive(Debug, Clone)]
pub struct DecodeOutcome {
    /// One entry per packet, in schedule order.
    pub sinrs: Vec<PacketSinr>,
}

impl DecodeOutcome {
    /// Eq. 9 achievable rate over all concurrent packets.
    pub fn rate_bits_per_hz(&self) -> f64 {
        crate::rate::sum_rates(self.sinrs.iter().map(|p| p.sinr))
    }

    /// SINR of a specific packet.
    pub fn sinr_of(&self, packet: usize) -> Option<f64> {
        self.sinrs
            .iter()
            .find(|p| p.packet == packet)
            .map(|p| p.sinr)
    }

    /// Worst packet SINR (the chain is only as strong as its first link:
    /// a failed early decode poisons cancellation downstream).
    pub fn min_sinr(&self) -> f64 {
        self.sinrs
            .iter()
            .map(|p| p.sinr)
            .fold(f64::INFINITY, f64::min)
    }
}

/// Equal power split: each transmitter spends `per_node_power` total,
/// divided evenly across the packets it sends concurrently. A client
/// sending one packet puts its whole budget (both antennas) behind it —
/// the source of IAC's diversity gain in §10.1.
pub fn equal_split_powers(schedule: &DecodeSchedule, per_node_power: f64) -> Vec<f64> {
    let owners = &schedule.owners;
    owners
        .iter()
        .map(|&o| per_node_power / owners.iter().filter(|&&x| x == o).count() as f64)
        .collect()
}

/// The matrix-level IAC decoder, over a whole [`ChannelGrid`] or any other
/// [`Links`].
#[derive(Debug)]
pub struct IacDecoder<'a, G: Links = ChannelGrid> {
    /// What the air actually does.
    pub true_grid: &'a G,
    /// What the leader AP thinks the channels are (vectors and cancellation
    /// both use this).
    pub est_grid: &'a G,
    /// The decode schedule.
    pub schedule: &'a DecodeSchedule,
    /// Unit-norm encoding vectors (computed from `est_grid`).
    pub encoding: &'a [CVec],
    /// Per-packet transmit power.
    pub packet_power: Vec<f64>,
    /// Complex noise power per receive antenna.
    pub noise_power: f64,
}

impl<G: Links> IacDecoder<'_, G> {
    /// Run the chain and report every packet's post-processing SINR.
    ///
    /// Each step computes every image `H(owner(q), receiver)·v_q` it needs
    /// once and shares it between the decoding vectors, the signal and the
    /// interference terms. When both grids are the same object (the leader
    /// scoring on its own estimates), `H − Ĥ` is exactly zero and each
    /// cancellation residual would add an exact `+0.0` to a positive
    /// denominator, so those terms are skipped. That is exact for finite
    /// channels and encodings; with an infinite entry `H − Ĥ` would be NaN.
    ///
    /// When every link is 2×2, every encoding has two entries and there
    /// are at most eight packets, the images, covariances and decoding
    /// vectors are `[C64; 2]`/`[C64; 4]` arrays on the stack; otherwise
    /// they are [`CVec`]s. Both compute the same bits. A NaN SINR (from a
    /// NaN or infinite channel) is [`LinAlgError::Degenerate`].
    pub fn decode(&self) -> Result<DecodeOutcome> {
        Chain {
            true_grid: self.true_grid,
            est_grid: self.est_grid,
            one_grid: std::ptr::eq(self.true_grid, self.est_grid),
            schedule: self.schedule,
            packet_power: &self.packet_power,
            noise_power: self.noise_power,
        }
        .decode(self.encoding)
    }
}

/// [`IacDecoder`] with its grids read through `dyn Links`, so the step
/// loop is compiled once per vector representation, not once per grid
/// type as well. `one_grid` says the two grids are one object.
pub(crate) struct Chain<'a> {
    pub(crate) true_grid: &'a dyn Links,
    pub(crate) est_grid: &'a dyn Links,
    pub(crate) one_grid: bool,
    pub(crate) schedule: &'a DecodeSchedule,
    pub(crate) packet_power: &'a [f64],
    pub(crate) noise_power: f64,
}

impl Chain<'_> {
    /// [`IacDecoder::decode`] of `encoding`.
    fn decode(&self, encoding: &[CVec]) -> Result<DecodeOutcome> {
        let mut sinrs = Vec::with_capacity(self.schedule.n_packets());
        self.for_each_sinr(encoding, &mut |p| sinrs.push(p))?;
        Ok(DecodeOutcome { sinrs })
    }

    /// [`DecodeOutcome::rate_bits_per_hz`] of [`Chain::decode`], bit for
    /// bit, with the SINRs summed from a stack buffer: a two-antenna
    /// decode of at most eight packets does not touch the heap.
    pub(crate) fn rate(&self, encoding: &[CVec]) -> Result<f64> {
        let decoded: usize = self.schedule.steps.iter().map(|s| s.decode.len()).sum();
        if decoded > INLINE {
            return self.decode(encoding).map(|o| o.rate_bits_per_hz());
        }
        let mut sinrs = [0.0; INLINE];
        let mut len = 0;
        self.for_each_sinr(encoding, &mut |p| {
            sinrs[len] = p.sinr;
            len += 1;
        })?;
        Ok(sum_rates(sinrs[..len].iter().copied()))
    }

    /// Hand each packet's SINR to `sink`, in schedule order.
    fn for_each_sinr(&self, encoding: &[CVec], sink: &mut dyn FnMut(PacketSinr)) -> Result<()> {
        let n = self.schedule.n_packets();
        assert_eq!(encoding.len(), n);
        assert_eq!(self.packet_power.len(), n);
        if self.is_two_antenna(encoding) {
            let mut inline = [[C64::zero(); 2]; INLINE];
            for (e, v) in inline.iter_mut().zip(encoding) {
                *e = [v[0], v[1]];
            }
            self.run(&inline[..n], sink)
        } else {
            self.run(encoding, sink)
        }
    }

    /// Whether the decode can hold its vectors as `[C64; 2]`: two antennas,
    /// at most [`INLINE`] packets, two-entry encodings, and 2×2 links in
    /// both grids.
    fn is_two_antenna(&self, encoding: &[CVec]) -> bool {
        self.schedule.antennas == 2
            && self.schedule.n_packets() <= INLINE
            && encoding.iter().all(|v| v.len() == 2)
            && self.est_grid.link_shape() == (2, 2)
            && self.true_grid.link_shape() == (2, 2)
    }

    /// The step loop, on images and decoding vectors of type `V`. Kept out
    /// of line: `decode` and `rate` share one copy per representation.
    #[inline(never)]
    fn run<V: AntennaVector>(
        &self,
        encoding: &[V],
        sink: &mut dyn FnMut(PacketSinr),
    ) -> Result<()> {
        let one_grid = self.one_grid;
        let n = self.schedule.n_packets();
        let most_decoded = self.schedule.steps.iter().map(|s| s.decode.len()).max();
        let mut interferers = Interferers::new(n);
        let mut est = Images::<V>::new(n);
        let mut truth = Images::<V>::new(if one_grid { 0 } else { n });
        let mut residual = Images::<V>::new(if one_grid { 0 } else { n });
        let mut us = Images::<V>::new(most_decoded.unwrap_or(0));
        for step in &self.schedule.steps {
            let receiver = step.receiver;
            interferers.fill(step, n);
            let interf: &[usize] = &interferers;
            let seen = || interf.iter().chain(&step.decode);
            // Decoding vectors are computed from the ESTIMATED grid: this is
            // all the receiver knows.
            est.fill(self.est_grid, self.schedule, receiver, seen(), encoding);
            let us = &mut us[..step.decode.len()];
            step_vectors(step, interf, &est, us)?;
            if !one_grid {
                truth.fill(self.true_grid, self.schedule, receiver, seen(), encoding);
                // Cancellation residuals: subtracted via the estimate, so
                // what remains is the packet through (H − Ĥ).
                for &c in &step.cancel {
                    let owner = self.schedule.owners[c];
                    V::residual_into(
                        self.true_grid.link(owner, receiver),
                        self.est_grid.link(owner, receiver),
                        &encoding[c],
                        &mut residual[c],
                    );
                }
            }
            let through_air: &[V] = if one_grid { &est } else { &truth };
            for (u, &p) in us.iter().zip(&step.decode) {
                let power = |q: usize, img: &V| self.packet_power[q] * u.dot(img).norm_sqr();
                let mut num = 0.0;
                let mut den = self.noise_power; // ‖u‖ = 1
                                                // Signal through the true channel.
                num += power(p, &through_air[p]);
                // Residual aligned interference (true channel ≠ estimate).
                for &q in interf {
                    den += power(q, &through_air[q]);
                }
                // Cross-talk from co-decoded packets of this step.
                for &q in step.decode.iter().filter(|&&q| q != p) {
                    den += power(q, &through_air[q]);
                }
                if !one_grid {
                    for &c in &step.cancel {
                        den += power(c, &residual[c]);
                    }
                }
                let sinr = num / den;
                if sinr.is_nan() {
                    return Err(LinAlgError::Degenerate("NaN SINR"));
                }
                sink(PacketSinr {
                    packet: p,
                    receiver,
                    sinr,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form;
    use crate::grid::Direction;
    use iac_channel::estimation::EstimationConfig;
    use iac_linalg::Rng64;

    /// Uplink-3 fixture: (true grid, est grid, config) with paper-default
    /// estimation error.
    fn uplink3_fixture(
        seed: u64,
        est: EstimationConfig,
    ) -> (ChannelGrid, ChannelGrid, closed_form::AlignedConfig) {
        let mut rng = Rng64::new(seed);
        let true_grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
        let est_grid = true_grid.estimated(&est, &mut rng);
        let cfg = closed_form::uplink3(&est_grid, &mut rng).unwrap();
        (true_grid, est_grid, cfg)
    }

    #[test]
    fn perfect_csi_decodes_all_three_packets_cleanly() {
        let (true_grid, est_grid, cfg) = uplink3_fixture(1, EstimationConfig::perfect());
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        let dec = IacDecoder {
            true_grid: &true_grid,
            est_grid: &est_grid,
            schedule: &cfg.schedule,
            encoding: &cfg.encoding,
            packet_power: powers,
            noise_power: 0.01,
        };
        let out = dec.decode().unwrap();
        assert_eq!(out.sinrs.len(), 3);
        // With perfect CSI, alignment + cancellation are exact: every packet
        // is interference-free, so SINR ≈ signal/noise ≫ 1.
        for p in &out.sinrs {
            assert!(p.sinr > 1.0, "packet {} SINR {}", p.packet, p.sinr);
        }
    }

    #[test]
    fn estimation_error_reduces_sinr() {
        let mut perfect = 0.0;
        let mut noisy = 0.0;
        for seed in 0..30 {
            let (tg, eg, cfg) = uplink3_fixture(seed, EstimationConfig::perfect());
            let powers = equal_split_powers(&cfg.schedule, 1.0);
            let out = IacDecoder {
                true_grid: &tg,
                est_grid: &eg,
                schedule: &cfg.schedule,
                encoding: &cfg.encoding,
                packet_power: powers,
                noise_power: 0.01,
            }
            .decode()
            .unwrap();
            perfect += out.rate_bits_per_hz();

            let (tg2, eg2, cfg2) = uplink3_fixture(
                seed,
                EstimationConfig {
                    estimation_snr_db: 15.0,
                    training_len: 8,
                },
            );
            let powers2 = equal_split_powers(&cfg2.schedule, 1.0);
            let out2 = IacDecoder {
                true_grid: &tg2,
                est_grid: &eg2,
                schedule: &cfg2.schedule,
                encoding: &cfg2.encoding,
                packet_power: powers2,
                noise_power: 0.01,
            }
            .decode()
            .unwrap();
            noisy += out2.rate_bits_per_hz();
        }
        assert!(noisy < perfect, "noisy {noisy} >= perfect {perfect}");
        // But it must degrade gracefully, not collapse (§8a).
        assert!(noisy > perfect * 0.4, "collapsed: {noisy} vs {perfect}");
    }

    #[test]
    fn power_split_follows_ownership() {
        let schedule = crate::schedule::DecodeSchedule::uplink_2m(2);
        let powers = equal_split_powers(&schedule, 1.0);
        // Client 0 owns packets 0,1 → 0.5 each; clients 1,2 send one packet
        // each at full power.
        assert_eq!(powers, vec![0.5, 0.5, 1.0, 1.0]);
    }

    #[test]
    fn uplink4_decodes_four_packets() {
        let mut rng = Rng64::new(9);
        let tg = ChannelGrid::random(Direction::Uplink, 3, 3, 2, 2, &mut rng);
        let cfg = closed_form::uplink4(&tg, &mut rng).unwrap();
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        let out = IacDecoder {
            true_grid: &tg,
            est_grid: &tg,
            schedule: &cfg.schedule,
            encoding: &cfg.encoding,
            packet_power: powers,
            noise_power: 0.01,
        }
        .decode()
        .unwrap();
        assert_eq!(out.sinrs.len(), 4);
        // Four packets from 2-antenna nodes: beyond the antennas-per-AP
        // limit. All must come through with healthy SINR.
        for p in &out.sinrs {
            assert!(p.sinr > 1.0, "packet {} SINR {}", p.packet, p.sinr);
        }
    }

    #[test]
    fn downlink3_all_clients_decode() {
        let mut rng = Rng64::new(10);
        let tg = ChannelGrid::random(Direction::Downlink, 3, 3, 2, 2, &mut rng);
        let cfg = closed_form::downlink3(&tg).unwrap();
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        let out = IacDecoder {
            true_grid: &tg,
            est_grid: &tg,
            schedule: &cfg.schedule,
            encoding: &cfg.encoding,
            packet_power: powers,
            noise_power: 0.01,
        }
        .decode()
        .unwrap();
        assert_eq!(out.sinrs.len(), 3);
        for p in &out.sinrs {
            assert!(p.sinr > 1.0, "client {} SINR {}", p.receiver, p.sinr);
        }
    }

    #[test]
    fn without_alignment_three_packets_jam() {
        // The Fig. 4a contrast: random (unaligned) encoding vectors leave
        // every AP with 3 unknowns in 2 dimensions — SINRs stay near or
        // below 1 (interference-limited), and the rate collapses relative
        // to the aligned configuration.
        let mut clean_acc = 0.0;
        let mut jammed_acc = 0.0;
        for seed in 0..40 {
            let mut rng = Rng64::new(1000 + seed);
            let tg = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
            let aligned = closed_form::uplink3(&tg, &mut rng).unwrap();
            let powers = equal_split_powers(&aligned.schedule, 1.0);

            let random_encoding: Vec<CVec> =
                (0..3).map(|_| CVec::random_unit(2, &mut rng)).collect();
            let jammed = IacDecoder {
                true_grid: &tg,
                est_grid: &tg,
                schedule: &aligned.schedule,
                encoding: &random_encoding,
                packet_power: powers.clone(),
                noise_power: 0.01,
            }
            .decode()
            .unwrap();
            let clean = IacDecoder {
                true_grid: &tg,
                est_grid: &tg,
                schedule: &aligned.schedule,
                encoding: &aligned.encoding,
                packet_power: powers,
                noise_power: 0.01,
            }
            .decode()
            .unwrap();
            // Packet 0 is the one whose decoding depends on alignment at AP0:
            // without alignment the two interferers fill the plane and leave
            // no interference-free projection.
            jammed_acc += jammed.sinr_of(0).unwrap();
            clean_acc += clean.sinr_of(0).unwrap();
        }
        assert!(
            clean_acc > 5.0 * jammed_acc,
            "alignment should matter: clean {clean_acc}, jammed {jammed_acc}"
        );
    }

    #[test]
    fn noise_floor_bounds_sinr() {
        let (tg, eg, cfg) = uplink3_fixture(12, EstimationConfig::perfect());
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        for &noise in &[0.1, 0.01, 0.001] {
            let out = IacDecoder {
                true_grid: &tg,
                est_grid: &eg,
                schedule: &cfg.schedule,
                encoding: &cfg.encoding,
                packet_power: powers.clone(),
                noise_power: noise,
            }
            .decode()
            .unwrap();
            // SINR can't exceed signal/noise with unit-power channels; use a
            // generous envelope to catch unit mistakes (e.g. noise dropped).
            for p in &out.sinrs {
                assert!(
                    p.sinr < 100.0 / noise,
                    "noise {noise}: SINR {} implausible",
                    p.sinr
                );
            }
        }
    }

    #[test]
    fn min_sinr_and_lookup_helpers() {
        let (tg, eg, cfg) = uplink3_fixture(13, EstimationConfig::perfect());
        let powers = equal_split_powers(&cfg.schedule, 1.0);
        let out = IacDecoder {
            true_grid: &tg,
            est_grid: &eg,
            schedule: &cfg.schedule,
            encoding: &cfg.encoding,
            packet_power: powers,
            noise_power: 0.01,
        }
        .decode()
        .unwrap();
        assert!(out.sinr_of(0).is_some());
        assert!(out.sinr_of(99).is_none());
        assert!(out.min_sinr() <= out.sinrs[0].sinr);
    }
}
