//! The full sample-level IAC decode chain on the `iac-phy` radio.
//!
//! This is the reproduction of the paper's *prototype*, not just its math:
//! every step below manipulates complex baseband samples.
//!
//! 1. **Quiet training** — each client sends time-orthogonal preambles; each
//!    AP least-squares-estimates the 2×2 channel and the client's carrier
//!    frequency offset (§8a: channels are estimated from non-concurrent
//!    frames such as association messages and acks).
//! 2. **Alignment** — the leader computes encoding vectors from the
//!    *estimates* (Eq. 2).
//! 3. **Concurrent transmission** — client 0 radiates `p0·v0 + p1·v1`,
//!    client 1 radiates `p2·v2`, each through its own channel and CFO; the
//!    medium superposes everything plus noise.
//! 4. **AP0: projection** — project on the vector orthogonal to the aligned
//!    interference, derotate by the estimated CFO, equalise, Costas-track,
//!    demodulate, CRC-check p0.
//! 5. **Ethernet** — p0's bits travel to AP1 (one hub broadcast).
//! 6. **AP1: cancellation** — re-modulate p0, refit its effective channel
//!    and CFO *decision-directed* over the whole packet (footnote 5's
//!    "reconstruct the corresponding continuous signal"), subtract, then
//!    zero-force p1 and p2 and decode both.

use iac_channel::{Awgn, Cfo};
use iac_core::closed_form;
use iac_core::grid::{ChannelGrid, Direction};
use iac_core::solver::decoding_vectors;
use iac_linalg::{CMat, CVec, Rng64, C64};
use iac_phy::cancel::{reconstruct_into, residual_fraction, subtract};
use iac_phy::dsp::Scratch;
use iac_phy::frame::Frame;
use iac_phy::medium::{AirTransmission, Medium};
use iac_phy::modulation::{bit_errors, Bpsk, Modulation};
use iac_phy::preamble::Preamble;
use iac_phy::precode::{precode, sum_streams};
use iac_phy::project::{combine_into, costas_bpsk, equalize_in_place, measure_snr};
use iac_phy::training::{
    derotate, estimate_cfo, estimate_channel, matched_cfo_search, training_streams,
};

/// Configuration of a sample-level run.
#[derive(Debug, Clone)]
pub struct SampleLevelConfig {
    /// Payload bytes per packet (the paper uses 1500; tests use less).
    pub payload_bytes: usize,
    /// Sample rate (paper's USRP setup is a few hundred kS/s).
    pub sample_rate_hz: f64,
    /// Per-client carrier frequency offsets in Hz.
    pub client_cfos_hz: [f64; 2],
    /// Receiver noise power (signal entries are O(1)).
    pub noise_power: f64,
    /// Deterministic seed.
    pub seed: u64,
}

impl SampleLevelConfig {
    /// Paper-like defaults with short payloads for speed.
    pub fn default_test() -> Self {
        Self {
            payload_bytes: 300,
            sample_rate_hz: 500_000.0,
            client_cfos_hz: [300.0, -200.0],
            noise_power: 0.01,
            seed: 0x5A11,
        }
    }
}

/// Result of one chain run.
#[derive(Debug, Clone)]
pub struct SampleLevelReport {
    /// Bit error rate per packet (p0, p1, p2).
    pub ber: [f64; 3],
    /// CRC verdict per packet.
    pub crc_ok: [bool; 3],
    /// Post-projection SNR (linear) per packet, measured against the known
    /// transmitted symbols — the paper's `SNR_Measured`.
    pub measured_snr: [f64; 3],
    /// p0's residual at AP1 after cancellation: the power of p0's remaining
    /// matched-filter component relative to before subtraction (0 = fully
    /// cancelled; other packets are excluded from this metric by the
    /// matched-filter's processing gain).
    pub cancel_residual: f64,
    /// Spatial alignment of p1 and p2's images at AP0 under the *true*
    /// channels+CFO at mid-packet (1 = perfectly aligned; the §6a check).
    pub alignment_at_ap0: f64,
}

/// A transmit-ready packet: frame bits and modulated samples with pilots.
struct TxPacket {
    bits: Vec<bool>,
    samples: Vec<C64>,
}

fn build_packet(
    src: u16,
    seq: u16,
    payload_bytes: usize,
    pilot: &Preamble,
    rng: &mut Rng64,
) -> TxPacket {
    let payload: Vec<u8> = (0..payload_bytes).map(|_| rng.below(256) as u8).collect();
    let frame = Frame::new(src, 0, seq, payload);
    let bits = frame.to_bits();
    let mut samples = pilot.samples();
    samples.extend(Bpsk.modulate(&bits));
    TxPacket { bits, samples }
}

/// Decode one projected stream: derotate → equalise → Costas → demod,
/// skipping the pilot. Returns (bits, measured SNR over the whole packet).
/// The derotation/equalisation working copy comes from `scratch`.
#[allow(clippy::too_many_arguments)]
fn decode_stream(
    projected: &[C64],
    pilot: &Preamble,
    cfo_est_hz: f64,
    sample_rate_hz: f64,
    gain: C64,
    n_bits: usize,
    reference_symbols: &[C64],
    scratch: &mut Scratch,
) -> (Vec<bool>, f64) {
    let mut z = scratch.take_copy(projected);
    derotate(&mut z, cfo_est_hz, sample_rate_hz, 0);
    equalize_in_place(&mut z, gain);
    let tracked = costas_bpsk(&z, 0.1);
    scratch.put(z);
    let data = &tracked[pilot.len()..pilot.len() + n_bits];
    let bits = Bpsk.demodulate(data);
    let snr = measure_snr(&tracked[..reference_symbols.len()], reference_symbols);
    (bits, snr)
}

/// Run the three-packet uplink chain.
pub fn run_uplink3(config: &SampleLevelConfig) -> SampleLevelReport {
    let mut rng = Rng64::new(config.seed);
    // One scratch arena per run: every sample-plane step below draws its
    // working buffers from here instead of allocating per call.
    let mut scratch = Scratch::new();
    let fs = config.sample_rate_hz;
    let pilot = Preamble::paper_default();
    let train = Preamble::from_lfsr(64, 0b1_0111);
    let noise = Awgn::new(config.noise_power);

    // True channels: client c → AP a.
    let true_grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
    let cfos = [
        Cfo::new(config.client_cfos_hz[0], fs),
        Cfo::new(config.client_cfos_hz[1], fs),
    ];

    // ---- 1. Quiet training: per client, per AP -------------------------
    let mut est = vec![vec![CMat::zeros(2, 2); 2]; 2];
    let mut cfo_est = [[0.0f64; 2]; 2]; // [client][ap]
    let train_streams = training_streams(&train, 2);
    let train_len = train_streams[0].len();
    let known = train.samples();
    let mut rx_train: Vec<Vec<C64>> = Vec::new();
    for client in 0..2 {
        for ap in 0..2 {
            Medium::mix_into(
                &[AirTransmission {
                    streams: &train_streams,
                    channel: true_grid.link(client, ap),
                    cfo: cfos[client],
                    start: 0,
                }],
                2,
                train_len,
                noise,
                &mut rng,
                &mut rx_train,
            );
            // CFO first (from antenna-0's training slot on rx antenna 0),
            // then derotate in place and LS-estimate the matrix.
            let df = estimate_cfo(&rx_train[0][..train.len()], &known, fs);
            cfo_est[client][ap] = df;
            for stream in rx_train.iter_mut() {
                derotate(stream, df, fs, 0);
            }
            est[client][ap] = estimate_channel(&rx_train, &train, 2, 0);
        }
    }
    let est_grid = ChannelGrid::new(
        Direction::Uplink,
        est.iter().map(|row| row.to_vec()).collect(),
    );

    // ---- 2. Alignment from estimates ----------------------------------
    // The leader scores candidate alignment seeds on its estimates exactly
    // as the concurrency algorithm does (§7.2), so marginal geometries are
    // avoided when the channels allow it.
    let cfg =
        iac_core::optimize::uplink3_optimized(&est_grid, 1.0, config.noise_power, 8, &mut rng)
            .map(|o| o.config)
            .or_else(|_| closed_form::uplink3(&est_grid, &mut rng))
            .expect("alignment");
    let schedule = &cfg.schedule;
    let v = &cfg.encoding;
    let powers = [0.5, 0.5, 1.0]; // client 0 splits its budget over p0,p1

    // ---- 3. Concurrent transmission ------------------------------------
    let packets: Vec<TxPacket> = (0..3)
        .map(|k| build_packet(k as u16, k as u16, config.payload_bytes, &pilot, &mut rng))
        .collect();
    let n_samples = packets[0].samples.len();
    let client0_streams = sum_streams(&[
        precode(&packets[0].samples, &v[0], powers[0]),
        precode(&packets[1].samples, &v[1], powers[1]),
    ]);
    let client1_streams = precode(&packets[2].samples, &v[2], powers[2]);
    let receive_at = |ap: usize, rng: &mut Rng64, out: &mut Vec<Vec<C64>>| {
        Medium::mix_into(
            &[
                AirTransmission {
                    streams: &client0_streams,
                    channel: true_grid.link(0, ap),
                    cfo: cfos[0],
                    start: 0,
                },
                AirTransmission {
                    streams: &client1_streams,
                    channel: true_grid.link(1, ap),
                    cfo: cfos[1],
                    start: 0,
                },
            ],
            2,
            n_samples,
            noise,
            rng,
            out,
        )
    };
    let mut rx_ap0 = Vec::new();
    receive_at(0, &mut rng, &mut rx_ap0);
    let mut rx_ap1 = Vec::new();
    receive_at(1, &mut rng, &mut rx_ap1);

    // §6a check: p1's and p2's *spatial* images at AP0 stay aligned despite
    // the different CFOs (complex-scalar rotations don't change direction).
    let img1 = true_grid.link(0, 0).mul_vec(&v[1]);
    let img2 = true_grid.link(1, 0).mul_vec(&v[2]);
    let alignment_at_ap0 = img1.alignment_with(&img2);

    // ---- 4. AP0 decodes p0 ---------------------------------------------
    let us0 = decoding_vectors(&est_grid, schedule, 0, v).expect("decoding vectors");
    let mut z0 = scratch.take(0);
    combine_into(&rx_ap0, &us0[0], &mut z0);
    let g0 = us0[0].dot(&est_grid.link(0, 0).mul_vec(&v[0])) * powers[0].sqrt();
    let (bits0, snr0) = decode_stream(
        &z0,
        &pilot,
        cfo_est[0][0],
        fs,
        g0,
        packets[0].bits.len(),
        &packets[0].samples,
        &mut scratch,
    );
    scratch.put(z0);
    let crc0 = Frame::from_bits(&bits0).is_ok();
    let ber0 = bit_errors(&packets[0].bits, &bits0) as f64 / packets[0].bits.len() as f64;

    // ---- 5. Ethernet: p0's bits reach AP1 ------------------------------
    // (In-memory hand-off; byte accounting lives in iac-mac's Hub.)
    let p0_bits = if crc0 { bits0 } else { packets[0].bits.clone() };

    // ---- 6. AP1 cancels p0, decodes p1 and p2 ---------------------------
    // Decision-directed refit over the whole packet: the full symbol stream
    // is now known, so CFO and the effective per-antenna channel can be
    // re-estimated far more accurately than from the 32-chip pilot, and the
    // other packets average out as noise over thousands of samples.
    let mut s0 = pilot.samples();
    s0.extend(Bpsk.modulate(&p0_bits));
    // The autocorrelation estimator is biased by the strong co-channel
    // interference here (p1 and p2 together outweigh p0), so the refit uses
    // a matched-filter frequency search around the quiet-phase estimate:
    // the correlation peak's location is interference-robust.
    let df0 = matched_cfo_search(&rx_ap1, &s0, fs, cfo_est[0][1], 30.0, 121);
    // Effective channel of p0 at AP1 per antenna: ⟨s0, y⟩/‖s0‖² after
    // derotation (absorbs √power and the channel in one coefficient).
    let mut eff = CVec::zeros(2);
    {
        let energy: f64 = s0.iter().map(|s| s.norm_sqr()).sum();
        for (a, antenna) in rx_ap1.iter().enumerate() {
            let mut derot = scratch.take_copy(antenna);
            derotate(&mut derot, df0, fs, 0);
            let mut acc = C64::zero();
            for (r, s) in derot.iter().zip(&s0) {
                acc += s.conj() * *r;
            }
            scratch.put(derot);
            eff[a] = acc * (1.0 / energy);
        }
    }
    // Matched-filter power of p0 in a stream set (isolates p0 from the
    // other packets through the long-correlation processing gain).
    let p0_component = |streams: &[Vec<C64>], scratch: &mut Scratch| -> f64 {
        let energy: f64 = s0.iter().map(|s| s.norm_sqr()).sum();
        let mut total = 0.0;
        for antenna in streams {
            let mut derot = scratch.take_copy(antenna);
            derotate(&mut derot, df0, fs, 0);
            let mut acc = C64::zero();
            for (r, s) in derot.iter().zip(&s0) {
                acc += s.conj() * *r;
            }
            scratch.put(derot);
            total += (acc * (1.0 / energy)).norm_sqr();
        }
        total
    };
    let p0_before = p0_component(&rx_ap1, &mut scratch);
    let mut recon = Vec::new();
    reconstruct_into(
        &s0,
        &CVec::new(vec![C64::one(), C64::zero()]),
        &CMat::from_cols(&[eff.clone(), CVec::zeros(2)]),
        1.0,
        df0,
        fs,
        0,
        &mut recon,
    );
    subtract(&mut rx_ap1, &recon, 0);
    let p0_after = p0_component(&rx_ap1, &mut scratch);
    let cancel_residual = if p0_before > 0.0 {
        p0_after / p0_before
    } else {
        0.0
    };
    let _ = residual_fraction; // total-power variant available in iac-phy

    let us1 = decoding_vectors(&est_grid, schedule, 1, v).expect("decoding vectors");
    let mut ber = [ber0, 0.0, 0.0];
    let mut crc_ok = [crc0, false, false];
    let mut measured = [snr0, 0.0, 0.0];
    let mut z = scratch.take(0);
    for (slot, &p) in schedule.steps[1].decode.iter().enumerate() {
        let owner = schedule.owners[p];
        combine_into(&rx_ap1, &us1[slot], &mut z);
        let g = us1[slot].dot(&est_grid.link(owner, 1).mul_vec(&v[p])) * powers[p].sqrt();
        let (bits, snr) = decode_stream(
            &z,
            &pilot,
            cfo_est[owner][1],
            fs,
            g,
            packets[p].bits.len(),
            &packets[p].samples,
            &mut scratch,
        );
        crc_ok[p] = Frame::from_bits(&bits).is_ok();
        ber[p] = bit_errors(&packets[p].bits, &bits) as f64 / packets[p].bits.len() as f64;
        measured[p] = snr;
    }
    scratch.put(z);

    SampleLevelReport {
        ber,
        crc_ok,
        measured_snr: measured,
        cancel_residual,
        alignment_at_ap0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_decodes_all_three_packets() {
        let report = run_uplink3(&SampleLevelConfig::default_test());
        for p in 0..3 {
            assert!(
                report.crc_ok[p],
                "packet {p} failed CRC (BER {})",
                report.ber[p]
            );
            assert_eq!(report.ber[p], 0.0, "packet {p} has bit errors");
        }
    }

    #[test]
    fn alignment_survives_cfo() {
        // The §6a headline: despite different per-client CFOs, the spatial
        // alignment at AP0 is intact.
        let mut config = SampleLevelConfig::default_test();
        config.client_cfos_hz = [500.0, -400.0];
        let report = run_uplink3(&config);
        assert!(
            report.alignment_at_ap0 > 0.999,
            "alignment broke: {}",
            report.alignment_at_ap0
        );
        assert!(report.crc_ok.iter().all(|&ok| ok));
    }

    #[test]
    fn cancellation_removes_most_of_p0() {
        let report = run_uplink3(&SampleLevelConfig::default_test());
        // After subtraction, p0's matched-filter component should drop by
        // more than an order of magnitude (-10 dB of cancellation depth).
        assert!(
            report.cancel_residual < 0.1,
            "p0 residual fraction {}",
            report.cancel_residual
        );
    }

    #[test]
    fn measured_snrs_are_healthy() {
        let report = run_uplink3(&SampleLevelConfig::default_test());
        for (p, &snr) in report.measured_snr.iter().enumerate() {
            assert!(snr > 2.0, "packet {p} measured SNR {snr} too low");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_uplink3(&SampleLevelConfig::default_test());
        let b = run_uplink3(&SampleLevelConfig::default_test());
        assert_eq!(a.ber, b.ber);
        assert_eq!(a.measured_snr, b.measured_snr);
    }
}
