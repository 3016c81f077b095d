//! The wireless medium: one collision domain, sample by sample.
//!
//! Every concurrent transmission passes through its own flat-fading MIMO
//! channel and its own carrier frequency offset (each radio's oscillator
//! differs), then everything superposes at each receive antenna along with
//! thermal noise. This is the exact signal model of §4 and §6:
//!
//! ```text
//! y_a(t) = Σ_tx Σ_b H_tx[a][b]·x_tx,b(t)·e^{j2πΔf_tx·t/fs} + n_a(t)
//! ```

use crate::dsp::fill_phasors;
use crate::fft::with_thread_scratch;
use iac_channel::{Awgn, Cfo};
use iac_linalg::{CMat, Rng64, C64};

/// One transmitter's contribution to the air, as seen by one receiver.
#[derive(Debug)]
pub struct AirTransmission<'a> {
    /// Per-antenna sample streams (all the same length).
    pub streams: &'a [Vec<C64>],
    /// Flat-fading channel from this transmitter to the receiver
    /// (`rx_antennas × tx_antennas`).
    pub channel: &'a CMat,
    /// This transmitter↔receiver pair's carrier frequency offset.
    pub cfo: Cfo,
    /// Sample offset at which this transmission starts on the air.
    pub start: usize,
}

/// The medium itself: a mixer for concurrent transmissions.
#[derive(Debug, Clone, Copy, Default)]
pub struct Medium;

impl Medium {
    /// Mix all transmissions at a receiver with `rx_antennas` antennas into
    /// `n_samples` received samples per antenna. `out` is reshaped to
    /// `rx_antennas` streams of `n_samples` zeroed entries (reusing buffer
    /// capacity) before the transmissions and noise are accumulated. Zero
    /// allocations once warm.
    ///
    /// Per transmission the CFO phasor sequence is computed once into a
    /// pooled buffer. Then, for each rx antenna, the channel row is applied
    /// stream by stream (`b` ascending) into one pooled accumulator, and the
    /// last stream's term is added in the same pass that rotates the
    /// accumulator onto the air buffer. Per output sample that is the same
    /// operation sequence as a sample-major loop, so the result is
    /// bit-identical to it, but every inner loop is one sequential pass.
    pub fn mix_into(
        transmissions: &[AirTransmission<'_>],
        rx_antennas: usize,
        n_samples: usize,
        noise: Awgn,
        rng: &mut Rng64,
        out: &mut Vec<Vec<C64>>,
    ) {
        crate::dsp::shape_streams(out, rx_antennas);
        for stream in out.iter_mut() {
            stream.clear();
            stream.resize(n_samples, C64::zero());
        }
        for tx in transmissions {
            let tx_antennas = tx.streams.len();
            assert_eq!(
                tx.channel.shape(),
                (rx_antennas, tx_antennas),
                "channel shape does not match antenna counts"
            );
            let len = tx.streams.first().map(|s| s.len()).unwrap_or(0);
            assert!(
                tx.streams.iter().all(|s| s.len() == len),
                "ragged transmit streams"
            );
            // Samples past the receive window contribute nothing (the old
            // loop `break`ed at the window edge).
            let len = len.min(n_samples.saturating_sub(tx.start));
            if len == 0 {
                continue;
            }
            let (mut rot, mut acc) = with_thread_scratch(|s| (s.take(len), s.take(len)));
            let step = C64::cis(std::f64::consts::TAU * tx.cfo.delta_f_hz / tx.cfo.sample_rate_hz);
            fill_phasors(&mut rot, tx.cfo.phasor_at(tx.start), step);
            // `len > 0`, so there is at least one transmit stream.
            let (last, rest) = tx.streams.split_last().expect("non-empty transmission");
            for (a, out_stream) in out.iter_mut().enumerate() {
                acc.fill(C64::zero());
                for (b, stream) in rest.iter().enumerate() {
                    let h = tx.channel[(a, b)];
                    for (x, &s) in acc.iter_mut().zip(stream) {
                        *x = h.mul_add(s, *x);
                    }
                }
                let h = tx.channel[(a, rest.len())];
                let window = &mut out_stream[tx.start..tx.start + len];
                for (((o, &x), &s), &r) in window.iter_mut().zip(&acc).zip(last).zip(&rot) {
                    *o += h.mul_add(s, x) * r;
                }
            }
            with_thread_scratch(|s| {
                s.put(rot);
                s.put(acc);
            });
        }
        for stream in out.iter_mut() {
            noise.add_to(stream, rng);
        }
    }
}

/// Test shorthand: [`Medium::mix_into`] into a fresh stream set.
#[cfg(test)]
pub(crate) fn mix(
    transmissions: &[AirTransmission<'_>],
    rx_antennas: usize,
    n_samples: usize,
    noise: Awgn,
    rng: &mut Rng64,
) -> Vec<Vec<C64>> {
    let mut out = Vec::new();
    Medium::mix_into(transmissions, rx_antennas, n_samples, noise, rng, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::CVec;

    fn no_noise() -> Awgn {
        Awgn::new(0.0)
    }

    #[test]
    fn single_tx_applies_channel() {
        let mut rng = Rng64::new(1);
        let h = CMat::random(2, 2, &mut rng);
        let streams = vec![vec![C64::one()], vec![C64::real(2.0)]];
        let cfo = Cfo::new(0.0, 1e6);
        let rx = mix(
            &[AirTransmission {
                streams: &streams,
                channel: &h,
                cfo,
                start: 0,
            }],
            2,
            1,
            no_noise(),
            &mut rng,
        );
        let x = CVec::new(vec![C64::one(), C64::real(2.0)]);
        let expect = h.mul_vec(&x);
        for a in 0..2 {
            assert!((rx[a][0] - expect[a]).abs() < 1e-12);
        }
    }

    #[test]
    fn superposition_of_two_transmitters() {
        let mut rng = Rng64::new(2);
        let h1 = CMat::random(2, 2, &mut rng);
        let h2 = CMat::random(2, 2, &mut rng);
        let s1 = vec![vec![C64::one(); 4], vec![C64::zero(); 4]];
        let s2 = vec![vec![C64::zero(); 4], vec![C64::real(-1.0); 4]];
        let cfo = Cfo::new(0.0, 1e6);
        let both = mix(
            &[
                AirTransmission {
                    streams: &s1,
                    channel: &h1,
                    cfo,
                    start: 0,
                },
                AirTransmission {
                    streams: &s2,
                    channel: &h2,
                    cfo,
                    start: 0,
                },
            ],
            2,
            4,
            no_noise(),
            &mut rng,
        );
        let only1 = mix(
            &[AirTransmission {
                streams: &s1,
                channel: &h1,
                cfo,
                start: 0,
            }],
            2,
            4,
            no_noise(),
            &mut rng,
        );
        let only2 = mix(
            &[AirTransmission {
                streams: &s2,
                channel: &h2,
                cfo,
                start: 0,
            }],
            2,
            4,
            no_noise(),
            &mut rng,
        );
        for a in 0..2 {
            for t in 0..4 {
                let sum = only1[a][t] + only2[a][t];
                assert!((both[a][t] - sum).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cfo_rotates_received_signal() {
        let mut rng = Rng64::new(3);
        let h = CMat::identity(1);
        let streams = vec![vec![C64::one(); 100]];
        let cfo = Cfo::new(1000.0, 100_000.0); // fast rotation
        let rx = mix(
            &[AirTransmission {
                streams: &streams,
                channel: &h,
                cfo,
                start: 0,
            }],
            1,
            100,
            no_noise(),
            &mut rng,
        );
        // Sample t should equal e^{j2πΔf·t/fs}.
        for t in [0usize, 25, 50, 99] {
            let expect = cfo.phasor_at(t);
            assert!((rx[0][t] - expect).abs() < 1e-9, "t={t}");
        }
    }

    #[test]
    fn start_offset_places_signal() {
        let mut rng = Rng64::new(4);
        let h = CMat::identity(1);
        let streams = vec![vec![C64::one(); 3]];
        let rx = mix(
            &[AirTransmission {
                streams: &streams,
                channel: &h,
                cfo: Cfo::new(0.0, 1e6),
                start: 5,
            }],
            1,
            10,
            no_noise(),
            &mut rng,
        );
        for (t, &sample) in rx[0].iter().enumerate() {
            let expect = if (5..8).contains(&t) {
                C64::one()
            } else {
                C64::zero()
            };
            assert_eq!(sample, expect, "t={t}");
        }
    }

    #[test]
    fn transmission_truncated_at_window_end() {
        let mut rng = Rng64::new(5);
        let h = CMat::identity(1);
        let streams = vec![vec![C64::one(); 100]];
        let rx = mix(
            &[AirTransmission {
                streams: &streams,
                channel: &h,
                cfo: Cfo::new(0.0, 1e6),
                start: 0,
            }],
            1,
            10,
            no_noise(),
            &mut rng,
        );
        assert_eq!(rx[0].len(), 10);
    }

    #[test]
    fn noise_power_is_injected() {
        let mut rng = Rng64::new(6);
        let rx = mix(&[], 2, 50_000, Awgn::new(0.5), &mut rng);
        let p: f64 = rx[0].iter().map(|z| z.norm_sqr()).sum::<f64>() / 50_000.0;
        assert!((p - 0.5).abs() < 0.02, "noise power {p}");
    }

    #[test]
    #[should_panic(expected = "channel shape")]
    fn shape_mismatch_rejected() {
        let mut rng = Rng64::new(7);
        let h = CMat::identity(2); // 2×2 but tx has 1 antenna
        let streams = vec![vec![C64::one()]];
        let _ = mix(
            &[AirTransmission {
                streams: &streams,
                channel: &h,
                cfo: Cfo::new(0.0, 1e6),
                start: 0,
            }],
            2,
            1,
            no_noise(),
            &mut rng,
        );
    }
}
