//! Sample-level channel and CFO estimation from known training sequences.
//!
//! §8a: "the first time a client broadcasts an association message, all APs
//! estimate the channel from that client to themselves... using standard
//! MIMO channel estimation \[2\]". Standard MIMO training makes the antennas
//! take turns sending the preamble (time-orthogonal training) so each column
//! of `H` is observed in isolation.

use crate::preamble::Preamble;
use iac_linalg::{CMat, C64};

/// Build the per-antenna training streams: antenna `b` transmits the
/// preamble during slot `b` and silence otherwise. Total length is
/// `tx_antennas × preamble.len()` samples.
pub fn training_streams(preamble: &Preamble, tx_antennas: usize) -> Vec<Vec<C64>> {
    let l = preamble.len();
    let total = l * tx_antennas;
    let chips = preamble.samples();
    (0..tx_antennas)
        .map(|b| {
            let mut s = vec![C64::zero(); total];
            s[b * l..(b + 1) * l].copy_from_slice(&chips);
            s
        })
        .collect()
}

/// Least-squares channel estimate from the received training window.
/// `rx_streams[a]` must contain (at least) the full training region starting
/// at `start`. Returns the `rx_antennas × tx_antennas` estimate.
pub fn estimate_channel(
    rx_streams: &[Vec<C64>],
    preamble: &Preamble,
    tx_antennas: usize,
    start: usize,
) -> CMat {
    let l = preamble.len();
    let rx_antennas = rx_streams.len();
    let chips = preamble.samples();
    let energy: f64 = chips.iter().map(|c| c.norm_sqr()).sum();
    CMat::from_fn(rx_antennas, tx_antennas, |a, b| {
        let slot = start + b * l;
        let mut acc = C64::zero();
        for (k, &chip) in chips.iter().enumerate() {
            acc += rx_streams[a][slot + k] * chip.conj();
        }
        acc * (1.0 / energy)
    })
}

/// Estimate a carrier frequency offset from a received stream carrying known
/// symbols: strip the modulation (`e[t] = r[t]·conj(known[t])` leaves
/// `h·e^{j2πΔf·t/fs}`), then read the per-sample phase increment off the
/// lag-1 autocorrelation. Unambiguous for `|Δf| < fs/2` per sample — far
/// beyond the hundreds-of-Hz offsets of real radios.
pub fn estimate_cfo(received: &[C64], known: &[C64], sample_rate_hz: f64) -> f64 {
    assert_eq!(
        received.len(),
        known.len(),
        "length mismatch in CFO estimate"
    );
    assert!(received.len() >= 2, "need at least two samples");
    let stripped: Vec<C64> = received
        .iter()
        .zip(known)
        .map(|(&r, &k)| r * k.conj())
        .collect();
    // Lag-L autocorrelation phase, normalised per sample.
    let autocorr_phase = |lag: usize| -> f64 {
        let mut acc = C64::zero();
        for t in 0..stripped.len() - lag {
            acc += stripped[t + lag] * stripped[t].conj();
        }
        acc.arg()
    };
    // Stage 1 (coarse, lag 1): unambiguous over ±fs/2 but noisy — the
    // per-sample phase of a realistic CFO is micro-radians, so noise floors
    // dominate the angle.
    let coarse = autocorr_phase(1);
    let n = stripped.len();
    if n < 8 {
        return coarse / std::f64::consts::TAU * sample_rate_hz;
    }
    // Stage 2 (fine, long lag): the accumulated phase over `lag` samples is
    // `lag`× larger while the noise stays put; the coarse estimate resolves
    // the 2π ambiguity.
    let lag = (n / 4).clamp(2, 64);
    let expected = coarse * lag as f64;
    let measured = autocorr_phase(lag);
    // Unwrap `measured` onto the branch nearest the coarse prediction.
    let wraps = ((expected - measured) / std::f64::consts::TAU).round();
    let fine = (measured + std::f64::consts::TAU * wraps) / lag as f64;
    fine / std::f64::consts::TAU * sample_rate_hz
}

/// Matched-filter CFO search: the frequency maximising
/// `Σ_a |Σ_t rx_a(t)·conj(known(t))·e^{−j2πf·t/fs}|²` on a grid around
/// `center_hz`, refined by parabolic interpolation.
///
/// Unlike the autocorrelation estimator, the peak location is robust to
/// *strong interference*: other packets' cross terms average out over the
/// correlation length instead of biasing the phase. This is what the
/// decision-directed cancellation refit uses — at that point the whole
/// packet is known, so the peak (width ≈ 1/T) is located to a small
/// fraction of a Hz.
///
/// All grid hypotheses are scored in one pass over the samples: each keeps
/// its own rotor and accumulator (split into re/im arrays, so the
/// per-sample update runs across hypotheses), and `r·conj(k)` is formed
/// once per sample. Every hypothesis still performs the same float
/// operations in the same order as a one-hypothesis-at-a-time loop.
pub fn matched_cfo_search(
    streams: &[Vec<C64>],
    known: &[C64],
    sample_rate_hz: f64,
    center_hz: f64,
    half_width_hz: f64,
    steps: usize,
) -> f64 {
    assert!(steps >= 3, "need at least three grid points");
    assert!(half_width_hz > 0.0, "search width must be positive");
    let (mut step_re, mut step_im) = (vec![0.0; steps], vec![0.0; steps]);
    for i in 0..steps {
        let f_hz = center_hz - half_width_hz + 2.0 * half_width_hz * i as f64 / (steps - 1) as f64;
        let step = C64::cis(-std::f64::consts::TAU * f_hz / sample_rate_hz);
        (step_re[i], step_im[i]) = (step.re, step.im);
    }
    let mut scores = vec![0.0; steps];
    let (mut rot_re, mut rot_im) = (vec![0.0; steps], vec![0.0; steps]);
    let (mut acc_re, mut acc_im) = (vec![0.0; steps], vec![0.0; steps]);
    for stream in streams {
        rot_re.fill(1.0);
        rot_im.fill(0.0);
        acc_re.fill(0.0);
        acc_im.fill(0.0);
        for (r, k) in stream.iter().zip(known) {
            let rk = *r * k.conj();
            for h in 0..steps {
                let (c, s) = (rot_re[h], rot_im[h]);
                // acc += rk · rot, then rot *= step — `C64`'s own formulas.
                acc_re[h] += rk.re * c - rk.im * s;
                acc_im[h] += rk.re * s + rk.im * c;
                rot_re[h] = c * step_re[h] - s * step_im[h];
                rot_im[h] = c * step_im[h] + s * step_re[h];
            }
        }
        for h in 0..steps {
            scores[h] += acc_re[h] * acc_re[h] + acc_im[h] * acc_im[h];
        }
    }
    let mut best_idx = 0;
    for i in 1..steps {
        if scores[i] > scores[best_idx] {
            best_idx = i;
        }
    }
    let grid_step = 2.0 * half_width_hz / (steps - 1) as f64;
    let f_best = center_hz - half_width_hz + grid_step * best_idx as f64;
    // Parabolic refinement on the peak and its neighbours.
    if best_idx == 0 || best_idx == steps - 1 {
        return f_best;
    }
    let (s_l, s_c, s_r) = (scores[best_idx - 1], scores[best_idx], scores[best_idx + 1]);
    let denom = s_l - 2.0 * s_c + s_r;
    if denom.abs() < 1e-30 {
        return f_best;
    }
    let delta = 0.5 * (s_l - s_r) / denom;
    f_best + delta.clamp(-1.0, 1.0) * grid_step
}

/// Derotate a stream in place by the given CFO estimate (undo
/// `e^{j2πΔf·t/fs}` starting at absolute sample index `start`).
pub fn derotate(samples: &mut [C64], delta_f_hz: f64, sample_rate_hz: f64, start: usize) {
    let step = C64::cis(-std::f64::consts::TAU * delta_f_hz / sample_rate_hz);
    let mut rot = C64::cis(-std::f64::consts::TAU * delta_f_hz * start as f64 / sample_rate_hz);
    for s in samples.iter_mut() {
        *s *= rot;
        rot *= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::AirTransmission;
    use iac_channel::{Awgn, Cfo};
    use iac_linalg::Rng64;

    #[test]
    fn training_streams_are_time_orthogonal() {
        let p = Preamble::paper_default();
        let streams = training_streams(&p, 2);
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].len(), 64);
        // At any instant at most one antenna is live.
        for t in 0..64 {
            let live = streams.iter().filter(|s| s[t] != C64::zero()).count();
            assert!(live <= 1, "t={t}: {live} antennas live");
        }
    }

    #[test]
    fn channel_estimation_noiseless_is_exact() {
        let p = Preamble::paper_default();
        let mut rng = Rng64::new(1);
        let h = CMat::random(2, 2, &mut rng);
        let streams = training_streams(&p, 2);
        let rx = crate::medium::mix(
            &[AirTransmission {
                streams: &streams,
                channel: &h,
                cfo: Cfo::new(0.0, 1e6),
                start: 0,
            }],
            2,
            64,
            Awgn::new(0.0),
            &mut rng,
        );
        let est = estimate_channel(&rx, &p, 2, 0);
        assert!((&est - &h).frobenius_norm() < 1e-10);
    }

    #[test]
    fn channel_estimation_error_scales_with_noise() {
        let p = Preamble::paper_default();
        let mut rng = Rng64::new(2);
        let h = CMat::random(2, 2, &mut rng);
        let streams = training_streams(&p, 2);
        let mut errs = Vec::new();
        for &noise in &[0.001, 0.1] {
            let mut total = 0.0;
            for _ in 0..50 {
                let rx = crate::medium::mix(
                    &[AirTransmission {
                        streams: &streams,
                        channel: &h,
                        cfo: Cfo::new(0.0, 1e6),
                        start: 0,
                    }],
                    2,
                    64,
                    Awgn::new(noise),
                    &mut rng,
                );
                let est = estimate_channel(&rx, &p, 2, 0);
                total += (&est - &h).frobenius_norm().powi(2);
            }
            errs.push(total / 50.0);
        }
        // 100× the noise → ~100× the squared error.
        let ratio = errs[1] / errs[0];
        assert!(ratio > 30.0 && ratio < 300.0, "ratio {ratio}");
    }

    #[test]
    fn estimation_with_offset_start() {
        let p = Preamble::paper_default();
        let mut rng = Rng64::new(3);
        let h = CMat::random(2, 2, &mut rng);
        let streams = training_streams(&p, 2);
        let rx = crate::medium::mix(
            &[AirTransmission {
                streams: &streams,
                channel: &h,
                cfo: Cfo::new(0.0, 1e6),
                start: 17,
            }],
            2,
            100,
            Awgn::new(0.0),
            &mut rng,
        );
        let est = estimate_channel(&rx, &p, 2, 17);
        assert!((&est - &h).frobenius_norm() < 1e-10);
    }

    #[test]
    fn cfo_estimation_accuracy() {
        let mut rng = Rng64::new(4);
        let known: Vec<C64> = (0..256).map(|_| rng.cn01()).collect();
        for &df in &[-500.0, -37.0, 0.0, 123.0, 800.0] {
            let cfo = Cfo::new(df, 500_000.0);
            let mut rx: Vec<C64> = known
                .iter()
                .enumerate()
                .map(|(t, &k)| k * C64::from_polar(0.8, 0.3) * cfo.phasor_at(t))
                .collect();
            for s in rx.iter_mut() {
                *s += rng.cn(0.001);
            }
            let est = estimate_cfo(&rx, &known, 500_000.0);
            // 256 known samples at 30 dB: better than ±10 Hz of a 500 kS/s
            // stream. Decision-directed refits over full packets (12k+
            // samples) tighten this by another order of magnitude — see
            // `longer_training_is_more_accurate`.
            assert!((est - df).abs() < 10.0, "df {df}: estimated {est}");
        }
    }

    #[test]
    fn longer_training_is_more_accurate() {
        let mut rng = Rng64::new(14);
        let df = 217.0;
        let fs = 500_000.0;
        let mut errs = Vec::new();
        for &n in &[256usize, 8192] {
            let known: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
            let cfo = Cfo::new(df, fs);
            let mut total = 0.0;
            for _ in 0..20 {
                let mut rx: Vec<C64> = known
                    .iter()
                    .enumerate()
                    .map(|(t, &k)| k * C64::from_polar(0.8, 0.3) * cfo.phasor_at(t))
                    .collect();
                for s in rx.iter_mut() {
                    *s += rng.cn(0.01);
                }
                total += (estimate_cfo(&rx, &known, fs) - df).abs();
            }
            errs.push(total / 20.0);
        }
        assert!(
            errs[1] < errs[0] / 2.0,
            "no gain from longer training: {errs:?}"
        );
        assert!(errs[1] < 2.0, "long-sequence error {} Hz", errs[1]);
    }

    #[test]
    fn derotation_undoes_cfo() {
        let mut rng = Rng64::new(5);
        let orig: Vec<C64> = (0..128).map(|_| rng.cn01()).collect();
        let cfo = Cfo::new(250.0, 1e6);
        let mut rotated: Vec<C64> = orig
            .iter()
            .enumerate()
            .map(|(t, &s)| s * cfo.phasor_at(t))
            .collect();
        derotate(&mut rotated, 250.0, 1e6, 0);
        for (a, b) in rotated.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn derotation_respects_start_index() {
        let cfo = Cfo::new(100.0, 1e6);
        let mut s = vec![cfo.phasor_at(40)];
        derotate(&mut s, 100.0, 1e6, 40);
        assert!((s[0] - C64::one()).abs() < 1e-10);
    }

    #[test]
    fn matched_search_finds_cfo_under_strong_interference() {
        // The autocorrelation estimator biases by several Hz when two
        // interfering packets carry twice the signal power; the matched
        // search must stay sub-Hz accurate — including at exactly 0 Hz.
        let mut rng = Rng64::new(21);
        let fs = 500_000.0;
        let n = 12_000;
        let known: Vec<C64> = (0..n)
            .map(|_| {
                if rng.chance(0.5) {
                    C64::one()
                } else {
                    C64::real(-1.0)
                }
            })
            .collect();
        for &df in &[0.0f64, 1.5, -7.0, 40.0] {
            let cfo = Cfo::new(df, fs);
            let interference: Vec<C64> = (0..n)
                .map(|_| {
                    let b1 = if rng.chance(0.5) { 1.0 } else { -1.0 };
                    let b2 = if rng.chance(0.5) { 1.0 } else { -1.0 };
                    C64::new(b1, 0.0) + C64::new(b2, 0.0)
                })
                .collect();
            let streams: Vec<Vec<C64>> = (0..2)
                .map(|_| {
                    known
                        .iter()
                        .zip(&interference)
                        .enumerate()
                        .map(|(t, (&k, &i))| k * cfo.phasor_at(t) + i + rng.cn(0.01))
                        .collect()
                })
                .collect();
            let est = matched_cfo_search(&streams, &known, fs, 0.0, 60.0, 121);
            assert!((est - df).abs() < 1.0, "df {df}: estimated {est}");
        }
    }

    /// The one-hypothesis-at-a-time search the single-pass version must
    /// reproduce bit for bit.
    fn matched_cfo_search_reference(
        streams: &[Vec<C64>],
        known: &[C64],
        sample_rate_hz: f64,
        center_hz: f64,
        half_width_hz: f64,
        steps: usize,
    ) -> f64 {
        let score = |f_hz: f64| -> f64 {
            let step = C64::cis(-std::f64::consts::TAU * f_hz / sample_rate_hz);
            let mut total = 0.0;
            for stream in streams {
                let mut rot = C64::one();
                let mut acc = C64::zero();
                for (r, k) in stream.iter().zip(known) {
                    acc += *r * k.conj() * rot;
                    rot *= step;
                }
                total += acc.norm_sqr();
            }
            total
        };
        let mut best_idx = 0;
        let mut scores = Vec::with_capacity(steps);
        for i in 0..steps {
            let f = center_hz - half_width_hz + 2.0 * half_width_hz * i as f64 / (steps - 1) as f64;
            let s = score(f);
            if s > scores.get(best_idx).copied().unwrap_or(f64::NEG_INFINITY) {
                best_idx = i;
            }
            scores.push(s);
        }
        let grid_step = 2.0 * half_width_hz / (steps - 1) as f64;
        let f_best = center_hz - half_width_hz + grid_step * best_idx as f64;
        if best_idx == 0 || best_idx == steps - 1 {
            return f_best;
        }
        let (s_l, s_c, s_r) = (scores[best_idx - 1], scores[best_idx], scores[best_idx + 1]);
        let denom = s_l - 2.0 * s_c + s_r;
        if denom.abs() < 1e-30 {
            return f_best;
        }
        let delta = 0.5 * (s_l - s_r) / denom;
        f_best + delta.clamp(-1.0, 1.0) * grid_step
    }

    #[test]
    fn matched_search_is_bit_identical_to_reference() {
        let fs = 500_000.0;
        let mut rng = Rng64::new(23);
        let mut edge_hits = 0;
        for case in 0..60 {
            let steps = [3, 4, 121][case % 3];
            let n_streams = 1 + (case / 3) % 2;
            let known_len = 50 + rng.below(400) as usize;
            let known: Vec<C64> = (0..known_len).map(|_| rng.cn01()).collect();
            let (center, half_width) = (rng.uniform(-50.0, 50.0), rng.uniform(5.0, 60.0));
            // Every fourth case puts the true offset past the grid's upper
            // edge, so the peak lands on the last grid point.
            let df = if case % 4 == 0 {
                center + 3.0 * half_width
            } else {
                center + rng.uniform(-half_width, half_width)
            };
            let cfo = Cfo::new(df, fs);
            let streams: Vec<Vec<C64>> = (0..n_streams)
                .map(|a| {
                    // Stream 0 is shorter than `known`, stream 1 longer:
                    // both sides of the `zip` get cut.
                    let len = if a == 0 {
                        known_len - 7
                    } else {
                        known_len + 11
                    };
                    (0..len)
                        .map(|t| {
                            let k = known.get(t).copied().unwrap_or_else(C64::one);
                            k * cfo.phasor_at(t) + rng.cn(0.05)
                        })
                        .collect()
                })
                .collect();
            let got = matched_cfo_search(&streams, &known, fs, center, half_width, steps);
            let want =
                matched_cfo_search_reference(&streams, &known, fs, center, half_width, steps);
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "case {case}: {got} vs {want}"
            );
            if (got - (center + half_width)).abs() < 1e-9 {
                edge_hits += 1;
            }
        }
        assert!(edge_hits > 0, "no case exercised a peak on the grid edge");
    }

    #[test]
    fn matched_search_parabolic_refinement_beats_grid() {
        let mut rng = Rng64::new(22);
        let fs = 500_000.0;
        let n = 8_000;
        let known: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
        let df = 13.37;
        let cfo = Cfo::new(df, fs);
        let streams: Vec<Vec<C64>> = vec![known
            .iter()
            .enumerate()
            .map(|(t, &k)| k * cfo.phasor_at(t))
            .collect()];
        // 5 Hz grid spacing: raw grid error could be 2.5 Hz, refinement
        // should land well under 1 Hz.
        let est = matched_cfo_search(&streams, &known, fs, 0.0, 50.0, 21);
        assert!((est - df).abs() < 1.0, "estimated {est}");
    }
}
