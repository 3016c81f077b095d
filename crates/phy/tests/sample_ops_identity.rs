//! Bit-identity pins for the sample-plane `_into` operations.
//!
//! Precoding, projection, the medium's mix and cancellation's reconstruction
//! promise results **bit-identical** to the plain sample-by-sample scalar
//! loops they replace — that is what keeps the golden-snapshot suite and the
//! cross-thread determinism contract intact when their loop order changes
//! (the medium and the reconstruction compute the CFO phasors once and share
//! them across antennas). These tests pin each operation against an
//! independent scalar reference (a re-implementation of the sample-major
//! loop, not a call back into the library), sweeping odd lengths, zero
//! length, and non-power-of-two sizes. Comparisons use exact equality on
//! `f64` bit patterns via `assert_eq!` — no tolerances.

use iac_channel::{Awgn, Cfo};
use iac_linalg::{CMat, CVec, Rng64, C64};
use iac_phy::medium::{AirTransmission, Medium};
use iac_phy::{cancel, precode, project};

/// Length sweep: zero, one, odd primes, non-powers-of-two, and one size
/// past any vectorizer's unroll tail.
const LENGTHS: &[usize] = &[0, 1, 3, 5, 7, 12, 33, 100, 257, 1000];

fn samples(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = Rng64::new(seed);
    (0..n).map(|_| rng.cn01()).collect()
}

#[test]
fn precode_into_matches_scalar_reference() {
    for &n in LENGTHS {
        for antennas in [1usize, 2, 3] {
            let mut rng = Rng64::new(7 + n as u64 + antennas as u64);
            let s = samples(n, 11 + n as u64);
            let v = CVec::random_unit(antennas, &mut rng);
            let power: f64 = 1.7;
            // Scalar reference: the historical interleaved loop.
            let amp = power.sqrt();
            let reference: Vec<Vec<C64>> = (0..antennas)
                .map(|a| {
                    let w = v[a] * amp;
                    s.iter().map(|&x| x * w).collect()
                })
                .collect();
            let mut out = Vec::new();
            precode::precode_into(&s, &v, power, &mut out);
            assert_eq!(out, reference, "n={n} antennas={antennas}");
        }
    }
}

#[test]
fn combine_into_matches_scalar_reference() {
    for &n in LENGTHS {
        for antennas in [1usize, 2, 4] {
            let mut rng = Rng64::new(23 + n as u64 + antennas as u64);
            let streams: Vec<Vec<C64>> = (0..antennas)
                .map(|a| samples(n, 31 + n as u64 + a as u64))
                .collect();
            let u = CVec::random_unit(antennas, &mut rng);
            // Scalar reference: antenna-major conj-weight mul_add chain.
            let mut reference = vec![C64::zero(); n];
            for (a, stream) in streams.iter().enumerate() {
                let w = u[a].conj();
                for (o, &x) in reference.iter_mut().zip(stream) {
                    *o = w.mul_add(x, *o);
                }
            }
            let mut out = Vec::new();
            project::combine_into(&streams, &u, &mut out);
            assert_eq!(out, reference, "n={n} antennas={antennas}");
        }
    }
}

#[test]
fn mix_into_matches_scalar_reference() {
    // Two transmitters with different shapes, CFOs, and start offsets —
    // including a start that truncates at the window edge — against the
    // historical t-outer interleaved mixer. Noise is zero so the comparison
    // isolates the channel/CFO path (noise is injected after mixing by the
    // same code in both).
    for &n in &[1usize, 3, 12, 100, 257] {
        let fs = 500_000.0;
        let mut rng = Rng64::new(41 + n as u64);
        let h1 = CMat::random(2, 2, &mut rng);
        let h2 = CMat::random(2, 1, &mut rng);
        let s1: Vec<Vec<C64>> = (0..2).map(|a| samples(n, 43 + a as u64)).collect();
        let s2: Vec<Vec<C64>> = vec![samples(n, 47)];
        let start2 = n / 2 + 1; // truncates: start2 + n > n
        let txs = [
            AirTransmission {
                streams: &s1,
                channel: &h1,
                cfo: Cfo::new(321.0, fs),
                start: 0,
            },
            AirTransmission {
                streams: &s2,
                channel: &h2,
                cfo: Cfo::new(-150.0, fs),
                start: start2,
            },
        ];
        // Scalar reference: the pre-SoA sample-major loop.
        let mut reference = vec![vec![C64::zero(); n]; 2];
        for tx in &txs {
            let step = C64::cis(std::f64::consts::TAU * tx.cfo.delta_f_hz / tx.cfo.sample_rate_hz);
            let mut rot = tx.cfo.phasor_at(tx.start);
            for t in 0..tx.streams[0].len() {
                let air_t = tx.start + t;
                if air_t >= n {
                    break;
                }
                for (a, out_stream) in reference.iter_mut().enumerate() {
                    let mut acc = C64::zero();
                    for (b, stream) in tx.streams.iter().enumerate() {
                        acc = tx.channel[(a, b)].mul_add(stream[t], acc);
                    }
                    out_stream[air_t] += acc * rot;
                }
                rot *= step;
            }
        }
        let mut mix_rng = Rng64::new(1);
        let mut out = Vec::new();
        Medium::mix_into(&txs, 2, n, Awgn::new(0.0), &mut mix_rng, &mut out);
        assert_eq!(out, reference, "n={n}");
    }
}

#[test]
fn reconstruct_into_matches_scalar_reference() {
    // Walking the lengths up and then back down reuses the pooled phasor
    // buffer at shorter lengths than it last held.
    for &n in LENGTHS.iter().chain(LENGTHS.iter().rev()) {
        let fs = 500_000.0;
        let mut rng = Rng64::new(53 + n as u64);
        let h = CMat::random(2, 2, &mut rng);
        let v = CVec::random_unit(2, &mut rng);
        let syms = samples(n, 59 + n as u64);
        let (power, cfo_hz, start): (f64, f64, usize) = (1.3, 275.0, 17);
        // Scalar reference: per-antenna eff coefficient and the serial
        // rot *= step recurrence of the pre-SoA loop.
        let amp = power.sqrt();
        let step = C64::cis(std::f64::consts::TAU * cfo_hz / fs);
        let rot0 = C64::cis(std::f64::consts::TAU * cfo_hz * start as f64 / fs);
        let reference: Vec<Vec<C64>> = (0..2)
            .map(|a| {
                let mut eff = C64::zero();
                for b in 0..2 {
                    eff = h[(a, b)].mul_add(v[b], eff);
                }
                eff = eff.scale(amp);
                let mut rot = rot0;
                syms.iter()
                    .map(|&s| {
                        let sample = eff * (s * rot);
                        rot *= step;
                        sample
                    })
                    .collect()
            })
            .collect();
        let mut out = Vec::new();
        cancel::reconstruct_into(&syms, &v, &h, power, cfo_hz, fs, start, &mut out);
        assert_eq!(out, reference, "n={n}");
    }
}
