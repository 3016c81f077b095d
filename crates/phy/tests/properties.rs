//! Property-based tests for the PHY substrate: round-trips and conservation
//! laws that must hold for arbitrary payloads, channels and parameters.

use iac_channel::{Awgn, Cfo};
use iac_linalg::{CMat, CVec, Rng64, C64};
use iac_phy::cancel::reconstruct_into;
use iac_phy::dsp::Scratch;
use iac_phy::fec::{ConvK3, Hamming74};
use iac_phy::fft::{fft, ifft};
use iac_phy::frame::{bits_to_bytes, bytes_to_bits, crc32, Frame};
use iac_phy::medium::{AirTransmission, Medium};
use iac_phy::modulation::{bit_errors, Bpsk, Modulation, Qam16, Qpsk};
use iac_phy::precode::{precode, precode_into, sum_streams, sum_streams_into};
use iac_phy::project::combine_into;
use proptest::prelude::*;

/// Project onto `u` into a fresh buffer.
fn combine(rx_streams: &[Vec<C64>], u: &CVec) -> Vec<C64> {
    let mut out = Vec::new();
    combine_into(rx_streams, u, &mut out);
    out
}

/// A dirty, oddly-shaped stream-set buffer: the `_into` reshaping logic must
/// overwrite every trace of it.
fn dirty_streams(rng: &mut Rng64) -> Vec<Vec<C64>> {
    (0..(rng.below(5) as usize))
        .map(|_| (0..(rng.below(40) as usize)).map(|_| rng.cn01()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn frame_roundtrips_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..2000),
                                    src in any::<u16>(), dst in any::<u16>(), seq in any::<u16>()) {
        let f = Frame::new(src, dst, seq, payload);
        let decoded = Frame::decode(f.encode()).unwrap();
        prop_assert_eq!(decoded, f);
    }

    #[test]
    fn any_single_bit_flip_is_detected(payload in proptest::collection::vec(any::<u8>(), 1..256),
                                       flip in any::<usize>()) {
        let f = Frame::new(1, 2, 3, payload);
        let mut bits = f.to_bits();
        let idx = flip % bits.len();
        bits[idx] = !bits[idx];
        prop_assert!(Frame::from_bits(&bits).is_err(), "flip at {idx} undetected");
    }

    #[test]
    fn crc_differs_on_different_inputs(a in proptest::collection::vec(any::<u8>(), 1..64),
                                       b in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(a != b);
        // Not a guarantee for all pairs (CRC32 collides), but for short
        // random independent inputs a collision is ~2^-32; treat one as a
        // bug in practice.
        prop_assert_ne!(crc32(&a), crc32(&b));
    }

    #[test]
    fn bits_bytes_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&data)), data);
    }

    #[test]
    fn modulation_roundtrips(bits in proptest::collection::vec(any::<bool>(), 1..512)) {
        for m in [&Bpsk as &dyn Modulation, &Qpsk, &Qam16] {
            let back = m.demodulate(&m.modulate(&bits));
            prop_assert_eq!(bit_errors(&bits, &back[..bits.len()]), 0);
        }
    }

    #[test]
    fn hamming_corrects_one_flip_per_block(bits in proptest::collection::vec(any::<bool>(), 4..128),
                                           flip_seed in any::<u64>()) {
        let coded = Hamming74.encode(&bits);
        let mut corrupted = coded.clone();
        // One flip in each 7-bit block.
        let mut rng = Rng64::new(flip_seed);
        for block in 0..corrupted.len() / 7 {
            let k = block * 7 + rng.below(7) as usize;
            corrupted[k] = !corrupted[k];
        }
        let decoded = Hamming74.decode(&corrupted);
        prop_assert_eq!(&decoded[..bits.len()], &bits[..]);
    }

    #[test]
    fn viterbi_roundtrips_clean(bits in proptest::collection::vec(any::<bool>(), 1..512)) {
        let decoded = ConvK3.decode(&ConvK3.encode(&bits));
        prop_assert_eq!(decoded, bits);
    }

    #[test]
    fn fft_roundtrip_preserves_signal(seed in any::<u64>(), log_n in 1u32..9) {
        let n = 1usize << log_n;
        let mut rng = Rng64::new(seed);
        let orig: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
        let mut x = orig.clone();
        fft(&mut x);
        ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn precode_project_is_scalar_channel(seed in any::<u64>(), power in 0.1f64..4.0) {
        // Projecting a precoded stream through an identity channel onto the
        // same vector recovers the samples scaled by √power (v unit norm).
        let mut rng = Rng64::new(seed);
        let samples: Vec<C64> = (0..64).map(|_| rng.cn01()).collect();
        let v = CVec::random_unit(2, &mut rng);
        let streams = precode(&samples, &v, power);
        let z = combine(&streams, &v);
        for (out, orig) in z.iter().zip(&samples) {
            prop_assert!((*out - orig.scale(power.sqrt())).abs() < 1e-9);
        }
    }

    #[test]
    fn superposition_is_linear(seed in any::<u64>()) {
        let mut rng = Rng64::new(seed);
        let s1: Vec<C64> = (0..32).map(|_| rng.cn01()).collect();
        let s2: Vec<C64> = (0..32).map(|_| rng.cn01()).collect();
        let v1 = CVec::random_unit(2, &mut rng);
        let v2 = CVec::random_unit(2, &mut rng);
        let joint = sum_streams(&[precode(&s1, &v1, 1.0), precode(&s2, &v2, 1.0)]);
        let u = CVec::random_unit(2, &mut rng);
        let z_joint = combine(&joint, &u);
        let z1 = combine(&precode(&s1, &v1, 1.0), &u);
        let z2 = combine(&precode(&s2, &v2, 1.0), &u);
        for t in 0..32 {
            prop_assert!((z_joint[t] - (z1[t] + z2[t])).abs() < 1e-9);
        }
    }

    // ---- `_into` operations must give the same bits on a dirty,
    // wrongly-shaped reuse buffer as on a fresh one (or, where an allocating
    // counterpart exists, as that counterpart) ----

    #[test]
    fn precode_into_bit_identical(seed in any::<u64>(), n in 1usize..300) {
        let mut rng = Rng64::new(seed);
        let samples: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
        let v = CVec::random_unit(2, &mut rng);
        let mut out = dirty_streams(&mut rng);
        precode_into(&samples, &v, 0.7, &mut out);
        prop_assert_eq!(&out, &precode(&samples, &v, 0.7));
    }

    #[test]
    fn sum_streams_into_bit_identical(seed in any::<u64>(), n in 1usize..100) {
        let mut rng = Rng64::new(seed);
        let samples: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
        let a = precode(&samples, &CVec::random_unit(2, &mut rng), 1.0);
        let b = precode(&samples, &CVec::random_unit(2, &mut rng), 2.0);
        let sets = [a, b];
        let mut out = dirty_streams(&mut rng);
        sum_streams_into(&sets, &mut out);
        prop_assert_eq!(&out, &sum_streams(&sets));
    }

    #[test]
    fn combine_into_bit_identical(seed in any::<u64>(), n in 1usize..300) {
        let mut rng = Rng64::new(seed);
        let samples: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
        let streams = precode(&samples, &CVec::random_unit(2, &mut rng), 1.0);
        let u = CVec::random_unit(2, &mut rng);
        let mut out: Vec<C64> = (0..(rng.below(50) as usize)).map(|_| rng.cn01()).collect();
        combine_into(&streams, &u, &mut out);
        let mut fresh = Vec::new();
        combine_into(&streams, &u, &mut fresh);
        prop_assert_eq!(&out, &fresh);
    }

    #[test]
    fn reconstruct_into_bit_identical(seed in any::<u64>(), n in 1usize..200, cfo in -500.0f64..500.0) {
        let mut rng = Rng64::new(seed);
        let symbols: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
        let v = CVec::random_unit(2, &mut rng);
        let h = CMat::random(2, 2, &mut rng);
        let mut out = dirty_streams(&mut rng);
        reconstruct_into(&symbols, &v, &h, 0.5, cfo, 500_000.0, 7, &mut out);
        let mut fresh = Vec::new();
        reconstruct_into(&symbols, &v, &h, 0.5, cfo, 500_000.0, 7, &mut fresh);
        prop_assert_eq!(&out, &fresh);
    }

    #[test]
    fn mix_into_bit_identical(seed in any::<u64>(), n in 1usize..200, noise in 0.0f64..0.5) {
        let mut rng = Rng64::new(seed);
        let samples: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
        let streams = precode(&samples, &CVec::random_unit(2, &mut rng), 1.0);
        let h = CMat::random(2, 2, &mut rng);
        let tx = [AirTransmission {
            streams: &streams,
            channel: &h,
            cfo: Cfo::new(123.0, 500_000.0),
            start: 3,
        }];
        let mut out = dirty_streams(&mut rng);
        // Identical RNG state for both mixes, so the AWGN draws match.
        let mut rng_a = rng.clone();
        let mut rng_b = rng;
        Medium::mix_into(&tx, 2, n, Awgn::new(noise), &mut rng_b, &mut out);
        let mut fresh = Vec::new();
        Medium::mix_into(&tx, 2, n, Awgn::new(noise), &mut rng_a, &mut fresh);
        prop_assert_eq!(&out, &fresh);
    }

    #[test]
    fn scratch_reuse_is_stateless(seed in any::<u64>(), n in 1usize..150) {
        // A warm, previously-used Scratch must not change any result: run
        // the same op twice through one arena and once through a fresh one.
        let mut rng = Rng64::new(seed);
        let len = n.next_power_of_two();
        let signal: Vec<C64> = (0..len).map(|_| rng.cn01()).collect();
        // One pooled-buffer FFT round trip through the arena.
        let spectrum = |scratch: &mut Scratch| {
            let mut buf = scratch.take_copy(&signal);
            scratch.plan(len).fft(&mut buf);
            let out = buf.clone();
            scratch.put(buf);
            out
        };
        let mut warm = Scratch::new();
        let a = spectrum(&mut warm);
        let b = spectrum(&mut warm);
        let c = spectrum(&mut Scratch::new());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
    }
}
