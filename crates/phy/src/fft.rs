//! Radix-2 decimation-in-time FFT.
//!
//! Self-contained (no external DSP crates) and sized for OFDM symbol lengths
//! (64–1024). Used by [`crate::ofdm`] to test the paper's §6c conjecture —
//! per-subcarrier alignment on frequency-selective channels.
//!
//! The transforms run off an [`FftPlan`](crate::dsp::FftPlan) (cached
//! bit-reversal permutation and twiddle tables; see [`crate::dsp`]). The
//! free functions here keep one-call signatures and delegate to a
//! thread-local plan cache, so repeated transforms of the same size neither
//! recompute twiddles nor allocate.

use crate::dsp::Scratch;
use iac_linalg::C64;
use std::cell::RefCell;

thread_local! {
    /// Shared arena for the planless convenience entry points, so `fft(&mut
    /// x)` hits a cached plan instead of re-deriving twiddles per call.
    static THREAD_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Run a closure against this thread's shared [`Scratch`] arena — the pool
/// behind [`fft`]/[`ifft`] and the pooled temporaries of the `_into` sample
/// kernels (`mix_into`, `reconstruct_into`).
///
/// **Reentrancy:** the closure must not call [`fft`], [`ifft`] or an `_into`
/// kernel — they borrow this same thread-local arena and would panic with a
/// `RefCell` borrow error. Inside the closure, work on the `Scratch` you
/// were handed.
pub(crate) fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    THREAD_SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// This thread's cumulative [`ScratchStats`](crate::dsp::ScratchStats) —
/// pool and plan-cache hit/miss counters for the shared arena. The arena
/// lives for the thread, so callers wanting per-phase numbers should take a
/// reading before and after and use [`ScratchStats::since`].
///
/// [`ScratchStats::since`]: crate::dsp::ScratchStats::since
pub fn thread_scratch_stats() -> crate::dsp::ScratchStats {
    with_thread_scratch(|s| s.stats())
}

/// In-place forward FFT. Length must be a power of two.
pub fn fft(x: &mut [C64]) {
    with_thread_scratch(|s| s.plan(x.len()).fft(x));
}

/// In-place inverse FFT (normalised by 1/N). Length must be a power of two.
/// No production caller: it stays public as [`fft`]'s inverse for the
/// round-trip property tests.
pub fn ifft(x: &mut [C64]) {
    with_thread_scratch(|s| s.plan(x.len()).ifft(x));
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::Rng64;

    #[test]
    fn roundtrip_identity() {
        let mut rng = Rng64::new(1);
        for &n in &[2usize, 8, 64, 256] {
            let orig: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
            let mut x = orig.clone();
            fft(&mut x);
            ifft(&mut x);
            for (a, b) in x.iter().zip(&orig) {
                assert!((*a - *b).abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![C64::zero(); 8];
        x[0] = C64::one();
        fft(&mut x);
        for v in &x {
            assert!((*v - C64::one()).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_hits_single_bin() {
        let n = 64;
        let k = 5;
        let mut x: Vec<C64> = (0..n)
            .map(|t| C64::cis(std::f64::consts::TAU * k as f64 * t as f64 / n as f64))
            .collect();
        fft(&mut x);
        for (bin, v) in x.iter().enumerate() {
            if bin == k {
                assert!((v.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage in bin {bin}: {}", v.abs());
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut rng = Rng64::new(2);
        let orig: Vec<C64> = (0..128).map(|_| rng.cn01()).collect();
        let e_time: f64 = orig.iter().map(|z| z.norm_sqr()).sum();
        let mut x = orig;
        fft(&mut x);
        let e_freq: f64 = x.iter().map(|z| z.norm_sqr()).sum::<f64>() / 128.0;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time);
    }

    #[test]
    fn linearity() {
        let mut rng = Rng64::new(3);
        let a: Vec<C64> = (0..32).map(|_| rng.cn01()).collect();
        let b: Vec<C64> = (0..32).map(|_| rng.cn01()).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fab: Vec<C64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        fft(&mut fa);
        fft(&mut fb);
        fft(&mut fab);
        for i in 0..32 {
            assert!((fab[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn convolution_matches_fft_multiplication() {
        // Circular convolution theorem check (pad to avoid wraparound).
        let mut rng = Rng64::new(4);
        let sig: Vec<C64> = (0..48).map(|_| rng.cn01()).collect();
        let taps: Vec<C64> = (0..5).map(|_| rng.cn01()).collect();
        let mut direct = vec![C64::zero(); sig.len() + taps.len() - 1];
        for (i, &s) in sig.iter().enumerate() {
            for (j, &t) in taps.iter().enumerate() {
                direct[i + j] += s * t;
            }
        }
        let n = 64;
        let mut a = sig.clone();
        a.resize(n, C64::zero());
        let mut b = taps.clone();
        b.resize(n, C64::zero());
        fft(&mut a);
        fft(&mut b);
        let mut prod: Vec<C64> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        ifft(&mut prod);
        for i in 0..direct.len() {
            assert!((prod[i] - direct[i]).abs() < 1e-8, "index {i}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![C64::zero(); 12];
        fft(&mut x);
    }
}
