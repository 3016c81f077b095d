//! Radix-2 decimation-in-time FFT.
//!
//! Self-contained (no external DSP crates) and sized for OFDM symbol lengths
//! (64–1024). Used by [`crate::ofdm`] to test the paper's §6c conjecture —
//! per-subcarrier alignment on frequency-selective channels.
//!
//! The transforms run off an [`FftPlan`](crate::dsp::FftPlan) (cached
//! bit-reversal permutation and twiddle tables; see [`crate::dsp`]). The
//! free functions here keep the
//! original one-call signatures and delegate to a thread-local plan cache, so
//! repeated transforms of the same size neither recompute twiddles nor
//! allocate. Long convolutions switch to FFT-based overlap-add automatically
//! (see [`convolve`]).

use crate::dsp::Scratch;
use iac_linalg::C64;
use std::cell::RefCell;

thread_local! {
    /// Shared arena for the planless convenience entry points, so `fft(&mut
    /// x)` hits a cached plan instead of re-deriving twiddles per call.
    static THREAD_SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::new());
}

/// Run a closure against this thread's shared [`Scratch`] arena — the pool
/// behind the allocating convenience signatures of this crate.
///
/// **Reentrancy:** the closure must not call the planless convenience
/// functions (`fft`, `ifft`, `convolve`, `ofdm_modulate`, …) — they borrow
/// this same thread-local arena and would panic with a `RefCell` borrow
/// error. Inside the closure, use the `_into` variants with the `Scratch`
/// you were handed.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
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
pub fn ifft(x: &mut [C64]) {
    with_thread_scratch(|s| s.plan(x.len()).ifft(x));
}

/// Above this many taps, [`convolve`] switches from the O(N·K) direct form to
/// FFT-based overlap-add. Direct convolution of a 12 000-sample packet with a
/// 32-tap channel already costs ~384k complex MACs — about where the
/// `log₂`-sized butterfly work of block FFTs wins on this code base.
pub const FAST_CONV_MIN_TAPS: usize = 32;

/// Convolve a sample stream with a (short) channel impulse response — the
/// frequency-selective "multi-tap" channel of §6c.
///
/// Picks the algorithm automatically: direct convolution for short tap
/// counts, FFT overlap-add (through the thread-local plan cache) for
/// [`FAST_CONV_MIN_TAPS`] or more.
pub fn convolve(signal: &[C64], taps: &[C64]) -> Vec<C64> {
    let mut out = Vec::new();
    with_thread_scratch(|s| convolve_into(signal, taps, &mut out, s));
    out
}

/// [`convolve`] into a caller-owned buffer, drawing temporaries from
/// `scratch`. `out` is cleared and resized to `signal.len() + taps.len() − 1`
/// (zero for empty inputs). Zero allocations once `out` and the arena are
/// warm.
pub fn convolve_into(signal: &[C64], taps: &[C64], out: &mut Vec<C64>, scratch: &mut Scratch) {
    out.clear();
    if signal.is_empty() || taps.is_empty() {
        return;
    }
    out.resize(signal.len() + taps.len() - 1, C64::zero());
    if taps.len() < FAST_CONV_MIN_TAPS {
        for (i, &s) in signal.iter().enumerate() {
            for (j, &t) in taps.iter().enumerate() {
                out[i + j] = s.mul_add(t, out[i + j]);
            }
        }
    } else {
        convolve_overlap_add(signal, taps, out, scratch);
    }
}

/// FFT overlap-add: block the signal into chunks of `n − (taps−1)` samples,
/// multiply each chunk's spectrum by the tap spectrum, and add the inverse
/// transforms back at the chunk offsets. `out` must already be zeroed to the
/// full convolution length.
fn convolve_overlap_add(signal: &[C64], taps: &[C64], out: &mut [C64], scratch: &mut Scratch) {
    // Block size: the FFT must hold one signal chunk plus the tap tail.
    // 4× the tap count keeps the per-sample butterfly cost near its minimum
    // without outsized buffers.
    let n = (4 * taps.len()).next_power_of_two();
    let chunk = n - (taps.len() - 1);
    // Tap spectrum, computed once per call.
    let mut h = scratch.take(n);
    h[..taps.len()].copy_from_slice(taps);
    scratch.plan(n).fft(&mut h);
    let mut buf = scratch.take(n);
    for (block, start) in (0..signal.len()).step_by(chunk).enumerate() {
        let end = (start + chunk).min(signal.len());
        buf[..end - start].copy_from_slice(&signal[start..end]);
        buf[end - start..].fill(C64::zero());
        let plan = scratch.plan(n);
        plan.fft(&mut buf);
        for (b, &hk) in buf.iter_mut().zip(h.iter()) {
            *b *= hk;
        }
        plan.ifft(&mut buf);
        let offset = block * chunk;
        let take = n.min(out.len() - offset);
        for (o, &b) in out[offset..offset + take].iter_mut().zip(buf.iter()) {
            *o += b;
        }
    }
    scratch.put(buf);
    scratch.put(h);
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
        let direct = convolve(&sig, &taps);
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
    fn overlap_add_matches_direct_convolution() {
        // Above the threshold the fast path takes over; it must agree with
        // the direct form to numerical precision, including when the last
        // block is a partial one.
        let mut rng = Rng64::new(5);
        for &(sig_len, n_taps) in &[
            (500usize, FAST_CONV_MIN_TAPS),
            (1000, 64),
            (127, 40),       // signal shorter than the FFT block
            (4096, 33),      // many blocks
        ] {
            let sig: Vec<C64> = (0..sig_len).map(|_| rng.cn01()).collect();
            let taps: Vec<C64> = (0..n_taps).map(|_| rng.cn01()).collect();
            let fast = convolve(&sig, &taps);
            let mut direct = vec![C64::zero(); sig_len + n_taps - 1];
            for (i, &s) in sig.iter().enumerate() {
                for (j, &t) in taps.iter().enumerate() {
                    direct[i + j] = s.mul_add(t, direct[i + j]);
                }
            }
            assert_eq!(fast.len(), direct.len());
            let scale: f64 = direct.iter().map(|z| z.abs()).fold(1.0, f64::max);
            for i in 0..direct.len() {
                assert!(
                    (fast[i] - direct[i]).abs() < 1e-9 * scale,
                    "len={sig_len} taps={n_taps} index {i}"
                );
            }
        }
    }

    #[test]
    fn convolve_into_reuses_buffers() {
        let mut rng = Rng64::new(6);
        let sig: Vec<C64> = (0..256).map(|_| rng.cn01()).collect();
        let taps: Vec<C64> = (0..48).map(|_| rng.cn01()).collect();
        let mut scratch = Scratch::new();
        let mut out = Vec::new();
        convolve_into(&sig, &taps, &mut out, &mut scratch);
        let expect = out.clone();
        let cap = out.capacity();
        let ptr = out.as_ptr();
        convolve_into(&sig, &taps, &mut out, &mut scratch);
        assert_eq!(out, expect, "second pass must be bit-identical");
        assert_eq!(out.capacity(), cap);
        assert_eq!(out.as_ptr(), ptr, "output buffer must be reused in place");
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert!(convolve(&[], &[C64::one()]).is_empty());
        assert!(convolve(&[C64::one()], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let mut x = vec![C64::zero(); 12];
        fft(&mut x);
    }
}
