//! Zero-allocation DSP plumbing: the FFT planner and the scratch arena.
//!
//! The paper's §9 complexity argument — IAC is practical because the
//! per-sample work is a handful of complex multiply-adds — only holds if the
//! implementation does not spend its time in the allocator. This module
//! supplies the two pieces the hot sample path shares:
//!
//! * [`FftPlan`] — a radix-2 plan computed once per transform size: the
//!   bit-reversal permutation and the per-stage twiddle factors, serving both
//!   the forward and the inverse transform (the inverse twiddles are the
//!   conjugates, taken on the fly at zero cost).
//! * [`Scratch`] — a buffer arena threaded through the `_into` variants of
//!   the sample-plane operations. `take`/`put` recycle `Vec<C64>` buffers so
//!   a steady-state loop (precode → mix → project → cancel → OFDM) performs
//!   **zero** heap allocations once warm; `plan` caches one [`FftPlan`] per
//!   size.
//!
//! Allocation discipline (see `docs/PERFORMANCE.md`): every public `_into`
//! function in this crate writes into caller-owned buffers, grows them at
//! most once, and draws any temporaries it needs from the [`Scratch`] it is
//! handed. The allocating convenience signatures remain and simply delegate.

use iac_linalg::C64;

/// Reshape a stream-set buffer to exactly `antennas` outer streams, keeping
/// the inner buffers (and their capacity) that already exist. The shared
/// first step of every `_into` variant that writes per-antenna streams.
pub(crate) fn shape_streams(out: &mut Vec<Vec<C64>>, antennas: usize) {
    out.truncate(antennas);
    while out.len() < antennas {
        out.push(Vec::new());
    }
}

/// Fill `rot` with the CFO phasor recurrence `rot0, rot0·step, …` — one
/// serial product chain, computed once per transmission and then shared by
/// every antenna that applies it.
pub(crate) fn fill_phasors(rot: &mut [C64], rot0: C64, step: C64) {
    let mut r = rot0;
    for x in rot {
        *x = r;
        r *= step;
    }
}

/// A radix-2 decimation-in-time FFT plan for one power-of-two size.
///
/// Holds the bit-reversal permutation and the forward twiddle table
/// `w[k] = e^{-j2πk/n}` for `k < n/2`; stage `len` indexes it with stride
/// `n/len`, and the inverse transform conjugates on the fly, so one plan
/// serves both directions.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    /// For each index `i`, the bit-reversed partner `j` (only `j > i` pairs
    /// are stored as swaps; the rest are identity).
    swaps: Vec<(u32, u32)>,
    /// Forward twiddles `e^{-j2πk/n}`, `k ∈ [0, n/2)`.
    twiddles: Vec<C64>,
}

impl FftPlan {
    /// Plan a transform of size `n` (must be a power of two).
    pub(crate) fn new(n: usize) -> Self {
        assert!(n.is_power_of_two(), "FFT length {n} is not a power of two");
        let bits = n.trailing_zeros();
        let mut swaps = Vec::new();
        if n > 1 {
            for i in 0..n {
                let j = i.reverse_bits() >> (usize::BITS - bits);
                if j > i {
                    swaps.push((i as u32, j as u32));
                }
            }
        }
        let twiddles = (0..n / 2)
            .map(|k| C64::cis(-std::f64::consts::TAU * k as f64 / n as f64))
            .collect();
        Self { n, swaps, twiddles }
    }

    /// The transform size this plan serves.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// In-place forward FFT.
    pub fn fft(&self, x: &mut [C64]) {
        self.transform(x, false);
    }

    /// In-place inverse FFT (normalised by `1/n`).
    pub fn ifft(&self, x: &mut [C64]) {
        self.transform(x, true);
        let scale = 1.0 / self.n as f64;
        for v in x.iter_mut() {
            *v = v.scale(scale);
        }
    }

    fn transform(&self, x: &mut [C64], inverse: bool) {
        let n = self.n;
        assert_eq!(x.len(), n, "buffer length does not match plan size");
        if n <= 1 {
            return;
        }
        for &(i, j) in &self.swaps {
            x.swap(i as usize, j as usize);
        }
        if n == 2 {
            let (u, t) = (x[0], x[1]);
            x[0] = u + t;
            x[1] = u - t;
            return;
        }
        // Stages len = 2 and len = 4 fused into one multiply-free pass: the
        // only twiddles involved are 1 and ∓j, and ·(∓j) is a component swap
        // with a sign flip.
        for q in x.chunks_exact_mut(4) {
            let (s0, d0) = (q[0] + q[1], q[0] - q[1]);
            let (s1, d1) = (q[2] + q[3], q[2] - q[3]);
            let r1 = if inverse {
                C64::new(-d1.im, d1.re) // d1·(+j)
            } else {
                C64::new(d1.im, -d1.re) // d1·(−j)
            };
            q[0] = s0 + s1;
            q[1] = d0 + r1;
            q[2] = s0 - s1;
            q[3] = d0 - r1;
        }
        if inverse {
            self.stages::<true>(x);
        } else {
            self.stages::<false>(x);
        }
    }

    /// Butterfly stages from `len = 8` up, with the transform direction a
    /// compile-time constant so the twiddle conjugation costs nothing in the
    /// forward path.
    fn stages<const INVERSE: bool>(&self, x: &mut [C64]) {
        let n = self.n;
        let mut len = 8;
        while len <= n {
            let half = len / 2;
            let stride = n / len;
            for block in x.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                let mut tw = self.twiddles.iter().step_by(stride);
                for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                    let mut w = *tw.next().expect("twiddle table covers n/2");
                    if INVERSE {
                        w = w.conj();
                    }
                    let u = *l;
                    let t = h.mul_add(w, C64::zero());
                    *l = u + t;
                    *h = u - t;
                }
            }
            len <<= 1;
        }
    }
}

/// Reusable buffer arena for the sample plane.
///
/// One `Scratch` per run/thread; `_into` operations draw temporaries from it
/// and return them, so buffer capacity (and the FFT plans) survive across
/// calls. Taking a buffer moves it out of the arena — the borrow checker
/// never sees two live borrows — and `put` returns it for reuse.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<C64>>,
    plans: Vec<FftPlan>,
    stats: ScratchStats,
}

/// Cumulative arena counters (see `Scratch::stats`). Plain data: copy it
/// out, subtract two copies for a delta. A pool *hit* reuses a pooled
/// buffer; a *miss* allocates a fresh one. A plan hit finds the FFT plan
/// cached for that size; a miss computes (and caches) it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// `take`/`take_copy` calls served from the pool.
    pub pool_hits: u64,
    /// `take`/`take_copy` calls that had to allocate.
    pub pool_misses: u64,
    /// `plan` calls served from the cache.
    pub plan_hits: u64,
    /// `plan` calls that computed a new plan.
    pub plan_misses: u64,
}

impl ScratchStats {
    /// Counter-wise difference `self − earlier` (for per-phase deltas off a
    /// long-lived arena, e.g. the thread-local one).
    pub fn since(&self, earlier: &ScratchStats) -> ScratchStats {
        ScratchStats {
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            plan_hits: self.plan_hits - earlier.plan_hits,
            plan_misses: self.plan_misses - earlier.plan_misses,
        }
    }
}

impl Scratch {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Borrow a zero-filled buffer of length `len` from the pool (allocating
    /// only if no pooled buffer exists). Return it with [`Scratch::put`].
    pub fn take(&mut self, len: usize) -> Vec<C64> {
        let mut buf = self.draw();
        buf.clear();
        buf.resize(len, C64::zero());
        buf
    }

    /// Borrow a buffer initialised to a copy of `src` — like [`Scratch::take`]
    /// followed by `copy_from_slice`, but without the redundant zero-fill in
    /// between.
    pub fn take_copy(&mut self, src: &[C64]) -> Vec<C64> {
        let mut buf = self.draw();
        buf.clear();
        buf.extend_from_slice(src);
        buf
    }

    /// Pop a pooled buffer (hit) or start a fresh one (miss).
    fn draw(&mut self) -> Vec<C64> {
        match self.pool.pop() {
            Some(buf) => {
                self.stats.pool_hits += 1;
                buf
            }
            None => {
                self.stats.pool_misses += 1;
                Vec::new()
            }
        }
    }

    /// Return a buffer to the pool for reuse. Its contents are discarded;
    /// its capacity is kept.
    pub fn put(&mut self, buf: Vec<C64>) {
        self.pool.push(buf);
    }

    /// The cached plan for size `n`, computing it on first request.
    pub fn plan(&mut self, n: usize) -> &FftPlan {
        // Linear scan: a run touches a handful of sizes (64–1024).
        match self.plans.iter().position(|p| p.len() == n) {
            Some(i) => {
                self.stats.plan_hits += 1;
                &self.plans[i]
            }
            None => {
                self.stats.plan_misses += 1;
                self.plans.push(FftPlan::new(n));
                self.plans.last().unwrap()
            }
        }
    }

    /// Cumulative hit/miss counters since the arena was created.
    pub(crate) fn stats(&self) -> ScratchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_linalg::Rng64;

    /// Naive O(n²) DFT — an implementation-independent reference, so a
    /// planner bug cannot hide behind the plan-backed `fft()` delegates.
    fn naive_dft(x: &[C64], inverse: bool) -> Vec<C64> {
        let n = x.len();
        let sign = if inverse { 1.0 } else { -1.0 };
        let scale = if inverse { 1.0 / n as f64 } else { 1.0 };
        (0..n)
            .map(|k| {
                let mut acc = C64::zero();
                for (t, &v) in x.iter().enumerate() {
                    let ang = sign * std::f64::consts::TAU * (k * t % n) as f64 / n as f64;
                    acc += v * C64::cis(ang);
                }
                acc.scale(scale)
            })
            .collect()
    }

    #[test]
    fn plan_matches_naive_dft() {
        let mut rng = Rng64::new(1);
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let orig: Vec<C64> = (0..n).map(|_| rng.cn01()).collect();
            let plan = FftPlan::new(n);
            let mut fwd = orig.clone();
            plan.fft(&mut fwd);
            for (x, y) in fwd.iter().zip(&naive_dft(&orig, false)) {
                assert!((*x - *y).abs() < 1e-8 * n as f64, "forward n={n}");
            }
            let mut inv = orig.clone();
            plan.ifft(&mut inv);
            for (x, y) in inv.iter().zip(&naive_dft(&orig, true)) {
                assert!((*x - *y).abs() < 1e-8, "inverse n={n}");
            }
        }
    }

    #[test]
    fn plan_roundtrip_identity() {
        let mut rng = Rng64::new(2);
        let plan = FftPlan::new(128);
        let orig: Vec<C64> = (0..128).map(|_| rng.cn01()).collect();
        let mut x = orig.clone();
        plan.fft(&mut x);
        plan.ifft(&mut x);
        for (a, b) in x.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(12);
    }

    #[test]
    #[should_panic(expected = "does not match plan size")]
    fn plan_rejects_wrong_buffer() {
        let plan = FftPlan::new(8);
        let mut x = vec![C64::zero(); 16];
        plan.fft(&mut x);
    }

    #[test]
    fn scratch_recycles_capacity() {
        let mut s = Scratch::new();
        let buf = s.take(512);
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        s.put(buf);
        let again = s.take(100);
        assert_eq!(again.as_ptr(), ptr, "pool must hand back the same buffer");
        assert_eq!(again.capacity(), cap);
        assert!(again.iter().all(|&z| z == C64::zero()));
        s.put(again);
        assert_eq!(s.pool.len(), 1);
    }

    #[test]
    fn scratch_stats_count_hits_and_misses() {
        let mut s = Scratch::new();
        assert_eq!(s.stats(), ScratchStats::default());
        let a = s.take(8); // empty pool: miss
        let b = s.take_copy(&a); // still empty: miss
        s.put(a);
        s.put(b);
        let c = s.take(16); // pooled: hit
        s.put(c);
        assert_eq!(s.stats().pool_misses, 2);
        assert_eq!(s.stats().pool_hits, 1);
        s.plan(64); // first size: miss
        s.plan(64); // cached: hit
        s.plan(128); // new size: miss
        let st = s.stats();
        assert_eq!((st.plan_hits, st.plan_misses), (1, 2));
        // Delta accounting off a long-lived arena.
        let before = s.stats();
        s.plan(64);
        let d = s.stats().since(&before);
        assert_eq!(
            d,
            ScratchStats {
                plan_hits: 1,
                ..ScratchStats::default()
            }
        );
    }

    #[test]
    fn scratch_caches_plans_per_size() {
        let mut s = Scratch::new();
        let _ = s.plan(64);
        let _ = s.plan(256);
        let _ = s.plan(64);
        assert_eq!(s.plans.len(), 2);
    }
}
