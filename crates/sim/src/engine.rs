//! The deterministic parallel experiment engine.
//!
//! The paper's §10 methodology is Monte Carlo: every figure is dozens of
//! random role picks, and the statistical claims ("IAC's rate is on average
//! 1.5×") only firm up with many independent channel realizations. This
//! module turns one scenario run into `replicates` independent **trials**
//! and spreads them over a scoped-thread worker pool — while keeping the
//! result **bit-identical to a serial run**, whatever the thread count.
//!
//! Determinism rests on two rules:
//!
//! 1. **Trial-indexed seeding.** Trial `i` of a run with master seed `m`
//!    always computes with [`Rng64::derive_seed`]`(m, i)`. A trial's output
//!    is a pure function of `(m, i)` — no shared RNG, no dependence on which
//!    worker ran it or when.
//! 2. **Order-independent reduction.** Workers claim trial-index **ranges**
//!    from a shared atomic cursor and keep `(index, output)` pairs locally;
//!    the reducer merges the per-worker shards and sorts by trial index
//!    before any aggregation. The reduce input is therefore the same
//!    sequence a single thread would have produced.
//!
//! The claiming is **chunked work-stealing** (guided self-scheduling): each
//! claim takes `remaining / (4 · workers)` trials, at least one — big chunks
//! early so per-claim synchronisation amortises and each worker's
//! thread-local scratch arenas (FFT plans, pooled buffers — see
//! [`iac_phy::fft`]) stay warm across a run of trials,
//! geometrically shrinking toward the end so an unlucky run of slow trials
//! cannot idle the other workers. The caller's own thread acts as worker
//! lane 0 — one fewer spawn, and the lane with the warmest arena (it
//! persists across engine runs) always participates.
//!
//! [`run`] is the one entry point. Its [`RunPlan`] names an **exact** worker
//! count, a cooperative [`Deadline`], and the registry to observe into, if
//! any. Callers that start from a *requested* thread count clamp it first
//! with `effective_workers` (the registry does): workers beyond the core count
//! cannot run concurrently and only add spawn/switch overhead and cold
//! arenas (outputs are bit-identical at every worker count, so the clamp is
//! unobservable in results). Tests and scaling studies pass an exact count.
//! One worker runs every trial on the calling thread, with no thread scope.
//!
//! A panicking trial never takes the run down: the panic is caught, the
//! lanes stop claiming trials above it, and [`run`] reports the
//! lowest-index panic as a [`TrialPanic`] next to the completed prefix.
//!
//! An observing lane opens its thread's `obs` handle on the plan's
//! registry while it drains (see [`crate::obs::observing`]), so every layer
//! below the trial writes its metrics straight into it; the lane itself
//! writes its scratch-arena delta and the worker count. Only the lane's
//! span profile and trace events (one `"trial"` span per trial, with its
//! duration) travel back in its shard.
//!
//! Construction of non-[`Send`] machinery (e.g. the `Rc`-based metrics log
//! of `iac-des` simulations) happens *inside* the worker closure, so only
//! the plain-data outputs ever cross a thread boundary.

use iac_linalg::Rng64;
use iac_obs::{ProfileTree, Profiler, Registry, TraceEvent};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A cooperative wall-clock deadline, shared by the trial engine
/// ([`RunPlan::deadline`]), the sweep CLI's `--timeout-secs`, and the
/// `iac-serve` daemon's per-request deadlines.
///
/// A deadline is only ever *checked between units of work* (between
/// replicates here, between queue claims in the daemon) — a trial that has
/// started always runs to completion, so partial results are whole trials
/// and stay bit-faithful to what an unbounded run would have produced for
/// those trial indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// The unbounded deadline: never expires.
    pub fn none() -> Self {
        Deadline { at: None }
    }

    /// Expire `d` from now. A `d` too far out to be an instant on this
    /// clock is unbounded.
    pub fn after(d: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(d),
        }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        self.at.is_some_and(|at| Instant::now() >= at)
    }
}

/// One unit of work for the pool: a replicate index and the seed that
/// replicate must use — everything a worker needs, nothing more. The
/// registry builds these via [`trials_for`] before fanning out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    /// Replicate number within the scenario, `0..replicates`.
    pub replicate: usize,
    /// Derived seed: `Rng64::derive_seed(scenario_master, replicate)`.
    pub seed: u64,
}

/// Build the trial list for one scenario: replicate `i` gets the seed
/// derived from the scenario's master seed at stream index `i`.
pub fn trials_for(master_seed: u64, replicates: usize) -> Vec<Trial> {
    (0..replicates)
        .map(|replicate| Trial {
            replicate,
            seed: Rng64::derive_seed(master_seed, replicate as u64),
        })
        .collect()
}

/// Parse an `IAC_TEST_THREADS` value. The variable being *set* always
/// yields a definite worker count: a positive integer is taken as-is, and
/// `0`, negative, or garbage values clamp to 1 (a mis-set CI matrix cell
/// must degrade to serial, not silently fall through to "all cores").
fn threads_from_env(raw: &str) -> usize {
    raw.trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Resolve a requested worker count: `0` means "pick for me" — the
/// `IAC_TEST_THREADS` environment variable if set (the CI matrix runs the
/// suite at 1 and 4; `0` or unparsable values clamp to 1, see
/// `threads_from_env`), otherwise the machine's available parallelism.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("IAC_TEST_THREADS") {
        return threads_from_env(&v);
    }
    available_cores()
}

/// The machine's available parallelism (1 when unknown).
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The worker count for `n` trials at a requested thread count:
/// [`resolve_threads`], then clamped to the machine's cores (oversubscribed
/// workers cannot run concurrently — they only add spawn overhead and cold
/// thread-local arenas) and to the trial count. Outputs are bit-identical
/// at every worker count, so the clamp never changes results — only
/// wall-clock.
pub(crate) fn effective_workers(requested: usize, n: usize) -> usize {
    resolve_threads(requested)
        .min(available_cores())
        .clamp(1, n.max(1))
}

/// Geometric chunk divisor: each claim takes `remaining / (4·workers)`
/// trials. 4 chunks per worker on the first lap keeps the tail granular
/// enough that one slow chunk cannot idle the pool for long, while the
/// first claims are large enough to amortise the CAS and keep a worker's
/// scratch arena hot across a run of consecutive trials.
const CHUNK_DIVISOR: usize = 4;

/// Claim the next index range from the shared cursor: geometrically
/// shrinking chunks, never empty, `None` once the cursor passes `n`.
fn claim_chunk(cursor: &AtomicUsize, n: usize, workers: usize) -> Option<Range<usize>> {
    loop {
        let start = cursor.load(Ordering::Acquire);
        if start >= n {
            return None;
        }
        let size = ((n - start) / (CHUNK_DIVISOR * workers)).max(1);
        if cursor
            .compare_exchange_weak(start, start + size, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            return Some(start..start + size);
        }
    }
}

/// How [`run`] executes a batch of trials.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan<'a> {
    /// Exact worker count, clamped to `1..=n` only (see
    /// `effective_workers`). Lane 0 is the calling thread.
    pub workers: usize,
    /// Checked before each trial starts; a started trial always finishes.
    pub deadline: Deadline,
    /// The registry to observe into; `None` runs unobserved.
    pub observe: Option<&'a Arc<Registry>>,
}

/// A trial that panicked: its index and its panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialPanic {
    /// Trial index within the run.
    pub replicate: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

/// What [`run`] returns.
#[derive(Debug)]
pub struct RunOutcome<T> {
    /// Outputs of the completed prefix `0..k`, in trial order. Only `k`
    /// depends on timing (deadline) or on a panic.
    pub outputs: Vec<T>,
    /// Whether all `n` trials completed.
    pub complete: bool,
    /// The lowest-index panic; the completed prefix ends just below it.
    pub panic: Option<TrialPanic>,
    /// The lanes' merged span profile (one `"trial"` span per trial);
    /// empty when the plan did not observe or spans are compiled out.
    pub profile: ProfileTree,
    /// One trace event per trial, in lane order; empty like `profile`.
    pub trace: Vec<TraceEvent>,
}

/// Run one trial, catching a panic as its message. The engine's lanes and
/// the `iac-serve` pool's workers both isolate trials through here.
pub fn catch_trial<T>(trial: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(trial)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        }
    })
}

/// The claim state every lane of one [`run`] shares.
struct Claims {
    cursor: AtomicUsize,
    n: usize,
    workers: usize,
    deadline: Deadline,
    /// Lowest trial index seen to panic (`usize::MAX`: none yet). Lanes stop
    /// at chunks above it but run every trial below it, so the reported
    /// panic is the lowest panicking index whatever the interleaving.
    lowest_panic: AtomicUsize,
}

impl Claims {
    /// One lane's claim loop: drain chunks off the cursor and keep `(index,
    /// output)` pairs locally, until the deadline or past a panic.
    fn drain<T>(&self, mut trial: impl FnMut(usize) -> T) -> Shard<T> {
        // Per-trial reads stay off the cursor's contended cache line.
        let deadline = self.deadline;
        let mut outputs = Vec::new();
        let mut panic = None;
        while let Some(range) = claim_chunk(&self.cursor, self.n, self.workers) {
            if range.start > self.lowest_panic.load(Ordering::Relaxed) {
                break;
            }
            // One capture per chunk: every trial before the one that unwinds
            // has pushed its output, so the count names the panicking trial.
            let (start, before) = (range.start, outputs.len());
            let chunk = catch_trial(|| {
                if deadline == Deadline::none() {
                    // No clock read in the loop: it would cost the trivial
                    // trials of the dispatch micro-benchmark about a third.
                    for i in range {
                        outputs.push((i, trial(i)));
                    }
                    return true;
                }
                for i in range {
                    if deadline.expired() {
                        return false;
                    }
                    outputs.push((i, trial(i)));
                }
                true
            });
            match chunk {
                Ok(true) => {}
                Ok(false) => break,
                Err(message) => {
                    // Lanes claim ascending indices: the rest lies above it.
                    let replicate = start + outputs.len() - before;
                    self.lowest_panic.fetch_min(replicate, Ordering::Relaxed);
                    panic = Some(TrialPanic { replicate, message });
                    break;
                }
            }
        }
        Shard {
            outputs,
            panic,
            profile: ProfileTree::default(),
            trace: Vec::new(),
        }
    }

    /// [`Claims::drain`] as an observing lane: the thread's `obs` handle is
    /// open on `registry` and each trial runs inside a `"trial"` span. Then
    /// the lane writes its scratch-arena delta (read here, on the lane's own
    /// thread: the arena is thread-local and outlives the run, so only the
    /// delta is attributable) and the worker count.
    fn drain_observed<T>(
        &self,
        lane: u32,
        origin: Instant,
        registry: &Arc<Registry>,
        trial: impl Fn(usize) -> T,
    ) -> Shard<T> {
        let prof = Profiler::with_trace(lane, origin);
        let scratch_before = iac_phy::fft::thread_scratch_stats();
        let shard = crate::obs::observing(registry, || {
            self.drain(|i| {
                let _span = iac_obs::span!(prof, "trial");
                trial(i)
            })
        });
        let s = iac_phy::fft::thread_scratch_stats().since(&scratch_before);
        let c = |name: &str, v: u64| registry.counter(name).add(v);
        c("phy.scratch.pool_hits", s.pool_hits);
        c("phy.scratch.pool_misses", s.pool_misses);
        c("phy.scratch.plan_hits", s.plan_hits);
        c("phy.scratch.plan_misses", s.plan_misses);
        registry
            .gauge("engine.workers")
            .observe(self.workers as u64);
        Shard {
            profile: prof.tree(),
            trace: prof.take_trace_events(),
            ..shard
        }
    }
}

/// One lane's harvest, shipped back to the reducer.
struct Shard<T> {
    outputs: Vec<(usize, T)>,
    panic: Option<TrialPanic>,
    profile: ProfileTree,
    trace: Vec<TraceEvent>,
}

/// Run trials `0..n` as `plan` says and return the completed prefix **in
/// trial order** — bit-identical to the first `k` of `(0..n).map(f)` for
/// every worker count, provided `f(i)` is a pure function of `i`.
///
/// Workers check the deadline **before starting** each trial; a lane may
/// abandon the tail of its chunk at expiry (or past a panic), so the reducer
/// keeps the longest contiguous prefix. Observation never influences the
/// outputs.
pub fn run<T, F>(n: usize, plan: &RunPlan, f: F) -> RunOutcome<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = plan.workers.clamp(1, n.max(1));
    let claims = Claims {
        cursor: AtomicUsize::new(0),
        n,
        workers,
        deadline: plan.deadline,
        lowest_panic: AtomicUsize::new(usize::MAX),
    };
    let origin = Instant::now();
    let lane = |id: u32| match plan.observe {
        None => claims.drain(&f),
        Some(registry) => claims.drain_observed(id, origin, registry, &f),
    };
    let shards = if workers == 1 {
        vec![lane(0)]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers as u32)
                .map(|id| {
                    let lane = &lane;
                    scope.spawn(move || lane(id))
                })
                .collect();
            // The caller is lane 0: no spawn for it, and its thread-local
            // scratch arena (warm from previous runs) serves a share of trials.
            let mut shards = vec![lane(0)];
            for h in handles {
                // Trial panics are caught inside the lane; anything reaching
                // here is an engine fault, so it propagates as-is.
                shards.push(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            shards
        })
    };

    // The order-independent reduce: whatever interleaving the workers saw,
    // the caller observes trial order.
    let mut merged: Vec<(usize, T)> = Vec::new();
    let mut panic: Option<TrialPanic> = None;
    let (mut profile, mut trace) = (ProfileTree::default(), Vec::new());
    for shard in shards {
        if merged.is_empty() {
            merged = shard.outputs;
        } else {
            merged.extend(shard.outputs);
        }
        panic = panic
            .into_iter()
            .chain(shard.panic)
            .min_by_key(|p| p.replicate);
        profile.merge(&shard.profile);
        trace.extend(shard.trace);
    }
    merged.sort_by_key(|&(i, _)| i);
    // Indices are distinct, so all `n` present means the prefix is whole.
    let k = if merged.len() == n {
        n
    } else {
        merged
            .iter()
            .enumerate()
            .take_while(|&(k, &(i, _))| i == k)
            .count()
    };
    merged.truncate(k);
    RunOutcome {
        outputs: merged.into_iter().map(|(_, t)| t).collect(),
        complete: k == n,
        panic,
        profile,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iac_obs::metrics::Snapshot;

    fn plan(workers: usize, deadline: Deadline) -> RunPlan<'static> {
        RunPlan {
            workers,
            deadline,
            observe: None,
        }
    }

    /// Outputs of an unbounded, unobserved run on an exact worker count.
    fn run_on<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let done = run(n, &plan(workers, Deadline::none()), f);
        assert!(done.complete && done.panic.is_none() && done.trace.is_empty());
        done.outputs
    }

    /// Outputs and completeness of a run under `deadline`.
    fn run_until<T: Send>(
        n: usize,
        workers: usize,
        deadline: Deadline,
        f: impl Fn(usize) -> T + Sync,
    ) -> (Vec<T>, bool) {
        let done = run(n, &plan(workers, deadline), f);
        (done.outputs, done.complete)
    }

    /// An observed, unbounded run and the snapshot of the registry it
    /// wrote into.
    fn observed<T: Send>(
        n: usize,
        workers: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> (RunOutcome<T>, Snapshot) {
        let registry = Arc::new(Registry::new());
        let plan = RunPlan {
            observe: Some(&registry),
            ..plan(workers, Deadline::none())
        };
        let done = run(n, &plan, f);
        (done, registry.snapshot())
    }

    /// Plan-cache lookups (hits, misses) an observed run's lanes made.
    fn plan_lookups(snap: &Snapshot) -> (u64, u64) {
        let c = |name| snap.counter(name).expect("lanes write scratch counters");
        (c("phy.scratch.plan_hits"), c("phy.scratch.plan_misses"))
    }

    #[test]
    fn trial_order_is_restored_for_every_worker_count() {
        // Exact worker counts above the machine's cores: this test must
        // exercise real multi-worker chunk claiming even on a single-core
        // container.
        let serial: Vec<u64> = (0..37)
            .map(|i| Rng64::derive(9, i as u64).next_u64())
            .collect();
        for workers in [1, 2, 3, 7, 16] {
            let parallel = run_on(37, workers, |i| Rng64::derive(9, i as u64).next_u64());
            assert_eq!(parallel, serial, "workers = {workers}");
        }
        // Counts clamped to the machine agree too.
        for threads in [0, 1, 2, 7] {
            let clamped = run_on(37, effective_workers(threads, 37), |i| {
                Rng64::derive(9, i as u64).next_u64()
            });
            assert_eq!(clamped, serial, "threads = {threads}");
        }
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        // The CAS claim loop must partition 0..n whatever the contention:
        // replay it single-threaded and check the geometric sizes.
        let n = 1000;
        let workers = 4;
        let cursor = AtomicUsize::new(0);
        let mut seen = vec![0u32; n];
        let mut last_size = usize::MAX;
        while let Some(r) = claim_chunk(&cursor, n, workers) {
            assert!(!r.is_empty());
            assert!(
                r.len() <= last_size,
                "chunks must shrink (or stay) over time"
            );
            last_size = r.len();
            for i in r {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every index claimed exactly once"
        );
        // First claim of 1000 trials on 4 workers: 1000/16 = 62.
        assert_eq!(last_size, 1, "the tail degenerates to single-trial chunks");
    }

    #[test]
    fn uneven_trial_costs_still_reduce_in_order() {
        // Early trials sleep, late ones return immediately: workers finish
        // out of order, the reducer must not care.
        let out = run_on(12, 4, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i * 10
        });
        assert_eq!(out, (0..12).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_one_trials_work() {
        for workers in [1, 4] {
            assert_eq!(run_on(0, workers, |i| i), Vec::<usize>::new());
            assert_eq!(run_on(1, workers, |i| i + 1), vec![1]);
        }
    }

    #[test]
    fn trials_for_uses_the_derivation_contract() {
        let ts = trials_for(77, 4);
        assert_eq!(ts.len(), 4);
        for (i, t) in ts.iter().enumerate() {
            assert_eq!(t.replicate, i);
            assert_eq!(t.seed, Rng64::derive_seed(77, i as u64));
        }
    }

    #[test]
    fn explicit_thread_request_wins_over_env() {
        assert_eq!(resolve_threads(5), 5);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn env_var_edge_cases_clamp_to_one() {
        // The CI matrix exports IAC_TEST_THREADS; a mis-set cell must mean
        // "serial", never "all cores". (Pure parser — process-env mutation
        // is racy under the parallel test harness.)
        assert_eq!(threads_from_env("4"), 4);
        assert_eq!(threads_from_env(" 2 "), 2, "whitespace is trimmed");
        assert_eq!(threads_from_env("0"), 1, "zero clamps to serial");
        assert_eq!(threads_from_env("-3"), 1, "negative clamps to serial");
        assert_eq!(threads_from_env(""), 1, "empty clamps to serial");
        assert_eq!(threads_from_env("garbage"), 1, "garbage clamps to serial");
        assert_eq!(threads_from_env("2.5"), 1, "non-integer clamps to serial");
    }

    #[test]
    fn effective_workers_clamps_to_cores_and_trials() {
        let cores = available_cores();
        assert_eq!(effective_workers(1, 100), 1);
        assert!(effective_workers(1024, 100) <= cores);
        assert_eq!(
            effective_workers(4, 2),
            2.min(cores),
            "never more workers than trials"
        );
        assert_eq!(
            effective_workers(4, 0),
            1,
            "zero trials still needs one lane"
        );
    }

    #[test]
    fn observed_outputs_match_plain_for_every_worker_count() {
        let serial: Vec<u64> = (0..23)
            .map(|i| Rng64::derive(3, i as u64).next_u64())
            .collect();
        for workers in [1, 2, 4] {
            let (done, snap) = observed(23, workers, |i| Rng64::derive(3, i as u64).next_u64());
            assert_eq!(done.outputs, serial, "workers = {workers}");
            assert_eq!(snap.gauge("engine.workers"), Some(workers as u64));
            if iac_obs::ENABLED {
                assert_eq!(done.trace.len(), 23, "one trace event per trial");
                let lanes: Vec<u32> = done.trace.iter().map(|e| e.lane).collect();
                assert!(lanes.is_sorted(), "trace events come back in lane order");
                assert_eq!(done.profile.roots.len(), 1);
                assert_eq!(done.profile.roots[0].name, "trial");
                assert_eq!(done.profile.roots[0].count, 23);
            } else {
                assert!(done.trace.is_empty(), "spans compile out");
                assert!(done.profile.roots.is_empty());
            }
        }
    }

    #[test]
    fn unbounded_deadline_runs_everything() {
        let (out, complete) = run_until(9, 3, Deadline::none(), |i| i * 2);
        assert!(complete);
        assert_eq!(out, (0..9).map(|i| i * 2).collect::<Vec<_>>());
        assert!(!Deadline::none().expired());
    }

    #[test]
    fn expired_deadline_stops_between_trials() {
        // Already-expired deadline: zero trials run (serial and parallel) —
        // the k == 0 corner of the contiguous-prefix contract.
        for workers in [1, 4] {
            let past = Deadline::after(Duration::ZERO);
            assert!(past.expired());
            let (out, complete) = run_until(8, workers, past, |i| i);
            assert!(!complete, "workers = {workers}");
            assert!(out.is_empty(), "workers = {workers}");
        }
    }

    #[test]
    fn partial_results_are_the_contiguous_prefix() {
        // Slow trials against a short deadline: whatever completes must be
        // the prefix 0..k with the same values an unbounded run produces.
        // Worker counts above 2 exercise mid-chunk abandonment: a lane that
        // gives up inside its claimed range leaves a hole the reducer must
        // truncate at.
        for workers in [1, 3, 4] {
            let (out, complete) = run_until(
                64,
                workers,
                Deadline::after(Duration::from_millis(30)),
                |i| {
                    std::thread::sleep(Duration::from_millis(4));
                    i * 7
                },
            );
            assert!(
                !complete,
                "64 * 4ms cannot fit in 30ms (workers = {workers})"
            );
            assert!(out.len() < 64);
            assert_eq!(out, (0..out.len()).map(|i| i * 7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn deadline_prefix_at_four_workers_matches_serial_byte_for_byte() {
        // Regression test for the partial-prefix contract at 4 workers: the
        // prefix must be bit-identical to the serial prefix (u64 outputs are
        // compared exactly), across many deadline positions so k sweeps the
        // full range — including k == 0 (expired before the first trial) and
        // k == n (deadline after the last).
        let n = 48;
        let serial: Vec<u64> = (0..n)
            .map(|i| Rng64::derive(13, i as u64).next_u64())
            .collect();
        let trial = |i: usize| {
            std::thread::sleep(Duration::from_micros(300));
            Rng64::derive(13, i as u64).next_u64()
        };
        // k == 0: already expired.
        let (out, complete) = run_until(n, 4, Deadline::after(Duration::ZERO), trial);
        assert!(!complete);
        assert_eq!(out, Vec::<u64>::new());
        // k == n: generous deadline completes and matches serial exactly.
        let (out, complete) = run_until(n, 4, Deadline::after(Duration::from_secs(3600)), trial);
        assert!(complete);
        assert_eq!(out, serial);
        // Mid-run expiry at several horizons: every partial is the exact
        // serial prefix (bit-identical u64s), whatever k lands on.
        for ms in [1u64, 3, 7] {
            let (out, complete) =
                run_until(n, 4, Deadline::after(Duration::from_millis(ms)), trial);
            assert_eq!(out.as_slice(), &serial[..out.len()], "horizon {ms}ms");
            assert_eq!(complete, out.len() == n, "horizon {ms}ms");
        }
    }

    #[test]
    fn generous_deadline_completes_and_matches_unbounded() {
        let serial: Vec<u64> = (0..11)
            .map(|i| Rng64::derive(5, i as u64).next_u64())
            .collect();
        let (out, complete) = run_until(11, 2, Deadline::after(Duration::from_secs(3600)), |i| {
            Rng64::derive(5, i as u64).next_u64()
        });
        assert!(complete);
        assert_eq!(out, serial);
    }

    #[test]
    fn observed_scratch_deltas_are_per_run() {
        // A trial that exercises the thread-local FFT arena must show up in
        // its lane's delta — and only the delta, not the thread's lifetime
        // totals (the arena persists across runs on one thread).
        let (_, first) = observed(2, 1, |_| {
            let mut x = vec![iac_linalg::C64::one(); 64];
            iac_phy::fft::fft(&mut x);
        });
        let (_, second) = observed(2, 1, |_| {
            let mut x = vec![iac_linalg::C64::one(); 64];
            iac_phy::fft::fft(&mut x);
        });
        let total = |snap: &Snapshot| {
            let (hits, misses) = plan_lookups(snap);
            hits + misses
        };
        assert_eq!(total(&first), 2);
        assert_eq!(
            total(&second),
            2,
            "second run reports its own delta, not the cumulative total"
        );
    }

    #[test]
    fn caller_thread_is_lane_zero_and_keeps_its_arena_warm() {
        // Lane 0 runs on the calling thread: its scratch delta accumulates
        // on *this* thread's arena. Two observed runs back to back — the
        // second run's plan lookups hit the cache the first run warmed,
        // proving per-worker plan reuse across engine runs.
        let trial = |_i: usize| {
            let mut x = vec![iac_linalg::C64::one(); 32];
            iac_phy::fft::fft(&mut x);
        };
        // Warm the calling thread's arena: after this, plan(32) is cached
        // on *this* thread, so any trial lane 0 claims must be a plan hit.
        trial(0);
        let before = iac_phy::fft::thread_scratch_stats();
        let (_, snap) = observed(3, 2, trial);
        let on_caller = iac_phy::fft::thread_scratch_stats().since(&before);
        assert_eq!(
            on_caller.plan_misses, 0,
            "lane 0 reuses the plan the calling thread cached before the run"
        );
        // Lane 1 runs on a fresh thread: the trials lane 0 left it miss
        // once (if there are any) and hit after that.
        let (hits, misses) = plan_lookups(&snap);
        assert_eq!(
            hits + misses,
            3,
            "the lanes' deltas sum to the run's lookups"
        );
        let lane1_trials = 3 - on_caller.plan_hits;
        assert_eq!(misses, u64::from(lane1_trials > 0));
        // One worker: the registry holds exactly the calling thread's delta.
        let before = iac_phy::fft::thread_scratch_stats();
        let (_, snap) = observed(3, 1, trial);
        let on_caller = iac_phy::fft::thread_scratch_stats().since(&before);
        assert_eq!(
            plan_lookups(&snap),
            (on_caller.plan_hits, on_caller.plan_misses)
        );
        assert_eq!(plan_lookups(&snap), (3, 0));
    }

    #[test]
    fn overflowing_deadline_is_unbounded() {
        // Outside input (`--timeout-secs 18446744073709551615`) must not
        // panic: a duration past the clock's range never expires.
        let far = Deadline::after(Duration::from_secs(u64::MAX));
        assert_eq!(far, Deadline::none());
        assert!(!far.expired());
        assert_ne!(Deadline::after(Duration::from_secs(3600)), Deadline::none());
    }

    #[test]
    fn lowest_panic_is_reported_with_the_same_prefix_at_every_worker_count() {
        // Trials 5 and 9 panic: every worker count must report trial 5 and
        // the outputs of 0..5, and the calling thread must survive it.
        let trial = |i: usize| {
            if i == 5 || i == 9 {
                panic!("trial {i} failed");
            }
            Rng64::derive(21, i as u64).next_u64()
        };
        let prefix: Vec<u64> = (0..5)
            .map(|i| Rng64::derive(21, i as u64).next_u64())
            .collect();
        let registry = Arc::new(Registry::new());
        for workers in [1, 2, 4] {
            for observe in [false, true] {
                let plan = RunPlan {
                    observe: observe.then_some(&registry),
                    ..plan(workers, Deadline::none())
                };
                let done = run(16, &plan, trial);
                assert_eq!(
                    done.panic,
                    Some(TrialPanic {
                        replicate: 5,
                        message: "trial 5 failed".to_string()
                    }),
                    "workers = {workers}, observe = {observe}"
                );
                assert_eq!(
                    done.outputs, prefix,
                    "workers = {workers}, observe = {observe}"
                );
                assert!(!done.complete);
            }
        }
    }

    #[test]
    fn catch_trial_keeps_the_message() {
        assert_eq!(catch_trial(|| 7), Ok(7));
        assert_eq!(
            catch_trial(|| -> u8 { panic!("boom") }),
            Err("boom".to_string())
        );
        let n = 3;
        assert_eq!(
            catch_trial(|| -> u8 { panic!("boom {n}") }),
            Err("boom 3".to_string())
        );
        assert_eq!(
            catch_trial(|| -> u8 { std::panic::panic_any(42u32) }),
            Err("non-string panic payload".to_string())
        );
    }
}
