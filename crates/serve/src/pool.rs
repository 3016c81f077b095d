//! The persistent worker pool: panic isolation, worker-loss detection,
//! respawn, and deadline-aware batch execution.
//!
//! Workers are plain OS threads pulling [`Job`]s off one shared FIFO. Each
//! trial runs under the trial engine's panic capture
//! ([`iac_sim::engine::catch_trial`]), so a panicking scenario produces an
//! `Err(message)` reply and the worker survives to take the next job.
//! Worker *loss* (simulated by [`JobKind::Kill`], which makes the worker
//! exit its loop without replying — the moral equivalent of a
//! `pthread_kill` mid-trial) is detected through the reply channel: every
//! in-flight job holds the only clones of its batch's reply sender, so a
//! dead worker dropping its job eventually disconnects the channel and the
//! collector reports [`BatchError::WorkerLost`] instead of hanging.
//! [`WorkerPool::respawn_dead`] then tops the pool back up.
//!
//! [`run_batch`] is the determinism-preserving scheduler the daemon uses:
//! replicates are submitted in index order with at most `workers`
//! outstanding, submission stops when the deadline expires (cooperative
//! cancellation — nothing is interrupted mid-trial), and in-flight work is
//! always drained. The completed set is therefore a **contiguous prefix**
//! `0..k` of the replicate indices — exactly the first `k` trials of an
//! unbounded run, which is what makes partial (timeout) reports meaningful
//! and complete runs bit-identical to `registry::run_scenario`.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use iac_sim::engine::{catch_trial, Deadline, TrialPanic};
use iac_sim::registry::{Quality, TrialOutput};

/// What a worker should do.
pub enum JobKind {
    /// Run one replicate of a scenario.
    Trial {
        /// Scenario entry point (`registry::Scenario::run`).
        run: fn(Quality, u64) -> TrialOutput,
        /// Trial sizing.
        quality: Quality,
        /// This replicate's derived seed.
        seed: u64,
        /// Replicate index within the batch.
        index: usize,
    },
    /// Chaos injection: the worker thread exits immediately *without
    /// replying*, simulating a killed/crashed worker.
    Kill,
}

/// One unit of work plus the channel to report back on.
pub struct Job {
    /// What to do.
    pub kind: JobKind,
    /// Reply channel for this job's batch.
    pub reply: Sender<JobResult>,
}

/// A worker's reply.
pub struct JobResult {
    /// Replicate index the job carried.
    pub index: usize,
    /// The trial's output, or its panic message (the worker survived).
    pub outcome: Result<TrialOutput, String>,
}

fn worker_loop(queue: Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the queue lock only for the dequeue itself; trials run
        // unlocked, so N workers really do run N trials concurrently (the
        // concurrency smoke in tests/concurrency.rs pins this).
        let job = {
            let rx = queue.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else {
            return; // pool shut down: queue sender dropped
        };
        match job.kind {
            JobKind::Kill => return, // drops `job` (and its reply sender) unreplied
            JobKind::Trial {
                run,
                quality,
                seed,
                index,
            } => {
                let outcome = catch_trial(|| run(quality, seed));
                // A dropped batch receiver (request already answered) is fine.
                let _ = job.reply.send(JobResult { index, outcome });
            }
        }
    }
}

/// A fixed-size pool of panic-isolated workers over one shared job queue.
/// All methods take `&self`; internal state is synchronized so the socket
/// path can serve requests from many connection threads at once.
pub struct WorkerPool {
    inject: Mutex<Sender<Job>>,
    queue: Arc<Mutex<Receiver<Job>>>,
    handles: Mutex<Vec<JoinHandle<()>>>,
    workers: usize,
}

impl WorkerPool {
    /// Spawn `workers` (≥ 1 enforced) worker threads.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (inject, rx) = mpsc::channel::<Job>();
        let queue = Arc::new(Mutex::new(rx));
        let handles = (0..workers)
            .map(|_| {
                let q = Arc::clone(&queue);
                std::thread::spawn(move || worker_loop(q))
            })
            .collect();
        WorkerPool {
            inject: Mutex::new(inject),
            queue,
            handles: Mutex::new(handles),
            workers,
        }
    }

    /// Configured pool size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Enqueue one job (FIFO; any live worker may take it).
    pub fn submit(&self, job: Job) {
        let tx = self.inject.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let _ = tx.send(job);
    }

    /// Count workers whose threads have exited (killed via chaos).
    pub fn dead_workers(&self) -> usize {
        self.handles
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|h| h.is_finished())
            .count()
    }

    /// Replace every dead worker with a fresh thread on the same queue.
    /// Returns how many were respawned.
    pub fn respawn_dead(&self) -> usize {
        let mut handles = self.handles.lock().unwrap_or_else(|e| e.into_inner());
        let mut respawned = 0;
        for h in handles.iter_mut() {
            if h.is_finished() {
                let q = Arc::clone(&self.queue);
                let fresh = std::thread::spawn(move || worker_loop(q));
                let dead = std::mem::replace(h, fresh);
                let _ = dead.join();
                respawned += 1;
            }
        }
        respawned
    }

    /// Drain: stop accepting jobs, let queued/in-flight work finish, join
    /// every worker. Nothing submitted before the call is lost.
    pub fn shutdown(self) {
        {
            // Replace the real sender with one whose receiver is already
            // gone, then drop the real one so workers see Disconnected once
            // the queue empties.
            let (dummy, _) = mpsc::channel();
            let mut inject = self.inject.lock().unwrap_or_else(|e| e.into_inner());
            *inject = dummy;
        }
        let handles = std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// Why a batch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchError {
    /// A replicate panicked; the request fails with a typed error.
    Panicked(TrialPanic),
    /// A worker died mid-batch without replying.
    WorkerLost,
}

/// Outcome of [`run_batch`].
pub struct BatchOutcome {
    /// Completed trial outputs, replicate order — always a contiguous
    /// prefix of the requested indices (empty on error).
    pub outputs: Vec<TrialOutput>,
    /// `false` iff the deadline expired before every replicate ran.
    pub complete: bool,
    /// Typed failure, if any.
    pub error: Option<BatchError>,
}

/// Run `seeds.len()` replicates of `run` on the pool under `deadline`,
/// calling `on_replicate(index, output)` for each completed replicate in
/// strict index order as the contiguous completed prefix grows.
///
/// When `kill` is set (chaos), Kill jobs are submitted instead of trials —
/// at most one per configured worker so none can strand in an empty pool.
pub fn run_batch(
    pool: &WorkerPool,
    run: fn(Quality, u64) -> TrialOutput,
    quality: Quality,
    seeds: &[u64],
    deadline: Deadline,
    kill: bool,
    mut on_replicate: impl FnMut(usize, &TrialOutput),
) -> BatchOutcome {
    let total = if kill {
        seeds.len().min(pool.workers())
    } else {
        seeds.len()
    };
    if total == 0 {
        return BatchOutcome {
            outputs: Vec::new(),
            complete: true,
            error: None,
        };
    }
    let (reply_tx, reply_rx) = mpsc::channel::<JobResult>();
    let mut reply_tx = Some(reply_tx);
    let window = pool.workers();
    let mut next = 0usize; // next index to submit
    let mut received = 0usize;
    let mut streamed = 0usize; // replicates handed to on_replicate so far
    let mut slots: Vec<Option<TrialOutput>> = Vec::new();
    slots.resize_with(total, || None);
    let mut first_panic: Option<TrialPanic> = None;
    let mut timed_out = false;

    loop {
        // Submit in index order, never more than `window` outstanding, and
        // never after a deadline expiry or a panic (cooperative stop).
        while next < total && next - received < window && !timed_out && first_panic.is_none() {
            if deadline.expired() {
                timed_out = true;
                break;
            }
            let kind = if kill {
                JobKind::Kill
            } else {
                JobKind::Trial {
                    run,
                    quality,
                    seed: seeds[next],
                    index: next,
                }
            };
            let tx = reply_tx.as_ref().expect("sender alive while submitting");
            pool.submit(Job {
                kind,
                reply: tx.clone(),
            });
            next += 1;
        }
        // Once no further submission can happen, drop our sender so the
        // only remaining clones ride on in-flight jobs: if a worker dies
        // and drops one, recv() disconnects instead of hanging forever.
        if next >= total || timed_out || first_panic.is_some() {
            reply_tx = None;
        }
        if received == next {
            break; // every submitted job drained
        }
        match reply_rx.recv() {
            Ok(JobResult { index, outcome }) => {
                received += 1;
                match outcome {
                    Ok(out) => {
                        slots[index] = Some(out);
                        while streamed < total {
                            match &slots[streamed] {
                                Some(out) => {
                                    on_replicate(streamed, out);
                                    streamed += 1;
                                }
                                None => break,
                            }
                        }
                    }
                    Err(message) => {
                        first_panic.get_or_insert(TrialPanic {
                            replicate: index,
                            message,
                        });
                    }
                }
            }
            Err(_) => {
                // All senders gone with replies outstanding: a worker died.
                return BatchOutcome {
                    outputs: Vec::new(),
                    complete: false,
                    error: Some(BatchError::WorkerLost),
                };
            }
        }
    }

    if let Some(panic) = first_panic {
        return BatchOutcome {
            outputs: Vec::new(),
            complete: false,
            error: Some(BatchError::Panicked(panic)),
        };
    }
    // No panic and fully drained ⇒ every submitted index completed, and
    // submissions were sequential ⇒ contiguous prefix.
    let outputs: Vec<TrialOutput> = slots.into_iter().flatten().collect();
    debug_assert_eq!(outputs.len(), next);
    debug_assert_eq!(streamed, outputs.len());
    BatchOutcome {
        complete: outputs.len() == seeds.len() && !kill,
        outputs,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ok_trial(_q: Quality, seed: u64) -> TrialOutput {
        TrialOutput {
            metrics: vec![("seed_mod", (seed % 97) as f64)],
        }
    }

    fn panicky(_q: Quality, seed: u64) -> TrialOutput {
        if seed % 2 == 1 {
            panic!("injected panic for seed {seed}");
        }
        ok_trial(_q, seed)
    }

    #[test]
    fn batch_completes_and_streams_in_order() {
        let pool = WorkerPool::new(4);
        let seeds: Vec<u64> = (0..16).map(|i| i * 31 + 5).collect();
        let mut streamed = Vec::new();
        let out = run_batch(
            &pool,
            ok_trial,
            Quality::Quick,
            &seeds,
            Deadline::none(),
            false,
            |i, t| streamed.push((i, t.metrics[0].1)),
        );
        assert!(out.complete);
        assert!(out.error.is_none());
        assert_eq!(out.outputs.len(), 16);
        assert_eq!(streamed.len(), 16);
        for (i, (idx, v)) in streamed.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, (seeds[i] % 97) as f64);
        }
        pool.shutdown();
    }

    #[test]
    fn panic_is_typed_and_workers_survive() {
        let pool = WorkerPool::new(2);
        let seeds = [2, 4, 7, 8]; // seed 7 panics
        let out = run_batch(
            &pool,
            panicky,
            Quality::Quick,
            &seeds,
            Deadline::none(),
            false,
            |_, _| {},
        );
        match out.error {
            Some(BatchError::Panicked(TrialPanic { replicate, message })) => {
                assert_eq!(replicate, 2);
                assert!(message.contains("injected panic for seed 7"), "{message}");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
        // The capture means nobody died; the pool serves the next batch.
        assert_eq!(pool.dead_workers(), 0);
        let ok = run_batch(
            &pool,
            ok_trial,
            Quality::Quick,
            &[10, 20],
            Deadline::none(),
            false,
            |_, _| {},
        );
        assert!(ok.complete && ok.error.is_none());
        pool.shutdown();
    }

    #[test]
    fn kill_disconnects_typed_and_respawn_restores() {
        let pool = WorkerPool::new(2);
        let out = run_batch(
            &pool,
            ok_trial,
            Quality::Quick,
            &[1, 2, 3, 4, 5],
            Deadline::none(),
            true,
            |_, _| {},
        );
        assert_eq!(out.error, Some(BatchError::WorkerLost));
        assert!(!out.complete);
        // Both workers took a Kill (5 requested, capped at pool size 2).
        while pool.dead_workers() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pool.respawn_dead(), 2);
        assert_eq!(pool.dead_workers(), 0);
        let ok = run_batch(
            &pool,
            ok_trial,
            Quality::Quick,
            &[10, 20, 30],
            Deadline::none(),
            false,
            |_, _| {},
        );
        assert!(ok.complete && ok.error.is_none());
        assert_eq!(ok.outputs.len(), 3);
        pool.shutdown();
    }

    #[test]
    fn expired_deadline_yields_empty_partial_not_hang() {
        let pool = WorkerPool::new(2);
        let out = run_batch(
            &pool,
            ok_trial,
            Quality::Quick,
            &[1, 2, 3],
            Deadline::after(Duration::ZERO),
            false,
            |_, _| {},
        );
        assert!(!out.complete);
        assert!(out.error.is_none());
        assert!(out.outputs.is_empty());
        pool.shutdown();
    }

    #[test]
    fn slow_trials_drain_as_contiguous_prefix_under_deadline() {
        fn slow(_q: Quality, seed: u64) -> TrialOutput {
            std::thread::sleep(Duration::from_millis(8));
            ok_trial(_q, seed)
        }
        let pool = WorkerPool::new(2);
        let seeds: Vec<u64> = (0..64).collect();
        let out = run_batch(
            &pool,
            slow,
            Quality::Quick,
            &seeds,
            Deadline::after(Duration::from_millis(40)),
            false,
            |_, _| {},
        );
        assert!(!out.complete, "64×8ms on 2 workers cannot fit in 40ms");
        assert!(out.error.is_none());
        let k = out.outputs.len();
        assert!(k > 0 && k < 64, "partial prefix expected, got {k}");
        for (i, t) in out.outputs.iter().enumerate() {
            assert_eq!(t.metrics[0].1, (seeds[i] % 97) as f64, "prefix must be contiguous");
        }
        pool.shutdown();
    }
}
