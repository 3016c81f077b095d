//! The IAC testbed simulator and experiment harness.
//!
//! This crate reproduces the paper's evaluation (§10) end to end. It stands
//! in for the 20-node USRP deployment of Fig. 11: nodes are placed in a
//! simulated room, per-pair channels follow calibrated path loss plus
//! Rayleigh fading, and the §10(e) methodology is followed exactly — the
//! same timeslot budget is given to 802.11-MIMO (each client on its best AP,
//! TDMA) and to IAC (concurrent transmission groups), per-packet
//! post-processing SINRs are "measured", and rates come from Eq. 9.
//!
//! * [`testbed`] — node placement and per-experiment channel grids.
//! * [`experiment`] — the shared baseline-vs-IAC measurement loop.
//! * [`engine`] — the deterministic parallel trial runner: one panic-safe
//!   core over a scoped-thread worker pool, trial-indexed seed derivation,
//!   order-independent reduce (N-thread output is bit-identical to serial).
//! * [`registry`] — the unified scenario registry: every scenario behind
//!   one `(Quality, seed) → metrics` entry point, replicated through the
//!   engine and reduced to `mean ± 95 % CI` (see `docs/EXPERIMENTS.md`).
//! * [`stats`] — means, CDFs, scatter series, ASCII/CSV rendering.
//! * [`samplelevel`] — the full sample-level IAC decode chain on the
//!   `iac-phy` radio (training → alignment → concurrent packets → projection
//!   → Ethernet → cancellation → demodulation → CRC), used by the §6
//!   practicality experiments.
//! * [`scenarios`] — one module per paper artifact: Figs. 12, 13a/b, 14,
//!   15a/b, 16, the Lemma 5.1/5.2 bound checks, the §6 claims, the §7e
//!   overhead accounting, and the Fig. 17 clustered-mesh extension — plus
//!   the time-domain scenarios built on `iac-des` (dynamic-arrival campus
//!   uplink with churn; the offered-load latency sweep).
//! * [`netsim`] — plumbing for the time-domain scenarios: the calibrated
//!   SINR-pool PHY and the declarative component-graph builder, with
//!   live / recorded / replayed execution.
//! * [`desrec`] — record/replay plumbing for the DES scenarios: enumerate a
//!   trial's constituent runs, record each to an event log, replay under
//!   bit-exact verification, and reconstruct the trial's registry metrics
//!   from replayed outcomes (see `docs/DES.md` § "Record/replay").
//! * [`metrics`] — latency CDFs, sliding-window throughput, Jain fairness
//!   over a discrete-event run's raw records.
//! * [`obs`] — the telemetry route: a lane-scoped handle through which each
//!   layer writes its metrics straight into the sweep's `iac-obs` registry,
//!   plus the merged span profile and Chrome trace (strictly passive; see
//!   `docs/OBSERVABILITY.md`).
//! * [`cli`] — the sweep CLI engine (`examples/sweep.rs` is a thin
//!   wrapper): arg parsing and the run loop with an enforced
//!   stdout/stderr/export-file separation.

pub mod cli;
pub mod desrec;
pub mod engine;
pub mod experiment;
pub mod metrics;
pub mod netsim;
pub mod obs;
pub mod registry;
pub mod samplelevel;
pub mod scenarios;
pub mod stats;
pub mod testbed;

pub use engine::{Deadline, RunPlan, Trial, TrialPanic};
pub use experiment::{ExperimentConfig, ScatterPoint, DEFAULT_SEED};
pub use netsim::{CalibratedPhy, NetSim, NetSimOutcome, SourceSpec};
pub use obs::SweepObs;
pub use registry::{Quality, Scenario, ScenarioReport, TrialOutput};
pub use stats::Summary;
pub use testbed::Testbed;
