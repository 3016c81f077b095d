//! # iac-lan — Interference Alignment and Cancellation
//!
//! A full-system reproduction of *"Interference Alignment and Cancellation"*
//! (Gollakota, Perli, Katabi — SIGCOMM 2009): the PHY-layer alignment and
//! cancellation machinery, the extended-PCF MAC, a sample-level software
//! radio, and the 20-node testbed simulator that regenerates every figure of
//! the paper's evaluation.
//!
//! This crate is an umbrella re-exporting the workspace members:
//!
//! * [`linalg`] — complex vectors/matrices, LU/QR/eigen/SVD, seeded RNG.
//! * [`channel`] — Rayleigh fading, path loss, CFO, AWGN, estimation,
//!   reciprocity calibration.
//! * [`phy`] — modulation, framing, preambles, precoding, the multi-
//!   transmitter medium, projection, cancellation, OFDM, FEC.
//! * [`core`] — alignment solvers (closed-form and iterative), decode
//!   schedules, the cross-AP decoder, feasibility bounds, the 802.11-MIMO
//!   baseline and the diversity option search.
//! * [`mac`] — wire formats, the Ethernet hub (with an optional wire-timing
//!   model), bounded traffic queues, airtime accounting, concurrency
//!   policies, and the extended-PCF protocol simulation.
//! * [`des`] — the deterministic discrete-event engine: simulated time,
//!   stochastic traffic sources, and the event-driven extended-PCF MAC.
//! * [`obs`] — zero-overhead telemetry: atomic metric registry, scoped span
//!   profiling, Chrome-trace export; compiles out entirely without its
//!   `enabled` feature (see `docs/OBSERVABILITY.md`).
//! * [`sim`] — the testbed, the per-figure experiment scenarios, the
//!   time-domain (latency/churn/offered-load) scenarios, and the
//!   deterministic parallel experiment engine with its unified scenario
//!   registry (`examples/sweep.rs` is the CLI).
//! * [`serve`] — the fault-tolerant experiment daemon: JSON-lines
//!   protocol on stdin/Unix socket, panic-isolating worker pool,
//!   cooperative deadlines, backpressure with graceful degradation, and
//!   a crash-safe content-addressed result cache (see `docs/SERVE.md`;
//!   `examples/serve.rs` is the CLI).
//!
//! ## Quickstart
//!
//! ```
//! use iac_lan::prelude::*;
//!
//! // Two 2-antenna clients, two 2-antenna APs, three concurrent packets.
//! let mut rng = Rng64::new(7);
//! let grid = ChannelGrid::random(Direction::Uplink, 2, 2, 2, 2, &mut rng);
//! let config = closed_form::uplink3(&grid, &mut rng).unwrap();
//! let powers = equal_split_powers(&config.schedule, 1.0);
//! let outcome = IacDecoder {
//!     true_grid: &grid,
//!     est_grid: &grid,
//!     schedule: &config.schedule,
//!     encoding: &config.encoding,
//!     packet_power: powers,
//!     noise_power: 0.01,
//! }
//! .decode()
//! .unwrap();
//! // Three packets decoded by two 2-antenna APs — beyond the
//! // antennas-per-AP limit of point-to-point MIMO.
//! assert_eq!(outcome.sinrs.len(), 3);
//! assert!(outcome.min_sinr() > 1.0);
//! ```

pub use iac_channel as channel;
pub use iac_core as core;
pub use iac_des as des;
pub use iac_linalg as linalg;
pub use iac_mac as mac;
pub use iac_obs as obs;
pub use iac_phy as phy;
pub use iac_serve as serve;
pub use iac_sim as sim;

/// The most commonly used items in one import.
pub mod prelude {
    pub use iac_channel::estimation::EstimationConfig;
    pub use iac_channel::{Awgn, Cfo, Room};
    pub use iac_core::closed_form;
    pub use iac_core::decoder::{equal_split_powers, DecodeOutcome, IacDecoder};
    pub use iac_core::grid::{ChannelGrid, Direction};
    pub use iac_core::optimize;
    pub use iac_core::schedule::DecodeSchedule;
    pub use iac_core::solver::{AlignmentProblem, SolverConfig};
    pub use iac_des::{EventPcf, EventPcfConfig, SimTime, Simulation};
    pub use iac_linalg::{CMat, CVec, Rng64, C64};
    pub use iac_sim::experiment::{ExperimentConfig, DEFAULT_SEED};
    pub use iac_sim::registry::{self, Quality};
    pub use iac_sim::Testbed;
}
