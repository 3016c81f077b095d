//! Wireless channel substrate for the IAC reproduction.
//!
//! The paper's testbed is 20 two-antenna USRP nodes in one room (Fig. 11) with
//! flat-fading channels: "the channel between each transmit-receive antenna
//! pair can be represented by a single complex number, whose magnitude refers
//! to the attenuation and phase refers to the delay along the path" (§6c).
//! This crate synthesises that world:
//!
//! * [`fading`] — Rayleigh block-fading MIMO channel draws, with
//!   conditioning guards (antennas spaced > λ/2 ⇒ invertible channels, paper
//!   footnote 3).
//! * [`pathloss`] — log-distance path loss and dB helpers, calibrated so the
//!   802.11-MIMO baseline lands in the 4–13 b/s/Hz band the paper observed.
//! * [`topology`] — node placement and per-link budgets for the 20-node room.
//! * [`time`] — AR(1) (Gauss–Markov) channel evolution across timeslots.
//! * [`offset`] — per-transmitter carrier frequency offsets (§6a).
//! * [`noise`] — AWGN sources and SNR accounting.
//! * [`estimation`] — least-squares channel estimation from training symbols
//!   and the estimation-error model used by the matrix-level experiments
//!   (§8: channels estimated from acks/association frames).
//! * [`reciprocity`] — TX/RX calibration matrices and the Eq. 8 uplink→
//!   downlink inference, with the Fig. 16 fractional-error metric.
//!
//! Conventions: a channel from a `t`-antenna transmitter to an `r`-antenna
//! receiver is an `r×t` matrix `H` acting on transmit vectors, `y = H·x + n`.
//! All powers are linear unless a name says `_db`.

pub mod estimation;
pub mod fading;
pub mod noise;
pub mod offset;
pub mod pathloss;
pub mod reciprocity;
pub mod time;
pub mod topology;

pub use estimation::{estimate_with_error, ls_estimate, CsiImpairment, EstimationConfig};
pub use fading::{rayleigh, well_conditioned_rayleigh};
pub use noise::Awgn;
pub use offset::Cfo;
pub use pathloss::{db_to_linear, linear_to_db, LogDistance};
pub use reciprocity::Calibration;
pub use time::Ar1Evolution;
pub use topology::{Position, Room};
