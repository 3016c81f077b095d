//! Interference Alignment and Cancellation — the paper's core contribution.
//!
//! IAC lets a set of Ethernet-connected APs decode more concurrent packets
//! than any of them has antennas. Transmitters precode each packet with an
//! *encoding vector* chosen so that, at one designated AP, all but a few
//! packets collapse onto a shared low-dimensional subspace (**interference
//! alignment**). That AP decodes its packet(s) by projecting orthogonally to
//! the aligned interference, ships the decoded bits over the wire, and every
//! later AP subtracts the reconstructed signal (**interference
//! cancellation**) before doing its own projection. Neither technique alone
//! decodes the Fig. 2 scenario; the chain does.
//!
//! Module map:
//!
//! * [`grid`] — channel containers for multi-client/multi-AP topologies.
//! * [`schedule`] — decode schedules (who decodes what, in which order) and
//!   their degrees-of-freedom feasibility accounting (§5).
//! * [`closed_form`] — the paper's closed-form alignment solutions: three and
//!   four packets on the uplink (Eqs. 2–4 + footnote 4), three packets on the
//!   downlink (Eqs. 5–7), and the general-M downlink construction of
//!   Lemma 5.1.
//! * [`solver`] — an iterative interference-leakage-minimising solver for
//!   arbitrary configurations; verifies the Lemma 5.1/5.2 bounds numerically
//!   for any antenna count.
//! * [`decoder`] — the cross-AP successive decode chain at the matrix level,
//!   producing per-packet post-processing SINRs under imperfect channel
//!   estimates (encoding vectors and cancellation both use estimates, as in
//!   the real system).
//! * [`rate`] — Eq. 9 achievable rates.
//! * [`baseline`] — the 802.11-MIMO comparison point: eigenmode precoding
//!   with water-filling (QUALCOMM's proposal \[2\]) plus best-AP selection.
//! * [`diversity`] — the 1-client/2-AP option search of §10.2 (Fig. 14).
//! * [`feasibility`] — the Lemma 5.1/5.2 closed-form bounds.

pub mod baseline;
pub mod closed_form;
pub mod decoder;
pub mod diversity;
pub mod feasibility;
pub mod grid;
pub mod optimize;
pub mod rate;
pub mod schedule;
pub mod solver;

pub use baseline::{best_ap_rate, eigenmode_rate, waterfill};
pub use decoder::{DecodeOutcome, IacDecoder, PacketSinr};
pub use feasibility::{max_downlink_packets, max_uplink_packets};
pub use grid::{ChannelGrid, Direction};
pub use schedule::{DecodeSchedule, DecodeStep};
pub use solver::{AlignmentProblem, AlignmentSolution, SolverConfig};
