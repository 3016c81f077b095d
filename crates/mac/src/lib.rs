//! IAC's medium access control (paper §7).
//!
//! IAC moves all coordination complexity into the APs: one *leader AP*
//! arbitrates the medium by extending 802.11's Point Coordination Function
//! (PCF). Time is divided into contention-free periods (CFPs), during which
//! the leader steps through *transmission groups* — sets of clients served
//! concurrently via IAC — and a constant-length contention period (CP) for
//! association and legacy traffic. Clients stay dumb: they learn their
//! encoding/decoding vectors from the leader's broadcasts and are oblivious
//! to how many APs cooperate behind the scenes.
//!
//! * [`frames`] — wire formats: Beacon (with the deferred uplink ACK map),
//!   DATA+Poll metadata (Fig. 10), Grant, Data+Req, CF-End; quantised
//!   encoding/decoding vectors; the §7e metadata-overhead accounting.
//! * [`ethernet`] — the hub backplane: every decoded packet is broadcast
//!   exactly once to the other APs (§7d), annotated with channel updates and
//!   loss reports.
//! * [`queue`] — per-direction FIFO traffic queues, optionally bounded with
//!   tail-drop counting.
//! * [`airtime`] — frame-size → on-air-duration accounting for the
//!   discrete-event simulator (`iac-des`).
//! * [`concurrency`] — the three grouping policies of §7.2/§10.3: brute
//!   force, FIFO order, and best-of-two-choices with credit counters.
//! * [`pcf`] — what the CFP/CP protocol is built from: its parameters, the
//!   transmission-group former, and the pluggable PHY outcome model (the
//!   matrix-level decoder or a stub). The protocol runs in simulated time
//!   as `iac_des::pcf::EventPcf`.

pub mod airtime;
pub mod concurrency;
pub mod ethernet;
pub mod frames;
pub mod pcf;
pub mod queue;

pub use airtime::Airtime;
pub use concurrency::{BestOfTwo, BruteForce, FifoPolicy, GroupPolicy};
pub use ethernet::{Annotation, Hub, WireModel, WirePacket};
pub use frames::{Beacon, CfEnd, DataPoll, DataReqHeader, Grant, MacFrame, PollEntry, VectorQ};
pub use pcf::{form_group, GroupPlan, PacketResult, PcfConfig, PhyOutcome};
pub use queue::{QueuedPacket, TrafficQueue};
