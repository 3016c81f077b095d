//! The building blocks of the extended-PCF protocol (paper §7.1, Fig. 9).
//!
//! Each contention-free period (CFP):
//!
//! 1. the leader broadcasts a **Beacon** carrying the *previous* CFP's
//!    uplink ACK map (uplink acks are deferred because APs decode
//!    successively and cannot ack synchronously);
//! 2. the leader steps through **downlink transmission groups**: a DATA+Poll
//!    broadcast (client ids + encoding/decoding vectors) followed by the
//!    concurrent data and synchronous client acks; a missing ack triggers an
//!    immediate retransmission request to the leader;
//! 3. then **uplink groups**: a Grant broadcast, concurrent Data+Req frames,
//!    and Ethernet forwarding of every decoded packet (which is also what
//!    enables cancellation at later APs);
//! 4. a **CF-End** closes the CFP; the constant-length contention period
//!    follows (association and legacy traffic).
//!
//! The protocol itself runs in simulated time as `iac_des::pcf::EventPcf`.
//! This module holds what it is parameterised by: the [`PcfConfig`], the
//! group former [`form_group`] and its [`GroupPlan`], and the pluggable PHY
//! [`PhyOutcome`] with its [`PacketResult`], so the protocol logic can be
//! tested deterministically and driven by the matrix-level IAC decoder in
//! `iac-sim`.

use crate::queue::{QueuedPacket, TrafficQueue};
use iac_linalg::Rng64;

/// Result of one packet inside a transmission group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketResult {
    /// Served client.
    pub client: u16,
    /// Sequence number.
    pub seq: u16,
    /// Post-processing SINR the PHY measured.
    pub sinr: f64,
    /// Whether the packet decoded (CRC passed).
    pub ok: bool,
    /// AP that decoded it (uplink) or transmitted it (downlink).
    pub ap: u16,
}

/// The pluggable PHY: given the clients of a transmission group, report how
/// each packet fared.
pub trait PhyOutcome {
    /// A downlink group (one packet per client).
    fn downlink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult>;
    /// An uplink group (one packet per client; the PHY may deliver more
    /// packets than clients if a client uploads two — it reports one result
    /// per *packet*).
    fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult>;
    /// Fault-injection hook: the channel-state feedback the PHY decodes with
    /// has aged to `slots` slots (0 = fresh). PHYs that model CSI aging
    /// override this; the default ignores it, so scripted test PHYs are
    /// unaffected.
    fn csi_aged(&mut self, _slots: u16) {}
}

/// Static protocol parameters.
#[derive(Debug, Clone)]
pub struct PcfConfig {
    /// Cooperating APs (leader is AP 0).
    pub n_aps: u16,
    /// Transmission-group size in clients (3 for the paper's testbed).
    pub group_size: usize,
    /// Upper bound on groups per CFP per direction (bounds CFP duration).
    pub max_groups_per_cfp: usize,
    /// Payload bytes per data packet.
    pub payload_bytes: usize,
    /// Retransmission attempts before a packet is dropped.
    pub retx_limit: u8,
    /// Contention-period length in slots (constant, §7.1a).
    pub cp_slots: u16,
}

impl Default for PcfConfig {
    fn default() -> Self {
        Self {
            n_aps: 3,
            group_size: 3,
            max_groups_per_cfp: 16,
            payload_bytes: 1440,
            retx_limit: 4,
            cp_slots: 10,
        }
    }
}

/// One transmission group popped from a queue: `packets[i]` is carried by
/// `clients[i]`. Clients repeat when `streams_per_client > 1` (a client
/// spatially multiplexing several packets in the same airtime, as in plain
/// 802.11-MIMO).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupPlan {
    /// One entry per packet, in service order.
    pub clients: Vec<u16>,
    /// The packets, aligned with `clients`.
    pub packets: Vec<QueuedPacket>,
}

/// Assemble one transmission group from `queue`: the FIFO head's client and
/// the next `group_size − 1` clients in queue order (§7.2's FIFO grouping),
/// then pop up to `streams_per_client` packets per grouped client. Returns
/// `None` when the queue is empty.
pub fn form_group(
    queue: &mut TrafficQueue,
    group_size: usize,
    streams_per_client: usize,
) -> Option<GroupPlan> {
    let members = queue.clients().len().min(group_size.max(1));
    if members == 0 {
        return None;
    }
    let streams = streams_per_client.max(1);
    let room = members * streams;
    let mut plan = GroupPlan {
        clients: Vec::with_capacity(room),
        packets: Vec::with_capacity(room),
    };
    // Popping reorders the queue's client list, so note the members first;
    // `clients` is rebuilt from the packets below.
    plan.clients.extend_from_slice(&queue.clients()[..members]);
    for i in 0..members {
        let c = plan.clients[i];
        for _ in 0..streams {
            let Some(p) = queue.pop_for_client(c) else {
                break;
            };
            plan.packets.push(p);
        }
    }
    plan.clients.clear();
    plan.clients.extend(plan.packets.iter().map(|p| p.client));
    Some(plan)
}
