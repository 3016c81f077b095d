//! Event-driven network components: the shared event vocabulary, per-client
//! traffic sources, and the wired sinks behind the Ethernet backplane.
//!
//! A scenario wires these around the event-driven MAC in [`crate::pcf`]:
//! sources feed `Arrival` events to the MAC, the MAC feeds `WireDeliver`
//! events to the sinks through the latency-modelled hub, and client churn is
//! expressed as externally scheduled `Join`/`Leave` events to the sources.

use crate::log::codec::{self, CodecError, EventCodec};
use crate::metrics::SharedMetrics;
use crate::simulation::{Ctx, EventHandler};
use crate::time::SimTime;
use crate::traffic::ArrivalProcess;
use bytes::{BufMut, Bytes, BytesMut};
use iac_mac::pcf::{GroupPlan, PacketResult};
use iac_mac::queue::QueuedPacket;

/// The one event vocabulary every component of the network model speaks.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEvent {
    /// Source self-tick: its next packet is due.
    SourceTick,
    /// Activate a traffic source (client association / churn join).
    Join,
    /// Deactivate a traffic source (client churn leave).
    Leave,
    /// A packet offered to the MAC's queues.
    Arrival {
        /// Originating (uplink) or destination (downlink) client.
        client: u16,
        /// Per-client sequence number.
        seq: u16,
        /// Direction: uplink (client → wired network) or downlink.
        uplink: bool,
    },
    /// MAC self-event: a contention-free period begins.
    CfpStart,
    /// MAC self-event: the beacon finished transmitting.
    BeaconDone,
    /// MAC self-event: a transmission group's airtime elapsed.
    GroupDone {
        /// Direction of the group.
        uplink: bool,
        /// The group as formed from the queue.
        plan: GroupPlan,
        /// The PHY's verdict per packet (resolved when the group started).
        results: Vec<PacketResult>,
    },
    /// A forwarded uplink packet completing delivery at an AP's wire port.
    WireDeliver {
        /// AP that decoded and forwarded the packet.
        from_ap: u16,
        /// Client the packet came from.
        client: u16,
        /// Its sequence number.
        seq: u16,
    },
    /// Fault injection: an AP crashes (stops decoding, transmitting, and
    /// forwarding until it recovers).
    ApDown {
        /// The crashed AP.
        ap: u16,
    },
    /// Fault injection: a crashed AP recovers.
    ApUp {
        /// The recovered AP.
        ap: u16,
    },
    /// Fault injection: the inter-AP backhaul partitions — no wire
    /// forwarding (and therefore no joint IAC decoding) until it heals.
    BackhaulDown,
    /// Fault injection: the backhaul partition heals.
    BackhaulUp,
    /// Fault injection: reconfigure the wire impairment (applies until the
    /// next `WireImpair`; zeros restore the clean wire).
    WireImpair {
        /// Per-attempt loss probability in parts per million.
        loss_ppm: u32,
        /// Per-delivery corruption probability in parts per million.
        corrupt_ppm: u32,
    },
    /// Fault injection: channel-state feedback has aged by `slots` slots
    /// (zero restores fresh CSI).
    CsiStale {
        /// Current staleness in slots.
        slots: u16,
    },
    /// Fault-injector self-event: the next scheduled fault is due.
    FaultTick,
}

// Payload variant tags for the event-log codec (stable wire contract; new
// variants append, existing tags never renumber).
const NE_SOURCE_TICK: u8 = 0;
const NE_JOIN: u8 = 1;
const NE_LEAVE: u8 = 2;
const NE_ARRIVAL: u8 = 3;
const NE_CFP_START: u8 = 4;
const NE_BEACON_DONE: u8 = 5;
const NE_GROUP_DONE: u8 = 6;
const NE_WIRE_DELIVER: u8 = 7;
const NE_AP_DOWN: u8 = 8;
const NE_AP_UP: u8 = 9;
const NE_BACKHAUL_DOWN: u8 = 10;
const NE_BACKHAUL_UP: u8 = 11;
const NE_WIRE_IMPAIR: u8 = 12;
const NE_CSI_STALE: u8 = 13;
const NE_FAULT_TICK: u8 = 14;

fn put_bool(buf: &mut BytesMut, v: bool) {
    buf.put_u8(v as u8);
}

fn get_bool(b: &mut Bytes, ctx: &'static str) -> Result<bool, CodecError> {
    match codec::get_u8(b, ctx)? {
        0 => Ok(false),
        1 => Ok(true),
        v => Err(CodecError::BadPayload(format!("{ctx}: bad bool byte {v}"))),
    }
}

fn get_len(b: &mut Bytes, ctx: &'static str) -> Result<usize, CodecError> {
    Ok(codec::get_u32(b, ctx)? as usize)
}

impl EventCodec for NetEvent {
    fn encode_payload(&self, buf: &mut BytesMut) {
        match self {
            NetEvent::SourceTick => buf.put_u8(NE_SOURCE_TICK),
            NetEvent::Join => buf.put_u8(NE_JOIN),
            NetEvent::Leave => buf.put_u8(NE_LEAVE),
            NetEvent::Arrival {
                client,
                seq,
                uplink,
            } => {
                buf.put_u8(NE_ARRIVAL);
                buf.put_u16(*client);
                buf.put_u16(*seq);
                put_bool(buf, *uplink);
            }
            NetEvent::CfpStart => buf.put_u8(NE_CFP_START),
            NetEvent::BeaconDone => buf.put_u8(NE_BEACON_DONE),
            NetEvent::GroupDone {
                uplink,
                plan,
                results,
            } => {
                buf.put_u8(NE_GROUP_DONE);
                put_bool(buf, *uplink);
                buf.put_u32(plan.clients.len() as u32);
                for &c in &plan.clients {
                    buf.put_u16(c);
                }
                buf.put_u32(plan.packets.len() as u32);
                for p in &plan.packets {
                    buf.put_u16(p.client);
                    buf.put_u16(p.seq);
                    buf.put_u32(p.bytes as u32);
                }
                buf.put_u32(results.len() as u32);
                for r in results {
                    buf.put_u16(r.client);
                    buf.put_u16(r.seq);
                    // IEEE bit pattern: encode → decode is bit-exact.
                    buf.put_u64(r.sinr.to_bits());
                    put_bool(buf, r.ok);
                    buf.put_u16(r.ap);
                }
            }
            NetEvent::WireDeliver {
                from_ap,
                client,
                seq,
            } => {
                buf.put_u8(NE_WIRE_DELIVER);
                buf.put_u16(*from_ap);
                buf.put_u16(*client);
                buf.put_u16(*seq);
            }
            NetEvent::ApDown { ap } => {
                buf.put_u8(NE_AP_DOWN);
                buf.put_u16(*ap);
            }
            NetEvent::ApUp { ap } => {
                buf.put_u8(NE_AP_UP);
                buf.put_u16(*ap);
            }
            NetEvent::BackhaulDown => buf.put_u8(NE_BACKHAUL_DOWN),
            NetEvent::BackhaulUp => buf.put_u8(NE_BACKHAUL_UP),
            NetEvent::WireImpair {
                loss_ppm,
                corrupt_ppm,
            } => {
                buf.put_u8(NE_WIRE_IMPAIR);
                buf.put_u32(*loss_ppm);
                buf.put_u32(*corrupt_ppm);
            }
            NetEvent::CsiStale { slots } => {
                buf.put_u8(NE_CSI_STALE);
                buf.put_u16(*slots);
            }
            NetEvent::FaultTick => buf.put_u8(NE_FAULT_TICK),
        }
    }

    fn decode_payload(b: &mut Bytes) -> Result<Self, CodecError> {
        match codec::get_u8(b, "NetEvent tag")? {
            NE_SOURCE_TICK => Ok(NetEvent::SourceTick),
            NE_JOIN => Ok(NetEvent::Join),
            NE_LEAVE => Ok(NetEvent::Leave),
            NE_ARRIVAL => Ok(NetEvent::Arrival {
                client: codec::get_u16(b, "Arrival.client")?,
                seq: codec::get_u16(b, "Arrival.seq")?,
                uplink: get_bool(b, "Arrival.uplink")?,
            }),
            NE_CFP_START => Ok(NetEvent::CfpStart),
            NE_BEACON_DONE => Ok(NetEvent::BeaconDone),
            NE_GROUP_DONE => {
                let uplink = get_bool(b, "GroupDone.uplink")?;
                let n_clients = get_len(b, "GroupDone.clients.len")?;
                let mut clients = Vec::with_capacity(n_clients);
                for _ in 0..n_clients {
                    clients.push(codec::get_u16(b, "GroupDone.clients[]")?);
                }
                let n_packets = get_len(b, "GroupDone.packets.len")?;
                let mut packets = Vec::with_capacity(n_packets);
                for _ in 0..n_packets {
                    packets.push(QueuedPacket {
                        client: codec::get_u16(b, "GroupDone.packet.client")?,
                        seq: codec::get_u16(b, "GroupDone.packet.seq")?,
                        bytes: codec::get_u32(b, "GroupDone.packet.bytes")? as usize,
                    });
                }
                let n_results = get_len(b, "GroupDone.results.len")?;
                let mut results = Vec::with_capacity(n_results);
                for _ in 0..n_results {
                    results.push(PacketResult {
                        client: codec::get_u16(b, "GroupDone.result.client")?,
                        seq: codec::get_u16(b, "GroupDone.result.seq")?,
                        sinr: f64::from_bits(codec::get_u64(b, "GroupDone.result.sinr")?),
                        ok: get_bool(b, "GroupDone.result.ok")?,
                        ap: codec::get_u16(b, "GroupDone.result.ap")?,
                    });
                }
                Ok(NetEvent::GroupDone {
                    uplink,
                    plan: GroupPlan { clients, packets },
                    results,
                })
            }
            NE_WIRE_DELIVER => Ok(NetEvent::WireDeliver {
                from_ap: codec::get_u16(b, "WireDeliver.from_ap")?,
                client: codec::get_u16(b, "WireDeliver.client")?,
                seq: codec::get_u16(b, "WireDeliver.seq")?,
            }),
            NE_AP_DOWN => Ok(NetEvent::ApDown {
                ap: codec::get_u16(b, "ApDown.ap")?,
            }),
            NE_AP_UP => Ok(NetEvent::ApUp {
                ap: codec::get_u16(b, "ApUp.ap")?,
            }),
            NE_BACKHAUL_DOWN => Ok(NetEvent::BackhaulDown),
            NE_BACKHAUL_UP => Ok(NetEvent::BackhaulUp),
            NE_WIRE_IMPAIR => Ok(NetEvent::WireImpair {
                loss_ppm: codec::get_u32(b, "WireImpair.loss_ppm")?,
                corrupt_ppm: codec::get_u32(b, "WireImpair.corrupt_ppm")?,
            }),
            NE_CSI_STALE => Ok(NetEvent::CsiStale {
                slots: codec::get_u16(b, "CsiStale.slots")?,
            }),
            NE_FAULT_TICK => Ok(NetEvent::FaultTick),
            tag => Err(CodecError::BadPayload(format!(
                "unknown NetEvent tag {tag}"
            ))),
        }
    }

    fn kind(&self) -> &'static str {
        match self {
            NetEvent::SourceTick => "SourceTick",
            NetEvent::Join => "Join",
            NetEvent::Leave => "Leave",
            NetEvent::Arrival { .. } => "Arrival",
            NetEvent::CfpStart => "CfpStart",
            NetEvent::BeaconDone => "BeaconDone",
            NetEvent::GroupDone { .. } => "GroupDone",
            NetEvent::WireDeliver { .. } => "WireDeliver",
            NetEvent::ApDown { .. } => "ApDown",
            NetEvent::ApUp { .. } => "ApUp",
            NetEvent::BackhaulDown => "BackhaulDown",
            NetEvent::BackhaulUp => "BackhaulUp",
            NetEvent::WireImpair { .. } => "WireImpair",
            NetEvent::CsiStale { .. } => "CsiStale",
            NetEvent::FaultTick => "FaultTick",
        }
    }
}

/// A per-client packet generator driving one direction of traffic.
///
/// The source arms a self-tick per arrival (gaps drawn from its
/// [`ArrivalProcess`] through the simulation RNG), emits an `Arrival` to the
/// MAC on each tick, and stops generating at the configured horizon so
/// `step_until_no_events()` terminates. A source starts inactive and
/// generates nothing until it receives a [`NetEvent::Join`] (schedule one at
/// t = 0 for an always-on source); `Leave` deactivates it again for churn
/// scenarios.
pub struct TrafficSource {
    client: u16,
    mac: crate::event::ComponentId,
    uplink: bool,
    process: ArrivalProcess,
    horizon: SimTime,
    active: bool,
    /// The one live `SourceTick`; a tick with any other id is stale.
    pending: Option<crate::event::EventId>,
    next_seq: u16,
    metrics: SharedMetrics,
}

impl TrafficSource {
    /// A source for `client` feeding the MAC component `mac`. The source is
    /// inactive until its first [`NetEvent::Join`] arrives; schedule that
    /// `Join` at t = 0 for a source that ticks from the start of the run.
    pub fn new(
        client: u16,
        mac: crate::event::ComponentId,
        uplink: bool,
        process: ArrivalProcess,
        horizon: SimTime,
        metrics: SharedMetrics,
    ) -> Self {
        Self {
            client,
            mac,
            uplink,
            process,
            horizon,
            active: false,
            pending: None,
            next_seq: 0,
            metrics,
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        let gap = self.process.next_gap(ctx.rng());
        if ctx.time() + gap >= self.horizon {
            self.pending = None;
            return;
        }
        self.pending = Some(ctx.emit_self(gap, NetEvent::SourceTick));
    }
}

impl EventHandler<NetEvent> for TrafficSource {
    fn on_event(&mut self, event: crate::event::Event<NetEvent>, ctx: &mut Ctx<'_, NetEvent>) {
        match event.payload {
            NetEvent::Join if !self.active => {
                self.active = true;
                self.arm(ctx);
            }
            NetEvent::Leave => {
                self.active = false;
                self.pending = None;
            }
            // A tick armed before a `Leave` is stale even if a `Join` has
            // re-armed the source since: it fires as a no-op.
            NetEvent::SourceTick if self.pending == Some(event.id) => {
                let seq = self.next_seq;
                self.next_seq = self.next_seq.wrapping_add(1);
                self.metrics.with(|log| log.offered += 1);
                ctx.emit(
                    self.mac,
                    SimTime::ZERO,
                    NetEvent::Arrival {
                        client: self.client,
                        seq,
                        uplink: self.uplink,
                    },
                );
                self.arm(ctx);
            }
            _ => {}
        }
    }
}

/// The wired network behind one AP's Ethernet port: counts forwarded uplink
/// packets as they complete delivery (after wire latency + serialization).
pub struct WiredSink {
    metrics: SharedMetrics,
}

impl WiredSink {
    /// A sink recording into the shared log.
    pub fn new(metrics: SharedMetrics) -> Self {
        Self { metrics }
    }
}

impl EventHandler<NetEvent> for WiredSink {
    fn on_event(&mut self, event: crate::event::Event<NetEvent>, _ctx: &mut Ctx<'_, NetEvent>) {
        if let NetEvent::WireDeliver { .. } = event.payload {
            self.metrics.with(|log| log.wire_delivered += 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use crate::simulation::Simulation;
    use iac_linalg::Rng64;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Stands in for the MAC: notes when each `Arrival` lands.
    struct Arrivals(Rc<RefCell<Vec<(SimTime, u16)>>>);

    impl EventHandler<NetEvent> for Arrivals {
        fn on_event(&mut self, event: Event<NetEvent>, ctx: &mut Ctx<'_, NetEvent>) {
            if let NetEvent::Arrival { seq, .. } = event.payload {
                self.0.borrow_mut().push((ctx.time(), seq));
            }
        }
    }

    #[test]
    fn a_tick_armed_before_leave_fires_as_a_no_op_after_rejoin() {
        // The first gap the source will draw, so Leave and Join both land
        // while the tick it arms is still pending.
        let (seed, horizon) = (7, SimTime::from_millis(20.0));
        let mut rng = Rng64::new(seed);
        let mut reference = ArrivalProcess::poisson(2000.0);
        let stale = reference.next_gap(&mut rng).micros();
        let leave = SimTime::from_micros(stale * 0.25);
        let rejoin = SimTime::from_micros(stale * 0.5);

        let seen = Rc::new(RefCell::new(Vec::new()));
        let metrics = SharedMetrics::new();
        let mut sim = Simulation::new(seed);
        let mac = sim.add_component("mac", Arrivals(seen.clone()));
        let process = ArrivalProcess::poisson(2000.0);
        let src = TrafficSource::new(0, mac, true, process, horizon, metrics.clone());
        let src = sim.add_component("src", src);
        sim.schedule(SimTime::ZERO, src, NetEvent::Join);
        sim.schedule(leave, src, NetEvent::Leave);
        sim.schedule(rejoin, src, NetEvent::Join);
        let events = sim.step_until_no_events();

        // One chain from the rejoin, on the very draws that follow the
        // stale one: the stale tick drew nothing and emitted nothing.
        let mut want = Vec::new();
        let mut at = rejoin + reference.next_gap(&mut rng);
        while at < horizon {
            want.push((at, want.len() as u16));
            at += reference.next_gap(&mut rng);
        }
        assert!(want.len() > 10, "{} arrivals", want.len());
        assert_eq!(*seen.borrow(), want);
        assert_eq!(metrics.snapshot().offered, want.len() as u64);
        // Join, Leave, Join, the stale tick, then a tick and an arrival each.
        assert_eq!(events, 4 + 2 * want.len() as u64);
        assert_eq!(sim.events_scheduled(), events, "every event fired");
    }
}
