//! The event-driven extended-PCF MAC (paper §7.1, Fig. 9, in simulated time).
//!
//! [`EventPcf`] is the §7.1 protocol as a component of the discrete-event
//! engine: each protocol step (beacon with the deferred uplink ACK map,
//! downlink DATA+Poll groups with synchronous client acks, uplink Grant
//! groups with Ethernet forwarding, CF-End, constant contention period)
//! *takes time*, priced by the [`Airtime`] model, and the Ethernet hop is
//! priced by the hub's [`WireModel`]. The PHY is the pluggable
//! [`PhyOutcome`] trait, so matrix-level IAC decoding plugs in unchanged.
//! Its tests (`pcf/tests.rs`) pin the protocol against delivery times
//! derived by hand from the airtime model and the frame sizes.
//!
//! State machine, one event per protocol step:
//!
//! ```text
//! CfpStart ──beacon airtime──▶ BeaconDone ──▶ serve downlink group 0
//!    ▲                                           │ (poll+data+acks airtime)
//!    │                                           ▼
//!    │                                        GroupDone ──▶ next group …
//!    │                                           │ queues empty / cap hit
//!    │                                           ▼
//!    │                                  uplink groups (grant+data airtime,
//!    │                                   decoded packets → hub → sinks)
//!    │                                           │
//!    └────── CF-End + contention period ◀────────┘
//! ```
//!
//! The cycle re-arms itself until the configured horizon, after which the
//! queue drains and [`crate::simulation::Simulation::step_until_no_events`]
//! terminates. All randomness (PHY draws, wire faults) flows through the
//! simulation's seeded RNG, so a run is bit-reproducible.

use crate::hash::FixedMap;
use crate::metrics::{PacketRecord, QueueDepthSample, SharedMetrics};
use crate::net::NetEvent;
use crate::simulation::{Ctx, EventHandler};
use crate::time::SimTime;
use iac_linalg::CVec;
use iac_mac::airtime::Airtime;
use iac_mac::ethernet::{Hub, RetryPolicy, WireModel, WireOutcome, WirePacket};
use iac_mac::frames::{Beacon, CfEnd, DataPoll, Grant, MacFrame, PollEntry, VectorQ};
use iac_mac::pcf::{form_group, GroupPlan, PcfConfig, PhyOutcome};
use iac_mac::queue::{QueuedPacket, TrafficQueue};
use std::collections::BTreeMap;

/// Parameters of the event-driven MAC: the protocol's [`PcfConfig`] plus
/// timing, queueing and fault handling.
#[derive(Debug, Clone)]
pub struct EventPcfConfig {
    /// The protocol parameters (group size, payload, retx budget, CP).
    pub protocol: PcfConfig,
    /// Frame-duration model.
    pub airtime: Airtime,
    /// Ethernet backplane timing.
    pub wire: WireModel,
    /// Packets a grouped client multiplexes in one airtime (1 for IAC's
    /// 3-client groups; 2 models the 802.11-MIMO baseline, where a lone
    /// client spatially multiplexes two streams to its best AP).
    pub streams_per_client: usize,
    /// MAC queue bound per direction (`None` = unbounded).
    pub queue_capacity: Option<usize>,
    /// `true` models plain 802.11 PCF: the AP acks each uplink frame
    /// synchronously (one ack airtime per polled client) and nothing is
    /// forwarded over the backplane. `false` is IAC's §7.1a design: acks
    /// are deferred to the next beacon's ACK map and every decoded packet
    /// crosses the hub once for cancellation.
    pub immediate_uplink_ack: bool,
    /// No new CFP starts at or after this time; the run then drains.
    pub horizon: SimTime,
    /// Bounded retry/backoff/deadline for wire forwards. Only consulted when
    /// an attempt can fail (wire impairment or a backhaul partition, both
    /// injected as fault events); on a clean wire the first attempt always
    /// delivers and this is inert.
    pub wire_retry: RetryPolicy,
    /// CSI staleness (slots) beyond which the leader stops trusting its
    /// alignment vectors and dissolves groups to the standalone-MIMO
    /// fallback. `None` (the default) never falls back on staleness.
    pub csi_fallback_age_slots: Option<u16>,
}

impl Default for EventPcfConfig {
    fn default() -> Self {
        Self {
            protocol: PcfConfig::default(),
            airtime: Airtime::default(),
            wire: WireModel::default(),
            streams_per_client: 1,
            queue_capacity: None,
            immediate_uplink_ack: false,
            horizon: SimTime::from_secs(1.0),
            wire_retry: RetryPolicy::default(),
            csi_fallback_age_slots: None,
        }
    }
}

/// The leader's live view of injected faults (all set/cleared by
/// [`NetEvent`] fault events; default = the clean world).
#[derive(Debug, Clone, Default)]
struct FaultState {
    /// APs currently crashed.
    down_aps: std::collections::BTreeSet<u16>,
    /// Whether the inter-AP backhaul is partitioned.
    backhaul_down: bool,
    /// Per-attempt wire loss probability, ppm.
    wire_loss_ppm: u32,
    /// Per-delivery wire corruption probability, ppm.
    wire_corrupt_ppm: u32,
    /// Current CSI staleness, slots.
    csi_age_slots: u16,
}

/// Which protocol phase the leader is in (downlink groups before uplink
/// groups within a CFP, as in Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Between CFPs (or stopped at the horizon).
    Idle,
    /// Serving downlink transmission groups.
    Downlink,
    /// Serving uplink transmission groups.
    Uplink,
}

/// The leader AP as a discrete-event component.
///
/// The leader groups FIFO in both directions: each group is the head's
/// client and the next clients in queue order ([`form_group`]). A
/// [`PhyOutcome`] reports how packets fared but carries no per-group channel
/// knowledge for a rate scorer to exploit, so FIFO keeps comparisons between
/// MAC configurations policy-neutral; the rate-aware §7.2 policies are
/// compared at the matrix level (`iac_sim::scenarios::fig15`).
pub struct EventPcf<P: PhyOutcome> {
    cfg: EventPcfConfig,
    phy: P,
    downlink_queue: TrafficQueue,
    uplink_queue: TrafficQueue,
    hub: Hub,
    /// Wired sink component per AP (index = AP id).
    sinks: Vec<crate::event::ComponentId>,
    /// Arrival timestamp by (client, seq, uplink), joined at delivery.
    arrivals: FixedMap<(u16, u16, bool), f64>,
    /// Uplink packets decoded this CFP, acked in the next beacon.
    pending_acks: Vec<(u16, u16)>,
    /// Uplink packets sent but not yet acked. BTreeMap, not HashMap: its
    /// drain order feeds the retransmission queue, and iteration order must
    /// be run-independent for bit-reproducibility.
    awaiting_ack: BTreeMap<(u16, u16), QueuedPacket>,
    /// Retransmission attempts by (client, seq, uplink) — the direction flag
    /// keeps a client's uplink and downlink packets with equal seqs apart.
    retx_count: FixedMap<(u16, u16, bool), u8>,
    /// Reused per-beacon scratch for the unacked-packet sweep (capacity
    /// survives across CFPs, so the steady state does not allocate).
    retx_scratch: Vec<QueuedPacket>,
    /// Placeholder poll entries reused by every group's DATA+Poll or Grant
    /// frame, and those a shorter group left over (see `price_poll`).
    poll_entries: Vec<PollEntry>,
    spare_entries: Vec<PollEntry>,
    phase: Phase,
    groups_this_phase: usize,
    cfp_id: u16,
    fault: FaultState,
    metrics: SharedMetrics,
}

impl<P: PhyOutcome> EventPcf<P> {
    /// Build the leader. `sinks[a]` is the wired-sink component behind AP
    /// `a`'s Ethernet port; kick the leader off by scheduling it a
    /// [`NetEvent::CfpStart`] at t = 0.
    pub fn new(
        cfg: EventPcfConfig,
        phy: P,
        sinks: Vec<crate::event::ComponentId>,
        metrics: SharedMetrics,
    ) -> Self {
        let make_queue = || match cfg.queue_capacity {
            Some(cap) => TrafficQueue::with_capacity(cap),
            None => TrafficQueue::new(),
        };
        let hub = Hub::with_model(cfg.protocol.n_aps as usize, cfg.wire);
        Self {
            downlink_queue: make_queue(),
            uplink_queue: make_queue(),
            hub,
            cfg,
            phy,
            sinks,
            arrivals: FixedMap::default(),
            pending_acks: Vec::new(),
            awaiting_ack: BTreeMap::new(),
            retx_count: FixedMap::default(),
            retx_scratch: Vec::new(),
            poll_entries: Vec::new(),
            spare_entries: Vec::new(),
            phase: Phase::Idle,
            groups_this_phase: 0,
            cfp_id: 0,
            fault: FaultState::default(),
            metrics,
        }
    }

    /// The group shape the scheduler can currently sustain, and whether that
    /// is a degradation of the configured shape.
    ///
    /// * Backhaul partitioned, or CSI older than the configured trust
    ///   threshold → joint decoding is off the table: groups dissolve to
    ///   one client spatially multiplexing ≥ 2 streams to its best AP
    ///   (standalone 802.11-MIMO).
    /// * `k` APs crashed → the group shrinks to the live-AP count (IAC
    ///   aligns one stream per decoding AP), dissolving entirely when at
    ///   most one AP is left.
    /// * No faults → the configured shape, untouched.
    fn effective_shape(&self) -> (usize, usize, bool) {
        let base = (self.cfg.protocol.group_size, self.cfg.streams_per_client);
        let stale = self
            .cfg
            .csi_fallback_age_slots
            .is_some_and(|limit| self.fault.csi_age_slots > limit);
        if self.fault.backhaul_down || stale {
            let shape = (1, base.1.max(2));
            return (shape.0, shape.1, shape != base);
        }
        let n_aps = self.cfg.protocol.n_aps;
        let down = self.fault.down_aps.iter().filter(|&&a| a < n_aps).count();
        if down > 0 {
            let live = (n_aps as usize).saturating_sub(down);
            if live <= 1 {
                let shape = (1, base.1.max(2));
                return (shape.0, shape.1, shape != base);
            }
            let g = base.0.min(live);
            return (g, base.1, g < base.0);
        }
        (base.0, base.1, false)
    }

    /// Apply one fault event to the live fault state.
    fn on_fault(&mut self, event: &NetEvent) {
        match *event {
            NetEvent::ApDown { ap } => {
                self.fault.down_aps.insert(ap);
            }
            NetEvent::ApUp { ap } => {
                self.fault.down_aps.remove(&ap);
            }
            NetEvent::BackhaulDown => self.fault.backhaul_down = true,
            NetEvent::BackhaulUp => self.fault.backhaul_down = false,
            NetEvent::WireImpair {
                loss_ppm,
                corrupt_ppm,
            } => {
                self.fault.wire_loss_ppm = loss_ppm;
                self.fault.wire_corrupt_ppm = corrupt_ppm;
            }
            NetEvent::CsiStale { slots } => {
                self.fault.csi_age_slots = slots;
                self.phy.csi_aged(slots);
            }
            _ => unreachable!("on_fault handed a non-fault event"),
        }
        self.metrics.with(|log| log.faults += 1);
    }

    /// Placeholder vectors for control-frame sizing (the alignment solver
    /// lives above the MAC; frames only need correctly-sized fields).
    fn placeholder_entry(client: u16) -> PollEntry {
        let v = VectorQ::from_cvec(&CVec::basis(2, 0));
        PollEntry {
            client,
            encoding: v.clone(),
            decoding: v,
        }
    }

    /// Price a group's DATA+Poll (downlink) or Grant (uplink) frame: one
    /// entry per distinct client of `clients`, in first-appearance order.
    /// Returns the frame's bytes and its entry count. The entries are
    /// placeholders kept across groups, so pricing does not allocate.
    fn price_poll(&mut self, fid: u16, uplink: bool, clients: &[u16]) -> (usize, usize) {
        let mut entries = std::mem::take(&mut self.poll_entries);
        let mut polled = 0;
        for (i, &c) in clients.iter().enumerate() {
            if clients[..i].contains(&c) {
                continue;
            }
            match entries.get_mut(polled) {
                Some(entry) => entry.client = c,
                None => entries.push(Self::placeholder_entry(c)),
            }
            polled += 1;
        }
        // A shorter group parks the surplus entries for the next longer one.
        self.spare_entries.extend(entries.drain(polled..));
        let n_aps = self.cfg.protocol.n_aps as u8;
        let frame = if uplink {
            MacFrame::Grant(Grant {
                fid,
                n_aps,
                entries,
            })
        } else {
            MacFrame::DataPoll(DataPoll {
                fid,
                n_aps,
                max_len: self.cfg.protocol.payload_bytes as u16,
                entries,
            })
        };
        let bytes = self.control_frame(&frame);
        if let MacFrame::Grant(Grant { mut entries, .. })
        | MacFrame::DataPoll(DataPoll { mut entries, .. }) = frame
        {
            entries.append(&mut self.spare_entries);
            self.poll_entries = entries;
        }
        (bytes, polled)
    }

    fn control_frame(&mut self, frame: &MacFrame) -> usize {
        let bytes = frame.encoded_len();
        self.metrics.with(|log| log.control_bytes += bytes as u64);
        bytes
    }

    fn record_delivery(&mut self, client: u16, seq: u16, uplink: bool, delivered_us: f64) {
        let key = (client, seq, uplink);
        if let Some(arrival_us) = self.arrivals.remove(&key) {
            self.metrics.with(|log| {
                log.delivered.push(PacketRecord {
                    client,
                    seq,
                    uplink,
                    arrival_us,
                    delivered_us,
                });
            });
        }
        self.retx_count.remove(&key);
    }

    fn drop_packet(&mut self, client: u16, seq: u16, uplink: bool) {
        self.arrivals.remove(&(client, seq, uplink));
        self.retx_count.remove(&(client, seq, uplink));
        self.metrics.with(|log| log.drops_retx += 1);
    }

    /// Start the beacon: process the deferred ACK map, price the frame.
    fn on_cfp_start(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        self.cfp_id = self.cfp_id.wrapping_add(1);
        let now = ctx.time();
        let (down_depth, up_depth) = (self.downlink_queue.len(), self.uplink_queue.len());
        self.metrics.with(|log| {
            log.queue_depth.push(QueueDepthSample {
                time_us: now.micros(),
                downlink: down_depth,
                uplink: up_depth,
            });
        });

        // The ACK-map vec moves into the frame for pricing and is reclaimed
        // afterwards (no clone; its capacity returns to `pending_acks`).
        let beacon = MacFrame::Beacon(Beacon {
            cfp_id: self.cfp_id,
            duration_slots: 0, // varies per CFP (§7.1a); accounted in time, not here
            ack_map: std::mem::take(&mut self.pending_acks),
        });
        let beacon_bytes = self.control_frame(&beacon);
        let beacon_air_us = self.cfg.airtime.ctrl_us(beacon_bytes);
        let beacon_air = SimTime::from_micros(beacon_air_us);
        self.metrics.with(|log| log.air_busy_us += beacon_air_us);
        let MacFrame::Beacon(Beacon {
            ack_map: mut beacon_acks,
            ..
        }) = beacon
        else {
            unreachable!("beacon frame was just constructed")
        };

        // Clients hear the ACK map when the beacon completes: confirmed
        // uplink packets count as delivered at that instant.
        let delivered_us = (ctx.time() + beacon_air).micros();
        for &(client, seq) in &beacon_acks {
            if self.awaiting_ack.remove(&(client, seq)).is_some() {
                self.record_delivery(client, seq, true, delivered_us);
            }
        }
        beacon_acks.clear();
        self.pending_acks = beacon_acks;
        // Silence means loss: clients re-request (head of queue) or give up.
        let mut unacked = std::mem::take(&mut self.retx_scratch);
        unacked.extend(std::mem::take(&mut self.awaiting_ack).into_values());
        for p in unacked.drain(..) {
            let tries = self.retx_count.entry((p.client, p.seq, true)).or_insert(0);
            *tries += 1;
            self.metrics.with(|log| log.retx += 1);
            if *tries > self.cfg.protocol.retx_limit {
                self.drop_packet(p.client, p.seq, true);
            } else {
                self.uplink_queue.push_front(p);
            }
        }
        self.retx_scratch = unacked;
        ctx.emit_self(beacon_air, NetEvent::BeaconDone);
    }

    /// Offer the next transmission group of the current phase, or advance
    /// the protocol when the phase is exhausted.
    fn serve_next(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        loop {
            let uplink = match self.phase {
                Phase::Downlink => false,
                Phase::Uplink => true,
                Phase::Idle => return,
            };
            if self.groups_this_phase < self.cfg.protocol.max_groups_per_cfp {
                let (group_size, streams, degraded) = self.effective_shape();
                let queue = if uplink {
                    &mut self.uplink_queue
                } else {
                    &mut self.downlink_queue
                };
                let plan = form_group(queue, group_size, streams);
                if let Some(plan) = plan {
                    if degraded {
                        self.metrics.with(|log| log.degraded_groups += 1);
                    }
                    self.start_group(plan, uplink, ctx);
                    return;
                }
            }
            // Phase exhausted: downlink → uplink → CF-End.
            match self.phase {
                Phase::Downlink => {
                    self.phase = Phase::Uplink;
                    self.groups_this_phase = 0;
                }
                Phase::Uplink => {
                    self.end_cfp(ctx);
                    return;
                }
                Phase::Idle => return,
            }
        }
    }

    /// Price and launch one transmission group; its outcome lands as a
    /// `GroupDone` event when the airtime elapses.
    fn start_group(&mut self, plan: GroupPlan, uplink: bool, ctx: &mut Ctx<'_, NetEvent>) {
        self.groups_this_phase += 1;
        let fid = self
            .cfp_id
            .wrapping_mul(64)
            .wrapping_add(if uplink { 32 } else { 0 })
            .wrapping_add(self.groups_this_phase as u16);
        let (ctrl_bytes, polled) = self.price_poll(fid, uplink, &plan.clients);
        // Each polled client acks a downlink group synchronously. IAC defers
        // uplink acks to the next beacon (no ack airtime); plain 802.11 PCF
        // pays a synchronous CF-ACK per polled client.
        let acks = if uplink && !self.cfg.immediate_uplink_ack {
            0
        } else {
            polled
        };
        let payload = self.cfg.protocol.payload_bytes;
        self.metrics
            .with(|log| log.data_bytes += (plan.packets.len() * payload) as u64);
        // The group is concurrent in time: all aligned packets share ONE
        // data airtime — that is where the IAC gain comes from.
        let air_us = self.cfg.airtime.ctrl_us(ctrl_bytes)
            + self.cfg.airtime.data_us(payload)
            + acks as f64 * self.cfg.airtime.ack_us();
        self.metrics.with(|log| {
            log.poll_rounds += 1;
            log.air_busy_us += air_us;
        });
        let results = if uplink {
            self.phy.uplink_group(&plan.clients, ctx.rng())
        } else {
            self.phy.downlink_group(&plan.clients, ctx.rng())
        };
        ctx.emit_self(
            SimTime::from_micros(air_us),
            NetEvent::GroupDone {
                uplink,
                plan,
                results,
            },
        );
    }

    /// Apply a finished group's outcomes at its completion time.
    fn on_group_done(
        &mut self,
        plan: GroupPlan,
        uplink: bool,
        results: Vec<iac_mac::pcf::PacketResult>,
        ctx: &mut Ctx<'_, NetEvent>,
    ) {
        let now_us = ctx.time().micros();
        let payload = self.cfg.protocol.payload_bytes;
        // Pair each popped packet with its own PHY result. Well-behaved PHYs
        // answer positionally (`results[i]` belongs to `plan.clients[i]`);
        // otherwise a packet takes the first result of its client that no
        // other packet holds, so one result never serves two packets, and a
        // packet left without a result counts as lost.
        let positional = |j: usize| {
            results
                .get(j)
                .zip(plan.packets.get(j))
                .is_some_and(|(r, p)| r.client == p.client)
        };
        // Results taken by the client-id scan; stays unallocated while every
        // packet finds its result at its own position.
        let mut scanned: Vec<usize> = Vec::new();
        for (i, &packet) in plan.packets.iter().enumerate() {
            let j = if positional(i) {
                Some(i)
            } else {
                let j = (0..results.len()).find(|&j| {
                    results[j].client == packet.client && !positional(j) && !scanned.contains(&j)
                });
                scanned.extend(j);
                j
            };
            let mut result = j.map(|j| results[j]);
            // A crashed AP answers no poll: the leader observes a timeout
            // and voids the result, so the packet follows the ordinary
            // loss/retransmission path instead of vanishing.
            if result.is_some_and(|r| self.fault.down_aps.contains(&r.ap)) {
                self.metrics.with(|log| log.poll_timeouts += 1);
                result = None;
            }
            let ok = result.as_ref().is_some_and(|r| r.ok);
            if uplink && self.cfg.immediate_uplink_ack {
                // Plain 802.11 PCF: the AP's synchronous CF-ACK closes the
                // exchange now; losses retransmit via the queue head.
                if ok {
                    self.record_delivery(packet.client, packet.seq, true, now_us);
                } else {
                    let tries = self
                        .retx_count
                        .entry((packet.client, packet.seq, true))
                        .or_insert(0);
                    *tries += 1;
                    self.metrics.with(|log| log.retx += 1);
                    if *tries > self.cfg.protocol.retx_limit {
                        self.drop_packet(packet.client, packet.seq, true);
                    } else {
                        self.uplink_queue.push_front(packet);
                    }
                }
            } else if uplink {
                if let Some(r) = result.filter(|r| r.ok) {
                    // Decoded at AP r.ap: forwarded exactly once over the
                    // hub (cancellation at later APs + the wired
                    // destination), acked in the NEXT beacon. On a clean
                    // wire the retrying broadcast is attempt-for-attempt
                    // identical to the plain one; losses draw from the
                    // simulation RNG and back off per the configured policy.
                    let wire = WirePacket {
                        from_ap: r.ap,
                        client: packet.client,
                        seq: packet.seq,
                        payload_bytes: payload,
                        annotations: vec![],
                    };
                    let wire_bytes = wire.wire_bytes() as u64;
                    let from_ap = r.ap;
                    if self.fault.backhaul_down {
                        // Partitioned backhaul: the forward cannot cross.
                        // The packet stays unacked; beacon silence sends it
                        // back through the retransmission budget.
                        self.metrics.with(|log| log.wire_expired += 1);
                    } else {
                        let loss_ppm = self.fault.wire_loss_ppm;
                        let outcome = {
                            let rng = ctx.rng();
                            self.hub
                                .broadcast(&wire, now_us, &self.cfg.wire_retry, |_| {
                                    loss_ppm > 0 && rng.next_f64() * 1e6 < loss_ppm as f64
                                })
                        };
                        match outcome {
                            WireOutcome::Delivered {
                                deliver_us,
                                attempts,
                            } => {
                                if attempts > 1 {
                                    self.metrics.with(|log| {
                                        log.wire_lost += (attempts - 1) as u64;
                                        log.wire_retries += (attempts - 1) as u64;
                                    });
                                }
                                let corrupt_ppm = self.fault.wire_corrupt_ppm;
                                let corrupted = corrupt_ppm > 0
                                    && ctx.rng().next_f64() * 1e6 < corrupt_ppm as f64;
                                if corrupted {
                                    // FCS failure at the receiving ports:
                                    // the delivery is discarded, nothing is
                                    // forwarded or acked, and the client
                                    // retransmits after beacon silence.
                                    self.metrics.with(|log| log.wire_corrupt += 1);
                                } else {
                                    self.metrics.with(|log| {
                                        log.wire_packets += 1;
                                        log.wire_bytes += wire_bytes;
                                    });
                                    let delay =
                                        SimTime::from_micros((deliver_us - now_us).max(0.0));
                                    for (ap, &sink) in self.sinks.iter().enumerate() {
                                        if ap != from_ap as usize {
                                            ctx.emit(
                                                sink,
                                                delay,
                                                NetEvent::WireDeliver {
                                                    from_ap,
                                                    client: packet.client,
                                                    seq: packet.seq,
                                                },
                                            );
                                        }
                                    }
                                    self.pending_acks.push((packet.client, packet.seq));
                                }
                            }
                            WireOutcome::Expired { attempts } => {
                                self.metrics.with(|log| {
                                    log.wire_lost += attempts as u64;
                                    log.wire_retries += attempts.saturating_sub(1) as u64;
                                    log.wire_expired += 1;
                                });
                            }
                        }
                    }
                }
                // Ok or not, the client waits for the beacon to learn.
                self.awaiting_ack
                    .insert((packet.client, packet.seq), packet);
            } else if ok {
                // Synchronous client ack: delivery completes now.
                self.record_delivery(packet.client, packet.seq, false, now_us);
            } else {
                // Missing client ack → immediate retransmission request to
                // the leader (§7.1a): the packet re-enters at the head.
                let tries = self
                    .retx_count
                    .entry((packet.client, packet.seq, false))
                    .or_insert(0);
                *tries += 1;
                self.metrics.with(|log| log.retx += 1);
                if *tries > self.cfg.protocol.retx_limit {
                    self.drop_packet(packet.client, packet.seq, false);
                } else {
                    self.downlink_queue.push_front(packet);
                }
            }
        }
        self.serve_next(ctx);
    }

    /// CF-End plus the constant-length contention period; re-arm the next
    /// CFP unless the horizon has passed.
    fn end_cfp(&mut self, ctx: &mut Ctx<'_, NetEvent>) {
        let cf_end = MacFrame::CfEnd(CfEnd {
            cfp_id: self.cfp_id,
        });
        let bytes = self.control_frame(&cf_end);
        let cf_end_us = self.cfg.airtime.ctrl_us(bytes);
        self.metrics.with(|log| {
            log.cfps += 1;
            // The CF-End frame occupies the air; the contention-period gap
            // after it is idle by definition and is not counted as busy.
            log.air_busy_us += cf_end_us;
        });
        let gap =
            SimTime::from_micros(cf_end_us + self.cfg.airtime.cp_us(self.cfg.protocol.cp_slots));
        self.phase = Phase::Idle;
        if ctx.time() + gap < self.cfg.horizon {
            ctx.emit_self(gap, NetEvent::CfpStart);
        }
    }
}

impl<P: PhyOutcome> EventHandler<NetEvent> for EventPcf<P> {
    fn on_event(&mut self, event: crate::event::Event<NetEvent>, ctx: &mut Ctx<'_, NetEvent>) {
        match event.payload {
            NetEvent::Arrival {
                client,
                seq,
                uplink,
            } => {
                let packet = QueuedPacket {
                    client,
                    seq,
                    bytes: self.cfg.protocol.payload_bytes,
                };
                let queue = if uplink {
                    &mut self.uplink_queue
                } else {
                    &mut self.downlink_queue
                };
                if queue.push(packet) {
                    self.arrivals
                        .insert((client, seq, uplink), ctx.time().micros());
                } else {
                    self.metrics.with(|log| log.drops_overflow += 1);
                }
            }
            NetEvent::CfpStart => self.on_cfp_start(ctx),
            NetEvent::BeaconDone => {
                self.phase = Phase::Downlink;
                self.groups_this_phase = 0;
                self.serve_next(ctx);
            }
            NetEvent::GroupDone {
                uplink,
                plan,
                results,
            } => self.on_group_done(plan, uplink, results, ctx),
            fault @ (NetEvent::ApDown { .. }
            | NetEvent::ApUp { .. }
            | NetEvent::BackhaulDown
            | NetEvent::BackhaulUp
            | NetEvent::WireImpair { .. }
            | NetEvent::CsiStale { .. }) => self.on_fault(&fault),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests;
