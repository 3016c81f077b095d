//! The wired backplane: a hub connecting the cooperating APs.
//!
//! §7d: "IAC connects the set of APs using a hub. This design ensures that
//! every decoded packet is broadcast only once to all APs... In this design
//! every packet is transmitted once and there is no extra overhead." APs
//! annotate the packets they forward with channel updates and loss reports
//! (§7c), so no separate control traffic is needed.
//!
//! The hub carries a [`WireModel`] — propagation latency plus serialization
//! delay at a finite bandwidth, with the wire busy while a packet
//! serializes. [`Hub::new`] uses the instantaneous default (zero latency,
//! infinite bandwidth); the discrete-event simulator (`iac-des`) builds hubs
//! with [`Hub::with_model`] and takes per-packet delivery timestamps from
//! [`Hub::broadcast`]. The hub keeps no inboxes: delivery is the caller's
//! business (the simulator emits its own delivery events).

use iac_linalg::CMat;

/// Timing model for the wired backplane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireModel {
    /// One-way propagation + switching latency, µs.
    pub latency_us: f64,
    /// Link bandwidth in Mbit/s; `f64::INFINITY` means instantaneous
    /// serialization.
    pub bandwidth_mbps: f64,
}

impl Default for WireModel {
    /// The instantaneous wire the original simulation assumed.
    fn default() -> Self {
        Self {
            latency_us: 0.0,
            bandwidth_mbps: f64::INFINITY,
        }
    }
}

impl WireModel {
    /// A switched-gigabit-Ethernet-ish model: 5 µs latency, 1000 Mbit/s.
    pub fn gigabit() -> Self {
        Self {
            latency_us: 5.0,
            bandwidth_mbps: 1000.0,
        }
    }

    /// Time to clock `bytes` onto the wire, µs.
    pub(crate) fn serialization_us(&self, bytes: usize) -> f64 {
        if self.bandwidth_mbps.is_infinite() {
            0.0
        } else {
            bytes as f64 * 8.0 / self.bandwidth_mbps
        }
    }
}

/// Bounded-retry policy for wire forwards.
///
/// The original design "silently assumed the wire": a broadcast always
/// succeeded. Under fault injection an attempt can be lost, so forwarding
/// becomes try / exponential backoff / retry — bounded both by an attempt
/// budget and by a delivery deadline measured from hand-off, after which
/// the packet is abandoned (the MAC's retransmission machinery takes over).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum transmission attempts per packet (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry `k` (1-based) is `base_backoff_us · 2^(k−1)`.
    pub base_backoff_us: f64,
    /// A delivery completing later than `hand-off + deadline_us` is not
    /// attempted; the packet expires.
    pub deadline_us: f64,
}

impl Default for RetryPolicy {
    /// Four attempts, 20 µs initial backoff, 5 ms deadline.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff_us: 20.0,
            deadline_us: 5_000.0,
        }
    }
}

/// Outcome of a wire forward under a [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WireOutcome {
    /// The packet made it; `deliver_us` is the delivery timestamp at the
    /// other ports and `attempts` counts transmissions (1 = first try).
    Delivered {
        /// Delivery timestamp, µs.
        deliver_us: f64,
        /// Transmission attempts used.
        attempts: u32,
    },
    /// The packet was abandoned after `attempts` transmissions (attempt
    /// budget or delivery deadline exhausted).
    Expired {
        /// Transmission attempts used before giving up.
        attempts: u32,
    },
}

/// Piggybacked control information on a forwarded packet (§7c).
#[derive(Debug, Clone, PartialEq)]
pub enum Annotation {
    /// "The channel coefficients to a client changed by more than a
    /// threshold value."
    ChannelUpdate {
        /// Reporting AP.
        ap: u16,
        /// Client whose channel changed.
        client: u16,
        /// Fresh estimate.
        estimate: CMat,
    },
    /// "A packet is lost" — the leader schedules a retransmission.
    LossReport {
        /// Client whose packet was lost.
        client: u16,
        /// Sequence number.
        seq: u16,
    },
}

/// A decoded packet on the wire, possibly annotated.
#[derive(Debug, Clone, PartialEq)]
pub struct WirePacket {
    /// AP that decoded and broadcast the packet.
    pub from_ap: u16,
    /// Originating client.
    pub client: u16,
    /// Packet sequence number.
    pub seq: u16,
    /// Payload size in bytes (contents are irrelevant to the backplane).
    pub payload_bytes: usize,
    /// Piggybacked annotations.
    pub annotations: Vec<Annotation>,
}

impl WirePacket {
    /// Wire size: payload + 6 header bytes + annotation costs.
    pub fn wire_bytes(&self) -> usize {
        let ann: usize = self
            .annotations
            .iter()
            .map(|a| match a {
                // 4 ids + one quantised complex matrix entry set (8 bytes per
                // entry, f32 pairs).
                Annotation::ChannelUpdate { estimate, .. } => {
                    4 + estimate.rows() * estimate.cols() * 8
                }
                Annotation::LossReport { .. } => 4,
            })
            .sum();
        self.payload_bytes + 6 + ann
    }
}

/// An Ethernet hub joining the cooperating APs: one shared wire that every
/// forwarded packet crosses once.
#[derive(Debug)]
pub struct Hub {
    ports: usize,
    model: WireModel,
    busy_until_us: f64,
    bytes_broadcast: u64,
    packets_broadcast: u64,
}

impl Hub {
    /// A hub wiring `n_aps` access points together, with the instantaneous
    /// wire (zero latency, infinite bandwidth).
    pub fn new(n_aps: usize) -> Self {
        Self::with_model(n_aps, WireModel::default())
    }

    /// A hub with an explicit wire-timing model.
    pub fn with_model(n_aps: usize, model: WireModel) -> Self {
        assert!(n_aps >= 1, "a hub needs at least one port");
        Self {
            ports: n_aps,
            model,
            busy_until_us: 0.0,
            bytes_broadcast: 0,
            packets_broadcast: 0,
        }
    }

    /// Broadcast a packet handed to the hub at simulated time `now_us`, under
    /// a [`RetryPolicy`] and a caller-supplied loss oracle: `attempt_lost(k)`
    /// says whether transmission attempt `k` (1-based) is lost in flight, so
    /// the caller keeps ownership of all randomness (the discrete-event
    /// simulator draws from its one seeded stream; the hub stays
    /// deterministic plumbing).
    ///
    /// The wire is a shared medium: each attempt first waits for any
    /// in-flight serialization, then serializes at the model's bandwidth,
    /// then propagates; a delivered packet reaches every other port at the
    /// returned timestamp. Every attempt — delivered or lost — occupies the
    /// wire and is counted in [`Hub::packets_broadcast`] /
    /// [`Hub::bytes_broadcast`]; lost attempts back off exponentially before
    /// the retry. A first attempt is always transmitted, so with a never-lost
    /// oracle this is one plain transmission per packet. A *retry* whose
    /// delivery would land past `hand-off + deadline_us`, or that would
    /// exceed `max_attempts`, is not transmitted and the packet expires.
    pub fn broadcast(
        &mut self,
        packet: &WirePacket,
        now_us: f64,
        policy: &RetryPolicy,
        mut attempt_lost: impl FnMut(u32) -> bool,
    ) -> WireOutcome {
        assert!(policy.max_attempts >= 1, "retry policy needs one attempt");
        assert!(
            (packet.from_ap as usize) < self.ports,
            "unknown source AP {}",
            packet.from_ap
        );
        let deadline = now_us + policy.deadline_us;
        let mut hand_off = now_us;
        let mut attempts = 0u32;
        loop {
            let start = hand_off.max(self.busy_until_us);
            let end = start + self.model.serialization_us(packet.wire_bytes());
            let deliver = end + self.model.latency_us;
            if attempts > 0 && deliver > deadline {
                return WireOutcome::Expired { attempts };
            }
            self.busy_until_us = end;
            self.bytes_broadcast += packet.wire_bytes() as u64;
            self.packets_broadcast += 1;
            attempts += 1;
            if !attempt_lost(attempts) {
                return WireOutcome::Delivered {
                    deliver_us: deliver,
                    attempts,
                };
            }
            if attempts >= policy.max_attempts {
                return WireOutcome::Expired { attempts };
            }
            // Exponential backoff: 1×, 2×, 4×, ... the base, from the end of
            // the failed attempt.
            hand_off = end + policy.base_backoff_us * (1u64 << (attempts - 1)) as f64;
        }
    }

    /// Total bytes that crossed the wire.
    pub fn bytes_broadcast(&self) -> u64 {
        self.bytes_broadcast
    }

    /// Total transmissions that crossed the wire. No production caller: the
    /// hub's tests read it to check the §7d one-transmission-per-packet
    /// property.
    pub fn packets_broadcast(&self) -> u64 {
        self.packets_broadcast
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(from: u16, seq: u16) -> WirePacket {
        WirePacket {
            from_ap: from,
            client: 9,
            seq,
            payload_bytes: 1500,
            annotations: vec![],
        }
    }

    /// 2009-era fast Ethernet: 20 µs latency, 100 Mbit/s.
    const FAST_ETHERNET: WireModel = WireModel {
        latency_us: 20.0,
        bandwidth_mbps: 100.0,
    };

    /// Broadcast over a wire that never loses an attempt; the delivery time.
    fn send(hub: &mut Hub, packet: &WirePacket, now_us: f64) -> f64 {
        match hub.broadcast(packet, now_us, &RetryPolicy::default(), |_| false) {
            WireOutcome::Delivered { deliver_us, .. } => deliver_us,
            other => panic!("lossless broadcast gave {other:?}"),
        }
    }

    #[test]
    fn each_packet_counted_once() {
        // The §7d property: one wire transmission per decoded packet, no
        // matter how many APs listen.
        let mut hub = Hub::new(4);
        for k in 0..10 {
            send(&mut hub, &pkt(k % 4, k), 0.0);
        }
        assert_eq!(hub.packets_broadcast(), 10);
        assert_eq!(hub.bytes_broadcast(), 10 * (1500 + 6));
    }

    #[test]
    fn wire_traffic_comparable_to_wireless() {
        // The related-work contrast: virtual MIMO would ship raw samples
        // (8-bit I + 8-bit Q at 2× bandwidth per antenna); IAC ships decoded
        // packets. For a 1500-byte packet BPSK-modulated at 1 sample/bit,
        // raw samples would be 1500·8·2·2 bytes per antenna pair — ~64×.
        let decoded = pkt(0, 0).wire_bytes();
        let raw_samples = 1500 * 8 * 2 * 2;
        assert!(raw_samples > 30 * decoded, "wire saving not captured");
    }

    #[test]
    fn annotations_cost_bytes() {
        let bare = pkt(0, 0).wire_bytes();
        let mut p = pkt(0, 0);
        p.annotations
            .push(Annotation::LossReport { client: 1, seq: 2 });
        assert_eq!(p.wire_bytes(), bare + 4);
        p.annotations.push(Annotation::ChannelUpdate {
            ap: 0,
            client: 1,
            estimate: CMat::zeros(2, 2),
        });
        assert_eq!(p.wire_bytes(), bare + 4 + 4 + 32);
    }

    #[test]
    #[should_panic(expected = "unknown source")]
    fn unknown_ap_rejected() {
        let mut hub = Hub::new(2);
        send(&mut hub, &pkt(5, 0), 0.0);
    }

    #[test]
    fn default_wire_is_instantaneous() {
        let mut hub = Hub::new(2);
        assert_eq!(send(&mut hub, &pkt(0, 1), 100.0), 100.0);
    }

    #[test]
    fn wire_model_adds_latency_and_serialization() {
        // 100 Mbit/s, 20 µs latency: a 1506-byte wire packet serializes in
        // 1506·8/100 = 120.48 µs.
        let mut hub = Hub::with_model(3, FAST_ETHERNET);
        let d1 = send(&mut hub, &pkt(0, 1), 0.0);
        assert!((d1 - (120.48 + 20.0)).abs() < 1e-9, "got {d1}");
        // The second packet queues behind the first's serialization.
        let d2 = send(&mut hub, &pkt(1, 2), 0.0);
        assert!((d2 - (2.0 * 120.48 + 20.0)).abs() < 1e-9, "got {d2}");
    }

    #[test]
    fn lossless_retry_path_matches_plain_broadcast() {
        // A never-lost oracle gives one plain transmission per packet: wait
        // for the wire, serialize, propagate.
        let mut hub = Hub::with_model(3, FAST_ETHERNET);
        let ser = FAST_ETHERNET.serialization_us(1506);
        let mut busy = 0.0f64;
        for k in 0..4u16 {
            let now = k as f64 * 10.0;
            busy = now.max(busy) + ser;
            let got = hub.broadcast(&pkt(k % 3, k), now, &RetryPolicy::default(), |_| false);
            assert_eq!(
                got,
                WireOutcome::Delivered {
                    deliver_us: busy + FAST_ETHERNET.latency_us,
                    attempts: 1
                }
            );
        }
        assert_eq!(hub.packets_broadcast(), 4);
        assert_eq!(hub.bytes_broadcast(), 4 * 1506);
    }

    #[test]
    fn lost_attempts_back_off_exponentially_then_deliver() {
        let mut hub = Hub::with_model(2, WireModel::gigabit());
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff_us: 100.0,
            deadline_us: 10_000.0,
        };
        // First two attempts lost, third delivers.
        let mut losses = [true, true, false].into_iter();
        let got = hub.broadcast(&pkt(0, 1), 0.0, &policy, |_| losses.next().unwrap());
        let ser = WireModel::gigabit().serialization_us(1506);
        // Attempt 1 ends at ser; retry 1 starts ser+100, ends 2·ser+100;
        // retry 2 starts 2·ser+100+200, delivers +ser+latency.
        let expect = 3.0 * ser + 300.0 + 5.0;
        match got {
            WireOutcome::Delivered {
                deliver_us,
                attempts,
            } => {
                assert_eq!(attempts, 3);
                assert!(
                    (deliver_us - expect).abs() < 1e-9,
                    "got {deliver_us}, want {expect}"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(hub.packets_broadcast(), 3, "every attempt crossed the wire");
    }

    #[test]
    fn attempt_budget_bounds_retries() {
        let mut hub = Hub::with_model(2, WireModel::gigabit());
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff_us: 10.0,
            deadline_us: 1e9,
        };
        let got = hub.broadcast(&pkt(0, 1), 0.0, &policy, |_| true);
        assert_eq!(got, WireOutcome::Expired { attempts: 3 });
        assert_eq!(hub.packets_broadcast(), 3);
    }

    #[test]
    fn delivery_deadline_expires_late_retries() {
        let mut hub = Hub::with_model(2, FAST_ETHERNET);
        // Serialization alone is ~120 µs; a 150 µs deadline admits the first
        // attempt but no retry.
        let policy = RetryPolicy {
            max_attempts: 10,
            base_backoff_us: 1.0,
            deadline_us: 150.0,
        };
        let got = hub.broadcast(&pkt(0, 1), 0.0, &policy, |_| true);
        assert_eq!(got, WireOutcome::Expired { attempts: 1 });
        // The first attempt is always transmitted, even under a deadline the
        // wire cannot meet — only retries are refused.
        assert_eq!(hub.packets_broadcast(), 1);
    }

    #[test]
    fn idle_wire_resumes_at_hand_off_time() {
        let mut hub = Hub::with_model(2, WireModel::gigabit());
        let d1 = send(&mut hub, &pkt(0, 1), 0.0);
        // Handed over long after the wire went idle: no queueing.
        let d2 = send(&mut hub, &pkt(0, 2), 10_000.0);
        assert!(
            (d2 - (10_000.0 + (d1 - 0.0))).abs() < 1e-9,
            "d1={d1} d2={d2}"
        );
    }
}
