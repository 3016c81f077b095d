//! Raw measurement records collected during an event-driven run.
//!
//! The engine records *facts* — per-packet arrival/delivery timestamps,
//! queue-depth samples, drop and wire counters — and leaves the statistics
//! (latency CDFs, Jain fairness, sliding-window throughput) to the analysis
//! layer in `iac-sim::metrics`. Records live behind an `Rc<RefCell<..>>`
//! handle ([`SharedMetrics`]) because several components (sources, the MAC,
//! wired sinks) append to the same log.

use std::cell::RefCell;
use std::rc::Rc;

/// One delivered packet's life cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketRecord {
    /// Served client.
    pub client: u16,
    /// Per-client sequence number.
    pub seq: u16,
    /// Uplink (client → wired network) or downlink.
    pub uplink: bool,
    /// When the packet entered the MAC queue, µs.
    pub arrival_us: f64,
    /// When delivery completed, µs. Uplink packets count as delivered when
    /// the deferred beacon ACK confirms them (the client's view, §7.1a);
    /// downlink packets when the synchronous client ack arrives.
    pub delivered_us: f64,
}

impl PacketRecord {
    /// Queueing + service latency, µs.
    pub fn latency_us(&self) -> f64 {
        self.delivered_us - self.arrival_us
    }
}

/// One queue-depth observation (sampled at each CFP start).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueDepthSample {
    /// Sample time, µs.
    pub time_us: f64,
    /// Downlink queue depth, packets.
    pub downlink: usize,
    /// Uplink queue depth, packets.
    pub uplink: usize,
}

/// The accumulated run log.
///
/// `PartialEq` compares every record and counter — two logs are equal only
/// if the runs behaved identically, which is exactly the bit-identity
/// contract record/replay verifies (see [`crate::log`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsLog {
    /// Every delivered packet, in delivery order.
    pub delivered: Vec<PacketRecord>,
    /// Queue-depth time series.
    pub queue_depth: Vec<QueueDepthSample>,
    /// Packets tail-dropped at a full MAC queue on arrival.
    pub drops_overflow: u64,
    /// Packets dropped after exhausting the retransmission budget.
    pub drops_retx: u64,
    /// Packets generated by traffic sources.
    pub offered: u64,
    /// Decoded uplink packets forwarded over the Ethernet backplane.
    pub wire_packets: u64,
    /// Bytes those forwards put on the wire.
    pub wire_bytes: u64,
    /// Wire packets that completed delivery at a (non-sender) AP port.
    pub wire_delivered: u64,
    /// Control bytes broadcast on the air (beacons, polls, grants, CF-End).
    pub control_bytes: u64,
    /// Data bytes carried on the air (including failed attempts).
    pub data_bytes: u64,
    /// Contention-free periods completed.
    pub cfps: u64,
    /// Retransmission attempts (a packet re-entering service after a failed
    /// or unconfirmed try, uplink and downlink alike).
    pub retx: u64,
    /// Poll rounds started (one concurrent-transmission group each).
    pub poll_rounds: u64,
    /// Microseconds the air was busy with frames (control, data, and ACKs;
    /// contention-period gaps excluded).
    pub air_busy_us: f64,
    /// Fault events applied at the MAC (`ApDown`/`ApUp`, backhaul
    /// partition/heal, wire impairment, CSI staleness).
    pub faults: u64,
    /// Group results voided because the serving AP was down — the leader
    /// learns of the crash as a poll that never answers.
    pub poll_timeouts: u64,
    /// Wire attempts lost in flight (impairment loss draws).
    pub wire_lost: u64,
    /// Wire deliveries discarded at the receiving port (FCS corruption).
    pub wire_corrupt: u64,
    /// Wire retry attempts beyond each packet's first (bounded backoff).
    pub wire_retries: u64,
    /// Wire forwards abandoned: delivery deadline or attempt budget
    /// exhausted, or the backhaul was partitioned.
    pub wire_expired: u64,
    /// Transmission groups formed in degraded mode (shrunk below the
    /// configured group size or dissolved to the standalone-MIMO fallback).
    pub degraded_groups: u64,
}

impl MetricsLog {
    /// Packets delivered in `uplink`/downlink direction.
    pub fn delivered_count(&self, uplink: bool) -> u64 {
        self.delivered.iter().filter(|r| r.uplink == uplink).count() as u64
    }

    /// Deterministic JSON rendering of the whole log: every per-packet
    /// record, every queue sample, every counter, floats as IEEE bit
    /// patterns (hex) so the text is bit-faithful. Two runs produce the same
    /// string iff their logs are `==`; the replay test suite and the
    /// `replay` CLI compare these bytes directly.
    pub fn to_json(&self) -> String {
        fn bits(v: f64) -> String {
            format!("\"{:#018x}\"", v.to_bits())
        }
        let mut out = String::with_capacity(64 + self.delivered.len() * 64);
        out.push_str("{\n  \"delivered\": [");
        for (i, r) in self.delivered.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"client\": {}, \"seq\": {}, \"uplink\": {}, \"arrival_us_bits\": {}, \"delivered_us_bits\": {}}}",
                r.client,
                r.seq,
                r.uplink,
                bits(r.arrival_us),
                bits(r.delivered_us)
            ));
        }
        if !self.delivered.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"queue_depth\": [");
        for (i, s) in self.queue_depth.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"time_us_bits\": {}, \"downlink\": {}, \"uplink\": {}}}",
                bits(s.time_us),
                s.downlink,
                s.uplink
            ));
        }
        if !self.queue_depth.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n");
        out.push_str(&format!("  \"drops_overflow\": {},\n", self.drops_overflow));
        out.push_str(&format!("  \"drops_retx\": {},\n", self.drops_retx));
        out.push_str(&format!("  \"offered\": {},\n", self.offered));
        out.push_str(&format!("  \"wire_packets\": {},\n", self.wire_packets));
        out.push_str(&format!("  \"wire_bytes\": {},\n", self.wire_bytes));
        out.push_str(&format!("  \"wire_delivered\": {},\n", self.wire_delivered));
        out.push_str(&format!("  \"control_bytes\": {},\n", self.control_bytes));
        out.push_str(&format!("  \"data_bytes\": {},\n", self.data_bytes));
        out.push_str(&format!("  \"cfps\": {},\n", self.cfps));
        out.push_str(&format!("  \"retx\": {},\n", self.retx));
        out.push_str(&format!("  \"poll_rounds\": {},\n", self.poll_rounds));
        out.push_str(&format!(
            "  \"air_busy_us_bits\": {},\n",
            bits(self.air_busy_us)
        ));
        out.push_str(&format!("  \"faults\": {},\n", self.faults));
        out.push_str(&format!("  \"poll_timeouts\": {},\n", self.poll_timeouts));
        out.push_str(&format!("  \"wire_lost\": {},\n", self.wire_lost));
        out.push_str(&format!("  \"wire_corrupt\": {},\n", self.wire_corrupt));
        out.push_str(&format!("  \"wire_retries\": {},\n", self.wire_retries));
        out.push_str(&format!("  \"wire_expired\": {},\n", self.wire_expired));
        out.push_str(&format!(
            "  \"degraded_groups\": {}\n",
            self.degraded_groups
        ));
        out.push_str("}\n");
        out
    }

    /// Delivered packets per client id, sorted by client.
    pub fn per_client_delivered(&self) -> Vec<(u16, u64)> {
        let mut counts: Vec<(u16, u64)> = Vec::new();
        for r in &self.delivered {
            match counts.iter_mut().find(|(c, _)| *c == r.client) {
                Some((_, n)) => *n += 1,
                None => counts.push((r.client, 1)),
            }
        }
        counts.sort_unstable_by_key(|&(c, _)| c);
        counts
    }
}

/// Shared handle to a [`MetricsLog`]; clone freely into components.
#[derive(Debug, Clone, Default)]
pub struct SharedMetrics(Rc<RefCell<MetricsLog>>);

impl SharedMetrics {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutate the log.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut MetricsLog) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    /// Clone the accumulated log out (e.g. after the run finishes).
    pub fn snapshot(&self) -> MetricsLog {
        self.0.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_handle_aliases_one_log() {
        let m = SharedMetrics::new();
        let alias = m.clone();
        m.with(|log| log.offered += 3);
        alias.with(|log| log.offered += 1);
        assert_eq!(m.snapshot().offered, 4);
    }

    #[test]
    fn to_json_is_deterministic_and_distinguishes_logs() {
        let mut a = MetricsLog::default();
        a.delivered.push(PacketRecord {
            client: 1,
            seq: 2,
            uplink: true,
            arrival_us: 0.1 + 0.2, // not representable exactly: bit fidelity matters
            delivered_us: 7.0,
        });
        a.queue_depth.push(QueueDepthSample {
            time_us: 5.0,
            downlink: 3,
            uplink: 0,
        });
        a.offered = 9;
        let b = a.clone();
        assert_eq!(a.to_json(), b.to_json());
        assert!(a
            .to_json()
            .contains(&format!("{:#018x}", (0.1f64 + 0.2).to_bits())));
        let mut c = a.clone();
        c.delivered[0].delivered_us += 1e-9;
        assert_ne!(a.to_json(), c.to_json());
        assert_ne!(a, c);
    }

    #[test]
    fn per_client_counts_sorted() {
        let m = SharedMetrics::new();
        m.with(|log| {
            for &(c, t) in &[(2u16, 10.0), (1, 20.0), (2, 30.0)] {
                log.delivered.push(PacketRecord {
                    client: c,
                    seq: 0,
                    uplink: true,
                    arrival_us: 0.0,
                    delivered_us: t,
                });
            }
        });
        let log = m.snapshot();
        assert_eq!(log.per_client_delivered(), vec![(1, 1), (2, 2)]);
        assert_eq!(log.delivered_count(true), 3);
        assert_eq!(log.delivered_count(false), 0);
        assert_eq!(log.delivered[0].latency_us(), 10.0);
    }
}
