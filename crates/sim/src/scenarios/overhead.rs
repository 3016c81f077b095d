//! §7d/§7e — coordination overhead accounting.
//!
//! Wireless side: the leader's DATA+Poll/Grant broadcasts add "a few bytes
//! per client-AP pair", amounting to 1–2 % of 1440-byte payloads. Wired
//! side: every decoded packet crosses the hub exactly once, so Ethernet
//! traffic stays comparable to the wireless throughput (contrast: virtual
//! MIMO would ship raw samples at orders of magnitude more).

use iac_linalg::{CVec, Rng64};
use iac_mac::ethernet::{Hub, RetryPolicy, WirePacket};
use iac_mac::frames::{DataPoll, MacFrame, PollEntry, VectorQ};

/// The overhead report.
#[derive(Debug, Clone)]
pub(crate) struct OverheadReport {
    /// Wireless metadata overhead for a 3-client group at 1440-B payloads.
    pub wireless_overhead: f64,
    /// Ethernet bytes per delivered wireless byte (uplink, 3 APs).
    pub wire_bytes_per_wireless_byte: f64,
    /// Virtual-MIMO equivalent (raw-sample shipping) for the same packets,
    /// as a multiple of IAC's wire traffic.
    pub virtual_mimo_multiplier: f64,
}

/// Compute the accounting for a `clients`-sized group and given payload.
pub(crate) fn run(clients: usize, payload_bytes: usize, seed: u64) -> OverheadReport {
    let mut rng = Rng64::new(seed);
    let entries: Vec<PollEntry> = (0..clients)
        .map(|k| PollEntry {
            client: k as u16,
            encoding: VectorQ::from_cvec(&CVec::random_unit(2, &mut rng)),
            decoding: VectorQ::from_cvec(&CVec::random_unit(2, &mut rng)),
        })
        .collect();
    let poll = MacFrame::DataPoll(DataPoll {
        fid: 1,
        n_aps: 3,
        max_len: payload_bytes as u16,
        entries,
    });
    let datapoll_bytes = poll.encoded_len();
    let wireless_overhead = datapoll_bytes as f64 / (clients * payload_bytes) as f64;

    // Wired side: deliver `n` uplink packets through the hub.
    let mut hub = Hub::new(3);
    let n = 100u16;
    for seq in 0..n {
        let packet = WirePacket {
            from_ap: (seq % 3),
            client: seq % 8,
            seq,
            payload_bytes,
            annotations: vec![],
        };
        hub.broadcast(&packet, 0.0, &RetryPolicy::default(), |_| false);
    }
    let wireless_bytes = n as u64 * payload_bytes as u64;
    let wire_bytes_per_wireless_byte = hub.bytes_broadcast() as f64 / wireless_bytes as f64;
    // Virtual MIMO ships raw I/Q: 2 bytes per complex sample, 1 sample per
    // BPSK bit, per receive antenna (2), at 2× oversampling (Nyquist).
    let raw_bytes_per_packet = payload_bytes as u64 * 8 * 2 * 2 * 2;
    let virtual_mimo_multiplier =
        (n as u64 * raw_bytes_per_packet) as f64 / hub.bytes_broadcast() as f64;

    OverheadReport {
        wireless_overhead,
        wire_bytes_per_wireless_byte,
        virtual_mimo_multiplier,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wireless_overhead_matches_paper_band() {
        let r = run(3, 1440, 90);
        assert!(
            r.wireless_overhead > 0.005 && r.wireless_overhead < 0.05,
            "overhead {} outside 1-2%-ish band",
            r.wireless_overhead
        );
    }

    #[test]
    fn wire_traffic_comparable_to_wireless() {
        let r = run(3, 1440, 91);
        assert!(
            r.wire_bytes_per_wireless_byte < 1.1,
            "wire traffic {}x wireless",
            r.wire_bytes_per_wireless_byte
        );
    }

    #[test]
    fn virtual_mimo_costs_much_more() {
        let r = run(3, 1440, 92);
        assert!(
            r.virtual_mimo_multiplier > 10.0,
            "expected an order of magnitude, got {}x",
            r.virtual_mimo_multiplier
        );
    }
}
