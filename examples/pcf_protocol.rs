//! The extended-PCF MAC protocol in action (paper §7, Fig. 9).
//!
//! Runs the event-driven leader AP over a lossy PHY stub until its queues
//! drain: watch beacons carry deferred uplink ACK maps, lost packets re-enter
//! the queue, and decoded uplink packets cross the Ethernet hub exactly once.
//!
//! Run with: `cargo run --release --example pcf_protocol`

use iac_des::prelude::*;
use iac_linalg::Rng64;
use iac_mac::pcf::{PacketResult, PhyOutcome};

/// A PHY stub with 10% loss.
struct LossyPhy {
    loss: f64,
}

impl PhyOutcome for LossyPhy {
    fn downlink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.group(clients, rng)
    }
    fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.group(clients, rng)
    }
}

impl LossyPhy {
    fn group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        clients
            .iter()
            .map(|&c| PacketResult {
                client: c,
                seq: 0,
                sinr: rng.uniform(5.0, 60.0),
                ok: !rng.chance(self.loss),
                ap: rng.below(3) as u16,
            })
            .collect()
    }
}

fn main() {
    let mut sim = Simulation::new(2009);
    let metrics = SharedMetrics::new();
    let cfg = EventPcfConfig {
        horizon: SimTime::from_millis(20.0),
        ..EventPcfConfig::default()
    };
    let sinks = (0..cfg.protocol.n_aps)
        .map(|a| sim.add_component(format!("sink{a}"), WiredSink::new(metrics.clone())))
        .collect();
    let phy = LossyPhy { loss: 0.10 };
    let leader = EventPcf::new(cfg, phy, sinks, metrics.clone());
    let leader = sim.add_component("leader", leader);

    // Six clients with a few packets in each direction, all queued at t = 0.
    for client in 0..6u16 {
        for seq in 0..4u16 {
            for (seq, uplink) in [(seq, false), (100 + seq, true)] {
                sim.schedule(
                    SimTime::ZERO,
                    leader,
                    NetEvent::Arrival {
                        client,
                        seq,
                        uplink,
                    },
                );
            }
        }
    }
    sim.schedule(SimTime::ZERO, leader, NetEvent::CfpStart);
    sim.step_until_no_events();
    let log = metrics.snapshot();

    // One line per CFP until the queues are empty and nothing is left to ack.
    for (k, s) in log.queue_depth.iter().enumerate() {
        let end = log
            .queue_depth
            .get(k + 1)
            .map_or(f64::INFINITY, |n| n.time_us);
        let in_cfp = |r: &&PacketRecord| (s.time_us..end).contains(&r.delivered_us);
        let served = |up| {
            log.delivered
                .iter()
                .filter(in_cfp)
                .filter(|r| r.uplink == up)
                .count()
        };
        let (down, up) = (served(false), served(true));
        if s.downlink + s.uplink + down + up == 0 {
            break;
        }
        println!(
            "CFP {:>2} at {:>7.1} µs: queued {:>2} down, {:>2} up | delivered {:>2} downlink, beacon acked {:>2} uplink",
            k + 1, s.time_us, s.downlink, s.uplink, down, up
        );
    }

    let (down, up) = (log.delivered_count(false), log.delivered_count(true));
    println!(
        "\ndelivered: {down} downlink, {up} uplink of 24 each; {} retransmissions, {} dropped",
        log.retx, log.drops_retx
    );
    let overhead = 100.0 * log.control_bytes as f64 / log.data_bytes as f64;
    println!(
        "air: {} control vs {} data bytes, {overhead:.2}% overhead: every beacon, poll, grant and CF-End of {} CFPs\n     \
         (`sweep --scenario sec7_overhead` sets one full group's metadata against §7e)",
        log.control_bytes, log.data_bytes, log.cfps
    );
    println!(
        "wire: {} packets, {} bytes crossed the hub, {} AP-port deliveries (once per decoded uplink packet, §7d)",
        log.wire_packets, log.wire_bytes, log.wire_delivered
    );
}
