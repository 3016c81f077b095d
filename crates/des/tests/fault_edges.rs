//! Churn edge cases at fault/protocol boundaries: a client that departs
//! while the leader is mid-poll-round, an AP that crashes while decoded
//! packets still hold retransmission budget, and a backhaul partition that
//! heals inside an active CFP. None may panic, every run must drain, and
//! each outcome must be bit-reproducible from its seed — these are pure
//! single-threaded DES runs, so the metrics are identical under any
//! `IAC_TEST_THREADS` setting of the surrounding sweep engine (the CI
//! matrix runs 1 and 4).

use iac_des::fault::{FaultAt, FaultInjector, FaultKind};
use iac_des::metrics::{MetricsLog, SharedMetrics};
use iac_des::net::{NetEvent, TrafficSource, WiredSink};
use iac_des::pcf::{EventPcf, EventPcfConfig};
use iac_des::simulation::Simulation;
use iac_des::traffic::ArrivalProcess;
use iac_des::SimTime;
use iac_linalg::Rng64;
use iac_mac::pcf::{PacketResult, PhyOutcome};

/// Every packet decodes at a fixed SINR, attributed round-robin across the
/// APs — deterministic, and exercises the down-AP voiding path for every
/// AP in turn.
struct RoundRobinPhy {
    next_ap: u16,
    n_aps: u16,
}

impl PhyOutcome for RoundRobinPhy {
    fn downlink_group(&mut self, clients: &[u16], _rng: &mut Rng64) -> Vec<PacketResult> {
        clients
            .iter()
            .map(|&c| {
                let ap = self.next_ap;
                self.next_ap = (self.next_ap + 1) % self.n_aps;
                PacketResult {
                    client: c,
                    seq: 0,
                    sinr: 12.0,
                    ok: true,
                    ap,
                }
            })
            .collect()
    }
    fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.downlink_group(clients, rng)
    }
}

/// A full uplink MAC simulation with a fault timeline attached through the
/// real injector component (same wiring as `iac-sim`'s `build_netsim`).
/// `departures` are `(client, leave_ms)` churn points.
fn build(
    seed: u64,
    horizon_ms: f64,
    n_clients: u16,
    rate_pps: f64,
    faults: Vec<FaultAt>,
    departures: &[(u16, f64)],
) -> (Simulation<NetEvent>, SharedMetrics) {
    let cfg = EventPcfConfig {
        horizon: SimTime::from_millis(horizon_ms),
        ..EventPcfConfig::default()
    };
    let mut sim = Simulation::new(seed);
    let metrics = SharedMetrics::new();
    let n_aps = cfg.protocol.n_aps;
    let horizon = cfg.horizon;
    let sinks: Vec<_> = (0..n_aps)
        .map(|a| sim.add_component(format!("sink{a}"), WiredSink::new(metrics.clone())))
        .collect();
    let mac = sim.add_component(
        "leader",
        EventPcf::new(
            cfg,
            RoundRobinPhy { next_ap: 0, n_aps },
            sinks,
            metrics.clone(),
        ),
    );
    for c in 0..n_clients {
        let src = sim.add_component(
            format!("src{c}"),
            TrafficSource::new(
                c,
                mac,
                true,
                ArrivalProcess::poisson(rate_pps),
                horizon,
                metrics.clone(),
            ),
        );
        sim.schedule(SimTime::ZERO, src, NetEvent::Join);
        for &(client, leave_ms) in departures {
            if client == c {
                sim.schedule(SimTime::from_millis(leave_ms), src, NetEvent::Leave);
            }
        }
    }
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    if !faults.is_empty() {
        let injector = FaultInjector::new(mac, faults);
        let first = injector.first_due().expect("non-empty schedule");
        let inj = sim.add_component("faults", injector);
        sim.schedule(first, inj, NetEvent::FaultTick);
    }
    (sim, metrics)
}

fn run(
    seed: u64,
    horizon_ms: f64,
    n_clients: u16,
    rate_pps: f64,
    faults: &[FaultAt],
    departures: &[(u16, f64)],
) -> MetricsLog {
    let (mut sim, metrics) = build(
        seed,
        horizon_ms,
        n_clients,
        rate_pps,
        faults.to_vec(),
        departures,
    );
    sim.step_until_no_events();
    metrics.snapshot()
}

fn at(ms: f64, kind: FaultKind) -> FaultAt {
    FaultAt {
        at: SimTime::from_millis(ms),
        kind,
    }
}

/// Run the same scenario twice and insist on bit-identical metrics — the
/// determinism gate every edge case below passes through.
fn run_deterministic(
    seed: u64,
    horizon_ms: f64,
    n_clients: u16,
    rate_pps: f64,
    faults: &[FaultAt],
    departures: &[(u16, f64)],
) -> MetricsLog {
    let a = run(seed, horizon_ms, n_clients, rate_pps, faults, departures);
    let b = run(seed, horizon_ms, n_clients, rate_pps, faults, departures);
    assert_eq!(a.to_json(), b.to_json(), "run is not bit-reproducible");
    a
}

#[test]
fn client_departs_mid_poll_round_while_an_ap_is_down() {
    // The departure lands at an odd microsecond offset well inside a CFP
    // (poll rounds are back-to-back there), with an AP outage bracketing
    // it: the leader keeps serving the remaining clients, the departed
    // client's queued packets still drain, and nothing panics.
    let faults = [at(8.0, FaultKind::ApDown(1)), at(30.0, FaultKind::ApUp(1))];
    let log = run_deterministic(11, 60.0, 3, 600.0, &faults, &[(2, 10.3)]);
    assert_eq!(log.faults, 2);
    assert!(log.offered > 10, "only {} packets offered", log.offered);
    let delivered = log.delivered_count(true);
    assert!(delivered > 0, "nothing delivered");
    // The departed client stopped offering roughly 5/6 of its traffic.
    let from_leaver = log
        .delivered
        .iter()
        .filter(|r| r.uplink && r.client == 2)
        .count();
    assert!(from_leaver > 0, "pre-departure packets must still deliver");
    // Deliveries continue after the departure *and* after the AP recovers.
    assert!(
        log.delivered.iter().any(|r| r.delivered_us > 30_000.0),
        "service did not continue past the recovery"
    );
}

#[test]
fn ap_crash_with_unacked_retx_budget_recycles_not_duplicates() {
    // IAC mode defers uplink ACKs to the next beacon, so decoded packets
    // sit unacked with retransmission budget. Crash an AP in that window:
    // results decoded at the dead AP are voided (poll_timeouts), the
    // packets recycle through the retx queue, and each eventually delivers
    // exactly once or is dropped after its budget — never both, never
    // twice.
    let faults = [
        at(5.2, FaultKind::ApDown(0)),
        at(6.1, FaultKind::ApDown(2)),
        at(28.0, FaultKind::ApUp(0)),
        at(29.5, FaultKind::ApUp(2)),
    ];
    let log = run_deterministic(12, 60.0, 3, 600.0, &faults, &[]);
    assert_eq!(log.faults, 4);
    assert!(log.poll_timeouts > 0, "no decode was voided at a dead AP");
    assert!(log.retx > 0, "voided packets never recycled");
    // Conservation: every offered packet is delivered, dropped, or still
    // queued at drain — and no uplink (client, seq) delivers twice.
    let delivered = log.delivered_count(true);
    assert!(
        delivered + log.drops_retx + log.drops_overflow <= log.offered,
        "{delivered} delivered + {} dropped > {} offered",
        log.drops_retx + log.drops_overflow,
        log.offered
    );
    let mut seen = std::collections::BTreeSet::new();
    for r in log.delivered.iter().filter(|r| r.uplink) {
        assert!(
            seen.insert((r.client, r.seq)),
            "duplicate delivery of client {} seq {}",
            r.client,
            r.seq
        );
    }
}

#[test]
fn partition_heals_during_cfp_and_forwards_resume() {
    // A short partition that opens and heals at sub-CFP offsets: forwards
    // expire while it holds, the affected packets recycle via the beacon
    // retransmission path, and post-heal CFPs forward normally again.
    let faults = [
        at(7.0, FaultKind::BackhaulDown),
        at(9.9, FaultKind::BackhaulUp),
    ];
    let log = run_deterministic(13, 60.0, 3, 600.0, &faults, &[]);
    assert_eq!(log.faults, 2);
    assert!(log.wire_expired > 0, "partition never blocked a forward");
    assert!(log.degraded_groups > 0, "partition never dissolved a group");
    // Forwards resumed: wire deliveries continue after the heal.
    assert!(log.wire_packets > 0, "no forward ever crossed the backhaul");
    assert!(
        log.delivered
            .iter()
            .any(|r| r.uplink && r.delivered_us > 10_000.0),
        "no uplink delivery after the heal"
    );
    // The healed run still beats a permanently partitioned one.
    let partitioned_forever = run(13, 60.0, 3, 600.0, &[at(7.0, FaultKind::BackhaulDown)], &[]);
    assert!(
        log.delivered_count(true) > partitioned_forever.delivered_count(true),
        "healing the partition must recover throughput"
    );
}

#[test]
fn overlapping_fault_storm_stays_deterministic() {
    // All fault kinds interleaved with churn in one run — the kitchen-sink
    // determinism gate (the storm includes same-timestamp faults, whose
    // FIFO tie-break is part of the frozen semantics).
    let faults = [
        at(
            4.0,
            FaultKind::WireImpair {
                loss_ppm: 200_000,
                corrupt_ppm: 50_000,
            },
        ),
        at(6.0, FaultKind::ApDown(1)),
        at(6.0, FaultKind::BackhaulDown),
        at(9.0, FaultKind::CsiStale(4)),
        at(12.0, FaultKind::BackhaulUp),
        at(14.0, FaultKind::ApUp(1)),
        at(15.0, FaultKind::CsiStale(0)),
        at(
            16.0,
            FaultKind::WireImpair {
                loss_ppm: 0,
                corrupt_ppm: 0,
            },
        ),
    ];
    let log = run_deterministic(14, 50.0, 4, 500.0, &faults, &[(0, 5.5), (3, 20.25)]);
    assert_eq!(log.faults, 8);
    assert!(log.offered > 0 && log.delivered_count(true) > 0);
}
