//! [`EventPcf`]'s tests: first stochastic traffic and injected faults
//! against invariants, then the protocol pinned exactly, against delivery
//! times and attempt traces derived from the airtime model.

use super::*;
use crate::metrics::MetricsLog;
use crate::net::{TrafficSource, WiredSink};
use crate::simulation::Simulation;
use crate::traffic::ArrivalProcess;
use iac_linalg::Rng64;
use iac_mac::pcf::PacketResult;
use std::cell::RefCell;
use std::rc::Rc;

/// Deterministic PHY stub: every packet succeeds at a fixed SINR except
/// clients listed in `fail_always`.
struct StubPhy {
    fail_always: Vec<u16>,
}

impl PhyOutcome for StubPhy {
    fn downlink_group(&mut self, clients: &[u16], _rng: &mut Rng64) -> Vec<PacketResult> {
        clients
            .iter()
            .map(|&c| PacketResult {
                client: c,
                seq: 0,
                sinr: 12.0,
                ok: !self.fail_always.contains(&c),
                ap: 0,
            })
            .collect()
    }
    fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.downlink_group(clients, rng)
    }
}

/// Add one wired sink per AP, then the FIFO-grouping leader, to `sim`.
fn add_leader<P: PhyOutcome + 'static>(
    sim: &mut Simulation<NetEvent>,
    cfg: EventPcfConfig,
    phy: P,
    metrics: &SharedMetrics,
) -> crate::event::ComponentId {
    let sinks = (0..cfg.protocol.n_aps)
        .map(|a| sim.add_component(format!("sink{a}"), WiredSink::new(metrics.clone())))
        .collect();
    let leader = EventPcf::new(cfg, phy, sinks, metrics.clone());
    sim.add_component("leader", leader)
}

fn build(
    seed: u64,
    cfg: EventPcfConfig,
    phy: StubPhy,
    n_up: u16,
    rate_pps: f64,
) -> (
    Simulation<NetEvent>,
    SharedMetrics,
    crate::event::ComponentId,
) {
    let mut sim = Simulation::new(seed);
    let metrics = SharedMetrics::new();
    let horizon = cfg.horizon;
    let mac = add_leader(&mut sim, cfg, phy, &metrics);
    for c in 0..n_up {
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
    }
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    (sim, metrics, mac)
}

fn small_cfg(horizon_ms: f64) -> EventPcfConfig {
    EventPcfConfig {
        horizon: SimTime::from_millis(horizon_ms),
        ..EventPcfConfig::default()
    }
}

#[test]
fn uplink_packets_deliver_with_deferred_ack_latency() {
    let (mut sim, metrics, _mac) = build(
        1,
        small_cfg(60.0),
        StubPhy {
            fail_always: vec![],
        },
        3,
        400.0,
    );
    sim.step_until_no_events();
    let log = metrics.snapshot();
    assert!(log.offered > 10, "only {} packets offered", log.offered);
    assert!(
        log.delivered_count(true) >= log.offered.saturating_sub(12),
        "{} of {} delivered",
        log.delivered_count(true),
        log.offered
    );
    // Deferred ack: uplink latency is at least one full beacon+CP cycle.
    for r in &log.delivered {
        assert!(r.latency_us() > 100.0, "implausibly fast ack: {r:?}");
    }
    // Every delivered packet crossed the wire once, and reached the two
    // non-decoding APs.
    assert!(log.wire_packets >= log.delivered_count(true));
    assert_eq!(log.wire_delivered, log.wire_packets * 2);
    assert!(log.cfps > 3);
}

#[test]
fn always_failing_client_is_dropped_not_starved() {
    let (mut sim, metrics, _mac) = build(
        2,
        small_cfg(50.0),
        StubPhy {
            fail_always: vec![1],
        },
        3,
        300.0,
    );
    sim.step_until_no_events();
    let log = metrics.snapshot();
    assert!(log.drops_retx > 0, "failing client never dropped");
    // Clients 0 and 2 still get served.
    let per = log.per_client_delivered();
    assert!(per.iter().any(|&(c, n)| c == 0 && n > 0));
    assert!(per.iter().any(|&(c, n)| c == 2 && n > 0));
    assert!(!per.iter().any(|&(c, _)| c == 1));
}

#[test]
fn bidirectional_same_seq_traffic_keeps_budgets_apart() {
    // Retransmission budgets are keyed by direction as well as
    // (client, seq). Client 0 runs both a failing uplink flow and a
    // clean downlink flow with overlapping sequence numbers: the
    // downlink must deliver untouched while the uplink exhausts its
    // budget and drops — neither flow's bookkeeping may leak into the
    // other's.
    struct UplinkOnlyFail;
    impl PhyOutcome for UplinkOnlyFail {
        fn downlink_group(&mut self, clients: &[u16], _rng: &mut Rng64) -> Vec<PacketResult> {
            clients
                .iter()
                .map(|&c| PacketResult {
                    client: c,
                    seq: 0,
                    sinr: 12.0,
                    ok: true,
                    ap: 0,
                })
                .collect()
        }
        fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
            let mut r = self.downlink_group(clients, rng);
            for p in &mut r {
                p.ok = false;
            }
            r
        }
    }

    let mut cfg = small_cfg(150.0);
    // One failed retransmission is the whole budget: drops show up
    // within a handful of CFPs instead of dozens.
    cfg.protocol.retx_limit = 1;
    let mut sim = Simulation::new(7);
    let metrics = SharedMetrics::new();
    let horizon = cfg.horizon;
    let mac = add_leader(&mut sim, cfg, UplinkOnlyFail, &metrics);
    // Same client, same CBR cadence, both directions. The downlink
    // source joins mid-run, so its fresh seqs (0, 1, 2, …) collide with
    // uplink seqs still cycling through their retransmission budget.
    for (uplink, join_ms) in [(true, 0.0), (false, 60.0)] {
        let src = sim.add_component(
            format!("src0-{}", if uplink { "up" } else { "down" }),
            TrafficSource::new(
                0,
                mac,
                uplink,
                ArrivalProcess::cbr(SimTime::from_micros(800.0)),
                horizon,
                metrics.clone(),
            ),
        );
        sim.schedule(SimTime::from_millis(join_ms), src, NetEvent::Join);
    }
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    sim.step_until_no_events();

    let log = metrics.snapshot();
    assert!(log.delivered_count(false) > 10, "downlink flow starved");
    assert_eq!(log.delivered_count(true), 0, "failing uplink delivered?");
    assert!(
        log.drops_retx > 0,
        "uplink packets retried forever: their budget was reset"
    );
}

#[test]
fn bounded_queue_overflows_under_overload() {
    let cfg = EventPcfConfig {
        queue_capacity: Some(8),
        ..small_cfg(40.0)
    };
    // 3 clients at 20k pps ≫ service rate → the 8-slot queue must spill.
    let (mut sim, metrics, _mac) = build(
        3,
        cfg,
        StubPhy {
            fail_always: vec![],
        },
        3,
        20_000.0,
    );
    sim.step_until_no_events();
    let log = metrics.snapshot();
    assert!(log.drops_overflow > 0, "no tail drops under overload");
    // Depth samples never exceed the bound.
    assert!(log.queue_depth.iter().all(|s| s.uplink <= 8));
}

#[test]
fn run_is_bit_reproducible_from_seed() {
    let run = |seed: u64| {
        let (mut sim, metrics, _mac) = build(
            seed,
            small_cfg(30.0),
            StubPhy {
                fail_always: vec![],
            },
            4,
            800.0,
        );
        let events = sim.step_until_no_events();
        (events, sim.time(), metrics.snapshot())
    };
    let (e1, t1, m1) = run(7);
    let (e2, t2, m2) = run(7);
    assert_eq!(e1, e2);
    assert_eq!(t1, t2);
    assert_eq!(m1.delivered, m2.delivered);
    assert_eq!(m1.queue_depth, m2.queue_depth);
    assert_eq!(
        (m1.offered, m1.control_bytes, m1.data_bytes, m1.wire_bytes),
        (m2.offered, m2.control_bytes, m2.data_bytes, m2.wire_bytes)
    );
    let (_, _, m3) = run(8);
    assert_ne!(m1.delivered, m3.delivered, "seed has no effect?");
}

#[test]
fn idle_cfp_shrinks_and_run_terminates() {
    // No sources at all: beacons + CF-End cycle until the horizon, the
    // queue drains, and the event count stays small.
    let (mut sim, metrics, _mac) = build(
        4,
        small_cfg(20.0),
        StubPhy {
            fail_always: vec![],
        },
        0,
        1.0,
    );
    let events = sim.step_until_no_events();
    let log = metrics.snapshot();
    assert!(log.cfps > 10, "MAC did not cycle: {} cfps", log.cfps);
    assert_eq!(log.offered, 0);
    assert_eq!(log.delivered.len(), 0);
    // Two MAC events per idle CFP (CfpStart, BeaconDone) + slack.
    assert!(events < log.cfps * 3 + 5);
    assert!(sim.time() <= SimTime::from_millis(21.0));
}

#[test]
fn churn_leave_stops_arrivals() {
    let mut sim = Simulation::new(5);
    let metrics = SharedMetrics::new();
    let cfg = small_cfg(40.0);
    let horizon = cfg.horizon;
    let mac = add_leader(
        &mut sim,
        cfg,
        StubPhy {
            fail_always: vec![],
        },
        &metrics,
    );
    let src = sim.add_component(
        "src0",
        TrafficSource::new(
            0,
            mac,
            true,
            ArrivalProcess::cbr(SimTime::from_micros(500.0)),
            horizon,
            metrics.clone(),
        ),
    );
    sim.schedule(SimTime::ZERO, src, NetEvent::Join);
    sim.schedule(SimTime::from_millis(10.0), src, NetEvent::Leave);
    sim.schedule(SimTime::from_millis(30.0), src, NetEvent::Join);
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    sim.step_until_no_events();
    let log = metrics.snapshot();
    // ~20 packets in [0,10) ms, none in [10,30), ~20 in [30,40): the
    // leave gap must cut the CBR total roughly in half.
    assert!(
        log.offered > 25 && log.offered < 55,
        "offered {} inconsistent with a 20ms leave gap",
        log.offered
    );
}

#[test]
fn ap_crash_voids_polls_and_shrinks_groups() {
    let (mut sim, metrics, mac) = build(
        11,
        small_cfg(60.0),
        StubPhy {
            fail_always: vec![],
        },
        3,
        400.0,
    );
    // The stub PHY decodes everything at AP 0; crash exactly that AP.
    sim.schedule(SimTime::from_millis(10.0), mac, NetEvent::ApDown { ap: 0 });
    sim.schedule(SimTime::from_millis(40.0), mac, NetEvent::ApUp { ap: 0 });
    sim.step_until_no_events();
    let log = metrics.snapshot();
    assert_eq!(log.faults, 2);
    assert!(log.poll_timeouts > 0, "down AP kept answering polls");
    assert!(log.degraded_groups > 0, "outage never shrank a group");
    assert!(
        log.delivered.iter().any(|r| r.delivered_us > 40_000.0),
        "service never resumed after recovery"
    );
}

#[test]
fn backhaul_partition_expires_forwards_then_heals() {
    let (mut sim, metrics, mac) = build(
        12,
        small_cfg(60.0),
        StubPhy {
            fail_always: vec![],
        },
        3,
        400.0,
    );
    sim.schedule(SimTime::from_millis(5.0), mac, NetEvent::BackhaulDown);
    sim.schedule(SimTime::from_millis(30.0), mac, NetEvent::BackhaulUp);
    sim.step_until_no_events();
    let log = metrics.snapshot();
    assert!(log.wire_expired > 0, "partition never blocked a forward");
    assert!(
        log.degraded_groups > 0,
        "partition never dissolved a group to standalone MIMO"
    );
    assert!(
        log.delivered.iter().any(|r| r.delivered_us > 30_000.0),
        "no deliveries after the partition healed"
    );
}

#[test]
fn wire_loss_retries_and_still_delivers() {
    let mut cfg = small_cfg(40.0);
    cfg.wire_retry = RetryPolicy {
        max_attempts: 6,
        base_backoff_us: 5.0,
        deadline_us: 10_000.0,
    };
    let (mut sim, metrics, mac) = build(
        13,
        cfg,
        StubPhy {
            fail_always: vec![],
        },
        3,
        400.0,
    );
    sim.schedule(
        SimTime::ZERO,
        mac,
        NetEvent::WireImpair {
            loss_ppm: 300_000,
            corrupt_ppm: 0,
        },
    );
    sim.step_until_no_events();
    let log = metrics.snapshot();
    assert!(log.wire_lost > 0, "30% loss never lost an attempt");
    assert!(log.wire_retries > 0, "losses never retried");
    assert_eq!(log.wire_corrupt, 0);
    assert!(
        log.delivered_count(true) > log.offered / 2,
        "bounded retry failed to carry the bulk of the load: {} of {}",
        log.delivered_count(true),
        log.offered
    );
}

#[test]
fn csi_staleness_dissolves_groups_past_threshold() {
    let mut cfg = small_cfg(40.0);
    cfg.csi_fallback_age_slots = Some(8);
    let (mut sim, metrics, mac) = build(
        14,
        cfg,
        StubPhy {
            fail_always: vec![],
        },
        3,
        400.0,
    );
    // 4 slots is within tolerance; 16 crosses the threshold for the
    // rest of the run.
    sim.schedule(
        SimTime::from_millis(5.0),
        mac,
        NetEvent::CsiStale { slots: 4 },
    );
    sim.schedule(
        SimTime::from_millis(20.0),
        mac,
        NetEvent::CsiStale { slots: 16 },
    );
    sim.step_until_no_events();
    let log = metrics.snapshot();
    assert_eq!(log.faults, 2);
    assert!(log.degraded_groups > 0, "stale CSI never dissolved a group");
    assert!(
        log.delivered.iter().any(|r| r.delivered_us > 20_000.0),
        "fallback mode starved the clients"
    );
}

#[test]
fn faulty_run_is_bit_reproducible_from_seed() {
    let run = |seed: u64| {
        let mut cfg = small_cfg(40.0);
        cfg.csi_fallback_age_slots = Some(8);
        let (mut sim, metrics, mac) = build(
            seed,
            cfg,
            StubPhy {
                fail_always: vec![],
            },
            3,
            500.0,
        );
        sim.schedule(SimTime::from_millis(4.0), mac, NetEvent::ApDown { ap: 0 });
        sim.schedule(SimTime::from_millis(9.0), mac, NetEvent::ApUp { ap: 0 });
        sim.schedule(SimTime::from_millis(12.0), mac, NetEvent::BackhaulDown);
        sim.schedule(SimTime::from_millis(16.0), mac, NetEvent::BackhaulUp);
        sim.schedule(
            SimTime::from_millis(18.0),
            mac,
            NetEvent::WireImpair {
                loss_ppm: 200_000,
                corrupt_ppm: 50_000,
            },
        );
        sim.schedule(
            SimTime::from_millis(25.0),
            mac,
            NetEvent::CsiStale { slots: 12 },
        );
        let events = sim.step_until_no_events();
        (events, sim.time(), metrics.snapshot())
    };
    let (e1, t1, m1) = run(21);
    let (e2, t2, m2) = run(21);
    assert_eq!(e1, e2);
    assert_eq!(t1, t2);
    assert_eq!(m1, m2, "faulty runs diverged under one seed");
    assert_eq!(m1.faults, 6);
}

// Exact expectations for the protocol (§7.1, Fig. 9).
//
// Each scenario below drives `EventPcf` on the default three-AP topology
// with FIFO grouping and a scripted PHY whose outcome is a pure function of
// `(client, direction, attempt#)`: no RNG is drawn. Packets are offered as
// `Arrival` events at t = 0, ahead of the first `CfpStart`, and the run
// drains to quiescence. Every expected value is derived here, never pasted
// from a run:
//
// * delivery times, to 1e-9 µs, from `Airtime::default()`, the frame byte
//   sizes and `PcfConfig::default()`;
// * counts and the group-by-group PHY attempt trace as literals, with the
//   queue walk that produces them written beside them.
//
// The timeline the derivations follow: a CFP is the beacon (acking the
// previous CFP's decoded uplink packets when it completes), the downlink
// groups (DATA+Poll, one shared data airtime, one synchronous ack per
// client; a lost packet re-enters at the queue head at once), the uplink
// groups (Grant and one shared data airtime; decoded packets cross the hub
// and wait for the next beacon, unacked ones re-enter at that beacon), then
// CF-End and the contention period. FIFO grouping anchors on the queue head
// and adds the next distinct clients in queue order, up to 3.

/// One PHY attempt: `(client, uplink?, attempt#, ok?)`.
type Attempt = (u16, bool, u32, bool);

const UP: bool = true;
const DN: bool = false;
const OK: bool = true;
const LOST: bool = false;
/// In a failure script: every attempt of that client and direction fails.
const EVERY: u32 = u32::MAX;

/// Attempt `k` of a client in one direction fails iff the script lists
/// `(client, uplink, k)`. Each PHY call (one transmission group) appends
/// one entry to the shared trace.
#[derive(Default)]
struct ScriptedPhy {
    attempts: BTreeMap<(u16, bool), u32>,
    failures: Vec<(u16, bool, u32)>,
    trace: Rc<RefCell<Vec<Vec<Attempt>>>>,
}

impl ScriptedPhy {
    fn group(&mut self, clients: &[u16], uplink: bool) -> Vec<PacketResult> {
        let mut attempts = Vec::new();
        let results = clients
            .iter()
            .map(|&c| {
                let counter = self.attempts.entry((c, uplink)).or_insert(0);
                let k = *counter;
                *counter += 1;
                let ok = !self.failures.contains(&(c, uplink, k))
                    && !self.failures.contains(&(c, uplink, EVERY));
                attempts.push((c, uplink, k, ok));
                // Client c decodes at AP c mod 3: no RNG involved.
                PacketResult {
                    client: c,
                    seq: 0,
                    sinr: 11.0,
                    ok,
                    ap: c % 3,
                }
            })
            .collect();
        self.trace.borrow_mut().push(attempts);
        results
    }
}

impl PhyOutcome for ScriptedPhy {
    fn downlink_group(&mut self, clients: &[u16], _rng: &mut Rng64) -> Vec<PacketResult> {
        self.group(clients, false)
    }
    fn uplink_group(&mut self, clients: &[u16], _rng: &mut Rng64) -> Vec<PacketResult> {
        self.group(clients, true)
    }
}

/// The leader with its offers (`(client, seq, uplink)`, in arrival order)
/// and the first `CfpStart`, all at t = 0.
fn start<P: PhyOutcome + 'static>(
    cfg: EventPcfConfig,
    phy: P,
    offers: &[(u16, u16, bool)],
) -> (Simulation<NetEvent>, SharedMetrics) {
    let mut sim = Simulation::new(0);
    let metrics = SharedMetrics::new();
    let mac = add_leader(&mut sim, cfg, phy, &metrics);
    for &(client, seq, uplink) in offers {
        sim.schedule(
            SimTime::ZERO,
            mac,
            NetEvent::Arrival {
                client,
                seq,
                uplink,
            },
        );
    }
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    (sim, metrics)
}

/// Run a scripted scenario to quiescence: the log and the attempt trace.
fn run_scripted(
    cfg: EventPcfConfig,
    offers: &[(u16, u16, bool)],
    failures: Vec<(u16, bool, u32)>,
) -> (MetricsLog, Vec<Vec<Attempt>>) {
    let phy = ScriptedPhy {
        failures,
        ..ScriptedPhy::default()
    };
    let trace = phy.trace.clone();
    let (mut sim, metrics) = start(cfg, phy, offers);
    sim.step_until_no_events();
    let trace = trace.take();
    (metrics.snapshot(), trace)
}

// Frame sizes, as `MacFrame::encoded_len` counts them: a type byte, the
// body, a 4-byte CRC. A poll entry is a 2-byte client id plus an encoding
// and a decoding vector, each 1 length byte + 2 entries × 8 bytes: 36 bytes.

/// Beacon: cfp_id 2 + duration 2 + ack count 2, then 4 bytes per ack.
fn beacon_bytes(acks: usize) -> usize {
    1 + 6 + 4 * acks + 4
}

/// DATA+Poll: fid 2 + n_aps 1 + max_len 2 + entry count 1 + the entries.
fn poll_bytes(clients: usize) -> usize {
    1 + 5 + 1 + 36 * clients + 4
}

/// Grant: fid 2 + n_aps 1 + entry count 1 + the entries.
fn grant_bytes(clients: usize) -> usize {
    1 + 3 + 1 + 36 * clients + 4
}

/// CF-End: cfp_id 2.
const CF_END_BYTES: usize = 1 + 2 + 4;

#[test]
fn frame_sizes_match_the_encoder() {
    for n in 0..4u16 {
        let entries: Vec<_> = (0..n)
            .map(EventPcf::<ScriptedPhy>::placeholder_entry)
            .collect();
        let ack_map = (0..n).map(|c| (c, c)).collect();
        let (fid, n_aps, max_len) = (1, 3, 1440);
        let beacon = MacFrame::Beacon(Beacon {
            cfp_id: 1,
            duration_slots: 0,
            ack_map,
        });
        let poll = MacFrame::DataPoll(DataPoll {
            fid,
            n_aps,
            max_len,
            entries: entries.clone(),
        });
        let grant = MacFrame::Grant(Grant {
            fid,
            n_aps,
            entries,
        });
        let n = n as usize;
        assert_eq!(beacon.encoded_len(), beacon_bytes(n));
        assert_eq!(poll.encoded_len(), poll_bytes(n));
        assert_eq!(grant.encoded_len(), grant_bytes(n));
    }
    assert_eq!(
        MacFrame::CfEnd(CfEnd { cfp_id: 1 }).encoded_len(),
        CF_END_BYTES
    );
    let sizes = (
        beacon_bytes(0),
        beacon_bytes(1),
        poll_bytes(1),
        grant_bytes(1),
        CF_END_BYTES,
    );
    assert_eq!(sizes, (11, 15, 47, 45, 7));
}

/// Beacon carrying `acks` deferred uplink acks.
fn beacon_us(acks: usize) -> f64 {
    Airtime::default().ctrl_us(beacon_bytes(acks))
}

/// A downlink group of `n` clients: DATA+Poll, one shared data airtime,
/// then one synchronous ack per client.
fn down_us(n: usize) -> f64 {
    let a = Airtime::default();
    a.ctrl_us(poll_bytes(n)) + a.data_us(PcfConfig::default().payload_bytes) + n as f64 * a.ack_us()
}

/// An uplink group of `n` clients: Grant and one shared data airtime (acks
/// are deferred to the next beacon).
fn up_us(n: usize) -> f64 {
    let a = Airtime::default();
    a.ctrl_us(grant_bytes(n)) + a.data_us(PcfConfig::default().payload_bytes)
}

/// CF-End plus the constant contention period.
fn tail_us() -> f64 {
    let a = Airtime::default();
    a.ctrl_us(CF_END_BYTES) + a.cp_us(PcfConfig::default().cp_slots)
}

/// The log's deliveries, in order, against `(client, seq, uplink, µs)`.
fn assert_deliveries(log: &MetricsLog, want: &[(u16, u16, bool, f64)]) {
    let got: Vec<_> = log
        .delivered
        .iter()
        .map(|r| (r.client, r.seq, r.uplink))
        .collect();
    let ids: Vec<_> = want.iter().map(|&(c, s, u, _)| (c, s, u)).collect();
    assert_eq!(got, ids, "delivery order");
    for (r, &(.., t)) in log.delivered.iter().zip(want) {
        assert!((r.delivered_us - t).abs() < 1e-9, "{r:?}: expected {t} µs");
    }
}

#[test]
fn downlink_delivery_and_grouping() {
    // Six clients, one downlink packet each. FIFO: head 0 + clients 1, 2;
    // then head 3 + clients 4, 5. Each group delivers on its acks.
    let offers: Vec<_> = (0..6).map(|c| (c, 100 + c, DN)).collect();
    let (log, trace) = run_scripted(small_cfg(20.0), &offers, vec![]);
    let group = |clients: [u16; 3]| clients.map(|c| (c, DN, 0, OK)).to_vec();
    assert_eq!(trace, vec![group([0, 1, 2]), group([3, 4, 5])]);
    let first = beacon_us(0) + down_us(3);
    let second = first + down_us(3);
    let at = |c| if c < 3 { first } else { second };
    let want: Vec<_> = offers.iter().map(|&(c, s, u)| (c, s, u, at(c))).collect();
    assert_deliveries(&log, &want);
    assert_eq!((log.retx, log.drops_retx, log.wire_packets), (0, 0, 0));
}

#[test]
fn uplink_acks_are_deferred_one_cfp() {
    // Client 0 downlink, client 1 uplink. CFP 1: beacon (no acks), the
    // downlink group (delivered on its ack), the uplink group (decoded and
    // forwarded, not yet acked), CF-End, CP. CFP 2's beacon carries one ack:
    // the uplink packet is delivered when that beacon completes.
    let offers = [(0, 7, DN), (1, 8, UP)];
    let (mut sim, metrics) = start(small_cfg(20.0), ScriptedPhy::default(), &offers);
    let down = beacon_us(0) + down_us(1);
    let cfp1 = down + up_us(1) + tail_us();
    let up = cfp1 + beacon_us(1);
    // ctrl(11) + ctrl(47) + data(1440) + ack = 683.08 µs; then
    // + ctrl(45) + data(1440) + ctrl(7) + cp(10) + ctrl(15) = 1449.49 µs.
    assert!((down - 683.076_923).abs() < 1e-6 && (up - 1_449.487_179).abs() < 1e-6);

    // All of CFP 1 passes without the uplink packet being delivered.
    sim.step_until_time(SimTime::from_micros(cfp1 - 1e-6));
    let log = metrics.snapshot();
    assert_eq!((log.delivered_count(DN), log.delivered_count(UP)), (1, 0));
    assert_eq!(
        log.wire_packets, 1,
        "the decoded uplink packet crossed the hub in CFP 1"
    );

    sim.step_until_no_events();
    assert_deliveries(&metrics.snapshot(), &[(0, 7, DN, down), (1, 8, UP, up)]);
}

#[test]
fn lost_uplink_packet_is_retransmitted() {
    // CFP 1: client 5's attempt 0 fails; it waits for an ack. CFP 2's beacon
    // carries none, so the packet re-enters and attempt 1 decodes. CFP 3's
    // beacon acks it: exactly one CFP (beacon + grant + data + tail, the
    // same length as CFP 1) later than a clean first attempt.
    let (log, trace) = run_scripted(small_cfg(20.0), &[(5, 50, UP)], vec![(5, UP, 0)]);
    assert_eq!(trace, vec![vec![(5, UP, 0, LOST)], vec![(5, UP, 1, OK)]]);
    let cfp = beacon_us(0) + up_us(1) + tail_us();
    let clean = cfp + beacon_us(1);
    assert_deliveries(&log, &[(5, 50, UP, clean + cfp)]);
    assert_eq!((log.retx, log.drops_retx, log.wire_packets), (1, 0, 1));
}

#[test]
fn lost_downlink_packet_requeued_immediately() {
    // Queue 5 6 7 8. The missing client ack puts 5's packet back at the
    // queue head, ahead of 8, so the very next group of CFP 1 is {5, 8}.
    let offers = [(5, 50, DN), (6, 60, DN), (7, 70, DN), (8, 80, DN)];
    let (log, trace) = run_scripted(small_cfg(20.0), &offers, vec![(5, DN, 0)]);
    let first = vec![(5, DN, 0, LOST), (6, DN, 0, OK), (7, DN, 0, OK)];
    assert_eq!(trace, vec![first, vec![(5, DN, 1, OK), (8, DN, 0, OK)]]);
    let (t1, t2) = (
        beacon_us(0) + down_us(3),
        beacon_us(0) + down_us(3) + down_us(2),
    );
    let want = [
        (6, 60, DN, t1),
        (7, 70, DN, t1),
        (5, 50, DN, t2),
        (8, 80, DN, t2),
    ];
    assert_deliveries(&log, &want);
    assert_eq!((log.retx, log.drops_retx), (1, 0));
}

#[test]
fn packet_dropped_after_retx_limit() {
    // retx_limit = 2: attempts 0, 1, 2 each fail and count one retx; the
    // third failure exceeds the budget and drops the packet, all in CFP 1.
    let mut cfg = small_cfg(20.0);
    cfg.protocol.retx_limit = 2;
    let (log, trace) = run_scripted(cfg, &[(5, 50, DN)], vec![(5, DN, EVERY)]);
    let lost: Vec<_> = (0..3).map(|k| vec![(5, DN, k, LOST)]).collect();
    assert_eq!(trace, lost);
    assert_eq!((log.retx, log.drops_retx, log.delivered.len()), (3, 1, 0));
}

#[test]
fn offered_overflow_is_counted_not_ignored() {
    // Capacity 2: arrivals 0 and 1 are queued, 2 and 3 are tail-dropped.
    let cfg = EventPcfConfig {
        queue_capacity: Some(2),
        ..small_cfg(20.0)
    };
    let offers: Vec<_> = (0..4).map(|c| (c, c, DN)).collect();
    let (log, trace) = run_scripted(cfg, &offers, vec![]);
    assert_eq!(log.drops_overflow, 2);
    assert_eq!(trace, vec![vec![(0, DN, 0, OK), (1, DN, 0, OK)]]);
    let t = beacon_us(0) + down_us(2);
    assert_deliveries(&log, &[(0, 0, DN, t), (1, 1, DN, t)]);
}

#[test]
fn cfp_shrinks_when_idle() {
    // One downlink packet: CFP 1 is beacon + one group + CF-End + CP. Every
    // later CFP is idle, just an ack-less beacon, CF-End and CP (186 µs at
    // the default rates), and CFPs keep starting until the 20 ms horizon.
    let (log, _) = run_scripted(small_cfg(20.0), &[(0, 0, DN)], vec![]);
    let loaded = beacon_us(0) + down_us(1) + tail_us();
    let idle = beacon_us(0) + tail_us();
    assert!((idle - 186.0).abs() < 1e-9);
    let starts: Vec<f64> = log.queue_depth.iter().map(|s| s.time_us).collect();
    assert_eq!(starts[0], 0.0);
    assert!((starts[1] - loaded).abs() < 1e-9);
    for w in starts[1..].windows(2) {
        assert!((w[1] - w[0] - idle).abs() < 1e-9, "{w:?}");
    }
    let cfps = 1 + ((20_000.0 - loaded) / idle).ceil() as u64;
    assert_eq!((log.cfps, starts.len() as u64), (cfps, cfps));
    let idle_bytes = (beacon_bytes(0) + CF_END_BYTES) as u64;
    assert_eq!(log.control_bytes, poll_bytes(1) as u64 + cfps * idle_bytes);
}

#[test]
fn control_overhead_is_small() {
    // Nine clients, one packet each way. CFP 1: beacon, 3 full DATA+Poll
    // groups, 3 full Grant groups, CF-End. CFP 2: a 9-ack beacon, CF-End.
    // A horizon just past CFP 2's start leaves exactly those two CFPs.
    let cfp1 = beacon_us(0) + 3.0 * down_us(3) + 3.0 * up_us(3) + tail_us();
    let cfg = EventPcfConfig {
        horizon: SimTime::from_micros(cfp1 + 1.0),
        ..small_cfg(20.0)
    };
    let offers: Vec<_> = (0..9)
        .flat_map(|c| [(c, c, DN), (c, 1000 + c, UP)])
        .collect();
    let (log, _) = run_scripted(cfg, &offers, vec![]);
    assert_eq!(log.cfps, 2);
    assert_eq!((log.delivered_count(DN), log.delivered_count(UP)), (9, 9));
    let cfp1_bytes = beacon_bytes(0) + 3 * poll_bytes(3) + 3 * grant_bytes(3) + CF_END_BYTES;
    let control = cfp1_bytes + beacon_bytes(9) + CF_END_BYTES;
    assert_eq!((control, log.control_bytes), (780, 780));
    // Six groups of three, one 1440-byte payload per packet: 3.0 %.
    assert_eq!(log.data_bytes, 18 * 1440);
    let overhead = log.control_bytes as f64 / log.data_bytes as f64;
    assert!(overhead < 0.05, "control overhead {overhead}");
}

#[test]
fn wire_broadcasts_match_decoded_uplink_packets() {
    // One CFP only (the horizon stops the second). Clients 0, 1, 2 share an
    // uplink group; 2's attempt fails. Clients 0 and 1 decode at APs 0 and
    // 1, so each forward reaches the other two APs' sinks: 2 × 2 deliveries.
    let cfg = EventPcfConfig {
        horizon: SimTime::from_micros(1.0),
        ..small_cfg(20.0)
    };
    let offers: Vec<_> = (0..3).map(|c| (c, c, UP)).collect();
    let (log, trace) = run_scripted(cfg, &offers, vec![(2, UP, 0)]);
    assert_eq!(
        trace,
        vec![vec![(0, UP, 0, OK), (1, UP, 0, OK), (2, UP, 0, LOST)]]
    );
    assert_eq!((log.cfps, log.wire_packets, log.wire_delivered), (1, 2, 4));
    // No second beacon, so nothing is acked yet.
    assert_eq!(log.delivered_count(UP), 0);
}

#[test]
fn groups_never_mix_directions_or_duplicate_clients() {
    // Five clients, one packet each way: downlink {0,1,2}, {3,4}, then
    // uplink {0,1,2}, {3,4}.
    let offers: Vec<_> = (0..5)
        .flat_map(|c| [(c, c, DN), (c, 100 + c, UP)])
        .collect();
    let (log, trace) = run_scripted(small_cfg(20.0), &offers, vec![]);
    let group = |clients: &[u16], uplink| clients.iter().map(|&c| (c, uplink, 0, OK)).collect();
    let want: Vec<Vec<Attempt>> = vec![
        group(&[0, 1, 2], DN),
        group(&[3, 4], DN),
        group(&[0, 1, 2], UP),
        group(&[3, 4], UP),
    ];
    assert_eq!(trace, want);
    for group in &trace {
        assert!(
            group.iter().all(|a| a.1 == group[0].1),
            "mixed directions: {group:?}"
        );
        let mut clients: Vec<u16> = group.iter().map(|a| a.0).collect();
        clients.sort_unstable();
        clients.dedup();
        assert_eq!(clients.len(), group.len(), "repeated client: {group:?}");
    }
    let d1 = beacon_us(0) + down_us(3);
    let d2 = d1 + down_us(2);
    let up = d2 + up_us(3) + up_us(2) + tail_us() + beacon_us(5);
    let mut want: Vec<_> = (0..5)
        .map(|c| (c, c, DN, if c < 3 { d1 } else { d2 }))
        .collect();
    want.extend((0..5).map(|c| (c, 100 + c, UP, up)));
    assert_deliveries(&log, &want);
}

#[test]
fn clean_saturated_uplink_delivers_everything_one_beacon_late() {
    // Six clients, two uplink packets each, offered round by round: queue
    // 0..5 (seqs 0..5), then 0..5 (seqs 100..105). FIFO forms {0,1,2} and
    // {3,4,5} twice; each client's first packet goes first. All 12 decode,
    // cross the hub once each (to 2 sinks apiece), and are acked together
    // by CFP 2's 12-ack beacon.
    let offers: Vec<_> = (0..2)
        .flat_map(|r| (0..6).map(move |c| (c, r * 100 + c, UP)))
        .collect();
    let (log, trace) = run_scripted(small_cfg(20.0), &offers, vec![]);
    let group = |clients: [u16; 3], k: u32| clients.map(|c| (c, UP, k, OK)).to_vec();
    let (a, b) = ([0, 1, 2], [3, 4, 5]);
    assert_eq!(
        trace,
        vec![group(a, 0), group(b, 0), group(a, 1), group(b, 1)]
    );
    let t = beacon_us(0) + 4.0 * up_us(3) + tail_us() + beacon_us(12);
    let want: Vec<_> = offers.iter().map(|&(c, s, u)| (c, s, u, t)).collect();
    assert_deliveries(&log, &want);
    assert_eq!((log.wire_packets, log.wire_delivered), (12, 24));
    assert_eq!((log.retx, log.drops_retx), (0, 0));
}

#[test]
fn lossy_bidirectional_traffic_recovers_every_packet() {
    // Per client c in 0..5, in arrival order: uplink seq c, downlink seq
    // 50 + c, uplink seq 10 + c. Scripted losses: client 1's uplink attempt
    // 0, client 2's uplink attempts 0 and 1, client 4's downlink attempt 0.
    let offers: Vec<_> = (0..5)
        .flat_map(|c| [(c, c, UP), (c, 50 + c, DN), (c, 10 + c, UP)])
        .collect();
    let failures = vec![(1, UP, 0), (2, UP, 0), (2, UP, 1), (4, DN, 0)];
    let (log, trace) = run_scripted(small_cfg(20.0), &offers, failures);
    assert_eq!(
        trace,
        vec![
            // CFP 1, downlink queue 0 1 2 3 4.
            vec![(0, DN, 0, OK), (1, DN, 0, OK), (2, DN, 0, OK)],
            // 4:54 is lost and re-enters at the head: served alone next.
            vec![(3, DN, 0, OK), (4, DN, 0, LOST)],
            vec![(4, DN, 1, OK)],
            // Uplink queue 0:0 0:10 1:1 1:11 2:2 2:12 3:3 3:13 4:4 4:14.
            // Groups take each client's first packet: 0:0 1:1 2:2, ...
            vec![(0, UP, 0, OK), (1, UP, 0, LOST), (2, UP, 0, LOST)],
            // ... 0:10 1:11 2:12, then 3:3 4:4, then 3:13 4:14.
            vec![(0, UP, 1, OK), (1, UP, 1, OK), (2, UP, 1, LOST)],
            vec![(3, UP, 0, OK), (4, UP, 0, OK)],
            vec![(3, UP, 1, OK), (4, UP, 1, OK)],
            // CFP 2's beacon re-queues the unacked 1:1 2:2 2:12 in key
            // order, each at the head: queue 2:12 2:2 1:1.
            vec![(2, UP, 2, OK), (1, UP, 2, OK)],
            vec![(2, UP, 3, OK)],
        ]
    );
    let d1 = beacon_us(0) + down_us(3);
    let d2 = d1 + down_us(2);
    let d3 = d2 + down_us(1);
    let cfp1 = d3 + 2.0 * up_us(3) + 2.0 * up_us(2) + tail_us();
    let ack2 = cfp1 + beacon_us(7);
    let ack3 = ack2 + up_us(2) + up_us(1) + tail_us() + beacon_us(3);
    #[rustfmt::skip]
    let want = [
        (0, 50, DN, d1), (1, 51, DN, d1), (2, 52, DN, d1), (3, 53, DN, d2), (4, 54, DN, d3),
        // CFP 2's beacon acks CFP 1's decodes in decode order, CFP 3's the
        // retransmissions.
        (0, 0, UP, ack2), (0, 10, UP, ack2), (1, 11, UP, ack2), (3, 3, UP, ack2),
        (4, 4, UP, ack2), (3, 13, UP, ack2), (4, 14, UP, ack2),
        (2, 12, UP, ack3), (1, 1, UP, ack3), (2, 2, UP, ack3),
    ];
    assert_deliveries(&log, &want);
    // One downlink and three uplink retransmissions, no drops.
    assert_eq!((log.retx, log.drops_retx, log.wire_packets), (4, 0, 10));
}

#[test]
fn black_hole_client_exhausts_its_budget_alone() {
    // retx_limit = 2; client 3 loses every uplink attempt. Queue 0:0 1:1
    // 2:2 3:3 0:40: CFP 1 serves {0,1,2}, then {3,0}. CFP 2's beacon acks
    // the four decodes and re-queues 3:3 (retx 1); CFP 3's beacon again
    // (retx 2); CFP 4's beacon finds the budget spent (retx 3) and drops it.
    let mut cfg = small_cfg(20.0);
    cfg.protocol.retx_limit = 2;
    let offers = [(0, 0, UP), (1, 1, UP), (2, 2, UP), (3, 3, UP), (0, 40, UP)];
    let (log, trace) = run_scripted(cfg, &offers, vec![(3, UP, EVERY)]);
    assert_eq!(
        trace,
        vec![
            vec![(0, UP, 0, OK), (1, UP, 0, OK), (2, UP, 0, OK)],
            vec![(3, UP, 0, LOST), (0, UP, 1, OK)],
            vec![(3, UP, 1, LOST)],
            vec![(3, UP, 2, LOST)],
        ]
    );
    let t = beacon_us(0) + up_us(3) + up_us(2) + tail_us() + beacon_us(4);
    assert_deliveries(
        &log,
        &[(0, 0, UP, t), (1, 1, UP, t), (2, 2, UP, t), (0, 40, UP, t)],
    );
    assert_eq!((log.retx, log.drops_retx), (3, 1));
    assert_eq!(log.per_client_delivered(), vec![(0, 2), (1, 1), (2, 1)]);
}

/// Answers once per distinct client, however many packets the client
/// carries in the group.
struct OneResultPerClient;

impl PhyOutcome for OneResultPerClient {
    fn downlink_group(&mut self, clients: &[u16], _rng: &mut Rng64) -> Vec<PacketResult> {
        let mut distinct = clients.to_vec();
        distinct.dedup();
        let result = |client| PacketResult {
            client,
            seq: 0,
            sinr: 11.0,
            ok: true,
            ap: 0,
        };
        distinct.into_iter().map(result).collect()
    }
    fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.downlink_group(clients, rng)
    }
}

#[test]
fn one_phy_result_serves_one_packet() {
    // Two streams per client: client 0's two packets form the plan [0, 0],
    // priced as one DATA+Poll entry and one ack. The PHY answers once; that
    // result is the first packet's, and the second, left without one, is
    // lost and served alone by the next group.
    let cfg = EventPcfConfig {
        streams_per_client: 2,
        ..small_cfg(20.0)
    };
    let (mut sim, metrics) = start(cfg, OneResultPerClient, &[(0, 0, DN), (0, 1, DN)]);
    sim.step_until_no_events();
    let log = metrics.snapshot();
    let first = beacon_us(0) + down_us(1);
    assert_deliveries(&log, &[(0, 0, DN, first), (0, 1, DN, first + down_us(1))]);
    assert_eq!((log.retx, log.data_bytes), (1, 3 * 1440));
}
