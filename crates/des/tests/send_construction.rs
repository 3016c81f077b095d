//! Send-able simulation construction: the contract the parallel experiment
//! engine (`iac_sim::engine`) relies on.
//!
//! A running `Simulation` is deliberately single-threaded (components share
//! one `Rc`-based metrics log), so the engine never moves a *live*
//! simulation across threads. Instead each worker **constructs, runs, and
//! tears down** the whole simulation inside its own closure and ships only
//! plain-data outputs back. This test pins both halves of that contract:
//!
//! 1. everything needed to *describe* a run (configs, arrival processes,
//!    simulated time) is `Send`, and
//! 2. everything a run *returns* (the metrics log and its records) is
//!    `Send` — so results can cross the worker-pool boundary.

use iac_des::pcf::{EventPcf, EventPcfConfig};
use iac_des::traffic::ArrivalProcess;
use iac_des::{
    MetricsLog, NetEvent, PacketRecord, QueueDepthSample, SharedMetrics, SimTime, Simulation,
    TrafficSource, WiredSink,
};
use iac_linalg::Rng64;
use iac_mac::pcf::{PacketResult, PhyOutcome};

fn assert_send<T: Send>() {}

#[test]
fn run_descriptions_and_outputs_are_send() {
    // Inputs a worker closure captures.
    assert_send::<EventPcfConfig>();
    assert_send::<ArrivalProcess>();
    assert_send::<SimTime>();
    // Outputs a worker returns.
    assert_send::<MetricsLog>();
    assert_send::<PacketRecord>();
    assert_send::<QueueDepthSample>();
}

struct AlwaysOk;
impl PhyOutcome for AlwaysOk {
    fn downlink_group(&mut self, clients: &[u16], _rng: &mut Rng64) -> Vec<PacketResult> {
        clients
            .iter()
            .map(|&c| PacketResult {
                client: c,
                seq: 0,
                sinr: 10.0,
                ok: true,
                ap: 0,
            })
            .collect()
    }
    fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.downlink_group(clients, rng)
    }
}

fn run_one(seed: u64) -> MetricsLog {
    let cfg = EventPcfConfig {
        horizon: SimTime::from_millis(20.0),
        ..EventPcfConfig::default()
    };
    let mut sim: Simulation<NetEvent> = Simulation::new(seed);
    let metrics = SharedMetrics::new();
    let horizon = cfg.horizon;
    let sinks: Vec<_> = (0..cfg.protocol.n_aps)
        .map(|a| sim.add_component(format!("sink{a}"), WiredSink::new(metrics.clone())))
        .collect();
    let mac = sim.add_component(
        "leader",
        EventPcf::new(cfg, AlwaysOk, sinks, metrics.clone()),
    );
    for c in 0..3u16 {
        let src = sim.add_component(
            format!("src{c}"),
            TrafficSource::new(
                c,
                mac,
                true,
                ArrivalProcess::poisson(500.0),
                horizon,
                metrics.clone(),
            ),
        );
        sim.schedule(SimTime::ZERO, src, NetEvent::Join);
    }
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    sim.step_until_no_events();
    metrics.snapshot()
}

#[test]
fn whole_simulation_lifecycle_runs_inside_a_worker_thread() {
    // The engine's usage pattern: the construction recipe (a Send closure)
    // crosses the thread boundary, the simulation itself never does, and
    // the plain-data log comes back. Running the same seed on the main
    // thread must give bit-identical results — thread of execution is not
    // an input.
    let worker: Box<dyn FnOnce() -> MetricsLog + Send> = Box::new(|| run_one(7));
    let from_thread = std::thread::spawn(worker).join().expect("worker panicked");
    let from_main = run_one(7);
    assert!(from_thread.offered > 0);
    assert_eq!(from_thread.delivered, from_main.delivered);
    assert_eq!(from_thread.queue_depth, from_main.queue_depth);
    assert_eq!(
        (
            from_thread.offered,
            from_thread.cfps,
            from_thread.wire_packets
        ),
        (from_main.offered, from_main.cfps, from_main.wire_packets)
    );
}
