//! Shared plumbing for the time-domain (discrete-event) scenarios.
//!
//! Two pieces: a [`CalibratedPhy`] whose per-packet SINRs are drawn from a
//! pool *calibrated against the matrix-level machinery* (real testbed
//! channels, real alignment, real decoding — sampled once at setup so the
//! event loop stays fast), and a declarative [`NetSim`] spec that assembles
//! the `iac-des` component graph (sources → event-driven PCF leader → hub →
//! wired sinks) and runs it to completion. Under an open `obs` handle (an
//! observing engine lane, or the replay CLI), a live or replayed run writes
//! its `des.*` and `mac.*` telemetry into it once the run has finished.

use crate::testbed::Testbed;
use iac_channel::estimation::EstimationConfig;
use iac_core::baseline;
use iac_core::decoder::{equal_split_powers, IacDecoder};
use iac_core::optimize;
use iac_des::fault::{FaultAt, FaultInjector};
use iac_des::net::{NetEvent, TrafficSource, WiredSink};
use iac_des::pcf::{EventPcf, EventPcfConfig};
use iac_des::traffic::ArrivalProcess;
use iac_des::{MetricsLog, SharedMetrics, SimTime, Simulation};
use iac_linalg::{CMat, Rng64};
use iac_mac::pcf::{PacketResult, PhyOutcome};
use iac_obs::Registry;

/// A PHY whose per-packet post-processing SINRs are drawn from an empirical
/// pool (see `calibrate_iac_pool` / `calibrate_mimo_pool`). Packet
/// success is `SINR > threshold` (CRC proxy, as in the end-to-end tests)
/// with an optional extra loss probability for un-modelled effects.
#[derive(Debug, Clone)]
pub struct CalibratedPhy {
    pool: Vec<f64>,
    threshold: f64,
    extra_loss: f64,
    n_aps: u16,
    /// Pool used for standalone-MIMO fallback groups (one client, several
    /// streams) when the MAC has dissolved IAC grouping. `None` keeps the
    /// primary pool for every group shape.
    fallback_pool: Option<Vec<f64>>,
    /// SINR penalty per slot of CSI staleness, dB, applied to *multi-client*
    /// groups only — stale alignment vectors leak inter-stream interference,
    /// while a single client beamforming to its own AP needs no cross-AP
    /// CSI. 0 disables aging entirely.
    aging_penalty_db_per_slot: f64,
    /// Current CSI age in slots (set by [`PhyOutcome::csi_aged`]).
    age_slots: u16,
}

impl CalibratedPhy {
    /// Build from a non-empty SINR pool.
    pub(crate) fn new(pool: Vec<f64>, threshold: f64, extra_loss: f64, n_aps: u16) -> Self {
        assert!(!pool.is_empty(), "empty SINR pool");
        assert!((0.0..1.0).contains(&extra_loss));
        Self {
            pool,
            threshold,
            extra_loss,
            n_aps,
            fallback_pool: None,
            aging_penalty_db_per_slot: 0.0,
            age_slots: 0,
        }
    }

    /// Use `pool` for standalone-MIMO fallback groups (one client carrying
    /// ≥ 2 streams) instead of the primary pool.
    pub(crate) fn with_fallback_pool(mut self, pool: Vec<f64>) -> Self {
        assert!(!pool.is_empty(), "empty fallback SINR pool");
        self.fallback_pool = Some(pool);
        self
    }

    /// Penalize multi-client (aligned) groups by `db_per_slot` dB of SINR
    /// per slot of CSI staleness.
    pub(crate) fn with_aging_penalty(mut self, db_per_slot: f64) -> Self {
        assert!(db_per_slot >= 0.0);
        self.aging_penalty_db_per_slot = db_per_slot;
        self
    }

    fn group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        // One client multiplexing several streams is the standalone-MIMO
        // shape: draw from the fallback pool when one is configured.
        let single_client = clients.windows(2).all(|w| w[0] == w[1]);
        let pool: &[f64] = if single_client && clients.len() > 1 {
            self.fallback_pool.as_deref().unwrap_or(&self.pool)
        } else {
            &self.pool
        };
        // Stale CSI corrupts alignment: only multi-client groups pay.
        let penalty = if !single_client && self.age_slots > 0 {
            self.aging_penalty_db_per_slot * f64::from(self.age_slots)
        } else {
            0.0
        };
        let (threshold, extra_loss, n_aps) = (self.threshold, self.extra_loss, self.n_aps);
        clients
            .iter()
            .map(|&c| {
                let mut sinr = pool[(rng.next_u64() % pool.len() as u64) as usize];
                if penalty > 0.0 {
                    sinr *= 10f64.powf(-penalty / 10.0);
                }
                let lost = rng.next_f64() < extra_loss;
                PacketResult {
                    client: c,
                    seq: 0,
                    sinr,
                    ok: sinr > threshold && !lost,
                    ap: (rng.next_u64() % n_aps as u64) as u16,
                }
            })
            .collect()
    }
}

impl PhyOutcome for CalibratedPhy {
    fn downlink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.group(clients, rng)
    }
    fn uplink_group(&mut self, clients: &[u16], rng: &mut Rng64) -> Vec<PacketResult> {
        self.group(clients, rng)
    }
    fn csi_aged(&mut self, slots: u16) {
        self.age_slots = slots;
    }
}

/// Sample the post-processing SINR distribution of 3-packet IAC groups on
/// testbed channels: per draw, three random clients and three APs, channels
/// estimated with error, closed-form + optimised alignment, and the
/// cross-AP successive decode — exactly the §10(e) measurement chain.
pub(crate) fn calibrate_iac_pool(
    testbed: &Testbed,
    est: &EstimationConfig,
    draws: usize,
    rng: &mut Rng64,
) -> Vec<f64> {
    let mut pool = Vec::with_capacity(draws * 3);
    for _ in 0..draws {
        let (aps, clients) = testbed.pick_roles(3, 3, rng);
        let grid = testbed.downlink_grid(&aps, &clients, rng);
        let est_grid = grid.estimated(est, rng);
        let Ok(config) = optimize::downlink3_optimized(&est_grid, 1.0, 1.0) else {
            continue;
        };
        let powers = equal_split_powers(&config.schedule, 1.0);
        let Ok(out) = (IacDecoder {
            true_grid: &grid,
            est_grid: &est_grid,
            schedule: &config.schedule,
            encoding: &config.encoding,
            packet_power: powers,
            noise_power: 1.0,
        })
        .decode() else {
            continue;
        };
        pool.extend(out.sinrs.iter().map(|p| p.sinr));
    }
    assert!(!pool.is_empty(), "calibration produced no SINR samples");
    pool
}

/// Sample the per-stream SINR distribution of the 802.11-MIMO baseline:
/// each draw associates one random client with its best AP (chosen from
/// estimated channels) and realises 2-stream eigenmode SINRs on the true
/// channel.
pub(crate) fn calibrate_mimo_pool(
    testbed: &Testbed,
    est: &EstimationConfig,
    draws: usize,
    rng: &mut Rng64,
) -> Vec<f64> {
    let mut pool = Vec::with_capacity(draws * 2);
    for _ in 0..draws {
        let (aps, clients) = testbed.pick_roles(3, 1, rng);
        let grid = testbed.uplink_grid(&clients, &aps, rng);
        let est_grid = grid.estimated(est, rng);
        let links_true: Vec<CMat> = (0..3).map(|a| grid.link(0, a).clone()).collect();
        let links_est: Vec<CMat> = (0..3).map(|a| est_grid.link(0, a).clone()).collect();
        // A degenerate link carries no stream, so it adds no sample.
        if let Ok((_, _, sinrs)) = baseline::best_ap_rate(&links_true, &links_est, 1.0, 1.0) {
            pool.extend(sinrs);
        }
    }
    assert!(!pool.is_empty(), "calibration produced no SINR samples");
    pool
}

/// One traffic source in a [`NetSim`] spec.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    /// Client id.
    pub client: u16,
    /// Direction of the packets it offers.
    pub uplink: bool,
    /// Arrival process.
    pub process: ArrivalProcess,
    /// Churn schedule: `(time_ms, join?)` state changes. Empty means the
    /// source joins at t = 0 and stays.
    pub churn_ms: Vec<(f64, bool)>,
}

impl SourceSpec {
    /// An always-on source.
    pub(crate) fn steady(client: u16, uplink: bool, process: ArrivalProcess) -> Self {
        Self {
            client,
            uplink,
            process,
            churn_ms: Vec::new(),
        }
    }
}

/// Declarative network simulation: MAC config plus traffic sources.
#[derive(Debug, Clone)]
pub struct NetSim {
    /// Seed for the simulation's single RNG.
    pub seed: u64,
    /// Event-driven MAC parameters.
    pub cfg: EventPcfConfig,
    /// The traffic sources.
    pub sources: Vec<SourceSpec>,
    /// Fault timeline delivered by a [`FaultInjector`] (sorted by time;
    /// empty = clean run, and no injector component is even attached, so
    /// the component graph — and with it every recorded log — is
    /// byte-identical to the pre-fault builds).
    pub faults: Vec<FaultAt>,
}

/// What a completed run yields.
#[derive(Debug, Clone)]
pub struct NetSimOutcome {
    /// The raw measurement log.
    pub log: MetricsLog,
    /// Events the engine dispatched.
    pub events: u64,
    /// Simulated time when the event queue drained.
    pub end_time: SimTime,
}

/// Assemble the component graph (sinks, MAC leader, sources, kick-off
/// events) without running it. The returned simulation is ready for
/// `step_until_no_events()`; `SharedMetrics` is the handle every component
/// records into. Record and replay both need a *freshly built, not yet run*
/// simulation, which is why construction is split from execution.
pub fn build_netsim(spec: &NetSim, phy: CalibratedPhy) -> (Simulation<NetEvent>, SharedMetrics) {
    // Pending events peak near one self-tick per source plus a wire-delivery
    // fan-out per AP and the MAC's own phase events; pre-reserving the heap
    // keeps the steady state allocation-free (churn schedules land up front).
    let events_hint = spec.sources.len() * 4
        + spec.sources.iter().map(|s| s.churn_ms.len()).sum::<usize>()
        + spec.cfg.protocol.n_aps as usize
        + 16;
    let mut sim: Simulation<NetEvent> = Simulation::with_capacity(spec.seed, events_hint);
    let metrics = SharedMetrics::new();
    let n_aps = spec.cfg.protocol.n_aps;
    let horizon = spec.cfg.horizon;
    let sinks: Vec<_> = (0..n_aps)
        .map(|a| sim.add_component(format!("sink{a}"), WiredSink::new(metrics.clone())))
        .collect();
    let mac = sim.add_component(
        "leader",
        EventPcf::new(spec.cfg.clone(), phy, sinks, metrics.clone()),
    );
    for s in &spec.sources {
        let src = sim.add_component(
            format!("src{}{}", if s.uplink { "u" } else { "d" }, s.client),
            TrafficSource::new(
                s.client,
                mac,
                s.uplink,
                s.process.clone(),
                horizon,
                metrics.clone(),
            ),
        );
        if s.churn_ms.is_empty() {
            sim.schedule(SimTime::ZERO, src, NetEvent::Join);
        } else {
            for &(t_ms, join) in &s.churn_ms {
                let ev = if join {
                    NetEvent::Join
                } else {
                    NetEvent::Leave
                };
                sim.schedule(SimTime::from_millis(t_ms), src, ev);
            }
        }
    }
    sim.schedule(SimTime::ZERO, mac, NetEvent::CfpStart);
    if !spec.faults.is_empty() {
        // Attached LAST so every clean-run component keeps its id; the
        // injector draws nothing from the RNG, so a faulty spec perturbs
        // only what its faults actually touch.
        let injector = FaultInjector::new(mac, spec.faults.clone());
        let first = injector
            .first_due()
            .expect("non-empty schedule has a first fault");
        let inj = sim.add_component("faults", injector);
        sim.schedule(first, inj, NetEvent::FaultTick);
    }
    (sim, metrics)
}

fn outcome_of(sim: &Simulation<NetEvent>, metrics: &SharedMetrics, events: u64) -> NetSimOutcome {
    NetSimOutcome {
        log: metrics.snapshot(),
        events,
        end_time: sim.time(),
    }
}

/// Assemble the component graph and run `step_until_no_events()`.
///
/// Under an open `obs` handle (an observing engine lane), the run also
/// attaches a passive event-kind counter and writes its telemetry into the
/// handle (see `write_telemetry`). The outcome is identical either way: the
/// observer cannot touch events, and every number is read from state the
/// run accumulates anyway.
pub fn run_netsim(spec: &NetSim, phy: CalibratedPhy) -> NetSimOutcome {
    let (mut sim, metrics) = build_netsim(spec, phy);
    let Some(registry) = crate::obs::lane() else {
        let events = sim.step_until_no_events();
        return outcome_of(&sim, &metrics, events);
    };
    let kinds = iac_des::SharedKindCounts::new();
    sim.set_observer(Box::new(iac_des::EventKindCounter::new(kinds.clone())));
    let events = sim.step_until_no_events();
    sim.take_observer();
    let out = outcome_of(&sim, &metrics, events);
    write_telemetry(&registry, &sim, &out, &kinds.counts());
    out
}

/// Write one finished run's telemetry into `registry`: engine queue
/// statistics from the simulation, per-kind event counts from the caller's
/// observer (empty when the observer slot was spoken for, as in replay
/// verification), and the MAC counters of the outcome's [`MetricsLog`].
/// Everything is read *after* the run finishes; nothing feeds back.
fn write_telemetry(
    registry: &Registry,
    sim: &Simulation<NetEvent>,
    out: &NetSimOutcome,
    event_kinds: &[(&'static str, u64)],
) {
    let c = |name: &str, v: u64| registry.counter(name).add(v);
    let g = |name: &str, v: u64| registry.gauge(name).observe(v);
    let log = &out.log;
    c("des.events_processed", out.events);
    c("des.events_scheduled", sim.events_scheduled());
    c("des.events_cancelled", sim.events_cancelled());
    c("des.events_undeliverable", sim.events_undeliverable());
    for &(kind, n) in event_kinds {
        c(&format!("des.events.{kind}"), n);
    }
    g("des.queue_high_water", sim.queue_high_water() as u64);
    c("mac.offered", log.offered);
    c("mac.delivered", log.delivered.len() as u64);
    c("mac.retx", log.retx);
    c("mac.drops_retx", log.drops_retx);
    c("mac.drops_overflow", log.drops_overflow);
    c("mac.poll_rounds", log.poll_rounds);
    c("mac.cfps", log.cfps);
    c("mac.air_busy_us", log.air_busy_us.round() as u64);
    c("mac.faults", log.faults);
    c("mac.poll_timeouts", log.poll_timeouts);
    c("mac.wire_expired", log.wire_expired);
    c("mac.degraded_groups", log.degraded_groups);
    // Deepest per-CFP queue sample, either direction (sampled at CFP
    // starts, not continuous).
    let queue_peak = log.queue_depth.iter().map(|s| s.downlink.max(s.uplink));
    g("mac.queue_peak", queue_peak.max().unwrap_or(0) as u64);
    let end_time_us = out.end_time.micros();
    if end_time_us > 0.0 {
        // Basis points so utilization fits the integer gauge.
        let util_bp = (log.air_busy_us / end_time_us * 10_000.0).round() as u64;
        g("mac.airtime_utilization_bp", util_bp);
    }
}

/// [`run_netsim`] with every fired event streamed to `sink` in the
/// `iac-des::log` wire format. The outcome is identical to the unrecorded
/// run's (the recorder is a passive observer); the sink ends up holding a
/// complete decodable [`EventLog`](iac_des::EventLog).
pub fn run_netsim_recorded(
    spec: &NetSim,
    phy: CalibratedPhy,
    sink: impl std::io::Write + 'static,
) -> std::io::Result<NetSimOutcome> {
    let (mut sim, metrics) = build_netsim(spec, phy);
    let recorder: iac_des::EventRecorder<NetEvent> = iac_des::EventRecorder::to_writer(sink)?;
    sim.set_observer(Box::new(recorder.clone()));
    let events = sim.step_until_no_events();
    sim.take_observer();
    recorder.finish()?;
    Ok(outcome_of(&sim, &metrics, events))
}

/// Re-run a recorded [`NetSim`] under verification: rebuild the identical
/// component graph from `spec` and drive it while asserting every fired
/// event matches `log` bit-for-bit. On success the outcome (and its
/// [`MetricsLog`]) is bit-identical to the recorded run's, and under an
/// open `obs` handle the run's telemetry is written as [`run_netsim`]
/// writes it, without per-kind event counts (the replay checker owns the
/// observer slot); on mismatch the first divergent event comes back with
/// context.
pub fn run_netsim_replayed(
    spec: &NetSim,
    phy: CalibratedPhy,
    log: iac_des::EventLog,
) -> Result<NetSimOutcome, Box<iac_des::Divergence>> {
    let (mut sim, metrics) = build_netsim(spec, phy);
    let summary = iac_des::Replayer::new(log).run(&mut sim)?;
    let out = outcome_of(&sim, &metrics, summary.events);
    if let Some(registry) = crate::obs::lane() {
        write_telemetry(&registry, &sim, &out, &[]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pools() -> (Vec<f64>, Vec<f64>) {
        let mut rng = Rng64::new(0x5E7);
        let tb = Testbed::paper_default(&mut rng);
        let est = EstimationConfig::paper_default();
        (
            calibrate_iac_pool(&tb, &est, 6, &mut rng),
            calibrate_mimo_pool(&tb, &est, 6, &mut rng),
        )
    }

    #[test]
    fn calibration_pools_are_plausible() {
        let (iac, mimo) = pools();
        assert!(iac.len() >= 9, "IAC pool too small: {}", iac.len());
        assert!(mimo.len() >= 6, "MIMO pool too small: {}", mimo.len());
        // Most samples decode (the testbed is a working deployment).
        let ok = iac.iter().filter(|&&s| s > 0.5).count() as f64 / iac.len() as f64;
        assert!(ok > 0.6, "{ok}");
    }

    #[test]
    fn netsim_runs_and_delivers() {
        let (iac, _) = pools();
        let spec = NetSim {
            seed: 11,
            cfg: EventPcfConfig {
                horizon: SimTime::from_millis(40.0),
                queue_capacity: Some(64),
                ..EventPcfConfig::default()
            },
            sources: (0..3)
                .map(|c| SourceSpec::steady(c, true, ArrivalProcess::poisson(500.0)))
                .collect(),
            faults: vec![],
        };
        let out = run_netsim(&spec, CalibratedPhy::new(iac, 0.5, 0.01, 3));
        assert!(out.log.offered > 20, "offered {}", out.log.offered);
        assert!(
            out.log.delivered_count(true) as f64 >= 0.5 * out.log.offered as f64,
            "delivered {} of {}",
            out.log.delivered_count(true),
            out.log.offered
        );
        assert!(out.end_time >= SimTime::from_millis(39.0));
        assert!(out.events > out.log.offered);
    }

    #[test]
    fn observed_run_is_bit_identical_and_harvests_facts() {
        // Every run of one quick trial of each DES scenario, run plain and
        // observed. Each metric must equal its own source, so a name wired
        // to the wrong field fails wherever the two fields differ.
        let mut nonzero = std::collections::BTreeSet::new();
        for &name in crate::desrec::DES_SCENARIOS {
            let seed = crate::registry::trial_seed(1, name, 0);
            let drove = crate::desrec::drive(name, crate::Quality::Quick, seed, |run| {
                let (mut sim, metrics) = build_netsim(&run.spec, run.phy.clone());
                let events = sim.step_until_no_events();
                let plain = outcome_of(&sim, &metrics, events);
                let registry = std::sync::Arc::new(Registry::new());
                assert!(crate::obs::lane().is_none(), "no lane observed");
                let observed = crate::obs::observing(&registry, || run_netsim(&run.spec, run.phy));
                // The observer is passive: same log, same event count, same clock.
                assert_eq!(plain.log, observed.log);
                assert_eq!(plain.events, observed.events);
                assert_eq!(plain.end_time, observed.end_time);
                let log = &plain.log;
                let queue_peak = log.queue_depth.iter().map(|s| s.downlink.max(s.uplink));
                let util_bp = log.air_busy_us / plain.end_time.micros() * 10_000.0;
                let counters = [
                    ("des.events_processed", plain.events),
                    ("des.events_scheduled", sim.events_scheduled()),
                    ("des.events_cancelled", sim.events_cancelled()),
                    ("des.events_undeliverable", sim.events_undeliverable()),
                    ("mac.offered", log.offered),
                    ("mac.delivered", log.delivered.len() as u64),
                    ("mac.retx", log.retx),
                    ("mac.drops_retx", log.drops_retx),
                    ("mac.drops_overflow", log.drops_overflow),
                    ("mac.poll_rounds", log.poll_rounds),
                    ("mac.cfps", log.cfps),
                    ("mac.air_busy_us", log.air_busy_us.round() as u64),
                    ("mac.faults", log.faults),
                    ("mac.poll_timeouts", log.poll_timeouts),
                    ("mac.wire_expired", log.wire_expired),
                    ("mac.degraded_groups", log.degraded_groups),
                ];
                let gauges = [
                    ("des.queue_high_water", sim.queue_high_water() as u64),
                    ("mac.queue_peak", queue_peak.max().unwrap_or(0) as u64),
                    ("mac.airtime_utilization_bp", util_bp.round() as u64),
                ];
                let snap = registry.snapshot();
                for (metric, want) in counters {
                    assert_eq!(
                        snap.counter(metric),
                        Some(want),
                        "{name}/{}: {metric}",
                        run.label
                    );
                    if want > 0 {
                        nonzero.insert(metric);
                    }
                }
                for (metric, want) in gauges {
                    assert_eq!(
                        snap.gauge(metric),
                        Some(want),
                        "{name}/{}: {metric}",
                        run.label
                    );
                    if want > 0 {
                        nonzero.insert(metric);
                    }
                }
                let (kinds, other): (Vec<_>, Vec<_>) = snap
                    .entries
                    .iter()
                    .map(|(metric, _)| metric.as_str())
                    .partition(|metric| metric.starts_with("des.events."));
                let per_kind: u64 = kinds.iter().map(|k| snap.counter(k).unwrap()).sum();
                assert_eq!(per_kind, plain.events, "kind counts partition the events");
                assert_eq!(other.len(), counters.len() + gauges.len(), "{other:?}");
                Ok::<_, std::convert::Infallible>(observed)
            });
            drove.unwrap();
        }
        // Every metric but `des.events_undeliverable` (no run sends an event
        // to an unregistered component) is nonzero in some run.
        assert_eq!(nonzero.len(), 18, "{nonzero:?}");
        assert!(!nonzero.contains("des.events_undeliverable"));
    }
}
