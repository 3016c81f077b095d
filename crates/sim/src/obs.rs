//! The telemetry bridge: run facts → metric registry + span profile + trace.
//!
//! The hot layers (`iac-des`, `iac-mac`, `iac-phy`) keep plain, always-on
//! counters — they are part of deterministic simulation state, so a run's
//! outputs cannot depend on whether anyone reads them. This module is the
//! *read side*: after each scenario's run, the engine's [`EngineFacts`]
//! (which carry the DES run facts each observing lane's sink collected) are
//! folded into an [`iac_obs::Registry`] (for the `--metrics` snapshot), a
//! merged [`ProfileTree`] and a Chrome-trace event list (for `--trace`).
//!
//! Folding is strictly additive and commutative per metric (counters sum,
//! gauges take the max), so the snapshot is independent of scenario order
//! and worker interleaving — the same order-independence contract the
//! engine's output reduce has.

use crate::engine::EngineFacts;
use crate::netsim::DesRunFacts;
use iac_obs::{ProfileTree, Registry, TraceEvent};
use std::cell::RefCell;

thread_local! {
    /// DES run facts for this thread's observing engine lane, which opens
    /// the sink (`Some`) and takes it back; `netsim::run_netsim` fills it.
    pub(crate) static DES_SINK: RefCell<Option<Vec<DesRunFacts>>> =
        const { RefCell::new(None) };
}

/// Accumulates one sweep's telemetry across scenarios: the metric registry,
/// the merged span profile, and the Chrome-trace events.
#[derive(Default)]
pub struct SweepObs {
    /// Counter/gauge/histogram registry behind the `--metrics` snapshot.
    pub registry: Registry,
    /// Merged span-profile tree across all scenarios and lanes.
    pub profile: ProfileTree,
    /// Trace events (`--trace`); names retagged to their scenario id.
    pub trace: Vec<TraceEvent>,
}

impl SweepObs {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one scenario's engine facts in; `trials` is the number of
    /// replicates it completed.
    pub fn record_scenario(&mut self, scenario: &str, engine: &EngineFacts, trials: usize) {
        self.registry
            .counter(&format!("engine.{scenario}.trials"))
            .add(trials as u64);
        let trial_ns = self.registry.histogram(&format!("engine.{scenario}.trial_ns"));
        for t in &engine.timings {
            trial_ns.observe(t.dur_ns);
        }
        self.registry
            .gauge("engine.workers")
            .observe(engine.workers.len() as u64);
        for w in &engine.workers {
            let s = &w.scratch;
            self.registry.counter("phy.scratch.pool_hits").add(s.pool_hits);
            self.registry.counter("phy.scratch.pool_misses").add(s.pool_misses);
            self.registry.counter("phy.scratch.plan_hits").add(s.plan_hits);
            self.registry.counter("phy.scratch.plan_misses").add(s.plan_misses);
        }
        for run in &engine.des_runs {
            self.record_des_run(run);
        }
        self.profile.merge(&engine.profile);
        // Engine spans are all named "trial"; retag with the scenario id so
        // the trace reads per-scenario in Perfetto.
        self.trace.extend(engine.trace.iter().map(|e| TraceEvent {
            name: scenario.to_string(),
            ..e.clone()
        }));
    }

    /// Fold one DES run's facts in. [`record_scenario`](Self::record_scenario)
    /// calls this per run; the replay CLI calls it directly for runs
    /// verified outside the sweep engine.
    pub fn record_des_run(&mut self, run: &DesRunFacts) {
        let c = |name: &str, v: u64| self.registry.counter(name).add(v);
        c("des.events_processed", run.events_processed);
        c("des.events_scheduled", run.events_scheduled);
        c("des.events_cancelled", run.events_cancelled);
        c("des.events_undeliverable", run.events_undeliverable);
        for &(kind, n) in &run.event_kinds {
            c(&format!("des.events.{kind}"), n);
        }
        self.registry
            .gauge("des.queue_high_water")
            .observe(run.queue_high_water as u64);
        c("mac.offered", run.offered);
        c("mac.delivered", run.delivered);
        c("mac.retx", run.retx);
        c("mac.drops_retx", run.drops_retx);
        c("mac.drops_overflow", run.drops_overflow);
        c("mac.poll_rounds", run.poll_rounds);
        c("mac.cfps", run.cfps);
        c("mac.air_busy_us", run.air_busy_us.round() as u64);
        c("mac.faults", run.faults);
        c("mac.poll_timeouts", run.poll_timeouts);
        c("mac.wire_expired", run.wire_expired);
        c("mac.degraded_groups", run.degraded_groups);
        self.registry
            .gauge("mac.queue_peak")
            .observe(run.mac_queue_peak as u64);
        if run.end_time_us > 0.0 {
            // Basis points so utilization fits the integer gauge.
            let util_bp = (run.air_busy_us / run.end_time_us * 10_000.0).round() as u64;
            self.registry.gauge("mac.airtime_utilization_bp").observe(util_bp);
        }
    }

    /// The `--metrics` file payload: the registry snapshot plus the merged
    /// span profile, one parseable JSON object.
    pub fn metrics_json(&self) -> String {
        format!(
            "{{\"metrics\":{},\"profile\":{}}}",
            self.registry.snapshot().to_json(),
            self.profile.to_json()
        )
    }

    /// The `--trace` file payload, Chrome Trace Event Format.
    pub fn trace_json(&self) -> String {
        iac_obs::chrome_trace_json(&self.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{TrialTiming, WorkerFacts};
    use iac_phy::ScratchStats;

    fn facts() -> EngineFacts {
        EngineFacts {
            timings: vec![
                TrialTiming { index: 0, lane: 0, start_ns: 10, dur_ns: 1_000 },
                TrialTiming { index: 1, lane: 1, start_ns: 20, dur_ns: 3_000 },
            ],
            workers: vec![
                WorkerFacts {
                    lane: 0,
                    trials: 1,
                    scratch: ScratchStats { pool_hits: 4, pool_misses: 1, plan_hits: 7, plan_misses: 2 },
                },
                WorkerFacts { lane: 1, trials: 1, scratch: ScratchStats::default() },
            ],
            profile: ProfileTree::default(),
            trace: vec![TraceEvent { name: "trial".into(), ts_ns: 10, dur_ns: 1_000, lane: 0 }],
            des_runs: vec![DesRunFacts {
                label: "campus".into(),
                events_processed: 100,
                events_scheduled: 110,
                events_cancelled: 4,
                events_undeliverable: 6,
                queue_high_water: 9,
                event_kinds: vec![("Arrival", 60), ("CfpStart", 40)],
                offered: 50,
                delivered: 48,
                drops_overflow: 1,
                drops_retx: 1,
                retx: 5,
                poll_rounds: 20,
                cfps: 10,
                air_busy_us: 800.0,
                end_time_us: 1_000.0,
                mac_queue_peak: 3,
                faults: 2,
                poll_timeouts: 1,
                wire_expired: 1,
                degraded_groups: 3,
            }],
        }
    }

    #[test]
    fn recording_folds_every_layer_into_the_registry() {
        let mut obs = SweepObs::new();
        obs.record_scenario("des_campus", &facts(), 1);
        let json = obs.metrics_json();
        for key in [
            "\"engine.des_campus.trials\":1",
            "\"des.events_processed\":100",
            "\"des.events.Arrival\":60",
            "\"des.queue_high_water\":9",
            "\"mac.retx\":5",
            "\"mac.drops_overflow\":1",
            "\"mac.airtime_utilization_bp\":8000",
            "\"mac.faults\":2",
            "\"mac.degraded_groups\":3",
            "\"phy.scratch.pool_hits\":4",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        // The trace retags engine spans with the scenario id.
        assert!(obs.trace_json().contains("\"name\":\"des_campus\""));
    }

    #[test]
    fn recording_is_commutative_across_scenarios() {
        let engine = facts();
        let mut ab = SweepObs::new();
        ab.record_scenario("a", &engine, 1);
        ab.record_scenario("b", &engine, 1);
        let mut ba = SweepObs::new();
        ba.record_scenario("b", &engine, 1);
        ba.record_scenario("a", &engine, 1);
        assert_eq!(ab.metrics_json(), ba.metrics_json());
        assert_eq!(ab.trace_json(), ba.trace_json());
    }
}
