//! The telemetry route: one lane-scoped handle to the sweep's registry.
//!
//! The hot layers (`iac-des`, `iac-mac`, `iac-phy`) keep plain, always-on
//! counters — they are part of deterministic simulation state, so a run's
//! outputs cannot depend on whether anyone reads them. This module is the
//! *read side*. [`observing`] opens a thread's handle on an
//! [`iac_obs::Registry`]: the engine opens it around each observing lane,
//! the replay CLI around a recording's verification. Each layer writes its
//! metrics straight into the open handle after its unit of work
//! (`netsim::run_netsim` its DES and MAC counters, the lane its
//! scratch-arena delta). [`SweepObs`] holds the registry behind the
//! `--metrics` snapshot, plus the span profile and the Chrome-trace events
//! the lanes ship back, which cannot be shared across threads; closing a
//! scenario files its trial times from those events.
//!
//! Writes are strictly additive and commutative per metric (counters sum,
//! gauges take the max, histograms bucket), so the snapshot is independent
//! of scenario order and worker interleaving — the same order-independence
//! contract the engine's output reduce has.

use iac_obs::{ProfileTree, Registry, TraceEvent};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// The registry this thread's observing lane writes into; `None`
    /// outside [`observing`].
    static LANE: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
}

/// Run `f` with `registry` open as this thread's telemetry handle, then
/// restore the handle that was open before (also when `f` unwinds). Every
/// layer `f` reaches writes its metrics into `registry`; outputs are the
/// same as without the handle.
pub fn observing<R>(registry: &Arc<Registry>, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Arc<Registry>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            LANE.set(self.0.take());
        }
    }
    let _restore = Restore(LANE.replace(Some(Arc::clone(registry))));
    f()
}

/// The handle open on this thread, if a lane observes.
pub(crate) fn lane() -> Option<Arc<Registry>> {
    LANE.with_borrow(Option::clone)
}

/// Accumulates one sweep's telemetry across scenarios: the metric registry,
/// the merged span profile, and the Chrome-trace events.
#[derive(Default)]
pub struct SweepObs {
    /// Counter/gauge/histogram registry behind the `--metrics` snapshot;
    /// observing lanes write into it directly.
    pub registry: Arc<Registry>,
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

    /// Close one scenario: count the `trials` replicates it completed,
    /// file each trial span's duration under `engine.<scenario>.trial_ns`
    /// and merge the span profile and trace events its lanes shipped back.
    pub(crate) fn record_scenario(
        &mut self,
        scenario: &str,
        trials: usize,
        profile: &ProfileTree,
        trace: &[TraceEvent],
    ) {
        self.registry
            .counter(&format!("engine.{scenario}.trials"))
            .add(trials as u64);
        let trial_ns = self
            .registry
            .histogram(&format!("engine.{scenario}.trial_ns"));
        for e in trace {
            trial_ns.observe(e.dur_ns);
            // Engine spans are all named "trial"; retag with the scenario id
            // so the trace reads per-scenario in Perfetto.
            self.trace.push(TraceEvent {
                name: scenario.to_string(),
                ..e.clone()
            });
        }
        self.profile.merge(profile);
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
    use iac_obs::metrics::MetricValue;

    fn trace() -> Vec<TraceEvent> {
        vec![TraceEvent {
            name: "trial".into(),
            ts_ns: 10,
            dur_ns: 1_000,
            lane: 0,
        }]
    }

    #[test]
    fn recording_folds_every_layer_into_the_registry() {
        // The layers below the trial write through the handle (pinned per
        // metric by netsim's and the engine's tests); closing a scenario
        // files its trials, its trial times and its retagged trace.
        let mut obs = SweepObs::new();
        obs.record_scenario("fig12", 1, &ProfileTree::default(), &trace());
        obs.record_scenario("fig13", 0, &ProfileTree::default(), &[]);
        let snap = obs.registry.snapshot();
        assert_eq!(snap.counter("engine.fig12.trials"), Some(1));
        assert_eq!(snap.counter("engine.fig13.trials"), Some(0));
        let hist = |name| match snap.get(name) {
            Some(MetricValue::Histogram { count, sum, .. }) => (*count, *sum),
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(hist("engine.fig12.trial_ns"), (1, 1_000), "one span's time");
        assert_eq!(
            hist("engine.fig13.trial_ns"),
            (0, 0),
            "registered when empty"
        );
        assert!(obs.trace_json().contains("\"name\":\"fig12\""));
        assert!(!obs.trace_json().contains("\"name\":\"trial\""));
    }

    #[test]
    fn recording_is_commutative_across_scenarios() {
        let mut ab = SweepObs::new();
        ab.record_scenario("a", 1, &ProfileTree::default(), &trace());
        ab.record_scenario("b", 2, &ProfileTree::default(), &trace());
        let mut ba = SweepObs::new();
        ba.record_scenario("b", 2, &ProfileTree::default(), &trace());
        ba.record_scenario("a", 1, &ProfileTree::default(), &trace());
        assert_eq!(ab.metrics_json(), ba.metrics_json());
        assert_eq!(ab.trace_json(), ba.trace_json());
    }

    #[test]
    fn the_handle_is_open_only_inside_observing_and_nests() {
        let (outer, inner) = (Arc::new(Registry::new()), Arc::new(Registry::new()));
        assert!(lane().is_none());
        observing(&outer, || {
            observing(&inner, || lane().unwrap().counter("c").inc());
            lane().unwrap().counter("c").add(2);
        });
        assert!(lane().is_none(), "closed after the scope");
        assert_eq!(outer.snapshot().counter("c"), Some(2));
        assert_eq!(inner.snapshot().counter("c"), Some(1));
        // An unwinding scope closes the handle too.
        let unwound = std::panic::catch_unwind(|| observing(&outer, || panic!("boom")));
        assert!(unwound.is_err());
        assert!(lane().is_none(), "closed after an unwind");
    }
}
