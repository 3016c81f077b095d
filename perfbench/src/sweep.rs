//! The sweep workloads: repeated in-process passes of
//! `registry::run_scenario` over a scenario list, on one worker.

use crate::plan::{Sweep, Workload};
use crate::report::{end_to_end, peak_rss_mb, Metrics, Tally};
use iac_obs::Profiler;
use iac_sim::engine;
use iac_sim::obs::SweepObs;
use iac_sim::registry::{self, Quality, Scenario, TrialOutput};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Engine workers for every pass (see the README for the 1- versus
/// 2-worker measurement behind this).
pub const WORKERS: usize = 1;

/// Fewest timed passes a run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

type TrialFn = fn(Quality, u64) -> TrialOutput;

thread_local! {
    /// The scenario trial [`timed_trial`] stands in for.
    static INNER: Cell<Option<TrialFn>> = const { Cell::new(None) };
    /// Wall time of every trial [`timed_trial`] ran, ns.
    static TRIAL_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// The trial entry point a timed pass registers in place of each
/// scenario's own: it runs the real trial and records its wall time. With
/// one worker the engine runs every trial on the calling thread, so the
/// thread-locals see them all.
fn timed_trial(quality: Quality, seed: u64) -> TrialOutput {
    let run = INNER.get().expect("timed pass sets the inner trial");
    let t0 = Instant::now();
    let out = run(quality, seed);
    let ns = t0.elapsed().as_nanos() as u64;
    TRIAL_NS.with_borrow_mut(|t| t.push(ns));
    out
}

/// Set-up: look the scenarios up in the registry, build each one's trial
/// list and run one warm-up trial per scenario.
pub fn setup(workload: Workload, seed: u64) -> Sweep {
    let sweep = Sweep::of(workload, seed).expect("a sweep workload");
    for spec in &sweep.specs {
        let trials = engine::trials_for(
            registry::scenario_seed(sweep.master_seed, spec.name),
            spec.default_replicates,
        );
        black_box((spec.run)(sweep.quality, trials[0].seed));
    }
    sweep
}

/// One pass's wall time and reports (`ScenarioReport::to_json`, in pass
/// order).
pub struct Pass {
    /// Wall time of the whole pass.
    pub wall: Duration,
    /// Compact JSON report per scenario.
    pub reports: Vec<String>,
}

/// Run every scenario of the pass, then close `span` (a span guard, or `()`)
/// and serialize the reports, so neither the wall time nor the span covers
/// `to_json`.
fn pass_with<S>(
    sweep: &Sweep,
    span: S,
    mut run: impl FnMut(&Scenario) -> registry::ScenarioReport,
) -> Pass {
    let t0 = Instant::now();
    let reports: Vec<_> = sweep.specs.iter().map(&mut run).collect();
    let wall = t0.elapsed();
    drop(span);
    Pass {
        wall,
        reports: reports.iter().map(|r| r.to_json()).collect(),
    }
}

/// A pass exactly as a user runs it: `run_scenario` per scenario.
pub fn plain_pass(sweep: &Sweep) -> Pass {
    pass_with(sweep, (), |spec| {
        registry::run_scenario(
            spec,
            sweep.quality,
            sweep.master_seed,
            spec.default_replicates,
            WORKERS,
        )
    })
}

/// A plain pass with each trial timed from outside; returns the trial
/// times, ns, alongside.
pub fn timed_pass(sweep: &Sweep) -> (Pass, Vec<u64>) {
    TRIAL_NS.with_borrow_mut(|t| t.clear());
    let pass = pass_with(sweep, (), |spec| {
        INNER.set(Some(spec.run));
        let timed = Scenario {
            run: timed_trial,
            ..*spec
        };
        registry::run_scenario(
            &timed,
            sweep.quality,
            sweep.master_seed,
            spec.default_replicates,
            WORKERS,
        )
    });
    (pass, TRIAL_NS.with_borrow_mut(std::mem::take))
}

/// A traced pass: `run_scenario_observed` per scenario, each call inside a
/// span named after its scenario, all under one span for the pass.
pub fn observed_pass(
    sweep: &Sweep,
    name: &'static str,
    prof: &Profiler,
    obs: &mut SweepObs,
) -> Pass {
    pass_with(sweep, iac_obs::span!(prof, name), |spec| {
        let _scenario = iac_obs::span!(prof, spec.name);
        registry::run_scenario_observed(
            spec,
            sweep.quality,
            sweep.master_seed,
            spec.default_replicates,
            WORKERS,
            obs,
        )
    })
}

/// Check that two passes produced byte-identical reports.
pub fn check_same(sweep: &Sweep, want: &Pass, got: &Pass, what: &str, tally: &mut Tally) {
    for ((spec, w), g) in sweep.specs.iter().zip(&want.reports).zip(&got.reports) {
        tally.check(w == g, || {
            format!("{}: {what} report differs:\n  {w}\n  {g}", spec.name)
        });
    }
}

/// Run a sweep workload for `seconds` and report its end-to-end metrics.
/// Each pass follows its own set-up, so the set-ups are spread over the
/// run as the passes are.
pub fn run(workload: Workload, seed: u64, seconds: f64, tally: &mut Tally) -> Metrics {
    let mut setups = Vec::new();
    let mut passes: Vec<(f64, Vec<f64>)> = Vec::new();
    let mut first: Option<Pass> = None;
    let mut sweep = None;
    let start = Instant::now();
    while passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        let t0 = Instant::now();
        let sweep = sweep.insert(setup(workload, seed));
        setups.push(t0.elapsed().as_secs_f64());
        let (pass, trials) = timed_pass(sweep);
        tally.ops(trials.len());
        passes.push((
            pass.wall.as_secs_f64(),
            trials.iter().map(|&ns| ns as f64 / 1e6).collect(),
        ));
        match &first {
            None => first = Some(pass),
            Some(f) => check_same(sweep, f, &pass, "repeated pass", tally),
        }
    }
    let rss = peak_rss_mb();
    let (sweep, first) = (sweep.expect("a set-up ran"), first.expect("a pass ran"));

    // Output checks, untimed: the timed wrapper and the traced path both
    // reproduce the plain reports byte for byte.
    check_same(&sweep, &plain_pass(&sweep), &first, "timed vs plain", tally);
    let traced = observed_pass(
        &sweep,
        workload.name(),
        &Profiler::new(),
        &mut SweepObs::new(),
    );
    check_same(&sweep, &first, &traced, "plain vs traced", tally);

    end_to_end(workload.name(), &setups, &passes, rss)
}
