//! The sweep CLI engine behind `examples/sweep.rs`.
//!
//! Arg parsing and the run loop live here (rather than in the example) so
//! the stdout/stderr separation contract is testable: [`run_sweep`] takes
//! both streams as writers, and `tests/obs_invariance.rs` pins that the
//! stdout bytes are identical across `--threads` values **and** across
//! telemetry flags (`--metrics`/`--trace`/`--progress` on or off) — every
//! execution-dependent byte (timing, progress, telemetry) goes to stderr or
//! to the requested export files, never to stdout.

use crate::engine::Deadline;
use crate::experiment::DEFAULT_SEED;
use crate::obs::SweepObs;
use crate::registry::{self, Quality, Scenario};
use std::io::Write;
use std::time::{Duration, Instant};

/// Parsed sweep options.
#[derive(Debug, Clone)]
pub struct SweepArgs {
    /// Scenario id, or `"all"`.
    pub scenario: String,
    /// Replicate override (`None` = per-scenario default).
    pub replicates: Option<usize>,
    /// Worker threads; 0 = `IAC_TEST_THREADS` or all cores.
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
    /// Trial sizing.
    pub quality: Quality,
    /// Emit one compact JSON report per scenario instead of tables.
    pub json: bool,
    /// List scenarios and exit.
    pub list: bool,
    /// Write the metrics snapshot (registry + span profile) here.
    pub metrics_path: Option<String>,
    /// Write the Chrome-trace event file here.
    pub trace_path: Option<String>,
    /// Announce each scenario on stderr before running it.
    pub progress: bool,
    /// Wall-clock budget for the whole sweep, in seconds. The deadline is
    /// checked cooperatively between replicates ([`crate::engine::Deadline`],
    /// shared with the daemon): on expiry the current scenario reports its
    /// completed prefix, remaining scenarios are skipped, and the sweep
    /// exits with [`SweepOutcome::TimedOut`].
    pub timeout_secs: Option<u64>,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            scenario: "all".to_string(),
            replicates: None,
            threads: 0,
            seed: DEFAULT_SEED,
            quality: Quality::Quick,
            json: false,
            list: false,
            metrics_path: None,
            trace_path: None,
            progress: false,
            timeout_secs: None,
        }
    }
}

/// How a sweep ended; `examples/sweep.rs` maps these to exit codes
/// (0 / 2 / 124 / 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOutcome {
    /// Every selected scenario ran all its replicates.
    Completed,
    /// `--scenario` named nothing in the registry (exit 2).
    UnknownScenario,
    /// `--timeout-secs` expired: partial results were printed, remaining
    /// work was skipped (exit 124, the `timeout(1)` convention).
    TimedOut,
    /// A replicate panicked: its scenario's report was skipped (named on
    /// stderr), the other scenarios still ran (exit 1).
    Panicked,
}

/// The usage text `examples/sweep.rs` prints on a parse error.
pub const USAGE: &str = "usage: sweep [--scenario <name>|all] [--replicates N] [--threads N] \
[--seed N] [--paper] [--json] [--list] [--metrics <path>] [--trace <path>] [--progress] \
[--timeout-secs N]\n\
\n\
--scenario    scenario id from the registry (default: all)\n\
--replicates  independent trials to reduce (default: per-scenario)\n\
--threads     worker threads; 0 = IAC_TEST_THREADS or all cores (default: 0)\n\
--seed        master seed, decimal or 0x-hex (default: see --list)\n\
--paper       paper-quality trial sizing (default: quick)\n\
--json        print one compact JSON report per scenario\n\
--list        list registered scenarios and exit\n\
--metrics     write a metrics snapshot (counters/gauges/histograms + span\n\
              profile) as JSON to <path>\n\
--trace       write a Chrome Trace Event Format file to <path> (open in\n\
              Perfetto / chrome://tracing)\n\
--progress    announce each scenario on stderr as it starts\n\
--timeout-secs  wall-clock budget for the whole sweep; on expiry the\n\
              current scenario reports the replicates completed so far,\n\
              remaining scenarios are skipped, and sweep exits 124.\n\
              Checked between replicates — a started replicate always\n\
              finishes.";

/// Parse `--seed`: decimal or 0x-prefixed hex.
pub fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Parse a sweep command line (without the program name). `Err` carries a
/// message for stderr; the caller should exit 2.
pub fn parse_sweep_args(args: impl IntoIterator<Item = String>) -> Result<SweepArgs, String> {
    let mut out = SweepArgs::default();
    let mut args = args.into_iter();
    let missing = |flag: &str| format!("{flag} needs a value\n\n{USAGE}");
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scenario" => out.scenario = args.next().ok_or_else(|| missing("--scenario"))?,
            "--replicates" => {
                out.replicates = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| missing("--replicates"))?,
                )
            }
            "--threads" => {
                out.threads = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| missing("--threads"))?
            }
            "--seed" => {
                out.seed = args
                    .next()
                    .as_deref()
                    .and_then(parse_seed)
                    .ok_or_else(|| missing("--seed"))?
            }
            "--paper" => out.quality = Quality::Paper,
            "--quick" => out.quality = Quality::Quick,
            "--json" => out.json = true,
            "--list" => out.list = true,
            "--metrics" => {
                out.metrics_path = Some(args.next().ok_or_else(|| missing("--metrics"))?)
            }
            "--trace" => out.trace_path = Some(args.next().ok_or_else(|| missing("--trace"))?),
            "--progress" => out.progress = true,
            "--timeout-secs" => {
                out.timeout_secs = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .filter(|&n| n > 0)
                        .ok_or_else(|| missing("--timeout-secs"))?,
                )
            }
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok(out)
}

/// Run a sweep. Aggregate output (tables or `--json`) goes to `stdout`;
/// timing, progress, panic and telemetry notices go to `stderr`;
/// metric/trace exports go to their `--metrics`/`--trace` files. Returns
/// the outcome (`examples/sweep.rs` maps [`SweepOutcome::UnknownScenario`]
/// to exit 2, [`SweepOutcome::TimedOut`] to exit 124 and
/// [`SweepOutcome::Panicked`] to exit 1).
///
/// The stdout bytes are bit-identical for every `--threads` value and for
/// every combination of telemetry flags: telemetry is folded from passive
/// observations after each scenario's outputs are already reduced. (With
/// `--timeout-secs`, *which* replicates complete is necessarily
/// timing-dependent — partial output makes no invariance promise.)
pub fn run_sweep(
    args: &SweepArgs,
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> std::io::Result<SweepOutcome> {
    let scenarios = registry::all();

    if args.list {
        writeln!(stdout, "{:<22} {:<5} description", "scenario", "reps")?;
        for s in &scenarios {
            writeln!(stdout, "{:<22} {:<5} {}", s.name, s.default_replicates, s.about)?;
        }
        return Ok(SweepOutcome::Completed);
    }

    let selected: Vec<_> = if args.scenario == "all" {
        scenarios
    } else {
        match registry::find(&args.scenario) {
            Some(s) => vec![s],
            None => {
                writeln!(
                    stderr,
                    "unknown scenario '{}'; try --list for the registry",
                    args.scenario
                )?;
                return Ok(SweepOutcome::UnknownScenario);
            }
        }
    };

    run_selected(args, &selected, stdout, stderr)
}

/// The run loop of [`run_sweep`] over the selected scenarios.
fn run_selected(
    args: &SweepArgs,
    selected: &[Scenario],
    stdout: &mut dyn Write,
    stderr: &mut dyn Write,
) -> std::io::Result<SweepOutcome> {
    let deadline = match args.timeout_secs {
        Some(s) => Deadline::after(Duration::from_secs(s)),
        None => Deadline::none(),
    };
    let telemetry = args.metrics_path.is_some() || args.trace_path.is_some();
    let mut obs = SweepObs::new();
    let mut timed_out = false;
    let mut panicked = false;
    for spec in selected {
        if deadline.expired() {
            writeln!(
                stderr,
                "[timeout] budget of {}s exhausted before {}; skipping it and the rest",
                args.timeout_secs.unwrap_or(0),
                spec.name
            )?;
            timed_out = true;
            break;
        }
        let replicates = args.replicates.unwrap_or(spec.default_replicates);
        if args.progress {
            writeln!(
                stderr,
                "[{}] running {} replicates at {} quality...",
                spec.name,
                replicates,
                args.quality.label()
            )?;
        }
        let started = Instant::now();
        let (report, complete) = match registry::run_replicates(
            spec,
            args.quality,
            args.seed,
            replicates,
            args.threads,
            deadline,
            telemetry.then_some(&mut obs),
        ) {
            Ok(done) => done,
            Err(p) => {
                writeln!(
                    stderr,
                    "[panic] {}: replicate {} panicked: {}; report skipped",
                    spec.name, p.replicate, p.message
                )?;
                panicked = true;
                continue;
            }
        };
        if !complete {
            writeln!(
                stderr,
                "[timeout] {}: {} of {} replicates completed before the deadline",
                spec.name, report.replicates, replicates
            )?;
            timed_out = true;
        }
        // Timing is execution-dependent — stderr only, so stdout stays
        // bit-identical across thread counts.
        writeln!(
            stderr,
            "[{}] {} replicates in {:.2?}",
            spec.name,
            report.replicates,
            started.elapsed()
        )?;
        if args.json {
            writeln!(stdout, "{}", report.to_json())?;
        } else {
            write!(stdout, "{report}")?;
        }
        if timed_out {
            break;
        }
    }

    if let Some(path) = &args.metrics_path {
        std::fs::write(path, obs.metrics_json())?;
        writeln!(stderr, "metrics snapshot written to {path}")?;
    }
    if let Some(path) = &args.trace_path {
        std::fs::write(path, obs.trace_json())?;
        writeln!(stderr, "chrome trace written to {path}")?;
    }
    Ok(if panicked {
        SweepOutcome::Panicked
    } else if timed_out {
        SweepOutcome::TimedOut
    } else {
        SweepOutcome::Completed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &[&str]) -> SweepArgs {
        parse_sweep_args(line.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn flags_parse() {
        let a = parse(&[
            "--scenario", "des_load", "--replicates", "2", "--threads", "4", "--seed", "0x1a",
            "--paper", "--json", "--metrics", "m.json", "--trace", "t.json", "--progress",
            "--timeout-secs", "30",
        ]);
        assert_eq!(a.scenario, "des_load");
        assert_eq!(a.replicates, Some(2));
        assert_eq!(a.threads, 4);
        assert_eq!(a.seed, 0x1a);
        assert_eq!(a.quality, Quality::Paper);
        assert!(a.json && a.progress);
        assert_eq!(a.metrics_path.as_deref(), Some("m.json"));
        assert_eq!(a.trace_path.as_deref(), Some("t.json"));
        assert_eq!(a.timeout_secs, Some(30));
    }

    #[test]
    fn bad_flags_error_with_usage() {
        for line in [
            vec!["--nonesuch"],
            vec!["--replicates", "0"],
            vec!["--seed", "zebra"],
            vec!["--metrics"],
            vec!["--timeout-secs", "0"],
            vec!["--timeout-secs"],
        ] {
            let err = parse_sweep_args(line.iter().map(|s| s.to_string())).unwrap_err();
            assert!(err.contains("usage:"), "{err}");
        }
    }

    #[test]
    fn list_goes_to_stdout_only() {
        let args = SweepArgs {
            list: true,
            ..SweepArgs::default()
        };
        let (mut out, mut err) = (Vec::new(), Vec::new());
        assert_eq!(
            run_sweep(&args, &mut out, &mut err).unwrap(),
            SweepOutcome::Completed
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("des_load"));
        assert!(err.is_empty());
    }

    #[test]
    fn unknown_scenario_reports_on_stderr() {
        let args = SweepArgs {
            scenario: "nonesuch".to_string(),
            ..SweepArgs::default()
        };
        let (mut out, mut err) = (Vec::new(), Vec::new());
        assert_eq!(
            run_sweep(&args, &mut out, &mut err).unwrap(),
            SweepOutcome::UnknownScenario
        );
        assert!(out.is_empty());
        assert!(String::from_utf8(err).unwrap().contains("unknown scenario"));
    }

    #[test]
    fn generous_timeout_output_matches_unbounded() {
        let base = SweepArgs {
            scenario: "sec7_overhead".to_string(),
            replicates: Some(2),
            threads: 1,
            json: true,
            ..SweepArgs::default()
        };
        let (mut plain, mut err) = (Vec::new(), Vec::new());
        assert_eq!(
            run_sweep(&base, &mut plain, &mut err).unwrap(),
            SweepOutcome::Completed
        );
        let bounded_args = SweepArgs {
            timeout_secs: Some(3600),
            ..base
        };
        let (mut bounded, mut err) = (Vec::new(), Vec::new());
        assert_eq!(
            run_sweep(&bounded_args, &mut bounded, &mut err).unwrap(),
            SweepOutcome::Completed
        );
        assert_eq!(plain, bounded, "a deadline that never fires must not change stdout");
    }

    fn broken(_q: Quality, _seed: u64) -> registry::TrialOutput {
        panic!("broken scenario")
    }

    #[test]
    fn panicking_scenario_is_named_skipped_and_the_rest_still_run() {
        let broken = Scenario {
            name: "broken",
            about: "every replicate panics",
            default_replicates: 2,
            run: broken,
        };
        let fine = registry::find("sec7_overhead").unwrap();
        let args = SweepArgs {
            threads: 1,
            json: true,
            ..SweepArgs::default()
        };
        let (mut out, mut err) = (Vec::new(), Vec::new());
        assert_eq!(
            run_selected(&args, &[broken, fine], &mut out, &mut err).unwrap(),
            SweepOutcome::Panicked
        );
        let out = String::from_utf8(out).unwrap();
        assert!(!out.contains("\"broken\""), "the broken report is skipped: {out}");
        assert!(out.contains("\"sec7_overhead\""), "later scenarios still run: {out}");
        let err = String::from_utf8(err).unwrap();
        assert!(
            err.contains("[panic] broken: replicate 0 panicked: broken scenario"),
            "{err}"
        );
    }
}
