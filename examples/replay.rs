//! Record/replay/diff CLI for the DES scenarios.
//!
//! Debugging workflow (see `docs/EXPERIMENTS.md` for the walkthrough):
//! record a trial's event logs once, replay them later (after a refactor,
//! on another machine, at a different thread count) under bit-exact
//! verification, and when two runs disagree, diff their logs down to the
//! first divergent event instead of staring at mismatched end-of-run
//! statistics.
//!
//! ```text
//! cargo run --release --example replay -- record --scenario des_campus --out /tmp/rec
//! cargo run --release --example replay -- replay --scenario des_campus --dir /tmp/rec
//! cargo run --release --example replay -- diff /tmp/a/campus.iaclog /tmp/b/campus.iaclog
//! cargo run --release --example replay -- dump /tmp/rec/campus.iaclog --limit 10
//! ```
//!
//! `record` writes, into `--out`:
//!   * `<run>.iaclog` — the binary event log of each constituent run,
//!   * `<run>.metrics.json` — that run's bit-faithful `MetricsLog` JSON,
//!   * `trial.json` — the trial's scenario metrics.
//!
//! `replay` re-runs every constituent simulation from the recorded logs,
//! verifies each fired event bit-for-bit, and compares the regenerated
//! metrics/trial JSON byte-for-byte against the recorded files; any
//! divergence prints the first mismatching event with context and exits
//! nonzero. `diff` aligns two logs and prints where they fork.
//!
//! `replay` also takes the sweep CLI's telemetry flags — `--metrics <path>`
//! (registry snapshot + span profile of the replay), `--trace <path>`
//! (Chrome trace, one span per constituent run), `--progress` (per-run
//! stderr lines). All strictly passive: the verification verdict and both
//! stdout summaries are byte-identical with or without them.

use iac_lan::des::log::{render_diff, EventLog};
use iac_lan::des::NetEvent;
use iac_lan::sim::desrec;
use iac_lan::sim::registry::{self, Quality, TrialOutput};
use iac_lan::sim::DEFAULT_SEED;
use std::io::Write as _;
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: replay <command> [options]\n\
         \n\
         record --scenario <name> --out <dir> [--seed N] [--trial I] [--paper]\n\
         \x20   record every constituent run of one DES trial into <dir>\n\
         replay --scenario <name> --dir <dir> [--seed N] [--trial I] [--paper]\n\
         \x20      [--metrics <path>] [--trace <path>] [--progress]\n\
         \x20   re-run from <dir>'s logs under bit-exact verification;\n\
         \x20   optionally export a telemetry snapshot / Chrome trace of the\n\
         \x20   replay itself (per-kind event counts stay empty — the replay\n\
         \x20   checker owns the observer slot)\n\
         diff <a.iaclog> <b.iaclog>\n\
         \x20   align two event logs and print the first divergent event\n\
         dump <log.iaclog> [--limit N]\n\
         \x20   print a recorded log's events\n\
         \n\
         --scenario  one of: {}\n\
         --seed      master sweep seed, decimal or 0x-hex (default {DEFAULT_SEED:#x})\n\
         --trial     replicate index within the trial seed stream (default 0)\n\
         --paper     paper-quality sizing (default quick)",
        desrec::DES_SCENARIOS.join(", ")
    );
    std::process::exit(2);
}

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

struct TrialArgs {
    scenario: String,
    dir: PathBuf,
    quality: Quality,
    master_seed: u64,
    trial: usize,
    metrics: Option<PathBuf>,
    trace: Option<PathBuf>,
    progress: bool,
}

/// Parse the shared record/replay flags; `dir_flag` is `--out` or `--dir`.
/// The telemetry flags (`--metrics`/`--trace`/`--progress`) are only legal
/// when `telemetry` is set — i.e. for the `replay` subcommand.
fn parse_trial_args(args: &[String], dir_flag: &str, telemetry: bool) -> TrialArgs {
    let mut scenario = None;
    let mut dir = None;
    let mut quality = Quality::Quick;
    let mut master_seed = DEFAULT_SEED;
    let mut trial = 0usize;
    let mut metrics = None;
    let mut trace = None;
    let mut progress = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scenario" => scenario = it.next().cloned(),
            f if f == dir_flag => dir = it.next().map(PathBuf::from),
            "--seed" => {
                master_seed = it
                    .next()
                    .map(String::as_str)
                    .and_then(parse_seed)
                    .unwrap_or_else(|| usage())
            }
            "--trial" => {
                trial = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--paper" => quality = Quality::Paper,
            "--quick" => quality = Quality::Quick,
            "--metrics" if telemetry => metrics = it.next().map(PathBuf::from),
            "--trace" if telemetry => trace = it.next().map(PathBuf::from),
            "--progress" if telemetry => progress = true,
            _ => usage(),
        }
    }
    let scenario = scenario.unwrap_or_else(|| usage());
    if !desrec::DES_SCENARIOS.contains(&scenario.as_str()) {
        eprintln!(
            "scenario '{scenario}' does not support record/replay; pick one of: {}",
            desrec::DES_SCENARIOS.join(", ")
        );
        std::process::exit(2);
    }
    TrialArgs {
        scenario,
        dir: dir.unwrap_or_else(|| usage()),
        quality,
        master_seed,
        trial,
        metrics,
        trace,
        progress,
    }
}

/// The trial seed for `(master, scenario, trial index)` — the registry's
/// derivation, so recorded trials line up with sweep replicates.
fn trial_seed(a: &TrialArgs) -> u64 {
    let scen_seed = registry::scenario_seed(a.master_seed, &a.scenario);
    iac_lan::sim::engine::trials_for(scen_seed, a.trial + 1)[a.trial].seed
}

/// Deterministic JSON for a trial's scenario metrics: values carried as
/// IEEE bit patterns (with a human-readable companion), so byte equality
/// of the file is bit equality of every metric.
fn trial_json(a: &TrialArgs, seed: u64, out: &TrialOutput) -> String {
    // Shared with the serve daemon's audit trail, which writes the same
    // recording layout (see docs/SERVE.md).
    desrec::trial_json(&a.scenario, a.quality, a.master_seed, a.trial, seed, out)
}

fn read_log(path: &Path) -> EventLog {
    let bytes = std::fs::read(path).unwrap_or_else(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        std::process::exit(2);
    });
    EventLog::decode(&bytes).unwrap_or_else(|e| {
        eprintln!("{} is not a valid event log: {e}", path.display());
        std::process::exit(2);
    })
}

fn cmd_record(args: &[String]) {
    let a = parse_trial_args(args, "--out", false);
    let seed = trial_seed(&a);
    std::fs::create_dir_all(&a.dir).expect("create output directory");
    let runs = desrec::des_runs(&a.scenario, a.quality, seed);
    let mut outcomes = Vec::with_capacity(runs.len());
    for run in &runs {
        let log_path = a.dir.join(format!("{}.iaclog", run.label));
        let file =
            std::io::BufWriter::new(std::fs::File::create(&log_path).expect("create log file"));
        let out = iac_lan::sim::netsim::run_netsim_recorded(&run.spec, run.phy.clone(), file)
            .expect("write event log");
        std::fs::write(
            a.dir.join(format!("{}.metrics.json", run.label)),
            out.log.to_json(),
        )
        .expect("write metrics json");
        eprintln!(
            "[record] {} -> {} ({} events, {} delivered)",
            run.label,
            log_path.display(),
            out.events,
            out.log.delivered.len()
        );
        outcomes.push(out);
    }
    let trial = desrec::trial_output_from(&a.scenario, a.quality, seed, outcomes);
    std::fs::write(a.dir.join("trial.json"), trial_json(&a, seed, &trial))
        .expect("write trial json");
    println!(
        "recorded {} run(s) of {} (trial seed {seed:#x}) into {}",
        runs.len(),
        a.scenario,
        a.dir.display()
    );
}

fn cmd_replay(args: &[String]) {
    let a = parse_trial_args(args, "--dir", true);
    let seed = trial_seed(&a);
    let runs = desrec::des_runs(&a.scenario, a.quality, seed);
    let telemetry = a.metrics.is_some() || a.trace.is_some();
    // Telemetry on the replay itself: one span per constituent run, the
    // facts harvested after each run verifies. Strictly passive — the
    // verification result and both stdout summaries are unaffected.
    let prof = iac_lan::obs::Profiler::with_trace(0, std::time::Instant::now());
    let mut obs = iac_lan::sim::obs::SweepObs::new();
    let mut outcomes = Vec::with_capacity(runs.len());
    let mut events = 0u64;
    for run in &runs {
        let log = read_log(&a.dir.join(format!("{}.iaclog", run.label)));
        events += log.len() as u64;
        if a.progress {
            eprintln!(
                "[replay] {}: verifying {} event(s) ...",
                run.label,
                log.len()
            );
        }
        let replayed = if telemetry {
            let _span = iac_lan::obs::span!(prof, "run");
            desrec::replay_observed(run, &log).map(|(out, facts)| {
                obs.record_des_run(&facts);
                out
            })
        } else {
            desrec::replay(run, &log)
        };
        let out = match replayed {
            Ok(out) => out,
            Err(d) => {
                eprintln!(
                    "[replay] {} DIVERGED:\n{}",
                    run.label,
                    d.render::<NetEvent>()
                );
                std::process::exit(1);
            }
        };
        let metrics_path = a.dir.join(format!("{}.metrics.json", run.label));
        let recorded = std::fs::read_to_string(&metrics_path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", metrics_path.display());
            std::process::exit(2);
        });
        if recorded != out.log.to_json() {
            eprintln!(
                "[replay] {}: events matched but {} differs from the replayed metrics — \
                 recorded files are inconsistent",
                run.label,
                metrics_path.display()
            );
            std::process::exit(1);
        }
        eprintln!("[replay] {} ok ({} events verified)", run.label, log.len());
        outcomes.push(out);
    }
    let trial = desrec::trial_output_from(&a.scenario, a.quality, seed, outcomes);
    let regenerated = trial_json(&a, seed, &trial);
    let trial_path = a.dir.join("trial.json");
    match std::fs::read_to_string(&trial_path) {
        Ok(recorded) if recorded == regenerated => {}
        Ok(_) => {
            eprintln!(
                "[replay] runs replayed bit-identically but {} disagrees — was it recorded \
                 with the same --scenario/--seed/--trial/--paper flags?",
                trial_path.display()
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("cannot read {}: {e}", trial_path.display());
            std::process::exit(2);
        }
    }
    if telemetry {
        obs.profile.merge(&prof.tree());
        // Replay spans are all named "run"; retag with the run labels (one
        // span per run, in order) so the trace reads per-run in Perfetto.
        let spans = prof.take_trace_events();
        obs.trace.extend(
            spans
                .iter()
                .zip(&runs)
                .map(|(e, run)| iac_lan::obs::TraceEvent {
                    name: run.label.clone(),
                    ..e.clone()
                }),
        );
        if let Some(path) = &a.metrics {
            std::fs::write(path, obs.metrics_json()).expect("write metrics snapshot");
            eprintln!("[replay] metrics snapshot written to {}", path.display());
        }
        if let Some(path) = &a.trace {
            std::fs::write(path, obs.trace_json()).expect("write trace");
            eprintln!("[replay] chrome trace written to {}", path.display());
        }
    }
    println!(
        "replayed {} run(s) of {}: {events} events, every metric bit-identical",
        runs.len(),
        a.scenario
    );
}

fn cmd_diff(args: &[String]) {
    let [a, b] = args else { usage() };
    let log_a = read_log(Path::new(a));
    let log_b = read_log(Path::new(b));
    let rendered = render_diff::<NetEvent>(&log_a, &log_b);
    print!("{rendered}");
    std::io::stdout().flush().ok();
    if !iac_lan::des::log::diff_logs(&log_a, &log_b).is_identical() {
        std::process::exit(1);
    }
}

fn cmd_dump(args: &[String]) {
    let (path, rest) = match args {
        [p, rest @ ..] => (p, rest),
        _ => usage(),
    };
    let mut limit = usize::MAX;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--limit" => {
                limit = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }
    let log = read_log(Path::new(path));
    for (i, r) in log.records.iter().take(limit).enumerate() {
        println!("[{i}] {}", r.describe::<NetEvent>());
    }
    if log.len() > limit {
        println!("... {} more event(s)", log.len() - limit);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    match cmd.as_str() {
        "record" => cmd_record(rest),
        "replay" => cmd_replay(rest),
        "diff" => cmd_diff(rest),
        "dump" => cmd_dump(rest),
        _ => usage(),
    }
}
