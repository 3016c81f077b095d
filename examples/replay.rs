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
use iac_lan::sim::cli::parse_seed;
use iac_lan::sim::desrec::{self, ReplayError, ReplayStep};
use iac_lan::sim::registry::{self, Quality};
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
    let mut runs = 0usize;
    desrec::record_trial(
        &a.dir,
        &a.scenario,
        a.quality,
        a.master_seed,
        a.trial,
        |label, log, out| {
            runs += 1;
            eprintln!(
                "[record] {label} -> {} ({} events, {} delivered)",
                log.display(),
                out.events,
                out.log.delivered.len()
            );
        },
    )
    .expect("write the recording");
    println!(
        "recorded {runs} run(s) of {} (trial seed {:#x}) into {}",
        a.scenario,
        registry::trial_seed(a.master_seed, &a.scenario, a.trial),
        a.dir.display()
    );
}

fn cmd_replay(args: &[String]) {
    let a = parse_trial_args(args, "--dir", true);
    // Telemetry on the replay itself: one span per constituent run, and
    // each verified run writes its telemetry into the open handle. Strictly
    // passive — the verification result and both stdout summaries are
    // unaffected.
    let prof = iac_lan::obs::Profiler::with_trace(0, std::time::Instant::now());
    let mut obs = iac_lan::sim::obs::SweepObs::new();
    let mut labels = Vec::new();
    let mut events = 0usize;
    let verified = iac_lan::sim::obs::observing(&obs.registry, || {
        desrec::verify_recording(
            &a.dir,
            &a.scenario,
            a.quality,
            a.master_seed,
            a.trial,
            &prof,
            |step| match step {
                ReplayStep::Verifying { label, events: n } => {
                    events += n;
                    if a.progress {
                        eprintln!("[replay] {label}: verifying {n} event(s) ...");
                    }
                }
                ReplayStep::Verified { label, events: n } => {
                    labels.push(label.to_string());
                    eprintln!("[replay] {label} ok ({n} events verified)");
                }
            },
        )
    });
    if let Err(e) = verified {
        eprintln!("{e}");
        std::process::exit(match e {
            ReplayError::Unreadable(..) => 2,
            _ => 1,
        });
    }
    if a.metrics.is_some() || a.trace.is_some() {
        obs.profile.merge(&prof.tree());
        // Replay spans are all named "run"; retag with the run labels (one
        // span per run, in order) so the trace reads per-run in Perfetto.
        let spans = prof.take_trace_events();
        obs.trace
            .extend(
                spans
                    .iter()
                    .zip(labels.iter())
                    .map(|(e, label)| iac_lan::obs::TraceEvent {
                        name: label.clone(),
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
        labels.len(),
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
