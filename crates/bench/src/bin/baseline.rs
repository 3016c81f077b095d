//! Record or check the committed benchmark baselines.
//!
//! ```text
//! baseline record [--dir <repo-root>] [--threshold 0.25] [--accept-regression]
//! baseline check  [--dir <repo-root>] [--threshold 0.25] [--allow-missing]
//! ```
//!
//! Both re-measure the registered micro/sample-plane workloads at quick
//! scale and print the committed→measured table. `check` exits with code 1
//! if any target's median regressed more than the threshold (`--threshold`,
//! or the `IAC_BASELINE_THRESHOLD` environment variable, default 0.25 =
//! 25 %) against the committed files. `record` overwrites
//! `BENCH_micro_ops.json` + `BENCH_sample_ops.json` at the repo root, but
//! refuses (exit code 1, files untouched) to raise an existing target's
//! median by more than the threshold unless given `--accept-regression`.
//! See `docs/PERFORMANCE.md`.

use iac_bench::baseline::{
    compare, may_record, measure, suites, ungated, Suite, DEFAULT_THRESHOLD,
};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: baseline <record|check> [--dir <repo-root>] [--threshold <fraction>] \
         [--allow-missing] [--accept-regression]"
    );
    std::process::exit(2);
}

struct Args {
    record: bool,
    dir: PathBuf,
    threshold: f64,
    /// Report baseline targets the current build no longer measures as
    /// warnings instead of failures (for CI flows that re-record the
    /// baseline from a base commit: a PR must be able to retire a target).
    allow_missing: bool,
    /// Let `record` raise a committed median beyond the threshold (an
    /// intended slowdown, or a re-record on slower hardware).
    accept_regression: bool,
}

fn parse_args() -> Args {
    // Default repo root: two levels above this crate's manifest.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    let mut threshold = std::env::var("IAC_BASELINE_THRESHOLD")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD);
    let mut record = None;
    let mut allow_missing = false;
    let mut accept_regression = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "record" => record = Some(true),
            "check" => record = Some(false),
            "--dir" => dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--allow-missing" => allow_missing = true,
            "--accept-regression" => accept_regression = true,
            _ => usage(),
        }
    }
    let Some(record) = record else { usage() };
    assert!(
        threshold >= 0.0 && threshold.is_finite(),
        "threshold must be a non-negative fraction"
    );
    Args {
        record,
        dir,
        threshold,
        allow_missing,
        accept_regression,
    }
}

/// Measure `suite` into a per-process scratch file. A transient load spike
/// inflates a whole 300 ms window; a genuine regression reproduces. So when
/// any target looks regressed against `baseline`, re-measure once and keep
/// the per-target best: only repeatable slowdowns count.
fn measure_filtered(
    suite: &Suite,
    baseline: &[(String, f64)],
    threshold: f64,
) -> Vec<(String, f64)> {
    // Per-process scratch path: concurrent runs must not share a file.
    let scratch = std::env::temp_dir().join(format!(
        "iac-baseline-{}-{}",
        std::process::id(),
        suite.file
    ));
    let mut measured = measure(suite, &scratch).expect("measurement failed");
    if compare(baseline, &measured)
        .iter()
        .any(|c| c.failed(threshold))
    {
        println!("   (regression candidate — re-measuring once to filter load noise)");
        let second = measure(suite, &scratch).expect("measurement failed");
        for (target, ns) in measured.iter_mut() {
            if let Some((_, ns2)) = second.iter().find(|(t, _)| t == target) {
                *ns = ns.min(*ns2);
            }
        }
    }
    let _ = std::fs::remove_file(&scratch);
    measured
}

fn main() -> ExitCode {
    let args = parse_args();
    let mut failures = 0usize;
    for suite in suites() {
        let committed = args.dir.join(suite.file);
        let baseline = match std::fs::read_to_string(&committed) {
            Ok(text) => criterion::json::parse_flat_map(&text)
                .unwrap_or_else(|| panic!("{} is not a flat JSON map", committed.display())),
            // A first `record` has nothing to compare against.
            Err(e) if args.record && e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => panic!(
                "cannot read baseline {} ({e}); run `baseline record` first",
                committed.display()
            ),
        };
        let verb = if args.record {
            "recording"
        } else {
            "checking against"
        };
        println!("== {verb} {} ==", committed.display());
        let measured = measure_filtered(&suite, &baseline, args.threshold);
        let table = compare(&baseline, &measured);
        for c in &table {
            let raised = c.failed(args.threshold);
            let verdict = match (c.delta, raised) {
                (Some(d), true) if args.record && args.accept_regression => {
                    format!(
                        "RAISED {:+.1}% (accepted by --accept-regression)",
                        d * 100.0
                    )
                }
                (Some(d), true) if args.record => {
                    format!("RAISED {:+.1}% (refused)", d * 100.0)
                }
                (Some(d), true) => {
                    failures += 1;
                    format!("REGRESSED {:+.1}%", d * 100.0)
                }
                (Some(d), false) => format!("ok {:+.1}%", d * 100.0),
                (None, _) if args.record => "RETIRED (dropped from the baseline)".to_string(),
                (None, _) if args.allow_missing => {
                    "MISSING (tolerated by --allow-missing)".to_string()
                }
                (None, _) => {
                    failures += 1;
                    "MISSING (target no longer measured)".to_string()
                }
            };
            let measured_ns = c
                .measured_ns
                .map_or("-".to_string(), |ns| format!("{ns:.0}"));
            println!(
                "   {:<42} base {:>10.0} ns | now {:>10} ns | {verdict}",
                c.target, c.baseline_ns, measured_ns
            );
        }
        let new_note = if args.record {
            "NEW"
        } else {
            "NEW (not gated; run `baseline record` to gate it)"
        };
        for t in ungated(&baseline, &measured) {
            println!("   {t:<42} {new_note}");
        }
        if !args.record {
            continue;
        }
        if may_record(&table, args.threshold, args.accept_regression) {
            std::fs::write(&committed, criterion::json::format_flat_map(&measured))
                .unwrap_or_else(|e| panic!("cannot write {} ({e})", committed.display()));
            println!("   {} targets recorded", measured.len());
        } else {
            failures += 1;
            println!(
                "   NOT recorded: a median would rise more than {:.0}%; \
                 pass --accept-regression if that is intended",
                args.threshold * 100.0
            );
        }
    }
    if failures > 0 && args.record {
        eprintln!("baseline record REFUSED for {failures} suite(s)");
        return ExitCode::FAILURE;
    }
    if failures > 0 {
        eprintln!(
            "baseline check FAILED: {failures} target(s) beyond the {:.0}% threshold",
            args.threshold * 100.0
        );
        return ExitCode::FAILURE;
    }
    if !args.record {
        println!(
            "baseline check passed (threshold {:.0}%)",
            args.threshold * 100.0
        );
    }
    ExitCode::SUCCESS
}
