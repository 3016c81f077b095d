//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_matrix|sweep_timedomain|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (so `.cargo/config.toml` applies). With
//! `--trace 0` it runs the workload for `--seconds` and reports the
//! end-to-end metrics; with `--trace 1` it runs the traced census and
//! reports the per-layer metrics. Either way it checks the outputs, prints
//! a table, and ends with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! See `perfbench/README.md`.

mod census;
mod checks;
mod plan;
mod probes;
mod report;
mod serve;
mod stats;
mod sweep;

use plan::Workload;
use report::Tally;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: iac-perfbench --workload <sweep_matrix|sweep_timedomain|serve_mixed> \
                     --seed <u64> --seconds <positive number> --trace <0|1>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                seconds = Some(s).filter(|s| s.is_finite() && *s > 0.0);
                seconds.ok_or_else(bad)?;
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Scratch space inside the build directory, removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<WorkDir> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .expect("the executable sits in a directory")
            .join(format!("perfbench-work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("cannot create the work directory: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut tally = Tally::default();
    let (metrics, section) = match (args.trace, args.workload) {
        (true, _) => (
            census::run(args.seed, args.seconds, &work.0, &mut tally),
            "per_layer",
        ),
        (false, Workload::ServeMixed) => (
            serve::run(args.seed, args.seconds, &work.0, &mut tally),
            "end_to_end",
        ),
        (false, w) => (
            sweep::run(w, args.seed, args.seconds, &mut tally),
            "end_to_end",
        ),
    };
    checks::goldens(&mut tally);
    checks::metric_set(&metrics, section, &mut tally);

    println!(
        "{} seed {} trace {}:\n{}  {:<40} {:>16.6} fraction ({} of {} operations and checks)",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        metrics.table(),
        "failed_frac",
        tally.failed() as f64 / tally.attempted.max(1) as f64,
        tally.failed(),
        tally.attempted
    );
    for f in &tally.failures {
        eprintln!("FAILED: {f}");
    }
    println!("{}", metrics.result_json(&tally));
    if tally.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse("--workload serve_mixed --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ServeMixed);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload sweep_matrix --seed 1 --seconds 1",
            "--workload nonesuch --seed 1 --seconds 1 --trace 0",
            "--workload sweep_matrix --seed -1 --seconds 1 --trace 0",
            "--workload sweep_matrix --seed 1 --seconds 0 --trace 0",
            "--workload sweep_matrix --seed 1 --seconds 1 --trace 2",
            "--workload sweep_matrix --seed 1 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
