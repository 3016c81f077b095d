//! Output checks every run makes: the golden snapshots, and the metric
//! set against `BENCHMARK.json`.

use crate::report::{Metrics, Tally};
use iac_serve::json::{self, Value};
use iac_sim::registry::{self, Quality};
use iac_sim::DEFAULT_SEED;
use std::path::Path;

/// The committed snapshots (`crates/sim/tests/goldens`), read only.
const GOLDEN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../crates/sim/tests/goldens");

/// Replicates the snapshots were recorded at.
const GOLDEN_REPLICATES: usize = 2;

/// Every `<scenario>.json` snapshot must equal the scenario's quick report
/// at [`DEFAULT_SEED`] with two replicates, byte for byte.
pub fn goldens(tally: &mut Tally) {
    let entries = match std::fs::read_dir(Path::new(GOLDEN_DIR)) {
        Ok(entries) => entries,
        Err(e) => return tally.check(false, || format!("cannot list {GOLDEN_DIR}: {e}")),
    };
    let mut names: Vec<String> = entries
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name()
                .to_str()?
                .strip_suffix(".json")
                .map(str::to_string)
        })
        .collect();
    names.sort();
    tally.check(!names.is_empty(), || {
        format!("no snapshots in {GOLDEN_DIR}")
    });
    for name in names {
        let Some(spec) = registry::find(&name) else {
            tally.check(false, || format!("snapshot {name}.json names no scenario"));
            continue;
        };
        let want = std::fs::read_to_string(Path::new(GOLDEN_DIR).join(format!("{name}.json")));
        let got = registry::run_scenario(&spec, Quality::Quick, DEFAULT_SEED, GOLDEN_REPLICATES, 1)
            .to_json();
        tally.check(want.as_deref().ok() == Some(&format!("{got}\n")), || {
            format!("{name}: report differs from its committed snapshot")
        });
    }
}

/// `BENCHMARK.json`, which lists the metrics each kind of run reports.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`:
/// `end_to_end` or `per_layer`.
pub fn catalogue(section: &str) -> Result<Vec<(String, String)>, String> {
    let text =
        std::fs::read(BENCHMARK_JSON).map_err(|e| format!("cannot read {BENCHMARK_JSON}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("{BENCHMARK_JSON}: {e}"))?;
    let Some(Value::Arr(items)) = doc.field(section) else {
        return Err(format!("{BENCHMARK_JSON} has no {section} list"));
    };
    items
        .iter()
        .map(|m| {
            let s = |k| {
                m.field(k)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a {section} entry has no {k}"))
            };
            Ok((s("name")?, s("unit")?))
        })
        .collect()
}

/// The run must report exactly the metrics its section lists.
pub fn metric_set(metrics: &Metrics, section: &str, tally: &mut Tally) {
    match catalogue(section) {
        Ok(c) => metrics.check_against(&c, tally),
        Err(e) => tally.check(false, || e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{Workload, MATRIX_SCENARIOS, TIMEDOMAIN_SCENARIOS};

    fn valid_name(name: &str) -> bool {
        (1..=64).contains(&name.len())
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut names: Vec<String> = ["end_to_end", "per_layer"]
            .iter()
            .flat_map(|s| catalogue(s).expect("section parses"))
            .map(|(n, _)| n)
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count, "duplicate metric name");
        // Every swept scenario has its trial-time metric.
        for s in MATRIX_SCENARIOS.iter().chain(&TIMEDOMAIN_SCENARIOS) {
            assert!(
                names.contains(&format!("sim.trial_ms.{s}")),
                "no trial time for {s}"
            );
        }
    }

    #[test]
    fn workloads_match_benchmark_json() {
        let text = std::fs::read(BENCHMARK_JSON).expect("BENCHMARK.json readable");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Value::Arr(workloads)) = doc.field("workloads") else {
            panic!("workloads is not an array");
        };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| w.field("name").and_then(Value::as_str).expect("a name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
