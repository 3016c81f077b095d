//! `docs/BENCHMARKS.md` maps each paper artifact to the registry scenario
//! that regenerates it. Its "Paper artifacts" table must name exactly the
//! scenarios of `registry::all()`, in registry order, so a scenario added,
//! renamed or removed without its row fails here.

use iac_sim::registry;
use std::path::PathBuf;

/// The `Scenario` column (the second) of the table under `## Paper
/// artifacts`, header and separator rows skipped.
fn table_scenarios(doc: &str) -> Vec<String> {
    let section = doc
        .split("\n## Paper artifacts\n")
        .nth(1)
        .expect("BENCHMARKS.md has a `## Paper artifacts` section");
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .skip(2)
        .map(|row| {
            let cell = row.split('|').nth(2).expect("row has a scenario column");
            cell.trim().trim_matches('`').to_string()
        })
        .collect()
}

#[test]
fn artifact_table_names_exactly_the_registry() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../docs/BENCHMARKS.md");
    let doc = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let documented = table_scenarios(&doc);
    let registered: Vec<String> = registry::all().iter().map(|s| s.name.to_string()).collect();
    let missing: Vec<&String> = registered
        .iter()
        .filter(|s| !documented.contains(s))
        .collect();
    let extra: Vec<&String> = documented
        .iter()
        .filter(|s| !registered.contains(s))
        .collect();
    assert_eq!(
        documented, registered,
        "BENCHMARKS.md artifact table vs registry: missing {missing:?}, not registered {extra:?}"
    );
}
