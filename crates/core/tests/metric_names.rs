//! OBSERVABILITY.md's "Exported families" table is `prometheus_text`'s own
//! header lines: every family the exporter can emit is a row there with its
//! kind and help text, and every `ulp_*` name that section mentions is a
//! family the exporter emits.

use std::collections::BTreeSet;
use ulp_core::{prometheus_text, LatencySnapshot, PoolMetrics, StatsSnapshot, SyscallSnapshot};
use ulp_kernel::WaitOutcomes;

/// The table rows the exporter's output calls for, in emission order. The
/// headers of the labelled families are written even when no series is, so
/// an all-zero render names every family.
fn emitted_rows() -> Vec<String> {
    let text = prometheus_text(
        &StatsSnapshot::default(),
        &LatencySnapshot::default(),
        &SyscallSnapshot::new(),
        0,
        &WaitOutcomes::default(),
        0,
        &PoolMetrics::default(),
        0,
        0,
    );
    let mut rows = Vec::new();
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let Some(rest) = line.strip_prefix("# HELP ") else {
            continue;
        };
        let (name, help) = rest.split_once(' ').expect("HELP has a text");
        let kind = lines
            .peek()
            .and_then(|l| l.strip_prefix(&format!("# TYPE {name} ")))
            .unwrap_or_else(|| panic!("{name}: HELP is not followed by its TYPE"));
        rows.push(format!("| `{name}` | {kind} | {help} |"));
    }
    rows
}

#[test]
fn observability_md_names_what_is_emitted_and_nothing_else() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OBSERVABILITY.md");
    let doc = std::fs::read_to_string(path).expect("OBSERVABILITY.md at the repository root");
    let section = doc
        .split_once("### Exported families")
        .expect("the section exists")
        .1;
    let section = section.split_once("\n## ").map_or(section, |(s, _)| s);

    let want = emitted_rows();
    let have: Vec<&str> = section
        .lines()
        .filter(|l| l.starts_with("| `ulp_"))
        .collect();
    assert_eq!(
        have,
        want,
        "the table is not what the code emits; it should read:\n{}\n",
        want.join("\n")
    );

    // Prose around the table may name a family (or one of a histogram's
    // three series), never something the exporter does not know.
    let families: BTreeSet<&str> = want
        .iter()
        .map(|row| row.split('`').nth(1).expect("a backticked name"))
        .collect();
    let known = |name: &str| {
        families.contains(name)
            || ["_bucket", "_sum", "_count"]
                .iter()
                .any(|s| name.strip_suffix(s).is_some_and(|f| families.contains(f)))
    };
    let is_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    for (at, _) in section.match_indices("ulp_") {
        let name = section[at..].split(|c| !is_name(c)).next().unwrap_or("");
        // `ulp_stack_*`-style globs name a prefix, not a family.
        let glob = section[at + name.len()..].starts_with('*');
        assert!(
            known(name) || glob && families.iter().any(|f| f.starts_with(name)),
            "OBSERVABILITY.md names `{name}`, which /metrics never emits"
        );
    }
}
