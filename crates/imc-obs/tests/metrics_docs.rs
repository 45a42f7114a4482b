//! `docs/METRICS.md` is the operator's catalogue of every metric family
//! the workspace exports, and [`imc_obs::families::TABLE`] is where each
//! one is declared. The (name, type, label names) of every table row must
//! equal the rows of the catalogue's tables, in both directions.

use std::collections::BTreeSet;

use imc_obs::families::TABLE;

/// (family name, Prometheus type, label names in declaration order).
type Family = (String, String, Vec<String>);

fn declared_families() -> BTreeSet<Family> {
    TABLE
        .iter()
        .map(|row| {
            let spec = row.spec();
            let labels = spec.labels.iter().map(|l| l.to_string()).collect();
            (
                spec.name.to_string(),
                spec.kind.as_str().to_string(),
                labels,
            )
        })
        .collect()
}

/// The `| \`imc_…\` | type | labels | … |` rows of every table in
/// `docs/METRICS.md`.
fn documented_families() -> BTreeSet<Family> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/METRICS.md");
    let text = std::fs::read_to_string(path).expect("docs/METRICS.md");
    let unquote = |cell: &str| cell.trim().trim_matches('`').to_string();
    text.lines()
        .filter(|line| line.starts_with("| `imc_"))
        .map(|line| {
            let cells: Vec<&str> = line.split('|').collect();
            let labels = match cells[3].trim() {
                "—" => Vec::new(),
                list => list.split(',').map(unquote).collect(),
            };
            (unquote(cells[1]), unquote(cells[2]), labels)
        })
        .collect()
}

#[test]
fn metrics_md_lists_exactly_the_exported_families() {
    let declared = declared_families();
    let documented = documented_families();
    assert_eq!(declared.len(), TABLE.len(), "a family is declared twice");
    let undocumented: Vec<_> = declared.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&declared).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/METRICS.md drifted from the metric table.\n\
         declared but not documented (add a row): {undocumented:#?}\n\
         documented but not declared (fix or drop the row): {stale:#?}"
    );
}
