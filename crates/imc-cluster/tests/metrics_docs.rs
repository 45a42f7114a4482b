//! `docs/METRICS.md` is the operator's catalogue of every metric family
//! the workspace exports. This crate is the one that links all three
//! exporting crates (core, service, cluster), so the drift check lives
//! here: the (name, type, label names) of every registered family must
//! equal the rows of the catalogue's tables, in both directions.

use std::collections::BTreeSet;

use imc_community::CommunitySet;
use imc_core::{ImcInstance, RicStore};
use imc_graph::{generators::erdos_renyi, NodeId, WeightModel};
use imc_service::ServiceState;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// (family name, Prometheus type, label names in declaration order).
type Family = (String, String, Vec<String>);

/// Registers everything the three crates can export and reads the
/// families back out of the rendered exposition.
fn exported_families() -> BTreeSet<Family> {
    imc_core::obs::register();
    imc_service::metrics::register();
    imc_cluster::obs::register(&["127.0.0.1:1".parse().unwrap()]);
    // The collection gauges are registered by the first refresh and the
    // span family by the first span.
    let mut rng = StdRng::seed_from_u64(7);
    let graph = erdos_renyi(12, 0.2, &mut rng).reweighted(WeightModel::Uniform(0.3));
    let members: Vec<NodeId> = (0..12).map(NodeId::new).collect();
    let communities = CommunitySet::from_parts(12, vec![(members, 2, 1.0)]).unwrap();
    let instance = ImcInstance::new(graph, communities).unwrap();
    let store = RicStore::for_sampler(&instance.sampler());
    ServiceState::new(instance, store, 0).refresh_gauges();
    drop(imc_obs::Span::enter_with("maxr_select", "UBG"));

    let text = imc_obs::encode::to_prometheus(imc_obs::global());
    let mut families = BTreeSet::new();
    for line in text.lines() {
        let Some(rest) = line.strip_prefix("# TYPE ") else {
            continue;
        };
        let (name, kind) = rest.split_once(' ').expect("TYPE line");
        // Label names come from the family's first sample line
        // (`name{a="x",b="y"} v`, or `name_bucket{…,le="…"} v`); every
        // labelled family has a child after the calls above.
        let sample_name = match kind {
            "histogram" => format!("{name}_bucket"),
            _ => name.to_string(),
        };
        let sample = text
            .lines()
            .find(|l| {
                l.strip_prefix(&sample_name)
                    .is_some_and(|r| r.starts_with(['{', ' ']))
            })
            .unwrap_or_else(|| panic!("family {name} has no sample line"));
        let labels = match sample.split_once('{') {
            Some((_, rest)) => rest[..rest.rfind('}').expect("closing brace")]
                .split("\",")
                .map(|pair| pair.split_once('=').expect("label pair").0.to_string())
                .filter(|label| label != "le")
                .collect(),
            None => Vec::new(),
        };
        families.insert((name.to_string(), kind.to_string(), labels));
    }
    families
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
    let exported = exported_families();
    let documented = documented_families();
    let undocumented: Vec<_> = exported.difference(&documented).collect();
    let stale: Vec<_> = documented.difference(&exported).collect();
    assert!(
        undocumented.is_empty() && stale.is_empty(),
        "docs/METRICS.md drifted from the code.\n\
         exported but not documented (add a row): {undocumented:#?}\n\
         documented but not exported (fix or drop the row): {stale:#?}"
    );
    assert!(!documented.is_empty(), "no table row parsed");
}
