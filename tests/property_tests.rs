//! Property-based tests (proptest) over the core data structures and
//! estimator invariants.

use imc_community::CommunitySet;
use imc_core::{RicSampler, RicStore};
use imc_graph::{GraphBuilder, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

// ---------- Random small instances ----------

/// Strategy: a random graph (adjacency by edge list), random disjoint
/// communities, random thresholds.
#[derive(Debug, Clone)]
struct RandomInstance {
    n: u32,
    edges: Vec<(u32, u32, f64)>,
    // (members, threshold) triples using disjoint nodes.
    communities: Vec<(Vec<u32>, u32)>,
}

fn instance_strategy() -> impl Strategy<Value = RandomInstance> {
    (6u32..20).prop_flat_map(|n| {
        let edges = prop::collection::vec(
            (0..n, 0..n, 0.0f64..=1.0f64).prop_filter("no self loops", |(u, v, _)| u != v),
            0..60,
        );
        // Partition a prefix of nodes into up to 4 communities.
        let communities = (1usize..=4, 1u32..=3).prop_map(move |(count, h)| {
            let per = (n as usize / count).max(1);
            let mut out = Vec::new();
            for c in 0..count {
                let start = c * per;
                let end = ((c + 1) * per).min(n as usize);
                if start < end {
                    let members: Vec<u32> = (start as u32..end as u32).collect();
                    out.push((members, h));
                }
            }
            out
        });
        (Just(n), edges, communities).prop_map(|(n, edges, communities)| RandomInstance {
            n,
            edges,
            communities,
        })
    })
}

fn materialize(ri: &RandomInstance) -> (imc_graph::Graph, CommunitySet) {
    let mut b = GraphBuilder::new(ri.n);
    for &(u, v, w) in &ri.edges {
        b.add_edge(u, v, w).unwrap();
    }
    let graph = b.build().unwrap();
    let parts: Vec<(Vec<NodeId>, u32, f64)> = ri
        .communities
        .iter()
        .map(|(m, h)| (m.iter().map(|&v| NodeId::new(v)).collect(), *h, 1.0))
        .collect();
    let cs = CommunitySet::from_parts(ri.n, parts).unwrap();
    (graph, cs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural invariants of generated RIC samples.
    #[test]
    fn ric_samples_are_well_formed(ri in instance_strategy(), seed in 0u64..1000) {
        let (graph, cs) = materialize(&ri);
        let sampler = RicSampler::new(&graph, &cs);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..8 {
            let s = sampler.sample(&mut rng);
            let community = cs.get(s.community);
            // Every member is in the sample and covers itself.
            for (mi, m) in community.members.iter().enumerate() {
                let at = s.nodes.binary_search(m).expect("member missing from own sample");
                prop_assert!(s.covers[at].get(mi), "member bit not set");
            }
            // Nodes are sorted and unique, covers nonzero, width matches.
            prop_assert!(s.nodes.windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(s.community_size as usize, community.population());
            for c in &s.covers {
                prop_assert!(c.count_ones() > 0, "node with empty cover stored");
                prop_assert!(c.count_ones() <= s.community_size);
            }
            prop_assert_eq!(s.threshold, community.threshold);
        }
    }

    /// ĉ_R is monotone and dominated by ν_R on random instances and seed
    /// sets (Lemma 3).
    #[test]
    fn estimators_monotone_and_sandwiched(ri in instance_strategy(), seed in 0u64..1000) {
        let (graph, cs) = materialize(&ri);
        let sampler = RicSampler::new(&graph, &cs);
        let mut col = RicStore::for_sampler(&sampler);
        let mut rng = StdRng::seed_from_u64(seed);
        col.extend_with(&sampler, 60, &mut rng);

        let mut seeds: Vec<NodeId> = Vec::new();
        let mut last = 0.0f64;
        for v in 0..ri.n.min(10) {
            seeds.push(NodeId::new(v));
            let c = col.estimate(&seeds);
            let nu = col.nu_estimate(&seeds);
            prop_assert!(c + 1e-9 >= last, "ĉ_R not monotone");
            prop_assert!(nu >= c, "ν_R < ĉ_R");
            prop_assert!(c <= cs.total_benefit() + 1e-9);
            prop_assert!(nu <= cs.total_benefit() + 1e-9);
            last = c;
        }
    }

    /// The incremental CoverageState agrees with from-scratch evaluation
    /// for arbitrary seed orders.
    #[test]
    fn coverage_state_matches_batch_evaluation(
        ri in instance_strategy(),
        seed in 0u64..1000,
        picks in prop::collection::vec(0u32..20, 1..8),
    ) {
        let (graph, cs) = materialize(&ri);
        let sampler = RicSampler::new(&graph, &cs);
        let mut col = RicStore::for_sampler(&sampler);
        let mut rng = StdRng::seed_from_u64(seed);
        col.extend_with(&sampler, 40, &mut rng);

        let mut state = imc_core::CoverageState::new(&col);
        let mut seeds = Vec::new();
        for p in picks {
            let v = NodeId::new(p % ri.n);
            // Gain reported must equal the delta of the batch evaluator.
            let before = col.influenced_count(&seeds);
            let gain = state.marginal_influenced(v);
            // The gain tables (built by the first pick's call, kept exact
            // by every add_seed since) must report the same delta.
            let mut table = Vec::new();
            state.eval_c_shard(&[v.raw()], &mut table);
            state.add_seed(v);
            seeds.push(v);
            let after = col.influenced_count(&seeds);
            prop_assert_eq!(gain, after - before, "marginal mismatch");
            prop_assert_eq!(table[0], (after - before) as u64, "table gain mismatch");
            prop_assert_eq!(state.influenced_count(), after);
            prop_assert!((state.estimate() - col.estimate(&seeds)).abs() < 1e-9);
            prop_assert_eq!(state.nu_estimate(), col.nu_estimate(&seeds));
        }
    }

    /// greedy_nu is optimal-ish: on brute-forceable instances its ν value
    /// reaches at least (1 − 1/e) of the exhaustive k=2 optimum.
    #[test]
    fn greedy_nu_respects_submodular_guarantee(ri in instance_strategy(), seed in 0u64..200) {
        let (graph, cs) = materialize(&ri);
        let sampler = RicSampler::new(&graph, &cs);
        let mut col = RicStore::for_sampler(&sampler);
        let mut rng = StdRng::seed_from_u64(seed);
        col.extend_with(&sampler, 30, &mut rng);

        let k = 2usize;
        let greedy = imc_core::maxr::engine::greedy_nu_with(
            &col,
            k,
            imc_core::SolveStrategy::Lazy,
        )
        .seeds;
        // The Q32 numerators the greedy maximises: integers, no epsilon.
        let numerator = |seeds: &[NodeId]| imc_core::maxr::Score::of(&col, seeds).nu_acc;
        let greedy_value = numerator(&greedy);

        let mut opt = 0;
        for a in 0..ri.n {
            for b in (a + 1)..ri.n {
                opt = opt.max(numerator(&[NodeId::new(a), NodeId::new(b)]));
            }
        }
        let bound = (1.0 - 1.0 / std::f64::consts::E) * opt as f64;
        prop_assert!(
            greedy_value as f64 >= bound,
            "greedy ν {greedy_value} below (1−1/e)·OPT {bound}"
        );
    }
}
