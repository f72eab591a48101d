//! Property-based tests of the tree substrate: generator invariants,
//! traversal laws, text-format round trips and serde stability under
//! arbitrary seeds and configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use replica_tree::{generate, text_format, traversal, GeneratorConfig, TreeStats};

fn arbitrary_config() -> impl Strategy<Value = GeneratorConfig> {
    (
        1usize..120,
        1usize..4,
        0usize..6,
        0.0f64..1.0,
        1u64..8,
        0u64..8,
    )
        .prop_map(|(nodes, cmin, cextra, p, rmin, rextra)| GeneratorConfig {
            internal_nodes: nodes,
            children_range: (cmin, cmin + cextra),
            client_probability: p,
            requests_range: (rmin, rmin + rextra),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generator_respects_every_configured_bound(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(tree.internal_count(), cfg.internal_nodes);
        let stats = TreeStats::compute(&tree);
        prop_assert!(stats.max_children <= cfg.children_range.1);
        for c in tree.client_ids() {
            let r = tree.requests(c);
            prop_assert!(r >= cfg.requests_range.0 && r <= cfg.requests_range.1);
        }
        // Clients only attach where the generator promised: one per node max.
        for n in tree.internal_nodes() {
            prop_assert!(tree.clients_of(n).len() <= 1);
        }
    }

    #[test]
    fn traversals_visit_each_node_exactly_once(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let post = traversal::post_order(&tree);
        let pre = traversal::pre_order(&tree);
        prop_assert_eq!(post.len(), tree.internal_count());
        prop_assert_eq!(pre.len(), tree.internal_count());
        let mut seen = vec![false; tree.internal_count()];
        for n in &post {
            prop_assert!(!seen[n.index()], "duplicate in post order");
            seen[n.index()] = true;
        }
        // Pre order is the reverse-closure property: parents first.
        let mut pos = vec![0usize; tree.internal_count()];
        for (i, n) in pre.iter().enumerate() {
            pos[n.index()] = i;
        }
        for n in tree.internal_nodes() {
            if let Some(p) = tree.parent(n) {
                prop_assert!(pos[p.index()] < pos[n.index()]);
            }
        }
    }

    #[test]
    fn text_format_round_trips_any_generated_tree(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let text = text_format::to_text(&tree);
        let back = text_format::parse(&text).unwrap();
        prop_assert_eq!(text_format::to_text(&back), text);
        prop_assert_eq!(back.internal_count(), tree.internal_count());
        prop_assert_eq!(back.total_requests(), tree.total_requests());
        prop_assert_eq!(
            traversal::height(&back),
            traversal::height(&tree)
        );
    }

    #[test]
    fn serde_preserves_stats(
        cfg in arbitrary_config(),
        seed in 0u64..10_000,
    ) {
        let tree = generate::random_tree(&cfg, &mut StdRng::seed_from_u64(seed));
        let json = serde_json::to_string(&tree).unwrap();
        let back: replica_tree::Tree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(TreeStats::compute(&back), TreeStats::compute(&tree));
    }
}
