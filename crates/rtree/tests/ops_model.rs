//! Model-based testing: a random interleaving of inserts and queries on
//! the R-tree must behave exactly like a naive shadow set, and the
//! structural invariants must hold after every insert.

use proptest::prelude::*;
use sj_geo::Rect;
use sj_rtree::{RTree, RTreeConfig, SplitAlgorithm};

#[derive(Debug, Clone)]
enum Op {
    Insert { x: f64, y: f64, w: f64, h: f64 },
    Query { x: f64, y: f64, w: f64, h: f64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0.0..1.0f64, 0.0..1.0f64, 0.0..0.2f64, 0.0..0.2f64)
            .prop_map(|(x, y, w, h)| Op::Insert { x, y, w, h }),
        2 => (0.0..1.0f64, 0.0..1.0f64, 0.0..0.5f64, 0.0..0.5f64)
            .prop_map(|(x, y, w, h)| Op::Query { x, y, w, h }),
    ]
}

fn run_model(ops: Vec<Op>, config: RTreeConfig) {
    let mut tree = RTree::new(config);
    let mut shadow: Vec<(Rect, u64)> = Vec::new();
    let mut next_id = 0u64;

    for op in ops {
        match op {
            Op::Insert { x, y, w, h } => {
                let r = Rect::new(x, y, x + w, y + h);
                tree.insert(r, next_id);
                shadow.push((r, next_id));
                next_id += 1;
            }
            Op::Query { x, y, w, h } => {
                let q = Rect::new(x, y, x + w, y + h);
                let expected = shadow.iter().filter(|(r, _)| r.intersects(&q)).count();
                assert_eq!(tree.count_intersecting(&q), expected);
            }
        }
        tree.validate();
        assert_eq!(tree.len(), shadow.len());
    }

    // Final full sweep: every inserted id is findable, none extra.
    let mut ids: Vec<u64> = Vec::new();
    tree.for_each(|e| ids.push(e.id));
    ids.sort_unstable();
    let mut expected: Vec<u64> = shadow.iter().map(|(_, id)| *id).collect();
    expected.sort_unstable();
    assert_eq!(ids, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn quadratic_tree_matches_shadow_model(
        ops in proptest::collection::vec(op_strategy(), 0..120)
    ) {
        run_model(
            ops,
            RTreeConfig { max_entries: 6, min_entries: 2, split: SplitAlgorithm::Quadratic },
        );
    }

    #[test]
    fn linear_tree_matches_shadow_model(
        ops in proptest::collection::vec(op_strategy(), 0..120)
    ) {
        run_model(
            ops,
            RTreeConfig { max_entries: 5, min_entries: 2, split: SplitAlgorithm::Linear },
        );
    }
}
