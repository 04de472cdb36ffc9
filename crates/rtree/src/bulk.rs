//! Bulk loading: Sort-Tile-Recursive (STR; Leutenegger et al., 1997) and
//! Hilbert packing (Kamel & Faloutsos, CIKM 1993 — the paper's ref [15]).
//!
//! Both algorithms pack leaves to `max_entries` occupancy and then build
//! the upper levels by packing the level below, producing compact trees
//! whose build time and size serve as the baselines for the paper's
//! relative metrics.

use crate::node::{Entry, Node};
use crate::tree::{RTree, RTreeConfig};
use sj_geo::{Extent, Rect};

impl RTree {
    /// Bulk-loads with Sort-Tile-Recursive packing: sort by center-x, cut
    /// into vertical slices of `ceil(sqrt(n/M))` tiles, sort each slice by
    /// center-y, emit runs of `M` as leaves.
    #[must_use]
    pub fn bulk_load_str(config: RTreeConfig, rects: &[Rect]) -> Self {
        config.validate();
        if rects.is_empty() {
            return RTree::from_root(None, config);
        }
        let mut entries: Vec<Entry> = rects
            .iter()
            .enumerate()
            .map(|(i, r)| {
                assert!(r.is_finite(), "cannot index a non-finite rectangle");
                Entry::new(*r, i as u64)
            })
            .collect();

        let m = config.max_entries;
        let n = entries.len();
        let leaf_count = n.div_ceil(m);
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let slices = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = n.div_ceil(slices);

        entries.sort_by(|a, b| a.rect.center().x.total_cmp(&b.rect.center().x));
        let mut leaves: Vec<Node> = Vec::with_capacity(leaf_count);
        for slice in entries.chunks_mut(per_slice) {
            slice.sort_by(|a, b| a.rect.center().y.total_cmp(&b.rect.center().y));
            for run in slice.chunks(m) {
                leaves.push(Node::Leaf(run.to_vec()));
            }
        }
        Self::from_root(Some(pack_levels(leaves, m)), config)
    }

    /// Bulk-loads in Hilbert order of MBR centers: sort by Hilbert key,
    /// emit runs of `M` as leaves, pack upward.
    #[must_use]
    pub fn bulk_load_hilbert(config: RTreeConfig, rects: &[Rect]) -> Self {
        config.validate();
        if rects.is_empty() {
            return RTree::from_root(None, config);
        }
        for r in rects {
            assert!(r.is_finite(), "cannot index a non-finite rectangle");
        }
        #[expect(
            clippy::expect_used,
            reason = "rects.is_empty() returned above, so of_rects sees at least one rect"
        )]
        let extent = Extent::of_rects(rects).expect("non-empty");
        let perm = sj_hilbert::sort_by_hilbert(sj_hilbert::DEFAULT_ORDER, &extent, rects);
        let m = config.max_entries;
        let mut leaves: Vec<Node> = Vec::with_capacity(rects.len().div_ceil(m));
        for run in perm.chunks(m) {
            let entries: Vec<Entry> = run
                .iter()
                .map(|&i| Entry::new(rects[i], i as u64))
                .collect();
            leaves.push(Node::Leaf(entries));
        }
        Self::from_root(Some(pack_levels(leaves, m)), config)
    }
}

/// Packs a level of nodes into parents of at most `m` children until a
/// single root remains. Input order is preserved, so the spatial ordering
/// established at the leaf level carries upward.
fn pack_levels(mut level: Vec<Node>, m: usize) -> Node {
    while level.len() > 1 {
        let mut parents = Vec::with_capacity(level.len().div_ceil(m));
        let mut iter = level.into_iter().peekable();
        while iter.peek().is_some() {
            let children: Vec<(Rect, Node)> = iter
                .by_ref()
                .take(m)
                .map(|n| {
                    #[expect(
                        clippy::expect_used,
                        reason = "every packed node was built from a non-empty chunk/run"
                    )]
                    let mbr = n.mbr().expect("packed nodes are non-empty");
                    (mbr, n)
                })
                .collect();
            parents.push(Node::Inner(children));
        }
        level = parents;
    }
    #[expect(
        clippy::expect_used,
        reason = "the while loop exits only when exactly one node remains"
    )]
    let root = level.into_iter().next().expect("at least one node");
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rects(n: usize, seed: u64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..0.02),
                    y + rng.random_range(0.0..0.02),
                )
            })
            .collect()
    }

    #[test]
    fn str_bulk_load_valid_and_queryable() {
        let rects = random_rects(1234, 42);
        let t = RTree::bulk_load_str(RTreeConfig::default(), &rects);
        assert_eq!(t.len(), 1234);
        t.validate();
        let q = Rect::new(0.2, 0.2, 0.4, 0.4);
        let expected = rects.iter().filter(|r| r.intersects(&q)).count();
        assert_eq!(t.count_intersecting(&q), expected);
    }

    #[test]
    fn hilbert_bulk_load_valid_and_queryable() {
        let rects = random_rects(1234, 43);
        let t = RTree::bulk_load_hilbert(RTreeConfig::default(), &rects);
        assert_eq!(t.len(), 1234);
        t.validate();
        let q = Rect::new(0.6, 0.1, 0.9, 0.5);
        let expected = rects.iter().filter(|r| r.intersects(&q)).count();
        assert_eq!(t.count_intersecting(&q), expected);
    }

    #[test]
    fn bulk_load_empty() {
        let t = RTree::bulk_load_str(RTreeConfig::default(), &[]);
        assert!(t.is_empty());
        let t = RTree::bulk_load_hilbert(RTreeConfig::default(), &[]);
        assert!(t.is_empty());
    }

    #[test]
    fn bulk_load_single() {
        let rects = vec![Rect::new(0.0, 0.0, 1.0, 1.0)];
        let t = RTree::bulk_load_str(RTreeConfig::default(), &rects);
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        t.validate();
    }

    #[test]
    fn bulk_load_exact_multiple_of_fanout() {
        let cfg = RTreeConfig {
            max_entries: 4,
            min_entries: 2,
            ..Default::default()
        };
        let rects = random_rects(64, 9);
        let t = RTree::bulk_load_str(cfg, &rects);
        t.validate();
        assert_eq!(t.len(), 64);
        // 64 entries at fanout 4 pack into exactly 16 leaves, 4 inners, 1 root.
        assert_eq!(t.height(), 3);
    }

    #[test]
    fn bulk_loads_preserve_ids() {
        let rects = random_rects(100, 5);
        for t in [
            RTree::bulk_load_str(RTreeConfig::default(), &rects),
            RTree::bulk_load_hilbert(RTreeConfig::default(), &rects),
        ] {
            let mut seen = vec![false; rects.len()];
            t.for_each(|e| {
                let idx = usize::try_from(e.id).unwrap();
                assert_eq!(e.rect, rects[idx], "entry rect must match source");
                assert!(!seen[idx], "duplicate id");
                seen[idx] = true;
            });
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn str_is_more_compact_than_dynamic() {
        // Packed trees should not be larger than dynamically built ones.
        let rects = random_rects(2000, 77);
        let packed = RTree::bulk_load_str(RTreeConfig::default(), &rects);
        let mut dynamic = RTree::with_defaults();
        for (i, r) in rects.iter().enumerate() {
            dynamic.insert(*r, i as u64);
        }
        assert!(packed.size_bytes() <= dynamic.size_bytes());
        assert!(packed.height() <= dynamic.height());
    }
}
