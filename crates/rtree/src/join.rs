//! Synchronized-traversal R-tree spatial join (Brinkhoff, Kriegel &
//! Seeger, SIGMOD 1993).
//!
//! The join descends both trees simultaneously, only visiting child pairs
//! whose MBRs intersect. Within each node pair, candidate pairing uses a
//! mini plane-sweep over entries sorted by `xlo` (the "restricting the
//! search space" optimization of the original paper), which matters at
//! realistic fanouts.

use crate::node::Node;
use crate::tree::RTree;
use sj_geo::Rect;

/// Counts the pairs `(a, b)` with `a ∈ left`, `b ∈ right` whose MBRs
/// intersect. This is the filter-step spatial join result size.
#[must_use]
pub fn join_count(left: &RTree, right: &RTree) -> u64 {
    let mut n = 0u64;
    join_pairs(left, right, |_, _| n += 1);
    n
}

/// Visits every intersecting pair `(left_id, right_id)`.
pub fn join_pairs<F: FnMut(u64, u64)>(left: &RTree, right: &RTree, mut emit: F) {
    let (Some(lr), Some(rr)) = (left.root(), right.root()) else {
        return;
    };
    let (Some(lm), Some(rm)) = (lr.mbr(), rr.mbr()) else {
        return;
    };
    if !lm.intersects(&rm) {
        return;
    }
    join_rec(lr, rr, &mut emit);
}

fn join_rec<F: FnMut(u64, u64)>(a: &Node, b: &Node, emit: &mut F) {
    match (a, b) {
        (Node::Leaf(ea), Node::Leaf(eb)) => {
            sweep_pairs(
                ea.len(),
                eb.len(),
                |i| ea[i].rect,
                |j| eb[j].rect,
                &mut |i, j| emit(ea[i].id, eb[j].id),
            );
        }
        (Node::Inner(ca), Node::Inner(cb)) => {
            sweep_pairs(ca.len(), cb.len(), |i| ca[i].0, |j| cb[j].0, &mut |i, j| {
                join_rec(&ca[i].1, &cb[j].1, emit)
            });
        }
        // Unequal heights (samples of very different sizes): descend the
        // taller side against the whole other node.
        (Node::Leaf(_), Node::Inner(cb)) => {
            for (rect, child) in cb {
                if a.mbr().is_some_and(|m| m.intersects(rect)) {
                    join_rec(a, child, emit);
                }
            }
        }
        (Node::Inner(ca), Node::Leaf(_)) => {
            for (rect, child) in ca {
                if b.mbr().is_some_and(|m| m.intersects(rect)) {
                    join_rec(child, b, emit);
                }
            }
        }
    }
}

/// Plane-sweep pairing of two small rectangle collections: sort index
/// permutations by `xlo`, advance the lagging side, and scan forward while
/// x-intervals overlap, testing y only. Emits every intersecting `(i, j)`
/// index pair exactly once.
fn sweep_pairs<RA, RB, F>(na: usize, nb: usize, rect_a: RA, rect_b: RB, on_pair: &mut F)
where
    RA: Fn(usize) -> Rect,
    RB: Fn(usize) -> Rect,
    F: FnMut(usize, usize),
{
    let mut ia: Vec<usize> = (0..na).collect();
    let mut ib: Vec<usize> = (0..nb).collect();
    ia.sort_by(|&p, &q| rect_a(p).xlo.total_cmp(&rect_a(q).xlo));
    ib.sort_by(|&p, &q| rect_b(p).xlo.total_cmp(&rect_b(q).xlo));

    let (mut i, mut j) = (0usize, 0usize);
    while i < na && j < nb {
        let ra = rect_a(ia[i]);
        let rb = rect_b(ib[j]);
        if ra.xlo <= rb.xlo {
            // `ra` opens first: scan b's entries whose xlo falls within
            // ra's x-span.
            for &jb in ib[j..].iter() {
                let rb2 = rect_b(jb);
                if rb2.xlo > ra.xhi {
                    break;
                }
                if ra.ylo <= rb2.yhi && rb2.ylo <= ra.yhi {
                    on_pair(ia[i], jb);
                }
            }
            i += 1;
        } else {
            for &ja in ia[i..].iter() {
                let ra2 = rect_a(ja);
                if ra2.xlo > rb.xhi {
                    break;
                }
                if rb.ylo <= ra2.yhi && ra2.ylo <= rb.yhi {
                    on_pair(ja, ib[j]);
                }
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rects(n: usize, seed: u64, max_side: f64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..max_side),
                    y + rng.random_range(0.0..max_side),
                )
            })
            .collect()
    }

    fn brute_force_count(a: &[Rect], b: &[Rect]) -> u64 {
        let mut n = 0u64;
        for ra in a {
            for rb in b {
                if ra.intersects(rb) {
                    n += 1;
                }
            }
        }
        n
    }

    #[test]
    fn join_matches_brute_force() {
        let a = random_rects(400, 1, 0.05);
        let b = random_rects(300, 2, 0.05);
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b);
        assert_eq!(join_count(&ta, &tb), brute_force_count(&a, &b));
    }

    #[test]
    fn join_is_symmetric() {
        let a = random_rects(250, 3, 0.08);
        let b = random_rects(350, 4, 0.03);
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let tb = RTree::bulk_load_hilbert(RTreeConfig::default(), &b);
        assert_eq!(join_count(&ta, &tb), join_count(&tb, &ta));
    }

    #[test]
    fn join_with_unequal_heights() {
        // 5 entries vs 5000: trees of very different heights, exercising
        // the leaf × inner descent.
        let a = random_rects(5, 5, 0.5);
        let b = random_rects(5000, 6, 0.01);
        let cfg = RTreeConfig {
            max_entries: 8,
            min_entries: 3,
            ..Default::default()
        };
        let ta = RTree::bulk_load_str(cfg, &a);
        let tb = RTree::bulk_load_str(cfg, &b);
        assert!(ta.height() < tb.height());
        assert_eq!(join_count(&ta, &tb), brute_force_count(&a, &b));
        assert_eq!(join_count(&tb, &ta), brute_force_count(&b, &a));
    }

    #[test]
    fn join_with_empty_tree_is_empty() {
        let a = random_rects(100, 7, 0.1);
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let empty = RTree::with_defaults();
        assert_eq!(join_count(&ta, &empty), 0);
        assert_eq!(join_count(&empty, &ta), 0);
    }

    #[test]
    fn join_disjoint_datasets_is_empty() {
        let a: Vec<Rect> = random_rects(100, 8, 0.05);
        let b: Vec<Rect> = a.iter().map(|r| r.translated(10.0, 0.0)).collect();
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b);
        assert_eq!(join_count(&ta, &tb), 0);
    }

    #[test]
    fn join_pairs_emits_correct_ids() {
        let a = vec![Rect::new(0.0, 0.0, 1.0, 1.0), Rect::new(5.0, 5.0, 6.0, 6.0)];
        let b = vec![Rect::new(0.5, 0.5, 1.5, 1.5), Rect::new(9.0, 9.0, 9.5, 9.5)];
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b);
        let mut pairs = Vec::new();
        join_pairs(&ta, &tb, |i, j| pairs.push((i, j)));
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn join_self_counts_all_pairs_including_self_pairs() {
        let a = random_rects(200, 9, 0.05);
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let n = join_count(&ta, &ta);
        // Self-join includes each element paired with itself.
        assert!(n >= a.len() as u64);
        assert_eq!(n, brute_force_count(&a, &a));
    }

    #[test]
    fn join_point_datasets() {
        // Degenerate rectangles: only exact coincidences (or containment)
        // join.
        let pts: Vec<Rect> = (0..50)
            .map(|i| Rect::from_point(sj_geo::Point::new(f64::from(i), f64::from(i))))
            .collect();
        let boxes = vec![Rect::new(-0.5, -0.5, 10.5, 10.5)];
        let tp = RTree::bulk_load_str(RTreeConfig::default(), &pts);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &boxes);
        assert_eq!(join_count(&tp, &tb), 11); // points 0..=10 inside
    }

    #[test]
    fn join_dynamic_vs_bulk_trees_agree() {
        let a = random_rects(600, 10, 0.04);
        let b = random_rects(600, 11, 0.04);
        let ta_bulk = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let mut ta_dyn = RTree::with_defaults();
        for (i, r) in a.iter().enumerate() {
            ta_dyn.insert(*r, i as u64);
        }
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b);
        assert_eq!(join_count(&ta_bulk, &tb), join_count(&ta_dyn, &tb));
    }
}

/// Parallel [`join_count`]: splits the synchronized traversal into
/// independent node-pair tasks and counts them on `threads` OS threads
/// (`std::thread::scope`; no extra dependencies). Produces exactly the
/// same count as the sequential join.
///
/// Worth it for large joins (the full-scale CAS ⋈ CAR exact join counts
/// ~10⁹ pairs); for small trees the sequential version wins.
#[must_use]
pub fn join_count_parallel(left: &RTree, right: &RTree, threads: usize) -> u64 {
    let threads = threads.max(1);
    let (Some(lr), Some(rr)) = (left.root(), right.root()) else {
        return 0;
    };
    if threads == 1 {
        return join_count(left, right);
    }

    // Build a task list of intersecting node pairs, descending until
    // there are enough tasks to balance across threads.
    let mut tasks: Vec<(&Node, &Node)> = vec![(lr, rr)];
    let target = threads * 8;
    loop {
        if tasks.len() >= target {
            break;
        }
        // Expand the task whose subtrees are largest.
        let Some(pos) = tasks
            .iter()
            .position(|(a, b)| matches!((a, b), (Node::Inner(_), Node::Inner(_))))
        else {
            break;
        };
        let (a, b) = tasks.swap_remove(pos);
        #[expect(
            clippy::unreachable,
            reason = "position() above selected this pair precisely because both are Inner"
        )]
        let (Node::Inner(ca), Node::Inner(cb)) = (a, b) else {
            unreachable!("position() matched Inner/Inner");
        };
        let mut expanded = false;
        for (ra, child_a) in ca {
            for (rb, child_b) in cb {
                if ra.intersects(rb) {
                    tasks.push((child_a, child_b));
                    expanded = true;
                }
            }
        }
        if !expanded && tasks.is_empty() {
            return 0;
        }
    }

    let chunk = tasks.len().div_ceil(threads);
    let mut total = 0u64;
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .chunks(chunk.max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    let mut local = 0u64;
                    for (a, b) in chunk {
                        join_rec(a, b, &mut |_, _| local += 1);
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            total += h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
        }
    });
    total
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::tree::RTreeConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_rects(n: usize, seed: u64, max_side: f64) -> Vec<Rect> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let x = rng.random_range(0.0..1.0);
                let y = rng.random_range(0.0..1.0);
                Rect::new(
                    x,
                    y,
                    x + rng.random_range(0.0..max_side),
                    y + rng.random_range(0.0..max_side),
                )
            })
            .collect()
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let a = random_rects(5000, 41, 0.02);
        let b = random_rects(5000, 42, 0.02);
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b);
        let sequential = join_count(&ta, &tb);
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                join_count_parallel(&ta, &tb, threads),
                sequential,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn parallel_join_small_and_empty_trees() {
        let a = random_rects(3, 43, 0.5);
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let empty = RTree::with_defaults();
        assert_eq!(join_count_parallel(&ta, &empty, 4), 0);
        assert_eq!(join_count_parallel(&empty, &ta, 4), 0);
        assert_eq!(join_count_parallel(&ta, &ta, 4), join_count(&ta, &ta));
        assert_eq!(
            join_count_parallel(&ta, &ta, 0),
            join_count(&ta, &ta),
            "0 clamps to 1"
        );
    }

    #[test]
    fn parallel_join_disjoint_is_zero() {
        let a = random_rects(2000, 44, 0.01);
        let b: Vec<Rect> = a.iter().map(|r| r.translated(5.0, 0.0)).collect();
        let ta = RTree::bulk_load_str(RTreeConfig::default(), &a);
        let tb = RTree::bulk_load_str(RTreeConfig::default(), &b);
        assert_eq!(join_count_parallel(&ta, &tb, 4), 0);
    }
}
