//! Deletion (Guttman `Delete` + `CondenseTree`): remove an entry, dissolve
//! underfilled nodes along the path, and reinsert their orphaned entries.

use crate::node::{Entry, Node};
use crate::tree::{RTree, RTreeConfig};
use sj_geo::Rect;

impl RTree {
    /// Removes one entry matching `(rect, id)` exactly. Returns `true` if
    /// an entry was found and removed.
    ///
    /// Underfilled nodes on the deletion path are dissolved and their
    /// entries reinserted (`CondenseTree`); a root left with a single
    /// inner child is shortened.
    pub fn remove(&mut self, rect: &Rect, id: u64) -> bool {
        let prior_len = self.len();
        let Some(mut root) = self.take_root() else {
            return false;
        };
        let mut orphans: Vec<Entry> = Vec::new();
        let config = self.config();
        let removed = delete_rec(&mut root, rect, id, &config, &mut orphans, true);
        if !removed {
            debug_assert!(orphans.is_empty());
            self.set_state(Some(root), prior_len);
            return false;
        }

        // Shorten the root while it is an inner node with one child, and
        // drop it entirely when nothing is left.
        loop {
            match root {
                Node::Inner(ref mut children) if children.len() == 1 => {
                    #[expect(clippy::expect_used, reason = "the guard just checked len() == 1")]
                    let (_, only) = children.pop().expect("one child");
                    root = only;
                }
                Node::Inner(ref children) if children.is_empty() => {
                    self.set_state(None, 0);
                    break;
                }
                Node::Leaf(ref entries) if entries.is_empty() => {
                    self.set_state(None, 0);
                    break;
                }
                _ => {
                    // Entries currently reachable: everything except the
                    // removed one and the orphans awaiting reinsertion.
                    self.set_state(Some(root), prior_len - 1 - orphans.len());
                    break;
                }
            }
        }

        // Reinsert orphans through the normal insertion path (each call
        // bumps `len` back up; the final count is prior_len - 1).
        for e in orphans {
            self.insert(e.rect, e.id);
        }
        debug_assert_eq!(self.len(), prior_len - 1);
        removed
    }

    /// Removes every entry whose MBR equals `rect` (any id). Returns the
    /// number of entries removed. Convenience built on [`Self::remove`].
    pub fn remove_all_with_rect(&mut self, rect: &Rect) -> usize {
        let mut ids = Vec::new();
        self.query_intersecting(rect, |e| {
            if e.rect == *rect {
                ids.push(e.id);
            }
        });
        let mut removed = 0;
        for id in ids {
            if self.remove(rect, id) {
                removed += 1;
            }
        }
        removed
    }
}

/// Recursive delete. Returns `true` when the entry was removed somewhere in
/// this subtree. Underfilled non-root nodes push their residual entries
/// into `orphans` and empty themselves; the parent prunes empty children.
fn delete_rec(
    node: &mut Node,
    rect: &Rect,
    id: u64,
    config: &RTreeConfig,
    orphans: &mut Vec<Entry>,
    is_root: bool,
) -> bool {
    match node {
        Node::Leaf(entries) => {
            let Some(pos) = entries.iter().position(|e| e.id == id && e.rect == *rect) else {
                return false;
            };
            entries.swap_remove(pos);
            if !is_root && entries.len() < config.min_entries {
                orphans.append(entries);
            }
            true
        }
        Node::Inner(children) => {
            let mut removed = false;
            for (child_rect, child) in children.iter_mut() {
                if !child_rect.intersects(rect) {
                    continue;
                }
                if delete_rec(child, rect, id, config, orphans, false) {
                    if let Some(mbr) = child.mbr() {
                        *child_rect = mbr;
                    }
                    removed = true;
                    break;
                }
            }
            if removed {
                children.retain(|(_, c)| !c.is_empty());
                if !is_root && children.len() < config.min_entries {
                    // Dissolve this node: orphan every remaining data
                    // entry in the subtree.
                    for (_, child) in children.drain(..) {
                        collect_entries(child, orphans);
                    }
                }
            }
            removed
        }
    }
}

fn collect_entries(node: Node, out: &mut Vec<Entry>) {
    match node {
        Node::Leaf(entries) => out.extend(entries),
        Node::Inner(children) => {
            for (_, child) in children {
                collect_entries(child, out);
            }
        }
    }
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
                    x + rng.random_range(0.0..0.05),
                    y + rng.random_range(0.0..0.05),
                )
            })
            .collect()
    }

    #[test]
    fn remove_single_entry() {
        let mut t = RTree::with_defaults();
        let r = Rect::new(0.1, 0.1, 0.2, 0.2);
        t.insert(r, 7);
        assert!(t.remove(&r, 7));
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        t.validate();
        assert!(!t.remove(&r, 7), "double delete returns false");
    }

    #[test]
    fn remove_missing_entry_is_noop() {
        let mut t = RTree::with_defaults();
        t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 1);
        assert!(
            !t.remove(&Rect::new(0.5, 0.5, 0.6, 0.6), 1),
            "rect must match exactly"
        );
        assert!(
            !t.remove(&Rect::new(0.0, 0.0, 1.0, 1.0), 2),
            "id must match"
        );
        assert_eq!(t.len(), 1);
        t.validate();
    }

    #[test]
    fn remove_half_then_queries_stay_correct() {
        let rects = random_rects(400, 13);
        let cfg = RTreeConfig {
            max_entries: 8,
            min_entries: 3,
            ..Default::default()
        };
        let mut t = RTree::new(cfg);
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        // Remove every even id.
        for (i, r) in rects.iter().enumerate().step_by(2) {
            assert!(t.remove(r, i as u64), "entry {i} must be removable");
            t.validate();
        }
        assert_eq!(t.len(), 200);
        let q = Rect::new(0.2, 0.2, 0.6, 0.6);
        let expected = rects
            .iter()
            .enumerate()
            .filter(|(i, r)| i % 2 == 1 && r.intersects(&q))
            .count();
        assert_eq!(t.count_intersecting(&q), expected);
    }

    #[test]
    fn remove_everything_in_random_order() {
        let rects = random_rects(150, 14);
        let cfg = RTreeConfig {
            max_entries: 6,
            min_entries: 2,
            ..Default::default()
        };
        let mut t = RTree::new(cfg);
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        let mut order: Vec<usize> = (0..rects.len()).collect();
        let mut rng = StdRng::seed_from_u64(15);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        for &i in &order {
            assert!(t.remove(&rects[i], i as u64));
        }
        assert!(t.is_empty());
        t.validate();
    }

    #[test]
    fn remove_from_bulk_loaded_tree() {
        let rects = random_rects(300, 16);
        let mut t = RTree::bulk_load_str(RTreeConfig::default(), &rects);
        assert!(t.remove(&rects[17], 17));
        assert!(t.remove(&rects[250], 250));
        assert_eq!(t.len(), 298);
        t.validate();
        let q = Rect::new(0.0, 0.0, 1.0, 1.0);
        assert_eq!(t.count_intersecting(&q), 298);
    }

    #[test]
    fn remove_all_with_rect_handles_duplicates() {
        let mut t = RTree::with_defaults();
        let r = Rect::new(0.3, 0.3, 0.4, 0.4);
        for id in 0..5 {
            t.insert(r, id);
        }
        t.insert(Rect::new(0.7, 0.7, 0.8, 0.8), 99);
        assert_eq!(t.remove_all_with_rect(&r), 5);
        assert_eq!(t.len(), 1);
        t.validate();
    }
}
