use crate::node::{Entry, Node};
use crate::split::{split, SplitAlgorithm};
use sj_geo::Rect;

/// Configuration for an [`RTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`). Default 50, a typical page fanout
    /// for 2-D rectangles on 4 KiB pages.
    pub max_entries: usize,
    /// Minimum entries per node (`m <= M/2`). Default 20 (40 % fill).
    pub min_entries: usize,
    /// Overflow split algorithm for dynamic insertion.
    pub split: SplitAlgorithm,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        Self {
            max_entries: 50,
            min_entries: 20,
            split: SplitAlgorithm::Quadratic,
        }
    }
}

impl RTreeConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on inconsistent fanout bounds.
    pub fn validate(&self) {
        assert!(self.max_entries >= 4, "max_entries must be >= 4");
        assert!(
            self.min_entries >= 2 && 2 * self.min_entries <= self.max_entries,
            "need 2 <= min_entries <= max_entries/2 (got m={}, M={})",
            self.min_entries,
            self.max_entries
        );
    }
}

/// Structural statistics of an R-tree, used for the paper's space-cost
/// metric and for sanity reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RTreeStats {
    /// Number of data entries.
    pub len: usize,
    /// Tree height (leaf-only tree = 1; empty tree = 0).
    pub height: usize,
    /// Total node count.
    pub nodes: usize,
    /// Modeled storage footprint in bytes (see [`RTree::size_bytes`]).
    pub bytes: usize,
}

/// An R-tree over axis-parallel rectangles.
///
/// ```
/// use sj_geo::Rect;
/// use sj_rtree::{join_count, RTree, RTreeConfig};
///
/// let homes = vec![Rect::new(0.1, 0.1, 0.2, 0.2), Rect::new(0.7, 0.7, 0.8, 0.8)];
/// let parks = vec![Rect::new(0.15, 0.15, 0.5, 0.5)];
/// let th = RTree::bulk_load_str(RTreeConfig::default(), &homes);
/// let tp = RTree::bulk_load_str(RTreeConfig::default(), &parks);
/// assert_eq!(th.count_intersecting(&Rect::new(0.0, 0.0, 0.3, 0.3)), 1);
/// assert_eq!(join_count(&th, &tp), 1);
/// ```
#[derive(Debug, Clone)]
pub struct RTree {
    root: Option<Node>,
    config: RTreeConfig,
    len: usize,
}

/// Modeled bytes per entry: 4 × f64 for the MBR + 8 bytes for a child
/// pointer / object id. This matches the standard "R-tree page" accounting
/// used when papers report index sizes.
pub(crate) const ENTRY_BYTES: usize = 4 * 8 + 8;
/// Modeled per-node header: entry count + node type + page bookkeeping.
pub(crate) const NODE_HEADER_BYTES: usize = 16;

impl RTree {
    /// Creates an empty tree with the given configuration.
    #[must_use]
    pub fn new(config: RTreeConfig) -> Self {
        config.validate();
        Self {
            root: None,
            config,
            len: 0,
        }
    }

    /// Creates an empty tree with the default configuration.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(RTreeConfig::default())
    }

    /// The tree's configuration.
    #[must_use]
    pub fn config(&self) -> RTreeConfig {
        self.config
    }

    /// Number of data entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the tree holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (0 when empty, 1 for a single leaf).
    #[must_use]
    pub fn height(&self) -> usize {
        self.root.as_ref().map_or(0, Node::height)
    }

    /// Root node, if any. Exposed for the join algorithm and tests.
    #[must_use]
    pub fn root(&self) -> Option<&Node> {
        self.root.as_ref()
    }

    /// MBR of the whole tree.
    #[must_use]
    pub fn mbr(&self) -> Option<Rect> {
        self.root.as_ref().and_then(Node::mbr)
    }

    pub(crate) fn from_root(root: Option<Node>, config: RTreeConfig) -> Self {
        let len = root.as_ref().map_or(0, Node::count_entries);
        Self { root, config, len }
    }

    /// Inserts an entry (Guttman `Insert`): choose the leaf needing least
    /// enlargement, split on overflow, propagate splits upward, grow the
    /// root when it splits.
    pub fn insert(&mut self, rect: Rect, id: u64) {
        assert!(rect.is_finite(), "cannot index a non-finite rectangle");
        self.len += 1;
        let entry = Entry::new(rect, id);
        match self.root.take() {
            None => {
                self.root = Some(Node::Leaf(vec![entry]));
            }
            Some(mut root) => {
                if let Some((split_rect, split_node)) = insert_rec(&mut root, entry, &self.config) {
                    #[expect(
                        clippy::expect_used,
                        reason = "the root held at least one entry before the insert that split it"
                    )]
                    let old_rect = root.mbr().expect("non-empty root");
                    self.root = Some(Node::Inner(vec![
                        (old_rect, root),
                        (split_rect, split_node),
                    ]));
                } else {
                    self.root = Some(root);
                }
            }
        }
    }

    /// Visits every entry whose MBR intersects `query` (closed semantics).
    pub fn query_intersecting<F: FnMut(&Entry)>(&self, query: &Rect, mut visit: F) {
        if let Some(root) = &self.root {
            query_rec(root, query, &mut visit);
        }
    }

    /// Counts entries intersecting `query`.
    #[must_use]
    pub fn count_intersecting(&self, query: &Rect) -> usize {
        let mut n = 0usize;
        self.query_intersecting(query, |_| n += 1);
        n
    }

    /// Collects entries intersecting `query`.
    #[must_use]
    pub fn search(&self, query: &Rect) -> Vec<Entry> {
        let mut out = Vec::new();
        self.query_intersecting(query, |e| out.push(*e));
        out
    }

    /// Visits every entry in the tree.
    pub fn for_each<F: FnMut(&Entry)>(&self, mut visit: F) {
        if let Some(root) = &self.root {
            for_each_rec(root, &mut visit);
        }
    }

    /// Modeled storage footprint in bytes: per-node header plus
    /// 40 bytes/entry (MBR + pointer). The paper's *space cost* metric for
    /// histograms is `histogram bytes / (size of the two R-trees)`.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.root.as_ref().map_or(0, size_rec)
    }

    /// Structural statistics.
    #[must_use]
    pub fn stats(&self) -> RTreeStats {
        RTreeStats {
            len: self.len,
            height: self.height(),
            nodes: self.root.as_ref().map_or(0, Node::count_nodes),
            bytes: self.size_bytes(),
        }
    }

    /// Checks structural invariants; used by tests (and cheap enough for
    /// debug assertions in callers):
    ///
    /// * every inner entry's rect equals the MBR of its child subtree;
    /// * node occupancy is within `[min_entries, max_entries]` except the
    ///   root (and except bulk-loaded rightmost nodes, which may underfill
    ///   down to 1);
    /// * all leaves are at the same depth;
    /// * the number of reachable entries equals `len()`.
    ///
    /// # Panics
    /// Panics with a description of the violated invariant.
    pub fn validate(&self) {
        let Some(root) = &self.root else {
            assert_eq!(self.len, 0, "empty root but len != 0");
            return;
        };
        let mut leaf_depths = Vec::new();
        validate_rec(root, true, self.config, 1, &mut leaf_depths);
        assert!(
            leaf_depths.windows(2).all(|w| w[0] == w[1]),
            "leaves at unequal depths: {leaf_depths:?}"
        );
        assert_eq!(root.count_entries(), self.len, "len mismatch");
    }
}

fn size_rec(node: &Node) -> usize {
    match node {
        Node::Leaf(entries) => NODE_HEADER_BYTES + entries.len() * ENTRY_BYTES,
        Node::Inner(children) => {
            NODE_HEADER_BYTES
                + children.len() * ENTRY_BYTES
                + children.iter().map(|(_, c)| size_rec(c)).sum::<usize>()
        }
    }
}

fn for_each_rec<F: FnMut(&Entry)>(node: &Node, visit: &mut F) {
    match node {
        Node::Leaf(entries) => entries.iter().for_each(&mut *visit),
        Node::Inner(children) => {
            for (_, child) in children {
                for_each_rec(child, visit);
            }
        }
    }
}

fn query_rec<F: FnMut(&Entry)>(node: &Node, query: &Rect, visit: &mut F) {
    match node {
        Node::Leaf(entries) => {
            for e in entries {
                if e.rect.intersects(query) {
                    visit(e);
                }
            }
        }
        Node::Inner(children) => {
            for (rect, child) in children {
                if rect.intersects(query) {
                    query_rec(child, query, visit);
                }
            }
        }
    }
}

/// Recursive insert. Returns `Some((mbr, node))` when this node split and
/// the new sibling must be installed in the parent.
fn insert_rec(node: &mut Node, entry: Entry, config: &RTreeConfig) -> Option<(Rect, Node)> {
    match node {
        Node::Leaf(entries) => {
            entries.push(entry);
            if entries.len() <= config.max_entries {
                return None;
            }
            let overflow = std::mem::take(entries);
            let (g1, g2) = split(config.split, overflow, config.min_entries, |e| e.rect);
            *entries = g1;
            let sibling = Node::Leaf(g2);
            #[expect(
                clippy::expect_used,
                reason = "split() guarantees both groups hold >= min_entries >= 1 entries"
            )]
            let rect = sibling.mbr().expect("split group non-empty");
            Some((rect, sibling))
        }
        Node::Inner(children) => {
            let idx = choose_subtree(children, &entry.rect);
            let split_result = insert_rec(&mut children[idx].1, entry, config);
            // Refresh the chosen child's MBR after the descent.
            #[expect(
                clippy::expect_used,
                reason = "insertion only grows the chosen child, it cannot empty it"
            )]
            let child_mbr = children[idx].1.mbr().expect("child non-empty");
            children[idx].0 = child_mbr;
            if let Some((rect, new_node)) = split_result {
                children.push((rect, new_node));
                if children.len() > config.max_entries {
                    let overflow = std::mem::take(children);
                    let (g1, g2) = split(config.split, overflow, config.min_entries, |c| c.0);
                    *children = g1;
                    let sibling = Node::Inner(g2);
                    #[expect(
                        clippy::expect_used,
                        reason = "split() guarantees both groups hold >= min_entries >= 1 children"
                    )]
                    let rect = sibling.mbr().expect("split group non-empty");
                    return Some((rect, sibling));
                }
            }
            None
        }
    }
}

/// Guttman `ChooseLeaf` step: the child needing least area enlargement,
/// ties broken by smaller area.
fn choose_subtree(children: &[(Rect, Node)], rect: &Rect) -> usize {
    let mut best = 0usize;
    let mut best_enlargement = f64::INFINITY;
    let mut best_area = f64::INFINITY;
    for (i, (r, _)) in children.iter().enumerate() {
        let enlargement = r.enlargement(rect);
        let area = r.area();
        if enlargement < best_enlargement || (enlargement == best_enlargement && area < best_area) {
            best = i;
            best_enlargement = enlargement;
            best_area = area;
        }
    }
    best
}

fn validate_rec(
    node: &Node,
    is_root: bool,
    config: RTreeConfig,
    depth: usize,
    leaf_depths: &mut Vec<usize>,
) {
    let occupancy_ok = if is_root {
        node.len() <= config.max_entries
    } else {
        // Bulk-loaded trees may have one underfilled rightmost node per
        // level; accept any non-empty node up to max_entries. Dynamic
        // inserts always satisfy the stricter Guttman bound, checked in
        // the insert-specific tests.
        !node.is_empty() && node.len() <= config.max_entries
    };
    assert!(
        occupancy_ok,
        "node occupancy {} out of bounds (root={is_root}, M={})",
        node.len(),
        config.max_entries
    );
    match node {
        Node::Leaf(_) => leaf_depths.push(depth),
        Node::Inner(children) => {
            for (rect, child) in children {
                #[expect(
                    clippy::expect_used,
                    reason = "validate_rec is a structure checker that itself asserts on violation"
                )]
                let child_mbr = child.mbr().expect("child non-empty");
                assert_eq!(
                    *rect, child_mbr,
                    "inner entry rect does not match child subtree MBR"
                );
                validate_rec(child, false, config, depth + 1, leaf_depths);
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
                let w = rng.random_range(0.0..0.05);
                let h = rng.random_range(0.0..0.05);
                Rect::new(x, y, x + w, y + h)
            })
            .collect()
    }

    fn brute_force(rects: &[Rect], q: &Rect) -> usize {
        rects.iter().filter(|r| r.intersects(q)).count()
    }

    #[test]
    fn empty_tree() {
        let t = RTree::with_defaults();
        assert!(t.is_empty());
        assert_eq!(t.height(), 0);
        assert_eq!(t.count_intersecting(&Rect::new(0.0, 0.0, 1.0, 1.0)), 0);
        assert_eq!(t.size_bytes(), 0);
        t.validate();
    }

    #[test]
    fn insert_and_query_matches_brute_force() {
        for algo in [SplitAlgorithm::Linear, SplitAlgorithm::Quadratic] {
            let rects = random_rects(500, 7);
            let mut t = RTree::new(RTreeConfig {
                max_entries: 8,
                min_entries: 3,
                split: algo,
            });
            for (i, r) in rects.iter().enumerate() {
                t.insert(*r, i as u64);
            }
            assert_eq!(t.len(), 500);
            t.validate();
            assert!(t.height() >= 3, "tree should have split ({algo:?})");
            for q in random_rects(50, 99) {
                assert_eq!(
                    t.count_intersecting(&q),
                    brute_force(&rects, &q),
                    "query mismatch under {algo:?}"
                );
            }
        }
    }

    #[test]
    fn insert_respects_min_occupancy() {
        // Stricter check than validate(): every non-root node of a purely
        // dynamic tree must have >= min_entries.
        let rects = random_rects(300, 3);
        let cfg = RTreeConfig {
            max_entries: 10,
            min_entries: 4,
            split: SplitAlgorithm::Quadratic,
        };
        let mut t = RTree::new(cfg);
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        fn check(node: &Node, is_root: bool, m: usize) {
            if !is_root {
                assert!(node.len() >= m, "underfilled node: {}", node.len());
            }
            if let Node::Inner(children) = node {
                for (_, c) in children {
                    check(c, false, m);
                }
            }
        }
        check(t.root().unwrap(), true, cfg.min_entries);
    }

    #[test]
    fn search_returns_ids() {
        let mut t = RTree::with_defaults();
        t.insert(Rect::new(0.0, 0.0, 1.0, 1.0), 42);
        t.insert(Rect::new(5.0, 5.0, 6.0, 6.0), 43);
        let hits = t.search(&Rect::new(0.5, 0.5, 0.6, 0.6));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 42);
    }

    #[test]
    fn for_each_visits_everything() {
        let rects = random_rects(100, 11);
        let mut t = RTree::with_defaults();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        let mut ids: Vec<u64> = Vec::new();
        t.for_each(|e| ids.push(e.id));
        ids.sort_unstable();
        assert_eq!(ids, (0..100u64).collect::<Vec<_>>());
    }

    #[test]
    fn size_bytes_grows_with_content() {
        let mut t = RTree::with_defaults();
        let empty = t.size_bytes();
        for (i, r) in random_rects(200, 5).iter().enumerate() {
            t.insert(*r, i as u64);
        }
        assert!(t.size_bytes() > empty);
        let s = t.stats();
        assert_eq!(s.len, 200);
        assert_eq!(s.bytes, t.size_bytes());
        assert!(s.nodes > 200 / 50);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn inserting_nan_rect_panics() {
        let mut t = RTree::with_defaults();
        // Rect::new's min/max normalization silently drops a NaN in one
        // coordinate pair, so build the pathological rect directly.
        t.insert(
            Rect {
                xlo: f64::NAN,
                ylo: 0.0,
                xhi: f64::NAN,
                yhi: 1.0,
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "min_entries")]
    fn bad_config_rejected() {
        let _ = RTree::new(RTreeConfig {
            max_entries: 10,
            min_entries: 6,
            split: SplitAlgorithm::Quadratic,
        });
    }
}
