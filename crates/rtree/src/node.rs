use sj_geo::Rect;

/// A data entry in a leaf: the MBR of an object plus its identifier
/// (typically the index of the object in its dataset).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    /// Minimum bounding rectangle of the object.
    pub rect: Rect,
    /// Caller-assigned object identifier.
    pub id: u64,
}

impl Entry {
    /// Creates a new entry.
    #[must_use]
    pub const fn new(rect: Rect, id: u64) -> Self {
        Self { rect, id }
    }
}

/// An R-tree node. Leaves hold data [`Entry`]s; inner nodes hold children
/// together with the MBR covering each child's subtree.
#[derive(Debug, Clone)]
pub enum Node {
    /// A leaf node holding data entries.
    Leaf(Vec<Entry>),
    /// An internal node holding `(subtree MBR, child)` pairs.
    Inner(Vec<(Rect, Node)>),
}

impl Node {
    /// Number of entries in this node (not the subtree).
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Inner(c) => c.len(),
        }
    }

    /// `true` if this node has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The MBR covering every entry in this node, or `None` when empty.
    #[must_use]
    pub fn mbr(&self) -> Option<Rect> {
        match self {
            Node::Leaf(entries) => Rect::mbr_of(entries.iter().map(|e| e.rect)),
            Node::Inner(children) => Rect::mbr_of(children.iter().map(|(r, _)| *r)),
        }
    }

    /// Height of the subtree rooted at this node (leaf = 1).
    #[must_use]
    pub fn height(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Inner(children) => 1 + children.first().map_or(0, |(_, child)| child.height()),
        }
    }

    /// Total number of data entries in the subtree.
    #[must_use]
    pub fn count_entries(&self) -> usize {
        match self {
            Node::Leaf(e) => e.len(),
            Node::Inner(c) => c.iter().map(|(_, n)| n.count_entries()).sum(),
        }
    }

    /// Total number of nodes in the subtree (including this one).
    #[must_use]
    pub fn count_nodes(&self) -> usize {
        match self {
            Node::Leaf(_) => 1,
            Node::Inner(c) => 1 + c.iter().map(|(_, n)| n.count_nodes()).sum::<usize>(),
        }
    }
}
