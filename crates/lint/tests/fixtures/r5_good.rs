//! R5 good: every suppression names a live rule.

/// The crate's one item.
pub fn widget(v: &[u32]) -> u32 {
    // sj-lint: allow(panic, callers pass a non-empty slice)
    v[0]
}
