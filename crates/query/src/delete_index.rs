//! The exact delete index (DESIGN.md §13.2): a table's rows as a `u32`
//! permutation sorted by each row's canonical key, so a delete batch
//! resolves with one binary search per equal-value class instead of a
//! pass over the table.
//!
//! The canonical key is the four coordinates' bits with `-0.0` folded
//! onto `+0.0`, compared lexicographically; rows ascend within a key.
//! Rows equal under `Rect ==` share a key, and a key's rows are equal to
//! each other unless they hold a NaN, which equals nothing. So the rows
//! a delete could match form one contiguous run, in dataset order, and
//! the k-th delete of a class claiming the k-th row of its run is
//! exactly the first-match rule applied delete by delete.

use sj_geo::Rect;
use std::collections::BTreeMap;

/// Bits of `x` with `-0.0` folded onto `+0.0`: equal (non-NaN)
/// coordinates get equal keys.
fn canon(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

fn key(r: &Rect) -> [u64; 4] {
    [canon(r.xlo), canon(r.ylo), canon(r.xhi), canon(r.yhi)]
}

/// Whether a table of `rows` rows can be numbered by the index. The
/// bound is `u32::MAX` rows, so every row number and the row count
/// itself fit in a `u32`.
pub(crate) fn fits(rows: usize) -> bool {
    u32::try_from(rows).is_ok()
}

/// Builds the index over `rects`, which must satisfy [`fits`]. The sort
/// runs on 16-byte `(canonical xlo, row)` pairs; only runs of rows that
/// share an `xlo` are re-sorted on the full key.
pub(crate) fn build(rects: &[Rect]) -> Vec<u32> {
    debug_assert!(fits(rects.len()), "the row bound is checked first");
    let mut pairs: Vec<(u64, u32)> = rects
        .iter()
        .zip(0u32..)
        .map(|(r, row)| (canon(r.xlo), row))
        .collect();
    pairs.sort_unstable();
    let mut index = Vec::with_capacity(pairs.len());
    for run in pairs.chunk_by(|a, b| a.0 == b.0) {
        let at = index.len();
        index.extend(run.iter().map(|&(_, row)| row));
        if run.len() > 1 {
            index[at..].sort_unstable_by_key(|&row| (key(&rects[row as usize]), row));
        }
    }
    index
}

/// Resolves each delete of a batch to one row, returning the ascending
/// rows claimed (one per delete), or the smallest batch index whose
/// delete matches no row — exactly what resolving the deletes one by
/// one in batch order, each taking the first still-live equal row,
/// returns. `index` must be [`build`]`(rects)`.
pub(crate) fn resolve(
    index: &[u32],
    rects: &[Rect],
    deletes: &[Rect],
) -> Result<Vec<usize>, usize> {
    // Equal-value classes: each class's batch indices, in order.
    let mut classes: BTreeMap<[u64; 4], Vec<usize>> = BTreeMap::new();
    for (i, del) in deletes.iter().enumerate() {
        classes.entry(key(del)).or_default().push(i);
    }
    let mut claimed = Vec::with_capacity(deletes.len());
    let mut missing: Option<usize> = None;
    for (k, batch) in &classes {
        let start = index.partition_point(|&row| key(&rects[row as usize]) < *k);
        // `==` confirms each row: a NaN delete claims nothing.
        let del = deletes[batch[0]];
        let before = claimed.len();
        claimed.extend(
            index[start..]
                .iter()
                .take(batch.len())
                .map(|&row| row as usize)
                .take_while(|&row| rects[row] == del),
        );
        if let Some(&unmet) = batch.get(claimed.len() - before) {
            missing = Some(missing.map_or(unmet, |m| m.min(unmet)));
        }
    }
    match missing {
        Some(index) => Err(index),
        None => {
            claimed.sort_unstable();
            Ok(claimed)
        }
    }
}

/// Keeps `index` equal to a fresh [`build`] over the committed `rects`,
/// after the commit removed the ascending rows `deleted` (numbered
/// before the removal) and appended `inserted` rows. Returns `false`,
/// and the caller drops the index, only when `rects` outgrew [`fits`],
/// which the prepare phase's row bound rules out.
#[expect(
    clippy::cast_possible_truncation,
    reason = "every row count here is at most `rects.len()`, checked to fit a u32 first"
)]
pub(crate) fn commit(
    index: &mut Vec<u32>,
    rects: &[Rect],
    deleted: &[usize],
    inserted: usize,
) -> bool {
    if !fits(rects.len()) {
        return false;
    }
    // Drop the claimed entries and renumber the survivors above the
    // first deleted row, in one pass; entries keep their order.
    if let Some(&first) = deleted.first() {
        index.retain_mut(|row| {
            let r = *row as usize;
            if r < first {
                return true;
            }
            let below = deleted.partition_point(|&d| d < r);
            if deleted.get(below) == Some(&r) {
                return false;
            }
            *row -= below as u32;
            true
        });
    }
    // The new rows carry the largest numbers, so each sorts after every
    // kept row of its key: merge them in from the back, moving each kept
    // entry at most once.
    let end = rects.len() as u32;
    let mut new: Vec<u32> = (end - inserted as u32..end).collect();
    new.sort_unstable_by_key(|&row| (key(&rects[row as usize]), row));
    let mut unmerged = index.len();
    index.resize(index.len() + new.len(), 0);
    for (k, &row) in new.iter().enumerate().rev() {
        let at = {
            let new_key = key(&rects[row as usize]);
            index[..unmerged].partition_point(|&e| key(&rects[e as usize]) <= new_key)
        };
        index.copy_within(at..unmerged, at + k + 1);
        index[at + k] = row;
        unmerged = at;
    }
    true
}
