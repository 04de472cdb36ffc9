//! Property suite for incremental statistics (registered under
//! `sj-histogram`).
//!
//! Randomized insert/delete batches are driven through
//! [`SpatialHistogram::apply_delta`] for **every** [`HistogramKind`] and
//! the result must be byte-identical to a fresh full rebuild over the
//! mutated dataset — the group-structure identity
//! `apply_delta(build(D), Δ) ≡ build(D ∪ Δ⁺ ∖ Δ⁻)` that the whole
//! incremental-statistics path (apply, WAL replay, compaction) rests
//! on. Inverse batches must restore the base exactly, and deletes of
//! objects a histogram never counted must be a typed error that leaves
//! it untouched.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_geo::{Extent, Rect};
use sj_histogram::{build_histogram, Grid, HistogramDelta, HistogramError, HistogramKind};

/// Deterministic rectangle batch inside the unit extent.
fn rects(n: usize, seed: u64, side: f64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.random_range(0.0..1.0 - side);
            let y = rng.random_range(0.0..1.0 - side);
            Rect::new(
                x,
                y,
                x + rng.random_range(0.0..side),
                y + rng.random_range(0.0..side),
            )
        })
        .collect()
}

/// Splits `base` into (kept, deleted) with roughly `del_per_mille / 1000`
/// of the rects deleted, deterministically from `seed`.
fn split_deletes(base: &[Rect], del_per_mille: u16, seed: u64) -> (Vec<Rect>, Vec<Rect>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut kept = Vec::new();
    let mut deleted = Vec::new();
    for r in base {
        if rng.random_range(0..1000u16) < del_per_mille {
            deleted.push(*r);
        } else {
            kept.push(*r);
        }
    }
    (kept, deleted)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random batches, every family: incremental maintenance equals a
    /// full rebuild bit-for-bit, at every shard count.
    #[test]
    fn prop_apply_delta_matches_fresh_rebuild(
        seed in 0u64..10_000,
        kind_idx in 0usize..4,
        level in 1u32..5,
        n_base in 10usize..140,
        n_ins in 0usize..70,
        del_per_mille in 0u16..700,
        threads in 1usize..6,
    ) {
        let kind = HistogramKind::ALL[kind_idx];
        let grid = Grid::new(level, Extent::unit()).expect("level in range");
        let base = rects(n_base, seed, 0.08);
        let inserts = rects(n_ins, seed ^ 0xa5a5, 0.06);
        let (kept, deleted) = split_deletes(&base, del_per_mille, seed ^ 0x5a5a);
        let target: Vec<Rect> = kept.iter().chain(&inserts).copied().collect();

        let delta = HistogramDelta::build_parallel(kind, grid, &inserts, &deleted, threads);
        prop_assert_eq!(delta.inserts(), n_ins as u64);
        prop_assert_eq!(delta.deletes(), deleted.len() as u64);

        let mut maintained = build_histogram(kind, grid, &base);
        maintained.apply_delta(&delta).expect("deletes are a subset of the base");
        let rebuilt = build_histogram(kind, grid, &target);
        prop_assert_eq!(
            maintained.persist(),
            rebuilt.persist(),
            "{} x{}: incremental update diverged from full rebuild", kind, threads
        );
    }

    /// Inverting a batch (swap insert and delete sides) restores the
    /// original histogram exactly — the deltas form a group.
    #[test]
    fn prop_inverse_delta_restores_the_base(
        seed in 0u64..10_000,
        kind_idx in 0usize..4,
        level in 1u32..4,
        n_base in 10usize..100,
        n_ins in 1usize..50,
    ) {
        let kind = HistogramKind::ALL[kind_idx];
        let grid = Grid::new(level, Extent::unit()).expect("level in range");
        let base = rects(n_base, seed, 0.08);
        let inserts = rects(n_ins, seed ^ 0xbeef, 0.06);
        let (_, deleted) = split_deletes(&base, 300, seed ^ 0xfeed);

        let forward = HistogramDelta::build(kind, grid, &inserts, &deleted);
        let inverse = HistogramDelta::build(kind, grid, &deleted, &inserts);
        let mut h = build_histogram(kind, grid, &base);
        let before = h.persist();
        h.apply_delta(&forward).expect("forward applies");
        h.apply_delta(&inverse).expect("inverse applies");
        prop_assert_eq!(h.persist(), before, "{}: forward∘inverse must be identity", kind);
    }

    /// Deleting rects the histogram never absorbed must be rejected as
    /// a typed [`HistogramError::DeltaOutOfRange`] with the histogram
    /// left bit-for-bit untouched — never a wrap, never a panic.
    #[test]
    fn prop_phantom_deletes_are_typed_and_atomic(
        seed in 0u64..10_000,
        kind_idx in 0usize..4,
        level in 1u32..4,
    ) {
        let kind = HistogramKind::ALL[kind_idx];
        let grid = Grid::new(level, Extent::unit()).expect("level in range");
        let base = rects(30, seed, 0.08);
        // The phantom batch strictly contains the base, so some counter
        // must underflow.
        let mut phantom = base.clone();
        phantom.extend(rects(40, seed ^ 0xdead, 0.08));

        let delta = HistogramDelta::build(kind, grid, &[], &phantom);
        let mut h = build_histogram(kind, grid, &base);
        let before = h.persist();
        match h.apply_delta(&delta) {
            Err(HistogramError::DeltaOutOfRange { .. }) => {}
            other => prop_assert!(false, "{}: expected DeltaOutOfRange, got {:?}", kind, other),
        }
        prop_assert_eq!(h.persist(), before, "{}: failed apply must not mutate", kind);
    }
}
