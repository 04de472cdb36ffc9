//! Merge-equivalence and persistence round-trips for every histogram
//! family behind the `SpatialHistogram` trait.
//!
//! The mergeable-sketch contract: for any split of the input into
//! rectangle ranges, `build(A ++ B) == merge(build(A), build(B))`
//! *bit-for-bit* — per-cell statistics are pure sums accumulated in
//! exact fixed-point, so shard order and count are irrelevant. These
//! tests mirror `parallel_agreement.rs` (which pins the row-band path)
//! for the rect-range shard-and-merge path, and pin the versioned
//! persistence envelope for every kind.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use proptest::prelude::*;
use sj_core::{
    build_histogram, build_histogram_sharded, load_histogram, Extent, Grid, HistogramKind, Rect,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn unit_grid(level: u32) -> Grid {
    Grid::new(level, Extent::unit()).expect("grid level in range")
}

/// Deterministic pseudo-random rects in the unit square (no RNG state
/// shared with the estimators under test).
fn scattered_rects(n: usize, seed: u64, max_side: f64) -> Vec<Rect> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| {
            let x = next() * (1.0 - max_side);
            let y = next() * (1.0 - max_side);
            Rect::new(x, y, x + next() * max_side, y + next() * max_side)
        })
        .collect()
}

fn chunked(rects: &[Rect], shards: usize) -> Vec<&[Rect]> {
    let chunk = rects.len().div_ceil(shards).max(1);
    rects.chunks(chunk).collect()
}

#[test]
fn sharded_builds_are_bit_identical_for_every_kind() {
    let rects = scattered_rects(900, 21, 0.08);
    for level in [0u32, 1, 3, 5] {
        let grid = unit_grid(level);
        for kind in HistogramKind::ALL {
            let serial = build_histogram(kind, grid, &rects);
            for shards in SHARD_COUNTS {
                let merged = build_histogram_sharded(kind, grid, &chunked(&rects, shards));
                assert_eq!(
                    merged.to_bytes(),
                    serial.to_bytes(),
                    "{kind} level {level} with {shards} shards"
                );
            }
        }
    }
}

#[test]
fn merge_handles_degenerate_shards() {
    let single = vec![Rect::new(0.2, 0.3, 0.4, 0.5)];
    let many = scattered_rects(40, 22, 0.1);
    let grid = unit_grid(4);
    for kind in HistogramKind::ALL {
        // Empty ++ empty.
        let empty = build_histogram_sharded(kind, grid, &[&[], &[]]);
        assert_eq!(
            empty.to_bytes(),
            build_histogram(kind, grid, &[]).to_bytes()
        );

        // Empty shard on either side of real data.
        let serial = build_histogram(kind, grid, &many);
        for pieces in [
            vec![&[][..], &many[..]],
            vec![&many[..], &[][..]],
            vec![&many[..5], &[][..], &many[5..]],
        ] {
            let merged = build_histogram_sharded(kind, grid, &pieces);
            assert_eq!(
                merged.to_bytes(),
                serial.to_bytes(),
                "{kind} with empty shard"
            );
        }

        // A single rect split off the rest.
        let mut both = single.clone();
        both.extend_from_slice(&many);
        let merged = build_histogram_sharded(kind, grid, &[&single, &many]);
        assert_eq!(
            merged.to_bytes(),
            build_histogram(kind, grid, &both).to_bytes(),
            "{kind} single-rect shard"
        );
    }
}

#[test]
fn merged_histograms_estimate_like_serial() {
    let a = scattered_rects(500, 31, 0.06);
    let b = scattered_rects(400, 32, 0.06);
    let grid = unit_grid(5);
    for kind in HistogramKind::ALL {
        let sa = build_histogram(kind, grid, &a);
        let sb = build_histogram(kind, grid, &b);
        let reference = sa.estimate_join(sb.as_ref()).expect("same kind and grid");
        for shards in SHARD_COUNTS {
            let ma = build_histogram_sharded(kind, grid, &chunked(&a, shards));
            let mb = build_histogram_sharded(kind, grid, &chunked(&b, shards));
            let est = ma.estimate_join(mb.as_ref()).expect("same kind and grid");
            assert_eq!(
                est.selectivity, reference.selectivity,
                "{kind} at {shards} shards"
            );
            assert_eq!(est.pairs, reference.pairs);
        }
    }
}

#[test]
fn persistence_round_trips_every_kind() {
    let rects = scattered_rects(300, 41, 0.07);
    let probe = scattered_rects(200, 42, 0.07);
    let grid = unit_grid(4);
    for kind in HistogramKind::ALL {
        let original = build_histogram(kind, grid, &rects);
        let other = build_histogram(kind, grid, &probe);
        let reference = original.estimate_join(other.as_ref()).expect("same grid");

        let revived = load_histogram(&original.persist()).expect("binary envelope decodes");
        assert_eq!(revived.kind(), kind);
        assert_eq!(revived.to_bytes(), original.to_bytes(), "{kind} binary");
        let est = revived.estimate_join(other.as_ref()).expect("same grid");
        assert_eq!(est.selectivity, reference.selectivity, "{kind} binary");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random rect sets: shard-and-merge agrees bit-for-bit with the
    /// serial build for every family, shard count and grid level.
    #[test]
    fn prop_shard_merge_matches_serial(
        seed in 0u64..500,
        n in 0usize..120,
        level in 0u32..5,
        shards in 1usize..9,
    ) {
        let rects = scattered_rects(n, seed, 0.2);
        let grid = unit_grid(level);
        for kind in HistogramKind::ALL {
            let serial = build_histogram(kind, grid, &rects);
            let merged = build_histogram_sharded(kind, grid, &chunked(&rects, shards));
            prop_assert_eq!(merged.to_bytes(), serial.to_bytes());
        }
    }
}
