//! Format stability: the persisted bytes of every histogram family and
//! of every family's `.hdelta` are pinned by length and CRC32.
//!
//! The `.hist` payload codec, its size and the `.hdelta` codec are
//! written once over each family's statistic declaration. Any change to
//! a magic, the header, the scalar order, the array order or an element
//! encoding moves one of these pins, so a refactor that claims to keep
//! the on-disk format (and keeps `ENVELOPE_VERSION` / `DELTA_VERSION`)
//! must leave this test green. Levels 0 and 3 on empty and seeded
//! inputs cover the degenerate lattices too: at level 0 Euler's
//! interior edge and vertex arrays are empty. CI runs this as its own
//! named step.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_geo::{Extent, Rect};
use sj_histogram::crc::crc32;
use sj_histogram::{build_histogram, Grid, HistogramDelta, HistogramKind};

/// A fixed rectangle set from an integer generator (no float RNG), on a
/// non-unit extent so the pinned header carries real extent bytes.
fn seeded_rects(n: usize, seed: u64) -> Vec<Rect> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        // 20 high bits: a multiple of 2^-20 in [0, 1), exact in f64.
        (state >> 44) as f64 / f64::from(1u32 << 20)
    };
    (0..n)
        .map(|i| {
            let (x, y) = (-2.0 + 7.5 * next(), 1.0 + 3.5 * next());
            let (w, h) = if i % 5 == 0 {
                (0.0, 0.0)
            } else {
                (0.6 * next(), 0.4 * next())
            };
            Rect::new(x, y, (x + w).min(6.0), (y + h).min(5.0))
        })
        .collect()
}

fn grid(level: u32) -> Grid {
    Grid::new(level, Extent::new(Rect::new(-2.0, 1.0, 6.0, 5.0))).unwrap()
}

/// Length and CRC32 of a persisted envelope. The CRC covers everything
/// before the 4-byte trailer (a CRC over a buffer that ends in its own
/// CRC is a constant), so it equals the stored trailer.
fn pin(bytes: &[u8]) -> (usize, u32) {
    let body = bytes.get(..bytes.len().saturating_sub(4)).unwrap_or(&[]);
    (bytes.len(), crc32(body))
}

/// `(kind, level, seeded, persist() length, CRC32 before the trailer)`.
const HIST_PINS: [(HistogramKind, u32, bool, usize, u32); 16] = [
    (HistogramKind::Ph, 0, false, 192, 0x918e0f5a),
    (HistogramKind::Ph, 0, true, 192, 0xf0786467),
    (HistogramKind::Ph, 3, false, 6744, 0x53b1335b),
    (HistogramKind::Ph, 3, true, 6744, 0xb1ce005b),
    (HistogramKind::GhBasic, 0, false, 88, 0x23f7302d),
    (HistogramKind::GhBasic, 0, true, 88, 0xd2be2f70),
    (HistogramKind::GhBasic, 3, false, 1096, 0x5181f342),
    (HistogramKind::GhBasic, 3, true, 1096, 0x6d3ba3e3),
    (HistogramKind::Gh, 0, false, 124, 0xad7aea85),
    (HistogramKind::Gh, 0, true, 124, 0x1491e2bc),
    (HistogramKind::Gh, 3, false, 3400, 0x34aebcb2),
    (HistogramKind::Gh, 3, true, 3400, 0xf0922ac9),
    (HistogramKind::Euler, 0, false, 76, 0x67d0fe53),
    (HistogramKind::Euler, 0, true, 76, 0x7c1967d7),
    (HistogramKind::Euler, 3, false, 972, 0x116c9876),
    (HistogramKind::Euler, 3, true, 972, 0xa04c16ea),
];

/// `(kind, HistogramDelta::persist() length, CRC32 before the trailer)`
/// of one mixed insert/delete batch at level 3.
const DELTA_PINS: [(HistogramKind, usize, u32); 4] = [
    (HistogramKind::Ph, 4684, 0x088206ec),
    (HistogramKind::GhBasic, 2328, 0xe6d8082c),
    (HistogramKind::Gh, 3708, 0x5aa808b6),
    (HistogramKind::Euler, 1236, 0x14139c9a),
];

#[test]
fn persisted_histograms_are_byte_stable() {
    let rects = seeded_rects(150, 0x601d);
    let mut drift = Vec::new();
    for (kind, level, seeded, len, crc) in HIST_PINS {
        let input: &[Rect] = if seeded { &rects } else { &[] };
        let h = build_histogram(kind, grid(level), input);
        let persisted = h.persist();
        assert_eq!(
            h.space_bytes() + 24,
            persisted.len(),
            "{kind} level {level}"
        );
        let got = pin(&persisted);
        if got != (len, crc) {
            drift.push(format!(
                "(HistogramKind::{kind:?}, {level}, {seeded}, {}, {:#010x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        ".hist bytes drifted:\n{}",
        drift.join("\n")
    );
}

#[test]
fn persisted_deltas_are_byte_stable() {
    let base = seeded_rects(150, 0x601d);
    let inserts = seeded_rects(40, 0xde17);
    let deletes: Vec<Rect> = base.iter().copied().step_by(4).collect();
    let mut drift = Vec::new();
    for (kind, len, crc) in DELTA_PINS {
        let delta = HistogramDelta::build(kind, grid(3), &inserts, &deletes);
        let got = pin(&delta.persist());
        if got != (len, crc) {
            drift.push(format!(
                "(HistogramKind::{kind:?}, {}, {:#010x}),",
                got.0, got.1
            ));
        }
    }
    assert!(
        drift.is_empty(),
        ".hdelta bytes drifted:\n{}",
        drift.join("\n")
    );
}
