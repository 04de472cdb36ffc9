//! Fault-injection suite for the statistics pipeline (registered under
//! `sj-query`, which depends on every layer it attacks).
//!
//! Systematically corrupts persisted `.hist` envelopes — truncation at
//! every byte offset (which subsumes every section boundary) and random
//! bit-flips — for **every** [`HistogramKind`], and sparse GH files the
//! same way, and asserts the only
//! possible outcomes are (a) the original histogram, bit-for-bit, or
//! (b) a typed [`HistogramError`]. Never a panic, never a silently
//! different histogram. Compacted `<table>.base` files (a dataset
//! snapshot followed by the envelope) are truncated and bit-flipped the
//! same way through `Catalog::open_stats_store`, which must answer a
//! typed corruption error. Also pins the catalog-level behavior: a
//! corrupt statistics file degrades the estimate to a lower tier with
//! full provenance instead of failing the query.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_geo::{Extent, Rect};
use sj_histogram::{
    build_histogram, load_histogram, CorruptSection, GhHistogram, Grid, HistogramError,
    HistogramKind,
};
use sj_query::{
    Catalog, CompactionPolicy, DegradationPolicy, EstimateTier, MutationId, QueryError,
};

/// A deterministic non-trivial rectangle set (clustered + scattered, with
/// degenerate points) so every family has non-empty per-cell statistics.
fn fixture_rects(n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let (cx, cy) = if i % 3 == 0 {
                (0.3, 0.7) // cluster
            } else {
                (rng.random_range(0.05..0.95), rng.random_range(0.05..0.95))
            };
            let (w, h) = if i % 7 == 0 {
                (0.0, 0.0) // degenerate point MBR
            } else {
                (rng.random_range(0.0..0.08), rng.random_range(0.0..0.08))
            };
            Rect::new(
                (cx - w / 2.0).max(0.0),
                (cy - h / 2.0).max(0.0),
                (cx + w / 2.0).min(1.0),
                (cy + h / 2.0).min(1.0),
            )
        })
        .collect()
}

fn envelope_for(kind: HistogramKind, level: u32, n: usize, seed: u64) -> Vec<u8> {
    let grid = Grid::new(level, Extent::unit()).expect("level in range");
    build_histogram(kind, grid, &fixture_rects(n, seed))
        .persist()
        .to_vec()
}

/// A sparse GH file (`build-histogram --sparse`), framed like the
/// envelope.
fn sparse_file_for(level: u32, n: usize, seed: u64) -> Vec<u8> {
    let grid = Grid::new(level, Extent::unit()).expect("level in range");
    GhHistogram::build(grid, &fixture_rects(n, seed))
        .to_sparse_bytes()
        .to_vec()
}

/// The v2 envelope's section boundaries: magic | version | kind tag |
/// payload length | payload | CRC32.
fn section_boundaries(envelope_len: usize) -> Vec<usize> {
    vec![0, 4, 8, 12, 20, envelope_len - 4, envelope_len]
}

/// Truncating a valid envelope at *every* byte offset (which includes
/// every section boundary) must yield a typed error — the length frame
/// makes any proper prefix detectable.
#[test]
fn truncation_at_every_offset_is_a_typed_error() {
    for kind in HistogramKind::ALL {
        let bytes = envelope_for(kind, 3, 120, 0x5eed);
        for boundary in section_boundaries(bytes.len()) {
            assert!(boundary <= bytes.len(), "{kind}: boundary table sane");
        }
        for cut in 0..bytes.len() {
            match load_histogram(&bytes[..cut]) {
                Err(HistogramError::Corrupt { .. }) => {}
                Err(other) => panic!("{kind}: truncation at {cut} gave non-Corrupt {other:?}"),
                Ok(_) => panic!("{kind}: truncation at {cut} silently loaded"),
            }
        }
        // The untruncated envelope still loads, bit-for-bit.
        let back = load_histogram(&bytes).expect("pristine envelope loads");
        assert_eq!(back.persist().to_vec(), bytes, "{kind}: lossless reload");
    }
    // Sparse GH files carry the same frame.
    let bytes = sparse_file_for(3, 60, 0x5eed);
    for cut in 0..bytes.len() {
        match GhHistogram::from_sparse_bytes(&bytes[..cut]) {
            Err(HistogramError::Corrupt { .. }) => {}
            Err(other) => panic!("sparse: truncation at {cut} gave non-Corrupt {other:?}"),
            Ok(_) => panic!("sparse: truncation at {cut} silently loaded"),
        }
    }
    let back = GhHistogram::from_sparse_bytes(&bytes).expect("pristine sparse file loads");
    assert_eq!(
        back.to_sparse_bytes().to_vec(),
        bytes,
        "sparse: lossless reload"
    );
}

/// ≥64 random single-bit flips per kind: every flip must surface as a
/// typed error (the CRC32 trailer catches payload damage; header damage
/// trips the envelope checks) — never a panic, never a different
/// histogram.
#[test]
fn random_bit_flips_never_load_silently() {
    for kind in HistogramKind::ALL {
        let bytes = envelope_for(kind, 3, 120, 0xf11b);
        let original = load_histogram(&bytes).expect("pristine envelope loads");
        let mut rng = StdRng::seed_from_u64(0xb17f_11b5 ^ kind.tag() as u64);
        for trial in 0..96 {
            let mut mutated = bytes.clone();
            let pos = rng.random_range(0..mutated.len());
            let bit = rng.random_range(0..8u32);
            mutated[pos] ^= 1u8 << bit;
            match load_histogram(&mutated) {
                // Any typed error is a correctly detected corruption
                // (HistogramError is non_exhaustive, so no variant list).
                Err(_) => {}
                Ok(loaded) => {
                    // Only acceptable if the flip somehow restored the
                    // exact original bytes — impossible for a single-bit
                    // flip, so loading the identical histogram is the
                    // only non-failure we tolerate.
                    assert_eq!(
                        loaded.to_bytes(),
                        original.to_bytes(),
                        "{kind}: flip {trial} at {pos}:{bit} loaded a DIFFERENT histogram"
                    );
                    panic!("{kind}: flip {trial} at {pos}:{bit} was not detected");
                }
            }
        }
    }
    // Sparse GH files: every single-bit flip anywhere in the file — the
    // unframed layout loaded most payload flips as a different histogram.
    let bytes = sparse_file_for(3, 60, 0xf11b);
    for pos in 0..bytes.len() {
        for bit in 0..8u32 {
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1u8 << bit;
            match GhHistogram::from_sparse_bytes(&mutated) {
                Err(HistogramError::Corrupt { .. }) => {}
                Err(other) => panic!("sparse: flip at {pos}:{bit} gave {other:?}"),
                Ok(_) => panic!("sparse: flip at {pos}:{bit} was not detected"),
            }
        }
    }
}

/// Flips confined to the payload section must always be caught by the
/// checksum specifically.
#[test]
fn payload_flips_fail_the_checksum_section() {
    for kind in HistogramKind::ALL {
        let bytes = envelope_for(kind, 2, 60, 0xc4c);
        let payload_range = 20..bytes.len() - 4;
        let mut rng = StdRng::seed_from_u64(0xcc32 ^ kind.tag() as u64);
        for _ in 0..16 {
            let mut mutated = bytes.clone();
            let pos = rng.random_range(payload_range.clone());
            mutated[pos] ^= 0x80;
            match load_histogram(&mutated) {
                Err(HistogramError::Corrupt {
                    section: CorruptSection::Checksum,
                    ..
                }) => {}
                other => panic!("{kind}: payload flip at {pos} gave {other:?}"),
            }
        }
    }
}

/// Old-version (pre-CRC, pre-length-frame) envelopes carry no checksum,
/// so they are rejected with a typed envelope error rather than loaded
/// unverified.
#[test]
fn pre_crc_envelopes_are_rejected() {
    for kind in HistogramKind::ALL {
        let grid = Grid::new(3, Extent::unit()).expect("level in range");
        let h = build_histogram(kind, grid, &fixture_rects(80, 0x1e6));
        let payload = h.to_bytes();
        // Hand-assemble a version-1 envelope: magic, version, tag, payload.
        let mut v1 = Vec::with_capacity(12 + payload.len());
        v1.extend_from_slice(&0x534a_5348u32.to_le_bytes());
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&kind.tag().to_le_bytes());
        v1.extend_from_slice(&payload);
        match load_histogram(&v1) {
            Err(HistogramError::Corrupt {
                section: CorruptSection::Envelope,
                ..
            }) => {}
            other => panic!("{kind}: version-1 envelope gave {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary corruption — truncate at any offset or flip any byte to
    /// any value — either loads the original bit-for-bit (untouched
    /// semantics) or returns a typed error. Never a panic, never a
    /// different histogram.
    #[test]
    fn prop_arbitrary_corruption_is_loud_or_lossless(
        seed in 0u64..200,
        kind_idx in 0usize..4,
        level in 0u32..4,
        cut_frac in 0.0f64..1.0,
        flip_frac in 0.0f64..1.0,
        xor in 0u8..=255,
    ) {
        let kind = HistogramKind::ALL[kind_idx];
        let bytes = envelope_for(kind, level, 40, seed);
        let original = load_histogram(&bytes).expect("pristine envelope loads");

        // Truncation at an arbitrary offset.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        let cut = cut.min(bytes.len());
        match load_histogram(&bytes[..cut]) {
            Ok(loaded) => prop_assert_eq!(
                loaded.to_bytes(),
                original.to_bytes(),
                "truncation at {} of {} loaded a different histogram", cut, bytes.len()
            ),
            Err(HistogramError::Corrupt { .. }) => {}
            Err(other) => prop_assert!(false, "non-Corrupt truncation error {:?}", other),
        }

        // XOR an arbitrary byte with an arbitrary mask.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let pos = (((bytes.len() - 1) as f64) * flip_frac) as usize;
        let mut mutated = bytes.clone();
        mutated[pos] ^= xor;
        if let Ok(loaded) = load_histogram(&mutated) {
            prop_assert_eq!(
                loaded.to_bytes(),
                original.to_bytes(),
                "byte {} ^ {:#04x} loaded a different histogram", pos, xor
            );
        }
    }
}

/// Pinned end-to-end behavior: a catalog whose GH statistics file is
/// deliberately corrupted still answers `estimate_join_pairs` via a lower
/// tier, and the provenance names both the serving tier and the
/// corruption reason.
#[test]
fn corrupt_gh_statistics_degrade_with_provenance() {
    let mkds = |name: &str, seed: u64| {
        sj_datagen::Dataset::new(name, Extent::unit(), fixture_rects(60, seed))
    };

    // Persist healthy GH statistics, then flip a payload byte.
    let mut source = Catalog::with_level(4);
    source.register(mkds("alpha", 7)).expect("register");
    let mut stats = source
        .histogram("alpha")
        .expect("stats ready")
        .persist()
        .to_vec();
    let mid = stats.len() / 2;
    stats[mid] ^= 0x40;

    let mut catalog = Catalog::with_level(4);
    let reason = catalog
        .register_with_statistics_lenient(mkds("alpha", 7), &stats)
        .expect("lenient registration never fails on corruption");
    assert!(
        reason.as_deref().is_some_and(|r| r.contains("corrupt")),
        "registration must record the corruption: {reason:?}"
    );
    catalog.register(mkds("beta", 8)).expect("register");

    // Default ladder: the corrupt primary falls through to a PH rebuild.
    let out = catalog
        .estimate_join_pairs_detailed("alpha", "beta", &DegradationPolicy::default())
        .expect("ladder must serve");
    assert_eq!(out.tier, EstimateTier::PhRebuild);
    assert!(out.is_degraded());
    assert!(out.pairs > 0.0);

    // With the rebuild disabled the parametric tier answers, and the
    // provenance still carries the corruption reason from tier 1.
    let no_rebuild = DegradationPolicy {
        allow_ph_rebuild: false,
        ..DegradationPolicy::default()
    };
    let out = catalog
        .estimate_join_pairs_detailed("alpha", "beta", &no_rebuild)
        .expect("parametric tier must serve");
    assert_eq!(out.tier, EstimateTier::Parametric);
    let skipped: Vec<&str> = out.skipped.iter().map(|s| s.tier.name()).collect();
    assert_eq!(skipped, vec!["primary", "ph-rebuild"]);
    assert!(
        out.skipped[0].reason.contains("corrupt"),
        "provenance must name the corruption: {:?}",
        out.skipped[0]
    );

    // The plain estimate API degrades transparently.
    assert!(
        catalog
            .estimate_join_pairs("alpha", "beta")
            .expect("serves")
            > 0.0
    );
}

/// Whole-file garbage (not even a magic number) must be typed, not a
/// panic — both at the histogram layer and through lenient registration.
#[test]
fn garbage_files_are_typed_errors_everywhere() {
    let mut rng = StdRng::seed_from_u64(0xdead);
    for len in [0usize, 1, 4, 11, 12, 24, 64, 1024] {
        let garbage: Vec<u8> = (0..len).map(|_| rng.random_range(0..=255u8)).collect();
        assert!(
            load_histogram(&garbage).is_err(),
            "{len}-byte garbage must not decode"
        );
        let mut catalog = Catalog::with_level(3);
        let ds = sj_datagen::Dataset::new("g", Extent::unit(), fixture_rects(10, len as u64));
        let reason = catalog
            .register_with_statistics_lenient(ds, &garbage)
            .expect("lenient registration absorbs garbage");
        assert!(reason.is_some(), "{len}-byte garbage must be recorded");
    }
}

// ------------------------------------------------------------------
// Compacted `<table>.base` files: snapshot section, then envelope
// ------------------------------------------------------------------

/// The rectangles table `t` is registered from in the `.base` cases.
fn base_source() -> sj_datagen::Dataset {
    sj_datagen::Dataset::new("t", Extent::unit(), fixture_rects(40, 0xba5e))
}

/// A statistics directory, unique to `tag` and this process, holding
/// one compacted `t.base` of `kind` (a stamped batch folded in, the WAL
/// removed). Returns the directory, the file's bytes and the length of
/// its snapshot section.
fn compacted_base(kind: HistogramKind, tag: &str) -> (std::path::PathBuf, Vec<u8>, usize) {
    let dir = std::env::temp_dir().join(format!(
        "sj_fault_base_{tag}_{}_{}",
        kind.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut c = Catalog::with_kind(kind, 3);
    c.register(base_source()).expect("register");
    c.open_stats_store(&dir, CompactionPolicy::default())
        .expect("open store");
    c.apply_delta_idempotent("t", &fixture_rects(6, 0x1), &[], MutationId::new(1, 1))
        .expect("insert");
    c.compact("t").expect("compact");
    let bytes = std::fs::read(dir.join("t.base")).expect("base written");
    let envelope = c.histogram("t").expect("stats").persist().len();
    let section = bytes.len() - envelope;
    (dir, bytes, section)
}

/// Reopens the directory with `bytes` as `t.base` and requires a typed
/// corruption error.
fn assert_base_corrupt(kind: HistogramKind, dir: &std::path::Path, bytes: &[u8], what: &str) {
    std::fs::write(dir.join("t.base"), bytes).expect("write base");
    let mut c = Catalog::with_kind(kind, 3);
    c.register_deferred(base_source()).expect("register");
    let result = c.open_stats_store(dir, CompactionPolicy::default());
    assert!(
        matches!(
            result,
            Err(QueryError::Histogram(HistogramError::Corrupt { .. }))
        ),
        "{kind}: {what} must be a typed corruption error, got {result:?}"
    );
}

/// Truncating a compacted base at every offset of its snapshot section
/// and at sampled offsets inside its envelope (both section ends
/// included) never opens: the snapshot's length checks and CRC32, then
/// the envelope's length frame, reject every proper prefix.
#[test]
fn base_truncation_is_a_typed_error() {
    for kind in HistogramKind::ALL {
        let (dir, bytes, section) = compacted_base(kind, "cut");
        let sampled = (section..bytes.len()).step_by(61).chain([
            section + 4,
            section + 24,
            bytes.len() - 4,
            bytes.len() - 1,
        ]);
        for cut in (0..section).chain(sampled) {
            assert_base_corrupt(kind, &dir, &bytes[..cut], &format!("truncation at {cut}"));
        }
        // The untruncated file still opens onto the compacted state.
        std::fs::write(dir.join("t.base"), &bytes).expect("restore base");
        let mut c = Catalog::with_kind(kind, 3);
        c.register_deferred(base_source()).expect("register");
        let recovery = c
            .open_stats_store(&dir, CompactionPolicy::default())
            .expect("pristine base opens");
        assert_eq!(recovery.installed, 1);
        assert_eq!(c.table_len("t").expect("table"), 46, "{kind}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Random single-bit flips in the snapshot section and in the envelope
/// of a compacted base never open: never a panic, never a silently
/// different table.
#[test]
fn base_bit_flips_never_open_silently() {
    for kind in HistogramKind::ALL {
        let (dir, bytes, section) = compacted_base(kind, "flip");
        let mut rng = StdRng::seed_from_u64(0xba5e_f11b ^ u64::from(kind.tag()));
        for (part, range) in [("snapshot", 0..section), ("envelope", section..bytes.len())] {
            for _ in 0..48 {
                let mut mutated = bytes.clone();
                let pos = rng.random_range(range.clone());
                mutated[pos] ^= 1u8 << rng.random_range(0..8u32);
                assert_base_corrupt(kind, &dir, &mutated, &format!("{part} flip at {pos}"));
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
