//! Resident-view and pair-memo freshness (registered under `sj-query`).
//!
//! Every catalog table estimates from a kernel view it keeps next to its
//! histogram (DESIGN.md §16.1), and the catalog memoizes each ordered
//! pair's primary answer with its per-word partials (§16.6), so each
//! path that installs or changes statistics must leave the view
//! describing the current histogram and every memoized answer equal to a
//! cold one. For every family, a seeded sequence of inserts, deletes, a
//! rejected delete, an explicit and a policy-triggered compaction, a
//! store reopen (snapshot install plus WAL replay, and a deferred table
//! whose statistics are rebuilt before its WAL replays), a table
//! registered after the memo is warm and a lenient registration with
//! corrupt statistics runs. After every step, each answer the memo still
//! holds — a commit patches the written table's row and column — must
//! equal, answer and partials bit for bit, the kernel over views decoded
//! from histograms freshly built over the tables' current datasets; then
//! each ordered pair's warm answer must equal `estimate_join` on those
//! histograms. The memo must keep every answer across a PH, GH or
//! GH-basic commit, empty exactly the written table's row and column on
//! an Euler commit (Euler has no view kernel to patch) and on a
//! wholesale install (a reopen's snapshot, a rebuild of unusable
//! statistics), and never hold a fallback tier's answer.
//!
//! A commit patches only the view cells its delta touched; a second test
//! checks that the patched view itself — every slice compared with
//! `to_bits`, and the occupancy words — equals a freshly decoded one
//! after every step, including a delete that empties cells and a
//! rejected delete.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sj_datagen::Dataset;
use sj_geo::{Extent, Rect};
use sj_histogram::kernel::ResidentHistogram;
use sj_histogram::{
    build_histogram, load_histogram, GhHistogram, Grid, HistogramDelta, HistogramError,
    HistogramKind,
};
use sj_query::{Catalog, CompactionPolicy, DegradationPolicy, EstimateTier, QueryError};

const LEVEL: u32 = 4;
const TABLES: [&str; 3] = ["a", "b", "c"];
const FOUR: [&str; 4] = ["a", "b", "c", "d"];

/// Deterministic rectangles inside the unit extent.
fn rects(n: usize, seed: u64) -> Vec<Rect> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let x = rng.random_range(0.0..0.9);
            let y = rng.random_range(0.0..0.9);
            Rect::new(
                x,
                y,
                x + rng.random_range(0.0..0.1),
                y + rng.random_range(0.0..0.1),
            )
        })
        .collect()
}

fn table(name: &str, rects: &[Rect]) -> Dataset {
    Dataset::new(name, Extent::unit(), rects.to_vec())
}

/// Every ordered pair's warm answer — the catalog's primary estimate and
/// the ladder's primary tier — equals the cold path over fresh builds.
/// Afterwards the memo holds every pair of `tables`.
fn assert_fresh(c: &Catalog, kind: HistogramKind, tables: &[&str], step: &str) {
    let grid = Grid::new(LEVEL, Extent::unit()).expect("grid");
    let fresh: Vec<_> = tables
        .iter()
        .map(|t| build_histogram(kind, grid, &c.dataset(t).expect("table").rects))
        .collect();
    for (i, a) in tables.iter().enumerate() {
        for (j, b) in tables.iter().enumerate() {
            let cold = fresh[i]
                .estimate_join(fresh[j].as_ref())
                .expect("cold estimate");
            let warm = c.primary_estimate(a, b).expect("warm estimate");
            let ladder = c
                .estimate_join_pairs_detailed(a, b, &DegradationPolicy::default())
                .expect("ladder estimate");
            assert_eq!(ladder.tier, EstimateTier::Primary(kind), "{kind} {step}");
            for (what, got, want) in [
                ("pairs", warm.pairs, cold.pairs),
                ("selectivity", warm.selectivity, cold.selectivity),
                ("ladder pairs", ladder.pairs, cold.pairs),
                ("ladder selectivity", ladder.selectivity, cold.selectivity),
            ] {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{kind} after {step}: {a}⋈{b} {what} is {got}, a fresh build gives {want}"
                );
            }
        }
    }
}

/// Every answer the memo holds among `tables` — and, for the view
/// families, its per-word partials — equals the kernel's over views
/// decoded from fresh builds, bit for bit.
fn assert_patched(c: &Catalog, kind: HistogramKind, tables: &[&str], step: &str) {
    let grid = Grid::new(LEVEL, Extent::unit()).expect("grid");
    let fresh: Vec<_> = tables
        .iter()
        .map(|t| {
            let rects = &c.dataset(t).expect("table").rects;
            ResidentHistogram::new(build_histogram(kind, grid, rects))
        })
        .collect();
    for (i, a) in tables.iter().enumerate() {
        for (j, b) in tables.iter().enumerate() {
            let Some((est, partials)) = c.memo_entry(a, b) else {
                continue;
            };
            let (cold, cold_partials) = fresh[i]
                .estimate_with_partials(&fresh[j])
                .expect("cold estimate");
            let what = format!("{kind} after {step}: memoized {a}⋈{b}");
            assert_eq!(est.pairs.to_bits(), cold.pairs.to_bits(), "{what}: pairs");
            assert_eq!(
                est.selectivity.to_bits(),
                cold.selectivity.to_bits(),
                "{what}: selectivity"
            );
            match (partials, cold_partials) {
                (Some(p), Some(q)) => assert!(p.bits_eq(&q), "{what}: partials {p:?} vs {q:?}"),
                (p, q) => assert!(
                    p.is_none() && q.is_none() && kind == HistogramKind::Euler,
                    "{what}: partials {p:?}, cold {q:?}"
                ),
            }
        }
    }
}

/// After one write (or none) on a memo that held every pair of
/// `tables`, the memo holds exactly the pairs that do not read `reset`:
/// its row and column, the diagonal cell included, are empty and every
/// other slot is intact.
fn assert_memo(c: &Catalog, kind: HistogramKind, tables: &[&str], reset: Option<&str>, step: &str) {
    for a in tables {
        for b in tables {
            let reads = reset.is_some_and(|w| w == *a || w == *b);
            assert_eq!(
                c.memo_holds(a, b),
                !reads,
                "{kind} after {step}: memo slot {a}⋈{b} (reset: {reset:?})"
            );
        }
    }
}

/// The row and column a commit to `written` empties: none for a view
/// family, whose answers are patched, and `written`'s for Euler.
fn commit_reset(kind: HistogramKind, written: &str) -> Option<&str> {
    (kind == HistogramKind::Euler).then_some(written)
}

#[test]
fn warm_answers_match_fresh_builds_after_every_step() {
    for kind in HistogramKind::ALL {
        let seed = 0x5eed_0000 ^ u64::from(kind.tag());
        let (base_a, base_b, base_c) = (rects(60, seed), rects(45, seed + 1), rects(30, seed + 2));
        let dir = std::env::temp_dir().join(format!(
            "sj_resident_freshness_{kind}_{}",
            std::process::id()
        ));
        drop(std::fs::remove_dir_all(&dir));
        let policy = CompactionPolicy { max_tiers: 3 };

        let mut c = Catalog::with_kind(kind, LEVEL);
        for (name, base) in [("a", &base_a), ("b", &base_b), ("c", &base_c)] {
            c.register(table(name, base)).expect("register");
        }
        c.open_stats_store(&dir, policy).expect("open store");
        assert_fresh(&c, kind, &TABLES, "registration");
        // Each step below writes (at most) one table of a warm memo, and
        // `written` names it when the write is a commit.
        let step = |c: &Catalog, written: Option<&str>, what: &str| {
            let reset = written.and_then(|w| commit_reset(kind, w));
            assert_memo(c, kind, &TABLES, reset, what);
            assert_patched(c, kind, &TABLES, what);
            assert_fresh(c, kind, &TABLES, what);
        };

        let ins = rects(8, seed + 10);
        c.apply_delta("a", &ins, &[]).expect("insert");
        step(&c, Some("a"), "an insert into a");
        c.apply_delta("b", &[], &base_b[..5]).expect("delete");
        step(&c, Some("b"), "a delete from b");
        let err = c
            .apply_delta("a", &[], &rects(2, seed + 99))
            .expect_err("a delete of absent rows must be rejected");
        assert!(
            matches!(err, QueryError::DeleteNotFound { .. }),
            "{kind}: {err:?}"
        );
        step(&c, None, "a rejected delete on a");
        c.apply_delta("a", &rects(4, seed + 11), &ins[..3])
            .expect("mixed batch");
        step(&c, Some("a"), "a mixed batch on a");
        assert!(c.compact("a").expect("compact").persisted);
        step(&c, None, "an explicit compaction of a");

        let r = c
            .apply_delta("b", &rects(3, seed + 12), &[])
            .expect("insert");
        assert!(!r.compacted, "{kind}: two tiers stay under the policy");
        step(&c, Some("b"), "a second batch on b");
        let r = c
            .apply_delta("b", &rects(3, seed + 13), &base_b[5..7])
            .expect("mixed batch");
        assert!(r.compacted, "{kind}: the third tier trips the policy");
        step(&c, Some("b"), "a policy-triggered compaction of b");

        // Batches left pending in the WAL across the reopen; c is never
        // compacted, so it has no snapshot.
        c.apply_delta("a", &rects(5, seed + 14), &[])
            .expect("insert");
        c.apply_delta("c", &rects(6, seed + 15), &base_c[..2])
            .expect("mixed batch");
        assert_patched(&c, kind, &TABLES, "post-compaction batches");
        assert_fresh(&c, kind, &TABLES, "post-compaction batches");
        drop(c);

        // a and b come back from their snapshots (install_base, then WAL
        // replay); c is registered deferred, so its statistics are
        // rebuilt from the source before its WAL replays. The memo holds
        // a and b's answers over their registration sources first, so
        // an install that kept them would serve stale bits.
        let mut c = Catalog::with_kind(kind, LEVEL);
        c.register(table("a", &base_a)).expect("register");
        c.register(table("b", &base_b)).expect("register");
        c.register_deferred(table("c", &base_c))
            .expect("register deferred");
        assert_fresh(&c, kind, &["a", "b"], "re-registration");
        let recovery = c.open_stats_store(&dir, policy).expect("reopen store");
        assert_eq!(recovery.installed, 2, "{kind}: two snapshots");
        assert_eq!(recovery.replayed, 2, "{kind}: two pending batches");
        // Both snapshot installs emptied their rows and columns, which
        // held every answer; the replays had nothing left to patch.
        for x in TABLES {
            for y in TABLES {
                assert!(!c.memo_holds(x, y), "{kind} after a reopen: {x}⋈{y}");
            }
        }
        assert_fresh(&c, kind, &TABLES, "a reopen");

        c.apply_delta("c", &[], &rects(6, seed + 15)[..2])
            .expect("delete");
        step(&c, Some("c"), "a delete after the reopen");

        // A fourth table joins a warm memo: it brings an empty row and
        // column, and every answer already held stays.
        c.register(table("d", &rects(25, seed + 16)))
            .expect("register");
        assert_memo(&c, kind, &FOUR, Some("d"), "a fourth registration");
        assert_patched(&c, kind, &FOUR, "a fourth registration");
        assert_fresh(&c, kind, &FOUR, "a fourth registration");
        c.apply_delta("d", &rects(4, seed + 17), &[])
            .expect("insert");
        let reset = commit_reset(kind, "d");
        assert_memo(&c, kind, &FOUR, reset, "an insert into d");
        assert_patched(&c, kind, &FOUR, "an insert into d");
        assert_fresh(&c, kind, &FOUR, "an insert into d");

        // Corrupt statistics: the ladder answers from a fallback tier,
        // and the memo never stores that answer.
        let mut bytes = c.histogram("a").expect("stats").persist().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let reason = c
            .register_with_statistics_lenient(table("e", &c.dataset("a").expect("a").rects), &bytes)
            .expect("lenient registration");
        assert!(reason.is_some(), "{kind}: the flipped byte must be caught");
        for (x, y) in [("e", "a"), ("a", "e"), ("e", "e")] {
            let out = c
                .estimate_join_pairs_detailed(x, y, &DegradationPolicy::default())
                .expect("ladder");
            assert_ne!(out.tier, EstimateTier::Primary(kind), "{kind}: {x}⋈{y}");
        }
        let five = ["a", "b", "c", "d", "e"];
        assert_memo(&c, kind, &five, Some("e"), "fallback answers for e");
        assert_fresh(&c, kind, &FOUR, "fallback answers for e");
        drop(std::fs::remove_dir_all(&dir));
    }
}

/// The two writes that replace statistics wholesale keep the reset: a
/// reopen's snapshot install empties the row and column of a table the
/// memo held answers for, and a table whose unusable statistics are
/// rebuilt before its WAL replays has an empty row and column after the
/// replay. Every answer afterwards equals a cold one.
#[test]
fn wholesale_installs_empty_the_row_and_column() {
    for kind in HistogramKind::ALL {
        let seed = 0x1a57_0000 ^ u64::from(kind.tag());
        let (base_a, base_b, base_c) = (rects(40, seed), rects(35, seed + 1), rects(30, seed + 2));
        let dir = std::env::temp_dir().join(format!(
            "sj_resident_wholesale_{kind}_{}",
            std::process::id()
        ));
        drop(std::fs::remove_dir_all(&dir));
        let policy = CompactionPolicy::default();

        // a gets a pending WAL batch; b is compacted into a snapshot.
        let mut c = Catalog::with_kind(kind, LEVEL);
        for (name, base) in [("a", &base_a), ("b", &base_b)] {
            c.register(table(name, base)).expect("register");
        }
        c.open_stats_store(&dir, policy).expect("open store");
        c.apply_delta("a", &rects(6, seed + 10), &[])
            .expect("insert");
        c.apply_delta("b", &rects(5, seed + 11), &[])
            .expect("insert");
        assert!(c.compact("b").expect("compact").persisted);
        let a_stats = c.histogram("a").expect("stats").persist().to_vec();
        drop(c);

        // a comes back with corrupt statistics, so the reopen rebuilds
        // them from the registered dataset before replaying its WAL; b
        // and c are warm in the memo when the reopen installs b's
        // snapshot.
        let mut corrupt = a_stats;
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0xFF;
        let mut c = Catalog::with_kind(kind, LEVEL);
        let reason = c
            .register_with_statistics_lenient(table("a", &base_a), &corrupt)
            .expect("lenient registration");
        assert!(reason.is_some(), "{kind}: the flipped byte must be caught");
        c.register(table("b", &base_b)).expect("register");
        c.register(table("c", &base_c)).expect("register");
        assert_fresh(&c, kind, &["b", "c"], "registration");
        let recovery = c.open_stats_store(&dir, policy).expect("reopen store");
        assert_eq!(recovery.installed, 1, "{kind}: b's snapshot");
        assert_eq!(recovery.replayed, 1, "{kind}: a's pending batch");
        for x in TABLES {
            for y in TABLES {
                let held = x == "c" && y == "c";
                assert_eq!(
                    c.memo_holds(x, y),
                    held,
                    "{kind} after a reopen: {x}⋈{y} (only c⋈c reads neither a nor b)"
                );
            }
        }
        assert_patched(&c, kind, &TABLES, "a reopen");
        assert_fresh(&c, kind, &TABLES, "a reopen");
        drop(std::fs::remove_dir_all(&dir));
    }
}

#[test]
fn corrupt_statistics_hold_no_view_and_degrade() {
    for kind in HistogramKind::ALL {
        let (base_a, base_b) = (rects(40, 7), rects(30, 8));
        let mut source = Catalog::with_kind(kind, LEVEL);
        source.register(table("a", &base_a)).expect("register");
        let mut bytes = source.histogram("a").expect("stats").persist().to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;

        let mut c = Catalog::with_kind(kind, LEVEL);
        let reason = c
            .register_with_statistics_lenient(table("a", &base_a), &bytes)
            .expect("lenient registration");
        assert!(reason.is_some(), "{kind}: the flipped byte must be caught");
        c.register(table("b", &base_b)).expect("register");

        for (x, y) in [("a", "b"), ("b", "a"), ("a", "a")] {
            assert!(
                matches!(
                    c.primary_estimate(x, y),
                    Err(QueryError::StatisticsUnavailable { .. })
                ),
                "{kind}: {x}⋈{y} has no view to estimate from"
            );
        }
        let out = c
            .estimate_join_pairs_detailed("a", "b", &DegradationPolicy::default())
            .expect("ladder");
        assert_eq!(out.tier, EstimateTier::PhRebuild, "{kind}");
        assert!(out.pairs > 0.0, "{kind}: the fallback still estimates");
    }
}

/// Rectangles confined to `[lo, lo + span]²`.
fn rects_in(n: usize, seed: u64, lo: f64, span: f64) -> Vec<Rect> {
    rects(n, seed)
        .iter()
        .map(|r| {
            Rect::new(
                lo + r.xlo * span,
                lo + r.ylo * span,
                lo + r.xhi * span,
                lo + r.yhi * span,
            )
        })
        .collect()
}

#[test]
fn patched_views_equal_fresh_views_bit_for_bit() {
    let grid = Grid::new(LEVEL, Extent::unit()).expect("grid");
    for kind in [HistogramKind::Ph, HistogramKind::GhBasic, HistogramKind::Gh] {
        let seed = 0xfee1_0000 ^ u64::from(kind.tag());
        // A cluster in the lower-left quarter and a few isolated
        // rectangles far from it, alone in their cells.
        let cluster = rects_in(70, seed, 0.0, 0.45);
        let isolated = rects_in(4, seed + 1, 0.62, 0.3);
        let mut data: Vec<Rect> = cluster.iter().chain(&isolated).copied().collect();
        let mut resident = ResidentHistogram::new(build_histogram(kind, grid, &data));

        let check = |resident: &ResidentHistogram, data: &[Rect], step: &str| {
            let fresh = build_histogram(kind, grid, data);
            assert_eq!(
                resident.histogram().persist(),
                fresh.persist(),
                "{kind} after {step}: histogram"
            );
            assert!(
                resident.view_bits_eq(&ResidentHistogram::new(fresh)),
                "{kind} after {step}: the patched view differs from a fresh decode"
            );
        };
        let step = |resident: &mut ResidentHistogram,
                    data: &mut Vec<Rect>,
                    ins: &[Rect],
                    del: &[Rect],
                    what: &str| {
            resident
                .apply_delta(&HistogramDelta::build(kind, grid, ins, del))
                .expect("delta applies");
            for d in del {
                let at = data
                    .iter()
                    .position(|r| r == d)
                    .expect("deleted row exists");
                data.remove(at);
            }
            data.extend_from_slice(ins);
            check(resident, data, what);
        };

        let r = &mut resident;
        step(
            r,
            &mut data,
            &rects_in(9, seed + 2, 0.1, 0.3),
            &[],
            "an insert",
        );
        let without: Vec<Rect> = data
            .iter()
            .filter(|r| !isolated.contains(r))
            .copied()
            .collect();
        let occupied = |data: &[Rect]| GhHistogram::build(grid, data).occupied_cells();
        assert!(
            occupied(&without) < occupied(&data),
            "the isolated rectangles own cells"
        );
        step(r, &mut data, &[], &isolated, "a delete that empties cells");
        let mixed = rects_in(5, seed + 3, 0.5, 0.4);
        step(r, &mut data, &mixed, &cluster[..6], "a mixed batch");

        // A delete of rectangles the histogram never held underflows:
        // rejected typed, and neither the histogram nor its view moves.
        let before = ResidentHistogram::new(
            load_histogram(&resident.histogram().persist()).expect("reload"),
        );
        let phantom = rects_in(6, seed + 4, 0.8, 0.15);
        let err = resident
            .apply_delta(&HistogramDelta::build(kind, grid, &[], &phantom))
            .expect_err("phantom delete must be rejected");
        assert!(
            matches!(err, HistogramError::DeltaOutOfRange { .. }),
            "{kind}: {err:?}"
        );
        assert_eq!(
            resident.histogram().persist(),
            before.histogram().persist(),
            "{kind}: a rejected delete must not move the histogram"
        );
        assert!(
            resident.view_bits_eq(&before),
            "{kind}: a rejected delete must not move the view"
        );
        let late = rects_in(3, seed + 5, 0.7, 0.2);
        step(
            &mut resident,
            &mut data,
            &late,
            &[],
            "an insert after the rejection",
        );
    }
}
