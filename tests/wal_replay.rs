//! Torn-tail WAL replay property tests (registered under `sj-query`).
//!
//! The statistics WAL tolerates exactly one kind of damage — a torn
//! final record from a crash mid-append — and must treat it as "the
//! last batch never happened". These tests cut a live WAL at *arbitrary*
//! byte offsets (proptest picks the batch mix and the cut) across every
//! record shape the log can hold — insert-only, delete-only, mixed, and
//! both stamped (mutation-ID-carrying v2) and unstamped batches — and
//! assert the reopened store recovers **exactly** the state after the
//! last complete record: byte-identical statistics, identical dataset,
//! correct torn-tail accounting, and a dedup ring that still recognizes
//! every surviving stamped ID while forgetting the torn one.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use proptest::prelude::*;
use sj_core::sync::SeqCstU64;
use sj_geo::Rect;
use sj_query::{wal_record_ends, Catalog, CompactionPolicy, MutationId};
use std::path::PathBuf;

/// A deterministic base set with pairwise-distinct rectangles (the
/// `1e-4 * i` skew) so delete validation is unambiguous.
fn base_rects(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = (i % 10) as f64 * 0.09 + 0.01;
            let y = (i / 10) as f64 * 0.09 + 0.01;
            Rect::new(x, y, x + 0.05 + i as f64 * 1e-4, y + 0.05)
        })
        .collect()
}

fn dataset(n: usize) -> sj_datagen::Dataset {
    sj_datagen::Dataset::new("t", sj_geo::Extent::unit(), base_rects(n))
}

/// One batch's shape: what the WAL record holds.
#[derive(Debug, Clone, Copy)]
struct BatchSpec {
    /// 0 insert-only, 1 delete-only, 2 mixed.
    style: u8,
    /// Stamped with a client mutation ID, or unstamped (legacy path).
    stamped: bool,
    /// Rectangles per side, 1..=3.
    size: usize,
}

/// The batch for 1-based step `i`: fresh in-extent inserts derived from
/// the step index, deletes from a per-step disjoint slice of the base
/// set so no rectangle is ever deleted twice.
fn batch(i: usize, spec: BatchSpec, base: &[Rect]) -> (Vec<Rect>, Vec<Rect>) {
    let inserts: Vec<Rect> = if spec.style == 1 {
        Vec::new()
    } else {
        (0..spec.size)
            .map(|j| {
                let k = (i * 7 + j) as f64;
                let x = (k * 0.0137) % 0.9 + 0.02;
                let y = (k * 0.0229) % 0.9 + 0.02;
                Rect::new(x, y, x + 0.03, y + 0.03)
            })
            .collect()
    };
    let deletes: Vec<Rect> = if spec.style == 0 {
        Vec::new()
    } else {
        base[(i - 1) * 3..(i - 1) * 3 + spec.size.min(3)].to_vec()
    };
    (inserts, deletes)
}

/// A scratch statistics directory unique to this process and case.
fn scratch(tag: &str) -> PathBuf {
    static CASE: SeqCstU64 = SeqCstU64::new(0);
    let case = CASE.fetch_add(1);
    let dir =
        std::env::temp_dir().join(format!("sj-wal-replay-{}-{tag}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// No auto-compaction: every batch must stay in the WAL so the cut can
/// reach it.
const KEEP_WAL: CompactionPolicy = CompactionPolicy {
    max_tiers: usize::MAX,
};

const BASE_N: usize = 60;
const LEVEL: u32 = 3;

/// Captured state after each step: persisted statistics + dataset.
struct Snapshot {
    bytes: Vec<u8>,
    rects: Vec<Rect>,
}

fn snapshot(c: &Catalog) -> Snapshot {
    Snapshot {
        bytes: c.histogram("t").expect("stats ready").persist().to_vec(),
        rects: c.dataset("t").expect("registered").rects.clone(),
    }
}

/// Runs `specs` against a fresh store in `dir`, returning the per-step
/// state snapshots (index 0 = pre-mutation) and each step's mutation ID.
fn run_workload(dir: &PathBuf, specs: &[BatchSpec]) -> (Vec<Snapshot>, Vec<MutationId>) {
    let mut c = Catalog::with_level(LEVEL);
    c.register(dataset(BASE_N)).expect("register");
    c.open_stats_store(dir, KEEP_WAL).expect("open");
    let base = base_rects(BASE_N);
    let mut states = vec![snapshot(&c)];
    let mut ids = Vec::new();
    for (idx, spec) in specs.iter().enumerate() {
        let i = idx + 1;
        let (inserts, deletes) = batch(i, *spec, &base);
        let id = if spec.stamped {
            MutationId::new(0xBEEF, i as u64)
        } else {
            MutationId::UNSTAMPED
        };
        c.apply_delta_idempotent("t", &inserts, &deletes, id)
            .expect("apply");
        states.push(snapshot(&c));
        ids.push(id);
    }
    (states, ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Cut the WAL anywhere: recovery lands exactly on the state after
    /// the last complete record, counts the torn tail, and the dedup
    /// ring matches the surviving records.
    #[test]
    fn prop_torn_tail_recovers_last_complete_record(
        specs in proptest::collection::vec(
            (0u8..3, any::<bool>(), 1usize..=3).prop_map(|(style, stamped, size)| {
                BatchSpec { style, stamped, size }
            }),
            1..6,
        ),
        cut_frac in 0.0f64..1.0,
    ) {
        let dir = scratch("prop");
        let (states, ids) = run_workload(&dir, &specs);

        let wal_path = dir.join("t.wal");
        let wal = std::fs::read(&wal_path).expect("WAL exists");
        let ends = wal_record_ends(&wal).expect("live WAL parses");
        prop_assert_eq!(ends.len(), specs.len(), "one record per batch");

        // Truncate at an arbitrary offset.
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let cut = ((wal.len() as f64) * cut_frac) as usize;
        let cut = cut.min(wal.len());
        std::fs::write(&wal_path, &wal[..cut]).expect("truncate");
        let survivors = ends.iter().filter(|&&e| e <= cut).count();
        let has_partial = cut > ends.get(survivors.wrapping_sub(1)).copied().unwrap_or(0);

        // Reopen over the truncated log.
        let mut rc = Catalog::with_level(LEVEL);
        rc.register(dataset(BASE_N)).expect("register");
        let recovery = rc.open_stats_store(&dir, KEEP_WAL).expect("recover");
        prop_assert_eq!(recovery.replayed, survivors);
        prop_assert_eq!(recovery.torn_tails, usize::from(has_partial));

        let got = snapshot(&rc);
        let want = &states[survivors];
        prop_assert_eq!(
            &got.bytes, &want.bytes,
            "statistics must be byte-identical to the state after record {}", survivors
        );
        prop_assert_eq!(&got.rects, &want.rects, "dataset must match");

        // Exactly-once across the crash: every surviving stamped ID is
        // still remembered (a retry deduplicates), and the torn
        // record's ID is forgotten (its retry must re-apply).
        for (idx, id) in ids.iter().enumerate().take(survivors) {
            if id.is_stamped() {
                let receipt = rc
                    .apply_delta_idempotent("t", &[], &[], *id)
                    .expect("retry probe");
                prop_assert!(
                    receipt.deduplicated,
                    "surviving record {}'s ID must dedup", idx + 1
                );
            }
        }
        if survivors < specs.len() && ids[survivors].is_stamped() {
            let spec = specs[survivors];
            let (inserts, deletes) = batch(survivors + 1, spec, &base_rects(BASE_N));
            let receipt = rc
                .apply_delta_idempotent("t", &inserts, &deletes, ids[survivors])
                .expect("torn batch retries");
            prop_assert!(
                !receipt.deduplicated,
                "the torn record's ID must NOT dedup — the batch was lost"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Every record shape round-trips through a full WAL replay (no cut):
/// the reopened store is byte-identical to the writer at every step
/// count.
#[test]
fn full_replay_is_byte_identical_for_every_record_shape() {
    let shapes = [
        BatchSpec {
            style: 0,
            stamped: true,
            size: 2,
        },
        BatchSpec {
            style: 1,
            stamped: true,
            size: 2,
        },
        BatchSpec {
            style: 2,
            stamped: true,
            size: 3,
        },
        BatchSpec {
            style: 0,
            stamped: false,
            size: 1,
        },
        BatchSpec {
            style: 1,
            stamped: false,
            size: 3,
        },
        BatchSpec {
            style: 2,
            stamped: false,
            size: 2,
        },
    ];
    let dir = scratch("shapes");
    let (states, _) = run_workload(&dir, &shapes);

    let mut rc = Catalog::with_level(LEVEL);
    rc.register(dataset(BASE_N)).expect("register");
    let recovery = rc.open_stats_store(&dir, KEEP_WAL).expect("recover");
    assert_eq!(recovery.replayed, shapes.len());
    assert_eq!(recovery.torn_tails, 0);
    let got = snapshot(&rc);
    let want = states.last().expect("final state");
    assert_eq!(got.bytes, want.bytes, "statistics byte-identical");
    assert_eq!(got.rects, want.rects, "dataset identical");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A duplicated stamped record in the log (a crashed retry that appended
/// twice) replays once: the dedup ring works during replay, not just on
/// the live apply path.
#[test]
fn duplicate_wal_records_replay_once() {
    let dir = scratch("dup");
    let spec = BatchSpec {
        style: 2,
        stamped: true,
        size: 2,
    };
    let (states, _) = run_workload(&dir, &[spec]);

    // Append a byte-for-byte copy of the only record.
    let wal_path = dir.join("t.wal");
    let wal = std::fs::read(&wal_path).expect("WAL exists");
    let mut doubled = wal.clone();
    doubled.extend_from_slice(&wal);
    std::fs::write(&wal_path, &doubled).expect("double");

    let mut rc = Catalog::with_level(LEVEL);
    rc.register(dataset(BASE_N)).expect("register");
    let recovery = rc.open_stats_store(&dir, KEEP_WAL).expect("recover");
    assert_eq!(recovery.deduplicated, 1, "the copy must be skipped");
    let got = snapshot(&rc);
    assert_eq!(got.bytes, states[1].bytes, "applied exactly once");
    assert_eq!(got.rects, states[1].rects);
    let _ = std::fs::remove_dir_all(&dir);
}
