//! Concurrent-mutation soak: N clients hammer one daemon with
//! insert/delete/compact traffic and the final statistics must be
//! byte-identical to the same batches applied on a serial schedule.
//!
//! This holds because the histogram cell statistics are fixed-point
//! accumulators (clippy's `float_arithmetic` bans float arithmetic from
//! merge paths), so batch
//! application commutes — any interleaving of disjoint batches folds to
//! the same bytes. Each client works a disjoint coordinate band and
//! deletes only rectangles it inserted itself, so every delete resolves
//! regardless of interleaving; the dataset is compared as a multiset
//! (thread arrival order is scheduler-dependent, the *contents* are
//! not). The daemon's warm `estimate` and `catalog_estimate` answers,
//! served from views re-derived at every commit, must equal bit for bit
//! the cold path over the serial schedule's statistics.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_core::sync::{LockRank, OrderedRwLock};
use sj_geo::{Extent, Rect};
use sj_query::{Catalog, DegradationPolicy};
use sj_server::{CatalogService, Client, RemoteOutcome, Server};
use std::sync::Arc;

const TABLE: &str = "t";
/// A table no client mutates, so warm answers also cover a pair of two
/// different tables.
const STATIC: &str = "u";
const BASE_N: usize = 50;
const THREADS: usize = 4;
const ROUNDS: usize = 6;
const BATCH: usize = 4;

fn base_rects() -> Vec<Rect> {
    (0..BASE_N)
        .map(|i| {
            let x = (i % 10) as f64 * 0.04 + 0.002;
            let y = (i / 10) as f64 * 0.04 + 0.002;
            Rect::new(x, y, x + 0.03, y + 0.03)
        })
        .collect()
}

/// Thread `t`'s insert batch for round `r`: confined to the thread's own
/// y-band so no two threads ever produce an identical rectangle.
fn thread_batch(t: usize, r: usize) -> Vec<Rect> {
    (0..BATCH)
        .map(|j| {
            let x = (r * BATCH + j) as f64 * 0.03 + 0.001;
            let y = 0.5 + t as f64 * 0.12;
            Rect::new(x, y, x + 0.02, y + 0.02 + j as f64 * 1e-3)
        })
        .collect()
}

fn fresh_catalog() -> Catalog {
    let mut c = Catalog::with_level(4);
    c.register(sj_datagen::Dataset::new(
        TABLE,
        Extent::unit(),
        base_rects(),
    ))
    .expect("register");
    c.register(sj_datagen::Dataset::new(
        STATIC,
        Extent::unit(),
        static_rects(),
    ))
    .expect("register");
    c
}

/// Every ordered pair the warm answers are checked on.
const PAIRS: [(&str, &str); 3] = [(TABLE, TABLE), (TABLE, STATIC), (STATIC, TABLE)];

/// The static table: large rectangles tiling the extent, so they meet
/// both the base rectangles and every thread's band.
fn static_rects() -> Vec<Rect> {
    (0..20)
        .map(|i| {
            let x = (i % 5) as f64 * 0.2;
            let y = (i / 5) as f64 * 0.25;
            Rect::new(x, y, x + 0.15, y + 0.2)
        })
        .collect()
}

/// Sorted copy for multiset comparison.
fn sorted(rects: &[Rect]) -> Vec<Rect> {
    let mut v = rects.to_vec();
    v.sort_by(|a, b| {
        (a.xlo, a.ylo, a.xhi, a.yhi)
            .partial_cmp(&(b.xlo, b.ylo, b.xhi, b.yhi))
            .expect("finite coordinates")
    });
    v
}

#[test]
fn concurrent_mutations_match_the_serial_schedule() {
    // The daemon under load.
    let catalog = Arc::new(OrderedRwLock::new(
        LockRank::Catalog,
        "test.catalog",
        fresh_catalog(),
    ));
    let service = CatalogService::new(Arc::clone(&catalog), DegradationPolicy::default());
    let server = Arc::new(Server::bind("127.0.0.1:0", service).expect("bind"));
    let addr = server.local_addr().expect("local_addr");
    let run = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.run().expect("run"))
    };

    // N clients, each: insert its round batch, delete the batch's first
    // half two rounds later, compact every third round. All through the
    // stamped retrying client path.
    let workers: Vec<_> = (0..THREADS)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect_with_retry(addr).expect("connect");
                for r in 0..ROUNDS {
                    let batch = thread_batch(t, r);
                    let reply = client
                        .insert_batch_with_retry(TABLE, &batch)
                        .expect("insert");
                    assert!(!reply.deduplicated, "fresh stamps never dedup");
                    if r >= 2 {
                        let earlier = thread_batch(t, r - 2);
                        client
                            .delete_batch_with_retry(TABLE, &earlier[..BATCH / 2])
                            .expect("delete own earlier inserts");
                    }
                    if r % 3 == 2 {
                        client.compact(TABLE).expect("compact");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }
    let mut client = Client::connect(addr).expect("connect");
    let warm: Vec<_> = PAIRS
        .iter()
        .map(|(a, b)| {
            (
                client.estimate(a, b).expect("estimate"),
                client.catalog_estimate(a, b).expect("catalog_estimate"),
            )
        })
        .collect();
    drop(client);
    server.initiate_shutdown();
    // Unblock the accept loop so the run thread exits.
    drop(Client::connect(addr));
    run.join().expect("server thread");

    // The serial reference: the same batches, thread-major order, no
    // concurrency, no wire.
    let mut serial = fresh_catalog();
    for t in 0..THREADS {
        for r in 0..ROUNDS {
            serial
                .apply_delta(TABLE, &thread_batch(t, r), &[])
                .expect("serial insert");
            if r >= 2 {
                let earlier = thread_batch(t, r - 2);
                serial
                    .apply_delta(TABLE, &[], &earlier[..BATCH / 2])
                    .expect("serial delete");
            }
            if r % 3 == 2 {
                serial.compact(TABLE).expect("serial compact");
            }
        }
    }

    let soaked = catalog.read();
    assert_eq!(
        soaked.histogram(TABLE).expect("stats").persist().to_vec(),
        serial.histogram(TABLE).expect("stats").persist().to_vec(),
        "statistics after the soak must be byte-identical to the serial schedule"
    );
    assert_eq!(
        sorted(&soaked.dataset(TABLE).expect("ds").rects),
        sorted(&serial.dataset(TABLE).expect("ds").rects),
        "dataset contents must match as a multiset"
    );

    // Warm answers against the cold path: `estimate_join` decodes fresh
    // views from the serial schedule's histograms.
    for ((a, b), (estimate, outcome)) in PAIRS.iter().zip(&warm) {
        let (ha, hb) = (
            serial.histogram(a).expect("stats"),
            serial.histogram(b).expect("stats"),
        );
        let cold = ha.estimate_join(hb).expect("cold estimate");
        let ladder = serial
            .estimate_join_pairs_detailed(a, b, &DegradationPolicy::default())
            .expect("cold ladder");
        let cold_outcome = RemoteOutcome::from_outcome(&ladder);
        for (what, got, want) in [
            ("estimate pairs", estimate.pairs, cold.pairs),
            (
                "estimate selectivity",
                estimate.selectivity,
                cold.selectivity,
            ),
            ("catalog_estimate pairs", outcome.pairs, cold.pairs),
            (
                "catalog_estimate selectivity",
                outcome.selectivity,
                cold.selectivity,
            ),
        ] {
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "{a}⋈{b}: warm {what} {got} differs from the cold {want}"
            );
        }
        assert_eq!(
            outcome, &cold_outcome,
            "{a}⋈{b}: catalog_estimate provenance"
        );
    }
}
