//! Exactly-once mutations across ambiguous connection failures.
//!
//! The worst retry window: the server **applies** an `InsertBatch` and
//! the connection dies before the reply leaves — the client cannot know
//! whether the batch landed. These tests run a frame-level harness that
//! manufactures exactly that window against a real [`CatalogService`]
//! and prove the client's stamped retry is deduplicated (applied
//! exactly once), while a fresh stamp of the same content applies
//! again.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_core::sync::{LockRank, OrderedRwLock};
use sj_geo::{Extent, Rect};
use sj_query::{Catalog, DegradationPolicy};
use sj_server::{handle_request, CatalogService, Client, Frame};
use std::net::TcpListener;
use std::sync::Arc;

const TABLE: &str = "t";
const BASE_N: usize = 40;

fn base_rects() -> Vec<Rect> {
    (0..BASE_N)
        .map(|i| {
            let x = (i % 8) as f64 * 0.11 + 0.02;
            let y = (i / 8) as f64 * 0.11 + 0.02;
            Rect::new(x, y, x + 0.06, y + 0.06)
        })
        .collect()
}

fn fresh_rects(n: usize) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let x = i as f64 * 0.013 + 0.005;
            Rect::new(x, 0.9, x + 0.01, 0.95)
        })
        .collect()
}

fn shared_catalog() -> Arc<OrderedRwLock<Catalog>> {
    let mut c = Catalog::with_level(4);
    c.register(sj_datagen::Dataset::new(
        TABLE,
        Extent::unit(),
        base_rects(),
    ))
    .expect("register");
    Arc::new(OrderedRwLock::new(LockRank::Catalog, "test.catalog", c))
}

/// The acceptance-criteria scenario: kill the connection after the
/// server applied the batch but before any reply byte; the client's
/// retry must be detected as a duplicate, and the catalog must hold the
/// batch exactly once.
#[test]
fn mid_reply_kill_then_retry_applies_exactly_once() {
    let catalog = shared_catalog();
    let service = CatalogService::new(Arc::clone(&catalog), DegradationPolicy::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");

    let harness = std::thread::spawn(move || {
        // Connection 1: apply the request, then die without replying —
        // the reply frame is never written, so the client sees a dead
        // socket AFTER the server committed.
        let (mut s, _) = listener.accept().expect("accept 1");
        let frame = Frame::read_from(&mut s).expect("request frame");
        let (_reply, _shutdown) = handle_request(&service, &frame);
        drop(s);
        // Connection 2 (the retry): serve normally until EOF.
        let (mut s, _) = listener.accept().expect("accept 2");
        while let Ok(frame) = Frame::read_from(&mut s) {
            let (reply, shutdown) = handle_request(&service, &frame);
            reply.write_to(&mut s).expect("write reply");
            if shutdown {
                break;
            }
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    let batch = fresh_rects(3);
    let reply = client
        .insert_batch_with_retry(TABLE, &batch)
        .expect("retry path must succeed");
    assert!(
        reply.deduplicated,
        "the retried batch was already applied and must be detected as a duplicate"
    );
    assert_eq!(
        catalog.read().dataset(TABLE).expect("ds").rects.len(),
        BASE_N + batch.len(),
        "the batch must land exactly once despite the retry"
    );

    // Same rectangles, fresh mutation ID: a deliberate re-submission is
    // NOT a retry and must apply again.
    let reply = client
        .insert_batch_with_retry(TABLE, &batch)
        .expect("second submission");
    assert!(
        !reply.deduplicated,
        "a fresh stamp of identical content is a new mutation"
    );
    assert_eq!(
        catalog.read().dataset(TABLE).expect("ds").rects.len(),
        BASE_N + 2 * batch.len()
    );

    drop(client);
    harness.join().expect("harness");
}

/// The same window for `DeleteBatch`: a retried delete must not fail on
/// "rectangle not found" (its targets are already gone) — the dedup
/// check answers before validation.
#[test]
fn mid_reply_kill_then_retried_delete_is_deduplicated() {
    let catalog = shared_catalog();
    let service = CatalogService::new(Arc::clone(&catalog), DegradationPolicy::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local_addr");

    let harness = std::thread::spawn(move || {
        let (mut s, _) = listener.accept().expect("accept 1");
        let frame = Frame::read_from(&mut s).expect("request frame");
        let (_reply, _shutdown) = handle_request(&service, &frame);
        drop(s);
        let (mut s, _) = listener.accept().expect("accept 2");
        while let Ok(frame) = Frame::read_from(&mut s) {
            let (reply, shutdown) = handle_request(&service, &frame);
            reply.write_to(&mut s).expect("write reply");
            if shutdown {
                break;
            }
        }
    });

    let mut client = Client::connect(addr).expect("connect");
    // Delete two base rectangles; after the first (killed) application
    // they no longer exist, so only dedup can make the retry succeed.
    let victims = base_rects()[..2].to_vec();
    let reply = client
        .delete_batch_with_retry(TABLE, &victims)
        .expect("retried delete must succeed via dedup");
    assert!(
        reply.deduplicated,
        "retried delete must be a detected duplicate"
    );
    assert_eq!(
        catalog.read().dataset(TABLE).expect("ds").rects.len(),
        BASE_N - victims.len(),
        "the delete must land exactly once"
    );

    drop(client);
    harness.join().expect("harness");
}
