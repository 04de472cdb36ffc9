//! Catalog poison recovery: a thread that panics while holding the
//! catalog *write* lock must not take the daemon down with it.
//!
//! `std::sync::RwLock` poisons itself when a writer panics; the ranked
//! wrappers in `sj_core::sync` deliberately recover the guard
//! (`PoisonError::into_inner`) because the catalog's mutation pipeline
//! never leaves the catalog half-written — the write lock is only held
//! for the in-memory commit of an already-validated, already-logged
//! batch (DESIGN.md §15). This test pins that contract end to end over
//! the wire: after poisoning, every request must answer exactly as a
//! cold daemon over the same catalog would, including further
//! mutations.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_core::sync::{LockRank, OrderedRwLock};
use sj_geo::{Extent, Rect};
use sj_query::{Catalog, DegradationPolicy};
use sj_server::{CatalogService, Client, Server};
use std::sync::Arc;

fn rects(offset: f64) -> Vec<Rect> {
    (0..30)
        .map(|i| {
            let x = (i % 6) as f64 * 0.06 + offset;
            let y = (i / 6) as f64 * 0.06 + offset;
            Rect::new(x, y, x + 0.05, y + 0.05)
        })
        .collect()
}

fn fresh_catalog() -> Catalog {
    let mut c = Catalog::with_level(4);
    c.register(sj_datagen::Dataset::new("a", Extent::unit(), rects(0.001)))
        .expect("register a");
    c.register(sj_datagen::Dataset::new("b", Extent::unit(), rects(0.013)))
        .expect("register b");
    c
}

struct Daemon {
    catalog: Arc<OrderedRwLock<Catalog>>,
    server: Arc<Server<CatalogService>>,
    run: Option<std::thread::JoinHandle<()>>,
    addr: std::net::SocketAddr,
}

impl Daemon {
    fn start() -> Daemon {
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
        Daemon {
            catalog,
            server,
            run: Some(run),
            addr,
        }
    }

    fn client(&self) -> Client {
        Client::connect_with_retry(self.addr).expect("connect")
    }

    fn stop(mut self) {
        self.server.initiate_shutdown();
        drop(Client::connect(self.addr));
        if let Some(run) = self.run.take() {
            run.join().expect("server thread");
        }
    }
}

/// The full request battery, answered into a comparable transcript.
fn transcript(client: &mut Client) -> Vec<String> {
    let mut out = Vec::new();
    let est = client.estimate("a", "b").expect("estimate");
    out.push(format!(
        "estimate {} {}",
        est.selectivity.to_bits(),
        est.pairs.to_bits()
    ));
    let window = Rect::new(0.1, 0.1, 0.4, 0.4);
    let count = client.window_count("a", &window).expect("window_count");
    out.push(format!("window {}", count.to_bits()));
    out.push(format!(
        "explain {}",
        client
            .explain(&["a".to_string(), "b".to_string()])
            .expect("explain")
    ));
    out.push(format!("tables {:?}", client.tables().expect("tables")));
    let outcome = client.catalog_estimate("a", "b").expect("catalog_estimate");
    out.push(format!(
        "outcome {} {} {} {}",
        outcome.pairs.to_bits(),
        outcome.selectivity.to_bits(),
        outcome.tier_name,
        outcome.degraded
    ));
    out
}

/// Mutations that must still work after the poison, answered into the
/// same transcript form.
fn mutate_and_read(client: &mut Client) -> Vec<String> {
    let mut out = Vec::new();
    let batch = rects(0.407);
    let reply = client.insert_batch_with_retry("a", &batch).expect("insert");
    out.push(format!(
        "insert {} {} {}",
        reply.applied, reply.compacted, reply.deduplicated
    ));
    let reply = client
        .delete_batch_with_retry("a", &batch[..5])
        .expect("delete");
    out.push(format!(
        "delete {} {} {}",
        reply.applied, reply.compacted, reply.deduplicated
    ));
    let est = client.estimate("a", "b").expect("estimate after mutation");
    out.push(format!(
        "estimate {} {}",
        est.selectivity.to_bits(),
        est.pairs.to_bits()
    ));
    out
}

#[test]
fn poisoned_catalog_answers_byte_identical_to_cold() {
    let poisoned = Daemon::start();

    // Poison the lock: a thread panics while holding the write guard —
    // exactly what a handler panicking mid-commit would leave behind.
    let catalog = Arc::clone(&poisoned.catalog);
    let panicker = std::thread::spawn(move || {
        let _guard = catalog.write();
        panic!("injected handler panic while holding the catalog write lock");
    });
    assert!(panicker.join().is_err(), "the panic must propagate");

    // The daemon must neither hang nor error: the full read battery
    // and further mutations answer exactly as a cold daemon does.
    let cold = Daemon::start();
    let mut poisoned_client = poisoned.client();
    let mut cold_client = cold.client();

    assert_eq!(
        transcript(&mut poisoned_client),
        transcript(&mut cold_client),
        "read requests after the poison must match a cold daemon"
    );
    assert_eq!(
        mutate_and_read(&mut poisoned_client),
        mutate_and_read(&mut cold_client),
        "mutations after the poison must match a cold daemon"
    );

    poisoned.stop();
    cold.stop();
}
