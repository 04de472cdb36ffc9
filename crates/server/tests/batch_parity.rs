//! A `BatchEstimate` item is the `Estimate` reply for the same pair.
//!
//! Seeded frames mix registered names, unknown names, the empty name
//! and a name that is not UTF-8. Each item must carry the bits, status
//! and message the single-pair request gets, before and after an
//! insert, a delete and a compaction. The service answers a batch under
//! one catalog read guard per `GUARD_CHUNK` items, so frames of exactly
//! one chunk, one chunk and one item, and the `u16` limit of 65,535
//! items must come back whole and in order, and an unknown name in the
//! second chunk must fail only its own item.

#![expect(
    clippy::expect_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_core::sync::{LockRank, OrderedRwLock};
use sj_geo::{Extent, Rect};
use sj_query::{Catalog, CompactionPolicy, DegradationPolicy};
use sj_server::service::GUARD_CHUNK;
use sj_server::wire::{self, PayloadReader};
use sj_server::{
    handle_request, status, CatalogService, Client, Frame, MutationId, Opcode, Server,
    StatisticsService,
};
use std::path::PathBuf;
use std::sync::Arc;

/// The registered tables.
const TABLES: [&str; 3] = ["alpha", "beta", "gamma"];

/// Names a frame draws from: the tables, an unknown name, the empty
/// name, and bytes that are not UTF-8.
const NAMES: [&[u8]; 6] = [b"alpha", b"beta", b"gamma", b"nope", b"", b"al\xFFpha"];

/// One answer as it travels: an OK estimate's bit patterns, or a status
/// and its message.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    Ok(u64, u64),
    Err(u8, String),
}

/// SplitMix64: seeded, std only.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn rects(seed: u64, n: usize) -> Vec<Rect> {
    let mut rng = Rng(seed);
    (0..n)
        .map(|_| {
            let x = (rng.next() % 900) as f64 / 1000.0;
            let y = (rng.next() % 900) as f64 / 1000.0;
            let w = (rng.next() % 90 + 1) as f64 / 1000.0;
            let h = (rng.next() % 90 + 1) as f64 / 1000.0;
            Rect::new(x, y, x + w, y + h)
        })
        .collect()
}

/// A service over the three tables with a statistics store in `dir`.
fn service(dir: &PathBuf) -> CatalogService {
    let mut catalog = Catalog::with_level(4);
    for (i, name) in TABLES.into_iter().enumerate() {
        let data = rects(i as u64 + 1, 60 + 25 * i);
        catalog
            .register(sj_datagen::Dataset::new(name, Extent::unit(), data))
            .expect("register");
    }
    catalog
        .open_stats_store(dir, CompactionPolicy::default())
        .expect("open the statistics store");
    CatalogService::new(
        Arc::new(OrderedRwLock::new(
            LockRank::Catalog,
            "test.catalog",
            catalog,
        )),
        DegradationPolicy::default(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sj-batch-parity-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Appends a string field from raw bytes, so a name may be invalid UTF-8.
fn put_raw(out: &mut Vec<u8>, bytes: &[u8]) {
    wire::put_u16(out, u16::try_from(bytes.len()).expect("short name"));
    out.extend_from_slice(bytes);
}

/// Reads a reply's status and, when it is not OK, its message.
fn failure(r: &mut PayloadReader<'_>, code: u8) -> Answer {
    Answer::Err(code, r.str().expect("an error carries a message"))
}

/// The `Estimate` reply for one pair.
fn single(svc: &CatalogService, a: &[u8], b: &[u8]) -> Answer {
    let mut p = Vec::new();
    put_raw(&mut p, a);
    put_raw(&mut p, b);
    let (reply, _) = handle_request(svc, &Frame::request(Opcode::Estimate, p));
    let mut r = PayloadReader::new(&reply.payload);
    let code = r.u8().expect("status");
    let answer = if code == status::OK {
        let sel = r.f64().expect("selectivity").to_bits();
        Answer::Ok(sel, r.f64().expect("pairs").to_bits())
    } else {
        failure(&mut r, code)
    };
    r.finish().expect("the reply ends after its fields");
    answer
}

/// The `BatchEstimate` reply: its items, or the frame's own failure.
fn batch(svc: &CatalogService, pairs: &[(&[u8], &[u8])]) -> Result<Vec<Answer>, Answer> {
    let mut p = Vec::new();
    wire::put_u16(&mut p, u16::try_from(pairs.len()).expect("a u16 count"));
    for (a, b) in pairs {
        put_raw(&mut p, a);
        put_raw(&mut p, b);
    }
    let (reply, _) = handle_request(svc, &Frame::request(Opcode::BatchEstimate, p));
    assert_eq!(reply.opcode, Opcode::BatchEstimate.response());
    let mut r = PayloadReader::new(&reply.payload);
    let code = r.u8().expect("status");
    if code != status::OK {
        return Err(failure(&mut r, code));
    }
    let n = usize::from(r.u16().expect("count"));
    let items = (0..n)
        .map(|_| {
            let code = r.u8().expect("item status");
            if code == status::OK {
                let sel = r.f64().expect("selectivity").to_bits();
                Answer::Ok(sel, r.f64().expect("pairs").to_bits())
            } else {
                failure(&mut r, code)
            }
        })
        .collect();
    r.finish().expect("the reply ends after its last item");
    Ok(items)
}

/// Every item of a batch equals the single reply for its pair; a frame
/// holding a non-UTF-8 name fails whole, as that pair's single does.
fn assert_parity(svc: &CatalogService, pairs: &[(&[u8], &[u8])], what: &str) {
    let singles: Vec<Answer> = pairs.iter().map(|&(a, b)| single(svc, a, b)).collect();
    match batch(svc, pairs) {
        Ok(items) => {
            assert_eq!(items.len(), pairs.len(), "{what}: item count");
            for (k, (item, want)) in items.iter().zip(&singles).enumerate() {
                assert_eq!(item, want, "{what}: item {k} {:?}", pairs[k]);
            }
        }
        Err(frame) => {
            let bad = pairs
                .iter()
                .position(|(a, b)| {
                    std::str::from_utf8(a).is_err() || std::str::from_utf8(b).is_err()
                })
                .expect("only a non-UTF-8 name fails a whole frame");
            assert_eq!(Some(&frame), singles.get(bad), "{what}: frame failure");
            assert!(matches!(&frame, Answer::Err(status::USAGE, m) if m.contains("UTF-8")));
        }
    }
}

fn seeded_pairs(rng: &mut Rng, n: usize, utf8_only: bool) -> Vec<(&'static [u8], &'static [u8])> {
    let names = if utf8_only { &NAMES[..5] } else { &NAMES[..] };
    (0..n)
        .map(|_| {
            // Mostly registered names, so most items answer.
            let mut pick = || {
                if rng.below(4) == 0 {
                    names[rng.below(names.len())]
                } else {
                    NAMES[rng.below(TABLES.len())]
                }
            };
            (pick(), pick())
        })
        .collect()
}

#[test]
fn batch_items_equal_single_replies_across_writes() {
    let dir = temp_dir("parity");
    let svc = service(&dir);
    let mut rng = Rng(0x0ba7_c4ed);
    let mut check = |svc: &CatalogService, what: &str| {
        for frame in 0..24 {
            let n = 1 + rng.below(80);
            let pairs = seeded_pairs(&mut rng, n, frame % 3 != 0);
            assert_parity(svc, &pairs, &format!("{what}, frame {frame}"));
        }
        // Every ordered pair of UTF-8 names once.
        let all: Vec<(&[u8], &[u8])> = NAMES[..5]
            .iter()
            .flat_map(|&a| NAMES[..5].iter().map(move |&b| (a, b)))
            .collect();
        assert_parity(svc, &all, &format!("{what}, every pair"));
    };
    check(&svc, "fresh");
    let added = rects(99, 12);
    let id = MutationId::UNSTAMPED;
    svc.insert_batch("beta", &added, id).expect("insert");
    check(&svc, "after an insert");
    svc.delete_batch("beta", &added[..5], id).expect("delete");
    check(&svc, "after a delete");
    let receipt = svc.compact("beta").expect("compact");
    assert!(
        receipt.persisted,
        "the store is attached, so the base is written"
    );
    check(&svc, "after a compaction");
    std::fs::remove_dir_all(&dir).ok();
}

/// `len` registered pairs, cycling through the nine so order shows.
fn cycling_pairs(len: usize) -> Vec<(&'static [u8], &'static [u8])> {
    (0..len)
        .map(|i| (NAMES[i % 3], NAMES[(i / 3) % 3]))
        .collect()
}

#[test]
fn frames_at_the_chunk_edges_and_the_count_limit_come_back_whole() {
    let dir = temp_dir("chunks");
    let svc = service(&dir);
    for len in [GUARD_CHUNK, GUARD_CHUNK + 1, usize::from(u16::MAX)] {
        let pairs = cycling_pairs(len);
        let items = batch(&svc, &pairs).expect("every name is registered");
        assert_eq!(items.len(), len);
        for (k, (item, &(a, b))) in items.iter().zip(&pairs).enumerate() {
            assert!(matches!(item, Answer::Ok(..)), "{len} items: item {k}");
            if k < 9 || k + 9 >= len {
                assert_eq!(*item, single(&svc, a, b), "{len} items: item {k}");
            } else {
                assert_eq!(item, &items[k % 9], "{len} items: item {k}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_unknown_name_in_the_second_chunk_fails_only_its_item() {
    let dir = temp_dir("second-chunk");
    let svc = service(&dir);
    let mut pairs = cycling_pairs(GUARD_CHUNK + 10);
    let bad = GUARD_CHUNK + 3;
    pairs[bad].1 = b"nope";
    let items = batch(&svc, &pairs).expect("the frame parses");
    assert_eq!(items.len(), pairs.len());
    for (k, item) in items.iter().enumerate() {
        if k == bad {
            assert_eq!(*item, single(&svc, pairs[k].0, b"nope"));
            assert!(matches!(item, Answer::Err(status::RUNTIME, m) if m.contains("nope")));
        } else {
            assert_eq!(*item, single(&svc, pairs[k].0, pairs[k].1), "item {k}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The limit frame over a real socket: the client's and the server's
/// buffered reads take the 1.1 MB reply and the 0.5 MB request whole,
/// and the connection serves single estimates after it.
#[test]
fn the_limit_frame_crosses_a_socket_whole() {
    let dir = temp_dir("socket");
    let server = Server::bind("127.0.0.1:0", service(&dir)).expect("bind");
    let addr = server.local_addr().expect("local_addr");
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| server.run().expect("serve"));
        let outcome = limit_frame_over(addr);
        // Stopped whatever the outcome, so a failed check fails the
        // test instead of leaving the server running.
        server.initiate_shutdown();
        outcome
    });
    std::fs::remove_dir_all(&dir).ok();
    outcome.expect("the limit frame over the socket");
}

fn limit_frame_over(addr: std::net::SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let name = |s: &[u8]| String::from_utf8_lossy(s).into_owned();
    let pairs: Vec<(String, String)> = cycling_pairs(usize::from(u16::MAX))
        .into_iter()
        .map(|(a, b)| (name(a), name(b)))
        .collect();
    let items = client
        .batch_estimate(&pairs)
        .map_err(|e| format!("the batch: {e}"))?;
    if items.len() != pairs.len() {
        return Err(format!("{} items for {} pairs", items.len(), pairs.len()));
    }
    for (k, (item, (a, b))) in items.iter().zip(&pairs).enumerate().step_by(997) {
        let want = client
            .estimate(a, b)
            .map_err(|e| format!("the single estimate {a}⋈{b}: {e}"))?;
        if item.as_ref().ok() != Some(&want) {
            return Err(format!("item {k}: {item:?} against {want:?}"));
        }
    }
    Ok(())
}
