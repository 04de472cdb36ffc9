//! The daemon's frame layer in process: one request frame read from
//! its bytes (`Frame::read_from`, header checks and CRC), dispatched
//! (`handle_request`) and its reply encoded (`Frame::write_to` into a
//! reused buffer), with no socket. The tables are the four paper
//! presets at scale 0.01 in a GH level-7 catalog, and every pair's
//! answer is already in the pair memo, so the kernel does not run:
//! what is timed is decode, dispatch, catalog lookup and encode.
//!
//! `estimate_1` is one `Estimate` frame, `batch_64` one 64-item
//! `BatchEstimate` frame over the 16 ordered pairs, four times each
//! (the perfbench `estimate-batch` frame). Each timed call serves
//! [`FRAMES`] frames, so a reported mean divided by 1,000 is the cost
//! of one frame. `--test` serves one frame of each.

#![expect(
    missing_docs,
    clippy::expect_used,
    reason = "benchmark harness: `criterion_group!` generates an undocumented `pub fn`, and a failed setup step aborts the run"
)]

use criterion::{criterion_group, criterion_main, Criterion};
use sj_core::presets;
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_query::{Catalog, DegradationPolicy};
use sj_server::{handle_request, status, wire, CatalogService, Frame, Opcode};
use std::sync::Arc;

/// Frames served per timed call outside `--test`.
const FRAMES: usize = 1000;

/// Items in the batch frame.
const BATCH: usize = 64;

fn service() -> (CatalogService, Vec<String>) {
    let mut catalog = Catalog::with_level(7);
    let tables = [
        presets::scrc(0.01),
        presets::sura(0.01),
        presets::ts(0.01),
        presets::spg(0.01),
    ];
    let names: Vec<String> = tables.iter().map(|t| t.name.clone()).collect();
    for t in tables {
        catalog.register(t).expect("registering a preset");
    }
    let catalog = Arc::new(OrderedRwLock::new(
        LockRank::Catalog,
        "serve_frame",
        catalog,
    ));
    (
        CatalogService::new(catalog, DegradationPolicy::default()),
        names,
    )
}

/// Reads, serves and re-encodes `frame` `frames` times.
fn serve(svc: &CatalogService, frame: &[u8], out: &mut Vec<u8>, frames: usize) -> usize {
    let mut written = 0;
    for _ in 0..frames {
        let request = Frame::read_from(&mut &frame[..]).expect("the request frame reads");
        let (reply, _) = handle_request(svc, &request);
        out.clear();
        reply.write_to(out).expect("a Vec takes every write");
        written += out.len();
    }
    written
}

fn bench_serve_frame(c: &mut Criterion) {
    let smoke = std::env::args().any(|a| a == "--test");
    let frames = if smoke { 1 } else { FRAMES };
    let (svc, names) = service();
    let n = names.len();

    let mut single = Vec::new();
    wire::put_str(&mut single, &names[0]);
    wire::put_str(&mut single, &names[1]);
    let single = Frame::request(Opcode::Estimate, single).to_bytes();

    let mut batch = Vec::new();
    wire::put_u16(&mut batch, BATCH as u16);
    for i in 0..BATCH {
        wire::put_str(&mut batch, &names[(i / n) % n]);
        wire::put_str(&mut batch, &names[i % n]);
    }
    let batch = Frame::request(Opcode::BatchEstimate, batch).to_bytes();

    // Fill the pair memo, and check both frames answer OK.
    let mut out = Vec::new();
    for frame in [&single, &batch] {
        let (reply, _) = handle_request(&svc, &Frame::from_bytes(frame).expect("decodes"));
        assert_eq!(reply.payload.first(), Some(&status::OK));
    }

    let mut g = c.benchmark_group("serve_frame");
    g.sample_size(10);
    g.bench_function(format!("estimate_1/x{frames}"), |b| {
        b.iter(|| serve(&svc, &single, &mut out, frames));
    });
    g.bench_function(format!("batch_{BATCH}/x{frames}"), |b| {
        b.iter(|| serve(&svc, &batch, &mut out, frames));
    });
    g.finish();
}

criterion_group!(benches, bench_serve_frame);
criterion_main!(benches);
