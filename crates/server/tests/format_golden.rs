//! Format goldens: every persisted format, pinned by its bytes.
//!
//! The bytes a codec writes may change only together with the version
//! constant that owns them. Each row of [`ROWS`] records a format, the
//! version it was recorded at, an input case, and the length and CRC32
//! of the bytes that case produces (the CRC stops before a format's CRC
//! trailer, so it equals the trailer the codec stored). The inputs are
//! fixed and built without a float RNG, so every build and platform
//! produces the same bytes.
//!
//! [`check`] reads the version field the codec wrote into the bytes it
//! produced, so no private constant has to be public:
//!
//! * a version other than the row's fails with "re-record `<row>` at
//!   vN": the constant was bumped on purpose and the row is stale;
//! * the same version with another length or CRC fails and names the
//!   constant to bump (`ENVELOPE_VERSION`, `SPARSE_VERSION`,
//!   `SNAPSHOT_VERSION`, `WAL_VERSION`, `BIN_VERSION` or
//!   `WIRE_VERSION`).
//!
//! A refactor that leaves the bytes alone passes, however much source
//! it moves. A failure prints the current row for every drifted case.
//! Some reply frames carry text (a plan, tier labels, error messages):
//! rewording it moves that row without changing the layout, and the row
//! is re-recorded at the same version.
//! CI runs this file as its own step and, in a sabotage step, checks
//! that a changed wire status byte and a bumped `WIRE_VERSION` each
//! fail it.

#![expect(
    clippy::unwrap_used,
    reason = "integration-test helpers run outside #[test] fns; a failed setup step must fail the test loudly"
)]

use sj_core::crc::crc32;
use sj_core::sync::{LockRank, OrderedRwLock};
use sj_datagen::Dataset;
use sj_geo::{Extent, Rect};
use sj_histogram::{build_histogram, GhHistogram, Grid, HistogramKind};
use sj_query::{wal_record_ends, Catalog, CompactionPolicy, DegradationPolicy, MutationId};
use sj_server::wire::{HEADER_LEN, TRAILER_LEN};
use sj_server::{handle_request, CatalogService, Client, Frame, Opcode};
use std::io::Read;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;

/// A persisted format and the version constant that owns its bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// A `.hist` envelope (`persist()` of any of the four families).
    Hist,
    /// A sparse GH file.
    Sparse,
    /// A compacted `<table>.base` file.
    Base,
    /// One WAL record.
    Wal,
    /// A `.bin` dataset.
    Bin,
    /// One wire frame.
    Wire,
}

impl Format {
    fn name(self) -> &'static str {
        match self {
            Format::Hist => ".hist",
            Format::Sparse => "sparse GH",
            Format::Base => ".base",
            Format::Wal => "WAL record",
            Format::Bin => ".bin",
            Format::Wire => "wire frame",
        }
    }

    /// The constant a byte change at an unchanged version must bump.
    fn constant(self) -> &'static str {
        match self {
            Format::Hist => "ENVELOPE_VERSION",
            Format::Sparse => "SPARSE_VERSION",
            Format::Base => "SNAPSHOT_VERSION",
            Format::Wal => "WAL_VERSION",
            Format::Bin => "BIN_VERSION",
            Format::Wire => "WIRE_VERSION",
        }
    }

    /// The version field the codec wrote: right after the 4-byte magic,
    /// as a `u32` in the envelopes, the store files and the WAL, a `u16`
    /// in a wire frame and a `u8` in a `.bin` dataset (all LE).
    fn version_in(self, bytes: &[u8]) -> Option<u32> {
        match self {
            Format::Wire => Some(u16::from_le_bytes(bytes.get(4..6)?.try_into().ok()?).into()),
            Format::Bin => bytes.get(4).copied().map(u32::from),
            _ => Some(u32::from_le_bytes(bytes.get(4..8)?.try_into().ok()?)),
        }
    }

    /// Length of the trailing CRC32 the pinned CRC stops before (a
    /// `.bin` dataset has none).
    fn trailer(self) -> usize {
        match self {
            Format::Bin => 0,
            _ => 4,
        }
    }
}

/// `(format, version recorded at, input case, length, CRC32 before the
/// trailer)`.
type Row = (Format, u32, &'static str, usize, u32);

const ROWS: &[Row] = &[
    (Format::Hist, 2, "ph L0 empty", 192, 0x918e0f5a),
    (Format::Hist, 2, "ph L0 seeded", 192, 0xf0786467),
    (Format::Hist, 2, "ph L3 empty", 6744, 0x53b1335b),
    (Format::Hist, 2, "ph L3 seeded", 6744, 0xb1ce005b),
    (Format::Hist, 2, "gh-basic L0 empty", 88, 0x23f7302d),
    (Format::Hist, 2, "gh-basic L0 seeded", 88, 0xd2be2f70),
    (Format::Hist, 2, "gh-basic L3 empty", 1096, 0x5181f342),
    (Format::Hist, 2, "gh-basic L3 seeded", 1096, 0x6d3ba3e3),
    (Format::Hist, 2, "gh L0 empty", 124, 0xad7aea85),
    (Format::Hist, 2, "gh L0 seeded", 124, 0x1491e2bc),
    (Format::Hist, 2, "gh L3 empty", 3400, 0x34aebcb2),
    (Format::Hist, 2, "gh L3 seeded", 3400, 0xf0922ac9),
    (Format::Hist, 2, "euler L0 empty", 76, 0x67d0fe53),
    (Format::Hist, 2, "euler L0 seeded", 76, 0x7c1967d7),
    (Format::Hist, 2, "euler L3 empty", 972, 0x116c9876),
    (Format::Hist, 2, "euler L3 seeded", 972, 0xa04c16ea),
    (Format::Sparse, 1, "gh L0 empty", 76, 0x99852477),
    (Format::Sparse, 1, "gh L3 seeded", 3548, 0x39c8cb9f),
    (Format::Base, 3, "gh L1 compacted", 584, 0x68f517ed),
    (Format::Wal, 2, "insert stamped", 108, 0x2361ce6b),
    (Format::Wal, 2, "delete stamped", 76, 0x1f0be3b0),
    (Format::Wal, 2, "mixed unstamped", 204, 0xfcda41d0),
    (Format::Bin, 1, "empty", 13, 0x42a901c9),
    (Format::Bin, 1, "seeded", 4813, 0x702cffb3),
    (Format::Wire, 3, "Ping request", 16, 0xb7443c02),
    (Format::Wire, 3, "Ping reply", 17, 0x89cd09df),
    (Format::Wire, 3, "Estimate request", 22, 0xdc84f9e7),
    (Format::Wire, 3, "Estimate reply", 33, 0x8717f568),
    (Format::Wire, 3, "WindowCount request", 51, 0xc83f5fcf),
    (Format::Wire, 3, "WindowCount reply", 25, 0x4784a219),
    (Format::Wire, 3, "Explain request", 24, 0x54d8bd22),
    (Format::Wire, 3, "Explain reply", 99, 0xf713b840),
    (Format::Wire, 3, "CatalogEstimate request", 22, 0xa81c1068),
    (Format::Wire, 3, "CatalogEstimate reply", 59, 0x7fbab06e),
    (Format::Wire, 3, "BatchEstimate request", 36, 0x412cb858),
    (Format::Wire, 3, "BatchEstimate reply", 92, 0x13145fb3),
    (Format::Wire, 3, "Tables request", 16, 0x611ddf1f),
    (Format::Wire, 3, "Tables reply", 25, 0xee6308e1),
    (Format::Wire, 3, "InsertBatch request", 295, 0x8b2f6c02),
    (Format::Wire, 3, "InsertBatch reply", 25, 0x792f9951),
    (Format::Wire, 3, "DeleteBatch request", 295, 0x1b7ff198),
    (Format::Wire, 3, "DeleteBatch reply", 25, 0xd261ed57),
    (Format::Wire, 3, "Compact request", 19, 0x764d4e04),
    (Format::Wire, 3, "Compact reply", 20, 0xfe078f2f),
    (Format::Wire, 3, "Shutdown request", 16, 0x8d4e5d72),
    (Format::Wire, 3, "Shutdown reply", 17, 0xd9f27282),
    (Format::Wire, 3, "unknown-opcode error", 46, 0xccb058a2),
];

/// The length and CRC32 of `bytes` up to its `trailer` bytes.
fn pin(bytes: &[u8], trailer: usize) -> (usize, u32) {
    let body = bytes
        .get(..bytes.len().saturating_sub(trailer))
        .unwrap_or(&[]);
    (bytes.len(), crc32(body))
}

/// The row that pins `bytes` as they are now.
fn current_row(format: Format, case: &str, bytes: &[u8]) -> String {
    let (len, crc) = pin(bytes, format.trailer());
    let version = format
        .version_in(bytes)
        .map_or_else(|| "?".to_string(), |v| v.to_string());
    format!("(Format::{format:?}, {version}, {case:?}, {len}, {crc:#010x}),")
}

/// Checks the bytes one case produced against its row.
///
/// # Errors
/// Why the row fails: a stale version asks for a re-record; a drift at
/// an unchanged version names the constant to bump.
fn check(row: &Row, bytes: &[u8]) -> Result<(), String> {
    let &(format, version, case, len, crc) = row;
    let label = format!("{} {case}", format.name());
    let written = format.version_in(bytes);
    if written != Some(version) {
        let now = written.map_or_else(|| "?".to_string(), |v| v.to_string());
        return Err(format!(
            "`{label}` was recorded at v{version} but the codec writes v{now}: \
             re-record `{label}` at v{now}"
        ));
    }
    let got = pin(bytes, format.trailer());
    if got != (len, crc) {
        return Err(format!(
            "`{label}` drifted at v{version}: recorded ({len}, {crc:#010x}), \
             now ({}, {:#010x}); restore the bytes or bump {}",
            got.0,
            got.1,
            format.constant()
        ));
    }
    Ok(())
}

/// Checks every produced case against [`ROWS`], and every row of
/// `formats` against a produced case, and fails with all findings.
fn verify(formats: &[Format], produced: &[(Format, String, Vec<u8>)]) {
    let mut failures = Vec::new();
    for (format, case, bytes) in produced {
        let row = ROWS.iter().find(|r| r.0 == *format && r.2 == case);
        let Some(row) = row else {
            failures.push(format!(
                "`{} {case}` has no golden row; add\n    {}",
                format.name(),
                current_row(*format, case, bytes)
            ));
            continue;
        };
        if let Err(why) = check(row, bytes) {
            failures.push(format!(
                "{why}; the current row is\n    {}",
                current_row(*format, case, bytes)
            ));
        }
    }
    for row in ROWS.iter().filter(|r| formats.contains(&r.0)) {
        if !produced
            .iter()
            .any(|(f, case, _)| *f == row.0 && case == row.2)
        {
            failures.push(format!(
                "row `{} {}` matches no produced case",
                row.0.name(),
                row.2
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// A fixed rectangle set from an integer generator (no float RNG), on a
/// non-unit extent so the pinned headers carry real extent bytes.
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

/// `n` small rectangles on a diagonal of the unit square, shifted by
/// `offset`: the inputs the `.base` row was first recorded with.
fn diagonal_rects(n: usize, offset: f64) -> Vec<Rect> {
    (0..n)
        .map(|i| {
            let t = (i as f64 + 0.5) / n as f64 * 0.8 + offset;
            Rect::new(t, t * 0.9, t + 0.05, t * 0.9 + 0.04)
        })
        .collect()
}

/// A scratch directory private to this process, removed when dropped.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("sj-format-golden-{}-{tag}", std::process::id()));
        drop(std::fs::remove_dir_all(&dir));
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        drop(std::fs::remove_dir_all(&self.0));
    }
}

/// The `.hist` envelope of every family at levels 0 and 3, empty and
/// seeded, and the sparse GH file of an empty and a seeded level.
#[test]
fn persisted_histograms_are_byte_stable() {
    let rects = seeded_rects(150, 0x601d);
    let mut produced = Vec::new();
    for kind in HistogramKind::ALL {
        for level in [0, 3] {
            for (input, label) in [(&[][..], "empty"), (&rects[..], "seeded")] {
                let h = build_histogram(kind, grid(level), input);
                let bytes = h.persist().to_vec();
                assert_eq!(h.space_bytes() + 24, bytes.len(), "{kind} L{level}");
                produced.push((Format::Hist, format!("{kind} L{level} {label}"), bytes));
            }
        }
    }
    for (level, input, label) in [(0, &[][..], "empty"), (3, &rects[..], "seeded")] {
        let gh = GhHistogram::build(grid(level), input);
        produced.push((
            Format::Sparse,
            format!("gh L{level} {label}"),
            gh.to_sparse_bytes().to_vec(),
        ));
    }
    verify(&[Format::Hist, Format::Sparse], &produced);
}

/// The `.base` file and one WAL record of each kind (a stamped insert,
/// a stamped delete, an unstamped mixed batch), written through the
/// public store path and read back from disk.
#[test]
fn store_files_match_their_rows() {
    let scratch = Scratch::new("store");
    let dir = &scratch.0;
    let mut c = Catalog::with_kind(HistogramKind::Gh, 1);
    c.register(Dataset::new("t", Extent::unit(), diagonal_rects(6, 0.0)))
        .unwrap();
    c.open_stats_store(dir, CompactionPolicy::default())
        .unwrap();
    let inserted = diagonal_rects(2, 0.1);
    let wal = dir.join("t.wal");
    let mut records = Vec::new();
    c.apply_delta_idempotent("t", &inserted, &[], MutationId::new(7, 1))
        .unwrap();
    records.push(("insert stamped", std::fs::read(&wal).unwrap()));

    c.compact("t").unwrap();
    let base = std::fs::read(dir.join("t.base")).unwrap();
    let envelope = c.histogram("t").unwrap().persist();
    let section = base.len() - envelope.len();
    // Header, 8 rectangles, the ID count, one remembered ID, the CRC.
    assert_eq!(section, 24 + 8 * 32 + 4 + 16 + 4);
    assert_eq!(&base[section..], &envelope[..]);

    c.apply_delta_idempotent("t", &[], &inserted[..1], MutationId::new(7, 2))
        .unwrap();
    c.apply_delta_idempotent(
        "t",
        &diagonal_rects(3, 0.05),
        &diagonal_rects(6, 0.0)[..2],
        MutationId::UNSTAMPED,
    )
    .unwrap();
    let log = std::fs::read(&wal).unwrap();
    let ends = wal_record_ends(&log).unwrap();
    assert_eq!(ends.len(), 2, "one record per batch since the compaction");
    records.push(("delete stamped", log[..ends[0]].to_vec()));
    records.push(("mixed unstamped", log[ends[0]..ends[1]].to_vec()));

    let mut produced = vec![(Format::Base, "gh L1 compacted".to_string(), base)];
    produced.extend(
        records
            .into_iter()
            .map(|(case, bytes)| (Format::Wal, case.to_string(), bytes)),
    );
    verify(&[Format::Base, Format::Wal], &produced);
}

#[test]
fn dataset_files_match_their_rows() {
    let extent = Extent::new(Rect::new(-2.0, 1.0, 6.0, 5.0));
    let mut produced = Vec::new();
    for (rects, case) in [(Vec::new(), "empty"), (seeded_rects(150, 0x601d), "seeded")] {
        let mut bytes = Vec::new();
        Dataset::new("golden", extent, rects)
            .write_bin(&mut bytes)
            .unwrap();
        produced.push((Format::Bin, case.to_string(), bytes));
    }
    verify(&[Format::Bin], &produced);
}

/// `n` rectangles on the unit square from the same integer generator
/// as [`seeded_rects`].
fn unit_rects(n: usize, seed: u64) -> Vec<Rect> {
    let frame = Rect::new(-2.0, 1.0, 6.0, 5.0);
    seeded_rects(n, seed)
        .into_iter()
        .map(|r| {
            let x = |v: f64| (v - frame.xlo) / 8.0;
            let y = |v: f64| (v - frame.ylo) / 4.0;
            Rect::new(x(r.xlo), y(r.ylo), x(r.xhi), y(r.yhi))
        })
        .collect()
}

/// Reads one whole frame off `stream`, exactly as it was sent.
fn read_raw_frame(stream: &mut impl Read) -> Vec<u8> {
    let mut bytes = vec![0u8; HEADER_LEN];
    stream.read_exact(&mut bytes).unwrap();
    let len = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    bytes.resize(HEADER_LEN + len + TRAILER_LEN, 0);
    stream.read_exact(&mut bytes[HEADER_LEN..]).unwrap();
    bytes
}

/// One request frame and one reply frame per [`Opcode::ALL`] entry, in
/// that order, plus the error frame an unknown opcode gets. Requests
/// are what the public [`Client`] sends over a socket; replies are what
/// the daemon's [`handle_request`] answers over a two-table catalog.
#[test]
fn wire_frames_match_their_rows() {
    let mut catalog = Catalog::with_level(3);
    for (name, seed) in [("a", 0xa), ("b", 0xb)] {
        catalog
            .register(Dataset::new(name, Extent::unit(), unit_rects(60, seed)))
            .unwrap();
    }
    let catalog = Arc::new(OrderedRwLock::new(LockRank::Catalog, "golden", catalog));
    let service = CatalogService::new(catalog, DegradationPolicy::default());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let daemon = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut frames = Vec::new();
        loop {
            let request = read_raw_frame(&mut stream);
            let (reply, stop) = handle_request(&service, &Frame::from_bytes(&request).unwrap());
            let reply = reply.to_bytes();
            std::io::Write::write_all(&mut stream, &reply).unwrap();
            frames.push((request, reply));
            if stop {
                let unknown = Frame {
                    opcode: 0x42,
                    payload: Vec::new(),
                };
                return (frames, handle_request(&service, &unknown).0.to_bytes());
            }
        }
    });

    let mut client = Client::connect(addr).unwrap();
    // A failed side must fail the test, not leave the other blocked.
    client
        .set_io_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    client.set_mutation_token(0x601d);
    let (a, b) = ("a".to_string(), "b".to_string());
    let batch = unit_rects(8, 0xc);
    client.ping().unwrap();
    client.estimate(&a, &b).unwrap();
    client
        .window_count(&a, &Rect::new(0.25, 0.25, 0.75, 0.75))
        .unwrap();
    client.explain(&[a.clone(), b.clone()]).unwrap();
    client.catalog_estimate(&a, &b).unwrap();
    let pairs = [
        (a.clone(), b.clone()),
        (b.clone(), a.clone()),
        (a.clone(), "z".to_string()),
    ];
    client.batch_estimate(&pairs).unwrap();
    client.tables().unwrap();
    client.insert_batch(&a, &batch).unwrap();
    client.delete_batch(&a, &batch).unwrap();
    client.compact(&a).unwrap();
    client.shutdown_server().unwrap();
    let (frames, error) = daemon.join().unwrap();

    let sent: Vec<u8> = frames.iter().map(|(request, _)| request[6]).collect();
    let all: Vec<u8> = Opcode::ALL.iter().map(|op| op.code()).collect();
    assert_eq!(sent, all, "one request per Opcode::ALL entry, in order");
    let mut produced = Vec::new();
    for (op, (request, reply)) in Opcode::ALL.iter().zip(frames) {
        produced.push((Format::Wire, format!("{op:?} request"), request));
        produced.push((Format::Wire, format!("{op:?} reply"), reply));
    }
    produced.push((Format::Wire, "unknown-opcode error".to_string(), error));
    verify(&[Format::Wire], &produced);
}

/// The checker itself: a drift at the recorded version names the
/// constant to bump, a row recorded at an older version asks for a
/// re-record, and the exact row passes.
#[test]
fn the_checker_names_the_constant_or_asks_for_a_re_record() {
    let bytes = Frame::request(Opcode::Ping, Vec::new()).to_bytes();
    let version = Format::Wire.version_in(&bytes).unwrap();
    let (len, crc) = pin(&bytes, Format::Wire.trailer());
    assert_eq!(
        check(&(Format::Wire, version, "Ping request", len, crc), &bytes),
        Ok(())
    );

    let drift = check(
        &(Format::Wire, version, "Ping request", len, crc ^ 1),
        &bytes,
    );
    let drift = drift.unwrap_err();
    assert!(drift.contains("bump WIRE_VERSION"), "{drift}");
    assert!(!drift.contains("re-record"), "{drift}");

    let stale = check(
        &(Format::Wire, version - 1, "Ping request", len, crc),
        &bytes,
    );
    let stale = stale.unwrap_err();
    assert!(
        stale.contains(&format!(
            "re-record `wire frame Ping request` at v{version}"
        )),
        "{stale}"
    );
}
