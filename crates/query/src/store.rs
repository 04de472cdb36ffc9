//! Incremental statistics maintenance for the catalog: a write-ahead
//! log of batches and a compacted base file per table.
//!
//! Registration still builds each table's base histogram in one shot,
//! but the catalog no longer has to rebuild on every mutation. Instead,
//! an insert/delete batch flows through three steps:
//!
//! 1. **WAL** — when a statistics directory is attached
//!    ([`Catalog::open_stats_store`]), the batch's rectangles are
//!    appended to `<dir>/<table>.wal` *before* the in-memory state
//!    changes, so a crash between mutation and compaction loses
//!    nothing: on the next open, pending records replay on top of the
//!    compacted base (or the registered statistics, before the first
//!    compaction).
//! 2. **Apply** — the batch's signed [`HistogramDelta`] is applied to
//!    the table's live histogram (exactly: the result is byte-identical
//!    to a full rebuild) and then dropped; the table counts the records
//!    applied since its last compaction.
//! 3. **Compaction** — when that count reaches
//!    [`CompactionPolicy::max_tiers`], or on an explicit
//!    [`Catalog::compact`], one file, `<table>.base`, is written to
//!    `<table>.base.tmp`, fsynced and atomically renamed into place; it
//!    holds the exact rectangles of the compacted state followed by the
//!    effective histogram envelope. The WAL is then deleted and the
//!    count reset. Readers never see a torn base file: the swap is
//!    write-new + rename.
//!
//! The `.base` file is what makes recovery independent of the caller's
//! registration source: after a compaction has folded inserts into the
//! base, the original source files no longer match the statistics, so
//! [`Catalog::open_stats_store`] installs the file's dataset and
//! statistics over whatever was registered, then replays only the WAL
//! records its sequence fence has not folded yet. A saved
//! `<table>.hist` is never written here: it keeps describing the source
//! it was built from.
//!
//! Read paths need no changes: the live histogram *is* the base plus
//! every applied batch at all times.
//!
//! WAL record layout (little-endian, one record per applied batch):
//!
//! ```text
//! magic "SJWL" u32 | version u32 (= 2) | seq u64
//!   | id_token u64 | id_seq u64 | n_ins u32 | n_del u32
//!   | (n_ins + n_del) rects × 4 f64 | crc32 u32
//! ```
//!
//! The CRC32 covers every preceding byte of the record. A torn tail
//! (crash mid-append) is tolerated and reported; a checksum or magic
//! mismatch before the tail is a typed corruption error, and so is any
//! version other than 2.
//!
//! `id_token`/`id_seq` are the client-stamped [`MutationId`] of the
//! batch (zero for unstamped batches). Stamped IDs are remembered in a
//! bounded per-table ring and deduplicated both on apply and on replay,
//! so a client retrying a mutation after an ambiguous failure (the
//! connection died after the server applied the batch but before the
//! reply arrived) cannot double-apply it — see
//! [`Catalog::apply_delta_idempotent`].
//!
//! Base file layout (`<table>.base`, little-endian):
//!
//! ```text
//! magic "SJSB" u32 | version u32 (= 3) | next_seq u64
//!   | n u64 | n rects × 4 f64 | n_ids u32 | n_ids × (token u64, seq u64)
//!   | crc32 u32
//!   | statistics envelope (the histogram's `persist()` bytes)
//! ```
//!
//! The first CRC32 covers the snapshot section before it; the envelope
//! after it carries its own length frame and CRC trailer, checked when
//! it is decoded. A read hashes each byte once. A write hashes the
//! header, the ID section, the envelope and only the rows appended
//! since the table's previous compaction: each table keeps the CRC32
//! register of the rows that compaction encoded, and joins it to the
//! header's register instead of rehashing them (DESIGN.md §13.3).
//! `next_seq` is the first WAL sequence number *not* folded into
//! the envelope. The ID section persists the mutation-ID dedup ring:
//! compaction deletes the WAL, so without it a retry that straddles a
//! compaction would lose its duplicate guard. As with the WAL, one
//! version (3) is read; any other is a typed corruption error.
//!
//! All file I/O in this module flows through the [`StoreIo`] trait
//! ([`RealStoreIo`] in production), so a fault-injecting implementation
//! can deterministically simulate process death, torn writes, and lost
//! unsynced data at every crash point — that is what
//! `sj-lint -- verify-recovery` does.

#![warn(clippy::indexing_slicing)]

use crate::catalog::StatsState;
use crate::delete_index;
use crate::error::QueryError;
use crate::Catalog;
use sj_core::sync::SeqCstU64;
use sj_geo::Rect;
use sj_histogram::{
    build_histogram, CorruptSection, HistogramDelta, HistogramError, SpatialHistogram,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Magic prefix of every WAL record.
pub(crate) const WAL_MAGIC: u32 = 0x534a_574c; // "SJWL"
/// WAL record format version; bump on incompatible layout changes.
/// Version 2 added the mutation-ID fields; records of any other
/// version are rejected.
pub(crate) const WAL_VERSION: u32 = 2;
/// Fixed bytes of a WAL record before its rectangles: magic, version,
/// sequence number, the 16-byte mutation ID, and the two batch lengths.
const WAL_HEADER_LEN: usize = 40;
/// Magic prefix of a `<table>.base` file.
pub(crate) const SNAPSHOT_MAGIC: u32 = 0x534a_5342; // "SJSB"
/// Snapshot format version; bump on incompatible layout changes.
/// Version 3 carries the statistics envelope after the snapshot
/// section; files of any other version are rejected.
pub(crate) const SNAPSHOT_VERSION: u32 = 3;
/// Fixed bytes of a snapshot before its rectangles: magic, version,
/// sequence fence, and the rectangle count.
const SNAPSHOT_HEADER_LEN: usize = 24;
/// How many applied mutation IDs each table remembers for retry
/// deduplication. A retry lands within the client's bounded
/// `RETRY_BACKOFF` window, so a ring this deep outlives any plausible
/// in-flight duplicate by orders of magnitude.
pub const REMEMBERED_MUTATIONS: usize = 1024;

/// A client-stamped identity for one mutation batch, carried in wire
/// frames and WAL records so a retried batch is applied exactly once.
///
/// The all-zero value is *unstamped*: such batches are never
/// deduplicated (local callers that cannot retry don't pay for a
/// guard). Stamped IDs pair a per-client `token` with a per-client
/// monotone `seq`, which makes them deterministic — no randomness — yet
/// unique across the clients of one daemon.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct MutationId {
    /// Identifies the stamping client (stable across its reconnects).
    pub token: u64,
    /// Monotone per-client counter, starting at 1 for stamped IDs.
    pub seq: u64,
}

impl MutationId {
    /// The "no identity" value: batches carrying it skip deduplication.
    pub const UNSTAMPED: MutationId = MutationId { token: 0, seq: 0 };

    /// Builds a stamped ID.
    #[must_use]
    pub fn new(token: u64, seq: u64) -> Self {
        Self { token, seq }
    }

    /// Whether this ID participates in deduplication.
    #[must_use]
    pub fn is_stamped(&self) -> bool {
        *self != Self::UNSTAMPED
    }
}

/// The filesystem surface of the statistics store.
///
/// Every file operation the store performs — WAL appends, compactions,
/// tmp-file writes, renames, fsyncs — goes through this trait, so a
/// test harness can substitute an implementation that injects crashes,
/// torn writes, and lost unsynced data at deterministic points
/// (`sj-lint -- verify-recovery`). [`RealStoreIo`] is the production
/// implementation.
pub trait StoreIo: Send + Sync {
    /// Creates a directory and any missing parents.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()>;

    /// Whether a path currently exists.
    fn exists(&self, path: &Path) -> bool;

    /// Reads a whole file.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>>;

    /// Appends `record` to `path` (creating it if absent) and makes the
    /// append durable before returning — the WAL's one-op contract.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    fn append_wal(&self, path: &Path, record: &[u8]) -> std::io::Result<()>;

    /// Writes a whole file (create or truncate), *without* any
    /// durability guarantee — pair with [`StoreIo::sync_file`].
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()>;

    /// Flushes a previously written file's data to stable storage.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    fn sync_file(&self, path: &Path) -> std::io::Result<()>;

    /// Atomically renames `from` to `to`.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error (including
    /// `NotFound`, which callers may choose to tolerate).
    fn remove(&self, path: &Path) -> std::io::Result<()>;

    /// Best-effort fsync of a directory, making completed renames in it
    /// durable on filesystems that require it.
    ///
    /// # Errors
    /// Propagates the underlying filesystem error.
    fn sync_dir(&self, dir: &Path) -> std::io::Result<()>;
}

/// The production [`StoreIo`]: plain `std::fs`, with real fsyncs.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealStoreIo;

// Every blocking operation reports itself through
// `sj_core::sync::note_blocking_io`, which panics in debug builds when
// the thread holds the catalog lock — an fsync under the catalog lock
// is the latency bug this workspace's mutation pipeline is structured
// to avoid (DESIGN.md §15).
impl StoreIo for RealStoreIo {
    fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
        sj_core::sync::note_blocking_io("create_dir_all");
        std::fs::create_dir_all(dir)
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        sj_core::sync::note_blocking_io("read");
        std::fs::read(path)
    }

    fn append_wal(&self, path: &Path, record: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        sj_core::sync::note_blocking_io("append_wal");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(record)?;
        file.sync_all()
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        sj_core::sync::note_blocking_io("write");
        std::fs::write(path, bytes)
    }

    fn sync_file(&self, path: &Path) -> std::io::Result<()> {
        sj_core::sync::note_blocking_io("sync_file");
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        sj_core::sync::note_blocking_io("rename");
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> std::io::Result<()> {
        sj_core::sync::note_blocking_io("remove");
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &Path) -> std::io::Result<()> {
        sj_core::sync::note_blocking_io("sync_dir");
        std::fs::File::open(dir)?.sync_all()
    }
}

/// When a table's applied batches fold into its base file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Compact when this many records have been applied to a table
    /// since its last compaction (or base install); checked after every
    /// applied batch.
    pub max_tiers: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        Self { max_tiers: 4 }
    }
}

/// What [`Catalog::apply_delta`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaReceipt {
    /// Rectangles inserted.
    pub inserts: usize,
    /// Rectangles deleted.
    pub deletes: usize,
    /// Records applied to the table since its last compaction, after
    /// this batch (0 right after an automatic compaction).
    pub pending_tiers: usize,
    /// Whether the batch tripped the compaction policy.
    pub compacted: bool,
    /// Whether the batch's [`MutationId`] had already been applied, so
    /// this call mutated nothing (a detected retry duplicate).
    pub deduplicated: bool,
}

/// What [`Catalog::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactReceipt {
    /// Applied records folded into the base envelope.
    pub tiers_folded: usize,
    /// Whether a new `<table>.base` file was atomically swapped in
    /// (`false` when no statistics directory is attached).
    pub persisted: bool,
}

/// Outcome of [`Catalog::prepare_delta`]: either the batch was already
/// applied (retry duplicate — nothing further to do) or it validated
/// and is staged for the WAL-append and commit phases.
///
/// No `Debug` impl: the staged WAL handle is an opaque `dyn` [`StoreIo`].
pub enum PreparedOutcome {
    /// The batch's [`MutationId`] was already applied; the receipt is
    /// final and no further phase may run.
    Duplicate(DeltaReceipt),
    /// The batch validated; drive it through
    /// [`PreparedDelta::append_wal`] and [`Catalog::commit_prepared`].
    /// Boxed: the staged batch (delta, deleted rows, WAL record) dwarfs
    /// the duplicate receipt.
    Fresh(Box<PreparedDelta>),
}

/// A validated, staged mutation batch between the prepare and commit
/// phases of the three-phase mutation path (DESIGN.md §15).
///
/// Produced under a shared catalog borrow by [`Catalog::prepare_delta`];
/// carries everything the later phases need so the WAL fsync
/// ([`PreparedDelta::append_wal`]) runs without any catalog borrow at
/// all, and the commit ([`Catalog::commit_prepared`]) is pure in-memory
/// work. The caller must serialize mutations across all three phases —
/// the staged sequence number and delete resolution are only valid
/// against the state observed at prepare time.
pub struct PreparedDelta {
    table: String,
    id: MutationId,
    seq: u64,
    delta: HistogramDelta,
    /// Ascending positions of the dataset rows this batch's deletes
    /// resolved to at prepare time. Empty for an insert-only batch,
    /// which never looks at the dataset.
    deleted_rows: Vec<usize>,
    inserts: Vec<Rect>,
    deletes_len: usize,
    /// WAL destination and encoded record, absent when no statistics
    /// directory is attached (or during replay, which must not re-log).
    wal: Option<(Arc<dyn StoreIo>, PathBuf, Vec<u8>)>,
}

impl PreparedDelta {
    /// The table this batch mutates.
    #[must_use]
    pub fn table(&self) -> &str {
        &self.table
    }

    /// Phase 2 of the mutation path: appends the staged WAL record —
    /// the only file I/O on the mutation path. Once this returns, the
    /// batch is durable and [`Catalog::commit_prepared`] is recoverable
    /// even if the process dies before it runs. A no-op when no
    /// statistics directory is attached.
    ///
    /// # Errors
    /// [`QueryError::Io`] when the append fails; the batch was not made
    /// durable and must not be committed.
    pub fn append_wal(&self) -> Result<(), QueryError> {
        if let Some((io, path, record)) = &self.wal {
            io.append_wal(path, record)
                .map_err(|e| io_err("appending WAL record", &e))?;
        }
        Ok(())
    }
}

/// A staged compaction between the plan and finish phases of the
/// three-phase compaction path (DESIGN.md §15).
///
/// Produced under a shared catalog borrow by
/// [`Catalog::plan_compaction`]; owns the exact bytes
/// [`CompactionPlan::persist`] writes, so the fsync-heavy persistence
/// runs without any catalog borrow. The caller must serialize
/// mutations/compactions across the phases so the snapshot cannot go
/// stale between plan and finish.
pub struct CompactionPlan {
    table: String,
    io: Arc<dyn StoreIo>,
    dir: PathBuf,
    /// The whole `<table>.base` file: snapshot section, then envelope.
    bytes: Vec<u8>,
}

impl CompactionPlan {
    /// Phase 2 of the compaction path: writes `<table>.base.tmp`,
    /// fsyncs it, atomically renames it over `<table>.base`,
    /// best-effort-syncs the directory, then removes the now-folded WAL
    /// (tolerating its absence).
    ///
    /// The operation order is load-bearing: the fault-injection matrix
    /// in `verify-recovery` kills the process at every one of these I/O
    /// operations and asserts recovery, so reordering or coalescing
    /// them changes the crash surface.
    ///
    /// # Errors
    /// [`QueryError::Io`] on any filesystem failure; the old base file
    /// stays intact (the swap is write-new + rename) and the catalog is
    /// unchanged until [`Catalog::finish_compaction`] runs.
    pub fn persist(&self) -> Result<(), QueryError> {
        let (io, dir, name) = (&self.io, &self.dir, &self.table);
        let tmp = dir.join(format!("{name}.base.tmp"));
        io.write(&tmp, &self.bytes)
            .map_err(|e| io_err("writing compacted base", &e))?;
        io.sync_file(&tmp)
            .map_err(|e| io_err("syncing compacted base", &e))?;
        io.rename(&tmp, &dir.join(format!("{name}.base")))
            .map_err(|e| io_err("swapping compacted base", &e))?;
        let _ = io.sync_dir(dir);
        match io.remove(&dir.join(format!("{name}.wal"))) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err("removing compacted WAL", &e)),
        }
        Ok(())
    }
}

/// Result of replaying write-ahead logs in [`Catalog::open_stats_store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalRecovery {
    /// WAL records replayed across all tables.
    pub replayed: usize,
    /// Records dropped because the final one was torn mid-append.
    pub torn_tails: usize,
    /// Records skipped because a snapshot's sequence fence showed them
    /// already folded into the compacted base (a stale WAL left by a
    /// crash between the base file swap and the WAL unlink).
    pub skipped: usize,
    /// Tables whose dataset and statistics were installed from a
    /// compacted base (`<table>.base`), superseding whatever the
    /// caller registered them with.
    pub installed: usize,
    /// Records skipped because their [`MutationId`] was already applied
    /// (a duplicate WAL append left by a crashed retry).
    pub deduplicated: usize,
}

/// Per-table incremental state.
#[derive(Default)]
struct TableStore {
    /// Records applied since the last compaction or base install.
    pending: usize,
    next_seq: u64,
    /// The last [`REMEMBERED_MUTATIONS`] applied stamped mutation IDs,
    /// oldest first, with a set index for O(log n) duplicate checks.
    recent_ids: VecDeque<MutationId>,
    id_index: BTreeSet<MutationId>,
    /// The checksummed prefix of the table's rows (DESIGN.md §13.3): a
    /// row count `k` in the high half and, in the low half, the raw
    /// CRC32 register, started from zero, of the first `k` rows as a
    /// `<table>.base` encodes them. Zero is the empty prefix. Set by
    /// [`Catalog::plan_compaction`], which runs under a shared borrow,
    /// and by a base install to the register its decode computed;
    /// zeroed when a delete claims a row below `k`.
    prefix: SeqCstU64,
}

impl TableStore {
    /// The cached `(k, register)` pair.
    fn cached_prefix(&self) -> (usize, u32) {
        let [r0, r1, r2, r3, k0, k1, k2, k3] = self.prefix.load().to_le_bytes();
        (
            u32::from_le_bytes([k0, k1, k2, k3]) as usize,
            u32::from_le_bytes([r0, r1, r2, r3]),
        )
    }

    /// Caches the register of the first `rows` rows. The delete index
    /// caps a table at `u32::MAX` rows; a count past it caches nothing.
    fn cache_prefix(&self, rows: usize, register: u32) {
        let packed = u32::try_from(rows).map_or(0, |k| u64::from(k) << 32 | u64::from(register));
        self.prefix.store(packed);
    }

    /// Whether a stamped ID has already been applied.
    fn is_applied(&self, id: MutationId) -> bool {
        id.is_stamped() && self.id_index.contains(&id)
    }

    /// Records a stamped ID in the bounded ring.
    fn remember(&mut self, id: MutationId) {
        if !id.is_stamped() || !self.id_index.insert(id) {
            return;
        }
        self.recent_ids.push_back(id);
        while self.recent_ids.len() > REMEMBERED_MUTATIONS {
            if let Some(evicted) = self.recent_ids.pop_front() {
                self.id_index.remove(&evicted);
            }
        }
    }
}

/// The catalog's incremental-statistics layer: an optional on-disk
/// directory (base files + WALs) and per-table pending counts.
pub(crate) struct StatsStore {
    dir: Option<PathBuf>,
    policy: CompactionPolicy,
    tables: BTreeMap<String, TableStore>,
    io: Arc<dyn StoreIo>,
}

impl Default for StatsStore {
    fn default() -> Self {
        Self {
            dir: None,
            policy: CompactionPolicy::default(),
            tables: BTreeMap::new(),
            io: Arc::new(RealStoreIo),
        }
    }
}

impl StatsStore {
    fn table(&mut self, name: &str) -> &mut TableStore {
        self.tables.entry(name.to_string()).or_default()
    }
}

fn io_err(context: &str, e: &std::io::Error) -> QueryError {
    QueryError::Io(format!("{context}: {e}"))
}

/// Encodes one WAL record for an applied batch.
fn encode_wal_record(seq: u64, id: MutationId, inserts: &[Rect], deletes: &[Rect]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(WAL_HEADER_LEN + (inserts.len() + deletes.len()) * 32 + 4);
    buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
    buf.extend_from_slice(&WAL_VERSION.to_le_bytes());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(&id.token.to_le_bytes());
    buf.extend_from_slice(&id.seq.to_le_bytes());
    buf.extend_from_slice(&(u32::try_from(inserts.len()).unwrap_or(u32::MAX)).to_le_bytes());
    buf.extend_from_slice(&(u32::try_from(deletes.len()).unwrap_or(u32::MAX)).to_le_bytes());
    for r in inserts.iter().chain(deletes) {
        buf.extend_from_slice(&rect_bytes(r));
    }
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    buf
}

/// One rectangle as WAL records and `.base` files store it: its four
/// coordinates as little-endian `f64`, one 32-byte chunk.
fn rect_bytes(r: &Rect) -> [u8; 32] {
    let mut out = [0u8; 32];
    let (coords, _) = out.as_chunks_mut::<8>();
    for (dst, v) in coords.iter_mut().zip([r.xlo, r.ylo, r.xhi, r.yhi]) {
        *dst = v.to_le_bytes();
    }
    out
}

/// One decoded WAL record.
struct WalRecord {
    /// Byte offset just past this record in the WAL image.
    end: usize,
    seq: u64,
    id: MutationId,
    inserts: Vec<Rect>,
    deletes: Vec<Rect>,
}

/// Decodes a WAL file into its records. A truncated final record (torn
/// mid-append by a crash) is tolerated and counted; corruption anywhere
/// else — bad magic, bad version, failed CRC — is a typed error.
fn decode_wal(data: &[u8]) -> Result<(Vec<WalRecord>, usize), QueryError> {
    let corrupt = |detail: String| {
        QueryError::Histogram(HistogramError::corrupt(CorruptSection::Payload, detail))
    };
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < data.len() {
        if data.len() - offset < 8 {
            return Ok((records, 1)); // torn tail: magic/version cut short
        }
        let magic = le_u32(data, offset).unwrap_or(0);
        if magic != WAL_MAGIC {
            return Err(corrupt(format!(
                "WAL record at offset {offset} has bad magic {magic:#010x}"
            )));
        }
        let version = le_u32(data, offset + 4).unwrap_or(0);
        if version != WAL_VERSION {
            return Err(corrupt(format!(
                "WAL record at offset {offset} has unsupported version {version}"
            )));
        }
        if data.len() - offset < WAL_HEADER_LEN {
            return Ok((records, 1)); // torn tail: header cut short
        }
        let seq = le_u64(data, offset + 8).unwrap_or(0);
        let id = MutationId::new(
            le_u64(data, offset + 16).unwrap_or(0),
            le_u64(data, offset + 24).unwrap_or(0),
        );
        let n_ins = le_u32(data, offset + 32).unwrap_or(0) as usize;
        let n_del = le_u32(data, offset + 36).unwrap_or(0) as usize;
        let body_len = WAL_HEADER_LEN + (n_ins + n_del) * 32;
        let Some(total) = body_len.checked_add(4) else {
            return Err(corrupt(format!(
                "WAL record at offset {offset} declares an absurd batch size"
            )));
        };
        if data.len() - offset < total {
            return Ok((records, 1)); // torn tail: body or CRC cut short
        }
        let body = data
            .get(offset..offset + body_len)
            .ok_or_else(|| corrupt("WAL record slice out of bounds".to_string()))?;
        let stored = le_u32(data, offset + body_len).unwrap_or(0);
        let computed = crc32(body);
        if stored != computed {
            return Err(corrupt(format!(
                "WAL record at offset {offset} failed its checksum \
                 (stored {stored:#010x}, computed {computed:#010x})"
            )));
        }
        let mut rects = le_rects(data, offset + WAL_HEADER_LEN, n_ins + n_del)
            .ok_or_else(|| corrupt("WAL rectangle slice out of bounds".to_string()))?;
        let deletes = rects.split_off(n_ins);
        records.push(WalRecord {
            end: offset + total,
            seq,
            id,
            inserts: rects,
            deletes,
        });
        offset += total;
    }
    Ok((records, 0))
}

/// End offsets of the complete records in a WAL image, in file order.
/// A torn tail is ignored, exactly as recovery would ignore it; the
/// offsets let external harnesses (the `verify-recovery` sabotage
/// fault) truncate a WAL on a record boundary without re-implementing
/// the record layout.
///
/// # Errors
/// The same typed corruption errors as recovery itself: bad magic, bad
/// version, or a failed checksum before the tail.
pub fn wal_record_ends(data: &[u8]) -> Result<Vec<usize>, QueryError> {
    let (records, _torn) = decode_wal(data)?;
    Ok(records.iter().map(|record| record.end).collect())
}

/// The little-endian `u32` at `at`, or `None` past the end of `data`.
fn le_u32(data: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(data.get(at..at + 4)?.try_into().ok()?))
}

/// The little-endian `u64` at `at`, or `None` past the end of `data`.
fn le_u64(data: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(data.get(at..at + 8)?.try_into().ok()?))
}

/// `n` rectangles stored from `at` as four little-endian `f64` each, or
/// `None` if any runs past the end of `data`. The bytes are checked
/// once, then each 32-byte chunk decodes into a vector sized up front.
fn le_rects(data: &[u8], at: usize, n: usize) -> Option<Vec<Rect>> {
    let bytes = data.get(at..at.checked_add(n.checked_mul(32)?)?)?;
    let (chunks, _) = bytes.as_chunks::<32>();
    Some(chunks.iter().map(rect_from_bytes).collect())
}

/// The rectangle [`rect_bytes`] encoded.
fn rect_from_bytes(chunk: &[u8; 32]) -> Rect {
    let mut coords = [0f64; 4];
    for (v, c) in coords.iter_mut().zip(chunk.as_chunks::<8>().0) {
        *v = f64::from_le_bytes(*c);
    }
    let [xlo, ylo, xhi, yhi] = coords;
    Rect::new(xlo, ylo, xhi, yhi)
}

/// A decoded `<table>.base` file: the exact rectangles the compacted
/// statistics describe, the data fencing the stale part of a surviving
/// WAL off the already-folded part, and the statistics envelope itself.
struct Snapshot<'a> {
    /// First WAL sequence number *not* folded into the envelope.
    next_seq: u64,
    rects: Vec<Rect>,
    /// The mutation-ID dedup ring at compaction time, oldest first.
    ids: Vec<MutationId>,
    /// The raw CRC32 register, started from zero, of every row: the
    /// table's cached prefix once the base is installed (DESIGN.md
    /// §13.3).
    rows_register: u32,
    /// The statistics envelope after the snapshot section, checked by
    /// its own length frame and CRC trailer when it is decoded.
    envelope: &'a [u8],
}

/// Encodes a `<table>.base` file into one buffer sized up front: the
/// snapshot section (each rectangle one 32-byte chunk, filled in place)
/// and its CRC32, then the statistics envelope, encoded and checksummed
/// in place by [`SpatialHistogram::persist_into`].
///
/// `prefix` is a table's cached `(k, register)` pair: the raw CRC32
/// register, started from zero, of the first `k` rows, which must not
/// have changed since it was taken. Only the rows after them are
/// hashed; their register is shifted past the header's and joined to it
/// (DESIGN.md §13.3). Returns the file and the register of all rows,
/// the next call's prefix.
#[expect(
    clippy::indexing_slicing,
    reason = "every bound is a length written here: the header, rows_end, and k <= rects.len() rows"
)]
fn encode_base(
    next_seq: u64,
    rects: &[Rect],
    ids: &[MutationId],
    stats: &dyn SpatialHistogram,
    prefix: (usize, u32),
) -> (Vec<u8>, u32) {
    let rows_end = SNAPSHOT_HEADER_LEN + rects.len() * 32;
    let section = rows_end + 4 + ids.len() * 16 + 4;
    let mut buf = Vec::with_capacity(section + stats.persist_len());
    buf.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    buf.extend_from_slice(&next_seq.to_le_bytes());
    buf.extend_from_slice(&(rects.len() as u64).to_le_bytes());
    buf.resize(rows_end, 0);
    let (rows, _) = buf[SNAPSHOT_HEADER_LEN..].as_chunks_mut::<32>();
    for (dst, r) in rows.iter_mut().zip(rects) {
        *dst = rect_bytes(r);
    }
    let (k, register) = if prefix.0 <= rects.len() {
        prefix
    } else {
        (0, 0)
    };
    let rows_register = crc::resume(register, &buf[SNAPSHOT_HEADER_LEN + k * 32..]);
    let header_register = !crc32(&buf[..SNAPSHOT_HEADER_LEN]);
    let rows_crc = crc::shift(header_register, rects.len() * 32) ^ rows_register;
    buf.extend_from_slice(&(u32::try_from(ids.len()).unwrap_or(u32::MAX)).to_le_bytes());
    for id in ids {
        buf.extend_from_slice(&id.token.to_le_bytes());
        buf.extend_from_slice(&id.seq.to_le_bytes());
    }
    let crc = !crc::resume(rows_crc, &buf[rows_end..]);
    debug_assert_eq!(crc, crc32(&buf), "the cached row prefix went stale");
    buf.extend_from_slice(&crc.to_le_bytes());
    stats.persist_into(&mut buf);
    (buf, rows_register)
}

/// Decodes the snapshot section of a `<table>.base` file and returns
/// the envelope after it undecoded. Unlike the WAL, the file is written
/// atomically (write-new + rename), so *any* damage to the section —
/// truncation, bad magic, failed CRC — is a typed corruption error,
/// never tolerated; damage to the envelope is caught when it decodes.
fn decode_snapshot(data: &[u8]) -> Result<Snapshot<'_>, QueryError> {
    let corrupt = |detail: String| {
        QueryError::Histogram(HistogramError::corrupt(
            CorruptSection::Payload,
            format!("dataset snapshot {detail}"),
        ))
    };
    if data.len() < SNAPSHOT_HEADER_LEN + 4 {
        return Err(corrupt("is shorter than its fixed header".to_string()));
    }
    let magic = le_u32(data, 0).unwrap_or(0);
    if magic != SNAPSHOT_MAGIC {
        return Err(corrupt(format!("has bad magic {magic:#010x}")));
    }
    let version = le_u32(data, 4).unwrap_or(0);
    if version != SNAPSHOT_VERSION {
        return Err(corrupt(format!("has unsupported version {version}")));
    }
    let next_seq = le_u64(data, 8).unwrap_or(0);
    let n = usize::try_from(le_u64(data, 16).unwrap_or(0))
        .map_err(|_| corrupt("declares an absurd rectangle count".to_string()))?;
    let Some(rects_end) = n
        .checked_mul(32)
        .and_then(|b| b.checked_add(SNAPSHOT_HEADER_LEN))
    else {
        return Err(corrupt("declares an absurd rectangle count".to_string()));
    };
    let declared = le_u32(data, rects_end)
        .ok_or_else(|| corrupt("is truncated before its mutation-ID count".to_string()))?;
    let n_ids = usize::try_from(declared)
        .map_err(|_| corrupt("declares an absurd mutation-ID count".to_string()))?;
    let Some(body_len) = rects_end.checked_add(4 + n_ids * 16) else {
        return Err(corrupt("declares an absurd mutation-ID count".to_string()));
    };
    let (Some(body), Some(stored)) = (data.get(..body_len), le_u32(data, body_len)) else {
        return Err(corrupt(format!(
            "is truncated: {n} rectangles and {n_ids} mutation IDs need {} bytes, \
             file has {}",
            body_len + 4,
            data.len()
        )));
    };
    // The section's CRC joined from the rows' own register, as
    // `encode_base` joins it, so the check leaves that register behind
    // without a second pass over the rows.
    let rows = body.get(SNAPSHOT_HEADER_LEN..rects_end).unwrap_or_default();
    let tail = body.get(rects_end..).unwrap_or_default();
    let rows_register = crc::resume(0, rows);
    let header_register = !crc32(body.get(..SNAPSHOT_HEADER_LEN).unwrap_or_default());
    let computed = !crc::resume(
        crc::shift(header_register, rows.len()) ^ rows_register,
        tail,
    );
    if stored != computed {
        return Err(corrupt(format!(
            "failed its checksum (stored {stored:#010x}, computed {computed:#010x})"
        )));
    }
    let rects = le_rects(data, SNAPSHOT_HEADER_LEN, n)
        .ok_or_else(|| corrupt("rectangle slice out of bounds".to_string()))?;
    let mut ids = Vec::with_capacity(n_ids);
    for i in 0..n_ids {
        let at = rects_end + 4 + i * 16;
        let (Some(token), Some(seq)) = (le_u64(data, at), le_u64(data, at + 8)) else {
            return Err(corrupt("mutation-ID slice out of bounds".to_string()));
        };
        ids.push(MutationId::new(token, seq));
    }
    Ok(Snapshot {
        next_seq,
        rects,
        ids,
        rows_register,
        envelope: data.get(body_len + 4..).unwrap_or_default(),
    })
}

/// Removes the rows at `rows` (strictly ascending positions, as
/// [`delete_index::resolve`] returns them) in one pass: rows before the
/// first position stay where they are, and each run of survivors after
/// it moves down once. Survivors keep their order.
fn remove_rows(rects: &mut Vec<Rect>, rows: &[usize]) {
    let Some(&first) = rows.first() else {
        return;
    };
    debug_assert!(
        rows.is_sorted_by(|a, b| a < b) && rows.last().is_some_and(|&r| r < rects.len()),
        "row positions must be strictly ascending and in range"
    );
    let mut write = first;
    for (k, &row) in rows.iter().enumerate() {
        let end = rows.get(k + 1).copied().unwrap_or(rects.len());
        rects.copy_within(row + 1..end, write);
        write += end - row - 1;
    }
    rects.truncate(write);
}

// CRC32 (IEEE, reflected) — the workspace's single shared
// implementation, the same polynomial and table as the histogram
// envelopes whose trailers these records sit next to on disk.
use sj_core::crc::{self, crc32};

impl Catalog {
    /// Attaches a statistics directory and recovers each registered
    /// table to its exact pre-shutdown state:
    ///
    /// 1. When a compacted base (`<table>.base`) exists, the dataset
    ///    and statistics it carries are installed over whatever the
    ///    caller registered — after a compaction has folded inserts into
    ///    the base, the original source files no longer describe the
    ///    statistics, so the base file is the only trustworthy state.
    /// 2. Pending WAL records then re-apply their insert/delete batches
    ///    (without re-logging); records the base file's sequence fence
    ///    shows as already folded are skipped.
    ///
    /// Also directs future [`Catalog::apply_delta`] calls to log to
    /// `<dir>/<table>.wal` and future compactions to atomically rewrite
    /// `<dir>/<table>.base`. A saved `<dir>/<table>.hist` is only ever
    /// read by the caller's registration, never written.
    ///
    /// # Errors
    /// [`QueryError::Io`] on filesystem failures, or a typed corruption
    /// error when a WAL record before the tail fails its checksum, or a
    /// base file is damaged or its statistics do not cover its dataset.
    /// A base file of another family or grid is a typed mismatch. A
    /// torn final WAL record (crash mid-append) is tolerated and counted
    /// in the returned [`WalRecovery`].
    pub fn open_stats_store(
        &mut self,
        dir: impl AsRef<Path>,
        policy: CompactionPolicy,
    ) -> Result<WalRecovery, QueryError> {
        self.open_stats_store_with_io(dir, policy, Arc::new(RealStoreIo))
    }

    /// [`Catalog::open_stats_store`] with an explicit [`StoreIo`]
    /// implementation. All subsequent store I/O (WAL appends,
    /// compaction folds) goes through `io` as well; production callers
    /// want [`RealStoreIo`], fault harnesses substitute their own.
    ///
    /// # Errors
    /// As [`Catalog::open_stats_store`].
    pub fn open_stats_store_with_io(
        &mut self,
        dir: impl AsRef<Path>,
        policy: CompactionPolicy,
        io: Arc<dyn StoreIo>,
    ) -> Result<WalRecovery, QueryError> {
        let dir = dir.as_ref();
        io.create_dir_all(dir)
            .map_err(|e| io_err("creating statistics directory", &e))?;
        self.store.dir = Some(dir.to_path_buf());
        self.store.policy = policy;
        self.store.io = Arc::clone(&io);
        let mut recovery = WalRecovery::default();
        for name in self
            .table_names()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
        {
            // Replay only records at or past this fence (None: all).
            let mut fence = None;
            let base_path = dir.join(format!("{name}.base"));
            if io.exists(&base_path) {
                let bytes = io
                    .read(&base_path)
                    .map_err(|e| io_err("reading compacted base", &e))?;
                let snapshot = decode_snapshot(&bytes)?;
                let histogram = self.decode_statistics(snapshot.rects.len(), snapshot.envelope)?;
                recovery.installed += 1;
                fence = Some(snapshot.next_seq);
                self.install_base(&name, snapshot, histogram);
            }
            let wal = dir.join(format!("{name}.wal"));
            if !io.exists(&wal) {
                continue;
            }
            let data = io.read(&wal).map_err(|e| io_err("reading WAL", &e))?;
            let (records, torn) = decode_wal(&data)?;
            recovery.torn_tails += torn;
            // With no snapshot the WAL's base state is the registered
            // dataset itself. Replay needs live statistics to apply
            // batches to, so if registration left them unusable (e.g. a
            // lenient registration over a stale or damaged saved
            // `.hist`), rebuild them from that dataset.
            if !records.is_empty() && fence.is_none() {
                self.ensure_stats_ready(&name);
            }
            for record in &records {
                if fence.is_some_and(|s| record.seq < s) {
                    recovery.skipped += 1;
                    continue;
                }
                let receipt = self.apply_delta_inner(
                    &name,
                    &record.inserts,
                    &record.deletes,
                    record.id,
                    false,
                )?;
                if receipt.deduplicated {
                    recovery.deduplicated += 1;
                } else {
                    recovery.replayed += 1;
                }
            }
        }
        Ok(recovery)
    }

    /// Installs a recovered base state: the base file's dataset and
    /// statistics, a reset lazy R-tree and delete index, the sequence
    /// fence, the snapshotted mutation-ID dedup ring, and every row as
    /// the checksummed prefix — with no pending records (the base is,
    /// by construction, compacted).
    fn install_base(
        &mut self,
        name: &str,
        snapshot: Snapshot<'_>,
        histogram: Box<dyn sj_histogram::SpatialHistogram>,
    ) {
        let Snapshot {
            next_seq,
            rects,
            ids,
            rows_register,
            ..
        } = snapshot;
        let rows = rects.len();
        if let Some(stats) = self.stats_mut(name) {
            *stats = StatsState::ready_from(histogram);
        }
        if let Some(table) = self.tables.get_mut(name) {
            table.dataset.rects = rects;
            table.rtree = std::sync::OnceLock::new();
            table.delete_index = std::sync::OnceLock::new();
        }
        let entry = self.store.table(name);
        *entry = TableStore {
            next_seq,
            ..TableStore::default()
        };
        for id in ids {
            entry.remember(id);
        }
        entry.cache_prefix(rows, rows_register);
    }

    /// Rebuilds a table's statistics from its registered dataset when
    /// registration left them unusable — WAL replay with no snapshot
    /// treats that dataset as the base state, so statistics over it are
    /// exactly what the pending batches expect to apply to.
    fn ensure_stats_ready(&mut self, name: &str) {
        let Some(table) = self.tables.get(name) else {
            return;
        };
        if !matches!(table.stats(), StatsState::Unavailable { .. }) {
            return;
        }
        let histogram = build_histogram(self.config.kind, self.grid, &table.dataset.rects);
        if let Some(stats) = self.stats_mut(name) {
            *stats = StatsState::ready_from(histogram);
        }
        if let Some(table) = self.tables.get_mut(name) {
            table.rtree = std::sync::OnceLock::new();
        }
    }

    /// Applies an insert/delete batch to a table incrementally: the
    /// batch is WAL-logged (when a statistics directory is attached),
    /// its signed [`HistogramDelta`] is applied to the live histogram —
    /// byte-identical to a full rebuild over the mutated dataset — the
    /// raw dataset and lazy index are updated, and the table's pending
    /// count grows by one. Reaching [`CompactionPolicy::max_tiers`]
    /// triggers an automatic [`Catalog::compact`].
    ///
    /// Every rectangle in `deletes` must currently exist in the table
    /// (exact coordinates); one matching object is removed per delete
    /// rectangle. A failed validation mutates nothing.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names;
    /// [`QueryError::StatisticsUnavailable`] when the table carries no
    /// usable statistics; [`QueryError::InvalidRect`] when a rectangle
    /// is non-finite, inverted or outside the catalog extent;
    /// [`QueryError::DeleteNotFound`] when a delete rectangle matches no
    /// object; [`QueryError::TooManyRows`] when the table would outgrow
    /// its delete index; [`QueryError::Io`] on WAL append failures;
    /// [`QueryError::Histogram`] when the delta cannot apply.
    pub fn apply_delta(
        &mut self,
        name: &str,
        inserts: &[Rect],
        deletes: &[Rect],
    ) -> Result<DeltaReceipt, QueryError> {
        self.apply_delta_inner(name, inserts, deletes, MutationId::UNSTAMPED, true)
    }

    /// [`Catalog::apply_delta`] with a client-stamped [`MutationId`]: a
    /// stamped ID that has already been applied (it is in the table's
    /// bounded dedup ring, populated on apply, on WAL replay, and from
    /// compaction snapshots) short-circuits to a receipt with
    /// [`DeltaReceipt::deduplicated`] set and mutates nothing, so a
    /// retried batch lands exactly once. Unstamped IDs behave exactly
    /// like [`Catalog::apply_delta`].
    ///
    /// # Errors
    /// As [`Catalog::apply_delta`].
    pub fn apply_delta_idempotent(
        &mut self,
        name: &str,
        inserts: &[Rect],
        deletes: &[Rect],
        id: MutationId,
    ) -> Result<DeltaReceipt, QueryError> {
        self.apply_delta_inner(name, inserts, deletes, id, true)
    }

    fn apply_delta_inner(
        &mut self,
        name: &str,
        inserts: &[Rect],
        deletes: &[Rect],
        id: MutationId,
        log_to_wal: bool,
    ) -> Result<DeltaReceipt, QueryError> {
        // The single-threaded composition of the three-phase mutation
        // path below (prepare → WAL append → commit), byte-identical to
        // the historical monolithic sequence. The daemon drives the
        // same three phases under different locks (DESIGN.md §15) so
        // the catalog is never held across the fsync.
        let prepared = match self.prepare_delta_inner(name, inserts, deletes, id, log_to_wal)? {
            PreparedOutcome::Duplicate(receipt) => return Ok(receipt),
            PreparedOutcome::Fresh(p) => *p,
        };
        prepared.append_wal()?;
        let mut receipt = self.commit_prepared(prepared)?;
        // Replay never compacts: a compaction deletes the WAL, so the
        // records replayed after it would live only in memory. The
        // first logged batch after the reopen compacts instead.
        if log_to_wal && self.compaction_needed(name) {
            self.compact(name)?;
            receipt.pending_tiers = 0;
            receipt.compacted = true;
        }
        Ok(receipt)
    }

    /// Phase 1 of the mutation path: validates the batch against the
    /// current state and stages everything the later phases need —
    /// without mutating the catalog or touching a file. Callable under
    /// a shared (read) lock.
    ///
    /// The caller must serialize mutations (the daemon holds its
    /// pipeline mutex across all three phases; the single-threaded CLI
    /// is serial by construction): the staged sequence number and
    /// delete resolution are computed against the state at prepare
    /// time.
    ///
    /// # Errors
    /// As [`Catalog::apply_delta`], except WAL/commit failures which
    /// belong to the later phases.
    pub fn prepare_delta(
        &self,
        name: &str,
        inserts: &[Rect],
        deletes: &[Rect],
        id: MutationId,
    ) -> Result<PreparedOutcome, QueryError> {
        self.prepare_delta_inner(name, inserts, deletes, id, true)
    }

    fn prepare_delta_inner(
        &self,
        name: &str,
        inserts: &[Rect],
        deletes: &[Rect],
        id: MutationId,
        log_to_wal: bool,
    ) -> Result<PreparedOutcome, QueryError> {
        // Validate against the current dataset before touching anything.
        let table = self
            .tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))?;
        // Duplicate detection precedes every other effect: a retry of
        // an already-applied batch must succeed without touching the
        // WAL, the histogram, or the dataset — its deletes may no
        // longer resolve, and re-validating them would wrongly fail.
        if self
            .store
            .tables
            .get(name)
            .is_some_and(|t| t.is_applied(id))
        {
            return Ok(PreparedOutcome::Duplicate(DeltaReceipt {
                inserts: inserts.len(),
                deletes: deletes.len(),
                pending_tiers: self.store.tables.get(name).map_or(0, |t| t.pending),
                compacted: false,
                deduplicated: true,
            }));
        }
        if let StatsState::Unavailable { reason } = table.stats() {
            return Err(QueryError::StatisticsUnavailable {
                table: name.to_string(),
                reason: reason.clone(),
            });
        }
        // Registration's strict rule, on every rectangle of the batch.
        for (index, r) in inserts.iter().chain(deletes).enumerate() {
            sj_geo::check_raw_rect((r.xlo, r.ylo, r.xhi, r.yhi), Some(&self.config.extent))
                .map_err(|issue| QueryError::InvalidRect {
                    table: name.to_string(),
                    index,
                    issue,
                })?;
        }
        // The delete index numbers rows with `u32`, and the commit holds
        // the table's rows and the inserts together before the deletes
        // leave, so all of them must fit.
        let rows = table.dataset.rects.len().saturating_add(inserts.len());
        if !delete_index::fits(rows) {
            return Err(QueryError::TooManyRows {
                table: name.to_string(),
                rows,
            });
        }
        // Resolve each delete to one currently-live object, first match
        // wins; duplicates in the batch consume duplicates in the data.
        let deleted_rows = if deletes.is_empty() {
            Vec::new()
        } else {
            let rects = &table.dataset.rects;
            let index = table
                .delete_index
                .get_or_init(|| delete_index::build(rects));
            delete_index::resolve(index, rects, deletes).map_err(|index| {
                QueryError::DeleteNotFound {
                    table: name.to_string(),
                    index,
                }
            })?
        };

        // Exact signed delta for this batch: both sides run through the
        // same shard driver as every other build in the workspace.
        let delta = HistogramDelta::build(self.config.kind, self.grid, inserts, deletes);

        let seq = self.store.tables.get(name).map_or(0, |t| t.next_seq);
        let wal = match (&self.store.dir, log_to_wal) {
            (Some(dir), true) => Some((
                Arc::clone(&self.store.io),
                dir.join(format!("{name}.wal")),
                encode_wal_record(seq, id, inserts, deletes),
            )),
            _ => None,
        };
        Ok(PreparedOutcome::Fresh(Box::new(PreparedDelta {
            table: name.to_string(),
            id,
            seq,
            delta,
            deleted_rows,
            inserts: inserts.to_vec(),
            deletes_len: deletes.len(),
            wal,
        })))
    }

    /// Phase 3 of the mutation path: folds a [`PreparedDelta`] into the
    /// live statistics, dataset and pending count. Pure in-memory
    /// work — no file I/O — so the daemon can run it under the catalog
    /// write lock without blocking readers behind an fsync. Never
    /// compacts; the caller checks [`Catalog::compaction_needed`]
    /// afterwards (exactly-once mutation semantics are preserved
    /// because the ID is remembered here, after the batch is known to
    /// apply).
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] when the table vanished between the
    /// phases; [`QueryError::Histogram`] when the delta cannot apply.
    pub fn commit_prepared(&mut self, prepared: PreparedDelta) -> Result<DeltaReceipt, QueryError> {
        let PreparedDelta {
            table: name,
            id,
            seq,
            delta,
            deleted_rows,
            inserts,
            deletes_len,
            wal: _,
        } = prepared;
        // Commit: histogram, its resident view and the memoized answers
        // that read it (atomic apply), dataset, indexes.
        self.apply_stats_delta(&name, &delta)?;
        let table = self
            .tables
            .get_mut(&name)
            .ok_or_else(|| QueryError::UnknownTable(name.clone()))?;
        // Surviving rows keep their order and inserts follow them, in
        // place: the removal starts at the first deleted row, and an
        // insert-only batch never walks the dataset.
        let rects = &mut table.dataset.rects;
        remove_rows(rects, &deleted_rows);
        rects.extend_from_slice(&inserts);
        table.rtree = std::sync::OnceLock::new();
        if let Some(index) = table.delete_index.get_mut() {
            if !delete_index::commit(index, rects, &deleted_rows, inserts.len()) {
                table.delete_index = std::sync::OnceLock::new();
            }
        }

        // Store bookkeeping. The ID is remembered only now: a batch that
        // failed validation in prepare must stay retryable under the
        // same ID.
        let entry = self.store.table(&name);
        // A delete below the checksummed prefix moves later rows into
        // it, so the next compaction hashes every row again.
        if deleted_rows
            .first()
            .is_some_and(|&row| row < entry.cached_prefix().0)
        {
            entry.prefix.store(0);
        }
        entry.remember(id);
        entry.next_seq = seq + 1;
        entry.pending += 1;
        Ok(DeltaReceipt {
            inserts: inserts.len(),
            deletes: deletes_len,
            pending_tiers: entry.pending,
            compacted: false,
            deduplicated: false,
        })
    }

    /// Whether the table's pending count has reached
    /// [`CompactionPolicy::max_tiers`] and [`Catalog::compact`] should
    /// run. Tables no batch has reached answer `false`.
    #[must_use]
    pub fn compaction_needed(&self, name: &str) -> bool {
        let max = self.store.policy.max_tiers;
        self.store
            .tables
            .get(name)
            .is_some_and(|t| t.pending >= max)
    }

    /// Folds a table's applied batches into its compacted base. The
    /// live histogram already *is* the base plus every applied batch,
    /// so folding persists it: the dataset snapshot and the effective
    /// envelope are written to `<dir>/<table>.base.tmp` and atomically
    /// renamed over `<dir>/<table>.base`, the WAL is deleted, and the
    /// pending count is reset. Without an attached statistics directory
    /// only the count is reset.
    ///
    /// A crash anywhere in that sequence recovers exactly on the next
    /// [`Catalog::open_stats_store`]: before the rename the old base (if
    /// any) plus the WAL reproduce the state; after it a stale WAL is
    /// fenced off by the new base's sequence number.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names;
    /// [`QueryError::Io`] on filesystem failures.
    pub fn compact(&mut self, name: &str) -> Result<CompactReceipt, QueryError> {
        // The single-threaded composition of the three-phase compaction
        // path (plan → persist → finish) the daemon drives under
        // different locks so readers are never blocked behind the
        // fsyncs (DESIGN.md §15).
        let plan = self.plan_compaction(name)?;
        let persisted = match &plan {
            Some(plan) => {
                plan.persist()?;
                true
            }
            None => false,
        };
        Ok(self.finish_compaction(name, persisted))
    }

    /// Phase 1 of the compaction path: encodes the `<table>.base` file
    /// [`CompactionPlan::persist`] will write — the dataset snapshot and
    /// the effective histogram envelope — under a shared catalog borrow. Returns `Ok(None)` when there is nothing to persist (no
    /// statistics directory attached, or the table's statistics are
    /// unavailable); the caller still runs
    /// [`Catalog::finish_compaction`] to reset the pending count.
    ///
    /// The caller must serialize mutations/compactions across all three
    /// phases; the plan is only valid against the state observed here.
    ///
    /// # Errors
    /// [`QueryError::UnknownTable`] for unregistered names.
    pub fn plan_compaction(&self, name: &str) -> Result<Option<CompactionPlan>, QueryError> {
        let table = self
            .tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))?;
        let entry = self.store.tables.get(name);
        let next_seq = entry.map_or(0, |t| t.next_seq);
        let ids: Vec<MutationId> = entry
            .map(|t| t.recent_ids.iter().copied().collect())
            .unwrap_or_default();
        let (Some(dir), StatsState::Ready(h)) = (&self.store.dir, table.stats()) else {
            return Ok(None);
        };
        // fsync before the rename (in persist): rename is atomic in
        // the namespace, but renaming a file whose data is still in the
        // page cache lets a power loss surface a torn target — the one
        // corruption the write-new + rename contract promises readers
        // never see.
        let rects = &table.dataset.rects;
        let prefix = entry.map_or((0, 0), TableStore::cached_prefix);
        let (bytes, register) = encode_base(next_seq, rects, &ids, h.histogram(), prefix);
        if let Some(entry) = entry {
            entry.cache_prefix(rects.len(), register);
        }
        Ok(Some(CompactionPlan {
            table: name.to_string(),
            io: Arc::clone(&self.store.io),
            dir: dir.clone(),
            bytes,
        }))
    }

    /// Phase 3 of the compaction path: resets the table's pending count
    /// after the plan was persisted (or skipped). Pure in-memory work —
    /// infallible, so the daemon can run it under the catalog write
    /// lock without blocking readers behind file I/O. `persisted` is
    /// echoed into the receipt; pass `false` when there was no plan to
    /// persist.
    pub fn finish_compaction(&mut self, name: &str, persisted: bool) -> CompactReceipt {
        let entry = self.store.table(name);
        CompactReceipt {
            tiers_folded: std::mem::take(&mut entry.pending),
            persisted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sj_datagen::Dataset;
    use sj_geo::Extent;
    use sj_histogram::HistogramKind;

    fn rects(n: usize, offset: f64) -> Vec<Rect> {
        (0..n)
            .map(|i| {
                let t = (i as f64 + 0.5) / n as f64 * 0.8 + offset;
                Rect::new(t, t * 0.9, t + 0.05, t * 0.9 + 0.04)
            })
            .collect()
    }

    fn catalog_with(name: &str, n: usize, kind: HistogramKind) -> Catalog {
        let mut c = Catalog::with_kind(kind, 4);
        c.register(Dataset::new(name, Extent::unit(), rects(n, 0.0)))
            .unwrap();
        c
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sj_store_test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    /// The store invariant: after any batch sequence, the live histogram
    /// is byte-identical to a catalog freshly registered over the
    /// mutated dataset.
    #[test]
    fn incremental_equals_rebuild_every_kind() {
        for kind in HistogramKind::ALL {
            let mut c = catalog_with("t", 50, kind);
            let ins = rects(20, 0.1);
            let del: Vec<Rect> = rects(50, 0.0).into_iter().step_by(5).collect();
            let receipt = c.apply_delta("t", &ins, &del).unwrap();
            assert_eq!(receipt.inserts, 20);
            assert_eq!(receipt.deletes, 10);
            assert_eq!(c.table_len("t").unwrap(), 60);

            let mut fresh = Catalog::with_kind(kind, 4);
            fresh
                .register(Dataset::new(
                    "t",
                    Extent::unit(),
                    c.dataset("t").unwrap().rects.clone(),
                ))
                .unwrap();
            assert_eq!(
                c.histogram("t").unwrap().to_bytes(),
                fresh.histogram("t").unwrap().to_bytes(),
                "{kind}: incremental maintenance must equal full rebuild"
            );
        }
    }

    #[test]
    fn deleting_unknown_object_is_typed_and_mutates_nothing() {
        let mut c = catalog_with("t", 10, HistogramKind::Gh);
        let before = c.histogram("t").unwrap().to_bytes();
        let err = c
            .apply_delta("t", &[], &[Rect::new(0.9, 0.9, 0.95, 0.95)])
            .unwrap_err();
        assert!(matches!(err, QueryError::DeleteNotFound { index: 0, .. }));
        assert_eq!(c.histogram("t").unwrap().to_bytes(), before);
        assert_eq!(c.table_len("t").unwrap(), 10);
        assert!(!c.compaction_needed("t"));
        assert_eq!(c.compact("t").unwrap().tiers_folded, 0, "nothing applied");
    }

    /// A mutation batch obeys registration's strict rule: every
    /// [`sj_geo::RectIssue`], as an insert or a delete, in every family,
    /// is a typed error naming the batch position (inserts first), and
    /// nothing is applied, logged or evicted from the pair memo.
    #[test]
    fn invalid_rectangles_are_typed_and_mutate_nothing() {
        use sj_geo::RectIssue;
        let r = |xlo: f64, ylo: f64, xhi: f64, yhi: f64| Rect { xlo, ylo, xhi, yhi };
        let cases = [
            (
                r(0.1, 0.1, f64::INFINITY, 0.2),
                RectIssue::NonFinite { field: "xhi" },
            ),
            (
                r(f64::NAN, 0.1, 0.2, 0.2),
                RectIssue::NonFinite { field: "xlo" },
            ),
            (r(0.3, 0.1, 0.2, 0.2), RectIssue::Inverted { axis: 'x' }),
            (r(0.1, 0.3, 0.2, 0.25), RectIssue::Inverted { axis: 'y' }),
            (r(5.0, 5.0, 6.0, 6.0), RectIssue::OutOfExtent),
        ];
        let good = Rect::new(0.1, 0.1, 0.2, 0.2);
        for kind in HistogramKind::ALL {
            let dir = temp_dir(&format!("invalid_{kind}"));
            let mut c = catalog_with("t", 10, kind);
            c.open_stats_store(&dir, CompactionPolicy::default())
                .unwrap();
            c.primary_estimate("t", "t").unwrap();
            let before = c.histogram("t").unwrap().to_bytes();
            for (bad, issue) in cases {
                let want = QueryError::InvalidRect {
                    table: "t".to_string(),
                    index: 1,
                    issue,
                };
                let as_insert = c.apply_delta("t", &[good, bad], &[]).unwrap_err();
                assert_eq!(as_insert, want, "{kind}: insert {bad:?}");
                let as_delete = c.apply_delta("t", &[good], &[bad]).unwrap_err();
                assert_eq!(as_delete, want, "{kind}: delete {bad:?}");
            }
            assert_eq!(c.histogram("t").unwrap().to_bytes(), before, "{kind}");
            assert_eq!(c.table_len("t").unwrap(), 10, "{kind}");
            assert!(c.memo_holds("t", "t"), "{kind}: memo evicted");
            assert!(!dir.join("t.wal").exists(), "{kind}: WAL written");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn duplicate_objects_are_deleted_one_per_delete() {
        let r = Rect::new(0.2, 0.2, 0.3, 0.3);
        let mut c = Catalog::with_level(3);
        c.register(Dataset::new("t", Extent::unit(), vec![r, r, r]))
            .unwrap();
        c.apply_delta("t", &[], &[r, r]).unwrap();
        assert_eq!(c.table_len("t").unwrap(), 1);
        // A third and fourth delete: one succeeds, one has no match left.
        let err = c.apply_delta("t", &[], &[r, r]).unwrap_err();
        assert!(matches!(err, QueryError::DeleteNotFound { index: 1, .. }));
        assert_eq!(c.table_len("t").unwrap(), 1, "failed batch must not apply");
    }

    /// The oracle for delete resolution: deletes one at a time in batch
    /// order, each claiming the first still-live equal row; the claimed
    /// positions, ascending, or the first delete that matches nothing.
    fn resolve_deletes_reference(rects: &[Rect], deletes: &[Rect]) -> Result<Vec<usize>, usize> {
        let mut live = vec![true; rects.len()];
        let mut claimed = Vec::new();
        for (index, del) in deletes.iter().enumerate() {
            match rects
                .iter()
                .enumerate()
                .position(|(i, r)| live[i] && r == del)
            {
                Some(i) => {
                    live[i] = false;
                    claimed.push(i);
                }
                None => return Err(index),
            }
        }
        claimed.sort_unstable();
        Ok(claimed)
    }

    fn r(xlo: f64, ylo: f64, xhi: f64, yhi: f64) -> Rect {
        Rect { xlo, ylo, xhi, yhi }
    }

    /// A small pool, so draws collide often; `[0..3]` are equal under
    /// `==` (signed zeros) but not bitwise, `[7]` has a NaN.
    fn delete_pool() -> [Rect; 9] {
        [
            r(0.0, 0.0, 0.5, 0.5),
            r(-0.0, 0.0, 0.5, 0.5),
            r(0.0, -0.0, 0.5, 0.5),
            r(0.25, 0.25, 0.75, 0.75),
            r(0.25, 0.25, 0.75, 0.8),
            r(-0.0, -0.0, -0.0, -0.0),
            r(0.1, 0.2, 0.3, 0.4),
            r(0.1, f64::NAN, 0.3, 0.4),
            r(0.9, 0.9, 1.0, 1.0),
        ]
    }

    /// Compared bitwise: `==` would identify the signed zeros and never
    /// match a NaN row.
    fn bits(v: &[Rect]) -> Vec<[u64; 4]> {
        v.iter()
            .map(|r| [r.xlo, r.ylo, r.xhi, r.yhi].map(f64::to_bits))
            .collect()
    }

    /// A random batch from `pool`: insert-only, delete-only or mixed.
    /// Inserts draw from `pool[..data_pool]`, deletes from the whole
    /// pool, so some deletes match nothing.
    fn random_batch(
        rng: &mut rand::rngs::StdRng,
        pool: &[Rect],
        data_pool: usize,
        max: usize,
    ) -> (Vec<Rect>, Vec<Rect>) {
        use rand::RngExt;
        let kind = rng.random_range(0..3u8);
        let n_ins = if kind == 1 {
            0
        } else {
            rng.random_range(0..max)
        };
        let n_del = if kind == 0 {
            0
        } else {
            rng.random_range(0..max)
        };
        let inserts = (0..n_ins)
            .map(|_| pool[rng.random_range(0..data_pool)])
            .collect();
        let deletes = (0..n_del)
            .map(|_| pool[rng.random_range(0..pool.len())])
            .collect();
        (inserts, deletes)
    }

    /// The kept delete index of table `t`, when a delete has built it.
    fn kept_index(c: &Catalog) -> Option<&Vec<u32>> {
        c.tables.get("t").and_then(|t| t.delete_index.get())
    }

    /// Seeded property over sequences of insert, delete and mixed
    /// batches on datasets full of duplicates, `±0.0` coordinates, a NaN
    /// coordinate and deletes that match nothing: the indexed
    /// resolution returns exactly the reference loop's claimed rows or
    /// failing batch index; removing those rows by position leaves
    /// exactly the rows a liveness-mask filter keeps, in order; and the
    /// index a commit keeps equals a fresh build, bit for bit.
    #[test]
    fn one_pass_delete_resolution_matches_the_reference_loop() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let pool = delete_pool();
        let mut rng = StdRng::seed_from_u64(0x0de1_e7e5);
        let mut outcomes = [0usize; 2];
        for _ in 0..400 {
            // Data draws from a random prefix of the pool.
            let data_pool = rng.random_range(1..=pool.len());
            let n = rng.random_range(0..40usize);
            let mut data: Vec<Rect> = (0..n)
                .map(|_| pool[rng.random_range(0..data_pool)])
                .collect();
            let mut index = delete_index::build(&data);
            for _ in 0..10 {
                let (inserts, deletes) = random_batch(&mut rng, &pool, data_pool, 12);
                let want = resolve_deletes_reference(&data, &deletes);
                let got = delete_index::resolve(&index, &data, &deletes);
                assert_eq!(got, want, "data {data:?}, deletes {deletes:?}");
                outcomes[usize::from(want.is_err())] += 1;
                let Ok(rows) = want else {
                    continue;
                };
                let kept: Vec<Rect> = data
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| rows.binary_search(i).is_err())
                    .map(|(_, r)| *r)
                    .collect();
                let before = data.clone();
                remove_rows(&mut data, &rows);
                assert_eq!(bits(&data), bits(&kept), "rows {rows:?} of {before:?}");
                data.extend_from_slice(&inserts);
                assert!(delete_index::commit(
                    &mut index,
                    &data,
                    &rows,
                    inserts.len()
                ));
                assert_eq!(
                    index,
                    delete_index::build(&data),
                    "kept index after deleting rows {rows:?} of {before:?} and inserting {inserts:?}"
                );
            }
        }
        assert!(
            outcomes.iter().all(|&k| k > 500),
            "both outcomes must be exercised: {outcomes:?}"
        );
    }

    /// The same property through the catalog, with compactions and
    /// reopens between the batches: every prepared batch claims the
    /// reference's rows or fails at its batch index, the recovered
    /// dataset is bitwise the tracked one, the kept index equals a
    /// fresh build after every step, and a rejected batch leaves it as
    /// it was. Registration rejects NaN rows and validation NaN deletes,
    /// so this draws from the pool's finite rectangles.
    #[test]
    fn kept_delete_index_survives_commits_compactions_and_reopens() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let pool = delete_pool();
        let finite: Vec<Rect> = pool.iter().copied().filter(Rect::is_finite).collect();
        let dir = temp_dir("delete_index");
        let mut rng = StdRng::seed_from_u64(0x1d3e_11de);
        let registered: Vec<Rect> = (0..30)
            .map(|_| finite[rng.random_range(0..finite.len())])
            .collect();
        let open = |rows: &[Rect]| {
            let mut c = Catalog::with_level(3);
            c.register(Dataset::new("t", Extent::unit(), rows.to_vec()))
                .unwrap();
            c.open_stats_store(&dir, CompactionPolicy::default())
                .unwrap();
            c
        };
        let mut c = open(&registered);
        let mut data = registered.clone();
        let mut counts = [0usize; 4];
        for step in 0..300 {
            match rng.random_range(0..10u8) {
                0 => {
                    c.compact("t").unwrap();
                    counts[2] += 1;
                }
                1 => {
                    drop(c);
                    c = open(&registered);
                    counts[3] += 1;
                }
                _ => {
                    let (inserts, mut deletes) = random_batch(&mut rng, &finite, finite.len(), 6);
                    if rng.random_range(0..8u8) == 0 {
                        deletes.push(r(0.6, 0.6, 0.7, 0.7));
                    }
                    let before = kept_index(&c).cloned();
                    let want = resolve_deletes_reference(&data, &deletes);
                    let prepared = c.prepare_delta("t", &inserts, &deletes, MutationId::UNSTAMPED);
                    match (prepared, &want) {
                        (Ok(PreparedOutcome::Fresh(p)), Ok(rows)) => {
                            assert_eq!(&p.deleted_rows, rows, "step {step}: {deletes:?}");
                        }
                        (Err(QueryError::DeleteNotFound { index, .. }), Err(at)) => {
                            assert_eq!(index, *at, "step {step}: {deletes:?}");
                        }
                        (got, _) => {
                            panic!("step {step}: prepared {:?}, reference {want:?}", got.err())
                        }
                    }
                    match (c.apply_delta("t", &inserts, &deletes), want) {
                        (Ok(_), Ok(rows)) => {
                            remove_rows(&mut data, &rows);
                            data.extend_from_slice(&inserts);
                            counts[0] += 1;
                        }
                        (Err(QueryError::DeleteNotFound { .. }), Err(_)) => {
                            if before.is_some() {
                                assert_eq!(kept_index(&c), before.as_ref(), "step {step}");
                            }
                            counts[1] += 1;
                        }
                        (got, want) => panic!("step {step}: {got:?}, reference {want:?}"),
                    }
                }
            }
            let rows = &c.dataset("t").unwrap().rects;
            assert_eq!(bits(rows), bits(&data), "step {step}");
            if let Some(index) = kept_index(&c) {
                assert_eq!(index, &delete_index::build(rows), "step {step}");
            }
        }
        assert!(
            counts.iter().all(|&k| k > 10),
            "applied, rejected, compacted, reopened: {counts:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The delete index numbers rows with `u32`: a table may hold
    /// `u32::MAX` rows, and a batch that would take it past them (or
    /// overflow the count) is refused before anything changes.
    #[test]
    fn the_row_bound_is_u32_max() {
        let max = usize::try_from(u32::MAX).unwrap();
        assert!(delete_index::fits(0) && delete_index::fits(max));
        assert!(!delete_index::fits(max + 1));
        assert!(!delete_index::fits(usize::MAX.saturating_add(1)));
    }

    /// A reopen replays logged deletes of duplicated rectangles through
    /// the index: they claim the reference's rows and leave the same
    /// dataset bytes. The index a decoy registration built before the
    /// reopen is reset by the base install, not carried over.
    #[test]
    fn replayed_duplicate_deletes_claim_the_reference_rows() {
        let dir = temp_dir("replay_duplicates");
        let policy = CompactionPolicy { max_tiers: 16 };
        let (a, b) = (r(0.1, 0.1, 0.2, 0.2), r(0.3, 0.3, 0.4, 0.4));
        let (z, nz) = (r(0.0, 0.0, 0.5, 0.5), r(-0.0, 0.0, 0.5, 0.5));
        let base = vec![a, z, b, a, nz, a, b, z];
        let batches = [
            (vec![a, z], vec![a, z]),
            (vec![], vec![a, a, nz]),
            (vec![b, nz], vec![b, z, a]),
        ];

        // Session 1: compact the base rows into `t.base`, then log the
        // batches to the WAL and "crash".
        let mut c1 = Catalog::with_level(3);
        c1.register(Dataset::new("t", Extent::unit(), base.clone()))
            .unwrap();
        c1.open_stats_store(&dir, policy).unwrap();
        assert!(c1.compact("t").unwrap().persisted);
        let mut expected = base;
        for (inserts, deletes) in &batches {
            let rows = resolve_deletes_reference(&expected, deletes).unwrap();
            remove_rows(&mut expected, &rows);
            expected.extend_from_slice(inserts);
            c1.apply_delta("t", inserts, deletes).unwrap();
        }
        assert_eq!(bits(&c1.dataset("t").unwrap().rects), bits(&expected));
        let statistics = c1.histogram("t").unwrap().to_bytes();
        drop(c1);

        // Session 2: a decoy registration whose index a failed delete
        // builds; the reopen installs the base and replays the WAL.
        let decoy = vec![b, b, a, a, z];
        let mut c2 = Catalog::with_level(3);
        c2.register(Dataset::new("t", Extent::unit(), decoy.clone()))
            .unwrap();
        let err = c2.apply_delta("t", &[], &[r(0.6, 0.6, 0.7, 0.7)]);
        assert!(matches!(
            err,
            Err(QueryError::DeleteNotFound { index: 0, .. })
        ));
        assert_eq!(kept_index(&c2), Some(&delete_index::build(&decoy)));
        let recovery = c2.open_stats_store(&dir, policy).unwrap();
        assert_eq!((recovery.installed, recovery.replayed), (1, 3));
        let rows = &c2.dataset("t").unwrap().rects;
        assert_eq!(
            bits(rows),
            bits(&expected),
            "replay must claim the reference rows"
        );
        assert_eq!(kept_index(&c2), Some(&delete_index::build(rows)));
        assert_eq!(c2.histogram("t").unwrap().to_bytes(), statistics);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tiers_accumulate_and_policy_compacts() {
        let mut c = catalog_with("t", 30, HistogramKind::Gh);
        let dir = temp_dir("policy");
        c.open_stats_store(&dir, CompactionPolicy { max_tiers: 3 })
            .unwrap();
        for round in 0..2 {
            let receipt = c
                .apply_delta("t", &rects(3, 0.02 * f64::from(round)), &[])
                .unwrap();
            assert!(!receipt.compacted);
            assert_eq!(receipt.pending_tiers, usize::try_from(round).unwrap() + 1);
        }
        assert!(!c.compaction_needed("t"));
        assert!(dir.join("t.wal").exists());

        // The third record trips max_tiers: automatic compaction.
        let receipt = c.apply_delta("t", &rects(3, 0.06), &[]).unwrap();
        assert!(receipt.compacted);
        assert_eq!(receipt.pending_tiers, 0);
        assert!(!c.compaction_needed("t"));
        assert!(
            !dir.join("t.wal").exists(),
            "compaction must delete the WAL"
        );
        assert!(
            !dir.join("t.hist").exists(),
            "compaction writes only the base file"
        );
        assert!(
            dir.join("t.base").exists(),
            "compaction must write the base file"
        );
        assert!(!dir.join("t.base.tmp").exists(), "swap must be atomic");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compaction counts records, not what their deltas touch: one
    /// rectangle spanning the extent changes every cell of a level-7 PH
    /// grid, yet compacts only as the `max_tiers`-th record, like any
    /// batch.
    #[test]
    fn a_grid_spanning_batch_compacts_on_the_record_count() {
        let dir = temp_dir("spanning");
        let mut c = Catalog::with_kind(HistogramKind::Ph, 7);
        c.register(Dataset::new("t", Extent::unit(), rects(20, 0.0)))
            .unwrap();
        c.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        let span = Rect::new(0.0, 0.0, 1.0, 1.0);
        let max = CompactionPolicy::default().max_tiers;
        for record in 1..max {
            let receipt = c.apply_delta("t", &[span], &[]).unwrap();
            assert!(!receipt.compacted, "record {record} compacted");
            assert_eq!(receipt.pending_tiers, record);
        }
        assert!(!dir.join("t.base").exists());
        let receipt = c.apply_delta("t", &[span], &[]).unwrap();
        assert!(receipt.compacted, "record {max} must compact");
        assert_eq!(receipt.pending_tiers, 0);
        assert!(dir.join("t.base").exists());
        assert!(!dir.join("t.wal").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// WAL replay counts toward the pending records: after a reopen
    /// that replays k records, the next batch is record k + 1, and the
    /// `max_tiers`-th compacts. Replay itself never compacts, so a WAL
    /// longer than `max_tiers` (written under a larger one) keeps every
    /// record until the next logged batch compacts them all.
    #[test]
    fn replayed_records_count_toward_compaction() {
        let max = CompactionPolicy::default().max_tiers;
        let reopen = |dir: &Path| {
            let mut c = Catalog::with_kind(HistogramKind::Gh, 4);
            c.register_with_statistics(
                Dataset::new("t", Extent::unit(), rects(30, 0.0)),
                &std::fs::read(dir.join("t.hist")).unwrap(),
            )
            .unwrap();
            let recovery = c
                .open_stats_store(dir, CompactionPolicy::default())
                .unwrap();
            (c, recovery.replayed)
        };
        for k in 1..=max + 1 {
            let dir = temp_dir(&format!("pending{k}"));
            let mut c1 = catalog_with("t", 30, HistogramKind::Gh);
            c1.save_statistics(&dir).unwrap();
            let unbounded = CompactionPolicy {
                max_tiers: usize::MAX,
            };
            c1.open_stats_store(&dir, unbounded).unwrap();
            for i in 0..k {
                c1.apply_delta("t", &rects(2, 0.01 * i as f64), &[])
                    .unwrap();
            }
            let want = c1.histogram("t").unwrap().to_bytes();
            drop(c1);
            let (c2, replayed) = reopen(&dir);
            assert_eq!(replayed, k);
            assert!(!dir.join("t.base").exists(), "k = {k}: replay compacted");
            drop(c2);
            // A second reopen, as after a crash, still finds every record.
            let (mut c3, replayed) = reopen(&dir);
            assert_eq!(replayed, k);
            assert_eq!(c3.histogram("t").unwrap().to_bytes(), want, "k = {k}");
            let receipt = c3.apply_delta("t", &rects(2, 0.07), &[]).unwrap();
            let compacted = k + 1 >= max;
            assert_eq!(receipt.compacted, compacted, "k = {k}");
            let pending = if compacted { 0 } else { k + 1 };
            assert_eq!(receipt.pending_tiers, pending, "k = {k}");
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    /// The restart hazard the snapshot exists to prevent: once a
    /// compaction folds inserts into the base, the original source no
    /// longer matches the statistics. A new process registering from
    /// that source must still recover the exact pre-shutdown state.
    #[test]
    fn restart_after_compaction_recovers_exact_state() {
        let dir = temp_dir("restart");
        let mut c1 = catalog_with("t", 40, HistogramKind::Gh);
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        c1.apply_delta("t", &rects(8, 0.1), &[]).unwrap();
        c1.compact("t").unwrap();
        let del: Vec<Rect> = rects(40, 0.0).into_iter().step_by(9).collect();
        c1.apply_delta("t", &[], &del).unwrap();
        let expected = c1.histogram("t").unwrap().to_bytes();
        let expected_rects = c1.dataset("t").unwrap().rects.clone();
        drop(c1);

        // Next process: registration defers to the snapshot.
        let mut c2 = Catalog::with_kind(HistogramKind::Gh, 4);
        c2.register_deferred(Dataset::new("t", Extent::unit(), rects(40, 0.0)))
            .unwrap();
        let recovery = c2
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        assert_eq!(recovery.installed, 1);
        assert_eq!(recovery.replayed, 1, "the post-compaction delete batch");
        assert_eq!(recovery.skipped, 0);
        assert_eq!(c2.dataset("t").unwrap().rects, expected_rects);
        assert_eq!(
            c2.histogram("t").unwrap().to_bytes(),
            expected,
            "snapshot + fenced WAL replay must reproduce the exact state"
        );

        // A plain registration (statistics built from the stale source)
        // recovers identically: the snapshot supersedes it.
        let mut c3 = Catalog::with_kind(HistogramKind::Gh, 4);
        c3.register(Dataset::new("t", Extent::unit(), rects(40, 0.0)))
            .unwrap();
        c3.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        assert_eq!(c3.histogram("t").unwrap().to_bytes(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash between the base file swap and the WAL unlink: the folded
    /// WAL survives, and every record in it is fenced off by sequence
    /// number instead of being applied twice.
    #[test]
    fn stale_wal_left_by_crash_after_snapshot_swap_is_fenced_off() {
        let dir = temp_dir("fence");
        let mut c1 = catalog_with("t", 25, HistogramKind::Gh);
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        c1.apply_delta("t", &rects(6, 0.1), &[]).unwrap();
        let stale = std::fs::read(dir.join("t.wal")).unwrap();
        c1.compact("t").unwrap();
        let expected = c1.histogram("t").unwrap().to_bytes();
        drop(c1);
        std::fs::write(dir.join("t.wal"), &stale).unwrap();

        let mut c2 = Catalog::with_kind(HistogramKind::Gh, 4);
        c2.register_deferred(Dataset::new("t", Extent::unit(), rects(25, 0.0)))
            .unwrap();
        let recovery = c2
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        assert_eq!(recovery.skipped, 1, "folded record must not re-apply");
        assert_eq!(recovery.replayed, 0);
        assert_eq!(c2.histogram("t").unwrap().to_bytes(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A saved `.hist` that is stale (here: it already covers the WAL's
    /// batch) or damaged next to a WAL and no base file: the WAL holds
    /// every batch since registration, so rebuilding statistics from the
    /// registered dataset and replaying recovers exactly.
    #[test]
    fn half_compacted_histogram_without_snapshot_recovers_from_source() {
        let dir = temp_dir("firstcrash");
        let mut c1 = catalog_with("t", 20, HistogramKind::Gh);
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        c1.apply_delta("t", &rects(5, 0.1), &[]).unwrap();
        let expected = c1.histogram("t").unwrap().to_bytes();
        std::fs::write(dir.join("t.hist"), c1.histogram("t").unwrap().persist()).unwrap();
        drop(c1);

        // A lenient registration rejects the stale histogram (it covers
        // 25 objects, the source has 20) ...
        let mut c2 = Catalog::with_kind(HistogramKind::Gh, 4);
        let reason = c2
            .register_with_statistics_lenient(
                Dataset::new("t", Extent::unit(), rects(20, 0.0)),
                &std::fs::read(dir.join("t.hist")).unwrap(),
            )
            .unwrap();
        assert!(reason.is_some());
        // ... but recovery rebuilds base statistics from the dataset
        // and replays the full WAL on top.
        let recovery = c2
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        assert_eq!(recovery.replayed, 1);
        assert_eq!(c2.table_len("t").unwrap(), 25);
        assert_eq!(c2.histogram("t").unwrap().to_bytes(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Base files are swapped atomically, so unlike the WAL any damage —
    /// a flipped byte, a short file — is a typed error, never tolerated,
    /// and so is the retired version-2 layout (a snapshot paired with a
    /// separate `.hist` by CRC), sealed with a valid checksum.
    #[test]
    fn corrupt_snapshot_is_a_typed_error() {
        let dir = temp_dir("badsnap");
        let mut c1 = catalog_with("t", 20, HistogramKind::Gh);
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        c1.apply_delta("t", &rects(3, 0.1), &[]).unwrap();
        c1.compact("t").unwrap();
        drop(c1);
        let good = std::fs::read(dir.join("t.base")).unwrap();

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        // Version 2: the same fields with a `hist_crc` after `next_seq`
        // and nothing after the section's own CRC32.
        let n = usize::try_from(u64::from_le_bytes(good[16..24].try_into().unwrap())).unwrap();
        let section = SNAPSHOT_HEADER_LEN + n * 32 + 4;
        let mut v2 = good[..16].to_vec();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&0u32.to_le_bytes());
        v2.extend_from_slice(&good[16..section]);
        let crc = crc32(&v2);
        v2.extend_from_slice(&crc.to_le_bytes());
        for (what, bytes) in [
            ("flipped byte", flipped),
            ("truncated", good[..good.len() - 9].to_vec()),
            ("version 2", v2),
        ] {
            std::fs::write(dir.join("t.base"), &bytes).unwrap();
            let mut c = Catalog::with_kind(HistogramKind::Gh, 4);
            c.register_deferred(Dataset::new("t", Extent::unit(), rects(20, 0.0)))
                .unwrap();
            let err = c
                .open_stats_store(&dir, CompactionPolicy::default())
                .unwrap_err();
            assert!(
                matches!(err, QueryError::Histogram(HistogramError::Corrupt { .. })),
                "{what} base file must be typed, got {err:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Crash recovery: base envelope + WAL replay reproduces the exact
    /// pre-crash statistics, and a torn trailing record is tolerated.
    #[test]
    fn wal_replay_recovers_pre_crash_state() {
        let dir = temp_dir("replay");
        let ins = rects(8, 0.1);
        let del: Vec<Rect> = rects(40, 0.0).into_iter().step_by(7).collect();

        // Session 1: register, persist base, mutate (logged to WAL), "crash".
        let mut c1 = catalog_with("t", 40, HistogramKind::Gh);
        c1.save_statistics(&dir).unwrap();
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        c1.apply_delta("t", &ins, &del).unwrap();
        let expected = c1.histogram("t").unwrap().to_bytes();
        let expected_len = c1.table_len("t").unwrap();

        // Session 2: reload the base envelope, then replay the WAL.
        let mut c2 = Catalog::with_kind(HistogramKind::Gh, 4);
        let base = std::fs::read(dir.join("t.hist")).unwrap();
        c2.register_with_statistics(Dataset::new("t", Extent::unit(), rects(40, 0.0)), &base)
            .unwrap();
        let recovery = c2
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        assert_eq!(recovery.replayed, 1);
        assert_eq!(recovery.torn_tails, 0);
        assert_eq!(c2.table_len("t").unwrap(), expected_len);
        assert_eq!(
            c2.histogram("t").unwrap().to_bytes(),
            expected,
            "WAL replay must reproduce the pre-crash statistics exactly"
        );
        // Replay did not re-log: the WAL still holds exactly one record.
        let wal_len = std::fs::metadata(dir.join("t.wal")).unwrap().len();

        // Session 3: torn tail — append half a record; replay tolerates it.
        let mut torn = std::fs::read(dir.join("t.wal")).unwrap();
        torn.extend_from_slice(&torn.clone()[..WAL_HEADER_LEN + 7]);
        std::fs::write(dir.join("t.wal"), &torn).unwrap();
        let mut c3 = Catalog::with_kind(HistogramKind::Gh, 4);
        c3.register_with_statistics(
            Dataset::new("t", Extent::unit(), rects(40, 0.0)),
            &std::fs::read(dir.join("t.hist")).unwrap(),
        )
        .unwrap();
        let recovery = c3
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        assert_eq!(recovery.replayed, 1);
        assert_eq!(recovery.torn_tails, 1);
        assert_eq!(c3.histogram("t").unwrap().to_bytes(), expected);

        // Mid-file corruption, by contrast, is a typed error.
        let mut bad = std::fs::read(dir.join("t.wal")).unwrap();
        bad[WAL_HEADER_LEN + 3] ^= 0x40;
        bad.truncate(usize::try_from(wal_len).unwrap());
        std::fs::write(dir.join("t.wal"), &bad).unwrap();
        let mut c4 = Catalog::with_kind(HistogramKind::Gh, 4);
        c4.register_with_statistics(
            Dataset::new("t", Extent::unit(), rects(40, 0.0)),
            &std::fs::read(dir.join("t.hist")).unwrap(),
        )
        .unwrap();
        let err = c4
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap_err();
        assert!(
            matches!(err, QueryError::Histogram(HistogramError::Corrupt { .. })),
            "checksum failure must be typed, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Retrying a stamped batch applies exactly once; the duplicate is
    /// reported, mutates nothing, and a *different* ID with identical
    /// content still applies (dedup is keyed by ID, not content).
    #[test]
    fn stamped_retry_is_deduplicated() {
        let mut c = catalog_with("t", 20, HistogramKind::Gh);
        let ins = rects(5, 0.1);
        let id = MutationId::new(7, 1);
        let first = c.apply_delta_idempotent("t", &ins, &[], id).unwrap();
        assert!(!first.deduplicated);
        assert_eq!(c.table_len("t").unwrap(), 25);
        let after_first = c.histogram("t").unwrap().to_bytes();

        let retry = c.apply_delta_idempotent("t", &ins, &[], id).unwrap();
        assert!(retry.deduplicated);
        assert_eq!(c.table_len("t").unwrap(), 25, "retry must not double-apply");
        assert_eq!(c.histogram("t").unwrap().to_bytes(), after_first);

        let fresh = c
            .apply_delta_idempotent("t", &ins, &[], MutationId::new(7, 2))
            .unwrap();
        assert!(
            !fresh.deduplicated,
            "a new ID applies even with identical content"
        );
        assert_eq!(c.table_len("t").unwrap(), 30);
    }

    /// A failed batch must stay retryable under the same ID: validation
    /// failures happen before the ID is remembered.
    #[test]
    fn failed_batch_does_not_burn_its_id() {
        let mut c = catalog_with("t", 10, HistogramKind::Gh);
        let id = MutationId::new(3, 1);
        let missing = Rect::new(0.9, 0.9, 0.95, 0.95);
        let err = c
            .apply_delta_idempotent("t", &[], &[missing], id)
            .unwrap_err();
        assert!(matches!(err, QueryError::DeleteNotFound { .. }));
        let ok = c
            .apply_delta_idempotent("t", &rects(2, 0.1), &[], id)
            .unwrap();
        assert!(
            !ok.deduplicated,
            "the failed attempt must not have burned the ID"
        );
    }

    /// The crash that motivates idempotency: the WAL holds the batch
    /// (the server applied it), the client never saw a reply and
    /// retries against a restarted server. Replay populates the dedup
    /// ring, so the retry lands exactly once.
    #[test]
    fn retry_after_crash_recovery_is_deduplicated() {
        let dir = temp_dir("retrycrash");
        let mut c1 = catalog_with("t", 20, HistogramKind::Gh);
        c1.save_statistics(&dir).unwrap();
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        let ins = rects(4, 0.1);
        let id = MutationId::new(11, 1);
        c1.apply_delta_idempotent("t", &ins, &[], id).unwrap();
        let expected = c1.histogram("t").unwrap().to_bytes();
        drop(c1); // crash before the reply reached the client

        let mut c2 = Catalog::with_kind(HistogramKind::Gh, 4);
        c2.register_with_statistics(
            Dataset::new("t", Extent::unit(), rects(20, 0.0)),
            &std::fs::read(dir.join("t.hist")).unwrap(),
        )
        .unwrap();
        let recovery = c2
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        assert_eq!(recovery.replayed, 1);
        let retry = c2.apply_delta_idempotent("t", &ins, &[], id).unwrap();
        assert!(retry.deduplicated, "replay must arm the dedup ring");
        assert_eq!(c2.table_len("t").unwrap(), 24);
        assert_eq!(c2.histogram("t").unwrap().to_bytes(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compaction deletes the WAL, so the dedup ring rides in the
    /// snapshot: a retry that straddles compaction + restart still
    /// lands exactly once.
    #[test]
    fn dedup_ring_survives_compaction_and_restart() {
        let dir = temp_dir("dedupsnap");
        let mut c1 = catalog_with("t", 20, HistogramKind::Gh);
        c1.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        let ins = rects(4, 0.1);
        let id = MutationId::new(21, 5);
        c1.apply_delta_idempotent("t", &ins, &[], id).unwrap();
        c1.compact("t").unwrap();
        assert!(!dir.join("t.wal").exists());
        drop(c1);

        let mut c2 = Catalog::with_kind(HistogramKind::Gh, 4);
        c2.register_deferred(Dataset::new("t", Extent::unit(), rects(20, 0.0)))
            .unwrap();
        c2.open_stats_store(&dir, CompactionPolicy::default())
            .unwrap();
        let retry = c2.apply_delta_idempotent("t", &ins, &[], id).unwrap();
        assert!(retry.deduplicated, "snapshot must carry the dedup ring");
        assert_eq!(c2.table_len("t").unwrap(), 24);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The ring is bounded: the oldest IDs are evicted once more than
    /// [`REMEMBERED_MUTATIONS`] stamped batches have applied.
    #[test]
    fn dedup_ring_is_bounded() {
        let mut store = TableStore::default();
        for seq in 1..=(REMEMBERED_MUTATIONS as u64 + 10) {
            store.remember(MutationId::new(1, seq));
        }
        assert_eq!(store.recent_ids.len(), REMEMBERED_MUTATIONS);
        assert_eq!(store.id_index.len(), REMEMBERED_MUTATIONS);
        assert!(!store.is_applied(MutationId::new(1, 1)), "oldest evicted");
        assert!(store.is_applied(MutationId::new(1, 11)));
        assert!(!store.is_applied(MutationId::UNSTAMPED));
    }

    /// Hand-encodes a retired version-1 WAL record: the version-2
    /// layout minus the 16 mutation-ID bytes, CRC-sealed.
    fn v1_wal_record(inserts: &[Rect]) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&WAL_MAGIC.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&u32::try_from(inserts.len()).unwrap().to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        for r in inserts {
            for v in [r.xlo, r.ylo, r.xhi, r.yhi] {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        buf
    }

    /// Version 2 is the only WAL layout read: a well-formed, CRC-sealed
    /// version-1 record is a typed error, not a second layout to guess.
    /// Record boundaries of version-2 logs, stamped or not, are found
    /// from the one header length.
    #[test]
    fn v1_wal_records_are_rejected() {
        let ins = rects(3, 0.1);
        let v1 = v1_wal_record(&ins);
        for result in [
            decode_wal(&v1).map(|_| ()),
            wal_record_ends(&v1).map(|_| ()),
        ] {
            assert!(
                matches!(
                    result,
                    Err(QueryError::Histogram(HistogramError::Corrupt { .. }))
                ),
                "a version-1 WAL record must be a typed error, got {result:?}"
            );
        }

        let mut buf = encode_wal_record(0, MutationId::UNSTAMPED, &ins, &[]);
        buf.extend_from_slice(&encode_wal_record(1, MutationId::new(9, 9), &ins, &ins));
        let (records, _) = decode_wal(&buf).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[1].id, MutationId::new(9, 9));
        assert_eq!(
            wal_record_ends(&buf).unwrap(),
            vec![WAL_HEADER_LEN + 3 * 32 + 4, 2 * WAL_HEADER_LEN + 9 * 32 + 8]
        );
    }

    /// Recovery meets a WAL whose record says the retired version 1 with
    /// a typed error, and nothing replays.
    #[test]
    fn v1_wal_fails_open_with_a_typed_error() {
        let dir = temp_dir("v1wal");
        let c1 = catalog_with("t", 20, HistogramKind::Gh);
        c1.save_statistics(&dir).unwrap();
        let base = c1.histogram("t").unwrap().to_bytes();
        std::fs::write(dir.join("t.wal"), v1_wal_record(&rects(4, 0.1))).unwrap();
        let mut c2 = Catalog::with_kind(HistogramKind::Gh, 4);
        c2.register_with_statistics(
            Dataset::new("t", Extent::unit(), rects(20, 0.0)),
            &std::fs::read(dir.join("t.hist")).unwrap(),
        )
        .unwrap();
        let err = c2
            .open_stats_store(&dir, CompactionPolicy::default())
            .unwrap_err();
        assert!(
            matches!(err, QueryError::Histogram(HistogramError::Corrupt { .. })),
            "version-1 WAL record must be typed, got {err:?}"
        );
        assert_eq!(c2.table_len("t").unwrap(), 20, "nothing may replay");
        assert_eq!(c2.histogram("t").unwrap().to_bytes(), base);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The compaction swap leaves no tmp files and (with `RealStoreIo`)
    /// fsyncs data before each rename; this pins the call order via a
    /// recording [`StoreIo`].
    #[test]
    #[expect(
        clippy::disallowed_types,
        reason = "the recording StoreIo is a single-lock test double outside the lock hierarchy"
    )]
    fn compaction_syncs_before_renaming() {
        use std::sync::Mutex;
        struct Recording(Mutex<Vec<String>>, RealStoreIo);
        impl StoreIo for Recording {
            fn create_dir_all(&self, d: &Path) -> std::io::Result<()> {
                self.1.create_dir_all(d)
            }
            fn exists(&self, p: &Path) -> bool {
                self.1.exists(p)
            }
            fn read(&self, p: &Path) -> std::io::Result<Vec<u8>> {
                self.1.read(p)
            }
            fn append_wal(&self, p: &Path, r: &[u8]) -> std::io::Result<()> {
                self.log("append", p);
                self.1.append_wal(p, r)
            }
            fn write(&self, p: &Path, b: &[u8]) -> std::io::Result<()> {
                self.log("write", p);
                self.1.write(p, b)
            }
            fn sync_file(&self, p: &Path) -> std::io::Result<()> {
                self.log("sync", p);
                self.1.sync_file(p)
            }
            fn rename(&self, f: &Path, t: &Path) -> std::io::Result<()> {
                self.log("rename", t);
                self.1.rename(f, t)
            }
            fn remove(&self, p: &Path) -> std::io::Result<()> {
                self.log("remove", p);
                self.1.remove(p)
            }
            fn sync_dir(&self, d: &Path) -> std::io::Result<()> {
                self.log("syncdir", d);
                self.1.sync_dir(d)
            }
        }
        impl Recording {
            fn log(&self, op: &str, p: &Path) {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("?");
                self.0.lock().unwrap().push(format!("{op} {name}"));
            }
        }

        let dir = temp_dir("synced");
        let io = Arc::new(Recording(Mutex::new(Vec::new()), RealStoreIo));
        let mut c = catalog_with("t", 15, HistogramKind::Gh);
        c.open_stats_store_with_io(&dir, CompactionPolicy::default(), io.clone())
            .unwrap();
        c.apply_delta("t", &rects(2, 0.1), &[]).unwrap();
        c.compact("t").unwrap();
        let ops = io.0.lock().unwrap().clone();
        let syncdir = format!("syncdir {}", dir.file_name().unwrap().to_str().unwrap());
        assert_eq!(
            ops,
            vec![
                "append t.wal",
                "write t.base.tmp",
                "sync t.base.tmp",
                "rename t.base",
                syncdir.as_str(),
                "remove t.wal",
            ],
            "one file, fsynced before its rename; no `.hist` is touched"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An fsync under a catalog-ranked guard would stall every estimate
    /// behind the disk: the debug tracker panics naming the operation.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "`sync_file` while holding Catalog")]
    fn sync_file_under_a_catalog_guard_panics() {
        use sj_core::sync::{LockRank, OrderedRwLock};
        let catalog = OrderedRwLock::new(LockRank::Catalog, "t.catalog", ());
        let _guard = catalog.read();
        let _ = RealStoreIo.sync_file(&temp_dir("fsync-under-catalog").join("f"));
    }

    /// The same fsync passes with no lock held, as single-threaded CLI
    /// paths do it, and under the daemon pipeline's `StatsStore` and
    /// `WalFile` guards.
    #[test]
    fn sync_file_outside_the_catalog_lock_passes() {
        use sj_core::sync::{LockRank, OrderedMutex};
        let dir = temp_dir("fsync-outside-catalog");
        let path = dir.join("f");
        RealStoreIo.create_dir_all(&dir).unwrap();
        RealStoreIo.write(&path, b"x").unwrap();
        RealStoreIo.sync_file(&path).unwrap();
        let pipeline = OrderedMutex::new(LockRank::StatsStore, "t.pipeline", ());
        let wal_io = OrderedMutex::new(LockRank::WalFile, "t.wal_io", ());
        let _pipeline = pipeline.lock();
        RealStoreIo.sync_file(&path).unwrap();
        let _wal_io = wal_io.lock();
        RealStoreIo.sync_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn estimates_track_incremental_mutations() {
        let mut c = Catalog::with_level(4);
        c.register(Dataset::new("a", Extent::unit(), rects(30, 0.0)))
            .unwrap();
        c.register(Dataset::new("b", Extent::unit(), rects(30, 0.05)))
            .unwrap();
        let before = c.estimate_join_pairs("a", "b").unwrap();
        c.apply_delta("a", &rects(30, 0.02), &[]).unwrap();
        let after = c.estimate_join_pairs("a", "b").unwrap();
        assert!(
            after > before,
            "doubling a table must raise the estimate ({before} -> {after})"
        );
        // The lazy index rebuilt over the mutated dataset.
        assert_eq!(c.rtree("a").unwrap().len(), 60);
    }

    /// The one-pass encoder the cached row prefix replaced: every row
    /// encoded and the whole snapshot section checksummed cold.
    fn encode_base_reference(
        next_seq: u64,
        rects: &[Rect],
        ids: &[MutationId],
        stats: &dyn SpatialHistogram,
    ) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
        buf.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        buf.extend_from_slice(&next_seq.to_le_bytes());
        buf.extend_from_slice(&(rects.len() as u64).to_le_bytes());
        for r in rects {
            buf.extend_from_slice(&rect_bytes(r));
        }
        buf.extend_from_slice(&(u32::try_from(ids.len()).unwrap()).to_le_bytes());
        for id in ids {
            buf.extend_from_slice(&id.token.to_le_bytes());
            buf.extend_from_slice(&id.seq.to_le_bytes());
        }
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        stats.persist_into(&mut buf);
        buf
    }

    /// Table `t`'s cached prefix length, 0 before its first batch.
    fn prefix_rows(c: &Catalog) -> usize {
        c.store.tables.get("t").map_or(0, |t| t.cached_prefix().0)
    }

    /// `plan_compaction`'s bytes equal the reference encoder's over the
    /// same state, and the plan caches every row as the next prefix.
    fn assert_plan_matches_reference(c: &Catalog, step: usize, what: &str) {
        let entry = c.store.tables.get("t");
        let ids: Vec<MutationId> = entry
            .map(|t| t.recent_ids.iter().copied().collect())
            .unwrap_or_default();
        let table = &c.tables["t"];
        let StatsState::Ready(h) = table.stats() else {
            panic!("step {step}: table t has no statistics");
        };
        let rects = &table.dataset.rects;
        let next_seq = entry.map_or(0, |t| t.next_seq);
        let want = encode_base_reference(next_seq, rects, &ids, h.histogram());
        let plan = c.plan_compaction("t").unwrap().unwrap();
        let first_diff = plan.bytes.iter().zip(&want).position(|(a, b)| a != b);
        assert!(
            plan.bytes == want,
            "step {step} ({what}): {} bytes against the reference's {}, first difference at {first_diff:?}",
            plan.bytes.len(),
            want.len()
        );
        if entry.is_some() {
            assert_eq!(prefix_rows(c), rects.len(), "step {step} ({what})");
        }
    }

    /// The cached row prefix equals the cold path (DESIGN.md §13.3): a
    /// seeded sequence of inserts, tail deletes, deletes below the
    /// prefix, duplicate-key deletes, rejected `DeleteNotFound` batches,
    /// deduplicated retries, policy and explicit compactions and reopens
    /// through `install_base`, after each of which `plan_compaction`'s
    /// bytes equal the one-pass reference encoder's. Inserts and tail
    /// deletes must keep the prefix, a delete below it must drop it,
    /// and a reopen after a compaction must cover every row with it.
    #[test]
    fn cached_prefix_compaction_matches_the_one_pass_encoder() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let dir = temp_dir("prefix_crc");
        let registered = rects(120, 0.0);
        let open = || {
            let mut c = Catalog::with_level(4);
            c.register(Dataset::new("t", Extent::unit(), registered.clone()))
                .unwrap();
            c.open_stats_store(&dir, CompactionPolicy::default())
                .unwrap();
            c
        };
        let mut rng = StdRng::seed_from_u64(0x5eed_c3c5);
        let fresh = |rng: &mut StdRng, n: usize| -> Vec<Rect> {
            (0..n)
                .map(|_| {
                    let t = f64::from(rng.random_range(0..4000u32)) / 4500.0;
                    Rect::new(t, t * 0.5, t + 0.05, t * 0.5 + 0.03)
                })
                .collect()
        };
        let rows = |c: &Catalog| c.tables["t"].dataset.rects.clone();
        let mut c = open();
        assert_plan_matches_reference(&c, 0, "registration");
        let mut stamp = 0u64;
        let mut policy_compactions = 0;
        let mut counts = BTreeMap::new();
        for step in 1..=400 {
            let k = prefix_rows(&c);
            let data = rows(&c);
            let what = match rng.random_range(0..9u8) {
                0 => {
                    // Inserts leave every cached row as it was.
                    let mut k = k;
                    for _ in 0..rng.random_range(1..=3u8) {
                        let n = rng.random_range(1..8usize);
                        let batch = fresh(&mut rng, n);
                        let receipt = c.apply_delta("t", &batch, &[]).unwrap();
                        policy_compactions += usize::from(receipt.compacted);
                        if receipt.compacted {
                            k = c.table_len("t").unwrap();
                        }
                        assert_eq!(
                            prefix_rows(&c),
                            k,
                            "step {step}: an insert moved the prefix"
                        );
                    }
                    "inserts"
                }
                1 => {
                    // An insert, then a delete of some of its rows that
                    // no earlier row equals (an ingest's inverse
                    // delete): every claimed row is past the prefix.
                    let batch = fresh(&mut rng, 4);
                    let receipt = c.apply_delta("t", &batch, &[]).unwrap();
                    policy_compactions += usize::from(receipt.compacted);
                    let (k, data) = (prefix_rows(&c), rows(&c));
                    let tail: Vec<Rect> = batch
                        .into_iter()
                        .filter(|r| data.iter().position(|d| d == r).is_some_and(|i| i >= k))
                        .take(rng.random_range(1..4usize))
                        .collect();
                    let receipt = c.apply_delta("t", &[], &tail).unwrap();
                    policy_compactions += usize::from(receipt.compacted);
                    if !receipt.compacted {
                        assert_eq!(
                            prefix_rows(&c),
                            k,
                            "step {step}: a tail delete moved the prefix"
                        );
                    }
                    "tail deletes"
                }
                2 if k > 0 => {
                    let below = data[rng.random_range(0..k)];
                    let receipt = c.apply_delta("t", &fresh(&mut rng, 1), &[below]).unwrap();
                    policy_compactions += usize::from(receipt.compacted);
                    if !receipt.compacted {
                        assert_eq!(
                            prefix_rows(&c),
                            0,
                            "step {step}: a delete below the prefix kept it"
                        );
                    }
                    "delete below the prefix"
                }
                3 if k > 0 => {
                    // Two more copies of a cached row, then a batch
                    // deleting two rows of that key: the first claims
                    // the cached original.
                    let key = data[rng.random_range(0..k)];
                    c.apply_delta("t", &[key, key], &[]).unwrap();
                    assert_plan_matches_reference(&c, step, "duplicate-key inserts");
                    c.apply_delta("t", &[], &[key, key]).unwrap();
                    "duplicate-key deletes"
                }
                4 if k > 0 => {
                    let below = data[rng.random_range(0..k)];
                    let absent = Rect::new(0.97, 0.97, 0.98, 0.98);
                    let err = c.apply_delta("t", &[], &[below, absent]).unwrap_err();
                    assert!(matches!(err, QueryError::DeleteNotFound { index: 1, .. }));
                    assert_eq!(
                        prefix_rows(&c),
                        k,
                        "step {step}: a rejected batch moved the prefix"
                    );
                    "rejected delete"
                }
                5 if k > 0 => {
                    stamp += 1;
                    let id = MutationId::new(0x7ab1e, stamp);
                    let batch = fresh(&mut rng, 2);
                    let below = [data[rng.random_range(0..k)]];
                    let first = c.apply_delta_idempotent("t", &batch, &below, id).unwrap();
                    policy_compactions += usize::from(first.compacted);
                    let retry = c.apply_delta_idempotent("t", &batch, &below, id).unwrap();
                    assert!(retry.deduplicated, "step {step}");
                    "deduplicated retry"
                }
                6 => {
                    c.compact("t").unwrap();
                    "explicit compaction"
                }
                7 => {
                    // A reopen right after a compaction installs the
                    // base with every row as the prefix; otherwise the
                    // pending records replay over the installed prefix.
                    let compacted = step % 2 == 0;
                    if compacted {
                        c.compact("t").unwrap();
                    }
                    drop(c);
                    c = open();
                    if compacted {
                        assert_eq!(
                            prefix_rows(&c),
                            c.table_len("t").unwrap(),
                            "step {step}: the reopened base left rows outside the prefix"
                        );
                    }
                    "reopen"
                }
                _ => {
                    let n_del = rng.random_range(0..4usize).min(data.len());
                    let deletes: Vec<Rect> = (0..n_del)
                        .map(|_| data[rng.random_range(0..data.len())])
                        .collect();
                    match c.apply_delta("t", &fresh(&mut rng, 3), &deletes) {
                        Ok(receipt) => policy_compactions += usize::from(receipt.compacted),
                        Err(QueryError::DeleteNotFound { .. }) => {}
                        Err(e) => panic!("step {step}: {e}"),
                    }
                    "mixed batch"
                }
            };
            *counts.entry(what).or_insert(0) += 1;
            assert_plan_matches_reference(&c, step, what);
        }
        std::fs::remove_dir_all(&dir).ok();
        assert!(
            counts.len() == 9 && policy_compactions > 0,
            "every step kind and a policy compaction must run: {counts:?}, {policy_compactions}"
        );
    }
}
