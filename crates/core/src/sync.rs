//! Ranked lock wrappers — the concurrency-discipline layer (DESIGN.md §15).
//!
//! Every lock the workspace holds in library code is an
//! [`OrderedMutex`] or [`OrderedRwLock`] constructed with a
//! [`LockRank`]. The ranks form a total order and the discipline is
//! simple: **a thread may only acquire a lock of strictly higher rank
//! than every lock it already holds**. Any schedule that obeys a total
//! acquisition order is deadlock-free, so enforcing the order is
//! enforcing deadlock freedom.
//!
//! In debug builds (`cfg(debug_assertions)`) each wrapper keeps a
//! thread-local stack of held locks and panics on an acquisition that
//! breaks the order, naming both acquisition sites. The storage layer
//! reports every blocking file operation through [`note_blocking_io`],
//! which panics when the thread holds a [`LockRank::Catalog`] lock: an
//! fsync under the catalog would stall every estimate behind the disk.
//! So every debug test checks both rules on every path it runs. In
//! release builds the wrappers compile down to the bare `std::sync`
//! lock plus poison recovery — no rank field, no thread-local
//! (`latency_server`'s sync gate requires the overhead to stay ≤ 2% on
//! the hot path).
//!
//! Poison recovery is part of the wrapper contract: a panic under a
//! guard must never wedge the next acquirer, so `lock()`/`read()`/
//! `write()` recover poison via [`PoisonError::into_inner`] — the
//! policy every call site in the workspace already used by hand.
//!
//! Atomics go through [`SeqCstBool`] and [`SeqCstU64`], whose every
//! operation is `SeqCst`: no call site picks a weaker ordering, so none
//! has to argue that one is sound. `clippy.toml` disallows the
//! `std::sync::atomic` types everywhere else.

#![expect(
    clippy::disallowed_types,
    reason = "this layer wraps the std locks and atomics that clippy.toml disallows everywhere else"
)]

use std::sync::PoisonError;
use std::sync::{Mutex as StdMutex, RwLock as StdRwLock};

/// Position of a lock in the workspace-wide acquisition order.
///
/// Declaration order **is** rank order (`derive(PartialOrd, Ord)` on a
/// unit enum): a thread holding a lock may only acquire locks declared
/// *below* it here. The order encodes the call graph of the statistics
/// daemon — see DESIGN.md §15 for the full table and rationale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LockRank {
    /// The server's live-connection registry (`Server::conns`). Taken
    /// briefly by the accept loop and handler teardown, never while any
    /// statistics lock is held.
    ConnRegistry,
    /// The statistics mutation pipeline (`CatalogService::pipeline`):
    /// one coarse mutex serializing mutations and compactions so the
    /// catalog's `RwLock` never has to be held across file I/O.
    StatsStore,
    /// The WAL/store file-I/O mutex (`CatalogService::wal_io`):
    /// serializes appends, fsyncs and compaction rewrites. Ranked
    /// *below* `Catalog`, so taking it under a catalog guard is a rank
    /// inversion: file I/O never runs while estimates could be waiting.
    WalFile,
    /// The catalog itself (`Arc<OrderedRwLock<Catalog>>`): many
    /// concurrent readers (estimates), short exclusive writers
    /// (in-memory commit only — never I/O).
    Catalog,
    /// The work-distribution queue inside [`crate::parallel_map`].
    /// Ranked above every daemon lock: estimate paths may fan out to
    /// worker threads while a catalog read guard is held.
    WorkQueue,
    /// The result-collection vector inside [`crate::parallel_map`].
    WorkResults,
}

impl LockRank {
    /// Every rank, lowest (acquired first) to highest.
    pub const ALL: [LockRank; 6] = [
        LockRank::ConnRegistry,
        LockRank::StatsStore,
        LockRank::WalFile,
        LockRank::Catalog,
        LockRank::WorkQueue,
        LockRank::WorkResults,
    ];

    /// Stable human name of the rank.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LockRank::ConnRegistry => "conn-registry",
            LockRank::StatsStore => "stats-store",
            LockRank::WalFile => "wal-file",
            LockRank::Catalog => "catalog",
            LockRank::WorkQueue => "work-queue",
            LockRank::WorkResults => "work-results",
        }
    }

    /// Numeric rank (the position in [`LockRank::ALL`]).
    #[must_use]
    pub fn level(self) -> usize {
        self as usize
    }
}

#[cfg(debug_assertions)]
mod tracking {
    use super::LockRank;
    use std::cell::RefCell;
    use std::panic::Location;

    /// A lock the current thread holds.
    struct HeldLock {
        rank: LockRank,
        name: &'static str,
        site: &'static Location<'static>,
    }

    thread_local! {
        static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
    }

    /// The held lock of highest rank among those `pick` accepts, as
    /// `(rank, name, site)`.
    fn worst_held(
        pick: impl Fn(LockRank) -> bool,
    ) -> Option<(LockRank, &'static str, &'static Location<'static>)> {
        HELD.with(|h| {
            h.borrow()
                .iter()
                .filter(|h| pick(h.rank))
                .max_by_key(|h| h.rank)
                .map(|h| (h.rank, h.name, h.site))
        })
    }

    /// Rank check, run *before* blocking on the lock.
    #[expect(
        clippy::panic,
        reason = "a rank inversion is a latent deadlock and must fail loudly in debug builds"
    )]
    pub(super) fn check_order(rank: LockRank, name: &'static str, site: &Location<'_>) {
        if let Some((held, held_name, held_site)) = worst_held(|h| h >= rank) {
            panic!(
                "lock-order violation: acquiring {rank:?} (rank {}) `{name}` at {site} \
                 while holding {held:?} (rank {}) `{held_name}` acquired at {held_site} — \
                 acquisition ranks must strictly increase (DESIGN.md §15)",
                rank.level(),
                held.level(),
            );
        }
    }

    /// File-I/O check: the catalog lock is never held across the disk.
    #[expect(
        clippy::panic,
        reason = "file I/O under the catalog lock stalls every estimate behind the disk and must fail loudly in debug builds"
    )]
    pub(super) fn check_io(op: &str) {
        if let Some((held, held_name, held_site)) = worst_held(|h| h == LockRank::Catalog) {
            panic!(
                "file I/O under the catalog lock: `{op}` while holding {held:?} (rank {}) \
                 `{held_name}` acquired at {held_site} — estimates must never wait \
                 behind the disk (DESIGN.md §15)",
                held.level(),
            );
        }
    }

    /// Pushes a successful acquisition onto the thread-local stack.
    pub(super) fn note_acquired(
        rank: LockRank,
        name: &'static str,
        site: &'static Location<'static>,
    ) {
        HELD.with(|h| h.borrow_mut().push(HeldLock { rank, name, site }));
    }

    /// Pops the matching acquisition off the thread-local stack (guards
    /// may be dropped out of LIFO order — `drop(guard)` is legal).
    pub(super) fn note_released(rank: LockRank, name: &'static str) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(pos) = held.iter().rposition(|e| e.rank == rank && e.name == name) {
                held.remove(pos);
            }
        });
    }
}

/// Instrumentation hook for blocking file I/O: the storage layer calls
/// this with an operation name (`append_wal`, `sync_file`, ...) before
/// each operation. Debug builds panic when the calling thread holds a
/// [`LockRank::Catalog`] lock, naming the operation and where that lock
/// was taken; I/O with no lock held, or under `StatsStore` or `WalFile`
/// alone, passes. Release builds: no-op.
pub fn note_blocking_io(op: &str) {
    #[cfg(debug_assertions)]
    tracking::check_io(op);
    #[cfg(not(debug_assertions))]
    let _ = op;
}

/// A [`StdMutex`] that participates in the workspace lock hierarchy.
pub struct OrderedMutex<T> {
    inner: StdMutex<T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
    #[cfg(debug_assertions)]
    name: &'static str,
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedMutex")
            .field("inner", &self.inner)
            .finish()
    }
}

/// Guard returned by [`OrderedMutex::lock`]; in release builds this is
/// the bare [`std::sync::MutexGuard`].
#[cfg(debug_assertions)]
pub struct OrderedMutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    rank: LockRank,
    name: &'static str,
}

/// Guard returned by [`OrderedMutex::lock`] (release: the std guard).
#[cfg(not(debug_assertions))]
pub type OrderedMutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

#[cfg(debug_assertions)]
impl<T> std::ops::Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for OrderedMutexGuard<'_, T> {
    fn drop(&mut self) {
        tracking::note_released(self.rank, self.name);
    }
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex at `rank`, labelled `name` for the
    /// debug tracker's panic messages.
    #[must_use]
    pub fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (rank, name);
        OrderedMutex {
            inner: StdMutex::new(value),
            #[cfg(debug_assertions)]
            rank,
            #[cfg(debug_assertions)]
            name,
        }
    }

    /// Acquires the mutex, recovering poison. Debug builds assert the
    /// acquisition respects the rank order (see module docs).
    #[track_caller]
    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let site = std::panic::Location::caller();
            tracking::check_order(self.rank, self.name, site);
            let guard = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
            tracking::note_acquired(self.rank, self.name, site);
            OrderedMutexGuard {
                guard,
                rank: self.rank,
                name: self.name,
            }
        }
        #[cfg(not(debug_assertions))]
        {
            self.inner.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Consumes the mutex, returning the value (recovering poison).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// A [`StdRwLock`] that participates in the workspace lock hierarchy.
pub struct OrderedRwLock<T> {
    inner: StdRwLock<T>,
    #[cfg(debug_assertions)]
    rank: LockRank,
    #[cfg(debug_assertions)]
    name: &'static str,
}

impl<T: std::fmt::Debug> std::fmt::Debug for OrderedRwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OrderedRwLock")
            .field("inner", &self.inner)
            .finish()
    }
}

/// Shared guard returned by [`OrderedRwLock::read`]; in release builds
/// this is the bare [`std::sync::RwLockReadGuard`].
#[cfg(debug_assertions)]
pub struct OrderedReadGuard<'a, T> {
    guard: std::sync::RwLockReadGuard<'a, T>,
    rank: LockRank,
    name: &'static str,
}

/// Shared guard returned by [`OrderedRwLock::read`] (release).
#[cfg(not(debug_assertions))]
pub type OrderedReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;

/// Exclusive guard returned by [`OrderedRwLock::write`]; in release
/// builds this is the bare [`std::sync::RwLockWriteGuard`].
#[cfg(debug_assertions)]
pub struct OrderedWriteGuard<'a, T> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
    rank: LockRank,
    name: &'static str,
}

/// Exclusive guard returned by [`OrderedRwLock::write`] (release).
#[cfg(not(debug_assertions))]
pub type OrderedWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

#[cfg(debug_assertions)]
impl<T> std::ops::Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for OrderedReadGuard<'_, T> {
    fn drop(&mut self) {
        tracking::note_released(self.rank, self.name);
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> std::ops::DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for OrderedWriteGuard<'_, T> {
    fn drop(&mut self) {
        tracking::note_released(self.rank, self.name);
    }
}

impl<T> OrderedRwLock<T> {
    /// Wraps `value` in a reader-writer lock at `rank`, labelled `name`.
    #[must_use]
    pub fn new(rank: LockRank, name: &'static str, value: T) -> Self {
        #[cfg(not(debug_assertions))]
        let _ = (rank, name);
        OrderedRwLock {
            inner: StdRwLock::new(value),
            #[cfg(debug_assertions)]
            rank,
            #[cfg(debug_assertions)]
            name,
        }
    }

    /// Acquires a shared guard, recovering poison. Shared acquisitions
    /// obey the same rank discipline as exclusive ones — reader/writer
    /// deadlocks are still deadlocks.
    #[track_caller]
    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let site = std::panic::Location::caller();
            tracking::check_order(self.rank, self.name, site);
            let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
            tracking::note_acquired(self.rank, self.name, site);
            OrderedReadGuard {
                guard,
                rank: self.rank,
                name: self.name,
            }
        }
        #[cfg(not(debug_assertions))]
        {
            self.inner.read().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Acquires an exclusive guard, recovering poison.
    #[track_caller]
    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        #[cfg(debug_assertions)]
        {
            let site = std::panic::Location::caller();
            tracking::check_order(self.rank, self.name, site);
            let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
            tracking::note_acquired(self.rank, self.name, site);
            OrderedWriteGuard {
                guard,
                rank: self.rank,
                name: self.name,
            }
        }
        #[cfg(not(debug_assertions))]
        {
            self.inner.write().unwrap_or_else(PoisonError::into_inner)
        }
    }

    /// Consumes the lock, returning the value (recovering poison).
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// An [`std::sync::atomic::AtomicBool`] whose every operation is `SeqCst`.
#[derive(Debug)]
pub struct SeqCstBool(std::sync::atomic::AtomicBool);

impl SeqCstBool {
    /// A flag holding `value`.
    #[must_use]
    pub const fn new(value: bool) -> Self {
        SeqCstBool(std::sync::atomic::AtomicBool::new(value))
    }

    /// The current value.
    pub fn load(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Replaces the value.
    pub fn store(&self, value: bool) {
        self.0.store(value, std::sync::atomic::Ordering::SeqCst);
    }
}

/// An [`std::sync::atomic::AtomicU64`] whose every operation is `SeqCst`.
#[derive(Debug, Default)]
pub struct SeqCstU64(std::sync::atomic::AtomicU64);

impl SeqCstU64 {
    /// A counter holding `value`.
    #[must_use]
    pub const fn new(value: u64) -> Self {
        SeqCstU64(std::sync::atomic::AtomicU64::new(value))
    }

    /// The current value.
    pub fn load(&self) -> u64 {
        self.0.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Replaces the value.
    pub fn store(&self, value: u64) {
        self.0.store(value, std::sync::atomic::Ordering::SeqCst);
    }

    /// Adds `delta`, wrapping on overflow, and returns the previous value.
    pub fn fetch_add(&self, delta: u64) -> u64 {
        self.0.fetch_add(delta, std::sync::atomic::Ordering::SeqCst)
    }
}

#[cfg(all(test, debug_assertions))]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_strictly_ordered_and_named() {
        for w in LockRank::ALL.windows(2) {
            assert!(w[0] < w[1], "{:?} must rank below {:?}", w[0], w[1]);
        }
        for (i, r) in LockRank::ALL.iter().enumerate() {
            assert_eq!(r.level(), i);
            assert!(!r.name().is_empty());
        }
    }

    #[test]
    fn increasing_acquisitions_pass() {
        let low = OrderedMutex::new(LockRank::ConnRegistry, "t.low", 1);
        let high = OrderedMutex::new(LockRank::Catalog, "t.high", 2);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn rank_inversion_panics() {
        let low = OrderedMutex::new(LockRank::ConnRegistry, "t.low", ());
        let high = OrderedMutex::new(LockRank::WalFile, "t.high", ());
        let _h = high.lock();
        let _l = low.lock(); // WalFile held, ConnRegistry requested: inversion
    }

    /// The daemon's WAL mutex under a catalog guard: file I/O would stall
    /// every estimate, so the ranks alone reject it.
    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn wal_file_under_a_catalog_guard_panics() {
        let catalog = OrderedRwLock::new(LockRank::Catalog, "t.catalog", ());
        let wal_io = OrderedMutex::new(LockRank::WalFile, "t.wal_io", ());
        let _r = catalog.read();
        let _w = wal_io.lock();
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_reacquisition_panics() {
        let a = OrderedMutex::new(LockRank::Catalog, "t.a", ());
        let b = OrderedMutex::new(LockRank::Catalog, "t.b", ());
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    fn early_drop_reopens_the_rank_window() {
        let high = OrderedMutex::new(LockRank::WalFile, "t.high", ());
        let low = OrderedMutex::new(LockRank::StatsStore, "t.low", ());
        let g = high.lock();
        drop(g);
        let _l = low.lock(); // fine: nothing held any more
    }

    #[test]
    fn poison_is_recovered_by_every_acquisition_path() {
        let lock = std::sync::Arc::new(OrderedRwLock::new(LockRank::Catalog, "t.poison", 41));
        let clone = std::sync::Arc::clone(&lock);
        let _ = std::thread::spawn(move || {
            let _g = clone.write();
            panic!("poison the lock");
        })
        .join();
        assert_eq!(*lock.read(), 41, "read after poison");
        *lock.write() = 42;
        assert_eq!(*lock.read(), 42, "write after poison");
        let m = OrderedMutex::new(LockRank::Catalog, "t.into", 5);
        assert_eq!(m.into_inner(), 5);
    }
}
