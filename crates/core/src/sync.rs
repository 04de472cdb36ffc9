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
//! thread-local stack of held ranks and asserts the discipline on
//! every acquisition; when *observe mode* is enabled (by the dynamic
//! verifier `sj-lint verify-locks`) violations are recorded into a
//! global lock-event log instead of panicking, together with every
//! acquisition and every instrumented blocking-I/O call, so the
//! verifier can rebuild the observed lock-order graph after the
//! workload. In release builds the wrappers compile down to the bare
//! `std::sync` lock plus poison recovery — no rank field, no
//! thread-local, no event log (`latency_server`'s sync gate requires
//! the overhead to stay ≤ 2% on the hot path).
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
    reason = "this layer wraps the std locks and atomics, and the tracker's own log mutex cannot be a ranked wrapper without recursing into itself"
)]

#[cfg(debug_assertions)]
use std::sync::atomic::Ordering;
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
    /// The catalog itself (`Arc<OrderedRwLock<Catalog>>`): many
    /// concurrent readers (estimates), short exclusive writers
    /// (in-memory commit only — never I/O).
    Catalog,
    /// The WAL/store file-I/O mutex (`CatalogService::wal_io`):
    /// serializes appends, fsyncs and compaction rewrites. Ranked
    /// *above* `Catalog`, so a thread holding it cannot take the catalog;
    /// file I/O under a catalog guard is what `verify-locks`' fsync
    /// oracle catches.
    WalFile,
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
        LockRank::Catalog,
        LockRank::WalFile,
        LockRank::WorkQueue,
        LockRank::WorkResults,
    ];

    /// Stable human name used in reports and DESIGN.md §15.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LockRank::ConnRegistry => "conn-registry",
            LockRank::StatsStore => "stats-store",
            LockRank::Catalog => "catalog",
            LockRank::WalFile => "wal-file",
            LockRank::WorkQueue => "work-queue",
            LockRank::WorkResults => "work-results",
        }
    }

    /// Numeric rank (the position in [`LockRank::ALL`]).
    #[must_use]
    pub fn level(self) -> usize {
        match self {
            LockRank::ConnRegistry => 0,
            LockRank::StatsStore => 1,
            LockRank::Catalog => 2,
            LockRank::WalFile => 3,
            LockRank::WorkQueue => 4,
            LockRank::WorkResults => 5,
        }
    }
}

/// A lock some thread held at the moment an event was recorded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeldLock {
    /// The held lock's rank.
    pub rank: LockRank,
    /// The held lock's construction-time name (e.g. `server.conns`).
    pub name: &'static str,
    /// `file:line` of the acquisition call site.
    pub site: String,
}

/// One entry of the global lock-event log (debug builds, observe mode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LockEvent {
    /// A ranked lock was acquired (`lock()`, `read()` or `write()`).
    Acquire {
        /// Rank of the acquired lock.
        rank: LockRank,
        /// Construction-time name of the acquired lock.
        name: &'static str,
        /// `file:line` of the acquisition call site.
        site: String,
        /// Snapshot of the locks the acquiring thread already held.
        held: Vec<HeldLock>,
        /// Ordinal of the acquiring thread (stable within a process).
        thread: u64,
    },
    /// An instrumented blocking-I/O call ran (see [`note_blocking_io`]).
    BlockingIo {
        /// Operation name (`append_wal`, `sync_file`, ...).
        op: String,
        /// Snapshot of the locks the calling thread held.
        held: Vec<HeldLock>,
        /// Ordinal of the calling thread.
        thread: u64,
    },
}

#[cfg(debug_assertions)]
mod tracking {
    use super::{HeldLock, LockEvent, LockRank};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, PoisonError};

    /// Observe mode: record instead of panicking on violations.
    pub(super) static OBSERVE: AtomicBool = AtomicBool::new(false);
    /// The global lock-event log, drained by `take_events`. Its own
    /// mutex is internal to the tracker — never held across user code,
    /// and a ranked wrapper here would recurse into itself.
    pub(super) static EVENTS: Mutex<Vec<LockEvent>> = Mutex::new(Vec::new());
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        static HELD: RefCell<Vec<HeldLock>> = const { RefCell::new(Vec::new()) };
        static ORDINAL: u64 = NEXT_THREAD.fetch_add(1, Ordering::SeqCst);
    }

    pub(super) fn thread_ordinal() -> u64 {
        ORDINAL.with(|o| *o)
    }

    pub(super) fn held_snapshot() -> Vec<HeldLock> {
        HELD.with(|h| h.borrow().clone())
    }

    /// Rank check, run *before* blocking on the lock. Panics on a rank
    /// inversion unless observing (the verifier wants the evidence, not
    /// the corpse).
    #[expect(
        clippy::panic,
        reason = "a rank inversion is a latent deadlock and must fail loudly in debug builds; observe mode records it for the verifier instead"
    )]
    pub(super) fn check_order(rank: LockRank, name: &'static str, site: &str) {
        let held = held_snapshot();
        let Some(worst) = held
            .iter()
            .filter(|h| h.rank >= rank)
            .max_by_key(|h| h.rank)
        else {
            return;
        };
        if OBSERVE.load(Ordering::SeqCst) {
            return; // recorded with its held snapshot in note_acquired
        }
        panic!(
            "lock-order violation: acquiring {:?} (rank {}) `{name}` at {site} \
             while holding {:?} (rank {}) `{}` acquired at {} — acquisition \
             ranks must strictly increase (DESIGN.md §15)",
            rank,
            rank.level(),
            worst.rank,
            worst.rank.level(),
            worst.name,
            worst.site,
        );
    }

    /// Records a successful acquisition onto the thread-local stack and
    /// (in observe mode) into the global log.
    pub(super) fn note_acquired(rank: LockRank, name: &'static str, site: String) {
        if OBSERVE.load(Ordering::SeqCst) {
            let ev = LockEvent::Acquire {
                rank,
                name,
                site: site.clone(),
                held: held_snapshot(),
                thread: thread_ordinal(),
            };
            EVENTS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ev);
        }
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

/// Enables or disables observe mode (debug builds only). Enabling
/// clears the event log; disabling leaves the log intact for
/// [`take_events`]. Release builds: no-op.
pub fn set_observe(enabled: bool) {
    #[cfg(debug_assertions)]
    {
        if enabled {
            tracking::EVENTS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clear();
        }
        tracking::OBSERVE.store(enabled, Ordering::SeqCst);
    }
    #[cfg(not(debug_assertions))]
    let _ = enabled;
}

/// Whether observe mode is currently enabled.
#[must_use]
pub fn observing() -> bool {
    #[cfg(debug_assertions)]
    {
        tracking::OBSERVE.load(Ordering::SeqCst)
    }
    #[cfg(not(debug_assertions))]
    {
        false
    }
}

/// Drains and returns the global lock-event log (debug builds; always
/// empty in release).
#[must_use]
pub fn take_events() -> Vec<LockEvent> {
    #[cfg(debug_assertions)]
    {
        std::mem::take(
            &mut tracking::EVENTS
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Instrumentation hook for blocking file/socket I/O: the storage layer
/// calls this with an operation name (`append_wal`, `sync_file`, ...)
/// so the verifier can see I/O performed while ranked locks are held.
/// Records only in observe mode; never panics (single-threaded CLI
/// paths legitimately do I/O with no locks held).
pub fn note_blocking_io(op: &str) {
    #[cfg(debug_assertions)]
    {
        if tracking::OBSERVE.load(Ordering::SeqCst) {
            let ev = LockEvent::BlockingIo {
                op: op.to_string(),
                held: tracking::held_snapshot(),
                thread: tracking::thread_ordinal(),
            };
            tracking::EVENTS
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(ev);
        }
    }
    #[cfg(not(debug_assertions))]
    let _ = op;
}

#[cfg(debug_assertions)]
fn caller_site(loc: &std::panic::Location<'_>) -> String {
    format!("{}:{}", loc.file(), loc.line())
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
    /// Wraps `value` in a mutex at `rank`, labelled `name` for reports.
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
            let site = caller_site(std::panic::Location::caller());
            tracking::check_order(self.rank, self.name, &site);
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
            let site = caller_site(std::panic::Location::caller());
            tracking::check_order(self.rank, self.name, &site);
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
            let site = caller_site(std::panic::Location::caller());
            tracking::check_order(self.rank, self.name, &site);
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

    /// The observe flag and event log are process-global; tests that
    /// touch them must not interleave.
    static SERIAL: StdMutex<()> = StdMutex::new(());

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
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let low = OrderedMutex::new(LockRank::ConnRegistry, "t.low", 1);
        let high = OrderedMutex::new(LockRank::Catalog, "t.high", 2);
        let a = low.lock();
        let b = high.lock();
        assert_eq!(*a + *b, 3);
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn rank_inversion_panics_outside_observe_mode() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let low = OrderedMutex::new(LockRank::ConnRegistry, "t.low", ());
        let high = OrderedMutex::new(LockRank::WalFile, "t.high", ());
        let _h = high.lock();
        let _l = low.lock(); // WalFile held, ConnRegistry requested: inversion
    }

    #[test]
    #[should_panic(expected = "lock-order violation")]
    fn same_rank_reacquisition_panics() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let a = OrderedMutex::new(LockRank::Catalog, "t.a", ());
        let b = OrderedMutex::new(LockRank::Catalog, "t.b", ());
        let _a = a.lock();
        let _b = b.lock();
    }

    #[test]
    fn early_drop_reopens_the_rank_window() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        let high = OrderedMutex::new(LockRank::WalFile, "t.high", ());
        let low = OrderedMutex::new(LockRank::StatsStore, "t.low", ());
        let g = high.lock();
        drop(g);
        let _l = low.lock(); // fine: nothing held any more
    }

    #[test]
    fn observe_mode_records_acquisitions_and_io() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        set_observe(true);
        let low = OrderedMutex::new(LockRank::StatsStore, "t.pipeline", ());
        let high = OrderedRwLock::new(LockRank::Catalog, "t.catalog", 7);
        {
            let _g = low.lock();
            let r = high.read();
            assert_eq!(*r, 7);
            note_blocking_io("sync_file");
        }
        set_observe(false);
        let events = take_events();
        assert!(events.iter().any(|e| matches!(
            e,
            LockEvent::Acquire { name: "t.pipeline", held, .. } if held.is_empty()
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            LockEvent::Acquire { name: "t.catalog", held, .. }
                if held.len() == 1 && held[0].rank == LockRank::StatsStore
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            LockEvent::BlockingIo { op, held, .. }
                if op == "sync_file" && held.iter().any(|h| h.rank == LockRank::Catalog)
        )));
        assert!(take_events().is_empty(), "take_events drains the log");
    }

    #[test]
    fn observe_mode_records_inversions_instead_of_panicking() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
        set_observe(true);
        let low = OrderedMutex::new(LockRank::StatsStore, "t.low", ());
        let high = OrderedMutex::new(LockRank::WalFile, "t.high", ());
        {
            let _h = high.lock();
            let _l = low.lock(); // inversion: recorded, not fatal
        }
        set_observe(false);
        let events = take_events();
        let inverted = events.iter().any(|e| {
            matches!(
                e,
                LockEvent::Acquire { rank: LockRank::StatsStore, held, .. }
                    if held.iter().any(|h| h.rank >= LockRank::StatsStore)
            )
        });
        assert!(inverted, "the inversion must appear in the log: {events:?}");
    }

    #[test]
    fn poison_is_recovered_by_every_acquisition_path() {
        let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
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
