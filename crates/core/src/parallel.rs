//! The workspace-wide parallel execution model.
//!
//! Every parallel code path in the workspace is driven by a
//! [`Parallelism`] value: the exact join dispatches to the R-tree's
//! parallel traversal, histogram builds shard rows across threads, and
//! the experiment runners fan independent configurations out over
//! [`parallel_map`]. All of it uses `std::thread::scope` — no extra
//! dependencies — and every parallel path keeps its serial twin intact
//! behind `threads == 1` so results can be equality-checked against the
//! serial oracle.

#![warn(clippy::exhaustive_enums)]

use crate::sync::{LockRank, OrderedMutex};
use std::num::NonZeroUsize;

/// Errors constructing a [`Parallelism`].
///
/// `#[non_exhaustive]`: future constructors may add failure modes
/// without a semver break; downstream matches keep a `_` arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParallelismError {
    /// Zero threads cannot run anything. Callers that want "clamp to
    /// serial" semantics must say so via [`Parallelism::saturating_new`].
    ZeroThreads,
}

impl std::fmt::Display for ParallelismError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParallelismError::ZeroThreads => {
                f.write_str("thread count must be at least 1 (0 threads cannot run anything)")
            }
        }
    }
}

impl std::error::Error for ParallelismError {}

// Public errors implement `Display` and `Error`; this fails to compile otherwise.
const _: fn(&ParallelismError) -> &dyn std::error::Error = |e| e;

/// How many OS threads a pipeline stage may use.
///
/// `Parallelism::default()` uses the machine's available parallelism;
/// [`Parallelism::serial`] pins everything to the sequential reference
/// implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    threads: NonZeroUsize,
}

impl Parallelism {
    /// Single-threaded execution: every stage runs its serial reference
    /// implementation.
    #[must_use]
    pub fn serial() -> Self {
        Self {
            threads: NonZeroUsize::MIN,
        }
    }

    /// Exactly `threads` OS threads.
    ///
    /// # Errors
    /// [`ParallelismError::ZeroThreads`] for `threads == 0` — library
    /// callers get the same typed rejection the CLI gives `--threads 0`,
    /// instead of a silent behavior change to serial execution.
    pub fn try_new(threads: usize) -> Result<Self, ParallelismError> {
        NonZeroUsize::new(threads)
            .map(|threads| Self { threads })
            .ok_or(ParallelismError::ZeroThreads)
    }

    /// Exactly `threads` OS threads, with `0` *documented* to saturate
    /// to 1 (serial). Use [`Parallelism::try_new`] when a zero from user
    /// input should be an error rather than a silent clamp.
    #[must_use]
    pub fn saturating_new(threads: usize) -> Self {
        Self {
            threads: NonZeroUsize::new(threads).unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// One thread per available hardware thread, falling back to serial
    /// when the platform cannot report its parallelism.
    #[must_use]
    pub fn available() -> Self {
        Self {
            threads: std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN),
        }
    }

    /// The configured thread count (always at least 1).
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// `true` when the serial reference paths will run.
    #[must_use]
    pub fn is_serial(&self) -> bool {
        self.threads.get() == 1
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Self::available()
    }
}

/// Maps `f` over `items` on a scoped worker pool of `par.threads()`
/// threads, preserving input order in the output.
///
/// Items are pulled from a shared queue, so uneven per-item costs (an
/// exact join at scale 1.0 next to one at scale 0.01) still balance.
/// With `par.is_serial()` the items are mapped on the caller's thread in
/// order — the serial oracle path.
///
/// # Panics
/// Propagates a panic from any worker thread.
pub fn parallel_map<T, U, F>(items: Vec<T>, par: Parallelism, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let workers = par.threads().min(items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Ranked above every daemon lock (DESIGN.md §15): an estimate path
    // may fan out here while holding a catalog read guard. A worker
    // panicking mid-item poisons the std lock underneath, but the queue
    // iterator itself is never left inconsistent: the wrappers recover
    // the guard instead of propagating a second panic.
    let queue = OrderedMutex::new(
        LockRank::WorkQueue,
        "parallel.queue",
        items.into_iter().enumerate(),
    );
    let results = OrderedMutex::new(LockRank::WorkResults, "parallel.results", Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let next = queue.lock().next();
                let Some((idx, item)) = next else {
                    break;
                };
                let out = f(item);
                results.lock().push((idx, out));
            });
        }
    });
    let mut out = results.into_inner();
    out.sort_unstable_by_key(|(idx, _)| *idx);
    out.into_iter().map(|(_, u)| u).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts() {
        assert_eq!(Parallelism::serial().threads(), 1);
        assert!(Parallelism::serial().is_serial());
        assert_eq!(Parallelism::saturating_new(0).threads(), 1);
        assert_eq!(Parallelism::saturating_new(6).threads(), 6);
        assert!(!Parallelism::saturating_new(6).is_serial());
        assert!(Parallelism::available().threads() >= 1);
    }

    #[test]
    fn try_new_rejects_zero_with_typed_error() {
        assert_eq!(
            Parallelism::try_new(0).unwrap_err(),
            ParallelismError::ZeroThreads
        );
        let msg = ParallelismError::ZeroThreads.to_string();
        assert!(msg.contains("at least 1"), "{msg}");
        assert_eq!(Parallelism::try_new(4).unwrap().threads(), 4);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8] {
            let got = parallel_map(items.clone(), Parallelism::saturating_new(threads), |x| {
                x * 3
            });
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_empty_and_single() {
        let empty: Vec<u32> = parallel_map(vec![], Parallelism::saturating_new(4), |x: u32| x);
        assert!(empty.is_empty());
        let one = parallel_map(vec![9u32], Parallelism::saturating_new(4), |x| x + 1);
        assert_eq!(one, vec![10]);
    }

    #[test]
    #[should_panic]
    fn parallel_map_propagates_worker_panics() {
        parallel_map(vec![0u32, 1], Parallelism::saturating_new(2), |x| {
            assert!(x != 1, "worker boom");
            x
        });
    }
}
