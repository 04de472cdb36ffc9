//! `sj-lint` — the workspace's dynamic verifiers.
//!
//! The static rules live in rustc and clippy, configured in the
//! workspace `clippy.toml`, `[workspace.lints]` and per-module lint
//! attributes (DESIGN.md §10). This crate runs what no lint can see:
//! [`verify`] builds every histogram family a second way on seeded
//! datasets — sharded and merged, or incrementally through a signed
//! delta — and asserts the result's envelope bytes equal the baseline's
//! (localizing any divergence to the first differing cell and
//! statistic), [`verify_recovery`] crash-tests the statistics store's
//! durability, and [`verify_locks`] replays a concurrent daemon
//! workload under the ranked-lock instrumentation of `sj_core::sync`
//! and rejects rank inversions, observed lock-order cycles and file I/O
//! under the catalog lock.
//!
//! Run them with `cargo run -p sj-lint -- verify-equivalence` (and its
//! `verify-recovery`, `verify-locks` siblings).

pub mod report;
pub mod verify;
pub mod verify_locks;
pub mod verify_recovery;
