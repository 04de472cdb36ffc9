//! `sj-lint` — the workspace's dynamic verifiers.
//!
//! The static rules live in rustc and clippy, configured in the
//! workspace `clippy.toml`, `[workspace.lints]` and per-module lint
//! attributes (DESIGN.md §10). This crate runs what no lint can see:
//! [`verify`] builds every histogram family a second way on seeded
//! datasets — sharded and merged, or incrementally through a signed
//! delta — and asserts the result's envelope bytes equal the baseline's
//! (localizing any divergence to the first differing cell and
//! statistic), and [`verify_recovery`] crash-tests the statistics
//! store's durability.
//!
//! Run them with `cargo run -p sj-lint -- verify-equivalence` (and its
//! `verify-recovery` sibling).

pub mod report;
pub mod verify;
pub mod verify_recovery;
