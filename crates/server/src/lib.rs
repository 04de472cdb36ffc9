//! `sj-server` — a long-running statistics daemon and its client.
//!
//! The paper's whole point is that selectivity estimates are *cheap*
//! once the histogram statistics exist — a handful of cell-array dot
//! products (Eq. 1–5). Paying full process startup and a cold catalog
//! load per estimate buries that cost advantage. This crate keeps the
//! catalog resident: load once, then answer `estimate` /
//! `window-count` / `explain` / `catalog-estimate` requests over a
//! simple length-framed binary protocol on std TCP, from as many
//! concurrent connections as the OS will hand us.
//!
//! Module split:
//!
//! * [`wire`] — the frame codec: magic + version + length + CRC32
//!   trailer (mirroring the v2 `.hist` envelope), payload primitives,
//!   the [`wire::status`] taxonomy shared with `sjsel` exit codes.
//! * [`service`] — [`service::StatisticsService`], the trait the server
//!   dispatches into, and [`service::CatalogService`], the
//!   `Arc<Catalog>`-backed implementation.
//! * [`server`] — TCP listener + one scoped handler thread per
//!   connection + the pure request dispatcher.
//! * [`client`] — the blocking client used by `sjsel client` and the
//!   in-process tests.
//!
//! No external dependencies: framing, checksums and threading are std
//! only, like everything else in the workspace.

#![warn(clippy::indexing_slicing)]

pub mod client;
pub mod server;
pub mod service;
pub mod wire;

pub use client::{Client, ClientError, RemoteFailure, RETRY_BACKOFF};
pub use server::{handle_request, Server, ServerConfig, ServerError};
pub use service::{
    CatalogService, CompactReply, EstimateReply, MutationReply, RemoteOutcome, ServiceError,
    StatisticsService,
};
// Re-exported so wire-level callers can stamp mutation ids without a
// direct sj-query dependency.
pub use sj_query::MutationId;
pub use wire::{status, Frame, Opcode, WireError, MAX_PAYLOAD, WIRE_VERSION};
