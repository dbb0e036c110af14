//! A fault-tolerant shared archive service for `rigor`.
//!
//! Teams running the methodology on many machines need one authoritative
//! results archive. This crate provides both halves over plain
//! `std::net` (the workspace builds offline — no HTTP crate):
//!
//! - [`ArchiveServer`]: a small HTTP/1.1 server holding the one writable
//!   [`rigor_store::Store`] behind a lock. Uploads are idempotent by the
//!   128-bit run content id; `check` and `trend` run *server-side* so
//!   every client gates against the same history. Both take one request
//!   type, [`Query`], and are computed by [`check()`] and [`trend()`],
//!   which the CLI also calls over a local store, so a verdict does not
//!   depend on where the archive lives.
//! - [`RemoteStore`]: a resilient client implementing the campaign
//!   [`rigor::CellSink`]. Transient failures are retried with seeded
//!   exponential backoff; persistent failure opens a circuit breaker and
//!   diverts writes to a local write-ahead spool that is replayed — in
//!   grid order, idempotently — when the server returns.
//!
//! The failure model is exercised offline through
//! [`rigor::NetFaultPlan`]: the server can refuse, drop (apply the write
//! but withhold the ack), stall, 500, or speak garbage, all from a seeded
//! deterministic plan, so `rigor self-test` drives the client state
//! machine with no real network flakiness required.

#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod server;

pub use client::{RemoteError, RemoteStore};
pub use server::{
    check, trend, ArchiveServer, CheckResponse, Measurements, Query, ServeError, ServerHandle,
    TrendResponse,
};
