//! # mrlr-serve — the persistent solver service
//!
//! The paper's algorithms are round-efficient precisely so they can run
//! as a *shared service* over big inputs; this crate is that service. A
//! long-running daemon ([`server::serve`]) listens on a Unix socket,
//! keeps thread pools, parsed instances and freed memory warm across
//! requests, and answers `solve` / `batch` / `verify` requests whose
//! rendered documents are **byte-identical** to the offline `mrlr` CLI's
//! output (masked timings) — the CI serve-smoke job diffs them against
//! the same golden files.
//!
//! The shared-cluster budget of the MRC model shows up here as
//! *admission control*: a bounded in-flight set plus a bounded wait
//! queue, with overload answered by an explicit `Busy` frame and every
//! wait bounded by a per-request deadline. Identical concurrent solves
//! — same `(instance, key, cfg, backend)` — are *coalesced* onto one
//! solver run whose bit-identical report fans out to every waiter. The
//! instance text is digested once per solve ([`protocol::CoalesceKey`]);
//! that digest buckets both the coalescer and the parse cache, and a
//! match counts only once the whole spec or text compares equal.
//!
//! * [`protocol`] — the tagged request/response wire frames (dist wire
//!   discipline: canonical little-endian encodings, offset-exact decode
//!   errors, proptest contract in `tests/serve_wire.rs`).
//! * [`server`] — the daemon: admission gate, coalescer, warm registry
//!   execution, graceful drain.
//! * [`client`] — the blocking client the `mrlr client` subcommands and
//!   the `bench_serve` load generator drive.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, Served};
pub use protocol::{
    BatchJob, CoalesceKey, RenderOpts, ReportFormat, Request, Response, SolveSpec, StatsSnapshot,
};
pub use server::{serve, ServeConfig};
