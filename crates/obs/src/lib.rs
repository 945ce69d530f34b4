//! # lbtrust-obs — the unified observability substrate
//!
//! The paper's pitch is *declarative* trust management — policies whose
//! behaviour you can inspect and explain — and this crate is the
//! runtime half of that promise: a zero-external-dependency toolkit
//! every other crate in the workspace threads through so that "where
//! did the time go", "do the ledgers reconcile" and "why was X
//! allowed" are all answerable from data the system already collected.
//!
//! Three pieces, layered smallest-first:
//!
//! * [`metrics`] — a process-local [`metrics::Registry`] of counters,
//!   gauges and log2-bucketed histograms behind cheap atomic handles.
//!   Handles are `Clone + Send + Sync`; recording is one atomic op.
//!   Snapshots come in two flavours: [`metrics::Registry::snapshot`]
//!   (everything) and [`metrics::Registry::deterministic_snapshot`],
//!   which excludes wall-clock timing histograms so two runs of one
//!   workload can compare registries byte-for-byte.
//! * [`journal`] — a structured event journal with pluggable sinks:
//!   [`journal::NullSink`] (disabled, the default), a fixed-capacity
//!   [`journal::RingSink`] for tests and in-process inspection, and a
//!   [`journal::JsonlSink`] writing one JSON object per line. The
//!   runtime records authorization decisions here together with the
//!   digests of the supporting credentials.
//! * [`json`] — the tiny JSON writer backing the JSONL sink (no serde
//!   in this workspace; the build environment has no registry access).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod json;
pub mod metrics;

pub use journal::{Event, EventSink, Field, Journal, JsonlSink, NullSink, RingSink};
pub use metrics::{Counter, Gauge, Histogram, MetricValue, Registry, Snapshot};
