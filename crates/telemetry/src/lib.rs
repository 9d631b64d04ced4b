//! `specstab-telemetry` — the observability substrate shared by the
//! kernel, the campaign pipeline, and the bench harness.
//!
//! Reproducing the paper's quantitative claims means running multi-minute,
//! thousand-cell campaigns; this crate makes those runs observable without
//! perturbing their outputs:
//!
//! * [`counters`] — cheap per-run engine counters (steps, moves, guard
//!   and monitor evaluations, delta bytes, lane occupancy) accumulated in
//!   plain locals by the step loop and carried by each cell, so every
//!   campaign total is a sum of cells; plus a process-global lock-free
//!   aggregate of the instruments no run owns (scratch reuses,
//!   configuration clones, batch lane-step totals);
//! * [`json`] — the workspace's hand-rolled JSON value type: deterministic
//!   insertion-ordered writer (pretty and compact) and a strict,
//!   depth-bounded recursive-descent reader;
//! * [`event`] — the versioned `specstab-events/v1` NDJSON event stream:
//!   campaign/plan/shard/cell/merge lifecycle events with per-stream
//!   monotonic sequence numbers and timestamps, and a buffered
//!   [`event::TraceWriter`] (to a file, or in memory for the stream a
//!   worker ships inside its partial);
//! * [`metrics`] — the `specstab-metrics/v1` sidecar artifact (wall clock
//!   per cell/group/shard, throughput, counter totals, groups per engine
//!   path) built from an event stream, kept strictly separate from the
//!   deterministic campaign artifacts;
//! * [`progress`] — rate-limited stderr heartbeats: cells done/total with
//!   throughput and ETA for in-process sweeps, and a lease-table variant
//!   (leased/completed/expired/merged) for the `campaign serve`
//!   coordinator.
//!
//! The deliberate invariant threaded through all of it: **telemetry never
//! enters deterministic artifacts**. Wall clock, counters and host facts
//! live only in event streams and metrics sidecars, so the byte-identity
//! guarantees of `campaign.json` survive with tracing enabled.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod json;
pub mod metrics;
pub mod progress;

pub use counters::{global, CounterSnapshot, RunCounters};
pub use event::{
    parse_ndjson, validate_events, Event, EventKind, ParseTally, TraceWriter, EVENTS_SCHEMA,
    PATH_BATCHED, PATH_SCALAR, PATH_SCALAR_FALLBACK,
};
pub use json::{obj, Json, MAX_PARSE_DEPTH};
pub use metrics::{
    metrics_from_events, paths_json, sum_shard_counters, tally_paths, METRICS_SCHEMA,
};
pub use progress::{Heartbeat, ServeCounts, ServeHeartbeat};
