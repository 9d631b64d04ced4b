//! `specstab-serve` — the networked campaign transport: an HTTP/1.1 shard
//! coordinator with deadline-tracked leases, elastic pull-workers, and
//! incremental spool-backed merging.
//!
//! PR 5 made a campaign a text-describable [`CampaignPlan`] plus
//! order-independent mergeable partials; this module is the transport that
//! was missing between them. The model is deliberately minimal:
//!
//! * [`coordinator::Coordinator`] (`campaign serve`) owns the plan, leases
//!   shards to whoever asks, re-dispatches leases that expire (straggler
//!   tolerance), validates and folds uploaded partials incrementally via
//!   [`MergeAccumulator`](crate::merge::MergeAccumulator), and persists
//!   every accepted partial to a spool directory — *a partial on disk is a
//!   checkpoint*, so a killed coordinator resumes where it stopped;
//! * [`worker::run_worker`] (`campaign work`) is the pull loop: fetch the
//!   plan, lease, execute via
//!   [`execute_shard_traced`](crate::shard::execute_shard_traced), upload
//!   the partial with the shard's event stream in its `telemetry` section
//!   (bounded-jittered retries), renew long leases from a sidecar thread,
//!   exit when the coordinator says done (or vanishes);
//! * [`http`] is a hand-rolled, dependency-free HTTP/1.1 framing layer in
//!   the same spirit as the workspace's hand-rolled JSON reader;
//! * [`wire`] defines the JSON payloads (lease grant/wait/done, upload
//!   accepted/duplicate/rejected, renew) both ends build and parse through
//!   the strict JSON layer.
//!
//! `campaign run --workers N` is the same pair on one machine: a
//! coordinator on a loopback port and N `campaign work` children.
//!
//! Every reordering, retry, duplication, or re-execution the network can
//! produce lands in the same [`MergeAccumulator`] the offline pipeline
//! uses, so the served campaign's final artifact stays **byte-identical**
//! to a single-process run of the same plan.
//!
//! [`CampaignPlan`]: crate::plan::CampaignPlan
//! [`MergeAccumulator`]: crate::merge::MergeAccumulator

pub mod coordinator;
pub mod http;
pub mod wire;
pub mod worker;

pub use coordinator::{Coordinator, ServeOptions};
pub use worker::{run_worker, WorkOptions, WorkerSummary};
