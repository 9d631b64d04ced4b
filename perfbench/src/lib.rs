//! The campaign benchmark's traced run.
//!
//! `run.py` (next to this crate) measures real `campaign` invocations end
//! to end with tracing off. This crate is the separate traced run: it
//! performs the same invocation in-process through each layer's public
//! calls, records a span around each call, and attributes the run's time
//! and work to named layers.
//!
//! * [`trace`] — the in-memory span recorder and self-time accounting;
//! * [`probes`] — counting and timing wrappers for the per-step layers
//!   (daemon selection, monitor predicates);
//! * [`replay`] — the traced replica of the campaign executor, which
//!   reproduces every untraced cell bit for bit;
//! * [`drive`] — one whole invocation (matrix, executor or
//!   plan/shard/merge, report, artifact) and the per-layer metrics.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod probes;
pub mod replay;
pub mod trace;
