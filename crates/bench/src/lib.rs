//! Experiment harness for the PODC 2013 reproduction.
//!
//! Every theorem, figure and complexity claim of the paper maps to one
//! experiment in [`experiments`], which names the artifact it regenerates.
//! The `experiments` binary runs them and writes text + CSV results:
//!
//! ```text
//! cargo run -p specstab-bench --release --bin experiments           # all
//! cargo run -p specstab-bench --release --bin experiments -- e4     # one
//! cargo run -p specstab-bench --release --bin experiments -- --quick
//! ```
//!
//! The experiments that sample a registered protocol's stabilization
//! (E0–E3, E6's SSME table, E8) sweep scenario matrices on the campaign
//! engine (`specstab_campaign::executor::run_campaign`). The engine
//! throughput suite ([`engine_bench`]) runs as the `engine_throughput`
//! criterion bench and the `bench_engine` binary.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine_bench;
pub mod experiments;
pub mod fit;
pub mod table;
pub mod zoo;
