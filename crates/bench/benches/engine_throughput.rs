//! Criterion bench for the simulation substrate itself: steps/second of
//! the engine on unison workloads (regression guard for the kernel).
//!
//! The bench bodies live in `specstab_bench::engine_bench` so the
//! `bench_engine` binary can run the identical suite and write the
//! `BENCH_engine.json` perf snapshot outside the bench harness.

use criterion::{criterion_group, criterion_main};
use specstab_bench::engine_bench::{bench_engine, bench_io, bench_protocol_zoo};

criterion_group!(benches, bench_engine, bench_protocol_zoo, bench_io);
criterion_main!(benches);
