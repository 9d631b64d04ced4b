//! The engine-throughput benchmark suite, shared between the criterion
//! harness (`benches/engine_throughput.rs`) and the `bench_engine` binary
//! that writes the machine-readable `BENCH_engine.json` perf snapshot.
//!
//! Steps/second of the stepping core is the capacity ceiling of every
//! speculation-profile campaign, so this suite is the repo's perf
//! trajectory: unison step throughput on tori from 4x5 up to the campaign
//! grid's large instances (`ring:1024`, `torus:32x32`), central-daemon
//! stepping, and full synchronous convergence of the registry's BFS and
//! matching protocols. Those ids time bare engines with no observers; the
//! `measured_*` ids add the campaign executor's measurement observer, the
//! path large scalar campaign cells actually run. The `io/*` ids time the
//! transport reader every sharded or served campaign parses its partials
//! with.

use criterion::{BenchmarkId, Criterion, Throughput};
use rand::SeedableRng;
use specstab_campaign::artifact::PartialArtifact;
use specstab_campaign::executor::CampaignConfig;
use specstab_campaign::matrix::{InitMode, ScenarioMatrix};
use specstab_campaign::plan::CampaignPlan;
use specstab_campaign::shard::execute_shard;
use specstab_kernel::batch::{run_batch, BatchDaemon, NoMonitor};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{
    CentralDaemon, CentralStrategy, RandomDistributedDaemon, SynchronousDaemon,
};
use specstab_kernel::engine::{RunLimits, Simulator, StepScratch, StopReason};
use specstab_kernel::harness::ProtocolHarness;
use specstab_kernel::measure::SpecMonitor;
use specstab_kernel::protocol::{random_configuration, Protocol};
use specstab_protocols::harness::SsmeHarness;
use specstab_protocols::{DijkstraThreeState, MaximalMatching, MinPlusOneBfs};
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph, VertexId};
use specstab_unison::clock::CherryClock;
use specstab_unison::AsyncUnison;

/// Steps per measured unison run. Large graphs use fewer steps so one
/// sample stays in the tens of milliseconds.
fn steps_for(n: usize) -> usize {
    if n >= 1024 {
        200
    } else {
        1_000
    }
}

/// Unison step-throughput benches (synchronous moves/s + central
/// round-robin steps/s) on one graph.
fn bench_unison_on(group: &mut criterion::BenchmarkGroup<'_>, g: &Graph, label: &str) {
    let n = g.n();
    let steps = steps_for(n);
    let clock = CherryClock::new(n as i64, n as i64 + 1).expect("safe parameters");
    let unison = AsyncUnison::new(clock);
    // Start inside Γ1 so every step activates every vertex (worst-case
    // engine load: n guard evaluations + n state updates per step).
    let init = Configuration::from_fn(n, |_| clock.value(0).expect("0 in domain"));
    group.throughput(Throughput::Elements((steps * n) as u64));
    group.bench_with_input(BenchmarkId::new("sync_unison_moves", label), g, |b, g| {
        let sim = Simulator::new(g, &unison);
        let mut scratch = StepScratch::new();
        b.iter(|| {
            let mut d = SynchronousDaemon::new();
            sim.run_with_scratch(
                init.clone(),
                &mut d,
                RunLimits::with_max_steps(steps),
                &mut [],
                &mut scratch,
            )
            .moves
        });
    });
    // Central round-robin: one move per step, so the incremental
    // enabled-set maintenance (O(degree) per step instead of O(n))
    // dominates the measurement.
    group.throughput(Throughput::Elements(steps as u64));
    group.bench_with_input(BenchmarkId::new("central_rr_unison_steps", label), g, |b, g| {
        let sim = Simulator::new(g, &unison);
        let mut scratch = StepScratch::new();
        b.iter(|| {
            let mut d = CentralDaemon::new(CentralStrategy::RoundRobin);
            sim.run_with_scratch(
                init.clone(),
                &mut d,
                RunLimits::with_max_steps(steps),
                &mut [],
                &mut scratch,
            )
            .moves
        });
    });
}

/// Batched replica-parallel throughput on one graph: K Γ1 replicas of the
/// unison cell stepped lane-parallel through the SoA engine
/// (`specstab_kernel::batch::run_batch`). Throughput counts aggregate
/// moves across all lanes — directly comparable to `sync_unison_moves`,
/// which steps the same cell one replica at a time.
fn bench_batched_unison_on(group: &mut criterion::BenchmarkGroup<'_>, g: &Graph, label: &str) {
    let n = g.n();
    let steps = steps_for(n);
    let clock = CherryClock::new(n as i64, n as i64 + 1).expect("safe parameters");
    let unison = AsyncUnison::new(clock);
    let init = Configuration::from_fn(n, |_| clock.value(0).expect("0 in domain"));
    for k in [16usize, 64] {
        let inits: Vec<_> = (0..k).map(|_| init.clone()).collect();
        group.throughput(Throughput::Elements((steps * n * k) as u64));
        group.bench_with_input(
            BenchmarkId::new("batched_sync_unison_moves", format!("{label}-k{k}")),
            g,
            |b, g| {
                b.iter(|| {
                    run_batch(g, &unison, BatchDaemon::Sync, &[], &inits, steps, NoMonitor).len()
                });
            },
        );
    }
}

/// Random-distributed daemon (p = 0.5) throughput on one graph, scalar
/// and batched side by side. Both IDs meter the actual (seed-fixed,
/// deterministic) move totals, so the batched/scalar moves/s ratio reads
/// directly as the lane-packing speedup under a random daemon: dist
/// lanes commit whole sampled selections per pass, so the engine keeps
/// its sync-shaped throughput edge while the per-lane RNG streams replay
/// the scalar coin sequences.
fn bench_dist_unison_on(group: &mut criterion::BenchmarkGroup<'_>, g: &Graph, label: &str) {
    let n = g.n();
    let steps = steps_for(n);
    let clock = CherryClock::new(n as i64, n as i64 + 1).expect("safe parameters");
    let unison = AsyncUnison::new(clock);
    let init = Configuration::from_fn(n, |_| clock.value(0).expect("0 in domain"));
    const P: f64 = 0.5;
    let sim = Simulator::new(g, &unison);
    let mut scratch = StepScratch::new();
    let reference = {
        let mut d = RandomDistributedDaemon::new(P, 0xBEEF);
        sim.run_with_scratch(
            init.clone(),
            &mut d,
            RunLimits::with_max_steps(steps),
            &mut [],
            &mut scratch,
        )
    };
    group.throughput(Throughput::Elements(reference.moves));
    group.bench_with_input(BenchmarkId::new("dist_unison_moves", label), g, |b, g| {
        let sim = Simulator::new(g, &unison);
        let mut scratch = StepScratch::new();
        b.iter(|| {
            let mut d = RandomDistributedDaemon::new(P, 0xBEEF);
            sim.run_with_scratch(
                init.clone(),
                &mut d,
                RunLimits::with_max_steps(steps),
                &mut [],
                &mut scratch,
            )
            .moves
        });
    });
    let k = 64usize;
    let inits: Vec<_> = (0..k).map(|_| init.clone()).collect();
    let seeds: Vec<u64> = (0..k as u64).map(|l| 0xBEEF + l).collect();
    let daemon = BatchDaemon::RandomDistributed { p: P };
    let total: u64 = run_batch(g, &unison, daemon, &seeds, &inits, steps, NoMonitor)
        .iter()
        .map(|lane| lane.moves)
        .sum();
    group.throughput(Throughput::Elements(total));
    group.bench_with_input(
        BenchmarkId::new("batched_dist_unison_moves", format!("{label}-k{k}")),
        g,
        |b, g| {
            b.iter(|| run_batch(g, &unison, daemon, &seeds, &inits, steps, NoMonitor).len());
        },
    );
}

/// Dijkstra's three-state token ring: scalar synchronous stepping against
/// the u8-lane batched engine on the same ring, both metered in machine
/// evaluations (steps × n × lanes) so the batched/scalar ratio reads
/// directly as the lane-packing speedup. The protocol never terminates
/// (the privilege circulates forever), so a fixed step budget measures
/// pure stepping throughput.
fn bench_dijkstra3_on(group: &mut criterion::BenchmarkGroup<'_>, n: usize) {
    let g = generators::ring(n).expect("valid ring");
    let proto = DijkstraThreeState::new(&g).expect("ring graph");
    // Dense-phase budget: from random initial configurations most of the
    // ring stays enabled until the run collapses to the single circulating
    // privilege (~0.45–0.65 n synchronous steps on these rings). After
    // that, the scalar engine's incremental enabled-set maintenance makes
    // a step O(1) while the packed engine still pays a dense O(n·lanes)
    // pass — and campaign cells early-stop inside the dense window, so
    // that window is the workload the batched router actually serves.
    let steps = if n >= 1024 { 448 } else { 160 };
    let label = format!("ring-{n}");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let init = random_configuration(&g, &proto, &mut rng);
    group.throughput(Throughput::Elements((steps * n) as u64));
    group.bench_with_input(BenchmarkId::new("sync_dijkstra3_moves", &label), &g, |b, g| {
        let sim = Simulator::new(g, &proto);
        let mut scratch = StepScratch::new();
        b.iter(|| {
            let mut d = SynchronousDaemon::new();
            sim.run_with_scratch(
                init.clone(),
                &mut d,
                RunLimits::with_max_steps(steps),
                &mut [],
                &mut scratch,
            )
            .moves
        });
    });
    for k in [64usize, 256] {
        let inits: Vec<_> = (0..k)
            .map(|l| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(11 + l as u64);
                random_configuration(&g, &proto, &mut rng)
            })
            .collect();
        group.throughput(Throughput::Elements((steps * n * k) as u64));
        group.bench_with_input(
            BenchmarkId::new("batched_sync_dijkstra3_moves", format!("{label}-k{k}")),
            &g,
            |b, g| {
                b.iter(|| {
                    run_batch(g, &proto, BatchDaemon::Sync, &[], &inits, steps, NoMonitor).len()
                });
            },
        );
    }
}

/// The campaign's measured scalar cell: ssme under the central-rand daemon
/// with the executor's measurement observer (`SpecMonitor` over specME,
/// early stop on legitimacy) attached — what `campaign` runs on every
/// central-rand cell (central daemons never batch). From a pinned full
/// random burst the run stays far from legitimacy, so every sample
/// executes the whole step budget.
fn bench_measured_ssme_on(group: &mut criterion::BenchmarkGroup<'_>, g: &Graph, label: &str) {
    const STEPS: usize = 20_000;
    let h = SsmeHarness::build(g, DistanceMatrix::new(g).diameter()).expect("ssme builds");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let init = random_configuration(g, h.protocol(), &mut rng);
    group.throughput(Throughput::Elements(STEPS as u64));
    group.bench_with_input(
        BenchmarkId::new("measured_central_rand_ssme_steps", label),
        g,
        |b, g| {
            let sim = Simulator::new(g, h.protocol());
            let mut scratch = StepScratch::new();
            b.iter(|| {
                let mut d = h.daemon("central-rand", 0xBEEF).expect("daemon spec");
                let report = SpecMonitor::new(h.spec(), 3).run_with_scratch(
                    &sim,
                    d.as_mut(),
                    init.clone(),
                    STEPS,
                    &mut scratch,
                );
                assert_eq!(
                    report.steps_run, STEPS,
                    "the burst must not stabilize within the budget"
                );
                report.moves
            });
        },
    );
}

/// Unison engine throughput across the size ladder, ending at the campaign
/// grid's large instances.
pub fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    for (rows, cols) in [(4usize, 5usize), (8, 8), (12, 12)] {
        let g = generators::torus(rows, cols).expect("valid torus");
        bench_unison_on(&mut group, &g, &format!("torus-{rows}x{cols}"));
        bench_batched_unison_on(&mut group, &g, &format!("torus-{rows}x{cols}"));
    }
    // The dist pair meters the random-daemon mode on the dense lane
    // schedule, scalar and batched side by side.
    let g = generators::torus(8, 8).expect("valid torus");
    bench_dist_unison_on(&mut group, &g, "torus-8x8");
    for n in [256usize, 1024] {
        bench_dijkstra3_on(&mut group, n);
    }
    let g = generators::ring(1024).expect("valid ring");
    bench_unison_on(&mut group, &g, "ring-1024");
    bench_batched_unison_on(&mut group, &g, "ring-1024");
    bench_measured_ssme_on(&mut group, &g, "ring-1024");
    let g = generators::torus(32, 32).expect("valid torus");
    bench_unison_on(&mut group, &g, "torus-32x32");
    bench_batched_unison_on(&mut group, &g, "torus-32x32");
    bench_measured_ssme_on(&mut group, &g, "torus-32x32");
    group.finish();
}

/// Full synchronous convergence of one protocol from a pinned random
/// initial configuration, on reused scratch buffers. Throughput is
/// reported in moves of the (deterministic) run.
fn bench_convergence<P: Protocol>(
    group: &mut criterion::BenchmarkGroup<'_>,
    id: BenchmarkId,
    graph: &Graph,
    protocol: &P,
    init: &Configuration<P::State>,
) {
    let sim = Simulator::new(graph, protocol);
    // Reference run: moves per convergence (the run is deterministic).
    let reference = {
        let mut d = SynchronousDaemon::new();
        sim.run(init.clone(), &mut d, RunLimits::with_max_steps(1_000_000), &mut [])
    };
    assert_eq!(reference.stop, StopReason::Terminal, "convergence bench must terminate");
    group.throughput(Throughput::Elements(reference.moves));
    group.bench_function(id, |b| {
        let mut scratch = StepScratch::new();
        b.iter(|| {
            let mut d = SynchronousDaemon::new();
            sim.run_with_scratch(
                init.clone(),
                &mut d,
                RunLimits::with_max_steps(1_000_000),
                &mut [],
                &mut scratch,
            )
            .moves
        });
    });
}

/// The campaign grid's newest columns: `min+1` BFS and maximal matching
/// (registry protocols beyond the mutual-exclusion family), measured as
/// synchronous convergence moves/second so `BENCH_engine.json` tracks
/// them release over release.
pub fn bench_protocol_zoo(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    let g = generators::grid(12, 12).expect("valid grid");
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let bfs = MinPlusOneBfs::new(&g, VertexId::new(0));
    let bfs_init = random_configuration(&g, &bfs, &mut rng);
    bench_convergence(
        &mut group,
        BenchmarkId::new("sync_bfs_converge_moves", "grid-12x12"),
        &g,
        &bfs,
        &bfs_init,
    );
    let matching = MaximalMatching::new(&g);
    let matching_init = random_configuration(&g, &matching, &mut rng);
    bench_convergence(
        &mut group,
        BenchmarkId::new("sync_matching_converge_moves", "grid-12x12"),
        &g,
        &matching,
        &matching_init,
    );
    group.finish();
}

/// Partial-artifact parse throughput in bytes/s: `PartialArtifact::from_json`
/// on the partial `execute_shard` writes for the first golden invocation's
/// matrix (54 ssme cells, one shard) — the read `run --workers`, `merge`
/// and the `serve` coordinator perform for every partial. The partial
/// carries cells only (`specstab-campaign-partial/v2`, ~29 KB; the v1
/// document with accumulator state was ~162 KB), and the per-byte rate
/// the id gates is the reader's, whatever the document size.
pub fn bench_io(c: &mut Criterion) {
    let matrix = ScenarioMatrix::builder()
        .topologies(["ring:8", "torus:3x4"])
        .protocols(["ssme"])
        .daemons(["sync", "central-rand", "dist:0.5"])
        .init_modes([InitMode::Burst(0), InitMode::Burst(2), InitMode::Witness])
        .seeds(0..3)
        .build();
    let config = CampaignConfig { max_steps: 500_000, seed: 51966, ..CampaignConfig::default() };
    let plan = CampaignPlan::new(&matrix, &config, 1);
    let text = execute_shard(&plan, 0, 1).expect("shard 0 exists").to_json();
    let mut group = c.benchmark_group("io");
    // Elements are bytes, as the id says (the gate reads elements/s).
    group.throughput(Throughput::Elements(text.len() as u64));
    group.bench_function(BenchmarkId::new("partial_parse_bytes", "golden-54-cells"), |b| {
        b.iter(|| PartialArtifact::from_json(&text).expect("partial parses").cells.len());
    });
    group.finish();
}

/// Runs the full engine suite on one `Criterion` instance (the shared body
/// of the criterion bench harness and the `bench_engine` binary).
pub fn run_all(c: &mut Criterion) {
    bench_engine(c);
    bench_protocol_zoo(c);
    bench_io(c);
}
