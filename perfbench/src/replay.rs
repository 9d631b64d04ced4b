//! A traced replica of the campaign executor.
//!
//! `specstab_campaign::executor` keeps its group runner private, so the
//! traced run drives the same public layer calls itself: the registry
//! visitor, `ProtocolHarness::build`, the init constructors,
//! `MeasurementContext` on the scalar path and `batched_measure` on the
//! lane path, then the group statistics. It copies the executor's work
//! split (group runs chunked at 32 cells, claimed through an atomic
//! cursor), its routing rule, and its per-cell seed mixing — SplitMix64
//! over the cell seed with the daemon and init stream labels — so every
//! cell it runs reproduces the untraced cell bit for bit.

use crate::probes::{probe, take_monitor, Predicate, TimedDaemon};
use crate::trace::{Recorder, Trace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_campaign::executor::{
    batching_enabled, burst_configuration, resolve_topology, CampaignConfig, CampaignResult,
    CellOutcome, CellResult, GroupSummary, ScratchPool,
};
use specstab_campaign::matrix::{Cell, InitMode};
use specstab_campaign::stats::OnlineStats;
use specstab_kernel::batch::BatchDaemon;
use specstab_kernel::daemon::DaemonClass;
use specstab_kernel::engine::Simulator;
use specstab_kernel::harness::{HarnessState, ProtocolHarness};
use specstab_kernel::measure::MeasurementContext;
use specstab_kernel::protocol::random_configuration;
use specstab_protocols::registry::{self, HarnessVisitor, ProtocolInfo};
use specstab_telemetry::RunCounters;
use specstab_topology::Graph;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Stream label of a cell's daemon seed (copied from the executor).
const DAEMON_STREAM: u64 = 0x000D_AE17;
/// Stream label of a cell's init RNG seed (copied from the executor).
const INIT_STREAM: u64 = 0x1217;
/// Cells per work unit (copied from the executor).
const MAX_RUN_CELLS: usize = 32;

/// Mixes a stream label into a cell seed (SplitMix64 finalizer, copied
/// from the executor).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The executor's work units: contiguous same-group runs of at most
/// [`MAX_RUN_CELLS`] cells.
fn group_runs(cells: &[Cell]) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for i in 1..=cells.len() {
        if i == cells.len() || cells[i].group_key() != cells[start].group_key() {
            let mut lo = start;
            while lo < i {
                let hi = (lo + MAX_RUN_CELLS).min(i);
                runs.push(lo..hi);
                lo = hi;
            }
            start = i;
        }
    }
    runs
}

type TopoCache = HashMap<String, Result<(Graph, u32), String>>;
type RunOutput = (Vec<CellResult>, GroupSummary);

/// Runs `cells` the way `run_campaign` does, recording spans and counts.
/// With one thread the work runs inline on `rec`'s thread; otherwise on
/// scoped workers whose spans are children of an executor wait span.
pub fn run_cells(
    trace: &Trace,
    rec: &mut Recorder<'_>,
    cells: &[Cell],
    config: &CampaignConfig,
) -> CampaignResult {
    let started = Instant::now();
    let runs = group_runs(cells);
    let available = if config.threads == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        config.threads
    };
    let threads = available.clamp(1, runs.len().max(1));
    let mut slots: Vec<Option<RunOutput>> = Vec::new();
    slots.resize_with(runs.len(), || None);
    let exec = rec.open("campaign.executor", "run_campaign");
    if threads == 1 {
        let mut topo = TopoCache::new();
        let mut scratch = ScratchPool::new();
        for (idx, run) in runs.iter().enumerate() {
            slots[idx] = Some(execute_group_run(
                rec,
                idx,
                &cells[run.clone()],
                config,
                &mut topo,
                &mut scratch,
            ));
        }
    } else {
        let cursor = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, RunOutput)>();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let (cursor, runs) = (&cursor, &runs);
                scope.spawn(move || {
                    let mut w = trace.recorder(Some(exec));
                    w.open("campaign.executor", "worker");
                    let mut topo = TopoCache::new();
                    let mut scratch = ScratchPool::new();
                    loop {
                        let idx = cursor.fetch_add(1, Ordering::Relaxed);
                        if idx >= runs.len() {
                            break;
                        }
                        let cells = &cells[runs[idx].clone()];
                        let out =
                            execute_group_run(&mut w, idx, cells, config, &mut topo, &mut scratch);
                        if tx.send((idx, out)).is_err() {
                            break;
                        }
                    }
                    w.close();
                });
            }
            drop(tx);
            for (idx, out) in rx {
                slots[idx] = Some(out);
            }
        });
    }
    rec.close();
    let wall = started.elapsed();
    rec.count("executor.capacity_ns", threads as u64 * nanos(wall));
    let mut all_cells = Vec::with_capacity(cells.len());
    let mut partials = Vec::with_capacity(runs.len());
    for slot in slots {
        let (results, summary) = slot.expect("every group run executed");
        all_cells.extend(results);
        partials.push(summary);
    }
    let groups = rec.span("campaign.stats", "fold_groups", || fold_groups(partials));
    CampaignResult { cells: all_cells, groups, threads_used: threads, wall, config: config.clone() }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Folds chunk summaries into the group list with `GroupSummary::merge`
/// (the executor's `fold_groups`).
fn fold_groups(partials: Vec<GroupSummary>) -> Vec<GroupSummary> {
    let mut order: Vec<String> = Vec::new();
    let mut by_key: HashMap<String, GroupSummary> = HashMap::new();
    for partial in partials {
        if let Some(existing) = by_key.get_mut(&partial.key) {
            existing.merge(&partial);
        } else {
            order.push(partial.key.clone());
            by_key.insert(partial.key.clone(), partial);
        }
    }
    order.into_iter().map(|k| by_key.remove(&k).expect("group recorded")).collect()
}

fn execute_group_run(
    rec: &mut Recorder<'_>,
    idx: usize,
    cells: &[Cell],
    config: &CampaignConfig,
    topo_cache: &mut TopoCache,
    scratch: &mut ScratchPool,
) -> RunOutput {
    rec.set_group(idx as u64 + 1);
    rec.open("campaign.executor", "group_run");
    let first = cells.first().expect("group runs are nonempty");
    let topo = match topo_cache.get(&first.topology) {
        Some(t) => t.clone(),
        None => {
            let t = rec.span("topology", "resolve_topology", || resolve_topology(&first.topology));
            rec.count("topology.resolves", 1);
            topo_cache.insert(first.topology.clone(), t.clone());
            t
        }
    };
    let results = match &topo {
        Err(e) => error_results(cells, config, 0, 0, e),
        Ok((graph, diam)) => match registry::resolve(&first.protocol, RunnerLookup) {
            Ok(runner) => runner(rec, cells, graph, *diam, config, scratch),
            Err(e) => error_results(cells, config, graph.n(), *diam, &e),
        },
    };
    let summary = rec.span("campaign.stats", "record", || summarize(&results));
    rec.count("stats.pushes", 3 * results.iter().filter(|r| r.outcome.is_ok()).count() as u64);
    rec.close();
    rec.set_group(0);
    (results, summary)
}

fn error_results(
    cells: &[Cell],
    config: &CampaignConfig,
    n: usize,
    diam: u32,
    e: &str,
) -> Vec<CellResult> {
    cells
        .iter()
        .map(|cell| CellResult {
            cell: cell.clone(),
            n,
            diam,
            class: None,
            cell_seed: cell.cell_seed(config.seed),
            outcome: Err(e.to_string()),
            wall_nanos: 0,
            counters: RunCounters::default(),
        })
        .collect()
}

/// The executor's in-run aggregation (`GroupSummary::seeded_from` +
/// `record`), through the public `OnlineStats::push`.
fn summarize(results: &[CellResult]) -> GroupSummary {
    let first = results.first().expect("group runs are nonempty");
    let mut g = GroupSummary {
        key: first.cell.group_key(),
        topology: first.cell.topology.clone(),
        protocol: first.cell.protocol.clone(),
        daemon: first.cell.daemon.clone(),
        class: first.class,
        init: first.cell.init,
        n: first.n,
        diam: first.diam,
        runs: 0,
        errors: 0,
        converged: 0,
        stabilization: OnlineStats::new(),
        entry: OnlineStats::new(),
        moves: OnlineStats::new(),
        bound: None,
        violations: 0,
    };
    for cr in results {
        g.runs += 1;
        if g.class.is_none() {
            g.class = cr.class;
        }
        match &cr.outcome {
            Ok(o) => {
                g.stabilization.push(o.stabilization_steps as f64);
                g.entry.push(o.legitimacy_entry as f64);
                g.moves.push(o.moves as f64);
                g.converged += u64::from(o.ended_legitimate);
                g.bound = g.bound.or(o.bound);
                g.violations += u64::from(o.violated_bound);
            }
            Err(_) => g.errors += 1,
        }
    }
    g
}

type GroupRunner = fn(
    &mut Recorder<'_>,
    &[Cell],
    &Graph,
    u32,
    &CampaignConfig,
    &mut ScratchPool,
) -> Vec<CellResult>;

struct RunnerLookup;

impl HarnessVisitor for RunnerLookup {
    type Output = GroupRunner;
    fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> GroupRunner {
        run_group::<H>
    }
}

/// The executor's batch routing: which lane daemon serves a daemon spec.
fn batch_mode(spec: &str) -> Option<BatchDaemon> {
    match spec {
        "sync" => Some(BatchDaemon::Sync),
        "central-rr" => Some(BatchDaemon::CentralRr),
        "central-rand" => Some(BatchDaemon::CentralRand),
        _ => spec
            .strip_prefix("dist:")
            .and_then(|p| p.parse::<f64>().ok())
            .filter(|p| (0.0..=1.0).contains(p))
            .map(|p| BatchDaemon::RandomDistributed { p }),
    }
}

fn run_group<H: ProtocolHarness>(
    rec: &mut Recorder<'_>,
    cells: &[Cell],
    graph: &Graph,
    diam: u32,
    config: &CampaignConfig,
    scratch: &mut ScratchPool,
) -> Vec<CellResult> {
    let harness = rec.span("protocols.harness", "build", || H::build(graph, diam));
    rec.count("harness.builds", 1);
    if let Ok(h) = &harness {
        let spec = cells.first().expect("group runs are nonempty").daemon.as_str();
        if let Some(mode) = batch_mode(spec) {
            let central = matches!(mode, BatchDaemon::CentralRr | BatchDaemon::CentralRand);
            let size_ok = !central || graph.n() <= h.central_batch_max_n();
            if batching_enabled() && h.supports_batch() && size_ok {
                if let Some(results) = run_batched(rec, h, mode, cells, graph, diam, config) {
                    return results;
                }
            }
        }
    }
    cells
        .iter()
        .map(|cell| {
            let cell_seed = cell.cell_seed(config.seed);
            let started = Instant::now();
            let (class, counters, outcome) = match &harness {
                Ok(h) => run_cell(rec, h, cell, graph, diam, cell_seed, config, scratch),
                Err(e) => (None, RunCounters::default(), Err(e.to_string())),
            };
            CellResult {
                cell: cell.clone(),
                n: graph.n(),
                diam,
                class,
                cell_seed,
                outcome,
                wall_nanos: nanos(started.elapsed()),
                counters,
            }
        })
        .collect()
}

/// Builds one cell's daemon and initial configuration exactly as the
/// executor does.
type Setup<H> = (
    specstab_kernel::daemon::BoxedDaemon<HarnessState<H>>,
    specstab_kernel::config::Configuration<HarnessState<H>>,
);

fn cell_setup<H: ProtocolHarness>(
    harness: &H,
    cell: &Cell,
    graph: &Graph,
    cell_seed: u64,
) -> Result<Setup<H>, (bool, String)> {
    let daemon =
        harness.daemon(&cell.daemon, mix(cell_seed, DAEMON_STREAM)).map_err(|e| (false, e))?;
    let mut rng = StdRng::seed_from_u64(mix(cell_seed, INIT_STREAM));
    let init = match cell.init {
        InitMode::Burst(0) => random_configuration(graph, harness.protocol(), &mut rng),
        InitMode::Burst(faults) => {
            let healthy = harness
                .legitimate_configuration(graph, &mut rng)
                .map_err(|e| (true, e.to_string()))?;
            burst_configuration(graph, harness.protocol(), healthy, faults, &mut rng)
        }
        InitMode::Witness => {
            harness.witness_configuration(graph).map_err(|e| (true, e.to_string()))?
        }
    };
    Ok((daemon, init))
}

#[allow(clippy::too_many_arguments)]
fn run_cell<H: ProtocolHarness>(
    rec: &mut Recorder<'_>,
    harness: &H,
    cell: &Cell,
    graph: &Graph,
    diam: u32,
    cell_seed: u64,
    config: &CampaignConfig,
    scratch: &mut ScratchPool,
) -> (Option<DaemonClass>, RunCounters, Result<CellOutcome, String>) {
    let setup = rec.span("init", "cell_setup", || cell_setup(harness, cell, graph, cell_seed));
    let (daemon, init) = match setup {
        Ok(s) => s,
        // The executor reports the daemon class once the daemon parsed.
        Err((daemon_ok, e)) => {
            let class = daemon_ok
                .then(|| harness.daemon(&cell.daemon, mix(cell_seed, DAEMON_STREAM)).ok())
                .flatten()
                .map(|d| d.class());
            return (class, RunCounters::default(), Err(e));
        }
    };
    rec.count("init.configs", 1);
    let class = Some(daemon.class());
    let mut daemon = TimedDaemon::new(daemon);
    rec.open("kernel.engine", "run_with_scratch");
    let _ = take_monitor();
    let sim = Simulator::new(graph, harness.protocol());
    let report = MeasurementContext::new(
        probe(harness.safety_predicate(), Predicate::Safety),
        probe(harness.legitimacy_predicate(), Predicate::Legitimacy),
    )
    .with_early_stop(
        probe(harness.legitimacy_predicate(), Predicate::Legitimacy),
        config.early_stop_margin,
    )
    .run_with_scratch(
        &sim,
        &mut daemon,
        init,
        config.max_steps,
        scratch.get::<HarnessState<H>>(),
    );
    let monitor = take_monitor();
    rec.aggregate("kernel.daemon", "select", daemon.busy);
    rec.aggregate("kernel.observer", "predicates", monitor.busy);
    rec.close();
    rec.count("daemon.selects", daemon.selects);
    rec.count("daemon.selected", daemon.selected);
    rec.count("monitor.safety_calls", monitor.safety_calls);
    rec.count("monitor.legitimacy_calls", monitor.legitimacy_calls);
    rec.count("monitor.vertices_scanned", monitor.vertices_scanned);
    rec.count("engine.steps", report.counters.steps);
    rec.count("engine.moves", report.counters.moves);
    rec.count("engine.guard_evals", report.counters.guard_evals);
    rec.count("engine.delta_bytes", report.counters.delta_bytes);
    let bound = (cell.daemon == "sync").then(|| harness.sync_bound(graph, diam)).flatten();
    (
        class,
        report.counters,
        Ok(CellOutcome {
            steps_run: report.steps_run,
            stabilization_steps: report.stabilization_steps,
            legitimacy_entry: report.legitimacy_entry,
            moves: report.moves,
            ended_legitimate: report.ended_legitimate,
            bound: bound.map(|b| b.value),
            violated_bound: bound.is_some_and(|b| b.violated_by(&report)),
        }),
    )
}

/// The executor's lane path: one replica lane per cell through
/// `batched_measure`; `None` hands the chunk back to the scalar loop.
fn run_batched<H: ProtocolHarness>(
    rec: &mut Recorder<'_>,
    harness: &H,
    mode: BatchDaemon,
    cells: &[Cell],
    graph: &Graph,
    diam: u32,
    config: &CampaignConfig,
) -> Option<Vec<CellResult>> {
    let started = Instant::now();
    let mut seeds = Vec::with_capacity(cells.len());
    let mut classes = Vec::with_capacity(cells.len());
    let mut lane_seeds = Vec::with_capacity(cells.len());
    let mut inits = Vec::with_capacity(cells.len());
    for cell in cells {
        let cell_seed = cell.cell_seed(config.seed);
        let (daemon, init) =
            rec.span("init", "cell_setup", || cell_setup(harness, cell, graph, cell_seed)).ok()?;
        seeds.push(cell_seed);
        classes.push(daemon.class());
        lane_seeds.push(mix(cell_seed, DAEMON_STREAM));
        inits.push(init);
    }
    rec.count("init.configs", cells.len() as u64);
    let lane_seeds: &[u64] = if mode.needs_lane_seeds() { &lane_seeds } else { &[] };
    let reports = rec.span("kernel.batch", "batched_measure", || {
        harness.batched_measure(
            graph,
            mode,
            lane_seeds,
            inits,
            config.max_steps,
            config.early_stop_margin,
        )
    })?;
    rec.count("batch.calls", 1);
    rec.count("batch.lanes", cells.len() as u64);
    let bound = (mode == BatchDaemon::Sync).then(|| harness.sync_bound(graph, diam)).flatten();
    let per_cell_nanos = nanos(started.elapsed()) / cells.len().max(1) as u64;
    Some(
        cells
            .iter()
            .zip(seeds)
            .zip(classes)
            .zip(reports)
            .map(|(((cell, cell_seed), class), (report, _))| CellResult {
                cell: cell.clone(),
                n: graph.n(),
                diam,
                class: Some(class),
                cell_seed,
                outcome: Ok(CellOutcome {
                    steps_run: report.steps_run,
                    stabilization_steps: report.stabilization_steps,
                    legitimacy_entry: report.legitimacy_entry,
                    moves: report.moves,
                    ended_legitimate: report.ended_legitimate,
                    bound: bound.map(|b| b.value),
                    violated_bound: bound.is_some_and(|b| b.violated_by(&report)),
                }),
                wall_nanos: per_cell_nanos,
                counters: report.counters,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use specstab_campaign::matrix::ScenarioMatrix;
    use specstab_campaign::{artifact, run_campaign};

    #[test]
    fn replay_reproduces_run_campaign_bytes() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:8", "torus:3x4", "path:5"])
            .protocols(["ssme", "dijkstra3", "bfs"])
            .daemons(["sync", "central-rand", "dist:0.5"])
            .fault_bursts([0, 2])
            .seeds(0..3)
            .build();
        let config = CampaignConfig { threads: 2, max_steps: 100_000, ..Default::default() };
        let trace = Trace::new();
        let mut rec = trace.recorder(None);
        let replayed = run_cells(&trace, &mut rec, m.cells(), &config);
        let reference = run_campaign(&m, &config);
        assert_eq!(artifact::to_json(&replayed, true), artifact::to_json(&reference, true));
    }
}
