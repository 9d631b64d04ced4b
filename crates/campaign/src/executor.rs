//! The sharded campaign executor.
//!
//! The unit of work is a contiguous chunk of one **scenario group** — the
//! run of cells sharing topology × protocol × daemon × init (the seed axis
//! varies fastest in the canonical matrix order), split at
//! `MAX_RUN_CELLS` so seed-heavy groups still spread across the pool.
//! Workers claim chunks through a shared atomic cursor (work-stealing by
//! over-decomposition: each worker pulls the next unclaimed chunk, so
//! stragglers never idle the pool) and execute the chunk's cells in
//! canonical order. Each distinct topology is resolved (parsed, checked
//! connected, its diameter swept by BFS) once per run before the workers
//! start, and they share the result by reference. The main thread
//! reassembles the cells in canonical order and derives every group's
//! statistics from them with [`summarize_groups`], one ordered pass per
//! group — the same function the merge of partial artifacts calls, so a
//! campaign's statistics are a pure function of its canonically ordered
//! cells, whichever process ran them.
//!
//! Every cell derives its RNG stream purely from its coordinates
//! ([`Cell::cell_seed`]), and each group's statistics are fed in canonical
//! cell order regardless of scheduling, so results are bit-identical
//! regardless of thread count.

use crate::matrix::{Cell, InitMode, ScenarioMatrix};
use crate::stats::OnlineStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::batch::BatchDaemon;
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{BoxedDaemon, DaemonClass};
use specstab_kernel::engine::{Simulator, StepScratch};
use specstab_kernel::fault::inject_faults_in_place;
use specstab_kernel::harness::{HarnessError, HarnessState, ProtocolHarness, TheoremBound};
use specstab_kernel::measure::{SpecMonitor, StabilizationReport};
use specstab_kernel::protocol::{random_configuration, Protocol};
use specstab_protocols::registry::{self, HarnessVisitor, ProtocolInfo};
use specstab_telemetry::{Heartbeat, RunCounters, PATH_BATCHED, PATH_SCALAR, PATH_SCALAR_FALLBACK};
use specstab_topology::metrics;
use specstab_topology::spec::parse_spec;
use specstab_topology::Graph;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Process-wide toggle for the lane-packed batched group path. On by
/// default; the campaign's differential suite (`tests/batch_equivalence.rs`)
/// flips it off to force the scalar reference path on otherwise-batchable
/// groups. No `campaign` flag sets it.
static BATCHING: AtomicBool = AtomicBool::new(true);

/// Enables or disables the batched group path for this process.
///
/// Batched and scalar execution produce bit-identical cell outcomes (the
/// equivalence the kernel's differential suite proves), so this toggle
/// never changes artifacts — it exists for in-process differential tests
/// and A/B timing.
pub fn set_batching_enabled(on: bool) {
    BATCHING.store(on, Ordering::Relaxed);
}

/// Whether the batched group path is currently enabled.
#[must_use]
pub fn batching_enabled() -> bool {
    BATCHING.load(Ordering::Relaxed)
}

/// Campaign-wide execution parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Hard per-run step budget.
    pub max_steps: usize,
    /// Campaign base seed, mixed into every cell seed.
    pub seed: u64,
    /// Early-stop margin: a run ends once legitimacy has held for
    /// `margin + 1` consecutive configurations.
    pub early_stop_margin: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self { threads: 0, max_steps: 2_000_000, seed: 0xC0FFEE, early_stop_margin: 3 }
    }
}

/// Numbers measured in one successfully executed cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Steps actually executed.
    pub steps_run: usize,
    /// Measured stabilization time w.r.t. safety (Definition 3, empirical).
    pub stabilization_steps: usize,
    /// Index from which legitimacy held for the rest of the run.
    pub legitimacy_entry: usize,
    /// Vertex activations executed.
    pub moves: u64,
    /// Whether the run ended inside the legitimate region.
    pub ended_legitimate: bool,
    /// The theorem bound this cell is checked against, when one applies —
    /// under the synchronous daemon, whatever
    /// [`ProtocolHarness::sync_bound`] provides (Theorem 2's `⌈diam/2⌉`
    /// for SSME, the `2n − 3` law for Dijkstra's K-state ring).
    pub bound: Option<u64>,
    /// Whether the measurement exceeded `bound`.
    pub violated_bound: bool,
}

impl CellOutcome {
    /// The outcome of one measured run, checked against `bound` when one
    /// applies. Both engine paths report their cells through it.
    fn measured(report: &StabilizationReport, bound: Option<TheoremBound>) -> Self {
        Self {
            steps_run: report.steps_run,
            stabilization_steps: report.stabilization_steps,
            legitimacy_entry: report.legitimacy_entry,
            moves: report.moves,
            ended_legitimate: report.ended_legitimate,
            bound: bound.map(|b| b.value),
            violated_bound: bound.is_some_and(|b| b.violated_by(report)),
        }
    }
}

/// One cell plus its execution result.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell coordinates.
    pub cell: Cell,
    /// Vertices of the parsed topology (0 when the topology failed to parse).
    pub n: usize,
    /// Diameter of the parsed topology.
    pub diam: u32,
    /// Taxonomy class of the daemon, when it parsed.
    pub class: Option<DaemonClass>,
    /// The cell's derived deterministic seed.
    pub cell_seed: u64,
    /// Measured outcome, or a description of why the cell failed.
    pub outcome: Result<CellOutcome, String>,
    /// Wall-clock nanoseconds the cell took. **Telemetry only**: feeds
    /// event streams and metrics sidecars, never the deterministic
    /// artifacts (zero for failed cells and for cells read back from
    /// partials).
    pub wall_nanos: u64,
    /// The cell's engine counters (telemetry only, like `wall_nanos`).
    pub counters: RunCounters,
}

/// Aggregated statistics for one scenario group (all cells sharing
/// topology × protocol × daemon × fault burst, i.e. the seed axis).
#[derive(Clone, Debug)]
pub struct GroupSummary {
    /// Canonical group key.
    pub key: String,
    /// Shared cell coordinates.
    pub topology: String,
    /// Protocol spec (registry name).
    pub protocol: String,
    /// Daemon spec.
    pub daemon: String,
    /// Daemon taxonomy class, when it parsed.
    pub class: Option<DaemonClass>,
    /// Initial-configuration mode.
    pub init: InitMode,
    /// Vertices.
    pub n: usize,
    /// Diameter.
    pub diam: u32,
    /// Cells executed (including failed ones).
    pub runs: u64,
    /// Cells that errored.
    pub errors: u64,
    /// Cells that ended legitimate.
    pub converged: u64,
    /// Streaming stats over measured stabilization steps.
    pub stabilization: OnlineStats,
    /// Streaming stats over legitimacy entry.
    pub entry: OnlineStats,
    /// Streaming stats over moves.
    pub moves: OnlineStats,
    /// The applicable theorem bound, when the group has one.
    pub bound: Option<u64>,
    /// Cells whose measurement exceeded the bound.
    pub violations: u64,
}

impl GroupSummary {
    /// The daemon class as display text (empty when the daemon never
    /// parsed).
    #[must_use]
    pub fn class_str(&self) -> String {
        self.class.map_or_else(String::new, |c| c.to_string())
    }

    /// The summary of one scenario group's cells, fed in order.
    fn of_group(cells: &[CellResult]) -> Self {
        let first = &cells[0];
        let mut summary = Self {
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
        for cr in cells {
            summary.runs += 1;
            summary.class = summary.class.or(cr.class);
            match &cr.outcome {
                Ok(o) => {
                    summary.stabilization.push(o.stabilization_steps as f64);
                    summary.entry.push(o.legitimacy_entry as f64);
                    summary.moves.push(o.moves as f64);
                    summary.converged += u64::from(o.ended_legitimate);
                    summary.bound = summary.bound.or(o.bound);
                    summary.violations += u64::from(o.violated_bound);
                }
                Err(_) => summary.errors += 1,
            }
        }
        summary
    }

    /// Merges another summary **of the same group** into this one: the
    /// result is exactly the summary of `self`'s cells followed by
    /// `other`'s, because counters add and [`OnlineStats::merge`] appends
    /// the observations.
    ///
    /// # Panics
    ///
    /// Panics if the two summaries describe different groups.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.key, other.key, "merging different groups");
        self.runs += other.runs;
        self.errors += other.errors;
        self.converged += other.converged;
        self.violations += other.violations;
        self.class = self.class.or(other.class);
        self.bound = self.bound.or(other.bound);
        self.stabilization.merge(&other.stabilization);
        self.entry.merge(&other.entry);
        self.moves.merge(&other.moves);
    }
}

/// Everything a campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Per-cell results in canonical matrix order.
    pub cells: Vec<CellResult>,
    /// Per-group aggregates, ordered by first appearance in the matrix.
    pub groups: Vec<GroupSummary>,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Wall-clock duration of the sweep (excluded from artifacts so they
    /// stay byte-identical across machines and thread counts).
    pub wall: Duration,
    /// The configuration the campaign ran with.
    pub config: CampaignConfig,
}

impl CampaignResult {
    /// Total bound violations across all groups.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.groups.iter().map(|g| g.violations).sum()
    }

    /// Total cell errors across all groups.
    #[must_use]
    pub fn total_errors(&self) -> u64 {
        self.groups.iter().map(|g| g.errors).sum()
    }
}

/// Cap on cells per work unit: seed-heavy groups (one group × thousands
/// of seeds) split into chunks of this many cells so they still spread
/// across the pool, and a batched chunk steps at most this many lanes.
/// Statistics never see the chunks: [`summarize_groups`] reads each group
/// whole.
const MAX_RUN_CELLS: usize = 32;

/// Splits the canonical cell order into contiguous runs of one scenario
/// group — the executor's units of work — chunking oversized groups at
/// [`MAX_RUN_CELLS`]. Chunk boundaries depend only on the cell
/// coordinates, never on thread count, scheduling or sharding.
fn group_runs(cells: &[Cell]) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    for group in cells.chunk_by(Cell::same_group) {
        let end = start + group.len();
        for lo in (start..end).step_by(MAX_RUN_CELLS) {
            runs.push(lo..(lo + MAX_RUN_CELLS).min(end));
        }
        start = end;
    }
    runs
}

/// Per-worker pool of engine scratch buffers, keyed by the protocol's
/// state type. Workers execute cells of many protocols (hence many state
/// types) back to back; the pool hands each monomorphized cell runner
/// *the* [`StepScratch`] for its state type, so buffer allocations are
/// amortized across every run the worker ever executes (ROADMAP:
/// "cross-run scratch reuse"). The type-erased lookup happens once per
/// measured run — never inside the step loop.
#[derive(Default)]
pub struct ScratchPool {
    slots: HashMap<TypeId, Box<dyn Any>>,
}

impl ScratchPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The pooled scratch buffers for state type `S` (created on first
    /// use).
    pub fn get<S: 'static>(&mut self) -> &mut StepScratch<S> {
        self.slots
            .entry(TypeId::of::<S>())
            .or_insert_with(|| Box::new(StepScratch::<S>::new()))
            .downcast_mut::<StepScratch<S>>()
            .expect("slot keyed by state TypeId")
    }
}

/// Every distinct topology of a run's cells, resolved once by
/// [`resolve_topology`] before any worker starts and read by all of them
/// through `&`: the graph and its diameter, or the per-cell error.
type Topologies = HashMap<String, Result<(Graph, u32), String>>;

/// Resolves each distinct topology of `cells` once, in first-use order.
fn resolve_topologies(cells: &[Cell]) -> Topologies {
    let mut topologies = Topologies::new();
    for cell in cells {
        if !topologies.contains_key(&cell.topology) {
            topologies.insert(cell.topology.clone(), resolve_topology(&cell.topology));
        }
    }
    topologies
}

/// Executes one contiguous group run in canonical cell order.
///
/// All cells of a run share one group key — hence one topology and one
/// protocol — so the protocol-runner resolution happens once per run,
/// and the monomorphized group runner builds the harness once for all of
/// the run's cells.
fn execute_group_run(
    cells: &[Cell],
    config: &CampaignConfig,
    topologies: &Topologies,
    scratch: &mut ScratchPool,
) -> Vec<CellResult> {
    let first = cells.first().expect("group runs are nonempty");
    let topo = &topologies[&first.topology];
    let error_results = |n: usize, diam: u32, e: &str| -> Vec<CellResult> {
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
    };
    match topo {
        Err(e) => error_results(0, 0, e),
        Ok((graph, diam)) => match registry::resolve(&first.protocol, RunnerLookup) {
            Ok(runner) => runner(cells, graph, *diam, config, scratch),
            Err(e) => error_results(graph.n(), *diam, &e),
        },
    }
}

/// Derives every group's statistics from canonically ordered cell
/// results: one [`GroupSummary`] per contiguous run of a scenario group,
/// fed its cells in order, however many work units the group spanned.
/// [`run_campaign`] calls it on its reassembled cells and [`crate::merge`]
/// on the concatenated cells of a plan's partials, so both produce
/// bit-identical statistics for the same cells however they were split.
/// The summaries follow the runs, so a group whose cells form two
/// separate runs gets two; plans and merges reject such cell lists
/// ([`crate::plan::check_contiguous_groups`]).
#[must_use]
pub fn summarize_groups(cells: &[CellResult]) -> Vec<GroupSummary> {
    cells.chunk_by(|a, b| a.cell.same_group(&b.cell)).map(GroupSummary::of_group).collect()
}

/// Runs every cell of `matrix` across a worker pool, aggregating group
/// statistics inside the workers.
///
/// Deterministic: the per-cell outcomes (and therefore the aggregate
/// statistics and artifacts) depend only on the matrix and
/// `config.seed` / `config.max_steps` — never on `config.threads`.
#[must_use]
pub fn run_campaign(matrix: &ScenarioMatrix, config: &CampaignConfig) -> CampaignResult {
    run_campaign_with_progress(matrix, config, None)
}

/// [`run_campaign`] with an optional live progress heartbeat, ticked from
/// the main thread as finished group runs drain out of the worker channel.
/// The heartbeat only ever *observes* results — scheduling, seeding and
/// aggregation are untouched, so the result is bit-identical with or
/// without it.
#[must_use]
pub fn run_campaign_with_progress(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    progress: Option<&Heartbeat>,
) -> CampaignResult {
    let started = Instant::now();
    let cells = matrix.cells();
    let runs = group_runs(cells);
    let threads = effective_threads(config.threads, runs.len());
    let topologies = resolve_topologies(cells);
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Vec<CellResult>)>();

    let mut slots: Vec<Option<Vec<CellResult>>> = Vec::new();
    slots.resize_with(runs.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (cursor, runs, topologies) = (&cursor, &runs, &topologies);
            scope.spawn(move || {
                // Per-worker scratch pool: engine step buffers are reused
                // across every run this worker executes.
                let mut scratch = ScratchPool::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= runs.len() {
                        break;
                    }
                    let out = execute_group_run(
                        &cells[runs[idx].clone()],
                        config,
                        topologies,
                        &mut scratch,
                    );
                    if tx.send((idx, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (idx, out) in rx {
            if let Some(hb) = progress {
                for cr in &out {
                    hb.cell_done(cr.counters.moves);
                }
            }
            slots[idx] = Some(out);
        }
    });

    let mut all_cells = Vec::with_capacity(cells.len());
    for slot in slots {
        all_cells.extend(slot.expect("every group run executed"));
    }
    CampaignResult {
        groups: summarize_groups(&all_cells),
        cells: all_cells,
        threads_used: threads,
        wall: started.elapsed(),
        config: config.clone(),
    }
}

fn effective_threads(requested: usize, work_units: usize) -> usize {
    let available = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    available.clamp(1, work_units.max(1))
}

/// Resolves a topology spec into a connected graph and its diameter,
/// computed by [`metrics::diameter`]'s BFS sweep (no distance matrix).
/// [`run_campaign`] resolves each distinct topology of a run once with
/// it, before any worker starts.
///
/// # Errors
///
/// The parse error, or a "not connected" message.
pub fn resolve_topology(spec: &str) -> Result<(Graph, u32), String> {
    parse_spec(spec).map_err(|e| e.to_string()).and_then(|g| {
        if g.is_connected() {
            let diam = metrics::diameter(&g);
            Ok((g, diam))
        } else {
            Err(format!("'{spec}' is not connected"))
        }
    })
}

/// The monomorphized per-protocol group runner: one instantiation of
/// [`run_harness_group`] per registered harness type, reached through a
/// plain `fn` pointer — no `dyn` dispatch anywhere near the step loop.
type GroupRunner = fn(&[Cell], &Graph, u32, &CampaignConfig, &mut ScratchPool) -> Vec<CellResult>;

/// Registry visitor resolving a protocol name to its monomorphized
/// [`GroupRunner`].
struct RunnerLookup;

impl HarnessVisitor for RunnerLookup {
    type Output = GroupRunner;
    fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> GroupRunner {
        run_harness_group::<H>
    }
}

/// Runs one group chunk of any registered protocol. The harness — and
/// with it the protocol's specification and any precomputation such as
/// BFS distances — is built **once** for the chunk's shared
/// (topology, protocol) pair; a failed build (e.g. the typed
/// incompatible-topology error) fails every cell with the same message.
/// This single generic function replaces the per-protocol `run_*_cell`
/// clones; each instantiation is fully protocol-specialized.
fn run_harness_group<H: ProtocolHarness>(
    cells: &[Cell],
    graph: &Graph,
    diam: u32,
    config: &CampaignConfig,
    scratch: &mut ScratchPool,
) -> Vec<CellResult> {
    let harness = H::build(graph, diam);
    let first = cells.first().expect("group runs are nonempty");
    // Group keys include the init mode, so a witness group builds its
    // deterministic witness (a few BFS rows on the way) once and clones it
    // for every cell.
    let witness = match &harness {
        Ok(h) if first.init == InitMode::Witness => Some(h.witness_configuration(graph)),
        _ => None,
    };
    let witness = witness.as_ref();
    // The synchronous theorem bounds apply only when the chunk's shared
    // daemon is "sync".
    let bound = match &harness {
        Ok(h) if first.daemon == "sync" => h.sync_bound(graph, diam),
        _ => None,
    };
    // Group keys include the daemon, so one shared check covers the chunk:
    // sync and dist:p groups of batch-capable protocols step all their
    // seed replicas lane-parallel through the packed engine. Any reason
    // the batched path can't serve such a chunk bit-identically (protocol
    // not packed, toggle off, or a per-cell setup error that the scalar
    // path reports cell by cell) falls back to the scalar loop below.
    // Groups of every other daemon — central ones included, which commit
    // one move per step and run fastest on the scalar engine — run
    // scalar. `group_path` reads the route back from the cells.
    if let Ok(h) = &harness {
        if let Some(mode) = BatchDaemon::from_spec(&first.daemon) {
            if batching_enabled() && h.supports_batch() {
                if let Some(results) =
                    run_batched_group(h, mode, cells, graph, diam, bound, config, witness)
                {
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
                Ok(h) => {
                    run_harness_cell(h, cell, graph, cell_seed, bound, config, witness, scratch)
                }
                Err(e) => (None, RunCounters::default(), Err(e.to_string())),
            };
            let wall_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            CellResult {
                cell: cell.clone(),
                n: graph.n(),
                diam,
                class,
                cell_seed,
                outcome,
                wall_nanos,
                counters,
            }
        })
        .collect()
}

/// The engine path the executor's routing took for one scenario group's
/// cells: [`PATH_BATCHED`] when every cell ran as a replica lane
/// (`counters.batch_lanes == 1`), [`PATH_SCALAR_FALLBACK`] when the daemon
/// has a batched schedule ([`BatchDaemon::from_spec`]) but some cell ran
/// scalar, [`PATH_SCALAR`] otherwise. Only meaningful for cells this
/// process ran: cells read back from partials carry zero counters.
///
/// # Panics
///
/// Panics when `cells` is empty.
#[must_use]
pub fn group_path(cells: &[CellResult]) -> &'static str {
    let daemon = &cells[0].cell.daemon;
    if cells.iter().all(|cr| cr.counters.batch_lanes == 1) {
        PATH_BATCHED
    } else if BatchDaemon::from_spec(daemon).is_some() {
        PATH_SCALAR_FALLBACK
    } else {
        PATH_SCALAR
    }
}

/// A witness group's witness configuration (or its build error), built
/// once per group run and cloned into every cell.
type GroupWitness<H> = Result<Configuration<HarnessState<H>>, HarnessError>;

/// Runs one group chunk of a batchable daemon (sync or dist:p) through
/// the lane-packed batched engine: every cell's initial configuration
/// becomes one replica lane of a single structure-of-arrays run (see
/// `specstab_kernel::batch`).
///
/// Every lane starts from [`cell_setup`], as [`run_harness_cell`] does,
/// and is measured with the same semantics, so the per-cell outcomes are
/// bit-identical to the scalar path. Returns `None` when any cell's setup
/// fails (bad daemon spec, witness error, ...) — the scalar loop then
/// reruns the chunk and attributes the error to the right cell.
///
/// `wall_nanos` is the batch total split evenly across the lanes: lanes
/// run fused, so no truer per-cell attribution exists (telemetry only,
/// never an artifact input).
#[allow(clippy::too_many_arguments)] // the chunk's cells plus the group's shared state
fn run_batched_group<H: ProtocolHarness>(
    harness: &H,
    mode: BatchDaemon,
    cells: &[Cell],
    graph: &Graph,
    diam: u32,
    bound: Option<TheoremBound>,
    config: &CampaignConfig,
    witness: Option<&GroupWitness<H>>,
) -> Option<Vec<CellResult>> {
    let started = Instant::now();
    let mut seeds = Vec::with_capacity(cells.len());
    let mut classes = Vec::with_capacity(cells.len());
    let mut lane_seeds = Vec::with_capacity(cells.len());
    let mut inits = Vec::with_capacity(cells.len());
    for cell in cells {
        let cell_seed = cell.cell_seed(config.seed);
        let setup = cell_setup(harness, cell, graph, cell_seed, witness).ok()?;
        seeds.push(cell_seed);
        classes.push(setup.daemon.class());
        // The lane's RNG seed is exactly the scalar path's daemon seed:
        // a random-daemon lane replays the scalar cell's pick sequence
        // draw for draw.
        lane_seeds.push(setup.daemon_seed);
        inits.push(setup.init);
    }
    let lane_seeds: &[u64] = if mode.needs_lane_seeds() { &lane_seeds } else { &[] };
    let reports = harness.batched_measure(
        graph,
        mode,
        lane_seeds,
        inits,
        config.max_steps,
        config.early_stop_margin,
    )?;
    let total_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let per_cell_nanos = total_nanos / cells.len().max(1) as u64;
    Some(
        cells
            .iter()
            .zip(seeds)
            .zip(classes)
            .zip(reports)
            .map(|(((cell, cell_seed), class), (report, _final_config))| CellResult {
                cell: cell.clone(),
                n: graph.n(),
                diam,
                class: Some(class),
                cell_seed,
                outcome: Ok(CellOutcome::measured(&report, bound)),
                wall_nanos: per_cell_nanos,
                counters: report.counters,
            })
            .collect(),
    )
}

/// Stream label of a cell's daemon seed, mixed into the cell seed.
const DAEMON_STREAM: u64 = 0x000D_AE17;
/// Stream label of a cell's initial-configuration RNG seed.
const INIT_STREAM: u64 = 0x1217;

/// How a cell starts, on either engine path: its daemon, the seed the
/// daemon was built with, and its initial configuration.
struct CellSetup<H: ProtocolHarness> {
    daemon: BoxedDaemon<HarnessState<H>>,
    daemon_seed: u64,
    init: Configuration<HarnessState<H>>,
}

/// Sets up one cell on an already-built harness: resolves the daemon from
/// the cell's daemon seed stream and constructs the initial configuration
/// from its init stream (a full random burst, `faults` corrupted vertices
/// of the harness's legitimate configuration, or the group's witness).
/// Both engine paths start their cells here, so a lane starts from the
/// configuration and seed of its scalar twin.
///
/// # Errors
///
/// The failure message, with the daemon's class when the daemon parsed.
fn cell_setup<H: ProtocolHarness>(
    harness: &H,
    cell: &Cell,
    graph: &Graph,
    cell_seed: u64,
    witness: Option<&GroupWitness<H>>,
) -> Result<CellSetup<H>, (Option<DaemonClass>, String)> {
    let daemon_seed = mix(cell_seed, DAEMON_STREAM);
    let daemon = harness.daemon(&cell.daemon, daemon_seed).map_err(|e| (None, e))?;
    let failed = |e: HarnessError| (Some(daemon.class()), e.to_string());
    let mut rng = StdRng::seed_from_u64(mix(cell_seed, INIT_STREAM));
    let init = match cell.init {
        // Full burst: the initial configuration is uniformly arbitrary —
        // don't construct the legitimate resting point only to discard it.
        InitMode::Burst(0) => random_configuration(graph, harness.protocol(), &mut rng),
        InitMode::Burst(faults) => {
            let healthy = harness.legitimate_configuration(graph, &mut rng).map_err(failed)?;
            burst_configuration(graph, harness.protocol(), healthy, faults, &mut rng)
        }
        InitMode::Witness => {
            witness.expect("witness groups build their witness").clone().map_err(failed)?
        }
    };
    Ok(CellSetup { daemon, daemon_seed, init })
}

/// Runs one cell on an already-built harness: set it up ([`cell_setup`]),
/// execute one measured run on pooled scratch buffers, and check it
/// against the group's theorem `bound`.
///
/// The run is measured by the kernel's incremental [`SpecMonitor`] over
/// the harness's specification: per step it re-evaluates only the
/// vertices near the step's moves, and its report equals the full-scan
/// `MeasurementContext` with early stop on legitimacy.
#[allow(clippy::too_many_arguments)] // the cell's coordinates plus the group's shared state
fn run_harness_cell<H: ProtocolHarness>(
    harness: &H,
    cell: &Cell,
    graph: &Graph,
    cell_seed: u64,
    bound: Option<TheoremBound>,
    config: &CampaignConfig,
    witness: Option<&GroupWitness<H>>,
    scratch: &mut ScratchPool,
) -> (Option<DaemonClass>, RunCounters, Result<CellOutcome, String>) {
    let CellSetup { mut daemon, init, .. } =
        match cell_setup(harness, cell, graph, cell_seed, witness) {
            Ok(setup) => setup,
            Err((class, e)) => return (class, RunCounters::default(), Err(e)),
        };
    let class = Some(daemon.class());
    let sim = Simulator::new(graph, harness.protocol());
    let report = SpecMonitor::new(harness.spec(), config.early_stop_margin).run_with_scratch(
        &sim,
        daemon.as_mut(),
        init,
        config.max_steps,
        scratch.get::<HarnessState<H>>(),
    );
    (class, report.counters, Ok(CellOutcome::measured(&report, bound)))
}

/// Builds the initial configuration for a burst-mode scenario: a full
/// random burst when `faults == 0`, otherwise `faults` (clamped to `n`)
/// corrupted vertices of `healthy`. Public so code that replays cells
/// outside the executor starts them from the executor's exact
/// partial-burst semantics.
pub fn burst_configuration<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    mut healthy: Configuration<P::State>,
    faults: usize,
    rng: &mut StdRng,
) -> Configuration<P::State> {
    if faults == 0 {
        random_configuration(graph, protocol, rng)
    } else {
        let _ = inject_faults_in_place(&mut healthy, graph, protocol, faults.min(graph.n()), rng);
        healthy
    }
}

/// Mixes a stream label into a cell seed (SplitMix64 finalizer).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme"])
            .daemons(["sync", "dist:0.5"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    #[test]
    fn parallel_equals_sequential() {
        let m = tiny_matrix();
        let cfg = CampaignConfig { threads: 4, max_steps: 100_000, ..Default::default() };
        let par = run_campaign(&m, &cfg);
        let seq = run_campaign(&m, &CampaignConfig { threads: 1, ..cfg });
        assert_eq!(par.cells.len(), seq.cells.len());
        for (a, b) in par.cells.iter().zip(seq.cells.iter()) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.cell_seed, b.cell_seed);
            assert_eq!(a.outcome.as_ref().ok(), b.outcome.as_ref().ok());
            assert_eq!(a.outcome.is_err(), b.outcome.is_err());
        }
    }

    #[test]
    fn a_group_is_batched_only_when_every_cell_ran_as_a_lane() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:6"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([1])
            .seeds(0..3)
            .build();
        let result = run_campaign(&m, &CampaignConfig::default());
        let (sync, central) = result.cells.split_at(3);
        assert_eq!(group_path(sync), PATH_BATCHED);
        assert_eq!(group_path(central), PATH_SCALAR);
        // One chunk of a sync group fell back to the scalar engine.
        let mut mixed = sync.to_vec();
        mixed[1].counters.batch_lanes = 0;
        assert_eq!(group_path(&mixed), PATH_SCALAR_FALLBACK);
    }

    #[test]
    fn sync_cells_respect_theorem2_with_zero_violations() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:8", "torus:3x4"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0, 2])
            .seeds(0..5)
            .build();
        let r = run_campaign(&m, &CampaignConfig { max_steps: 200_000, ..Default::default() });
        assert_eq!(r.total_errors(), 0);
        assert_eq!(r.total_violations(), 0, "Theorem 2 must hold in every sync cell");
        for g in &r.groups {
            assert_eq!(g.converged, g.runs, "all sync runs converge");
            assert!(g.bound.is_some());
        }
    }

    #[test]
    fn dijkstra_cells_only_work_on_rings() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["dijkstra"])
            .daemons(["sync"])
            .seeds(0..2)
            .build();
        let r = run_campaign(&m, &CampaignConfig::default());
        let ring_group = &r.groups[0];
        let path_group = &r.groups[1];
        assert_eq!(ring_group.errors, 0);
        assert_eq!(path_group.errors, path_group.runs, "non-ring cells fail cleanly");
    }

    #[test]
    fn bad_specs_surface_as_cell_errors_not_panics() {
        let m = ScenarioMatrix::builder()
            .topologies(["mobius:9", "ring:6"])
            .protocols(["ssme"])
            .daemons(["sync", "warp-drive"])
            .seeds(0..2)
            .build();
        let r = run_campaign(&m, &CampaignConfig::default());
        assert_eq!(r.cells.len(), 8);
        let errors = r.cells.iter().filter(|c| c.outcome.is_err()).count();
        assert_eq!(errors, 6, "2 bad-topology groups x2 + 1 bad-daemon group x2");
    }

    #[test]
    fn oversized_groups_chunk_without_losing_determinism() {
        // One group x 80 seeds: split into three work units (so seed-heavy
        // campaigns parallelize), yet 4 threads and 1 thread still agree
        // byte-for-byte because chunk boundaries are fixed.
        let m = ScenarioMatrix::builder()
            .topologies(["ring:8"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0])
            .seeds(0..80)
            .build();
        assert_eq!(super::group_runs(m.cells()).len(), 3);
        let cfg = CampaignConfig { threads: 4, max_steps: 100_000, ..Default::default() };
        let par = run_campaign(&m, &cfg);
        let seq = run_campaign(&m, &CampaignConfig { threads: 1, ..cfg });
        assert_eq!(par.groups.len(), 1);
        let g = &par.groups[0];
        assert_eq!(g.runs, 80);
        assert_eq!(g.errors, 0);
        assert_eq!(g.converged, 80);
        assert_eq!(g.stabilization.count(), 80);
        assert_eq!(
            crate::artifact::to_json(&par, true),
            crate::artifact::to_json(&seq, true),
            "chunked aggregation must stay thread-count invariant"
        );
        // Independent reference: recompute the group statistics naively
        // from the per-cell outcomes (both runs share summarize_groups, so
        // the par==seq check alone cannot catch an aggregation bug).
        let entries: Vec<f64> = par
            .cells
            .iter()
            .map(|c| c.outcome.as_ref().expect("no errors").legitimacy_entry as f64)
            .collect();
        let naive_mean = entries.iter().sum::<f64>() / entries.len() as f64;
        let naive_var =
            entries.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / entries.len() as f64;
        assert_eq!(g.entry.count(), 80);
        assert_eq!(g.entry.min(), entries.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(g.entry.max(), entries.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        assert!((g.entry.mean() - naive_mean).abs() < 1e-9, "mean drifted");
        assert!((g.entry.variance() - naive_var).abs() < 1e-6, "variance drifted");
        let mut sorted = entries;
        sorted.sort_by(f64::total_cmp);
        let exact_p50 = sorted[sorted.len() / 2];
        let spread = (g.entry.max() - g.entry.min()).max(1.0);
        assert!(
            (g.entry.p50() - exact_p50).abs() <= spread * 0.5,
            "p50 {} too far from exact {exact_p50}",
            g.entry.p50()
        );
        assert!(g.entry.p50() >= g.entry.min() && g.entry.p50() <= g.entry.max());
        // The work units never reach the statistics: each metric equals,
        // bit for bit, a fresh accumulator fed the group's cells in order.
        let sequential = |metric: fn(&CellOutcome) -> f64| {
            let mut s = OnlineStats::new();
            for c in &par.cells {
                s.push(metric(c.outcome.as_ref().expect("no errors")));
            }
            s
        };
        let bits = |s: &OnlineStats| {
            [s.min(), s.max(), s.mean(), s.variance(), s.p50(), s.p90(), s.p99()].map(f64::to_bits)
        };
        for (name, stats, replay) in [
            ("stabilization", &g.stabilization, sequential(|o| o.stabilization_steps as f64)),
            ("entry", &g.entry, sequential(|o| o.legitimacy_entry as f64)),
            ("moves", &g.moves, sequential(|o| o.moves as f64)),
        ] {
            assert_eq!(stats.count(), 80, "{name}");
            assert_eq!(bits(stats), bits(&replay), "{name}");
            assert!(
                stats.p50() <= stats.p90() && stats.p90() <= stats.p99(),
                "{name}: p50 {} p90 {} p99 {}",
                stats.p50(),
                stats.p90(),
                stats.p99()
            );
        }
    }

    #[test]
    #[should_panic(expected = "merging different groups")]
    fn merge_rejects_mismatched_groups() {
        let m = tiny_matrix();
        let r = run_campaign(&m, &CampaignConfig::default());
        let mut a = r.groups[0].clone();
        a.merge(&r.groups[1]);
    }

    #[test]
    fn partial_bursts_recover_faster_than_full_bursts_on_average() {
        // The speculation story at cell granularity: small bursts sit
        // closer to the legitimate region.
        let m = ScenarioMatrix::builder()
            .topologies(["ring:10"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0, 1])
            .seeds(0..8)
            .build();
        let r = run_campaign(&m, &CampaignConfig { max_steps: 200_000, ..Default::default() });
        let full = &r.groups[0];
        let burst1 = &r.groups[1];
        assert!(full.entry.mean() >= burst1.entry.mean());
    }
}
